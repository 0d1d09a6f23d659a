"""The package facades are export tables: same names, resolved on first use.

Every ``__init__`` that re-exports submodule names does so through
:func:`repro._lazy.lazy_exports`; these tests pin that nothing a caller
could see changed — each public name is the submodule's own object,
``dir`` and ``import *`` list them all, an unknown name fails the usual
way — and that the method registry still builds every method.
"""

import importlib
import multiprocessing
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.data.synthetic import uniform_products, uniform_weights
from repro.queries.engine import RRQEngine, available_methods, make_algorithm
from repro.vectorized.girkernel import GirKernelRRQ

PACKAGES = ["repro"] + [f"repro.{name}" for name in (
    "algorithms", "analysis", "bench", "cluster", "core", "data",
    "durability", "ext", "index", "obs", "queries", "resilience", "service",
    "stats", "storage", "vectorized")]


@pytest.mark.parametrize("package", PACKAGES)
class TestExportTable:
    def test_every_public_name_is_the_submodules_object(self, package):
        module = importlib.import_module(package)
        origin = {name: submodule
                  for submodule, names in module._EXPORTS.items()
                  for name in names}
        assert set(origin) <= set(module.__all__)
        for name in set(module.__all__) - {"__version__"}:
            if name in origin:
                expected = getattr(importlib.import_module(
                    f"{package}.{origin[name]}"), name)
            else:  # a plain submodule (``core.model``) needs no entry
                expected = importlib.import_module(f"{package}.{name}")
            assert getattr(module, name) is expected

    def test_dir_lists_every_public_name(self, package):
        module = importlib.import_module(package)
        assert set(dir(module)) >= set(module.__all__)

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"'{package}'"):
            module.no_such_name
        assert not hasattr(module, "__no_such_dunder__")


def test_star_import_binds_all_of_it():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(namespace) >= set(repro.__all__)


def test_submodule_access_after_a_bare_import():
    """``import repro`` alone, then attribute access all the way down."""
    code = ("import sys, repro\n"
            "assert 'repro.algorithms' not in sys.modules\n"
            "assert repro.algorithms.bbr.BranchBoundRTK.__name__\n"
            "assert repro.core.model and repro.__version__\n")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=Path(repro.__file__).resolve().parents[1], timeout=60)
    assert done.returncode == 0, done.stderr


def test_only_the_submodules_own_absence_is_an_attribute_error(
        tmp_path, monkeypatch):
    """A submodule that fails to import something says so."""
    package = tmp_path / "lazypkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from repro._lazy import lazy_exports\n"
        "__all__ = ['thing']\n"
        "__getattr__, __dir__ = lazy_exports(\n"
        "    globals(), {'broken': ['thing']})\n")
    (package / "broken.py").write_text("import no_such_dependency\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        lazypkg = importlib.import_module("lazypkg")
        with pytest.raises(ModuleNotFoundError, match="no_such_dependency"):
            lazypkg.thing
        with pytest.raises(AttributeError):
            lazypkg.absent
    finally:
        sys.modules.pop("lazypkg", None)


class TestMethodRegistry:
    P = uniform_products(60, 3, seed=21)
    W = uniform_weights(50, 3, seed=22)

    def test_available_methods_unchanged(self):
        assert available_methods() == (
            "auto", "bbr", "gir", "gir-adaptive", "gir-kernel",
            "gir-sparse", "mpa", "naive", "rta", "sim")

    @pytest.mark.parametrize("method", available_methods())
    def test_every_method_constructs(self, method):
        algorithm = make_algorithm(method, self.P, self.W)
        assert callable(algorithm.reverse_topk)
        assert callable(algorithm.reverse_kranks)


def test_engines_pickle_into_a_spawned_child():
    """The shard pool's path: qualified names resolve in a fresh process."""
    P = uniform_products(80, 3, seed=31)
    W = uniform_weights(70, 3, seed=32)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        for algorithm in (RRQEngine(P, W, method="gir"), GirKernelRRQ(P, W)):
            remote = pool.apply_async(algorithm.reverse_kranks, (P[5], 4))
            assert remote.get(timeout=60) == algorithm.reverse_kranks(P[5], 4)
