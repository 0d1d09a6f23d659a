"""A static server is its index: ``save_index`` commits the kernel arrays
under the index's own manifest and ``QueryService.from_index_dir`` maps
them.

Counted, not timed: a served index builds no kernel and never calls
``load_index``; a damaged or kernel-less directory is served by exactly
one counted rebuild from verified raw data; damaged raw data refuses to
start.  Every answer is byte-identical to ``NaiveRRQ``.
"""

import json

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.cli import main
from repro.core import storage
from repro.core.gir import GridIndexRRQ
from repro.data.io import save_products, save_weights
from repro.data.synthetic import clustered_products, uniform_weights
from repro.errors import DataValidationError, IndexCorruptionError
from repro.service.server import (
    QueryService,
    ServiceConfig,
    canonical_json,
    encode_result,
)
from repro.storage.manifest import write_manifest_dir
from repro.vectorized.girkernel import GirKernelRRQ

CONFIG = ServiceConfig(batch_window_s=0.0)


@pytest.fixture(scope="module")
def data():
    return (clustered_products(150, 4, seed=2601),
            uniform_weights(120, 4, seed=2602))


@pytest.fixture
def index(data, tmp_path):
    P, W = data
    storage.save_index(tmp_path / "idx",
                       GridIndexRRQ(P, W, partitions=16, use_domin=False))
    return tmp_path / "idx"


@pytest.fixture
def counted(monkeypatch):
    """Kernel constructions and ``load_index`` calls, from here on."""
    calls = {"kernel_builds": 0, "load_index": 0}
    build, load = GirKernelRRQ.__init__, storage.load_index

    def counting_build(self, *args, **kwargs):
        calls["kernel_builds"] += 1
        build(self, *args, **kwargs)

    def counting_load(*args, **kwargs):
        calls["load_index"] += 1
        return load(*args, **kwargs)

    monkeypatch.setattr(GirKernelRRQ, "__init__", counting_build)
    monkeypatch.setattr(storage, "load_index", counting_load)
    return calls


def assert_exact(service, data):
    P, W = data
    naive = NaiveRRQ(P, W)
    for i in (0, 41, 97):
        for kind, k in (("rtk", 7), ("rkr", 4)):
            want = (naive.reverse_topk(P[i], k) if kind == "rtk"
                    else naive.reverse_kranks(P[i], k))
            got = service.query(product=i, kind=kind, k=k)
            assert canonical_json(got) == canonical_json(
                encode_result(want, kind))


def kernel_store_routes(service):
    return [route for route
            in service.metrics_snapshot()["fallbacks"]["routes"]
            if route["from"] == "kernel_store"]


def flip_byte(path, offset=-9):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def test_save_index_writes_the_kernel_under_one_manifest(index):
    manifest = json.loads((index / "MANIFEST.json").read_text())
    assert set(manifest["files"]) == set(storage.ARTIFACT_NAMES)
    assert {"kernel.bin", "kernel.meta"} <= set(manifest["files"])
    assert sorted(p.name for p in index.iterdir()) == sorted(
        list(storage.ARTIFACT_NAMES) + ["MANIFEST.json"])
    meta = json.loads((index / "kernel.meta").read_text())
    assert meta["use_domin"] is False  # the GIR's, not the default
    assert storage.verify_index(index)["ok"]


def test_serving_an_index_maps_it(index, data, counted):
    service = QueryService.from_index_dir(index, config=CONFIG)
    try:
        assert_exact(service, data)
        kernel = service.engine
        assert isinstance(kernel, GirKernelRRQ)
        assert not kernel.core.P.flags.owndata  # mapped, not built
        snap = service.metrics_snapshot()
        assert snap["fallbacks"]["total"] == 0
        assert snap["kernel"]["queries"] == 6
    finally:
        service.close()
    assert counted == {"kernel_builds": 0, "load_index": 0}


@pytest.mark.parametrize("artifact", ["kernel.bin", "grid.meta"])
def test_a_damaged_artifact_is_one_counted_rebuild(index, data, counted,
                                                   artifact):
    flip_byte(index / artifact)
    with pytest.warns(RuntimeWarning, match=artifact):
        service = QueryService.from_index_dir(index, config=CONFIG)
    try:
        assert_exact(service, data)
        assert service.engine.core.P.flags.owndata
        assert kernel_store_routes(service) == [
            {"from": "kernel_store", "to": "rebuild", "reason": "corrupt",
             "count": 1}]
        assert service.metrics_snapshot()["fallbacks"]["total"] == 1
    finally:
        service.close()
    assert counted == {"kernel_builds": 1, "load_index": 0}


@pytest.mark.parametrize("artifact",
                         ["products.rrq", "weights.rrq", "MANIFEST.json"])
def test_damaged_raw_data_refuses_to_start(index, artifact):
    flip_byte(index / artifact, offset=len(b"RRQ") + 1)
    with pytest.raises(IndexCorruptionError, match="repro-rrq build") as exc:
        QueryService.from_index_dir(index, config=CONFIG)
    assert artifact in exc.value.artifacts


@pytest.mark.parametrize("layout", ["raw_data", "index_without_kernel"])
def test_a_directory_without_kernel_arrays_is_one_counted_rebuild(
        data, tmp_path, counted, layout, recwarn):
    P, W = data
    directory = tmp_path / layout
    if layout == "raw_data":
        directory.mkdir()
        save_products(directory / "products.rrq", P)
        save_weights(directory / "weights.rrq", W)
    else:  # what save_index wrote before it carried the kernel
        payloads = storage._artifact_payloads(GridIndexRRQ(P, W,
                                                           partitions=8))
        write_manifest_dir(directory, {
            name: payloads[name] for name in storage.ARTIFACT_NAMES
            if not name.startswith("kernel.")})
        counted["kernel_builds"] = 0  # the payloads built one
    service = QueryService.from_index_dir(directory, config=CONFIG)
    try:
        assert_exact(service, data)
        assert kernel_store_routes(service) == [
            {"from": "kernel_store", "to": "rebuild", "reason": "absent",
             "count": 1}]
    finally:
        service.close()
    assert counted == {"kernel_builds": 1, "load_index": 0}
    assert not [w for w in recwarn if w.category is RuntimeWarning]


def test_not_a_data_directory_is_refused(tmp_path, capsys):
    with pytest.raises(DataValidationError, match="products.rrq"):
        QueryService.from_index_dir(tmp_path / "nope", config=CONFIG)
    assert main(["serve", str(tmp_path / "nope"), "--port", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_rebuild_serves_the_same_bytes_as_the_map(index, data):
    """The mapped kernel and the rebuilt one answer alike (the saved
    ``use_domin`` only moves counts, never an answer)."""
    mapped = QueryService.from_index_dir(index, config=CONFIG)
    (index / "kernel.bin").unlink()
    with pytest.warns(RuntimeWarning, match="kernel.bin"):
        rebuilt = QueryService.from_index_dir(index, config=CONFIG)
    try:
        P, _ = data
        for i in range(0, P.size, 13):
            for kind in ("rtk", "rkr"):
                assert (mapped.query(product=i, kind=kind, k=5)
                        == rebuilt.query(product=i, kind=kind, k=5))
        assert not np.shares_memory(rebuilt.engine.P, mapped.engine.P)
    finally:
        mapped.close()
        rebuilt.close()
