"""Unit tests for the packed-blob kernel store (mmap warm start).

The contract under test: ``save_kernel`` → ``load_kernel`` yields a
kernel whose arrays and *answers* are identical to the one that was
saved (both the mmap and the in-RAM load path), and every flavor of on-disk damage surfaces as a structured
:class:`IndexCorruptionError` naming the damaged artifacts — never a
wrong answer, never a raw OS error.
"""

import json

import numpy as np
import pytest

from repro.data.synthetic import uniform_products, uniform_weights
from repro.errors import DataValidationError, IndexCorruptionError
from repro.vectorized.girkernel import GirKernelRRQ
from repro.vectorized.kernelstore import (
    CORE_ARRAYS,
    F32_ARRAYS,
    kernel_store_size,
    load_kernel,
    save_kernel,
)


@pytest.fixture(scope="module")
def kernel():
    P = uniform_products(90, 4, seed=501)
    W = uniform_weights(120, 4, seed=502)
    return GirKernelRRQ(P, W)


@pytest.fixture()
def store(tmp_path, kernel):
    save_kernel(tmp_path, kernel)
    return tmp_path


class TestRoundTrip:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_arrays_and_answers_identical(self, store, kernel, mmap):
        loaded = load_kernel(store, mmap=mmap)
        core, lcore = kernel.core, loaded.core
        assert core.filter_dtype == lcore.filter_dtype == "float32"
        for name in ("P", "W", "P32", "W32"):
            np.testing.assert_array_equal(getattr(core, name),
                                          getattr(lcore, name))
            assert getattr(core, name).dtype == getattr(lcore, name).dtype
        for qi in (0, 17, 60):
            q = kernel.products[qi]
            assert loaded.reverse_topk(q, 7) == kernel.reverse_topk(q, 7)
            assert (loaded.reverse_kranks(q, 7).entries
                    == kernel.reverse_kranks(q, 7).entries)

    def test_float64_filter_round_trip(self, tmp_path):
        P = uniform_products(40, 3, seed=601)
        W = uniform_weights(50, 3, seed=602)
        kernel = GirKernelRRQ(P, W, filter_dtype="float64")
        save_kernel(tmp_path, kernel)
        loaded = load_kernel(tmp_path)
        assert loaded.core.filter_dtype == "float64"
        assert loaded.core.P32 is None and loaded.core.W32 is None
        meta = json.loads((tmp_path / "kernel.meta").read_text())
        assert list(meta["arrays"]) == ["P", "W", "P_swept", "W_swept",
                                        "w_order", "box_gate"]
        q = kernel.products[3]
        assert loaded.reverse_topk(q, 5) == kernel.reverse_topk(q, 5)

    def test_store_size_reported(self, store):
        size = kernel_store_size(store)
        assert size > 0
        assert size == sum(f.stat().st_size for f in store.iterdir())
        assert kernel_store_size(store / "never-there") == 0

    def test_full_verify_passes_on_intact_store(self, store):
        loaded = load_kernel(store, verify="full")
        assert loaded.core.P.shape == (90, 4)

    def test_loaded_views_are_readonly(self, store):
        loaded = load_kernel(store)
        with pytest.raises(ValueError):
            loaded.core.P[0, 0] = 1.0
        with pytest.raises(ValueError):
            loaded.core.W32[0, 0] = 1.0


class TestCorruption:
    def test_missing_directory_is_structured(self, tmp_path):
        with pytest.raises(IndexCorruptionError) as exc:
            load_kernel(tmp_path / "nope")
        assert "MANIFEST.json" in exc.value.artifacts

    def test_truncated_blob_detected_without_reading_data(self, store):
        blob = store / "kernel.bin"
        blob.write_bytes(blob.read_bytes()[:-64])
        with pytest.raises(IndexCorruptionError) as exc:
            load_kernel(store)
        assert "kernel.bin" in exc.value.artifacts

    def test_missing_blob_detected(self, store):
        (store / "kernel.bin").unlink()
        with pytest.raises(IndexCorruptionError) as exc:
            load_kernel(store)
        assert "kernel.bin" in exc.value.artifacts

    def test_flipped_byte_caught_by_full_verify(self, store):
        blob = store / "kernel.bin"
        raw = bytearray(blob.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        blob.write_bytes(bytes(raw))
        # size-only verification cannot see a same-length flip ...
        load_kernel(store, verify="size")
        # ... the CRC pass must.
        with pytest.raises(IndexCorruptionError) as exc:
            load_kernel(store, verify="full")
        assert "kernel.bin" in exc.value.artifacts

    def test_corrupt_manifest_json(self, store):
        (store / "MANIFEST.json").write_text("{not json")
        with pytest.raises(IndexCorruptionError):
            load_kernel(store)

    def test_meta_missing_array_entry(self, store, kernel):
        # Rewrite the store with a meta whose layout lost an array; the
        # manifest must be regenerated for sizes to match.
        meta_path = store / "kernel.meta"
        meta = json.loads(meta_path.read_text())
        del meta["arrays"]["W_swept32"]
        from repro.core.storage import write_manifest_dir
        write_manifest_dir(store, {
            "kernel.bin": (store / "kernel.bin").read_bytes(),
            "kernel.meta": json.dumps(meta).encode(),
        })
        with pytest.raises(IndexCorruptionError) as exc:
            load_kernel(store)
        assert "W_swept32" in str(exc.value)

    def test_unsupported_version_rejected(self, store):
        meta_path = store / "kernel.meta"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        from repro.core.storage import write_manifest_dir
        write_manifest_dir(store, {
            "kernel.bin": (store / "kernel.bin").read_bytes(),
            "kernel.meta": json.dumps(meta).encode(),
        })
        with pytest.raises(DataValidationError):
            load_kernel(store)

    def test_bad_verify_mode_rejected(self, store):
        with pytest.raises(DataValidationError):
            load_kernel(store, verify="paranoid")


class TestLayout:
    def test_blob_offsets_are_aligned(self, store):
        meta = json.loads((store / "kernel.meta").read_text())
        for name, spec in meta["arrays"].items():
            assert spec["offset"] % 64 == 0, name
        assert meta["version"] == 5
        assert list(meta["arrays"]) == list(CORE_ARRAYS + F32_ARRAYS) == [
            "P", "W", "P_swept", "W_swept", "w_order", "box_gate",
            "P_swept32", "W_swept32"]

    def test_store_bytes_at_the_benchmark_shape(self, tmp_path):
        """Format 3 packed the int64 grid codes of every row beside the
        rows themselves (96,000 of 272,000 array bytes for UNxUN d=4,
        1000 x 2000); format 4 packed rows and their float32 copies
        (under 180,000 bytes); format 5 adds the swept weight rows
        (64,000), their order (16,000) and 63 box gates (4,032): 261,162
        bytes."""
        kernel = GirKernelRRQ(uniform_products(1000, 4, seed=7),
                              uniform_weights(2000, 4, seed=8))
        assert save_kernel(tmp_path, kernel)["bytes"] < 262_000

    def test_store_is_two_artifacts_plus_manifest(self, store):
        names = sorted(f.name for f in store.iterdir())
        assert names == ["MANIFEST.json", "kernel.bin", "kernel.meta"]


class TestSweepOrder:
    """The core's product rows are stored as swept (ascending coordinate
    sum) beside their float32 copies as cast, ``P`` as the dataset has
    it."""

    def test_dataset_rows_and_swept_rows_both_round_trip(self, store,
                                                         kernel):
        loaded = load_kernel(store, mmap=True)
        rows = kernel.products.values
        assert loaded.P.tobytes() == rows.tobytes()
        assert loaded.products.values is loaded.P
        order = np.argsort(rows.sum(axis=1), kind="stable")
        assert (order != np.arange(rows.shape[0])).any()
        assert loaded.core.P.tobytes() == rows[order].tobytes()
        assert (loaded.core.P32.tobytes()
                == rows[order].astype(np.float32).tobytes())
        # No sort, gather or cast at load: every array the sweep reads
        # is a window of the one mapped blob, not a copy.
        blob = loaded.P.base
        while not isinstance(blob, np.memmap):
            blob = blob.base
        for arr in (loaded.P, loaded.core.P, loaded.core.W,
                    loaded.core.P32, loaded.core.W32):
            assert not arr.flags.owndata and not arr.flags.writeable
            assert np.shares_memory(arr, blob)
        assert loaded.core.P32.dtype == loaded.core.W32.dtype == np.float32
        queries = [kernel.products[i] for i in (0, 17, 60)]
        built = kernel.reverse_kranks_batch(queries, 7)
        built_pairs = kernel.last_stats.pairs_total
        mapped = loaded.reverse_kranks_batch(queries, 7)
        assert [r.entries for r in mapped] == [r.entries for r in built]
        assert loaded.last_stats.pairs_total == built_pairs
        assert ([r.weights for r in loaded.reverse_topk_batch(queries, 7)]
                == [r.weights for r in kernel.reverse_topk_batch(queries, 7)])

    def test_version_1_cache_is_refused_rebuilt_and_resaved(self, tmp_path,
                                                            monkeypatch):
        """A store written before the swept rows existed carries the
        same array names in dataset order: served as it is, it would
        sweep unordered rows against nothing that says so.  The version
        check refuses it: the server builds over it, and the next
        ``save_index`` writes the current format."""
        self._refused_rebuilt_resaved(tmp_path, monkeypatch, 1)

    def test_version_2_cache_is_refused_rebuilt_and_resaved(self, tmp_path,
                                                            monkeypatch):
        """A format-2 store holds boundary matrices and no ``W32``."""
        self._refused_rebuilt_resaved(tmp_path, monkeypatch, 2)

    def test_version_3_cache_is_refused_rebuilt_and_resaved(self, tmp_path,
                                                            monkeypatch):
        """A format-3 store carries grid codes and a config digest that
        nothing reads."""
        self._refused_rebuilt_resaved(tmp_path, monkeypatch, 3)

    def test_version_4_cache_is_refused_rebuilt_and_resaved(self, tmp_path,
                                                            monkeypatch):
        """A format-4 store, written as format 4 wrote it: ``W`` and
        ``W32`` in dataset order, no box order and no box gates.  Swept as
        it is, ``W`` would be read as kd-ordered rows under gates that
        are not there.  It is refused, served from one counted rebuild,
        re-saved as format 5, and a server over the format-5 store builds
        no kernel and sorts nothing."""
        from repro.core import storage
        from repro.core.gir import GridIndexRRQ
        from repro.service.server import QueryService
        from repro.vectorized import girkernel, kernelstore

        P = uniform_products(60, 3, seed=931)
        W = uniform_weights(140, 3, seed=932)
        gir = GridIndexRRQ(P, W, partitions=8)

        def format_4(kernel):
            core = kernel.core
            blob, layout = kernelstore._pack_blob({
                "P": kernel.P, "W": kernel.W, "P_swept": core.P,
                "P_swept32": core.P32,
                "W32": kernel.W.astype(np.float32)})
            meta = {"version": 4, "dim": 3, "n_products": 60,
                    "n_weights": 140, "value_range": 1.0,
                    "w_block": core.w_block, "p_block": core.p_block,
                    "use_domin": core.use_domin,
                    "filter_dtype": core.filter_dtype, "arrays": layout}
            return {"kernel.bin": blob,
                    "kernel.meta": json.dumps(meta).encode()}

        idx = tmp_path / "idx"
        with monkeypatch.context() as patch:
            patch.setattr(storage, "kernel_payloads", format_4)
            storage.save_index(idx, gir)
        with pytest.raises(DataValidationError, match="version 4"):
            load_kernel(idx)
        with pytest.warns(RuntimeWarning, match="version 4"):
            refused = QueryService.from_index_dir(idx)
        refused.close()
        assert refused.engine.core.W.flags.owndata  # built, not mapped
        assert refused.metrics.snapshot()["fallbacks"]["routes"] == [
            {"from": "kernel_store", "to": "rebuild",
             "reason": "corrupt", "count": 1}]

        storage.save_index(idx, gir)
        meta = json.loads((idx / "kernel.meta").read_text())
        assert meta["version"] == 5
        calls = {"builds": 0, "kd_boxes": 0}
        build, kd_boxes = GirKernelRRQ.__init__, girkernel.kd_boxes

        def counting_build(self, *args, **kwargs):
            calls["builds"] += 1
            build(self, *args, **kwargs)

        def counting_kd_boxes(*args):
            calls["kd_boxes"] += 1
            return kd_boxes(*args)

        monkeypatch.setattr(GirKernelRRQ, "__init__", counting_build)
        monkeypatch.setattr(girkernel, "kd_boxes", counting_kd_boxes)
        warm = QueryService.from_index_dir(idx)
        warm.close()
        assert calls == {"builds": 0, "kd_boxes": 0}
        assert warm.metrics.snapshot()["fallbacks"]["total"] == 0
        for arr in (warm.engine.core.W, warm.engine.core.w_order,
                    warm.engine.core.box_gate, warm.engine.core.W32):
            assert not arr.flags.owndata and not arr.flags.writeable
        q = P[11]
        for k in (1, 5, 40):
            assert (warm.engine.reverse_kranks(q, k).entries
                    == refused.engine.reverse_kranks(q, k).entries
                    == gir.reverse_kranks(q, k).entries)
            assert (warm.engine.reverse_topk(q, k).weights
                    == gir.reverse_topk(q, k).weights)

    @staticmethod
    def _refused_rebuilt_resaved(tmp_path, monkeypatch, version):
        from repro.core.gir import GridIndexRRQ
        from repro.core.storage import save_index
        from repro.service.server import QueryService
        from repro.vectorized import kernelstore

        P = uniform_products(60, 3, seed=921)
        W = uniform_weights(40, 3, seed=922)
        gir = GridIndexRRQ(P, W, partitions=8)
        idx = tmp_path / "idx"
        with monkeypatch.context() as patch:
            patch.setattr(kernelstore, "_FORMAT_VERSION", version)
            save_index(idx, gir)
        meta = json.loads((idx / "kernel.meta").read_text())
        assert meta["version"] == version
        with pytest.raises(DataValidationError, match=f"version {version}"):
            load_kernel(idx)

        with pytest.warns(RuntimeWarning, match=f"version {version}"):
            refused = QueryService.from_index_dir(idx)
        refused.close()
        rebuilt = refused.engine
        assert rebuilt.core.P.flags.owndata  # built, not mapped
        assert refused.metrics.snapshot()["fallbacks"]["routes"] == [
            {"from": "kernel_store", "to": "rebuild",
             "reason": "corrupt", "count": 1}]

        save_index(idx, gir)
        meta = json.loads((idx / "kernel.meta").read_text())
        assert meta["version"] == 5
        assert list(meta["arrays"]) == list(CORE_ARRAYS + F32_ARRAYS)
        warm = QueryService.from_index_dir(idx)
        warm.close()
        assert warm.metrics.snapshot()["fallbacks"]["total"] == 0
        assert not warm.engine.core.P.flags.owndata  # mapped
        q = P[7]
        assert (warm.engine.reverse_kranks(q, 5).entries
                == rebuilt.reverse_kranks(q, 5).entries
                == gir.reverse_kranks(q, 5).entries)
