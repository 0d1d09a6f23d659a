"""Unit tests for repro.core.storage (crash-safe index persistence)."""

import json

import numpy as np
import pytest

from repro.core.gir import GridIndexRRQ
from repro.core.storage import (
    index_size_report,
    load_index,
    save_index,
    verify_index,
)
from repro.data.synthetic import clustered_products, uniform_weights
from repro.errors import DataValidationError, IndexCorruptionError


@pytest.fixture
def built_index():
    P = clustered_products(150, 5, seed=301)
    W = uniform_weights(120, 5, seed=302)
    return GridIndexRRQ(P, W, partitions=16, chunk=128, use_domin=False)


class TestRoundtrip:
    def test_save_load_identical_answers(self, built_index, tmp_path):
        manifest = save_index(tmp_path / "idx", built_index)
        assert all(v > 0 for v in manifest.values())
        loaded = load_index(tmp_path / "idx")
        assert loaded.partitions == built_index.partitions
        assert loaded.chunk == built_index.chunk
        assert loaded.use_domin == built_index.use_domin
        assert np.array_equal(loaded.PA, built_index.PA)
        assert np.array_equal(loaded.WA, built_index.WA)
        q = built_index.products[3]
        assert (loaded.reverse_topk(q, 10).weights
                == built_index.reverse_topk(q, 10).weights)
        assert (loaded.reverse_kranks(q, 5).entries
                == built_index.reverse_kranks(q, 5).entries)

    def test_boundaries_preserved_exactly(self, built_index, tmp_path):
        save_index(tmp_path / "idx", built_index)
        loaded = load_index(tmp_path / "idx")
        assert np.array_equal(loaded.grid.alpha_p, built_index.grid.alpha_p)
        assert np.array_equal(loaded.grid.alpha_w, built_index.grid.alpha_w)


class TestIntegrity:
    def test_missing_meta_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataValidationError):
            load_index(tmp_path / "empty")

    def test_wrong_version_rejected(self, built_index, tmp_path):
        """Editing grid.meta breaks its checksum: structured corruption."""
        save_index(tmp_path / "idx", built_index)
        meta_path = tmp_path / "idx" / "grid.meta"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(IndexCorruptionError) as excinfo:
            load_index(tmp_path / "idx")
        assert excinfo.value.artifacts == ("grid.meta",)
        assert not excinfo.value.recoverable

    def test_wrong_version_rejected_legacy(self, built_index, tmp_path):
        """Without a manifest the version check itself still rejects."""
        save_index(tmp_path / "idx", built_index)
        (tmp_path / "idx" / "MANIFEST.json").unlink()
        meta_path = tmp_path / "idx" / "grid.meta"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DataValidationError):
            load_index(tmp_path / "idx")

    def test_stale_approx_vectors_rejected(self, built_index, tmp_path):
        """Swapping the raw data under the index must be detected."""
        from repro.data.io import save_products
        from repro.data.synthetic import clustered_products

        save_index(tmp_path / "idx", built_index)
        other = clustered_products(150, 5, seed=999)
        save_products(tmp_path / "idx" / "products.rrq", other)
        with pytest.raises(IndexCorruptionError) as excinfo:
            load_index(tmp_path / "idx")
        assert "products.rrq" in excinfo.value.artifacts

    def test_stale_approx_vectors_rejected_legacy(self, built_index,
                                                  tmp_path):
        """Pre-manifest directories rely on the deep quantization check."""
        from repro.data.io import save_products
        from repro.data.synthetic import clustered_products

        save_index(tmp_path / "idx", built_index)
        (tmp_path / "idx" / "MANIFEST.json").unlink()
        other = clustered_products(150, 5, seed=999)
        save_products(tmp_path / "idx" / "products.rrq", other)
        with pytest.raises(DataValidationError, match="stale or corrupted"):
            load_index(tmp_path / "idx")

    def test_legacy_missing_artifact_rejected(self, built_index, tmp_path):
        """A manifest-less dir missing an artifact looks like a torn save."""
        save_index(tmp_path / "idx", built_index)
        (tmp_path / "idx" / "MANIFEST.json").unlink()
        (tmp_path / "idx" / "wa.rrqa").unlink()
        with pytest.raises(DataValidationError, match="incomplete index"):
            load_index(tmp_path / "idx")


class TestManifest:
    def test_verify_reports_ok(self, built_index, tmp_path):
        save_index(tmp_path / "idx", built_index)
        report = verify_index(tmp_path / "idx")
        assert report["ok"]
        assert report["manifest"] == "ok"
        assert set(report["artifacts"]) == {
            "products.rrq", "weights.rrq", "pa.rrqa", "wa.rrqa", "grid.meta",
            "kernel.bin", "kernel.meta",
        }
        assert all(v == "ok" for v in report["artifacts"].values())

    def test_verify_flags_damage_and_recoverability(self, built_index,
                                                    tmp_path):
        save_index(tmp_path / "idx", built_index)
        pa = tmp_path / "idx" / "pa.rrqa"
        pa.write_bytes(b"\x00" * pa.stat().st_size)
        report = verify_index(tmp_path / "idx")
        assert not report["ok"]
        assert report["damaged"] == ["pa.rrqa"]
        assert report["recoverable"]

    def test_recover_rebuilds_derived_artifacts(self, built_index, tmp_path):
        save_index(tmp_path / "idx", built_index)
        original = (tmp_path / "idx" / "pa.rrqa").read_bytes()
        (tmp_path / "idx" / "pa.rrqa").write_bytes(b"garbage")
        loaded = load_index(tmp_path / "idx", recover=True)
        assert np.array_equal(loaded.PA, built_index.PA)
        # Healed in place, byte-identical (quantization is deterministic).
        assert (tmp_path / "idx" / "pa.rrqa").read_bytes() == original
        assert verify_index(tmp_path / "idx")["ok"]

    def test_recover_refuses_when_raw_damaged(self, built_index, tmp_path):
        save_index(tmp_path / "idx", built_index)
        target = tmp_path / "idx" / "weights.rrq"
        data = bytearray(target.read_bytes())
        data[50] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(IndexCorruptionError) as excinfo:
            load_index(tmp_path / "idx", recover=True)
        assert not excinfo.value.recoverable

    def test_corrupt_manifest_is_structured(self, built_index, tmp_path):
        save_index(tmp_path / "idx", built_index)
        (tmp_path / "idx" / "MANIFEST.json").write_text("{not json")
        with pytest.raises(IndexCorruptionError):
            load_index(tmp_path / "idx")


class TestSizeReport:
    def test_section32_overhead(self, built_index, tmp_path):
        """Approximate vectors cost well under 1/10 of the raw data."""
        save_index(tmp_path / "idx", built_index)
        report = index_size_report(tmp_path / "idx")
        assert 0 < report["approx_over_raw"] < 0.12
        assert report["pa.rrqa"] < report["products.rrq"] / 8
