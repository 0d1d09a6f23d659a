"""Filter-effectiveness profiling: report invariants, replay fidelity, CLI.

The profile report's whole point is bookkeeping honesty: the four pair
classes must partition ``pairs_total`` exactly, the fractions must sum to
1.0, and every count must be taken verbatim from the kernel's own
:class:`KernelStats` — no re-derivation, no estimation.  These tests pin
that, plus the sampling determinism and the ``repro-rrq profile``
frontend.
"""

import json

import pytest

from repro.cli import main
from repro.errors import InvalidParameterError
from repro.obs.profile import (
    build_report,
    format_report,
    profile_workload,
    sample_queries,
)
from repro.vectorized.girkernel import GirKernelRRQ, KernelStats


@pytest.fixture(scope="module")
def kernel(small_products_m, small_weights_m):
    return GirKernelRRQ(small_products_m, small_weights_m, partitions=8)


@pytest.fixture(scope="module")
def small_products_m():
    from repro.data.synthetic import uniform_products
    return uniform_products(120, 4, seed=11)


@pytest.fixture(scope="module")
def small_weights_m():
    from repro.data.synthetic import uniform_weights
    return uniform_weights(100, 4, seed=12)


class TestBuildReport:
    def _stats(self):
        stats = KernelStats()
        stats.queries = 3
        stats.pairs_total = 1000
        stats.pairs_case1 = 600
        stats.pairs_case2 = 250
        stats.pairs_refined = 100
        stats.pairs_domin_skipped = 40
        stats.weights_pruned = 7
        stats.filter_s = 0.01
        stats.refine_s = 0.02
        stats.merge_s = 0.005
        return stats

    def test_classes_partition_pairs_total(self):
        report = build_report(self._stats(), [0.8, 0.9], replayed=3,
                              elapsed_s=0.1, k=10, kinds=["rtk"])
        pairs = report["pairs"]
        assert pairs == {"case1": 600, "case2": 250,
                         "undecided": 50, "refined": 100}
        assert sum(pairs.values()) == report["pairs_total"] == 1000
        # Domin-skipped pairs never entered classification: kept apart.
        assert report["pairs_domin_skipped"] == 40

    def test_fractions_sum_to_one(self):
        report = build_report(self._stats(), [], replayed=3,
                              elapsed_s=0.1, k=10, kinds=["rtk"])
        assert sum(report["fractions"].values()) == pytest.approx(1.0)
        assert report["fractions"]["case1"] == pytest.approx(0.6)
        assert report["fractions"]["undecided"] == pytest.approx(0.05)

    def test_empty_stats_report_all_zero(self):
        report = build_report(KernelStats(), [], replayed=0,
                              elapsed_s=0.0, k=10, kinds=["rtk"])
        assert report["pairs_total"] == 0
        assert all(v == 0.0 for v in report["fractions"].values())
        assert report["per_query_filter_rate"] == {
            "min": 0.0, "median": 0.0, "max": 0.0,
        }

    def test_format_report_renders_every_class(self):
        report = build_report(self._stats(), [0.7, 0.8, 0.95],
                              replayed=3, elapsed_s=0.1, k=10,
                              kinds=["rtk", "rkr"])
        text = format_report(report)
        for word in ("case1", "case2", "undecided", "refined", "total",
                     "filter rate", "stage seconds"):
            assert word in text


class TestSampleQueries:
    def test_deterministic_under_seed(self, small_products):
        a = sample_queries(small_products, 10, seed=42)
        b = sample_queries(small_products, 10, seed=42)
        assert len(a) == 10
        for qa, qb in zip(a, b):
            assert (qa == qb).all()

    def test_different_seed_differs(self, small_products):
        a = sample_queries(small_products, 20, seed=1)
        b = sample_queries(small_products, 20, seed=2)
        assert any((qa != qb).any() for qa, qb in zip(a, b))

    def test_oversampling_allowed(self, small_products):
        queries = sample_queries(small_products,
                                 small_products.size + 5)
        assert len(queries) == small_products.size + 5

    def test_bad_count_rejected(self, small_products):
        with pytest.raises(InvalidParameterError):
            sample_queries(small_products, 0)


class TestProfileWorkload:
    def test_totals_match_kernel_stats_verbatim(self, kernel,
                                                small_products_m):
        """The report is the sum of per-query KernelStats, nothing else."""
        queries = sample_queries(small_products_m, 6, seed=3)
        report = profile_workload(kernel, queries, k=5, kinds=("rtk",))
        expected = KernelStats()
        for q in queries:
            kernel.reverse_topk(q, 5)
            expected.merge(kernel.last_stats)
        assert report["queries"] == 6
        assert report["pairs_total"] == expected.pairs_total
        assert report["pairs"]["case1"] == expected.pairs_case1
        assert report["pairs"]["case2"] == expected.pairs_case2
        assert report["pairs"]["refined"] == expected.pairs_refined
        assert report["pairs_domin_skipped"] == \
            expected.pairs_domin_skipped
        assert report["weights_pruned"] == expected.weights_pruned
        assert report["filter_rate"] == \
            pytest.approx(expected.filter_rate())

    def test_partition_and_fraction_invariants_live(self, kernel,
                                                    small_products_m):
        queries = sample_queries(small_products_m, 8, seed=5)
        report = profile_workload(kernel, queries, k=5,
                                  kinds=("rtk", "rkr"))
        assert report["queries"] == 16  # 8 queries x 2 kinds
        assert sum(report["pairs"].values()) == report["pairs_total"]
        assert sum(report["fractions"].values()) == pytest.approx(1.0)
        rates = report["per_query_filter_rate"]
        assert 0.0 <= rates["min"] <= rates["median"] <= rates["max"] <= 1.0

    def test_bad_kind_rejected(self, kernel):
        with pytest.raises(InvalidParameterError):
            profile_workload(kernel, [], kinds=("topk",))

    def test_bad_k_rejected(self, kernel):
        with pytest.raises(InvalidParameterError):
            profile_workload(kernel, [], k=0)


class TestProfileCli:
    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("profile-data")
        assert main(["generate", "--dist", "UN", "--size", "150",
                     "--dim", "4", "--out", str(out)]) == 0
        return out

    def test_profile_prints_breakdown(self, data_dir, capsys):
        code = main(["profile", str(data_dir), "--queries", "5",
                     "-k", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "profiled 5 queries" in out
        assert "case1" in out and "undecided" in out

    def test_profile_json_output(self, data_dir, capsys):
        code = main(["profile", str(data_dir), "--queries", "5",
                     "-k", "5", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["queries"] == 5
        assert sum(report["pairs"].values()) == report["pairs_total"]
        assert sum(report["fractions"].values()) == pytest.approx(1.0)

    def test_profile_bad_path_exits_two(self, tmp_path, capsys):
        code = main(["profile", str(tmp_path / "nope")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
