"""Unit tests for repro.bench.harness (the perf-regression harness)."""

import json

import pytest

from repro.bench.harness import (
    SMOKE_CONFIGS,
    load_configs,
    machine_info,
    run_config,
    run_harness,
)
from repro.errors import DataValidationError, InvalidParameterError

MICRO = {"name": "micro", "p_dist": "UN", "w_dist": "UN",
         "n_products": 50, "n_weights": 40, "dim": 3, "k": 3,
         "queries": 2, "partitions": 8}


class TestConfigs:
    def test_smoke_configs_are_valid(self):
        for cfg in SMOKE_CONFIGS:
            assert cfg["n_weights"] <= 5000  # smoke must stay tiny

    def test_load_configs_roundtrip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([MICRO]))
        assert load_configs(path) == [MICRO]

    def test_load_configs_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_configs(tmp_path / "nope.json")

    def test_load_configs_missing_keys(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"name": "x"}]))
        with pytest.raises(DataValidationError, match="missing keys"):
            load_configs(path)

    def test_load_configs_not_a_list(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(DataValidationError):
            load_configs(path)


class TestRunConfig:
    def test_micro_config_verifies(self):
        record = run_config(MICRO, seed=11, verify=True)
        assert record["verified"]
        assert record["oracle"] == "naive"
        assert "shards" not in record
        for kind in ("rtk", "rkr"):
            assert record[kind]["gir_p50_s"] > 0
            assert record[kind]["kernel_p50_s"] > 0
            assert "sharded_p50_s" not in record[kind]
        assert "filter_rate" not in record["kernel_stats"]

    def test_rejects_bad_sizes(self):
        bad = dict(MICRO, queries=0)
        with pytest.raises(InvalidParameterError):
            run_config(bad)


class TestRunHarness:
    def test_report_shape_and_file(self, tmp_path):
        out = tmp_path / "BENCH.json"
        messages = []
        report = run_harness([MICRO], seed=5, verify=True,
                             out=out, progress=messages.append)
        assert report["ok"]
        assert messages  # progress callback fired
        on_disk = json.loads(out.read_text())
        assert on_disk["seed"] == 5
        assert on_disk["machine"] == machine_info() | {
            "cpu_count": on_disk["machine"]["cpu_count"]}
        assert [c["name"] for c in on_disk["configs"]] == ["micro"]

    def test_bad_out_fails_before_running(self, tmp_path):
        with pytest.raises(DataValidationError):
            run_harness([MICRO], out=tmp_path / "no" / "dir.json")

    def test_machine_stamp_says_what_a_sweep_sees(self, two_threads,
                                                  monkeypatch):
        from repro.vectorized import blasthreads

        assert machine_info()["blas_threads"] == [1]
        assert two_threads["threads"] == 2
        monkeypatch.setattr(blasthreads, "_controls", [])   # not OpenBLAS
        assert machine_info()["blas_threads"] == []


def _report(name="micro", rtk_p50=1.0, rkr_p50=2.0):
    return {"configs": [{"name": name,
                         "rtk": {"kernel_p50_s": rtk_p50},
                         "rkr": {"kernel_p50_s": rkr_p50}}]}


class TestCheckRegression:
    def test_within_budget_passes(self):
        from repro.bench.harness import check_regression

        verdict = check_regression(_report(rtk_p50=1.2, rkr_p50=2.4),
                                   _report(), max_regress_pct=25.0)
        assert verdict["ok"]
        assert verdict["compared"] == 2
        assert all(c["ok"] for c in verdict["checks"])

    def test_past_budget_fails_and_names_the_metric(self):
        from repro.bench.harness import check_regression

        verdict = check_regression(_report(rtk_p50=1.3), _report(),
                                   max_regress_pct=25.0)
        assert not verdict["ok"]
        failed = [c for c in verdict["checks"] if not c["ok"]]
        assert len(failed) == 1
        assert failed[0]["kind"] == "rtk"
        assert failed[0]["regress_pct"] == pytest.approx(30.0)

    def test_faster_is_never_a_failure(self):
        from repro.bench.harness import check_regression

        verdict = check_regression(_report(rtk_p50=0.1, rkr_p50=0.2),
                                   _report(), max_regress_pct=0.0)
        assert verdict["ok"]

    def test_no_overlap_fails_loudly(self):
        # Smoke configs gated against the full-size baseline compare
        # nothing; a vacuous pass would gate nothing forever.
        from repro.bench.harness import check_regression

        verdict = check_regression(_report(name="smoke"),
                                   _report(name="full"))
        assert not verdict["ok"]
        assert verdict["compared"] == 0

    def test_negative_budget_rejected(self):
        from repro.bench.harness import check_regression

        with pytest.raises(InvalidParameterError):
            check_regression(_report(), _report(), max_regress_pct=-1)

    def test_gate_against_committed_baseline_shape(self):
        # The committed BENCH_kernel.json must stay gateable: identical
        # report vs itself is a clean pass with all metrics compared.
        from pathlib import Path

        from repro.bench.harness import check_regression

        baseline = json.loads(
            Path(__file__).resolve().parents[2].joinpath(
                "BENCH_kernel.json").read_text())
        verdict = check_regression(baseline, baseline)
        assert verdict["ok"]
        assert verdict["compared"] == 2 * len(baseline["configs"])


class TestWarmTiming:
    """The kernel column is best-of-warm; a cold single call swung
    128 <-> 225 ms between runs of one build."""

    def test_best_of_repeats_after_one_untimed_call(self, monkeypatch):
        from repro.bench import harness

        # Start/stop readings of the timed calls; the untimed one reads
        # no clock.
        clock = iter([10.0, 10.5, 20.0, 20.2, 30.0, 30.9])
        calls = []

        def answer(q, k):
            calls.append((q, k))
            return len(calls)

        monkeypatch.setattr(harness, "perf_counter", lambda: next(clock))
        times, answers = harness._timed_queries(answer, ["q"], 3, warm=True)
        assert calls == [("q", 3)] * (1 + harness._FUSED_REPEATS)
        assert times == [pytest.approx(0.2)]
        assert answers == [len(calls)]

    def test_the_scalar_column_stays_one_call(self):
        from repro.bench import harness

        calls = []
        times, answers = harness._timed_queries(
            lambda q, k: calls.append(q) or "a", ["q1", "q2"], 3)
        assert calls == ["q1", "q2"] and answers == ["a", "a"]
        assert len(times) == 2

    def test_run_config_warms_kernel_and_sharded_columns_only(
            self, monkeypatch):
        from repro.bench import harness

        seen = []
        timed = harness._timed_queries

        def recording(answer, queries, k, warm=False):
            seen.append((type(answer.__self__).__name__, warm))
            return timed(answer, queries, k, warm)

        monkeypatch.setattr(harness, "_timed_queries", recording)
        run_config(MICRO, seed=11, verify=False)
        assert seen == [("GridIndexRRQ", False), ("GirKernelRRQ", True)] * 2


def _counted(report, rtk_pairs, rkr_pairs):
    report["configs"][0]["kernel_stats"] = {
        "rtk": {"pairs": {"total": rtk_pairs}},
        "rkr": {"pairs": {"total": rkr_pairs}}}
    return report


class TestPairCountGate:
    """``kernel_stats.<kind>.pairs.total`` repeats exactly, so it is
    gated at 1 % where a p50 gets 25 %."""

    def test_counts_within_one_percent_pass_and_are_listed_apart(self):
        from repro.bench.harness import check_regression

        verdict = check_regression(_counted(_report(), 1_005_000, 400_000),
                                   _counted(_report(), 1_000_000, 500_000))
        assert verdict["ok"] and verdict["compared"] == 2
        assert [(c["kind"], c["baseline"], c["current"], c["ok"])
                for c in verdict["count_checks"]] == [
            ("rtk", 1_000_000, 1_005_000, True),
            ("rkr", 500_000, 400_000, True)]

    def test_a_frugality_regression_fails_with_level_timings(self):
        from repro.bench.harness import check_regression

        verdict = check_regression(_counted(_report(), 1_000_000, 510_000),
                                   _counted(_report(), 1_000_000, 500_000))
        assert not verdict["ok"]
        assert all(c["ok"] for c in verdict["checks"])
        failed = [c for c in verdict["count_checks"] if not c["ok"]]
        assert [(c["kind"], c["metric"]) for c in failed] == [
            ("rkr", "kernel_stats.pairs.total")]
        assert failed[0]["regress_pct"] == pytest.approx(2.0)

    def test_a_side_without_counts_gates_timings_only(self):
        from repro.bench.harness import check_regression

        verdict = check_regression(_counted(_report(), 9, 9), _report())
        assert verdict["ok"] and verdict["count_checks"] == []

    def test_committed_baseline_carries_the_counts(self):
        from pathlib import Path

        from repro.bench.harness import check_regression

        baseline = json.loads(
            Path(__file__).resolve().parents[2].joinpath(
                "BENCH_kernel.json").read_text())
        verdict = check_regression(baseline, baseline)
        # A kind whose every query the Domin pre-pass emptied classified
        # nothing: zero has no percentage and is not compared.
        swept = [(cfg["name"], kind) for cfg in baseline["configs"]
                 for kind in ("rtk", "rkr")
                 if cfg["kernel_stats"][kind]["pairs"]["total"]]
        assert [(c["config"], c["kind"])
                for c in verdict["count_checks"]] == swept
        assert len(swept) >= len(baseline["configs"])


class TestPerKindKernelStats:
    def test_queries_not_double_counted(self):
        # Regression: the merged stats object used to report the RTK and
        # RKR sweeps' query totals *summed* ("queries": 4 for a 2-query
        # config); the per-kind split must report each sweep's own count.
        record = run_config(MICRO, seed=11, verify=False)
        stats = record["kernel_stats"]
        assert stats["rtk"]["queries"] == MICRO["queries"]
        assert stats["rkr"]["queries"] == MICRO["queries"]
        assert set(stats) == {"rtk", "rkr"}


FUSED_MICRO = {"name": "fused-micro", "p_dist": "UN", "w_dist": "UN",
               "n_products": 60, "n_weights": 50, "dim": 3, "k": 3,
               "queries": 4, "partitions": 8}


class TestFusedHarness:
    def test_fused_micro_config_verifies(self):
        from repro.bench.harness import run_fused_config

        record = run_fused_config(FUSED_MICRO, seed=11, verify=True)
        assert record["verified"]
        assert record["batch_q"] == 4
        for kind in ("fused_rtk", "fused_rkr"):
            numbers = record[kind]
            assert numbers["sequential_wall_s"] > 0
            assert numbers["fused_wall_s"] > 0
            assert numbers["wall_speedup"] > 0
            stats = numbers["fused_stats"]
            assert stats["fused"]["batches"] >= 1
            assert stats["fused"]["queries"] == 4
        cold = record["cold_start"]
        assert cold["rebuild_s"] > 0
        assert cold["mmap_load_s"] > 0
        assert cold["store_bytes"] > 0

    def test_fused_report_shape_and_file(self, tmp_path):
        from repro.bench.harness import run_fused_harness

        out = tmp_path / "BENCH_fused.json"
        report = run_fused_harness([FUSED_MICRO], seed=5, verify=False,
                                   out=out)
        assert report["ok"]
        on_disk = json.loads(out.read_text())
        assert on_disk["benchmark"] == "girkernel-fused"
        assert [c["name"] for c in on_disk["configs"]] == ["fused-micro"]

    def test_fused_gate_uses_fused_metrics(self):
        from repro.bench.harness import (
            FUSED_GATED_METRICS,
            check_regression,
        )

        def fused_report(wall=1.0, cold=0.5):
            return {"configs": [{
                "name": "fused-micro",
                "fused_rtk": {"fused_wall_s": wall},
                "fused_rkr": {"fused_wall_s": wall},
                "cold_start": {"mmap_load_s": cold},
            }]}

        ok = check_regression(fused_report(), fused_report(),
                              metrics=FUSED_GATED_METRICS)
        assert ok["ok"] and ok["compared"] == 3
        slow = check_regression(fused_report(cold=0.9), fused_report(),
                                metrics=FUSED_GATED_METRICS)
        assert not slow["ok"]
        failed = [c for c in slow["checks"] if not c["ok"]]
        assert failed[0]["kind"] == "cold_start"

    def test_committed_fused_baseline_is_gateable(self):
        from pathlib import Path

        from repro.bench.harness import (
            FUSED_GATED_METRICS,
            check_regression,
        )

        path = Path(__file__).resolve().parents[2] / "BENCH_fused.json"
        baseline = json.loads(path.read_text())
        verdict = check_regression(baseline, baseline,
                                   metrics=FUSED_GATED_METRICS)
        assert verdict["ok"]
        assert verdict["compared"] == 3 * len(baseline["configs"])
        # The committed numbers must keep the acceptance story honest:
        # every config shows a cold-start mmap win, and every answer was
        # verified against the oracle.  A shared pass of 8 is no longer
        # asserted to beat 8 batches of one: the sequential side runs
        # the same sweep, whose box floors settle most columns before
        # any tile, so the 8 queries share about 1.2 live queries per
        # tile column and the shared pass reads 0.63-1.09x of them at
        # |W| = 100k (docs/performance.md section 5).  It must still
        # cost less than twice what they cost.
        assert baseline["ok"]
        for cfg in baseline["configs"]:
            assert cfg["verified"]
            for kind in ("fused_rtk", "fused_rkr"):
                assert cfg[kind]["wall_speedup"] > 0.5
            assert cfg["cold_start"]["speedup"] > 1.0
