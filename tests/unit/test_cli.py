"""Unit tests for the repro-rrq command-line interface."""

import os
import queue
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main


@pytest.fixture
def data_dir(tmp_path):
    rc = main(["generate", "--dist", "UN", "--size", "120", "--dim", "4",
               "--seed", "3", "--out", str(tmp_path / "data")])
    assert rc == 0
    return tmp_path / "data"


class TestGenerate:
    def test_creates_files(self, data_dir):
        assert (data_dir / "products.rrq").exists()
        assert (data_dir / "weights.rrq").exists()

    @pytest.mark.parametrize("dist", ["CL", "HOUSE", "DIANPING"])
    def test_other_distributions(self, tmp_path, dist, capsys):
        rc = main(["generate", "--dist", dist, "--size", "60",
                   "--out", str(tmp_path / dist)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out


class TestBuildAndInfo:
    def test_build_then_info(self, data_dir, tmp_path, capsys):
        rc = main(["build", str(data_dir), "--index", str(tmp_path / "idx"),
                   "--partitions", "16"])
        assert rc == 0
        rc = main(["info", str(tmp_path / "idx")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "approx_over_raw" in out
        # What this very process cost to start, beside blas_threads.
        assert re.search(r"^startup_cpu_s +\d+\.\d{3}$", out, re.M)
        assert re.search(r"^modules_loaded +\d+$", out, re.M)

    def test_info_reports_kernel_store(self, data_dir, tmp_path, capsys):
        """``build`` writes the kernel arrays into the index: ``info``
        sizes them and says a ``serve`` maps them; over raw data it says
        the server builds a kernel."""
        idx = tmp_path / "idx"
        assert main(["build", str(data_dir), "--index", str(idx)]) == 0
        assert main(["info", str(idx)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^kernel\.bin +[1-9][\d,]* bytes$", out, re.M)
        assert re.search(r"^serve start +mmap kernel\.bin", out, re.M)
        assert "integrity          ok" in out
        main(["info", str(data_dir)])
        out = capsys.readouterr().out
        assert re.search(r"^serve start +kernel built from products\.rrq",
                         out, re.M)

    def test_info_on_raw_data_is_not_damage(self, data_dir, capsys):
        """A ``generate`` output is what ``serve`` accepts as raw data:
        ``info`` says so, sizes what is there and exits 0."""
        assert main(["info", str(data_dir)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^contents +raw data, no index", out, re.M)
        assert re.search(r"^products\.rrq +[1-9][\d,]* bytes$", out, re.M)
        assert re.search(r"^weights\.rrq +[1-9][\d,]* bytes$", out, re.M)
        assert re.search(r"^serve start +kernel built from products\.rrq",
                         out, re.M)
        for absent in ("pa.rrqa", "wa.rrqa", "grid.meta", "kernel.bin",
                       "MANIFEST.json", "approx_over_raw", "integrity"):
            assert not re.search(rf"^{re.escape(absent)} ", out, re.M)
        assert "DAMAGED" not in out


class TestQuery:
    def test_rtk_on_index(self, data_dir, tmp_path, capsys):
        main(["build", str(data_dir), "--index", str(tmp_path / "idx")])
        rc = main(["query", str(tmp_path / "idx"), "--product", "5",
                   "--kind", "rtk", "-k", "10"])
        assert rc == 0
        assert "reverse top-10" in capsys.readouterr().out

    def test_rkr_on_raw_data(self, data_dir, capsys):
        rc = main(["query", str(data_dir), "--method", "sim",
                   "--product", "5", "--kind", "rkr", "-k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("preference") == 3

    def test_vector_query(self, data_dir, capsys):
        rc = main(["query", str(data_dir), "--vector", "10,20,30,40",
                   "--kind", "rtk", "-k", "5"])
        assert rc == 0

    def test_missing_query_point_errors(self, data_dir):
        with pytest.raises(SystemExit):
            main(["query", str(data_dir), "--kind", "rtk"])

    def test_out_of_range_product_errors(self, data_dir):
        with pytest.raises(SystemExit):
            main(["query", str(data_dir), "--product", "9999"])


class TestCompare:
    def test_all_methods_agree(self, data_dir, capsys):
        rc = main(["compare", str(data_dir), "--product", "5", "-k", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert "gir" in out and "naive" in out

    def test_rkr_compare(self, data_dir, capsys):
        rc = main(["compare", str(data_dir), "--product", "5",
                   "--kind", "rkr", "-k", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert "bbr" not in out  # RTK-only methods skipped


class TestModel:
    def test_worked_example(self, capsys):
        rc = main(["model", "--dim", "20", "--epsilon", "0.01"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recommended n   : 32" in out


class TestBench:
    def test_smoke_writes_json_and_verifies(self, tmp_path, capsys):
        import json

        config = [{"name": "cli-micro", "p_dist": "UN", "w_dist": "UN",
                   "n_products": 60, "n_weights": 50, "dim": 3, "k": 4,
                   "queries": 2, "partitions": 8}]
        config_file = tmp_path / "configs.json"
        config_file.write_text(json.dumps(config))
        out = tmp_path / "BENCH_test.json"
        rc = main(["bench", "--config", str(config_file),
                   "--out", str(out)])
        assert rc == 0
        assert "verified=True" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["ok"]
        assert report["machine"]["cpu_count"] >= 1
        record = report["configs"][0]
        assert record["oracle"] == "naive"
        assert record["rtk"]["kernel_p50_s"] > 0
        assert record["batch"]["per_query_p50_s"] >= 0
        for kind in ("rtk", "rkr"):
            assert record["kernel_stats"][kind]["pairs"]["total"] >= 0
            assert record["kernel_stats"][kind]["queries"] == 2

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["bench", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_out_dir_exits_2(self, tmp_path, capsys):
        rc = main(["bench", "--smoke",
                   "--out", str(tmp_path / "missing" / "b.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["bench", "--config", str(bad)])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_fused_writes_json_and_verifies(self, tmp_path, capsys):
        import json

        config = [{"name": "cli-fused-micro", "p_dist": "UN",
                   "w_dist": "UN", "n_products": 60, "n_weights": 50,
                   "dim": 3, "k": 3, "queries": 4, "partitions": 8}]
        config_file = tmp_path / "configs.json"
        config_file.write_text(json.dumps(config))
        out = tmp_path / "BENCH_fused_test.json"
        rc = main(["bench", "--fused", "--config", str(config_file),
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "verified=True" in printed
        assert "cold-start" in printed
        report = json.loads(out.read_text())
        assert report["ok"]
        assert report["benchmark"] == "girkernel-fused"
        record = report["configs"][0]
        assert record["fused_rtk"]["fused_wall_s"] > 0
        assert record["cold_start"]["mmap_load_s"] > 0

    def test_fused_smoke_defaults_to_fused_configs(self):
        args = build_parser().parse_args(["bench", "--fused", "--smoke"])
        assert args.fused and args.smoke
        args = build_parser().parse_args(["bench"])
        assert not args.fused


class TestServeFlags:
    @pytest.mark.parametrize("flag", [["--kernel-cache", "cache/"],
                                      ["--method", "sim"],
                                      ["--no-recover"],
                                      ["--no-fallback"]])
    def test_static_serve_has_no_engine_or_cache_flags(self, flag, capsys):
        """The index is the kernel store: nothing picks a cache, an
        engine or a recovery mode for it, and nothing switches off its
        one degraded route (``cluster --no-fallback`` is the
        coordinator's)."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "idx/"] + flag)
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err


def _perf_harness_parser():
    import importlib.util

    path = Path(__file__).resolve().parents[2] / "benchmarks/perf_harness.py"
    spec = importlib.util.spec_from_file_location("perf_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_parser()


class TestBenchFlags:
    @pytest.mark.parametrize("parser,argv", [
        (build_parser, ["bench", "--shards", "2"]),
        (_perf_harness_parser, ["--shards", "2"]),
    ], ids=["repro-rrq", "perf_harness"])
    def test_bench_has_no_shards_flag(self, parser, argv, capsys):
        """One process sweeps one kernel: there is no sharded column
        to size."""
        with pytest.raises(SystemExit) as excinfo:
            parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err


class TestClusterFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["cluster", "data/"])
        assert args.workers == 3
        assert args.partitioner == "range"
        assert args.fsync == "never"
        assert args.port == 8378
        assert args.shard_timeout_ms == 5000.0
        assert not args.no_fallback

    def test_overrides(self):
        args = build_parser().parse_args(
            ["cluster", "data/", "--workers", "5", "--partitioner", "mod",
             "--fsync", "always", "--shard-timeout-ms", "250",
             "--no-fallback"])
        assert args.workers == 5
        assert args.partitioner == "mod"
        assert args.fsync == "always"
        assert args.shard_timeout_ms == 250.0
        assert args.no_fallback

    def test_bad_partitioner_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cluster", "data/", "--partitioner", "hash"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTuneIsGone:
    @pytest.mark.parametrize("argv", [
        ["tune", "data"],
        ["serve", "data", "--auto-tune"],
        ["serve", "data", "--tune-interval", "5"],
        ["cluster", "data", "--auto-tune-every", "12"],
    ])
    def test_tune_subcommand_and_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestBlasGuardIsVisible:
    """``blas_threads`` is what a sweep's gemms run at: ``[1]`` under
    the kernel's guard, ``[]`` when numpy's BLAS is not one the guard
    can control, and then ``serve`` says so once at start."""

    @pytest.fixture
    def served(self, monkeypatch):
        """``serve`` up to ``serve_forever``, which returns at once;
        yields the ``/info`` bodies the servers were made with."""
        from repro.service import server as server_module

        infos = []

        class Stub:
            url = "http://127.0.0.1:0"
            startup = {"startup_cpu_s": 0.0, "modules_loaded": 0}

            def serve_forever(self):
                raise KeyboardInterrupt

            def server_close(self):
                pass

        def make_server(service, **kwargs):
            infos.append(service.info())
            return Stub()

        monkeypatch.setattr(server_module, "make_server", make_server)
        return infos

    def test_no_controllable_blas(self, data_dir, tmp_path, served,
                                  monkeypatch, capsys):
        from repro.vectorized import blasthreads

        monkeypatch.setattr(blasthreads, "_controls", [])
        assert main(["serve", str(data_dir)]) == 0
        assert main(["serve", str(tmp_path / "wal"), "--durable",
                     "--dim", "4"]) == 0
        assert [info["blas_threads"] for info in served] == [[], []]
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "blas_threads" in line]
        assert len(warnings) == 2 and all(
            line.startswith("WARNING: blas_threads []") for line in warnings)
        assert main(["info", str(tmp_path / "wal")]) == 0
        assert "blas_threads       []" in capsys.readouterr().out

    def test_guarded_blas(self, data_dir, tmp_path, served, two_threads,
                          capsys):
        assert main(["serve", str(data_dir)]) == 0
        assert served[0]["blas_threads"] == [1]
        assert two_threads["threads"] == 2           # restored after
        captured = capsys.readouterr()
        assert "blas_threads" not in captured.err
        main(["build", str(data_dir), "--index", str(tmp_path / "idx")])
        assert main(["info", str(tmp_path / "idx")]) == 0
        assert "blas_threads       [1]" in capsys.readouterr().out


class TestServeBannerReachesAPipe:
    """A parent reading ``serve``'s stdout through a pipe gets the URL the
    moment the socket is bound — block-buffered stdout, no
    ``PYTHONUNBUFFERED`` — with what the start cost beside it."""

    def test_static_banner_is_flushed(self, data_dir, tmp_path):
        assert main(["build", str(data_dir),
                     "--index", str(tmp_path / "idx")]) == 0
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             str(tmp_path / "idx"), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        lines = queue.Queue()
        threading.Thread(
            target=lambda: [lines.put(line) for line in proc.stdout],
            daemon=True).start()
        try:
            banner = lines.get(timeout=10).decode().strip()
            assert re.search(r" at http://[0-9.]+:\d+$", banner)
            assert re.search(
                r"\[startup_cpu_s=\d+\.\d+ modules_loaded=\d+\] at ", banner)
            assert lines.get(timeout=10).startswith(b"endpoints:")
        finally:
            proc.kill()
            proc.wait(timeout=10)
