"""Socket-to-socket serving benchmark: entry point.

    run.py --workload NAME --seed N [--seconds S] [--trace [0|1]]
        one workload; the last stdout line is one JSON object
        {"correct", "attempted", "failed", "metrics"}: the end-to-end
        metrics untraced, the per-layer metrics with --trace 1.  The
        workload fixes how many passes a run of BENCHMARK.json's
        run_seconds replays; --seconds scales that count
    run.py [--out FILE]
        the whole suite, every metric printed by name with its unit
    run.py --compare A.json B.json
        both values, relative change and bound per workload and metric;
        exit 1 beyond a bound
    run.py --selfcheck
        two suite runs of the same code compared the same way, a bound
        exceeded in either direction counting
    run.py --smoke
        the suite on shrunken sequences, under 45 s

Exit code 1 on any wrong answer, failed path-intent assertion, failed
durability check or error while measuring (then without a result line);
2 when the repository's sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import harness

harness.require_source()

import metrics as metrics_mod  # noqa: E402 - needs the source path above
import trace as trace_mod  # noqa: E402
from loadgen import LoadGenerator, PassRecord, Round  # noqa: E402
from oracle import reply_ok  # noqa: E402
from workloads import K, WORKLOADS, load_data, strata_pool  # noqa: E402

DEFAULT_SEED = 1


class Tally:
    """Requests sent and requests that failed, over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, rounds: Sequence[Round], record: PassRecord) -> None:
        requests = [req for rnd in rounds for req in rnd]
        self.attempted += len(requests)
        self.failed += sum(not reply_ok(req, reply)
                           for req, reply in zip(requests, record.replies))


def _encode(rounds: Sequence[Round], prefix: str) -> List[str]:
    ids = []
    for index, req in enumerate(r for rnd in rounds for r in rnd):
        ids.append(f"{prefix}-{index}")
        req.encode(ids[-1])
    return ids


def _replay(gen: LoadGenerator, rounds: Sequence[Round], prefix: str,
            ) -> PassRecord:
    _encode(rounds, prefix)
    return gen.run_pass(rounds)


def _serve_one(workload, root: Path, label: str, passes: int,
               tally: Tally, last: bool) -> Tuple[metrics_mod.ServerRun, bool]:
    """Set up one fresh server, replay ``passes`` measured passes on it,
    stop it.  Replies are checked after the clock stops."""
    started = time.perf_counter()
    workload.begin_server()
    directory = workload.setup_dir(root / label)
    server = harness.Server(workload.serve_args(directory),
                            root / f"{label}.log")
    to_check: List[Tuple[Sequence[Round], PassRecord]] = []
    durable_ok = True
    try:
        with LoadGenerator(server.url) as gen:
            warmup = workload.warmup_rounds()
            to_check.append((warmup, _replay(gen, warmup, f"{label}-w")))
            for index in range(workload.warmup_passes):
                rounds = workload.next_pass()
                to_check.append(
                    (rounds, _replay(gen, rounds, f"{label}-d{index}")))
            run = metrics_mod.ServerRun(
                setup_s=time.perf_counter() - started)
            before, proc_before = server.metrics(), server.proc_stats()
            for index in range(passes):
                rounds = workload.next_pass()
                run.passes.append(
                    (rounds, _replay(gen, rounds, f"{label}-p{index}")))
            run.metrics_end = server.metrics()
            proc_after = server.proc_stats()
        run.metrics_delta = metrics_mod.numeric_delta(run.metrics_end, before)
        run.cpu_s = proc_after["cpu_s"] - proc_before["cpu_s"]
        run.threads = proc_after["threads"]
        run.rss_peak_mb = proc_after["rss_peak_mb"]
        if workload.durable:
            run.dir_bytes = harness.dir_bytes(directory)
            if last:
                durable_ok = _crash_and_recover(workload, server, directory,
                                                root, tally)
    finally:
        server.stop()
    for rounds, record in to_check + run.passes:
        tally.check(rounds, record)
    return run, durable_ok


def _crash_and_recover(workload, server, directory: Path, root: Path,
                       tally: Tally) -> bool:
    """SIGKILL the server, restart it on the same directory and check a
    held-out read against the model of acknowledged writes."""
    server.kill9()
    revived = harness.Server(workload.serve_args(directory),
                             root / "revived.log")
    try:
        with LoadGenerator(revived.url) as gen:
            rounds = [(workload.held_out_read(),)]
            record = _replay(gen, rounds, "revived")
    finally:
        revived.stop()
    failed_before = tally.failed
    tally.check(rounds, record)
    return tally.failed == failed_before


def deal_passes(workload, scale: float) -> List[int]:
    """Measured passes per fresh server for a run of ``scale`` times the
    ``run_seconds`` of BENCHMARK.json: a count fixed by the workload, so
    neither the machine nor the code under test decides how many samples
    a best time is taken over."""
    total = max(1, round(workload.passes * scale))
    servers = min(workload.servers, total)
    return [total // servers + (index < total % servers)
            for index in range(servers)]


def measure(workload, root: Path, passes: Sequence[int], tally: Tally,
            ) -> Tuple[List[metrics_mod.ServerRun], List[str]]:
    """The untraced run: one fresh server after the other, server ``i``
    replaying ``passes[i]`` measured passes."""
    runs, failures = [], []
    for index, count in enumerate(passes):
        run, durable_ok = _serve_one(
            workload, root, f"s{index}", count, tally,
            last=index == len(passes) - 1)
        runs.append(run)
        if not durable_ok:
            failures.append("held-out read after SIGKILL and restart differs "
                            "from the model of acknowledged writes")
    failures += workload.intent_failures(
        metrics_mod.total_delta(runs), sum(len(run.passes) for run in runs))
    return runs, failures


def _in_process_service(workload, directory: Path):
    """The service the CLI's ``serve`` would build for this workload (its
    remaining flags are the ``ServiceConfig`` defaults)."""
    from repro.service import server as server_mod

    config = server_mod.ServiceConfig(cache_capacity=workload.cache_size)
    if workload.durable:
        from repro.durability import DurableDynamicRRQ

        engine = DurableDynamicRRQ(directory, fsync="always",
                                   backend="segmented")
        return server_mod.DurableQueryService(engine, config=config)
    return server_mod.QueryService.from_index_dir(directory, config=config)


def _q1_batch_probe(products, weights) -> List[float]:
    """Layer probe: the q1_cold pool as batches of one through the fused
    kernel, the comparison the ROADMAP's "is Q=1 slower there?" needs."""
    from repro.vectorized.girkernel import GirKernelRRQ
    from workloads import PARTITIONS, Q1Cold

    kernel = GirKernelRRQ(products, weights, partitions=PARTITIONS)
    calls = [(batch, products[product])
             for product in strata_pool(products, Q1Cold.pool_size)
             for batch in (kernel.reverse_topk_batch,
                           kernel.reverse_kranks_batch)]
    # One untimed sweep first: in a process whose replay never reached the
    # kernel, its first calls run 3-10x slower for more than three tries.
    for batch, query in calls:
        batch([query], K)
    times = []
    for batch, query in calls:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            batch([query], K)
            best = min(best, time.perf_counter() - start)
        times.append(best)
    return times


def traced_replay(workload, root: Path, tally: Tally,
                  probes=trace_mod.PROBES, spans_path: Optional[Path] = None,
                  ) -> metrics_mod.TracedPass:
    """One pass against an in-process server with the probes installed."""
    from repro.service.server import serve_in_background

    with trace_mod.Recorder(probes) as recorder:
        workload.begin_server()
        directory = workload.setup_dir(root / "traced")
        service = _in_process_service(workload, directory)
        with serve_in_background(service) as server, \
                LoadGenerator(server.url) as gen:
            warmup = workload.warmup_rounds()
            checks = [(warmup, _replay(gen, warmup, "t-w"))]
            for index in range(workload.warmup_passes):
                rounds = workload.next_pass()
                checks.append((rounds, _replay(gen, rounds, f"t-d{index}")))
            rounds = workload.next_pass()
            ids = _encode(rounds, "t-p")
            start = time.perf_counter()
            record = gen.run_pass(rounds)
            window = (start, time.perf_counter())
    for checked_rounds, checked in checks + [(rounds, record)]:
        tally.check(checked_rounds, checked)
    if spans_path is not None:
        recorder.write_jsonl(spans_path)
    return metrics_mod.TracedPass(
        recorder, rounds, record, ids, window,
        _q1_batch_probe(workload.products, workload.weights))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, probes=trace_mod.PROBES,
                 spans_path: Optional[Path] = None) -> dict:
    """Measure one workload; returns its full report."""
    products, weights = load_data()
    workload = WORKLOADS[name](products, weights, seed, smoke=smoke)
    spec = metrics_mod.load_spec()
    passes = deal_passes(workload, seconds / spec["run_seconds"])
    tally = Tally()
    with harness.WorkDir(name) as root:
        runs, failures = measure(workload, root, passes, tally)
        measured = metrics_mod.client_metrics(runs)
        report = {
            "workload": name, "seed": seed, "seconds": seconds,
            "servers": len(passes), "passes": sum(passes),
            "environment": harness.environment_report(),
            "end_to_end": {m["name"]: measured[m["name"]]
                           for m in spec["end_to_end"]},
        }
        if trace:
            traced = traced_replay(workload, root, tally, probes, spans_path)
            layers, detail = metrics_mod.traced_layers(
                traced, measured["rtk_ms"]["value"])
            layers.update(metrics_mod.untraced_layers(runs))
            layers.update(measured)
            report["per_layer"] = {m["name"]: layers[m["name"]]
                                   for m in spec["per_layer"]}
            report["trace"] = detail
            share = detail["unattributed_share"]
            if share is not None and share > metrics_mod.UNATTRIBUTED_LIMIT:
                failures.append(
                    f"{share:.3f} of the traced latency is own time of the "
                    f"routing spans (limit {metrics_mod.UNATTRIBUTED_LIMIT}): "
                    f"a layer's probe is no longer on the path")
            if "service.server.handler_ms" not in detail["null_metrics"] \
                    and detail["traced_requests"] != detail["pass_requests"]:
                failures.append(f"{detail['traced_requests']} of "
                                f"{detail['pass_requests']} traced requests "
                                f"have a span tree")
            failures += workload.trace_failures(detail)
    report["ops_sent"] = tally.attempted
    report["ops_failed"] = tally.failed
    report["failures"] = failures
    report["correct"] = tally.failed == 0 and not failures
    return report


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _print_metrics(title: str, table: Dict[str, dict]) -> None:
    print(f"  {title}")
    for metric, entry in table.items():
        print(f"    {metric:38s} {entry['value']:16.6f} {entry['unit']}")


def print_report(report: dict) -> None:
    print(f"{report['workload']}  seed={report['seed']} "
          f"passes={report['passes']} ops_sent={report['ops_sent']} "
          f"ops_failed={report['ops_failed']}")
    print(f"  environment: {json.dumps(report['environment'])}")
    _print_metrics("end to end", report["end_to_end"])
    if "per_layer" in report:
        _print_metrics("per layer", report["per_layer"])
        for key in ("missing_probes", "null_metrics"):
            if report["trace"][key]:
                print(f"  {key}: {', '.join(report['trace'][key])}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def run_suite(seed: int, seconds: float, smoke: bool = False) -> dict:
    spec = metrics_mod.load_spec()
    suite = {"seed": seed, "workloads": {}}
    for entry in spec["workloads"]:
        report = run_workload(entry["name"], seed, seconds, trace=True,
                              smoke=smoke)
        print_report(report)
        suite["workloads"][entry["name"]] = report
    suite["correct"] = all(r["correct"] for r in suite["workloads"].values())
    return suite


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", type=Path, help="write the suite report")
    parser.add_argument("--spans", type=Path,
                        help="write the traced replay's spans as JSON lines")
    args = parser.parse_args(argv)
    harness.install_signal_handlers()
    seconds = args.seconds
    if seconds is None:
        seconds = 2.0 if args.smoke else metrics_mod.load_spec()["run_seconds"]

    if args.compare:
        before, after = (json.loads(Path(p).read_text()) for p in args.compare)
        lines, ok = metrics_mod.compare(before, after)
        print("\n".join(lines))
        return 0 if ok else 1

    if args.workload:
        # The traced run halves the untraced phase, so that with the
        # replay it ends as soon as an untraced run.  Whatever goes wrong
        # (a server that dies, a reply that never comes) ends the run
        # without a result line and with a non-zero exit code; the server
        # logs are on stderr by then.
        report = run_workload(
            args.workload, args.seed, seconds / 2 if args.trace else seconds,
            trace=bool(args.trace), smoke=args.smoke, spans_path=args.spans)
        print_report(report)
        print(json.dumps({
            "correct": report["correct"],
            "attempted": report["ops_sent"],
            "failed": report["ops_failed"],
            "metrics": report["per_layer" if args.trace else "end_to_end"],
        }))
        return 0 if report["correct"] else 1

    suite = run_suite(args.seed, seconds, smoke=args.smoke)
    ok = suite["correct"]
    if args.selfcheck:
        second = run_suite(args.seed, seconds, smoke=args.smoke)
        lines, within = metrics_mod.compare(suite, second, either_way=True)
        print("\n".join(lines))
        ok = ok and second["correct"] and within
    if args.out:
        args.out.write_text(json.dumps(suite, indent=1))
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
