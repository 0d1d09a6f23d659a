#!/usr/bin/env python
"""Run the kernel perf-regression harness and write ``BENCH_*.json``.

Thin script wrapper over :mod:`repro.bench.harness`, and its one entry
point (``repro-rrq`` has no ``bench`` subcommand).  Three modes:

* default — the committed trajectory configs (|W| = 100k), writes
  ``BENCH_kernel.json`` next to the repo root;
* ``--smoke`` — tiny pinned-seed configs for CI (seconds, always
  verified against the naive oracle), writes ``BENCH_smoke.json``;
* ``--fused`` — the fused multi-query batch + mmap cold-start harness
  instead (writes ``BENCH_fused.json``, or ``BENCH_fused_smoke.json``
  with ``--smoke``); ``--baseline`` then gates the fused wall times and
  the mmap cold-start load time.

Exit codes: 0 on success, **1 when any kernel answer diverged from the
per-weight GIR loop or the oracle**, 2 on bad paths/config files.

Examples::

    PYTHONPATH=src python benchmarks/perf_harness.py --smoke
    PYTHONPATH=src python benchmarks/perf_harness.py --out BENCH_kernel.json
    PYTHONPATH=src python benchmarks/perf_harness.py --configs my_configs.json
    PYTHONPATH=src python benchmarks/perf_harness.py \
        --out BENCH_kernel_ci.json --baseline BENCH_kernel.json

With ``--baseline`` the run becomes a **regression gate**: each config's
kernel p50 (rtk and rkr) is compared against the committed baseline by
config name, and the script exits 1 when any metric is more than
``--max-regress-pct`` (default 25) percent slower — CI runs exactly
this against ``BENCH_kernel.json``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Blocked-GIR-kernel perf harness (writes BENCH_*.json)"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pinned-seed configs for CI")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default BENCH_kernel.json, "
                             "or BENCH_smoke.json with --smoke)")
    parser.add_argument("--configs", default=None, metavar="FILE",
                        help="JSON file with a list of config objects "
                             "(overrides the built-in configs)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base RNG seed (default: pinned harness seed)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the exact-oracle verification pass")
    parser.add_argument("--fused", action="store_true",
                        help="run the fused multi-query batch + mmap "
                             "cold-start harness instead")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="committed BENCH_*.json to gate against: "
                             "exit 1 when any kernel p50 regresses past "
                             "--max-regress-pct")
    parser.add_argument("--max-regress-pct", type=float, default=None,
                        help="regression budget for --baseline "
                             "(default 25)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.bench.harness import (
        DEFAULT_SEED,
        FUSED_SMOKE_CONFIGS,
        SMOKE_CONFIGS,
        load_configs,
        run_fused_harness,
        run_harness,
    )
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    if args.fused:
        out = args.out or ("BENCH_fused_smoke.json" if args.smoke
                           else "BENCH_fused.json")
    else:
        out = args.out or ("BENCH_smoke.json" if args.smoke
                           else "BENCH_kernel.json")
    try:
        configs = None
        if args.configs is not None:
            configs = load_configs(args.configs)
        elif args.smoke:
            configs = list(FUSED_SMOKE_CONFIGS if args.fused
                           else SMOKE_CONFIGS)
        seed = args.seed if args.seed is not None else DEFAULT_SEED
        if args.fused:
            report = run_fused_harness(
                configs=configs, seed=seed, verify=not args.no_verify,
                out=out,
                progress=lambda message: print(message, flush=True),
            )
        else:
            report = run_harness(
                configs=configs, seed=seed, verify=not args.no_verify,
                out=out,
                progress=lambda message: print(message, flush=True),
            )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in report["configs"]:
        if args.fused:
            cold = record["cold_start"]
            print(f"{record['name']}: "
                  f"rtk wall x{record['fused_rtk']['wall_speedup']:.2f} "
                  f"rkr wall x{record['fused_rkr']['wall_speedup']:.2f} "
                  f"cold-start x{cold['speedup']:.1f} "
                  f"verified={record['verified']}")
        else:
            rtk, rkr = record["rtk"], record["rkr"]
            print(f"{record['name']}: rtk x{rtk['kernel_speedup']:.1f} "
                  f"rkr x{rkr['kernel_speedup']:.1f} "
                  f"rkr_pairs="
                  f"{record['kernel_stats']['rkr']['pairs']['total']} "
                  f"verified={record['verified']}")
    print(f"wrote {out} (ok={report['ok']})")
    if not report["ok"]:
        print("error: kernel answers diverged from the oracle",
              file=sys.stderr)
        return 1
    if args.baseline is not None:
        import json

        from repro.bench.harness import (
            COUNT_MAX_REGRESS_PCT,
            DEFAULT_MAX_REGRESS_PCT,
            FUSED_GATED_METRICS,
            check_regression,
        )

        try:
            baseline = json.loads(open(args.baseline).read())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        budget = (args.max_regress_pct if args.max_regress_pct is not None
                  else DEFAULT_MAX_REGRESS_PCT)
        if args.fused:
            verdict = check_regression(report, baseline, budget,
                                       metrics=FUSED_GATED_METRICS)
        else:
            verdict = check_regression(report, baseline, budget)
        for check in verdict["checks"]:
            marker = "ok" if check["ok"] else "REGRESSED"
            print(f"gate {check['config']}/{check['kind']} "
                  f"{check['metric']}: {check['baseline_s']*1000:.2f}ms -> "
                  f"{check['current_s']*1000:.2f}ms "
                  f"({check['regress_pct']:+.1f}%) {marker}")
        for check in verdict["count_checks"]:
            marker = "ok" if check["ok"] else "REGRESSED"
            print(f"gate {check['config']}/{check['kind']} "
                  f"{check['metric']}: {check['baseline']:,} -> "
                  f"{check['current']:,} "
                  f"({check['regress_pct']:+.2f}%, budget "
                  f"{COUNT_MAX_REGRESS_PCT:g}%) {marker}")
        if not verdict["ok"]:
            if verdict["compared"] == 0:
                print("error: regression gate compared nothing — config "
                      "names do not overlap the baseline", file=sys.stderr)
            else:
                print(f"error: gated metrics regressed more than "
                      f"{budget:.0f}% (pair counts: "
                      f"{COUNT_MAX_REGRESS_PCT:g}%) vs {args.baseline}",
                      file=sys.stderr)
            return 1
        print(f"gate ok ({verdict['compared']} metrics within "
              f"{budget:.0f}% of {args.baseline})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
