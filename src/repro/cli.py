"""Command-line interface for the reverse-rank-query engine.

Installed as ``repro-rrq``.  Subcommands cover the full life cycle:

* ``generate`` — create a synthetic (or real-stand-in) data set on disk;
* ``build`` — pre-process a data set into a persisted Grid-index;
* ``query`` — answer a reverse top-k / reverse k-ranks query;
* ``compare`` — run all applicable algorithms on one query and report
  agreement and timings;
* ``model`` — Theorem-1 partition recommendations for a dimensionality;
* ``info`` — size report of a persisted index, or the durability report
  (checkpoint + WAL integrity) of a ``--durable`` directory;
* ``serve`` — run the JSON/HTTP query service over an index (its kernel
  arrays, mapped) or a data set (a kernel built at start),
  or (``--durable``) a write-ahead-logged segment store with mutation
  endpoints and optional hot-standby replication (``--standby-of``);
* ``cluster`` — launch N local durable workers plus the scatter-gather
  coordinator front door (dev/test form of ``repro.cluster``);
* ``bench`` — run the kernel perf-regression harness and write a
  ``BENCH_*.json`` trajectory file (exit 1 if kernel answers diverge
  from the exact oracle); ``--fused`` runs the fused multi-query batch
  and mmap cold-start harness instead;
* ``wal-dump`` — print every decoded record of a write-ahead log;
* ``storage-dump`` — decode a ``--durable`` directory's MVCC segment
  store: manifest generation/LSN, per-segment row counts and checksum
  status (exit 1 on corruption).

Examples::

    repro-rrq generate --dist UN --size 5000 --dim 6 --out data/
    repro-rrq build data/ --index idx/ --partitions 32
    repro-rrq query idx/ --product 17 --kind rtk -k 10
    repro-rrq compare data/ --product 17 -k 10
    repro-rrq model --dim 20 --epsilon 0.01
    repro-rrq serve idx/ --port 8377 --batch-window-ms 2   # maps idx/'s kernel
    repro-rrq bench --smoke --out BENCH_smoke.json
    repro-rrq bench --fused --smoke              # fused batch + mmap gate
    repro-rrq serve wal/ --durable --dim 6 --fsync always
    repro-rrq serve wal2/ --durable --standby-of http://127.0.0.1:8377
    repro-rrq wal-dump wal/
    repro-rrq storage-dump wal/

Invalid paths and malformed inputs exit with code 2 and a one-line
``error:`` message on stderr — never a traceback.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np


def _cmd_generate(args: argparse.Namespace) -> int:
    from .data import io
    from .data.real import color, dianping, house
    from .data.synthetic import generate_products, generate_weights

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dist = args.dist.upper()
    if dist == "DIANPING":
        data = dianping(num_restaurants=args.size, num_users=args.size,
                        seed=args.seed)
        products, weights = data.restaurants, data.users
    elif dist in ("HOUSE", "COLOR"):
        products = (house if dist == "HOUSE" else color)(
            size=args.size, seed=args.seed
        )
        weights = generate_weights("UN", args.size, products.dim,
                                   seed=args.seed + 1)
    else:
        products = generate_products(dist, args.size, args.dim, seed=args.seed)
        weights = generate_weights(args.weight_dist, args.size, args.dim,
                                   seed=args.seed + 1)
    io.save_products(out / "products.rrq", products)
    io.save_weights(out / "weights.rrq", weights)
    print(f"wrote {products.size} products (d={products.dim}) and "
          f"{weights.size} weights to {out}/")
    return 0


def _load_data(directory: str):
    """The dataset-loading block shared by ``query``/``compare``/``build``.

    Validates the directory layout up front so every subcommand fails with
    a clean ``error:`` line (exit code 2) instead of a traceback.
    """
    from .data import io
    from .errors import DataValidationError

    path = Path(directory)
    if not path.is_dir():
        raise DataValidationError(f"{directory}: not a directory")
    for name in ("products.rrq", "weights.rrq"):
        if not (path / name).is_file():
            raise DataValidationError(
                f"{directory}: not a data directory (missing {name}; "
                "run 'repro-rrq generate' first)"
            )
    return (io.load_products(path / "products.rrq"),
            io.load_weights(path / "weights.rrq"))


def _load_engine(directory: str, method: str = "gir"):
    """Load a persisted index, or build ``method`` over raw data, and
    return ``(engine, products)`` — the ``query`` subcommand's engine."""
    target = Path(directory)
    if (target / "grid.meta").exists():
        from .core.storage import load_index

        engine = load_index(target)
        return engine, engine.products
    from .queries.engine import make_algorithm

    products, weights = _load_data(directory)
    return make_algorithm(method, products, weights), products


def _cmd_build(args: argparse.Namespace) -> int:
    from .core.gir import GridIndexRRQ
    from .core.storage import save_index

    products, weights = _load_data(args.data)
    start = time.perf_counter()
    gir = GridIndexRRQ(products, weights, partitions=args.partitions)
    built = time.perf_counter() - start
    manifest = save_index(args.index, gir)
    total = sum(manifest.values())
    print(f"built n={args.partitions} Grid-index over "
          f"{products.size}x{weights.size} in {built*1000:.1f} ms; "
          f"persisted {total:,} bytes to {args.index}/")
    return 0


def _resolve_query(args, products) -> np.ndarray:
    if args.product is not None:
        if not 0 <= args.product < products.size:
            print(f"error: --product must be in [0, {products.size})",
                  file=sys.stderr)
            raise SystemExit(2)
        return products[args.product]
    if args.vector:
        return np.array([float(x) for x in args.vector.split(",")])
    print("error: provide --product INDEX or --vector v1,v2,...",
          file=sys.stderr)
    raise SystemExit(2)


def _cmd_query(args: argparse.Namespace) -> int:
    engine, products = _load_engine(args.index, args.method)
    q = _resolve_query(args, products)
    start = time.perf_counter()
    if args.kind == "rtk":
        result = engine.reverse_topk(q, args.k)
        elapsed = (time.perf_counter() - start) * 1000
        print(f"reverse top-{args.k}: {result.size} matching preferences "
              f"({elapsed:.1f} ms)")
        shown = result.sorted_indices()[:args.limit]
        print(" ".join(map(str, shown)) + (" ..." if result.size > args.limit else ""))
    else:
        result = engine.reverse_kranks(q, args.k)
        elapsed = (time.perf_counter() - start) * 1000
        print(f"reverse {args.k}-ranks ({elapsed:.1f} ms):")
        for rank, idx in result.entries:
            print(f"  preference {idx}: rank {rank}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .queries.engine import available_methods, make_algorithm

    products, weights = _load_data(args.data)
    q = _resolve_query(args, products)
    reference = None
    print(f"{'method':14s} {'time':>10s}   answer")
    for method in available_methods():
        alg = make_algorithm(method, products, weights)
        supported = (alg.supports_rtk if args.kind == "rtk"
                     else alg.supports_rkr)
        if not supported:
            continue
        start = time.perf_counter()
        if args.kind == "rtk":
            answer = alg.reverse_topk(q, args.k).weights
        else:
            answer = alg.reverse_kranks(q, args.k).entries
        elapsed = (time.perf_counter() - start) * 1000
        if reference is None:
            reference = answer
        status = "OK" if answer == reference else "MISMATCH"
        size = len(answer)
        print(f"{method:14s} {elapsed:8.1f}ms   size={size}  {status}")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    from .core import model

    n = model.recommend_partitions(args.dim, args.epsilon)
    bound = model.required_partitions(args.dim, args.epsilon)
    print(f"d={args.dim}, target filtering {1 - args.epsilon:.2%}:")
    print(f"  Theorem 1 bound : n > {bound:.2f}")
    print(f"  recommended n   : {n} (next power of two)")
    print(f"  grid memory     : {model.grid_memory_bytes(n)/1024:.1f} KiB")
    print(f"  model guarantee : F > {model.worst_case_filtering(args.dim, n):.4%}")
    return 0


def _blas_guard_note(blas_threads: list) -> str:
    """``info`` / ``serve`` wording for what a sweep's gemms run at."""
    if blas_threads:
        return f"{blas_threads} (sweeps pinned to one BLAS thread)"
    return ("[] — no controllable OpenBLAS found: the one-thread guard "
            "does nothing, sweep latency follows the BLAS's own threads")


def _warn_unguarded_blas(info: dict) -> None:
    if not info["blas_threads"]:
        print(f"WARNING: blas_threads "
              f"{_blas_guard_note(info['blas_threads'])}",
              file=sys.stderr, flush=True)


def _startup_note(server) -> str:
    # Goes before " at <url>": banner readers take the URL from the
    # end of the line.
    return ("[startup_cpu_s={startup_cpu_s} "
            "modules_loaded={modules_loaded}]".format(**server.startup))


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceConfig, ServiceLimits
    from .service.server import QueryService, make_server

    if getattr(args, "chaos_latency_ms", None):
        # Deterministic straggler mode for hedging benchmarks/tests: every
        # query through this worker pays a fixed extra latency.
        from .resilience.faults import FaultInjector, FaultPlan, set_injector

        plan = FaultPlan().add("service.query", "latency", times=None,
                               latency_s=args.chaos_latency_ms / 1000.0)
        set_injector(FaultInjector(plan))
        print(f"chaos: +{args.chaos_latency_ms:g}ms latency on every query",
              flush=True)
    config = ServiceConfig(
        batch_window_s=args.batch_window_ms / 1000.0,
        cache_capacity=args.cache_size,
        limits=ServiceLimits(
            max_queue_depth=args.max_queue,
            default_deadline_s=(args.deadline_ms / 1000.0
                                if args.deadline_ms > 0 else None),
            max_batch=args.max_batch,
        ),
        slow_query_threshold_s=(args.slow_ms / 1000.0
                                if args.slow_ms > 0 else None),
        trace_export_path=args.trace_export,
    )
    if args.durable:
        from .durability import DurableDynamicRRQ
        from .service.server import DurableQueryService

        engine = DurableDynamicRRQ(
            args.index, dim=args.dim, value_range=args.value_range,
            fsync=args.fsync, snapshot_every=args.snapshot_every,
        )
        role = "standby" if args.standby_of else "primary"
        service = DurableQueryService(engine, config=config, role=role,
                                      primary_url=args.standby_of)
        server = make_server(service, host=args.host, port=args.port,
                             verbose=args.verbose)
        info = service.info()
        print(f"serving durable {info['method']} ({role}, "
              f"fsync={info['fsync']}, lsn={info['last_lsn']}) over "
              f"{info['products']}x{info['weights']} (d={info['dim']}) "
              f"{_startup_note(server)} at {server.url}", flush=True)
        _warn_unguarded_blas(info)
        print("endpoints: POST /query /insert /delete /modify /compact "
              "/snapshot /promote, GET /healthz /metrics /info "
              "/replicate /traces /slowlog", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            server.server_close()
            service.close()
        return 0
    service = QueryService.from_index_dir(args.index, config=config)
    server = make_server(service, host=args.host, port=args.port,
                         verbose=args.verbose)
    info = service.info()
    print(f"serving {info['method']} over {info['products']}x"
          f"{info['weights']} (d={info['dim']}) {_startup_note(server)} "
          f"at {server.url}", flush=True)
    _warn_unguarded_blas(info)
    print("endpoints: POST /query, GET /healthz /metrics /info "
          "/traces /slowlog", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        service.close()
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Launch N local durable workers + the scatter-gather coordinator.

    A dev/test convenience: production deployments start workers
    individually (``serve --durable``) and point a coordinator at their
    URLs via a topology manifest; this subcommand does all of it in one
    process tree over a generated or on-disk data set.
    """
    from .cluster import LocalCluster

    # SIGTERM (``kill``, service managers) must tear down the whole
    # worker process tree exactly like Ctrl-C, not orphan it.
    def _sigterm_as_interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm_as_interrupt)

    products, weights = _load_data(args.data)
    cluster = LocalCluster(
        products, weights,
        num_workers=args.workers,
        partitioner=args.partitioner,
        base_dir=args.dirs,
        fsync=args.fsync,
        host=args.host,
        coordinator_port=args.port,
        shard_timeout_s=args.shard_timeout_ms / 1000.0,
        fallback=not args.no_fallback,
        replicas=args.replicas,
        supervise=args.supervise,
        hedge=args.hedge,
    )
    try:
        print(f"cluster: {args.workers} workers ({args.partitioner} "
              f"partitioner, {args.replicas} standby(s)/shard"
              f"{', supervised' if args.supervise else ''}"
              f"{', hedged reads' if args.hedge else ''}) over "
              f"{products.size}x{weights.size} "
              f"(d={products.dim})", flush=True)
        for shard_id, worker in enumerate(cluster.workers):
            count = cluster.topology.shard(shard_id).weight_count
            print(f"  shard {shard_id}: {worker.url}  "
                  f"({count} weights, pid {worker.proc.pid})", flush=True)
            for standby in cluster.standbys[shard_id]:
                print(f"    standby: {standby.url}  "
                      f"(pid {standby.proc.pid})", flush=True)
        print(f"coordinator at {cluster.url}", flush=True)
        print("endpoints: POST /query /insert /delete /compact /snapshot "
              "/promote, GET /healthz /metrics /info /traces /slowlog "
              "/cluster/healthz /cluster/topology", flush=True)
        while True:
            time.sleep(1.0)
            if args.supervise:
                continue  # the supervisor restarts dead workers itself
            dead = [i for i, w in enumerate(cluster.workers) if not w.alive]
            if dead and not getattr(args, "_warned", None):
                args._warned = True
                print(f"WARNING: worker shard(s) {dead} exited; queries "
                      "continue degraded", file=sys.stderr)
    except KeyboardInterrupt:
        print("\nshutting down cluster")
    finally:
        cluster.close()
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .core.storage import index_size_report, verify_index
    from .errors import DataValidationError
    from .vectorized.blasthreads import guarded_thread_counts

    path = Path(args.index)
    if not path.is_dir():
        raise DataValidationError(f"{args.index}: not a directory")
    print(f"{'blas_threads':18s} "
          f"{_blas_guard_note(guarded_thread_counts())}")
    print(f"{'startup_cpu_s':18s} {time.process_time():.3f}")
    print(f"{'modules_loaded':18s} {len(sys.modules)}")
    if any((path / name).exists()
           for name in ("wal.log", "CURRENT", "engine.json")):
        return _durability_info(path)
    report = index_size_report(args.index)
    present = {name for name in report if (path / name).exists()}
    # What `generate` writes and `serve` accepts: no index to verify.
    raw_data = present == {"products.rrq", "weights.rrq"}
    if raw_data:
        print(f"{'contents':18s} raw data, no index "
              "('repro-rrq build' writes one)")
    for name, size in report.items():
        if name == "approx_over_raw":
            if not raw_data:
                print(f"{name:18s} {size:.3%}")
        elif name in present:
            print(f"{name:18s} {size:>12,} bytes")
    _kernel_store_info(path)
    if raw_data:
        return 0
    integrity = verify_index(args.index)
    if integrity["ok"]:
        print("integrity          ok")
    else:
        damaged = ", ".join(sorted(integrity["damaged"])) or "manifest"
        hint = (" (recoverable: rebuild from raw data)"
                if integrity["recoverable"] else "")
        print(f"integrity          DAMAGED: {damaged}{hint}")
        return 1
    return 0


def _kernel_store_info(path: Path) -> None:
    """How ``serve`` starts on ``path``: mapping its kernel arrays, or
    building a kernel over the raw data."""
    if (path / "kernel.bin").exists() and (path / "kernel.meta").exists():
        print(f"{'serve start':18s} mmap kernel.bin (zero-copy, no build)")
    else:
        print(f"{'serve start':18s} kernel built from products.rrq / "
              "weights.rrq ('repro-rrq build' writes kernel.bin)")


def _durability_info(path: Path) -> int:
    """The ``info`` body for a durability (WAL + segments) directory."""
    import json as _json

    from .durability import durability_report

    params_file = path / "engine.json"
    if params_file.exists():
        try:
            params = _json.loads(params_file.read_text())
            print(f"{'engine':18s} durable-dynamic (dim={params.get('dim')}, "
                  f"value_range={params.get('value_range')})")
        except ValueError:
            print(f"{'engine':18s} durable-dynamic (engine.json unreadable)")
    report = durability_report(path)
    storage = report["storage"]
    if storage["status"] == "ok":
        print(f"{'checkpoint':18s} lsn={storage['lsn']}, "
              f"generation={storage['generation']}, "
              f"{storage['segments']} segment(s), "
              f"dead={storage['dead_products']}p/"
              f"{storage['dead_weights']}w  [ok]")
    elif storage["status"] == "none":
        print(f"{'checkpoint':18s} none")
    else:
        print(f"{'checkpoint':18s} {storage['status']}")
    wal = report["wal"]
    print(f"{'wal':18s} {wal['records']} records, "
          f"lsn {wal['first_lsn']}..{wal['last_lsn']}, "
          f"{wal['torn_bytes']} torn bytes  [{wal['status']}]")
    if wal["status"] == "corrupt":
        print(f"{'wal error':18s} {wal['error']} (offset {wal['offset']})")
    print(f"{'integrity':18s} {'ok' if report['ok'] else 'DAMAGED'}")
    return 0 if report["ok"] else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the kernel perf harness; write ``BENCH_*.json``.

    Exit 2 on bad paths (missing config file, unwritable output
    directory — the CLI convention), exit 1 when a kernel answer
    diverges from the exact oracle.
    """
    from .bench.harness import (
        DEFAULT_SEED,
        FUSED_SMOKE_CONFIGS,
        SMOKE_CONFIGS,
        load_configs,
        run_harness,
    )

    configs = None
    if args.config is not None:
        configs = load_configs(args.config)
    elif args.smoke:
        configs = list(FUSED_SMOKE_CONFIGS if args.fused
                       else SMOKE_CONFIGS)
    if args.fused:
        return _bench_fused(args, configs)
    out = args.out or ("BENCH_smoke.json" if args.smoke
                       else "BENCH_kernel.json")
    report = run_harness(
        configs=configs,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        verify=not args.no_verify,
        out=out,
        progress=lambda message: print(message, flush=True),
    )
    for record in report["configs"]:
        batch = record["batch"]
        print(f"{record['name']}: "
              f"rtk x{record['rtk']['kernel_speedup']:.1f} "
              f"rkr x{record['rkr']['kernel_speedup']:.1f} "
              f"rkr_pairs="
              f"{record['kernel_stats']['rkr']['pairs']['total']} "
              f"batch p50={batch['per_query_p50_s']*1000:.1f}ms "
              f"p95={batch['per_query_p95_s']*1000:.1f}ms "
              f"verified={record['verified']}")
    print(f"wrote {out} (ok={report['ok']})")
    if not report["ok"]:
        print("error: kernel answers diverged from the oracle",
              file=sys.stderr)
        return 1
    return 0


def _bench_fused(args: argparse.Namespace, configs) -> int:
    """``bench --fused``: the fused-batch + mmap cold-start harness."""
    from .bench.harness import DEFAULT_SEED, run_fused_harness

    out = args.out or ("BENCH_fused_smoke.json" if args.smoke
                       else "BENCH_fused.json")
    report = run_fused_harness(
        configs=configs,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        verify=not args.no_verify,
        out=out,
        progress=lambda message: print(message, flush=True),
    )
    for record in report["configs"]:
        cold = record["cold_start"]
        print(f"{record['name']}: "
              f"rtk wall x{record['fused_rtk']['wall_speedup']:.2f} "
              f"filter x{record['fused_rtk']['filter_speedup']:.2f}  "
              f"rkr wall x{record['fused_rkr']['wall_speedup']:.2f} "
              f"filter x{record['fused_rkr']['filter_speedup']:.2f}  "
              f"cold-start x{cold['speedup']:.1f} "
              f"(rebuild {cold['rebuild_s']*1000:.1f}ms, "
              f"mmap {cold['mmap_load_s']*1000:.2f}ms, "
              f"store {cold['store_bytes']:,}B) "
              f"verified={record['verified']}")
    print(f"wrote {out} (ok={report['ok']})")
    if not report["ok"]:
        print("error: fused answers diverged from the sequential kernel "
              "or the oracle", file=sys.stderr)
        return 1
    return 0


def _cmd_wal_dump(args: argparse.Namespace) -> int:
    """Decode and print a WAL; exit 1 on mid-log corruption."""
    from .durability.wal import read_wal, wal_path
    from .errors import DataValidationError, WalCorruptionError

    path = Path(args.directory)
    wal_file = path if path.is_file() else wal_path(path)
    if not wal_file.exists():
        raise DataValidationError(f"{wal_file}: no write-ahead log found")
    try:
        records, valid_bytes, torn = read_wal(wal_file)
    except WalCorruptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'LSN':>10s}  {'OP':<16s}  DIGEST")
    for record in records:
        print(f"{record.lsn:>10d}  {record.op:<16s}  {record.digest()}")
    summary = f"{len(records)} records, {valid_bytes:,} valid bytes"
    if torn:
        summary += f", {torn} torn trailing bytes (dropped)"
    print(summary)
    return 0


def _cmd_storage_dump(args: argparse.Namespace) -> int:
    """Decode a segment store's manifest + per-segment checksum status.

    Exit 1 on any corruption — a damaged segment, an unreadable or
    checksum-failed manifest — so scripts can gate on the result the
    same way they do with ``wal-dump``.
    """
    import json as _json

    from .durability import SEGMENTS_DIRNAME
    from .errors import DataValidationError, IndexCorruptionError
    from .storage.manifest import (
        CURRENT_NAME,
        read_current_manifest,
        verify_manifest_dir,
    )
    from .storage.segment import META_NAME

    path = Path(args.directory)
    if (path / SEGMENTS_DIRNAME / CURRENT_NAME).exists():
        path = path / SEGMENTS_DIRNAME
    try:
        manifest = read_current_manifest(path)
    except IndexCorruptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if manifest is None:
        raise DataValidationError(f"{path}: no segment store found")
    params = manifest.get("params", {})
    print(f"{'manifest':12s} generation={manifest['generation']}  "
          f"lsn={manifest['lsn']}  crc32={manifest['crc32']}")
    print(f"{'params':12s} dim={params.get('dim')}  "
          f"value_range={params.get('value_range')}  "
          f"partitions={params.get('partitions')}")
    print(f"{'ids':12s} next_pid={manifest['next_pid']}  "
          f"next_wid={manifest['next_wid']}")
    print(f"{'dead':12s} products={len(manifest['dead_products'])}  "
          f"weights={len(manifest['dead_weights'])}")
    corrupt = []
    print(f"{'SEGMENT':<14s}  {'PRODUCTS':>8s}  {'WEIGHTS':>8s}  STATUS")
    for name in manifest["segments"]:
        seg_dir = path / name
        if not seg_dir.is_dir():
            corrupt.append(name)
            print(f"{name:<14s}  {'-':>8s}  {'-':>8s}  MISSING")
            continue
        report = verify_manifest_dir(seg_dir)
        if not report["ok"]:
            corrupt.append(name)
            damaged = ", ".join(sorted(report["damaged"])) or "manifest"
            print(f"{name:<14s}  {'-':>8s}  {'-':>8s}  DAMAGED: {damaged}")
            continue
        meta = _json.loads((seg_dir / META_NAME).read_text())
        print(f"{name:<14s}  {meta['n_products']:>8d}  "
              f"{meta['n_weights']:>8d}  ok")
    status = f"CORRUPT ({', '.join(corrupt)})" if corrupt else "ok"
    print(f"{'integrity':12s} {status}")
    return 1 if corrupt else 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-rrq`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-rrq",
        description="Reverse rank queries with the Grid-index (EDBT 2017 "
                    "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a data set")
    gen.add_argument("--dist", default="UN",
                     help="UN|CL|AC|NORMAL|EXP|HOUSE|COLOR|DIANPING")
    gen.add_argument("--weight-dist", default="UN", help="UN|CL|NORMAL|EXP")
    gen.add_argument("--size", type=int, default=2000)
    gen.add_argument("--dim", type=int, default=6)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    build = sub.add_parser("build", help="build + persist a Grid-index")
    build.add_argument("data", help="directory from 'generate'")
    build.add_argument("--index", required=True)
    build.add_argument("--partitions", type=int, default=32)
    build.set_defaults(func=_cmd_build)

    query = sub.add_parser("query", help="answer one query")
    query.add_argument("index", help="index directory (or raw data directory)")
    query.add_argument("--method", default="gir",
                       help="algorithm when querying raw data")
    query.add_argument("--kind", choices=("rtk", "rkr"), default="rtk")
    query.add_argument("-k", type=int, default=10)
    query.add_argument("--product", type=int)
    query.add_argument("--vector")
    query.add_argument("--limit", type=int, default=20)
    query.set_defaults(func=_cmd_query)

    cmp_ = sub.add_parser("compare", help="run all algorithms on one query")
    cmp_.add_argument("data")
    cmp_.add_argument("--kind", choices=("rtk", "rkr"), default="rtk")
    cmp_.add_argument("-k", type=int, default=10)
    cmp_.add_argument("--product", type=int)
    cmp_.add_argument("--vector")
    cmp_.set_defaults(func=_cmd_compare)

    model_p = sub.add_parser("model", help="Theorem-1 recommendation")
    model_p.add_argument("--dim", type=int, required=True)
    model_p.add_argument("--epsilon", type=float, default=0.01)
    model_p.set_defaults(func=_cmd_model)

    info = sub.add_parser("info", help="index size / durability report")
    info.add_argument("index")
    info.set_defaults(func=_cmd_info)

    bench = sub.add_parser(
        "bench", help="kernel perf harness: write a BENCH_*.json trajectory"
    )
    bench.add_argument("--smoke", action="store_true",
                       help="tiny pinned-seed configs (CI smoke)")
    bench.add_argument("--out", default=None,
                       help="output JSON path (default BENCH_kernel.json, "
                            "or BENCH_smoke.json with --smoke)")
    bench.add_argument("--config", default=None, metavar="FILE",
                       help="JSON file with a list of config objects")
    bench.add_argument("--seed", type=int, default=None,
                       help="base RNG seed (default: pinned harness seed)")
    bench.add_argument("--no-verify", action="store_true",
                       help="skip the exact-oracle verification pass")
    bench.add_argument("--fused", action="store_true",
                       help="run the fused multi-query batch + mmap "
                            "cold-start harness instead (writes "
                            "BENCH_fused*.json)")
    bench.set_defaults(func=_cmd_bench)

    wal_dump = sub.add_parser(
        "wal-dump", help="decode a write-ahead log (exit 1 on corruption)"
    )
    wal_dump.add_argument("directory",
                          help="durability directory (or a wal.log file)")
    wal_dump.set_defaults(func=_cmd_wal_dump)

    storage_dump = sub.add_parser(
        "storage-dump",
        help="decode a segment store manifest (exit 1 on corruption)",
    )
    storage_dump.add_argument(
        "directory",
        help="durability directory (or its segments/ subdirectory)")
    storage_dump.set_defaults(func=_cmd_storage_dump)

    serve = sub.add_parser("serve", help="run the JSON/HTTP query service")
    serve.add_argument("index", help="index directory (or raw data directory)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8377)
    serve.add_argument("--batch-window-ms", type=float, default=2.0,
                       help="longest wait to be coalesced (0 disables)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="largest coalesced batch")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="LRU result-cache capacity (0 disables)")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="admission queue depth before 429s")
    serve.add_argument("--deadline-ms", type=float, default=10_000.0,
                       help="default per-request deadline (0 disables)")
    serve.add_argument("--slow-ms", type=float, default=250.0,
                       help="slow-query log threshold in ms (0 disables)")
    serve.add_argument("--trace-export", default=None, metavar="FILE",
                       help="append finished traces to this JSON-lines file")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request")
    serve.add_argument("--durable", action="store_true",
                       help="treat the directory as a WAL+snapshot "
                            "durability directory and serve the dynamic "
                            "engine with mutation endpoints")
    serve.add_argument("--dim", type=int, default=None,
                       help="dimensionality when creating a fresh "
                            "--durable directory")
    serve.add_argument("--value-range", type=float, default=1.0,
                       help="attribute range of a fresh --durable engine")
    serve.add_argument("--fsync", choices=("always", "interval", "never"),
                       default="always",
                       help="WAL fsync policy (--durable only)")
    serve.add_argument("--snapshot-every", type=int, default=0,
                       help="auto-snapshot after this many mutations "
                            "(0 disables; --durable only)")
    serve.add_argument("--storage", choices=("segmented",),
                       default="segmented",
                       help="deprecated: 'segmented', the only durable "
                            "backend, is the one value accepted")
    serve.add_argument("--chaos-latency-ms", type=float, default=0.0,
                       metavar="MS",
                       help="inject a fixed extra latency into every query "
                            "(deterministic straggler for hedging "
                            "benchmarks; 0 disables)")
    serve.add_argument("--standby-of", default=None, metavar="URL",
                       help="run as a hot standby tailing this primary's "
                            "/replicate feed (reads OK, writes 409)")
    serve.set_defaults(func=_cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="launch N local durable workers + a scatter-gather coordinator",
    )
    cluster.add_argument("data", help="data directory from 'generate'")
    cluster.add_argument("--workers", type=int, default=3,
                         help="worker process count (one shard each)")
    cluster.add_argument("--partitioner", choices=("range", "mod"),
                         default="range",
                         help="weight partition function (see "
                              "docs/operations.md)")
    cluster.add_argument("--dirs", default=None, metavar="DIR",
                         help="parent directory for per-worker durability "
                              "dirs (default: a fresh temp dir)")
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=8378,
                         help="coordinator port (workers use ephemeral "
                              "ports)")
    cluster.add_argument("--fsync", choices=("always", "interval", "never"),
                         default="never",
                         help="worker WAL fsync policy (dev default: never)")
    cluster.add_argument("--shard-timeout-ms", type=float, default=5000.0,
                         help="per-shard sub-request timeout")
    cluster.add_argument("--no-fallback", action="store_true",
                         help="omit a failed shard's slice (flagged) "
                              "instead of answering it from a local "
                              "exact fallback")
    cluster.add_argument("--replicas", type=int, default=0,
                         help="hot standbys per shard, each tailing its "
                              "primary's WAL feed (0 disables)")
    cluster.add_argument("--supervise", action="store_true",
                         help="run the self-healing supervisor: detect "
                              "dead primaries, promote the freshest "
                              "standby, flip routing, restart the corpse "
                              "as a standby (needs --replicas >= 1)")
    cluster.add_argument("--hedge", action="store_true",
                         help="hedged reads: probe a standby when the "
                              "primary is slower than the cluster p95")
    cluster.set_defaults(func=_cmd_cluster)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Library errors (bad paths, malformed data, invalid parameters) are
    reported as one ``error:`` line on stderr with exit code 2 — the
    contract the tests pin down — rather than an uncaught traceback.
    """
    from .errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
