"""Benches for the beyond-paper extensions: dynamic updates, bundle
queries (ARRQ) and bounds-only (anytime) answers.

These have no paper counterpart — they measure features a deployed system
needs — and double as regression anchors: the segment store must match a
freshly built static GIR, the aggregate solver its brute-force oracle,
and the anytime envelope must tighten with grid resolution.
"""

import numpy as np
import pytest

from repro.core.approximate import reverse_topk_bounds
from repro.core.gir import GridIndexRRQ
from repro.ext.aggregate import (
    AggregateGridIndexRKR,
    aggregate_reverse_kranks_naive,
)
from repro.stats.timing import Timer
from repro.storage import SegmentStore

from bench_common import (
    DEFAULT_K,
    banner,
    make_workload,
    ms,
    record_table,
    sample_queries,
)

DIM = 6


@pytest.fixture(scope="module")
def workload():
    P, W = make_workload("UN", "UN", DIM, seed=91)
    return P, W, sample_queries(P, count=2, seed=92)


def test_dynamic_engine_overhead(benchmark, workload):
    """Static GIR (the scalar engine, one query at a time) vs a read of
    the updatable store — a batch of one through its kernel, the first
    one paying for the build — on identical data."""
    P, W, queries = workload
    static = GridIndexRRQ(P, W)
    dynamic = SegmentStore.from_datasets(P, W)
    rows = []
    for name, engine in (("static GIR", static),
                         ("segment store (sealed)", dynamic)):
        timer = Timer()
        for q in queries:
            with timer.measure():
                engine.reverse_kranks(q, DEFAULT_K)
        rows.append([name, ms(timer.mean)])
    # Same answers, with or without the mutable substrate.
    for q in queries:
        assert (static.reverse_kranks(q, DEFAULT_K).entries
                == dynamic.reverse_kranks(q, DEFAULT_K).entries)
    # Mutation throughput.
    rng = np.random.default_rng(93)
    timer = Timer()
    with timer.measure():
        for _ in range(200):
            dynamic.insert_product(rng.random(DIM) * 9999.0)
    rows.append(["200 product inserts", ms(timer.total)])
    banner("Extension: dynamic engine overhead vs static GIR")
    record_table(
        "ext_dynamic",
        ["configuration", "time (ms)"],
        rows,
        "Dynamic-engine overhead (RKR, UN d=6)",
    )
    benchmark(lambda: dynamic.reverse_kranks(queries[0], DEFAULT_K))


def test_aggregate_bundle_scaling(benchmark, workload):
    """ARRQ cost vs bundle size, GIR-accelerated vs brute force."""
    P, W, _ = workload
    solver = AggregateGridIndexRKR(P, W)
    rng = np.random.default_rng(94)
    rows = []
    for bundle_size in (1, 2, 4, 8):
        bundle = [P.values[i] for i in
                  rng.choice(P.size, bundle_size, replace=False)]
        t_gir, t_naive = Timer(), Timer()
        with t_gir.measure():
            fast = solver.query(bundle, DEFAULT_K)
        with t_naive.measure():
            slow = aggregate_reverse_kranks_naive(P, W, bundle, DEFAULT_K)
        assert fast.entries == slow.entries
        rows.append([bundle_size, ms(t_gir.total), ms(t_naive.total)])
    banner("Extension: aggregate reverse k-ranks (bundles)")
    record_table(
        "ext_aggregate",
        ["bundle size", "GIR-accelerated ms", "brute force ms"],
        rows,
        "ARRQ scaling with bundle size (UN d=6)",
    )
    bundle = [P.values[0], P.values[1]]
    benchmark(lambda: solver.query(bundle, DEFAULT_K))


def test_anytime_envelope(benchmark, workload):
    """Bounds-only answers: uncertainty and speed vs grid resolution."""
    P, W, queries = workload
    q = queries[0]
    rows = []
    for n in (8, 16, 32, 64, 128):
        gir = GridIndexRRQ(P, W, partitions=n)
        timer = Timer()
        with timer.measure():
            approx = reverse_topk_bounds(gir, q, DEFAULT_K)
        rows.append([
            n, ms(timer.total),
            len(approx.certain), len(approx.undecided),
            f"{approx.uncertainty():.2%}",
        ])
    banner("Extension: anytime (bounds-only) reverse top-k")
    record_table(
        "ext_anytime",
        ["n", "time ms", "certain", "undecided", "uncertainty"],
        rows,
        "Bounds-only RTK envelope vs grid resolution (UN d=6)",
    )
    # Uncertainty shrinks as the grid refines.
    uncertainties = [float(r[4].rstrip("%")) for r in rows]
    assert uncertainties[-1] <= uncertainties[0]
    gir = GridIndexRRQ(P, W)
    benchmark(lambda: reverse_topk_bounds(gir, q, DEFAULT_K))
