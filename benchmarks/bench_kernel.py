"""Blocked GIR kernel vs the per-weight loop (the ISSUE-4 tentpole).

Expected shape: the kernel answers the same queries byte-identically
while classifying pairs in BLAS tiles, so its per-query latency sits
well below the per-weight ``GridIndexRRQ`` loop and the gap widens with
|W| (interpreter overhead is per-weight in the loop, per-block in the
kernel).  The committed trajectory lives in ``BENCH_kernel.json``
(``python benchmarks/perf_harness.py``); this file gives the same
comparison the pytest-benchmark treatment at REPRO_SCALE-able sizes.
"""

import pytest

from bench_common import (
    DEFAULT_K,
    banner,
    make_workload,
    ms,
    record_table,
    sample_queries,
    scaled_size,
)

from repro.core.gir import GridIndexRRQ
from repro.stats.timing import Timer
from repro.vectorized.girkernel import GirKernelRRQ

DIM = 4
W_SIZES = (500, 2000, 8000)


@pytest.fixture(scope="module")
def kernel_rows():
    rows = []
    size_p = max(300, scaled_size(300))
    for size_w in W_SIZES:
        P, W = make_workload("UN", "UN", DIM, size_p=size_p, size_w=size_w,
                             seed=size_w)
        queries = sample_queries(P, count=2, seed=size_w)
        gir = GridIndexRRQ(P, W)
        kernel = GirKernelRRQ.from_gir(gir)
        gir_timer, kernel_timer = Timer(), Timer()
        for q in queries:
            with gir_timer.measure():
                loop_answer = gir.reverse_topk(q, DEFAULT_K)
            with kernel_timer.measure():
                kernel_answer = kernel.reverse_topk(q, DEFAULT_K)
            assert loop_answer == kernel_answer  # byte-identical or bust
        stats = kernel.last_stats
        rows.append([size_w, ms(gir_timer.mean), ms(kernel_timer.mean),
                     round(gir_timer.mean / kernel_timer.mean, 2),
                     stats.pairs_total])
    return rows


def test_kernel_vs_loop(benchmark, kernel_rows):
    banner(f"Blocked kernel vs per-weight GIR loop (d={DIM}, RTK)")
    record_table(
        "kernel_vs_loop",
        ["|W|", "GIR loop ms", "kernel ms", "speedup", "pairs classified"],
        kernel_rows,
        "Weight-blocked kernel — per-query RTK latency",
    )
    # Shape: the speedup grows with |W| (loop overhead is per-weight).
    assert kernel_rows[-1][3] > kernel_rows[0][3]

    # Headline benchmark: the kernel at the largest |W|.
    size_p = max(300, scaled_size(300))
    P, W = make_workload("UN", "UN", DIM, size_p=size_p, size_w=W_SIZES[-1],
                         seed=W_SIZES[-1])
    kernel = GirKernelRRQ(P, W)
    q = sample_queries(P, count=1, seed=3)[0]
    benchmark(lambda: kernel.reverse_topk(q, DEFAULT_K))


FUSED_Q = 8


@pytest.fixture(scope="module")
def fused_rows():
    rows = []
    size_p = max(300, scaled_size(300))
    for size_w in W_SIZES:
        P, W = make_workload("UN", "UN", 6, size_p=size_p, size_w=size_w,
                             seed=size_w)
        queries = sample_queries(P, count=FUSED_Q, seed=size_w)
        kernel = GirKernelRRQ(P, W)
        seq_timer, fused_timer = Timer(), Timer()
        with seq_timer.measure():
            seq = [kernel.reverse_topk(q, DEFAULT_K) for q in queries]
        with fused_timer.measure():
            fused = kernel.reverse_topk_batch(queries, DEFAULT_K)
        assert fused == seq  # byte-identical or bust
        rows.append([size_w, ms(seq_timer.mean), ms(fused_timer.mean),
                     round(seq_timer.mean / fused_timer.mean, 2)])
    return rows


def test_fused_batch_vs_sequential(benchmark, fused_rows):
    banner(f"Fused Q={FUSED_Q} batch vs sequential kernel (d=6, RTK)")
    record_table(
        "fused_batch_vs_sequential",
        ["|W|", f"{FUSED_Q}x sequential ms", "fused batch ms", "speedup"],
        fused_rows,
        "Fused multi-query kernel — shared tile matmuls across the batch",
    )

    # Headline benchmark: the fused batch at the largest |W|.
    size_p = max(300, scaled_size(300))
    P, W = make_workload("UN", "UN", 6, size_p=size_p, size_w=W_SIZES[-1],
                         seed=W_SIZES[-1])
    kernel = GirKernelRRQ(P, W)
    queries = sample_queries(P, count=FUSED_Q, seed=5)
    benchmark(lambda: kernel.reverse_topk_batch(queries, DEFAULT_K))
