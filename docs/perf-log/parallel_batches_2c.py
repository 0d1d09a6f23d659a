"""ROADMAP 2c reading: do two workers finish a kernel batch sooner than one?

e2e shape (UN d=4, |P| = 1k, |W| = 2k, k = 10), 20 queries, best of 15.
Run from the repo root: PYTHONPATH=src python docs/perf-log/parallel_batches_2c.py
"""
import threading

from repro.data.synthetic import uniform_products, uniform_weights
from repro.stats.timing import best_of
from repro.vectorized.girkernel import GirKernelRRQ

P = uniform_products(1000, 4, seed=1)
W = uniform_weights(2000, 4, seed=2)
kernel = GirKernelRRQ(P, W)
queries = [P[i] for i in range(0, 1000, 50)]


def sweep(fn, qs):
    for q in qs:
        fn(q, 10)


def two_threads(fn):
    halves = [threading.Thread(target=sweep, args=(fn, queries[i::2]))
              for i in range(2)]
    for t in halves:
        t.start()
    for t in halves:
        t.join()


for kind, fn in (("rtk", kernel.reverse_topk), ("rkr", kernel.reverse_kranks)):
    sweep(fn, queries)  # warm the caller's tile workspace
    one = best_of(lambda: sweep(fn, queries), 15) * 1e3
    two = best_of(lambda: two_threads(fn), 15) * 1e3
    print(f"{kind}: 20 queries  sequential {one:6.1f} ms  "
          f"two threads {two:6.1f} ms  ({one / two:.2f}x)")
