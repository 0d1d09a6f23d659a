"""Filter-effectiveness profiling: the paper's Table 4, on your workload.

A filter's value proposition is the fraction of ``(p, w)`` pairs it
settles without an exact inner product — Case 1 (``p`` certainly
out-ranks ``q``), Case 2 (``q`` certainly out-ranks ``p``) — leaving
only a thin undecided band.  The paper measures this for the Grid-index
offline over synthetic workloads (Table 4, Figs. 13-15);
:func:`profile_workload` measures it for *your* data and *your* queries,
by replaying them through the blocked kernel and accumulating its
:class:`~repro.vectorized.girkernel.KernelStats`.  The kernel's filter
is a tile of float32 scores bracketed by their rounding error, so its
undecided band is the *float32 rounding band*: the pairs within
``f32_gamma(d)`` (about 1e-6 relative) of ``f_w(q)``.

The four reported classes partition the classified pairs exactly::

    case1 + case2 + undecided + refined == pairs_total

where *refined* pairs got an exact dot product and *undecided* pairs
were classified as neither case but never refined, because their weight
had already been pruned by the k / minRank abort or the RKR
rank-interval cap.  The fractions
therefore sum to 1.0 by construction, and every count is taken verbatim
from the kernel's stats — the acceptance tests pin both properties.

``repro-rrq profile`` is the CLI frontend; the service surfaces the same
tallies live through ``/metrics`` (``rrq_kernel_pairs_total`` and the
per-query ``rrq_query_filter_rate`` histogram).
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

from ..errors import InvalidParameterError
from ..vectorized.girkernel import GirKernelRRQ, KernelStats

#: Query kinds the profiler can replay.
PROFILE_KINDS = ("rtk", "rkr")


def sample_queries(products, count: int, seed: int = 7) -> List[np.ndarray]:
    """``count`` query points drawn from the product set (with replacement
    once ``count`` exceeds the set size) under a pinned seed."""
    if count < 1:
        raise InvalidParameterError("query count must be positive")
    rng = np.random.default_rng(seed)
    size = int(products.size)
    replace = count > size
    picks = rng.choice(size, size=count, replace=replace)
    return [products[int(i)] for i in picks]


def profile_workload(kernel: GirKernelRRQ, queries: Sequence[np.ndarray],
                     k: int = 10, kinds: Sequence[str] = ("rtk",),
                     ) -> dict:
    """Replay ``queries`` through ``kernel``; return the Table-4 breakdown.

    Returns a JSON-ready report: accumulated pair counts, the four
    exactly-partitioning fractions (``case1``/``case2``/``undecided``/
    ``refined`` over ``pairs_total``), the Domin-skipped tally (kept
    separate — those pairs never enter classification), per-stage
    seconds, and per-query filter rates.
    """
    for kind in kinds:
        if kind not in PROFILE_KINDS:
            raise InvalidParameterError(
                f"kind must be one of {PROFILE_KINDS}, got {kind!r}"
            )
    if int(k) < 1:
        raise InvalidParameterError("k must be positive")
    total = KernelStats()
    per_query_rates: List[float] = []
    replayed = 0
    t0 = perf_counter()
    for q in queries:
        for kind in kinds:
            if kind == "rtk":
                kernel.reverse_topk(q, int(k))
            else:
                kernel.reverse_kranks(q, int(k))
            stats = kernel.last_stats
            per_query_rates.append(stats.filter_rate())
            total.merge(stats)
            replayed += 1
    elapsed = perf_counter() - t0
    return build_report(total, per_query_rates, replayed, elapsed,
                        k=int(k), kinds=list(kinds))


def build_report(total: KernelStats, per_query_rates: Sequence[float],
                 replayed: int, elapsed_s: float, k: int,
                 kinds: List[str]) -> dict:
    """Assemble the profile report from accumulated kernel stats.

    Split out so the tests can feed hand-built :class:`KernelStats` and
    assert the partition/fraction invariants without replaying queries.
    """
    undecided = (total.pairs_total - total.pairs_case1
                 - total.pairs_case2 - total.pairs_refined)
    counts = {
        "case1": total.pairs_case1,
        "case2": total.pairs_case2,
        "undecided": undecided,
        "refined": total.pairs_refined,
    }
    denom = total.pairs_total
    fractions = {name: (value / denom if denom else 0.0)
                 for name, value in counts.items()}
    rates = sorted(per_query_rates)
    return {
        "queries": replayed,
        "k": k,
        "kinds": kinds,
        "elapsed_s": elapsed_s,
        "pairs_total": total.pairs_total,
        "pairs": counts,
        "fractions": fractions,
        "filter_rate": total.filter_rate(),
        "pairs_domin_skipped": total.pairs_domin_skipped,
        "weights_pruned": total.weights_pruned,
        "stage_s": {
            "filter": total.filter_s,
            "refine": total.refine_s,
            "merge": total.merge_s,
        },
        "per_query_filter_rate": {
            "min": rates[0] if rates else 0.0,
            "median": rates[len(rates) // 2] if rates else 0.0,
            "max": rates[-1] if rates else 0.0,
        },
    }


def format_report(report: dict) -> str:
    """The human-readable Table-4-style breakdown ``repro-rrq profile``
    prints."""
    lines = [
        f"profiled {report['queries']} queries "
        f"(kinds={'/'.join(report['kinds'])}, k={report['k']}) "
        f"in {report['elapsed_s']:.3f}s",
        "",
        f"{'pair class':<12s} {'pairs':>14s} {'fraction':>10s}",
    ]
    for name in ("case1", "case2", "undecided", "refined"):
        lines.append(
            f"{name:<12s} {report['pairs'][name]:>14,} "
            f"{report['fractions'][name]:>9.2%}"
        )
    lines.append(f"{'total':<12s} {report['pairs_total']:>14,} "
                 f"{sum(report['fractions'].values()):>9.2%}")
    lines.append("")
    lines.append(f"filter rate (tile-decided): "
                 f"{report['filter_rate']:.2%}")
    lines.append(f"domin-skipped pairs: {report['pairs_domin_skipped']:,}  "
                 f"weights pruned early: {report['weights_pruned']:,}")
    stage = report["stage_s"]
    lines.append(
        f"stage seconds: filter={stage['filter']:.3f} "
        f"refine={stage['refine']:.3f} merge={stage['merge']:.3f}"
    )
    rates = report["per_query_filter_rate"]
    lines.append(
        f"per-query filter rate: min={rates['min']:.2%} "
        f"median={rates['median']:.2%} max={rates['max']:.2%}"
    )
    return "\n".join(lines)
