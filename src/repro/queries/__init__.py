"""Query definitions, result types and the engine facade."""

from .._lazy import lazy_exports

_EXPORTS = {
    "engine": ["RRQEngine", "available_methods", "make_algorithm"],
    "monochromatic": ["MonochromaticResult", "monochromatic_reverse_topk"],
    "planner": ["AutoEngine", "Plan", "plan"],
    "ta": ["SortedAccessIndex", "ta_kth_score", "ta_top_k"],
    "topk": ["all_ranks", "in_top_k", "kth_best_score", "rank_of_point",
             "top_k"],
    "types": ["RKRResult", "RTKResult"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "RRQEngine", "available_methods", "make_algorithm",
    "top_k", "rank_of_point", "in_top_k", "kth_best_score", "all_ranks",
    "RTKResult", "RKRResult",
    "monochromatic_reverse_topk", "MonochromaticResult",
    "SortedAccessIndex", "ta_top_k", "ta_kth_score",
    "plan", "Plan", "AutoEngine",
]
