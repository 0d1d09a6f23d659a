"""The paper's contribution: Grid-index, GInTop-k, GIR, performance model."""

from .._lazy import lazy_exports

_EXPORTS = {
    "approx": ["Quantizer", "bits_needed", "code_dtype", "quantize_dataset"],
    "approximate": ["ApproxRKRResult", "ApproxRTKResult",
                    "reverse_kranks_bounds", "reverse_topk_bounds"],
    "bounds": ["Case", "classify", "classify_batch", "sandwich_holds"],
    "gin": ["ABORTED", "GinContext", "gin_topk"],
    "gir": ["GridIndexRRQ"],
    "grid": ["DEFAULT_PARTITIONS", "GridIndex"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "GridIndex", "DEFAULT_PARTITIONS", "Quantizer", "quantize_dataset",
    "bits_needed", "code_dtype", "Case", "classify", "classify_batch",
    "sandwich_holds", "GinContext", "gin_topk", "ABORTED", "GridIndexRRQ",
    "bitstring", "model",
    "reverse_topk_bounds", "reverse_kranks_bounds",
    "ApproxRTKResult", "ApproxRKRResult",
]
