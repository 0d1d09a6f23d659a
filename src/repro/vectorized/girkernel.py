"""The weight-blocked GIR kernel: score tiles, bracketed, no weight loop.

:class:`~repro.core.gir.GridIndexRRQ` drives Algorithm 1 through a Python
loop over ``W`` — one :func:`~repro.core.gin.gin_topk` call per weight
vector.  The per-call interpreter overhead is tiny next to ``|P|`` bound
checks, but multiplied by millions of weights it dwarfs the arithmetic the
Grid-index was built to avoid.  This module classifies an entire *block*
of weights at once, and it classifies them by their scores:

* a ``(P-block, W-block)`` tile is **one** BLAS matrix product
  ``W[ws:we] @ P[ps:pe].T`` in the filter dtype.  A float32 score is a
  bound pair of its own: ``s32 * (1 -/+ gamma)`` brackets the true score
  (:func:`f32_gamma`) the way the Grid-index's ``L`` / ``U`` do, with
  ``2**24`` cells per axis instead of ``n`` and from one gemm instead of
  the two a boundary-value product costs (``docs/performance.md``
  section 14: a bound computed by gemm cannot beat a score computed by
  gemm);
* whole tiles are classified in bulk into definitely-better (Case 1),
  definitely-worse (Case 2) and undecided pairs by two vectorized
  comparisons of that one tile against gates widened by ``gamma``;
* the undecided band — the pairs float32 cannot separate from
  ``f_w(q)`` — is refined with exact dot products (one ``einsum`` over
  the COO pair list), with near-ties re-decided in exact rational
  arithmetic exactly like every other engine in the library.

Answers are **byte-identical** to :class:`GridIndexRRQ` and
:class:`~repro.algorithms.naive.NaiveRRQ`: the Domin semantics (k
strictly dominating products ⇒ empty RTK answer) and the RKR minRank
feedback (a weight is pruned when its certain-better count already
reaches the current k-th best rank, or exceeds the k-th smallest rank
upper bound of its own block) are preserved, and every comparison
that could be perturbed by BLAS rounding goes through the near-tie band
of :mod:`repro.core.ties`.  minRank is known before the first block: a
sweep *seeds* it with the exact rank upper bounds of the few weights
of ``W`` that score ``q`` lowest (:meth:`KernelCore._seed_limits`), and
the product rows arrive in ascending coordinate-sum order
(:class:`GirKernelRRQ`), the rows most weights rank ahead of
``q`` first, so the limit bites in the first tile.

The weights are swept in kd-box order (:func:`kd_boxes`): leaves of
``BOX`` rows, each a tight box ``[lo, hi]``.  Before any tile of a
block, one float64 gemm per query bounds ``(p - q) . w`` over every box
(:func:`box_margin` proves the bound), and the products it proves better
under the whole box are a rank *floor* for every weight in it: a column
whose floor already reaches its query's limit leaves the sweep without
one pair classified (the paper's §3.2 bound, applied to a box the way
MPA prunes a histogram cell of ``W``).  Answers map back through the
order; RKR breaks equal ranks on ``(rank, index)``, not on which weight
was seen first.  Only the *work* differs, and :class:`KernelStats`
reports exactly where it went (filter / refine / merge stage seconds,
pair classification counts).

The compute core is array-only (:class:`KernelCore`), so a kernel store
can hand it mapped arrays without copying anything.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, fields
from math import prod
from time import perf_counter
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..algorithms.base import RRQAlgorithm, duplicate_mask
from ..core.ties import TIE_REL_TOL, exact_strictly_less
from ..data.datasets import ProductSet, WeightSet
from ..errors import InvalidParameterError
from ..queries.types import RKRResult, RTKResult, make_rkr_result
from ..stats.counters import OpCounter
from .blasthreads import single_threaded

#: Weights classified per tile.  1024 weights x 2048 products is one
#: float32 score matrix of 8 MB — big enough to amortize BLAS
#: dispatch, small enough to stay cache/RAM friendly.
DEFAULT_W_BLOCK = 1024

#: Products per tile (rows of the score matrix), the cap of the
#: escalating tile schedule.
DEFAULT_P_BLOCK = 2048

#: First tile of the escalating schedule: small, like gin_topk's scan
#: chunk, so the k / minRank abort kills most weight columns after a few
#: hundred products; later tiles quadruple up to ``p_block`` once the
#: survivor set is thin.
FIRST_P_TILE = 256

#: Widest batch whose gate hits are tallied by direct comparison: two
#: dense compares per query and tile against one shared sort of the
#: tile.  Direct / sorted, ms per batch, in-process alternation (best of
#: 9-15 over 10-20 batches on the benchmark's shape, best of 3 over 2
#: batches at |W| = 100k; ``docs/performance.md`` section 14):
#:
#:   nq   UN d=4 1000 x 2000          fused-uniform-d6-w100k
#:        RTK          RKR            RTK          RKR
#:   2    1.33 / 1.48  5.30 / 6.21    108 / 130    127 / 161
#:   3    1.90 / 2.09  8.49 / 8.40    153 / 164    165 / 181
#:   4    2.48 / 2.67  11.9 / 10.5    194 / 185    221 / 212
#:   6    3.65 / 3.83  19.5 / 14.5    295 / 254    305 / 274
#:   8    4.87 / 4.76  26.4 / 18.0    366 / 298    395 / 318
#:
#: The cut is the last size at which direct counting won every measured
#: cell: at three it is 5-9 % ahead in three cells and 1 % behind, in
#: every repeat, on the small RKR; from four on the sort wins all but
#: the small RTK.
DIRECT_COUNT_MAX_Q = 2

#: An RKR sweep seeds minRank from the ``SEED_CANDIDATES * k`` weights
#: of ``W`` that score ``q`` lowest.  Pairs classified per query on the
#: benchmark's shape at 1 / 4 / 8, when the seed read the first block:
#: 1.49 M / 1.37 M / 1.36 M (``docs/performance.md`` section 13).
SEED_CANDIDATES = 4

#: Weights per kd leaf ("box") of the sweep order: ``W`` is split at the
#: median of its widest coordinate, rounded to a whole number of boxes,
#: until a leaf holds ``BOX`` rows, so box ``b`` is swept rows
#: ``[b * BOX, (b + 1) * BOX)`` (the last one may be short).
BOX = 32

#: Filter dtypes the kernel accepts.  ``float32`` halves the memory
#: traffic of the tile gemm (the ~85% filter stage) and is proven
#: safe by widening the classification gates by :func:`f32_gamma` — any
#: pair the widened float32 scores cannot decide falls through to the
#: float64/rational refinement path, so answers stay byte-identical.
FILTER_DTYPES = ("float64", "float32")


def f32_gamma(dim: int) -> float:
    """Relative error bound of a float32 score over ``dim`` terms.

    ``P`` and ``W`` are non-negative, so a single-precision evaluation
    of ``sum_i w_i * p_i`` carries a pure *relative* error: casting
    each f64 operand to f32 contributes one ulp per operand
    (``(1+u)^2`` per term) and the accumulation another ``dim`` ulps,
    for a standard forward bound of
    ``gamma_{dim+2} = (dim+2)u / (1 - (dim+2)u)`` with ``u = 2^-24``.
    We return four times that (safety margin for non-sequential BLAS
    accumulation orders, FMA contraction, and the f32 gate cast), which
    is still ~1e-5 at d=32: a float32 score is a bound pair
    ``s32 * (1 -/+ gamma)`` five orders of magnitude tighter than a
    32-cell grid's.  Underflow (a product below ``2**-126``) adds an
    absolute error the near-tie half-width ``tol >= 1e-9`` absorbs.
    """
    u = 2.0 ** -24
    n = dim + 2
    return 4.0 * (n * u) / (1.0 - n * u)


@dataclass
class KernelStats:
    """Where a kernel query's time and pairs went.

    Attributes
    ----------
    queries:
        Queries accumulated into this stats object.
    filter_s, refine_s, merge_s:
        Seconds spent forming/classifying score tiles, refining the
        undecided band with exact dot products, and merging per-block
        partial answers.
    pairs_total:
        Live ``(p, w)`` pairs that entered classification.
    pairs_case1:
        Pairs decided "p definitely out-ranks q": the score's upper
        bracket clears ``f_w(q) - tol``.
    pairs_case2:
        Pairs decided "q definitely out-ranks p": the score's lower
        bracket clears ``f_w(q) + tol``.
    pairs_refined:
        Undecided pairs — those the filter dtype cannot separate from
        ``f_w(q)`` — that needed an exact dot product.
    pairs_domin_skipped:
        Pairs never classified because the product strictly dominates
        the query (counted straight into every weight's rank floor).
    weights_pruned:
        Weight vectors dropped without refinement: their certain-better
        count, or their box's floor before any tile, already met the k /
        minRank abort threshold (for RKR the sweep's seed, then one past
        the k-th best rank held), or (RKR) it exceeds the block's
        rank-interval cap.
    pairs_f32:
        Pairs whose classification ran through the float32
        prefilter (a subset of ``pairs_total``).
    fused_batches:
        Fused multi-query passes executed (one per coalesced batch and
        query kind).  A sweep that answers a single query shares its
        tiles with nobody and is not counted here.
    fused_queries:
        Queries answered inside a fused pass (each shares its batch's
        tile gemms instead of paying for its own).
    """

    queries: int = 0
    filter_s: float = 0.0
    refine_s: float = 0.0
    merge_s: float = 0.0
    pairs_total: int = 0
    pairs_case1: int = 0
    pairs_case2: int = 0
    pairs_refined: int = 0
    pairs_domin_skipped: int = 0
    weights_pruned: int = 0
    pairs_f32: int = 0
    fused_batches: int = 0
    fused_queries: int = 0

    def record_sweep(self, nq: int) -> None:
        """Tally one tile sweep that answers ``nq`` queries."""
        self.queries += nq
        if nq > 1:
            self.fused_batches += 1
            self.fused_queries += nq

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Accumulate ``other`` into this object and return ``self``."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @property
    def pairs_decided(self) -> int:
        """Pairs settled by the tile alone (no exact dot product)."""
        return self.pairs_case1 + self.pairs_case2

    def snapshot(self) -> dict:
        """JSON-ready dict (used by ``/metrics`` and the bench harness)."""
        return {
            "queries": self.queries,
            "stage_s": {
                "filter": self.filter_s,
                "refine": self.refine_s,
                "merge": self.merge_s,
            },
            "pairs": {
                "total": self.pairs_total,
                "case1": self.pairs_case1,
                "case2": self.pairs_case2,
                "refined": self.pairs_refined,
                "domin_skipped": self.pairs_domin_skipped,
                "f32": self.pairs_f32,
            },
            "weights_pruned": self.weights_pruned,
            "fused": {
                "batches": self.fused_batches,
                "queries": self.fused_queries,
            },
        }


def box_margin(dim: int) -> float:
    """Relative margin that makes a float64 box floor conservative.

    For a box ``lo <= w <= hi`` of weights and ``D = p - q``, the exact
    ``T = sum_i max(D_i, 0) * hi_i + min(D_i, 0) * lo_i`` is the largest
    ``D . w`` over the box, so ``T < 0`` means ``p`` out-ranks ``q``
    under every weight in it.  The kernel evaluates ``T`` as one
    float64 gemm row of ``[max(D, 0) | min(D, 0)]`` against the gate
    ``[hi + g|hi| | lo - g|lo|]``.  Exactly, that sum is ``T + g *
    sum_i |t_i|`` over the ``2d`` terms ``t_i`` of ``T``.  Each computed
    term carries the rounding of ``D_i`` (one ``u = 2^-53``), of its gate
    entry (two) and its share of a ``2d``-term inner product in any
    order, FMA or not: in all at most ``gamma_{2d+3} * |t_i| * (1 + g)``
    with ``gamma_n = nu / (1 - nu)``.  With ``g = 4 gamma_{2d+3}`` the
    computed value is therefore ``>= T``, and a computed value below
    ``-2^-1022`` (the gradual-underflow slack: at most ``4d + 3``
    operations of ``2^-1075`` each) proves ``T < 0``.
    """
    u = 2.0 ** -53
    n = 2 * dim + 3
    return 4.0 * (n * u) / (1.0 - n * u)


#: A box floor counts the rows whose computed bound is below this
#: (:func:`box_margin`): the smallest normal float64.
_FLOOR_CUT = -np.finfo(np.float64).tiny


def kd_boxes(W: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep order of ``W``'s rows and the bounds of its boxes.

    Returns ``(order, lo, hi)``: swept row ``j`` is ``W[order[j]]``, and
    box ``b`` (swept rows ``[b * BOX, (b + 1) * BOX)``) lies in
    ``[lo[b], hi[b]]`` coordinate-wise.  Built level by level: every
    segment longer than ``BOX`` sorts its rows along its widest
    coordinate (one ``argsort`` of ``segment + scaled value`` for all
    segments of a level) and splits at the median rounded up to a whole
    number of boxes, so every leaf but the last holds exactly ``BOX``.
    """
    W = np.asarray(W, dtype=np.float64)
    n, dim = W.shape
    order = np.arange(n)
    rows = W
    sizes = np.array([n])
    flat_row = np.arange(n) * dim
    while True:
        split = sizes > BOX
        if not split.any():
            break
        heads = np.cumsum(sizes) - sizes
        seg_lo = np.minimum.reduceat(rows, heads, axis=0)
        span = np.maximum.reduceat(rows, heads, axis=0) - seg_lo
        seg = np.arange(sizes.size)
        axis = span.argmax(axis=1)
        # Segment s sorts inside [s, s + 1/2] by its widest coordinate;
        # a segment that does not split keeps one key and its order
        # does not matter.
        scale = np.where(split, 0.5 / np.maximum(span[seg, axis], 1e-300),
                         0.0)
        key = rows.ravel().take(flat_row + np.repeat(axis, sizes))
        key -= np.repeat(seg_lo[seg, axis], sizes)
        key *= np.repeat(scale, sizes)
        key += np.repeat(seg, sizes)
        perm = key.argsort()
        order = order.take(perm)
        rows = rows.take(perm, axis=0)
        left = (-(-sizes // BOX) + 1) // 2 * BOX
        sizes = np.column_stack((np.where(split, left, sizes),
                                 np.where(split, sizes - left, 0))).ravel()
        sizes = sizes[sizes > 0]
    if n == 0:
        return order, W, W
    heads = np.arange(0, n, BOX)
    return (order, np.minimum.reduceat(rows, heads, axis=0),
            np.maximum.reduceat(rows, heads, axis=0))


def _f32_bracketable(a: np.ndarray) -> bool:
    """Whether every entry is non-negative and finite in float32."""
    return bool(a.size == 0
                or (a.min() >= 0.0 and a.max() <= np.finfo(np.float32).max))


def _check_block(value: int, name: str) -> int:
    if int(value) < 1:
        raise InvalidParameterError(f"{name} must be positive, got {value}")
    return int(value)


#: Size of a sweeping thread's workspace: one float64
#: ``DEFAULT_W_BLOCK x DEFAULT_P_BLOCK`` score tile.
_WORKSPACE_BYTES = 8 * DEFAULT_W_BLOCK * DEFAULT_P_BLOCK


class _Workspace(threading.local):
    """The memory a thread's sweeps write their tiles and tallies into.

    A block's tiles are freed together at block end; allocated fresh,
    glibc hands their pages back and the next sweep faults every one in
    again (3,100 faults and 4.4 of the 12.4 ms of a warm RKR batch of
    one, ``docs/performance.md`` section 12).  So each sweeping thread
    keeps one byte buffer and :meth:`take` carves arrays out of it from
    ``used`` upwards.  It is mapped whole on the thread's first sweep
    and costs memory page by page as sweeps first touch it: a thread
    retains the high-water mark of the blocks it classified, at most
    ``_WORKSPACE_BYTES``.  Thread-local because library reads sweep one
    kernel from many threads; module-level so it outlives the kernels
    (a store rebuilds its kernel after every write).
    """

    buf: Optional[np.ndarray] = None
    used = 0

    def take(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised C-contiguous array, valid until ``used`` is
        set back below it: a view of the buffer, or a plain array when
        what is left of the buffer cannot hold it."""
        if self.buf is None:
            self.buf = np.empty(_WORKSPACE_BYTES, dtype=np.uint8)
        dtype = np.dtype(dtype)
        end = self.used + prod(shape) * dtype.itemsize
        if end > self.buf.size:
            return np.empty(shape, dtype=dtype)
        out = self.buf[self.used:end].view(dtype).reshape(shape)
        self.used = -(-end // 64) * 64    # keeps every dtype aligned
        return out


_workspace = _Workspace()


def _count_sorted(S: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Per-row gate counts off row-sorted scores, all queries at once.

    ``S`` is ``(cols, rows)`` with each row ascending; ``G`` is
    ``(cols, nq)`` gates.  Returns the exact ``(cols, nq)`` tally of
    entries ``< G`` — identical to a dense compare-and-count, via a
    vectorized binary lift: ``log2(rows)`` rounds of one gather + one
    compare over ``cols * nq`` cells, instead of ``nq`` sweeps over
    ``cols * rows``.
    """
    n_cols, n = S.shape
    flat = S.ravel()
    base = np.arange(n_cols, dtype=np.intp)[:, None] * n
    pos = np.zeros((n_cols, G.shape[1]), dtype=np.intp)
    step = 1
    while step * 2 <= n:
        step *= 2
    while step:
        cand = pos + step
        vals = np.take(flat, base + np.minimum(cand, n) - 1)
        hit = vals < G
        hit &= cand <= n
        pos = np.where(hit, cand, pos)
        step >>= 1
    return pos


def _gate_tallies(S: np.ndarray, g_hi: np.ndarray,
                  g_lo: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Case-1 and low-side hit counts of one tile, per column and query.

    ``S`` is the tile's scores, shape ``(cols, rows)``; ``g_hi`` /
    ``g_lo`` the ``(cols, nq)`` gates (``-inf`` where a query has pruned
    the column).  Returns the ``(cols, nq)`` tallies of ``S < g_hi`` and
    ``S <= g_lo``.
    """
    nq = g_hi.shape[1]
    # Scratch of this call only: given back on the way out.
    mark = _workspace.used
    if nq <= DIRECT_COUNT_MAX_Q:
        # One compare mask for both sides and every query.  int32
        # tallies: the narrow reduction is a third faster and a tile
        # never has 2**31 rows.
        mask = _workspace.take(S.shape, np.bool_)
        case1, lowhit = [], []
        for qi in range(nq):
            np.less(S, g_hi[:, qi, None], out=mask)
            case1.append(mask.sum(axis=1, dtype=np.int32))
            np.less_equal(S, g_lo[:, qi, None], out=mask)
            lowhit.append(mask.sum(axis=1, dtype=np.int32))
        _workspace.used = mark
        return np.stack(case1, axis=1), np.stack(lowhit, axis=1)
    # The tile's scores are query-independent, so sort a copy once (the
    # tile itself keeps its row positions for the ``_undecided`` replay)
    # and answer *all* queries' gate counts on both sides by binary
    # search: O(rows log rows) shared, O(nq log rows) per column.  The
    # low side's non-strict ``<=`` becomes a strict ``<`` against
    # ``nextafter(gate)`` — exact for floats (``-inf`` steps to the most
    # negative finite value, which no finite score is below either).
    ranked = _workspace.take(S.shape, S.dtype)
    np.copyto(ranked, S)
    ranked.sort(axis=1)
    gates = np.concatenate((g_hi, np.nextafter(g_lo, np.inf)), axis=1)
    tallies = _count_sorted(ranked, gates)
    _workspace.used = mark
    return tallies[:, :nq], tallies[:, nq:]


@dataclass
class _BatchState:
    """Per-batch prep for one tile sweep.

    The sweep never compacts product rows per query — the whole point is
    that every query shares one gemm per (P-block, W-block) tile — so
    each query instead carries the *sorted global indices* of its
    excluded rows (duplicates of q plus, with ``use_domin``, its
    dominators), masked out of that query's classification after the
    shared tile is formed.
    """

    #: Stacked query matrix, shape ``(nq, d)``.
    QM: np.ndarray
    #: Per-query sorted excluded-row indices (None when nothing excluded).
    excl: List[Optional[np.ndarray]]
    #: Per-query Domin-set sizes (the rank floor under every weight).
    n_dom: List[int]
    #: Per-query ``[max(P - q, 0) | min(P - q, 0)].T``, shape
    #: ``(2d, |P|)``: the box floors' right operand, formed on the first
    #: block that needs it.
    bound_rows: List[Optional[np.ndarray]]

    def take(self, keep: Sequence[int]) -> "_BatchState":
        """The sub-batch of the queries at positions ``keep``."""
        return _BatchState(QM=self.QM[keep],
                           excl=[self.excl[qi] for qi in keep],
                           n_dom=[self.n_dom[qi] for qi in keep],
                           bound_rows=[self.bound_rows[qi] for qi in keep])


@dataclass
class _BlockState:
    """One W-block's classification, held until its survivors are
    refined.  Per-query arrays are ``(nq, B)``, per-weight ``(B, nq)``.

    Dead once the block's :meth:`KernelCore._exact_counts` calls have
    run: ``tiles`` are views of the thread's :class:`_Workspace`, which
    the next :meth:`KernelCore.classify_batch` on the thread overwrites.
    """

    #: Certain-better counts (Domin floor included) and undecided-pair
    #: counts: ``[counts, counts + gap]`` brackets the exact rank of
    #: every column still ``active``.
    counts: np.ndarray
    gap: np.ndarray
    #: Columns still below their query's limit at block end.
    active: np.ndarray
    #: ``f_w(q)`` and the near-tie half-width.
    FQ: np.ndarray
    TOL: np.ndarray
    #: The gates the tiles were compared against (filter dtype).
    hi_cmp: np.ndarray
    lo_cmp: np.ndarray
    #: ``(first P row, live columns, scores)`` per tile, scores
    #: transposed to ``(columns, rows)``.
    tiles: List[Tuple[int, np.ndarray, np.ndarray]]


class KernelCore:
    """Array-only compute core of the blocked kernel.

    Deliberately free of dataset objects so a kernel store can build one
    directly over mapped arrays.  ``P`` is taken as-is (float64,
    C-contiguous preferred) and its rows may come in any order: answers
    are weight indices and ranks, counts over ``P``.  ``W`` is swept in
    kd-box order (:func:`kd_boxes`): the core holds the swept rows as
    ``W``, ``w_order`` (swept row -> caller's index, through which every
    answer maps back) and ``box_gate``, each box's
    ``[hi + g|hi| | lo - g|lo|]`` (:func:`box_margin`).  A caller that
    already has them (a mapped kernel store) hands in ``boxes=(w_order,
    box_gate)`` with ``W`` already swept.  On the float32 filter path
    the core also holds single-precision copies ``P32`` / ``W32`` — cast
    here, or handed in (``W32`` swept, so only beside ``boxes``), in
    which case nothing is scanned, sorted or copied.
    """

    def __init__(self, P: np.ndarray, W: np.ndarray,
                 w_block: int = DEFAULT_W_BLOCK,
                 p_block: int = DEFAULT_P_BLOCK,
                 use_domin: bool = True,
                 filter_dtype: str = "float32",
                 P32: Optional[np.ndarray] = None,
                 W32: Optional[np.ndarray] = None,
                 boxes: Optional[Tuple[np.ndarray, np.ndarray]] = None):
        self.P = np.asarray(P, dtype=np.float64)
        W = np.asarray(W, dtype=np.float64)
        if boxes is None:
            if W32 is not None:
                raise InvalidParameterError(
                    "W32 holds swept rows: pass it with boxes")
            order, lo, hi = kd_boxes(W)
            W = W[order]
            g = box_margin(self.P.shape[1])
            boxes = (order, np.hstack((hi + g * np.abs(hi),
                                       lo - g * np.abs(lo))))
        self.W = W
        self.w_order, self.box_gate = boxes
        self.w_block = _check_block(w_block, "w_block")
        self.p_block = _check_block(p_block, "p_block")
        self.use_domin = bool(use_domin)
        if filter_dtype not in FILTER_DTYPES:
            raise InvalidParameterError(
                f"filter_dtype must be one of {FILTER_DTYPES}, "
                f"got {filter_dtype!r}"
            )
        # The float32 safety argument (see f32_gamma) requires purely
        # non-negative operands float32 can hold (an ``inf * 0`` would
        # be a NaN no gate decides); the library's data model guarantees
        # it, but a hand-built core with a negative or overflowing
        # entry silently falls back to the always-safe float64 filter
        # instead of mis-filtering.
        if filter_dtype == "float32" and P32 is None and not (
                _f32_bracketable(self.P) and _f32_bracketable(self.W)):
            filter_dtype = "float64"
        self.filter_dtype = filter_dtype
        self._f32 = filter_dtype == "float32"
        if self._f32:
            self._gamma = f32_gamma(self.P.shape[1])
            self.P32 = self.P.astype(np.float32) if P32 is None else P32
            self.W32 = self.W.astype(np.float32) if W32 is None else W32
        else:
            self._gamma = 0.0
            self.P32 = self.W32 = None

    # ------------------------------------------------------------------
    # gates, tiles, exact refinement
    # ------------------------------------------------------------------

    def _f32_gates(self, hi_gate: np.ndarray, lo_gate: np.ndarray):
        """Widen the classification gates for the float32 prefilter.

        A float32 score ``s32`` carries at most ``gamma`` relative error
        (:func:`f32_gamma`) and is non-negative, so the true score lies
        in ``[s32 / (1 + gamma), s32 / (1 - gamma)]`` and

        * ``s32 < hi_gate * (1 - gamma)`` implies the true score
          clears ``hi_gate`` (Case 1 is safe: if ``hi_gate`` is
          negative the scaled gate stays negative and no non-negative
          ``s32`` passes it);
        * ``s32 > lo_gate * (1 + gamma)`` implies the true score
          clears ``lo_gate`` (Case 2 is safe; ``lo_gate =
          f_w(q) + tol`` is always non-negative).

        The f64→f32 cast of the gates themselves is made conservative
        with one ``nextafter`` step in the safe direction.  Everything
        the widened gates cannot decide lands in the undecided band and
        is refined in float64/rational arithmetic — which is the whole
        byte-identity proof.
        """
        g = self._gamma
        hi_eff = np.nextafter((hi_gate * (1.0 - g)).astype(np.float32),
                              np.float32(-np.inf))
        lo_eff = np.nextafter((lo_gate * (1.0 + g)).astype(np.float32),
                              np.float32(np.inf))
        return hi_eff, lo_eff

    def _tiles(self):
        """The escalating P-tile schedule: ``FIRST_P_TILE`` rows, then
        quadrupling up to ``p_block`` per tile."""
        n = self.P.shape[0]
        size = min(FIRST_P_TILE, self.p_block)
        ps = 0
        while ps < n:
            pe = min(ps + size, n)
            yield ps, pe
            ps = pe
            size = min(size * 4, self.p_block)

    def _refine(self, q: np.ndarray, fq: np.ndarray, tol: np.ndarray,
                ws: int, rows: np.ndarray, cols: np.ndarray,
                counter: OpCounter, stats: KernelStats) -> np.ndarray:
        """Exact strictly-better counts per weight for the undecided band.

        ``rows`` / ``cols`` are the COO pairs :meth:`_undecided` listed
        (global P rows, block-local weight columns).  Near-ties are
        re-decided in exact rational arithmetic, so the counts match
        every other engine bit-for-bit regardless of which BLAS kernel
        produced the floats.
        """
        t0 = perf_counter()
        add = np.zeros(fq.shape[0], dtype=np.int64)
        if rows.size:
            w_rows = self.W[ws + cols]
            scores = np.einsum("ij,ij->i", self.P[rows], w_rows)
            f = fq[cols]
            t = tol[cols]
            better = scores < f - t
            near = np.flatnonzero(np.abs(scores - f) <= t)
            for i in near:
                better[i] = exact_strictly_less(w_rows[i], self.P[rows[i]], q)
            add = np.bincount(cols[better], minlength=add.size)
            counter.pairwise += rows.size
            counter.points_accessed += rows.size
            counter.refined += rows.size
            stats.pairs_refined += int(rows.size)
        stats.refine_s += perf_counter() - t0
        return add

    # ------------------------------------------------------------------
    # the tile sweep
    # ------------------------------------------------------------------

    def prepare_batch(self, QM: np.ndarray) -> _BatchState:
        """Per-query skip masks and Domin floors for one tile sweep.

        ``QM`` stacks the batch's query points as rows.  The §5.3 cost
        model observation behind the shared sweep: the scores of a
        (P-block, W-block) tile are *query independent*, so one matmul
        can serve every query of the batch; only the per-query gates,
        exclusions and refinement bands differ.
        """
        QM = np.asarray(QM, dtype=np.float64)
        excl: List[Optional[np.ndarray]] = []
        n_dom: List[int] = []
        for q in QM:
            excluded = duplicate_mask(self.P, q)
            nd = 0
            if self.use_domin:
                # The full Domin set up front: one vectorized pass
                # replaces Algorithm 1's lazy per-weight discovery.
                # Every dominator contributes exactly 1 to every
                # weight's rank either way.
                domin = np.all(self.P < q, axis=1)
                nd = int(np.count_nonzero(domin))
                if nd:
                    excluded = excluded | domin
            excl.append(np.flatnonzero(excluded) if excluded.any() else None)
            n_dom.append(nd)
        return _BatchState(QM=QM, excl=excl, n_dom=n_dom,
                           bound_rows=[None] * QM.shape[0])

    def _settle_boxes(self, batch: _BatchState, ws: int, we: int,
                      limits: np.ndarray, counts: np.ndarray,
                      active: np.ndarray,
                      counters: List[OpCounter]) -> None:
        """Take out, before any tile, the block's columns whose box floor
        reaches their query's limit.

        A box's floor is the number of products whose bound
        (:func:`box_margin`) proves them better than ``q`` under every
        weight of the box: a lower bound on each of its columns' exact
        rank.  The block's boxes are bounded one by one, one gemm per
        P-chunk.  A settled column leaves ``active`` with
        ``counts := floor``; a column that stays keeps its count, so no
        product is counted twice.  Each (product, box) bound is one
        inner product, counted in ``pairwise`` like an MBR corner, and
        each box bounded is a node.
        """
        n = self.P.shape[0]
        gate = self.box_gate
        b0, b1 = ws // BOX, -(-we // BOX)
        work = _workspace
        for qi in range(limits.size):
            # A floor is at most |P|: a looser limit settles nothing.
            if limits[qi] > n or not active[qi].any():
                continue
            XT = batch.bound_rows[qi]
            if XT is None:
                DT = (self.P - batch.QM[qi]).T
                XT = batch.bound_rows[qi] = np.vstack(
                    (np.maximum(DT, 0.0), np.minimum(DT, 0.0)))
            counter = counters[qi]
            per_box = np.zeros(b1 - b0, dtype=np.int64)
            counter.pairwise += n * (b1 - b0)
            counter.nodes_accessed += b1 - b0
            # Chunks of DEFAULT_P_BLOCK products, whatever the tiles'
            # p_block: the scratch stays boxes x 2048 floats.
            for ps in range(0, n, DEFAULT_P_BLOCK):
                pe = min(ps + DEFAULT_P_BLOCK, n)
                mark = work.used
                bound = np.matmul(gate[b0:b1], XT[:, ps:pe],
                                  out=work.take((b1 - b0, pe - ps),
                                                np.float64))
                below = np.less(bound, _FLOOR_CUT,
                                out=work.take(bound.shape, np.bool_))
                per_box += below.sum(axis=1, dtype=np.int32)
                work.used = mark
            floors = np.repeat(per_box, BOX)[ws - b0 * BOX:we - b0 * BOX]
            settle = floors >= limits[qi]
            settle &= active[qi]
            np.copyto(counts[qi], floors, where=settle)
            active[qi] &= ~settle

    def classify_batch(self, batch: _BatchState, ws: int, we: int,
                       limits: np.ndarray, counters: List[OpCounter],
                       stats: KernelStats) -> _BlockState:
        """Classify one W-block for *all* queries off shared tiles.

        One ``(P-tile × W-block)`` gemm per tile is shared by every
        query; per-query work is reduced to the gate tallies and
        exclusion masking.  The shared gemm is compacted to the
        **union** of the queries' still-active columns, and each
        query's gates are open over only *its* active slice of that
        union.

        ``limits`` carries the abort semantics of Algorithm 1 into the
        blocked scan: the certain-better count is a lower bound on the
        exact rank, so once a weight's count reaches its query's limit
        (``k`` for RTK, the k-th best rank so far for RKR) it can never
        enter the answer and leaves the remaining tiles — the bulk
        equivalent of gin_topk's early return.
        """
        t0 = perf_counter()
        # The block before this one is dead; its tiles' memory is ours.
        work = _workspace
        work.used = 0
        B = we - ws
        nq = batch.QM.shape[0]
        FQ = self.W[ws:we] @ batch.QM.T
        TOL = TIE_REL_TOL * (1.0 + np.abs(FQ))
        hi_cmp = FQ - TOL
        lo_cmp = FQ + TOL
        if self._f32:
            hi_cmp, lo_cmp = self._f32_gates(hi_cmp, lo_cmp)
            P_f, W_all = self.P32, self.W32[ws:we]
            neg_inf = np.float32(-np.inf)
        else:
            P_f, W_all = self.P, self.W[ws:we]
            neg_inf = -np.inf
        for counter in counters:
            counter.pairwise += B
        counts = np.repeat(np.asarray(batch.n_dom, dtype=np.int64)[:, None],
                           B, axis=1)
        # The low-side/case-1 tally gap accumulates per column: the
        # undecided pairs, and with ``counts`` the rank interval.
        gap = np.zeros((nq, B), dtype=np.int64)
        active = counts < limits[:, None]
        self._settle_boxes(batch, ws, we, limits, counts, active, counters)
        tiles: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for ps, pe in self._tiles():
            # Union compaction: a column enters the shared gemm while
            # *any* query still needs it (block-local sorted indices).
            live_cols = np.flatnonzero(active.any(axis=0))
            if live_cols.size == 0:
                break
            full = live_cols.size == B
            # The amortized work, transposed so each weight column is a
            # contiguous row: one gemm per tile feeds both gates of
            # every query (sgemm on the float32 prefilter path, dgemm
            # otherwise), written straight into the workspace.
            shape = (live_cols.size, pe - ps)                  # (U, rows)
            S = np.matmul(W_all if full else W_all[live_cols], P_f[ps:pe].T,
                          out=work.take(shape, P_f.dtype))
            tiles.append((ps, live_cols, S))
            # Gates over the union slice, one (U, nq) matrix per side;
            # a column another query keeps live but this one has pruned
            # gets a -inf gate, so it can produce neither case-1 nor
            # undecided hits — masking is O(cols * nq).
            act_u = active.T if full else active.T[live_cols]
            g_hi = np.where(act_u, hi_cmp[live_cols], neg_inf)
            g_lo = np.where(act_u, lo_cmp[live_cols], neg_inf)
            case1_per_col, lowhit_per_col = _gate_tallies(S, g_hi, g_lo)
            # Rows of the tile each query classifies: its excluded rows
            # (duplicates, dominators) are neither case 1 nor case 2.
            n_rows = [pe - ps] * nq
            for qi in range(nq):
                excl = batch.excl[qi]
                if excl is None:
                    continue
                lo_i, hi_i = np.searchsorted(excl, (ps, pe))
                if hi_i <= lo_i:
                    continue
                n_rows[qi] -= int(hi_i - lo_i)
                # The tallies count every row; subtract the excluded
                # rows' contributions directly (|excl| is tiny:
                # dominators and duplicates of one query).
                local = excl[lo_i:hi_i] - ps
                excluded = S[:, local]
                case1_per_col[:, qi] -= np.count_nonzero(
                    excluded < g_hi[:, qi, None], axis=1)
                lowhit_per_col[:, qi] -= np.count_nonzero(
                    excluded <= g_lo[:, qi, None], axis=1)
            counts[:, live_cols] += case1_per_col.T
            # The high gate sits below the low gate, so case-1 implies
            # the low-side hit: the tally gap *is* the undecided count.
            diff = lowhit_per_col - case1_per_col
            gap[:, live_cols] += diff.T
            n_act_q = np.count_nonzero(act_u, axis=0)          # (nq,)
            n_case1_q = case1_per_col.sum(axis=0)              # (nq,)
            n_und_q = diff.sum(axis=0)
            for qi in range(nq):
                n_act = int(n_act_q[qi])
                if n_act == 0:
                    continue
                n_pairs = n_rows[qi] * n_act
                n_case1 = int(n_case1_q[qi])
                n_und = int(n_und_q[qi])
                counter = counters[qi]
                # A classified pair is a scored pair.
                counter.pairwise += n_pairs
                counter.points_accessed += n_pairs
                counter.filtered_case1 += n_case1
                counter.filtered_case2 += n_pairs - n_case1 - n_und
                stats.pairs_total += n_pairs
                stats.pairs_case1 += n_case1
                stats.pairs_case2 += n_pairs - n_case1 - n_und
                if self._f32:
                    stats.pairs_f32 += n_pairs
            np.less(counts, limits[:, None], out=active, where=active)
        stats.filter_s += perf_counter() - t0
        return _BlockState(counts=counts, gap=gap, active=active, FQ=FQ,
                           TOL=TOL, hi_cmp=hi_cmp, lo_cmp=lo_cmp, tiles=tiles)

    def _undecided(self, excl: Optional[np.ndarray], block: _BlockState,
                   qi: int, alive: np.ndarray, stats: KernelStats,
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """COO list of query ``qi``'s undecided pairs in ``alive`` columns.

        Extraction is deferred to block end because only columns that
        survive the limit *and* the rank-interval cap are ever refined.
        A surviving column was active in every tile, so replaying the
        *stored* tile scores reproduces exactly the pairs the tallies
        counted (recomputing a smaller gemm could flip a counted pair
        by one ulp) at the cost of a handful of candidate columns.
        """
        t0 = perf_counter()
        cand = np.flatnonzero(alive & (block.gap[qi] > 0))
        und_rows: List[np.ndarray] = []
        und_cols: List[np.ndarray] = []
        if cand.size:
            g_hi = block.hi_cmp[cand, qi][:, None]
            g_lo = block.lo_cmp[cand, qi][:, None]
            for ps, live_cols, S in block.tiles:
                scores = S[np.searchsorted(live_cols, cand)]
                und = scores <= g_lo
                und &= ~(scores < g_hi)
                if excl is not None:
                    lo_i, hi_i = np.searchsorted(excl, (ps, ps + S.shape[1]))
                    if hi_i > lo_i:
                        und[:, excl[lo_i:hi_i] - ps] = False
                cc, rr = np.nonzero(und)
                if rr.size:
                    und_rows.append(rr + ps)
                    und_cols.append(cand[cc])
        empty = np.empty(0, dtype=np.intp)
        rows = np.concatenate(und_rows) if und_rows else empty
        cols = np.concatenate(und_cols) if und_cols else empty
        stats.filter_s += perf_counter() - t0
        return rows, cols

    def _exact_counts(self, batch: _BatchState, block: _BlockState, ws: int,
                      qi: int, alive: np.ndarray, counter: OpCounter,
                      stats: KernelStats) -> np.ndarray:
        """Strictly-better counts of query ``qi``'s block, exact wherever
        ``alive``; every other column keeps its lower bound and is
        tallied as pruned."""
        n_pruned = alive.size - int(np.count_nonzero(alive))
        stats.weights_pruned += n_pruned
        counter.early_terminations += n_pruned
        rows, cols = self._undecided(batch.excl[qi], block, qi, alive, stats)
        return block.counts[qi] + self._refine(
            batch.QM[qi], block.FQ[:, qi], block.TOL[:, qi], ws, rows, cols,
            counter, stats)

    def _seed_limits(self, batch: _BatchState, ks: Sequence[int],
                     counters: List[OpCounter],
                     stats: KernelStats) -> np.ndarray:
        """Per-query limit an RKR sweep can start from.

        Under each of the ``SEED_CANDIDATES * k`` weights of all of
        ``W`` that score ``q`` lowest, count the products scoring at or
        below ``f_w(q) + tol``.  Near-ties, duplicates of ``q`` and
        dominators all count as better, so the count is an upper bound
        on that weight's exact rank: looser, never wrong, and no
        rational arithmetic.  The k-th smallest has k witnesses at or
        below it, so a column whose certain-better count exceeds it is
        out; ``+ 1`` because a column stays while ``counts < limit``
        and an equal rank can still win on the smaller index.  ``inf``
        where ``W`` holds fewer than ``k`` weights.
        """
        t0 = perf_counter()
        work = _workspace
        m_w = self.W.shape[0]
        n = self.P.shape[0]
        seeds = np.full(len(ks), np.inf)
        FQ = self.W @ batch.QM.T
        for qi, k in enumerate(ks):
            if m_w < k:
                continue
            c = min(SEED_CANDIDATES * k, m_w)
            cand = np.argpartition(FQ[:, qi], c - 1)[:c]
            fq = FQ[cand, qi]
            gate = (fq + TIE_REL_TOL * (1.0 + np.abs(fq)))[:, None]
            w_rows = self.W[cand]
            upper = np.zeros(c, dtype=np.int64)
            for ps in range(0, n, self.p_block):
                pe = min(ps + self.p_block, n)
                # Any earlier sweep's block is dead, and the first
                # classify_batch takes the buffer back.
                work.used = 0
                scores = np.matmul(w_rows, self.P[ps:pe].T,
                                   out=work.take((c, pe - ps), np.float64))
                mask = np.less_equal(scores, gate,
                                     out=work.take(scores.shape, np.bool_))
                upper += mask.sum(axis=1, dtype=np.int64)
            seeds[qi] = np.partition(upper, k - 1)[k - 1] + 1
            counters[qi].pairwise += c * n
            counters[qi].points_accessed += c * n
        stats.filter_s += perf_counter() - t0
        return seeds

    # ------------------------------------------------------------------
    # query kinds
    # ------------------------------------------------------------------

    # Both sweeps run at one BLAS thread, here where the gemms are, so
    # every caller gets it: the scheduler, a store read, the harness
    # (``blasthreads``: a second thread buys a tenth and costs up to 5x
    # when it has to be woken).
    @single_threaded()
    def rtk_batch(self, QM: np.ndarray, ks: Sequence[int],
                  counters: List[OpCounter],
                  stats: KernelStats) -> List[List[int]]:
        """Per-query weight indices whose rank of the query is below its
        ``k``, all queries off one tile sweep."""
        nq = QM.shape[0]
        m_w = self.W.shape[0]
        stats.record_sweep(nq)
        batch = self.prepare_batch(QM)
        results: List[List[int]] = [[] for _ in range(nq)]
        live: List[int] = []
        for qi in range(nq):
            stats.pairs_domin_skipped += batch.n_dom[qi] * m_w
            counters[qi].dominated_skips += batch.n_dom[qi] * m_w
            if batch.n_dom[qi] >= ks[qi]:
                # k dominators out-rank q under every weight: empty
                # answer everywhere (Algorithm 2 lines 7-8), and the
                # query leaves the batch before the sweep.
                stats.weights_pruned += m_w
                counters[qi].early_terminations += m_w
            else:
                live.append(qi)
        if not live:
            return results
        batch = batch.take(live)
        counters = [counters[qi] for qi in live]
        limits = np.array([ks[qi] for qi in live], dtype=np.float64)
        for ws in range(0, m_w, self.w_block):
            we = min(ws + self.w_block, m_w)
            block = self.classify_batch(batch, ws, we, limits, counters,
                                        stats)
            for j, qi in enumerate(live):
                total = self._exact_counts(batch, block, ws, j,
                                           block.active[j], counters[j],
                                           stats)
                t0 = perf_counter()
                hits = np.flatnonzero(total < ks[qi])
                results[qi].extend(self.w_order[hits + ws].tolist())
                stats.merge_s += perf_counter() - t0
        return results

    @single_threaded()
    def rkr_batch(self, QM: np.ndarray, ks: Sequence[int],
                  counters: List[OpCounter],
                  stats: KernelStats) -> List[List[Tuple[int, int]]]:
        """Per-query k best ``(rank, index)`` pairs.

        Tie-break matches the library contract: among equal ranks the
        smaller index wins.  Blocks come in kd-box order, not index
        order, so the heap compares ``(rank, index)`` and a column stays
        while its count is *at most* the k-th best rank held: an equal
        rank can still win on a smaller index.  minRank feedback is per
        query: the limit entering a block is the smaller of the sweep's
        seed (:meth:`_seed_limits`, known before the first block) and
        one past the k-th best rank of the blocks before it — both only
        ever over-estimate the final k-th best rank, so a stale value
        prunes less than Algorithm 3's per-weight update, never
        wrongly.
        """
        nq = QM.shape[0]
        m_w = self.W.shape[0]
        stats.record_sweep(nq)
        batch = self.prepare_batch(QM)
        for qi in range(nq):
            stats.pairs_domin_skipped += batch.n_dom[qi] * m_w
            counters[qi].dominated_skips += batch.n_dom[qi] * m_w
        seeds = self._seed_limits(batch, ks, counters, stats)
        # Max-heaps of the current k best: entries (-rank, -index).
        heaps: List[List[Tuple[int, int]]] = [[] for _ in range(nq)]
        limits = np.empty(nq, dtype=np.float64)
        for ws in range(0, m_w, self.w_block):
            we = min(ws + self.w_block, m_w)
            for qi in range(nq):
                heap = heaps[qi]
                limits[qi] = (seeds[qi] if len(heap) < ks[qi]
                              else min(seeds[qi], 1.0 - heap[0][0]))
            block = self.classify_batch(batch, ws, we, limits, counters,
                                        stats)
            for qi in range(nq):
                heap, k = heaps[qi], ks[qi]
                alive = block.active[qi]
                # Rank-interval cap.  [counts, counts + gap] brackets a
                # column's exact rank, so the k-th smallest of the ranks
                # already held and the block's upper ends has k
                # witnesses at or below it: a column whose *lower* end
                # exceeds it ranks strictly behind all k and is dropped
                # unrefined.  ``>`` not ``>=``: an equal rank can still
                # win on the smaller index.
                counts = block.counts[qi]
                held = np.fromiter((-nr for nr, _ in heap), np.int64,
                                   len(heap))
                ranks = np.concatenate((held,
                                        (counts + block.gap[qi])[alive]))
                if ranks.size >= k:
                    cap = np.partition(ranks, k - 1)[k - 1]
                    alive = alive & (counts <= cap)
                total = self._exact_counts(batch, block, ws, qi, alive,
                                           counters[qi], stats)
                t0 = perf_counter()
                cols = np.flatnonzero(alive)
                for rnk, idx in zip(total[cols].tolist(),
                                    self.w_order[cols + ws].tolist()):
                    entry = (-rnk, -idx)
                    if len(heap) < k:
                        heapq.heappush(heap, entry)
                    elif entry > heap[0]:
                        heapq.heapreplace(heap, entry)
                stats.merge_s += perf_counter() - t0
        return [[(-nr, -ni) for nr, ni in heap] for heap in heaps]


class GirKernelRRQ(RRQAlgorithm):
    """Reverse rank queries answered by the weight-blocked kernel.

    Drop-in replacement for :class:`~repro.core.gir.GridIndexRRQ` with
    identical answers and no grid: what it holds is ``P`` and ``W`` in
    sweep order (the core orders ``W`` into kd boxes itself), their
    float32 copies and a :class:`KernelCore`.
    ``w_block`` / ``p_block`` are the blocking knobs; ``partitions`` is
    accepted and ignored (``benchmarks/e2e/run.py`` still passes it;
    ROADMAP item 1a retires it).  After every query :attr:`last_stats`
    holds that query's :class:`KernelStats` (the scheduler feeds these
    into ``/metrics``).
    """

    name = "GIR-K"

    def __init__(self, products: ProductSet, weights: WeightSet,
                 partitions: Optional[int] = None,
                 w_block: int = DEFAULT_W_BLOCK,
                 p_block: int = DEFAULT_P_BLOCK,
                 use_domin: bool = True,
                 filter_dtype: str = "float32"):
        super().__init__(products, weights)
        # The core sweeps product rows in ascending coordinate-sum order
        # (stable): the products most weights rank ahead of q come
        # first, so a column reaches its limit in the first tile.  A
        # rank is a count over P, answers carry weight indices only:
        # nothing outside the core can tell, and ``self.P`` stays in
        # dataset order.
        order = np.argsort(self.P.sum(axis=1), kind="stable")
        self.core = KernelCore(self.P[order], self.W, w_block=w_block,
                               p_block=p_block, use_domin=use_domin,
                               filter_dtype=filter_dtype)
        #: Stats of the most recent query (None before the first).
        self.last_stats: Optional[KernelStats] = None

    @classmethod
    def from_gir(cls, gir, w_block: int = DEFAULT_W_BLOCK,
                 p_block: int = DEFAULT_P_BLOCK,
                 filter_dtype: str = "float32") -> "GirKernelRRQ":
        """A kernel over the same products, weights and ``use_domin`` as
        ``gir`` (a :class:`GridIndexRRQ`)."""
        return cls(gir.products, gir.weights, w_block=w_block,
                   p_block=p_block, use_domin=gir.use_domin,
                   filter_dtype=filter_dtype)

    @property
    def use_domin(self) -> bool:
        """Whether the Domin rank floor is applied."""
        return self.core.use_domin

    @property
    def filter_dtype(self) -> str:
        """Dtype of the score tiles (filter stage)."""
        return self.core.filter_dtype

    def memory_report(self) -> dict:
        """Bytes held by the data and its float32 filter copies."""
        core = self.core
        return {
            "f32_copy_bytes": (core.P32.nbytes + core.W32.nbytes
                               if core.P32 is not None else 0),
            "original_bytes": self.P.nbytes + self.W.nbytes,
        }

    # ------------------------------------------------------------------

    def _reverse_topk(self, q: np.ndarray, k: int,
                      counter: OpCounter) -> RTKResult:
        stats = KernelStats()
        hits, = self.core.rtk_batch(q[None, :], [k], [counter], stats)
        self.last_stats = stats
        return RTKResult(weights=frozenset(hits), k=k, counter=counter)

    def _reverse_kranks(self, q: np.ndarray, k: int,
                        counter: OpCounter) -> RKRResult:
        stats = KernelStats()
        pairs, = self.core.rkr_batch(q[None, :], [k], [counter], stats)
        self.last_stats = stats
        return make_rkr_result(pairs, k, counter)

    # ------------------------------------------------------------------
    # fused multi-query entry points
    # ------------------------------------------------------------------

    def _batch_inputs(self, queries: Sequence,
                      k: Union[int, Sequence[int]]):
        from ..data.datasets import check_query_point

        QM = np.stack([check_query_point(q, self.P.shape[1])
                       for q in queries])
        if isinstance(k, (int, np.integer)):
            ks = [int(k)] * len(queries)
        else:
            ks = [int(kk) for kk in k]
            if len(ks) != len(queries):
                raise InvalidParameterError(
                    f"got {len(queries)} queries but {len(ks)} k values"
                )
        if any(kk <= 0 for kk in ks):
            raise InvalidParameterError("k must be positive")
        return QM, ks

    def reverse_topk_batch(self, queries: Sequence,
                           k: Union[int, Sequence[int]]
                           ) -> List[RTKResult]:
        """Answer a whole micro-batch of RTK queries in one fused pass.

        Byte-identical to calling :meth:`reverse_topk` per query; the
        (P-block × W-block) score tiles are computed once and shared by
        every query (``k`` may be a scalar or per-query).
        After the call :attr:`last_stats` holds the batch's accumulated
        :class:`KernelStats` (with ``fused_*`` tallies).
        """
        if not len(queries):
            return []
        QM, ks = self._batch_inputs(queries, k)
        stats = KernelStats()
        counters = [OpCounter() for _ in range(len(queries))]
        hits = self.core.rtk_batch(QM, ks, counters, stats)
        self.last_stats = stats
        return [RTKResult(weights=frozenset(h), k=kk, counter=counter)
                for h, kk, counter in zip(hits, ks, counters)]

    def reverse_kranks_batch(self, queries: Sequence,
                             k: Union[int, Sequence[int]]
                             ) -> List[RKRResult]:
        """Answer a whole micro-batch of RKR queries in one fused pass.

        Byte-identical to calling :meth:`reverse_kranks` per query,
        per-query minRank feedback included; see
        :meth:`reverse_topk_batch`.
        """
        if not len(queries):
            return []
        QM, ks = self._batch_inputs(queries, k)
        stats = KernelStats()
        counters = [OpCounter() for _ in range(len(queries))]
        pairs = self.core.rkr_batch(QM, ks, counters, stats)
        self.last_stats = stats
        return [make_rkr_result(p, kk, counter)
                for p, kk, counter in zip(pairs, ks, counters)]
