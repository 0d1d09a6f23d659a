"""The mutable delta — where writes land before they are sealed.

One :class:`MutableDelta` buffers everything that happened since the
last seal: appended product/weight rows (with their pre-assigned global
ids) and the ids deleted since the barrier — whether those ids live in
the delta itself or in an already-sealed segment.  It is deliberately
tiny and dumb: no grid, no codes, no bounds.  A snapshot gathers the
delta's live rows after the segments' when its kernel is densified,
which keeps the hot mutation path to an O(d) append.

Concurrency is copy-on-grow: buffers are never resized in place and
the ``(rows, ids, count)`` triple is published in one reference
assignment, after the new row is fully written, so :meth:`freeze` hands
back arrays that stay byte-stable under any number of later appends and
a reader can never pair a new count with an old buffer.  Frozen views
are cached per mutation generation — pinning a snapshot between
mutations costs no copies at all.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set, Tuple

import numpy as np

from ..errors import InvalidParameterError

#: Initial row capacity of a delta side.
MIN_CAPACITY = 16


class _DeltaSide:
    """Append-only (rows, global ids) buffer with atomic publication."""

    def __init__(self, dim: int):
        self.dim = dim
        self._state = (
            np.empty((MIN_CAPACITY, dim)),
            np.empty(MIN_CAPACITY, dtype=np.int64),
            0,
        )

    def append(self, row: np.ndarray, gid: int) -> None:
        rows, ids, used = self._state
        if used == rows.shape[0]:
            cap = rows.shape[0] * 2
            grown = np.empty((cap, self.dim))
            grown[:used] = rows[:used]
            grown_ids = np.empty(cap, dtype=np.int64)
            grown_ids[:used] = ids[:used]
            rows, ids = grown, grown_ids
        rows[used] = row
        ids[used] = gid
        # Publish after the row and id are fully written (see module doc).
        self._state = (rows, ids, used + 1)

    def frozen(self) -> Tuple[np.ndarray, np.ndarray]:
        rows, ids, used = self._state
        out_rows, out_ids = rows[:used], ids[:used]
        out_rows.setflags(write=False)
        out_ids.setflags(write=False)
        return out_rows, out_ids

    def find(self, gid: int) -> Optional[int]:
        """Local position of ``gid``, or None (linear; deltas are small)."""
        rows, ids, used = self._state
        hits = np.flatnonzero(ids[:used] == gid)
        return int(hits[0]) if hits.size else None

    @property
    def count(self) -> int:
        return self._state[2]


class MutableDelta:
    """All un-sealed state: appended rows plus post-barrier deletes.

    The dead sets may name ids living in sealed segments — a delete of
    an old row does not touch the (immutable) segment, it just records
    the id here until the next seal folds it into the manifest's dead
    sets.  ``generation`` bumps on every mutation so frozen views and
    derived caches can be invalidated precisely.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.products = _DeltaSide(dim)
        self.weights = _DeltaSide(dim)
        #: Ids deleted since the last seal (segment- or delta-resident).
        self.dead_products: Set[int] = set()
        self.dead_weights: Set[int] = set()
        #: Monotone mutation counter (snapshot/cache invalidation).
        self.generation = 0
        self._frozen_cache: Optional[Tuple[int, dict]] = None

    # ------------------------------------------------------------------

    def append_product(self, row: np.ndarray, gid: int) -> None:
        self.products.append(row, gid)
        self.generation += 1

    def append_weight(self, row: np.ndarray, gid: int) -> None:
        self.weights.append(row, gid)
        self.generation += 1

    def kill_product(self, gid: int) -> None:
        if gid in self.dead_products:
            raise InvalidParameterError(
                f"index {gid} is already deleted (tombstoned)"
            )
        self.dead_products.add(gid)
        self.generation += 1

    def kill_weight(self, gid: int) -> None:
        if gid in self.dead_weights:
            raise InvalidParameterError(
                f"index {gid} is already deleted (tombstoned)"
            )
        self.dead_weights.add(gid)
        self.generation += 1

    # ------------------------------------------------------------------

    @property
    def mutation_rows(self) -> int:
        """Buffered work since the last seal (the seal trigger)."""
        return (self.products.count + self.weights.count
                + len(self.dead_products) + len(self.dead_weights))

    def freeze(self) -> dict:
        """One coherent, immutable view of the whole delta.

        Returns ``{"p_rows", "p_ids", "w_rows", "w_ids", "dead_products",
        "dead_weights", "generation"}`` with array views that stay stable
        under later appends and frozensets decoupled from later deletes.
        Cached per generation: repeated pins between mutations are free.
        """
        if (self._frozen_cache is not None
                and self._frozen_cache[0] == self.generation):
            return self._frozen_cache[1]
        p_rows, p_ids = self.products.frozen()
        w_rows, w_ids = self.weights.frozen()
        view = {
            "p_rows": p_rows, "p_ids": p_ids,
            "w_rows": w_rows, "w_ids": w_ids,
            "dead_products": frozenset(self.dead_products),
            "dead_weights": frozenset(self.dead_weights),
            "generation": self.generation,
        }
        self._frozen_cache = (self.generation, view)
        return view

    def live_counts(self) -> Tuple[int, int]:
        """(live products, live weights) resident in the delta itself."""
        view = self.freeze()
        live_p = int(np.count_nonzero(
            ~np.isin(view["p_ids"], sorted(view["dead_products"]))
        )) if view["p_ids"].size else 0
        live_w = int(np.count_nonzero(
            ~np.isin(view["w_ids"], sorted(view["dead_weights"]))
        )) if view["w_ids"].size else 0
        return live_p, live_w
