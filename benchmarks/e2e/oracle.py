"""Expected answers, computed without the code paths under test.

Static workloads compare reply bytes with canonical JSON of
``BatchOracle`` answers (one dense rank sweep).  ``mixed_rw`` keeps the
writer's own model of acknowledged writes — stable ids handed out the
way the segment store does — and answers reads with ``NaiveRRQ`` over
the model's live rows, mapping positions back to stable ids.  The LRU
model predicts the cache's hit sequence for ``hot_keys``.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, List, Sequence

import numpy as np

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet
from repro.queries.types import RKRResult, RTKResult
from repro.service.server import canonical_json, encode_result
from repro.vectorized.batch import BatchOracle

from loadgen import Reply, Request


def fill_static_expected(products: ProductSet, weights: WeightSet,
                         requests: Sequence[Request], k: int) -> None:
    """Set ``expected`` on every read of a static workload."""
    oracle = BatchOracle(products, weights)
    for kind, many in (("rtk", oracle.reverse_topk_many),
                       ("rkr", oracle.reverse_kranks_many)):
        group = [r for r in requests if r.kind == kind]
        if not group:
            continue
        answers = many([products[r.payload["product"]] for r in group], k)
        for req, answer in zip(group, answers):
            req.expected = canonical_json(encode_result(answer, kind))


class _FrozenState:
    """The model's live rows at one point of the write stream."""

    def __init__(self, p_rows: np.ndarray, w_rows: np.ndarray,
                 w_ids: np.ndarray, value_range: float):
        self._args = (p_rows, w_rows, value_range)
        self._w_ids = w_ids
        self._naive = None

    def answer(self, kind: str, vector: Sequence[float], k: int) -> bytes:
        if self._naive is None:
            p_rows, w_rows, value_range = self._args
            self._naive = NaiveRRQ(ProductSet(p_rows, value_range=value_range),
                                   WeightSet(w_rows))
        ids = self._w_ids
        if kind == "rtk":
            found = self._naive.reverse_topk(vector, k)
            result = RTKResult(frozenset(int(ids[j]) for j in found.weights), k)
        else:
            found = self._naive.reverse_kranks(vector, k)
            result = RKRResult(tuple((rank, int(ids[j]))
                                     for rank, j in found.entries), k)
        return canonical_json(encode_result(result, kind))


class StoreModel:
    """Plain-Python mirror of the durable store's logical state.

    Ids are stable and handed out in arrival order; a modify retires the
    old id and takes a fresh one; every logged write advances the LSN
    (the bootstrap's reset record is LSN 1, compaction logs nothing).
    """

    def __init__(self, products: ProductSet, weights: WeightSet):
        self.value_range = float(products.value_range)
        self.products: Dict[int, np.ndarray] = dict(enumerate(products.values))
        self.weights: Dict[int, np.ndarray] = dict(enumerate(weights.values))
        self.next_pid = len(self.products)
        self.next_wid = len(self.weights)
        self.lsn = 1
        self._frozen = None

    def apply(self, op: str, payload: dict) -> dict:
        """Apply one write; returns the receipt fields the server owes."""
        if op in ("compact", "snapshot"):
            receipt = {"op": op, "lsn": self.lsn}
            if op == "compact":
                receipt["product_map"] = [
                    i if i in self.products else -1
                    for i in range(self.next_pid)]
                receipt["weight_map"] = [
                    i if i in self.weights else -1
                    for i in range(self.next_wid)]
            return receipt
        self._frozen = None
        self.lsn += 1
        receipt = {"op": op, "lsn": self.lsn}
        rows = self.products if op.endswith("product") else self.weights
        if op.startswith(("delete", "modify")):
            del rows[payload["index"]]
        if op.startswith("delete"):
            receipt["index"] = payload["index"]
            return receipt
        if op.startswith("modify"):
            receipt["old_index"] = payload["index"]
        if op.endswith("product"):
            receipt["index"], self.next_pid = self.next_pid, self.next_pid + 1
        else:
            receipt["index"], self.next_wid = self.next_wid, self.next_wid + 1
        rows[receipt["index"]] = np.asarray(payload["vector"], dtype=np.float64)
        return receipt

    def freeze(self) -> _FrozenState:
        """The current state, shared by every read until the next write."""
        if self._frozen is None:
            w_ids = np.array(sorted(self.weights), dtype=np.int64)
            self._frozen = _FrozenState(
                np.array([self.products[i] for i in sorted(self.products)]),
                np.array([self.weights[i] for i in w_ids]),
                w_ids, self.value_range,
            )
        return self._frozen


def reply_ok(req: Request, reply: Reply) -> bool:
    """200, not degraded, and equal to what the oracle says."""
    if reply.status != 200:
        return False
    if not req.is_read:
        got = json.loads(reply.body)
        return all(got.get(key) == value for key, value in req.expected.items())
    expected = req.expected() if callable(req.expected) else req.expected
    return reply.body == expected


class LruModel:
    """Which lookups of a key sequence an LRU of ``capacity`` would hit."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[object, None]" = OrderedDict()

    def access(self, key) -> bool:
        """Look ``key`` up, insert it on a miss; True on a hit."""
        hit = key in self._entries
        if hit:
            self._entries.move_to_end(key)
        elif self.capacity:
            self._entries[key] = None
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return hit

    def hits(self, keys: Sequence) -> List[bool]:
        return [self.access(key) for key in keys]
