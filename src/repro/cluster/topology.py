"""Cluster membership and the weight-space partition function.

A cluster serves one logical ``(P, W)`` pair: every worker holds the
**full** product set (products are small and every rank computation
needs all of them) while the weight set is **partitioned** — each worker
owns a disjoint subset of the global weight indices.  Because
``rank(w, q)`` depends only on ``w``, ``q`` and ``P`` (never on other
weights), any partition of ``W`` yields exact scatter-gather answers:
RTK answers are unions of per-shard answers and RKR answers are
k-smallest merges (:func:`~repro.queries.types.make_rkr_result`).

Two partitioners, both deterministic and invertible:

``range``
    Contiguous ``linspace`` slices.  Global index ``g`` on shard ``s``
    becomes local index ``g - base[s]``.  New weights are routed to the *last*
    shard (its range is open above); rebalancing moves boundary runs.
``mod``
    Round-robin by residue: global ``g`` lives on shard ``g % N`` at
    local index ``g // N``.  Inserts routed through the coordinator
    stay perfectly balanced; rebalancing to a different ``N`` moves the
    residue-crossing indices.

The topology is a static membership **manifest**: shard ids, their
endpoint URLs (primary first, standbys after — the order the write
failover walks), per-shard initial weight counts, and the partitioner.
It serializes to canonical JSON (``GET /cluster/topology``, or a file
next to the cluster's data) and computes :func:`rebalance plans
<ClusterTopology.rebalance_plan>` when membership changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import InvalidParameterError

PathLike = Union[str, Path]

#: Supported weight partitioners.
PARTITIONERS = ("range", "mod")


@dataclass(frozen=True)
class ShardSpec:
    """One worker shard: its id, endpoints, and initial weight count.

    ``endpoints`` lists the shard's replicas primary-first; the
    coordinator's per-shard client rotates across them on transport
    failure and on 409 (standby refused a write) exactly as the
    multi-endpoint :class:`~repro.service.client.ServiceClient` does.
    """

    shard_id: int
    endpoints: Tuple[str, ...]
    weight_count: int = 0

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise InvalidParameterError("shard_id must be >= 0")
        if not self.endpoints:
            raise InvalidParameterError(
                f"shard {self.shard_id}: at least one endpoint is required"
            )
        if self.weight_count < 0:
            raise InvalidParameterError(
                f"shard {self.shard_id}: weight_count must be >= 0"
            )

    @property
    def primary(self) -> str:
        """The endpoint writes go to first."""
        return self.endpoints[0]

    @property
    def replicas(self) -> Tuple[str, ...]:
        """The shard's standby endpoints (everything after the primary).

        Failover promotes one of these; hedged reads probe them while
        the primary is merely slow.
        """
        return self.endpoints[1:]

    def with_endpoints(self, endpoints: Sequence[str]) -> "ShardSpec":
        """This spec with a new endpoint list (a failover routing flip)."""
        return ShardSpec(shard_id=self.shard_id,
                         endpoints=tuple(url.rstrip("/")
                                         for url in endpoints),
                         weight_count=self.weight_count)

    def to_dict(self) -> dict:
        return {"shard_id": self.shard_id,
                "endpoints": list(self.endpoints),
                "replicas": list(self.replicas),
                "weight_count": int(self.weight_count)}


def partition_weight_indices(total: int, shards: int,
                             partitioner: str = "range"
                             ) -> List[np.ndarray]:
    """The global weight indices each of ``shards`` workers owns
    (``range``: ``linspace`` boundaries; ``mod``: residues)."""
    if total < 0:
        raise InvalidParameterError("total must be >= 0")
    if shards < 1:
        raise InvalidParameterError("shards must be positive")
    if partitioner == "range":
        bounds = np.linspace(0, total, shards + 1).astype(int)
        return [np.arange(int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])]
    if partitioner == "mod":
        return [np.arange(s, total, shards) for s in range(shards)]
    raise InvalidParameterError(
        f"unknown partitioner {partitioner!r}; expected one of "
        f"{', '.join(PARTITIONERS)}"
    )


@dataclass(frozen=True)
class ClusterTopology:
    """The static membership manifest + the global↔local index bijection.

    ``shards`` must be a dense ``shard_id`` sequence ``0..N-1`` whose
    ``weight_count`` values reproduce :func:`partition_weight_indices`
    over the topology's ``total_weights`` — the constructor enforces it,
    because a manifest whose counts drifted from the partitioner would
    silently corrupt every global↔local translation.
    """

    partitioner: str
    shards: Tuple[ShardSpec, ...]
    _bases: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.partitioner not in PARTITIONERS:
            raise InvalidParameterError(
                f"unknown partitioner {self.partitioner!r}; expected one of "
                f"{', '.join(PARTITIONERS)}"
            )
        if not self.shards:
            raise InvalidParameterError("a topology needs at least one shard")
        ids = [spec.shard_id for spec in self.shards]
        if ids != list(range(len(self.shards))):
            raise InvalidParameterError(
                f"shard ids must be dense 0..{len(self.shards) - 1}, "
                f"got {ids}"
            )
        expected = partition_weight_indices(self.total_weights,
                                            len(self.shards),
                                            self.partitioner)
        for spec, owned in zip(self.shards, expected):
            if spec.weight_count != len(owned):
                raise InvalidParameterError(
                    f"shard {spec.shard_id}: weight_count "
                    f"{spec.weight_count} does not match the "
                    f"{self.partitioner!r} partition of "
                    f"{self.total_weights} weights ({len(owned)})"
                )
        # Range bases let to_global/to_local run without re-deriving the
        # linspace split on every call.
        counts = [spec.weight_count for spec in self.shards]
        object.__setattr__(self, "_bases",
                           tuple(int(x) for x in
                                 np.concatenate([[0],
                                                 np.cumsum(counts)[:-1]])))

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def total_weights(self) -> int:
        return sum(spec.weight_count for spec in self.shards)

    def shard(self, shard_id: int) -> ShardSpec:
        if not 0 <= shard_id < len(self.shards):
            raise InvalidParameterError(
                f"shard_id must be in [0, {len(self.shards)}), "
                f"got {shard_id}"
            )
        return self.shards[shard_id]

    # ------------------------------------------------------------------
    # the global <-> local bijection
    # ------------------------------------------------------------------

    def owned_globals(self, shard_id: int) -> np.ndarray:
        """The global weight indices shard ``shard_id`` owns, ascending."""
        self.shard(shard_id)
        return partition_weight_indices(self.total_weights, self.num_shards,
                                        self.partitioner)[shard_id]

    def to_global(self, shard_id: int, local: int) -> int:
        """Map a shard-local weight index back to its global index.

        Defined for *any* non-negative local index, including ones past
        the shard's initial count: an insert appends at the next local
        slot and this map gives the new weight its stable global id.
        """
        self.shard(shard_id)
        if local < 0:
            raise InvalidParameterError("local index must be >= 0")
        if self.partitioner == "mod":
            return shard_id + local * self.num_shards
        return self._bases[shard_id] + local

    def to_local(self, global_index: int) -> Tuple[int, int]:
        """Map a global weight index to ``(owner shard, local index)``."""
        g = int(global_index)
        if g < 0:
            raise InvalidParameterError("global index must be >= 0")
        if self.partitioner == "mod":
            return g % self.num_shards, g // self.num_shards
        owner = int(np.searchsorted(self._bases, g, side="right")) - 1
        return owner, g - self._bases[owner]

    def owner_of(self, global_index: int) -> int:
        """The shard that owns ``global_index`` (inserts included)."""
        return self.to_local(global_index)[0]

    def insert_owner(self, next_global: int) -> int:
        """The shard a weight inserted at ``next_global`` routes to.

        ``mod`` keeps round-robin balance; ``range`` appends to the last
        shard, whose range is open above (rebalance to restore balance).
        """
        if self.partitioner == "mod":
            return int(next_global) % self.num_shards
        return self.num_shards - 1

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready manifest (the ``GET /cluster/topology`` body)."""
        return {
            "partitioner": self.partitioner,
            "num_shards": self.num_shards,
            "total_weights": self.total_weights,
            "shards": [spec.to_dict() for spec in self.shards],
        }

    @classmethod
    def from_dict(cls, manifest: dict) -> "ClusterTopology":
        try:
            shards = tuple(
                ShardSpec(shard_id=int(entry["shard_id"]),
                          endpoints=tuple(str(u) for u in entry["endpoints"]),
                          weight_count=int(entry["weight_count"]))
                for entry in manifest["shards"]
            )
            return cls(partitioner=str(manifest["partitioner"]),
                       shards=shards)
        except (KeyError, TypeError) as exc:
            raise InvalidParameterError(
                f"malformed topology manifest: {exc!r}"
            ) from None

    def save(self, path: PathLike) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: PathLike) -> "ClusterTopology":
        path = Path(path)
        if not path.is_file():
            raise InvalidParameterError(f"{path}: no such topology manifest")
        try:
            manifest = json.loads(path.read_text())
        except ValueError as exc:
            raise InvalidParameterError(
                f"{path}: invalid JSON ({exc})"
            ) from None
        return cls.from_dict(manifest)

    # ------------------------------------------------------------------
    # membership change
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, endpoints: Sequence[Sequence[str]], total_weights: int,
              partitioner: str = "range") -> "ClusterTopology":
        """A topology over ``endpoints`` (one endpoint list per shard)."""
        owned = partition_weight_indices(int(total_weights), len(endpoints),
                                         partitioner)
        shards = tuple(
            ShardSpec(shard_id=i,
                      endpoints=(tuple(urls) if not isinstance(urls, str)
                                 else (urls,)),
                      weight_count=len(owned[i]))
            for i, urls in enumerate(endpoints)
        )
        return cls(partitioner=partitioner, shards=shards)

    def with_shard_endpoints(self, shard_id: int,
                             endpoints: Sequence[str]) -> "ClusterTopology":
        """A new topology with one shard's endpoint list replaced.

        The partition (weight counts, bijection) is untouched — this is
        the supervisor's failover primitive: promote a standby, then
        swap the shard's routing to ``[new_primary, *standbys]`` in one
        atomic topology replacement.
        """
        spec = self.shard(shard_id)
        if not endpoints:
            raise InvalidParameterError(
                f"shard {shard_id}: at least one endpoint is required"
            )
        shards = tuple(spec.with_endpoints(endpoints)
                       if s.shard_id == shard_id else s
                       for s in self.shards)
        return ClusterTopology(partitioner=self.partitioner, shards=shards)

    def rebalance_plan(self, new_endpoints: Sequence[Sequence[str]],
                       partitioner: Optional[str] = None) -> dict:
        """What must move when membership changes to ``new_endpoints``.

        Returns a JSON-ready plan: the new topology manifest plus one
        move record per ``(from, to)`` shard pair listing how many
        weights cross and, for contiguous runs, the global index ranges
        (``[lo, hi)``).  Weights whose owner is unchanged do not appear.
        The plan is *descriptive* — executing it (stream the moved
        weights into their new owner's WAL, then flip the manifest) is
        the operator procedure documented in ``docs/operations.md``.
        """
        new = ClusterTopology.build(new_endpoints, self.total_weights,
                                    partitioner or self.partitioner)
        total = self.total_weights
        moves: List[dict] = []
        if total:
            g = np.arange(total)
            if self.partitioner == "mod":
                old_owner = g % self.num_shards
            else:
                old_owner = np.searchsorted(self._bases, g,
                                            side="right") - 1
            if new.partitioner == "mod":
                new_owner = g % new.num_shards
            else:
                new_owner = np.searchsorted(new._bases, g,
                                            side="right") - 1
            moving = old_owner != new_owner
            for pair in sorted({(int(a), int(b))
                                for a, b in zip(old_owner[moving],
                                                new_owner[moving])}):
                src, dst = pair
                indices = g[moving & (old_owner == src)
                            & (new_owner == dst)]
                # Compress to contiguous [lo, hi) runs for readability.
                breaks = np.where(np.diff(indices) != 1)[0]
                starts = np.concatenate([[0], breaks + 1])
                ends = np.concatenate([breaks, [len(indices) - 1]])
                moves.append({
                    "from": src,
                    "to": dst,
                    "count": int(len(indices)),
                    "ranges": [[int(indices[a]), int(indices[b]) + 1]
                               for a, b in zip(starts, ends)],
                })
        return {
            "from_shards": self.num_shards,
            "to_shards": new.num_shards,
            "total_weights": total,
            "moved_weights": sum(m["count"] for m in moves),
            "moves": moves,
            "new_topology": new.to_dict(),
        }
