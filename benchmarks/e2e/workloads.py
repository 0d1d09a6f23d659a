"""The four workloads: what is served, what is sent, what must hold.

All four use one data set (UNxUN, d=4, |P|=1000, |W|=2000, k=10, 32
partitions, data seeds 7/8).  Per-query cost in this system spans three
orders of magnitude between products (an RTK with an empty answer exits
in 0.1 ms, a mid-ranked product costs 400 ms) and a pass must stay near
2 s for best-of-passes to see enough passes, so the query pools are
*fixed by the data*: products at the centres of equal-size strata of the
coordinate-sum ranking.  ``--seed`` decides everything else — arrival
order, burst pairing, which keys sit on the hot ranks, every write
vector and write target — so the server still sees only generated
inputs, while ten seeds measure the same amount of work.

How many passes a run replays is a constant of the workload, never a
matter of how many fitted into a time budget: a best-of-N whose N
depends on the speed of the code under test is biased against the slower
side.  The constants are sized so that a run takes about the
``run_seconds`` that ``BENCHMARK.json`` names on a 2-vCPU box.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

import numpy as np

from loadgen import Request, Round
from oracle import LruModel, StoreModel, fill_static_expected

K = 10
DIM = 4
N_PRODUCTS = 1000
N_WEIGHTS = 2000
PARTITIONS = 32
PRODUCT_SEED = 7
WEIGHT_SEED = 8
KINDS = ("rtk", "rkr")

#: Seed of the Zipf rank sequence of ``hot_keys``.  Fixed, because the
#: number of misses in a short sequence swings rkr_ms by tens of percent.
_ZIPF_SEED = 20170321


def load_data():
    from repro.data.synthetic import generate_products, generate_weights

    return (generate_products("UN", N_PRODUCTS, DIM, seed=PRODUCT_SEED),
            generate_weights("UN", N_WEIGHTS, DIM, seed=WEIGHT_SEED))


def strata_pool(products, count: int) -> List[int]:
    """One product per equal-size stratum of the coordinate-sum ranking."""
    order = np.argsort(products.values.sum(axis=1), kind="stable")
    width = len(order) / count
    return [int(order[int((j + 0.5) * width)]) for j in range(count)]


def _query(kind: str, **target) -> Request:
    return Request(kind, "/query", {"kind": kind, "k": K, **target})


class Workload:
    """Shared shape: a served directory, set-up requests, replayed passes."""

    name = ""
    cache_size = 0
    durable = False
    #: Measured passes of a run of ``run_seconds``, dealt over this many
    #: fresh servers (fewer when there are fewer passes than servers).
    passes = 0
    servers = 2
    #: Passes replayed on each fresh server before its samples count.
    warmup_passes = 0

    def __init__(self, products, weights, seed: int, smoke: bool = False):
        self.products = products
        self.weights = weights
        self.seed = seed
        self.rng = self._fresh_rng()
        self.smoke = smoke

    def _fresh_rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, sum(self.name.encode())])

    def serve_args(self, directory: Path) -> List[str]:
        return [str(directory), "--cache-size", str(self.cache_size)]

    def setup_dir(self, root: Path) -> Path:
        raise NotImplementedError

    def begin_server(self) -> None:
        """Called once per fresh server, before its set-up requests."""

    def warmup_rounds(self) -> List[Round]:
        raise NotImplementedError

    def next_pass(self) -> List[Round]:
        raise NotImplementedError

    def intent_failures(self, delta: dict, passes: int) -> List[str]:
        """Path-intent assertions over the measured phase's /metrics delta."""
        raise NotImplementedError

    def trace_failures(self, detail: dict) -> List[str]:
        """Path-intent assertions only the traced replay can check."""
        return []


def _common_failures(delta: dict) -> List[str]:
    bad = []
    for key in ("rejected_overload", "rejected_deadline",
                "rejected_unavailable", "errors", "degraded"):
        if delta["requests"][key]:
            bad.append(f"requests.{key} = {delta['requests'][key]}, want 0")
    return bad


def _coalescing_failures(delta: dict, pair_rounds: int) -> List[str]:
    """Pair rounds must coalesce and coalesced requests must run fused.

    On a 2-vCPU box a handler thread is now and then descheduled past the
    2 ms window (measured: 2-8 % of pairs); those pairs are answered as
    two exact, slower singles that best-of-passes discards.  The check is
    for a fallback taken quietly and always, so a fifth may miss.
    """
    batches, bad = delta["batches"], []
    if batches["coalesced"] < pair_rounds - max(2, pair_rounds // 5):
        bad.append(f"batches.coalesced = {batches['coalesced']} of "
                   f"{pair_rounds} pair rounds")
    singles = batches["total"] - batches["coalesced"]
    fused = delta["kernel"]["fused"]["queries"]
    if fused != batches["batched_requests"] - singles:
        bad.append(f"kernel.fused.queries = {fused}, want "
                   f"{batches['batched_requests'] - singles} (requests in "
                   f"coalesced batches)")
    return bad


class StaticWorkload(Workload):
    """Serves a persisted Grid-index; the sequence is the same every pass."""

    pool_size = 0
    passes = 10  # 1.9-2.0 s each
    #: The first pass on a fresh server is set-up: caches fill, lazy paths
    #: run once, and whatever state the set-up's requests left the two
    #: connections in (a first request spared the 40 ms delayed ACK would
    #: own its position's minimum) is gone before a sample counts.
    warmup_passes = 1

    def __init__(self, products, weights, seed: int, smoke: bool = False):
        super().__init__(products, weights, seed, smoke)
        self.pool = strata_pool(
            products, max(2, self.pool_size // 2) if smoke else self.pool_size)
        a, b = self.pool[0], self.pool[1]
        # One single and one pair per kind, so the lazy kernel build lands
        # in set-up.  Shapes alternate: with both pair rounds first on a
        # fresh server, the second missed the 2 ms window three times in
        # eight and put 0.3 s of uncoalesced RKR into the set-up; with
        # alternating shapes, never in sixteen.
        self._warmup: List[Round] = [
            (_query("rtk", product=a),),
            (_query("rtk", product=a), _query("rtk", product=b)),
            (_query("rkr", product=a),),
            (_query("rkr", product=a), _query("rkr", product=b)),
        ]
        self.rounds = self.build_rounds()
        reads = [req for rnd in self._warmup + self.rounds for req in rnd]
        fill_static_expected(products, weights, reads, K)

    def build_rounds(self) -> List[Round]:
        raise NotImplementedError

    def setup_dir(self, root: Path) -> Path:
        """Build and persist the index through the library.  A ``repro-rrq
        build`` child would spend 1.3 s starting Python and importing the
        package (1 s of it ``scipy.stats``) to do 5 ms of building, and
        start-up is the part of a set-up that swings most with the hour;
        the server's own cold start is in ``setup_s`` once, which is
        enough."""
        from repro.core import gir, storage

        storage.save_index(root / "index", gir.GridIndexRRQ(
            self.products, self.weights, partitions=PARTITIONS))
        return root / "index"

    def warmup_rounds(self) -> List[Round]:
        return self._warmup

    def next_pass(self) -> List[Round]:
        return self.rounds


class Q1Cold(StaticWorkload):
    name = "q1_cold"
    pool_size = 6

    def build_rounds(self) -> List[Round]:
        singles = [(_query(kind, product=p),)
                   for p in self.pool for kind in KINDS]
        return [singles[i] for i in self.rng.permutation(len(singles))]

    def intent_failures(self, delta: dict, passes: int) -> List[str]:
        bad = _common_failures(delta)
        if delta["batches"]["coalesced"]:
            bad.append(f"batches.coalesced = {delta['batches']['coalesced']}, "
                       "want 0 (every request is a batch of one)")
        if delta["kernel"]["fused"]["queries"]:
            bad.append("kernel.fused.queries != 0 on the Q=1 path")
        return bad


class Burst2Cold(StaticWorkload):
    name = "burst2_cold"
    pool_size = 20

    def build_rounds(self) -> List[Round]:
        shuffled = [self.pool[i] for i in self.rng.permutation(len(self.pool))]
        pairs = list(zip(shuffled[0::2], shuffled[1::2]))
        rounds = [(_query(kind, product=a), _query(kind, product=b))
                  for a, b in pairs for kind in KINDS]
        return [rounds[i] for i in self.rng.permutation(len(rounds))]

    def intent_failures(self, delta: dict, passes: int) -> List[str]:
        bad = _common_failures(delta)
        bad += _coalescing_failures(delta, len(self.rounds) * passes)
        return bad


class HotKeys(StaticWorkload):
    name = "hot_keys"
    pool_size = 12
    sequence_length = 32
    #: 24 keys, 12 of them touched by the 32-request sequence: a cache of
    #: 10 gives 26 hits and 6 evict-and-recompute misses per pass.
    #: The discarded first pass fills it; the hit pattern repeats from
    #: pass 2.
    cache_size = 10

    def __init__(self, products, weights, seed: int, smoke: bool = False):
        if smoke:
            self.cache_size = 5
        super().__init__(products, weights, seed, smoke)
        self.expected_hits = 0  # LRU-model hits of every measured pass

    def build_rounds(self) -> List[Round]:
        keys = [(p, kind) for p in self.pool for kind in KINDS]
        length = self.sequence_length // 2 if self.smoke \
            else self.sequence_length
        weights = 1.0 / np.arange(1, len(keys) + 1) ** 1.1
        ranks = np.random.default_rng(_ZIPF_SEED).choice(
            len(keys), size=length, p=weights / weights.sum())
        # The seed rotates the arrival order and deals the keys that are
        # hits in every steady-state pass onto the hot ranks of their own
        # kind; which ranks miss, and so the work per pass and per kind,
        # is the same for every seed.
        ranks = np.roll(ranks, int(self.rng.integers(length)))
        lru = LruModel(self.cache_size)
        lru.hits(ranks)
        missed = {int(r) for r, hit in zip(ranks, lru.hits(ranks)) if not hit}
        dealt = {}
        for parity in range(len(KINDS)):  # a rank's kind is its parity
            hot = sorted(r for r in set(map(int, ranks)) - missed
                         if r % len(KINDS) == parity)
            dealt.update(zip(hot, self.rng.permutation(hot)))
        self.key_sequence = [keys[int(dealt.get(int(r), r))] for r in ranks]
        # One Request per position: each carries its own trace id.
        return [(_query(kind, product=p),) for p, kind in self.key_sequence]

    def warmup_rounds(self) -> List[Round]:
        # Singles only: two concurrent lookups would reach the LRU in an
        # order the model cannot know.
        return [rnd for rnd in self._warmup if len(rnd) == 1]

    def begin_server(self) -> None:
        self._lru = LruModel(self.cache_size)
        self._lru.hits([(req.payload["product"], req.kind)
                        for rnd in self.warmup_rounds() for req in rnd])
        self._passes_planned = 0

    def next_pass(self) -> List[Round]:
        hits = sum(self._lru.hits(self.key_sequence))
        self._passes_planned += 1
        if self._passes_planned > self.warmup_passes:
            self.expected_hits += hits
        return self.rounds

    def intent_failures(self, delta: dict, passes: int) -> List[str]:
        bad = _common_failures(delta)
        if delta["requests"]["cache_hits"] != self.expected_hits:
            bad.append(f"cache hits {delta['requests']['cache_hits']} != LRU "
                       f"model {self.expected_hits}")
        if delta["batches"]["coalesced"]:
            bad.append("batches.coalesced != 0 with a single client")
        return bad


class MixedRW(Workload):
    name = "mixed_rw"
    durable = True
    #: Every pass has a server and a directory of its own, rebuilt from the
    #: seed, so the write stream and the store state at every read are the
    #: same in every pass and a position's best time compares like with
    #: like.  ~2.7 s a pass, ~2.4 s a set-up.
    passes = 6
    servers = 6
    cycles = 2
    #: 30 preload cycles x 4 writes = 120 WAL records to replay at start,
    #: 150 delta rows: below the 256-row auto-seal, so the background
    #: compactor never has two small segments to merge at a time of its own.
    preload_cycles = 30

    def __init__(self, products, weights, seed: int, smoke: bool = False):
        super().__init__(products, weights, seed, smoke)
        if smoke:
            self.cycles, self.preload_cycles = 1, 5
        # Five read roles per cycle (one single, two pairs); a single on
        # the merge route costs several times a fused pair, so which
        # product plays which role is fixed and the seed shapes the writes.
        self.read_pool = strata_pool(products, 5 * self.cycles)
        self.held_out = strata_pool(products, 7)[3]

    def serve_args(self, directory: Path) -> List[str]:
        return super().serve_args(directory) + [
            "--durable", "--storage", "segmented", "--fsync", "always"]

    # -- the write stream --------------------------------------------------

    def _write_cycle(self) -> List[Request]:
        """insert weight, insert product, delete an earlier-inserted
        weight, modify a bootstrapped product — planned against the model,
        which is advanced as if each were acknowledged."""
        rng, model = self.rng, self.model
        requests: List[Request] = []

        def emit(op: str, path: str, payload: dict) -> dict:
            receipt = model.apply(op, payload)
            requests.append(Request(op, path, payload, expected=receipt))
            return receipt

        def product_vector() -> List[float]:
            return [float(x) for x in rng.uniform(0, model.value_range, DIM)]

        weight = [float(x) for x in rng.dirichlet(np.ones(DIM))]
        self._inserted_weights.append(emit(
            "insert_weight", "/insert",
            {"type": "weight", "vector": weight})["index"])
        emit("insert_product", "/insert",
             {"type": "product", "vector": product_vector()})
        victim = self._inserted_weights.pop(
            int(rng.integers(len(self._inserted_weights))))
        emit("delete_weight", "/delete", {"type": "weight", "index": victim})
        target = self._modifiable.pop(int(rng.integers(len(self._modifiable))))
        emit("modify_product", "/modify",
             {"type": "product", "index": target, "vector": product_vector()})
        return requests

    def _admin(self, op: str) -> Round:
        return (Request(op, f"/{op}", {},
                        expected=self.model.apply(op, {})),)

    def _read(self, kind: str, product: int) -> Request:
        vector = [float(x) for x in self.products[product]]
        state = self.model.freeze()
        req = _query(kind, vector=vector)
        req.expected = lambda: state.answer(kind, vector, K)
        return req

    # -- Workload interface -------------------------------------------------

    def begin_server(self) -> None:
        self.rng = self._fresh_rng()  # the same stream on every server
        self.model = StoreModel(self.products, self.weights)
        self._inserted_weights: List[int] = []
        pooled = set(self.read_pool) | {self.held_out}
        self._modifiable = [i for i in range(N_PRODUCTS) if i not in pooled]

    def setup_dir(self, root: Path) -> Path:
        """Bootstrap a durable directory and preload it through the
        library (the CLI has no bootstrap command); the server then
        recovers it: manifest load plus WAL replay of the preload."""
        from repro.durability import DurableDynamicRRQ

        directory = root / "durable"
        engine = DurableDynamicRRQ.bootstrap(
            directory, self.products, self.weights, partitions=PARTITIONS,
            fsync="always", backend="segmented")
        try:
            for _ in range(self.preload_cycles):
                for req in self._write_cycle():
                    target = req.payload.get("index")
                    args = [a for a in (target, req.payload.get("vector"))
                            if a is not None]
                    getattr(engine, req.kind)(*args)
        finally:
            engine.close()
        return directory

    def warmup_rounds(self) -> List[Round]:
        a, b = self.read_pool[0], self.read_pool[1]
        rounds = [(self._read(kind, a),) for kind in KINDS]
        rounds += [(self._read(kind, a), self._read(kind, b))
                   for kind in KINDS]
        # Leave one segment and an empty delta behind: the pass starts
        # from a layout the preload's size does not decide.
        return rounds + [self._admin("compact")]

    def next_pass(self) -> List[Round]:
        rounds: List[Round] = []
        for cycle in range(self.cycles):
            a, b, c, d, e = self.read_pool[5 * cycle:5 * cycle + 5]
            rounds += [(req,) for req in self._write_cycle()]
            rounds += [(self._read(kind, a),) for kind in KINDS]
            for left, right in ((b, c), (d, e)):
                rounds += [(self._read(kind, left), self._read(kind, right))
                           for kind in KINDS]
            rounds.append(self._admin(
                "compact" if cycle == self.cycles - 1 else "snapshot"))
        return rounds

    def held_out_read(self) -> Request:
        """The read checked after the SIGKILL-and-restart."""
        return self._read("rkr", self.held_out)

    def intent_failures(self, delta: dict, passes: int) -> List[str]:
        bad = _common_failures(delta)
        storage = delta["storage"]
        # One seal per snapshot/compact request, one merge per compact:
        # more means the background compactor or the auto-seal moved the
        # store generation at a time of its own.
        for key, want in (("seals_total", self.cycles * passes),
                          ("compactions_total", passes)):
            if storage[key] != want:
                bad.append(f"storage.{key} = {storage[key]}, want {want}")
        bad += _coalescing_failures(delta, 4 * self.cycles * passes)
        return bad

    def trace_failures(self, detail: dict) -> List[str]:
        # Every write burst moves the store generation, so the first pair
        # after it rebuilds the snapshot kernel and the next three reuse it.
        builds = detail["builds_per_pass"]
        if "storage.kernel.builds_per_pass" in detail["null_metrics"] or \
                builds == self.cycles:
            return []
        return [f"snapshot kernel builds per pass = {builds}, want "
                f"{self.cycles} (one per write burst)"]


WORKLOADS = {cls.name: cls for cls in (Q1Cold, Burst2Cold, HotKeys, MixedRW)}
