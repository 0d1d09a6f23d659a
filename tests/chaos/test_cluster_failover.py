"""Self-healing cluster chaos: SIGKILL a primary, watch it heal itself.

The acceptance proof for the supervision layer, end to end and against
real worker subprocesses:

* 3 shards x (primary + standby); SIGKILL the *write-owning* primary
  mid-write-stream;
* no acknowledged write is lost (the kill happens at replication lag 0,
  so every ack the dead primary issued is on its standby);
* the supervisor promotes the standby and flips the routing table
  **automatically** — no manual ``POST /promote`` anywhere below;
* the killed node is restarted as a standby of the new primary and
  catches up;
* every answer along the way is byte-identical to :class:`NaiveRRQ`
  over exactly the acknowledged prefix;
* ``/cluster/healthz`` converges back to ``degraded_shards: []``;
* convergence takes a bounded, deterministic number of supervisor ticks
  (the supervisor is driven manually — no background thread, no races).

Plus the tail-latency half: a worker made a permanent straggler by
deterministic fault injection (``--chaos-latency-ms``) is masked by
hedged reads, and — with no standby to hedge to — cut off by the
shard's circuit breaker, without changing a byte of any answer.

All tests spawn real ``repro-rrq serve --durable`` subprocesses through
:class:`LocalCluster`; ``@pytest.mark.chaos_serial`` keeps them off any
parallel test runner — they own real ports and process trees.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.cluster.launcher import LocalCluster
from repro.data.datasets import ProductSet, WeightSet
from repro.data.synthetic import uniform_products, uniform_weights
from repro.errors import ReproError
from repro.service.server import canonical_json, encode_result

from .conftest import CHAOS_SEED

pytestmark = [
    pytest.mark.chaos_serial,
    pytest.mark.timeout(300),
]

DIM = 3
N_PRODUCTS = 60
N_WEIGHTS = 90
NUM_SHARDS = 3

#: Supervisor ticks allowed for one failover to land (dead_after=3
#: misses to confirm death + a couple of ticks of slack for a slow
#: standby probe).  Deterministic in the sense that a healthy run
#: converges well inside it; blowing the bound is the failure.
MAX_FAILOVER_TICKS = 20

DETECTOR = {"suspect_after": 2, "dead_after": 3, "probe_timeout_s": 1.0}


@pytest.fixture(scope="module")
def datasets():
    P = uniform_products(N_PRODUCTS, DIM, seed=CHAOS_SEED)
    W = uniform_weights(N_WEIGHTS, DIM, seed=CHAOS_SEED + 1)
    return P, W


def _healthz(url: str, timeout_s: float = 2.0) -> dict:
    with urllib.request.urlopen(url.rstrip("/") + "/healthz",
                                timeout=timeout_s) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _wait_standby_caught_up(standby_url: str, target_lsn: int,
                            timeout_s: float = 30.0) -> dict:
    """Poll the standby until its WAL holds everything acked (lag 0)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        health = _healthz(standby_url)
        if (health.get("replication_lag") == 0
                and int(health.get("last_lsn", -1)) >= target_lsn):
            return health
        time.sleep(0.05)
    raise AssertionError(
        f"standby {standby_url} never caught up to lsn {target_lsn}"
    )


def _assert_exact(cluster, oracle, q, k: int, *, allow_degraded: bool):
    """One RTK + one RKR probe, byte-compared against the naive oracle."""
    client = cluster.client()
    for kind in ("rtk", "rkr"):
        answer = client.query(vector=list(q), kind=kind, k=k)
        if not allow_degraded:
            assert "degraded" not in answer, answer
        answer.pop("degraded", None)
        answer.pop("degraded_shards", None)
        if kind == "rtk":
            expected = encode_result(oracle.reverse_topk(q, k), "rtk")
        else:
            expected = encode_result(oracle.reverse_kranks(q, k), "rkr")
        assert canonical_json(answer) == canonical_json(expected)


def test_sigkill_primary_self_heals_without_losing_acked_writes(
        datasets, tmp_path):
    """The tentpole proof: kill the write owner, the cluster heals itself."""
    P, W = datasets
    rng = np.random.default_rng(CHAOS_SEED)
    with LocalCluster(P, W, num_workers=NUM_SHARDS, replicas=1,
                      supervise=True, supervisor_autostart=False,
                      detector_kwargs=dict(DETECTOR),
                      base_dir=tmp_path) as cluster:
        client = cluster.client()
        supervisor = cluster.supervisor
        write_shard = cluster.coordinator.topology.insert_owner(W.size)
        acked = []  # vectors in ack order; global ids are W.size, +1, ...

        def insert_one(retry_deadline_s=0.0):
            vec = rng.dirichlet(np.ones(DIM)).tolist()
            deadline = time.monotonic() + retry_deadline_s
            while True:
                try:
                    receipt = client.insert_weight(vec)
                    break
                except (ReproError, OSError):
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.2)
            assert receipt["index"] == W.size + len(acked)
            acked.append(vec)
            return receipt

        # --- phase 1: a healthy write stream -------------------------
        for _ in range(5):
            receipt = insert_one()
        assert receipt["shard"] == write_shard

        # Let the standby reach lag 0: from here, every ack the primary
        # issued is durable on its standby, so the SIGKILL below cannot
        # lose an acknowledged write by construction.
        standby_url = cluster.standbys[write_shard][0].url
        _wait_standby_caught_up(standby_url, int(receipt["lsn"]))

        # --- phase 2: SIGKILL the write-owning primary mid-stream ----
        cluster.kill_worker(write_shard)
        with pytest.raises((ReproError, OSError)):
            client.insert_weight(rng.dirichlet(np.ones(DIM)).tolist())

        # --- phase 3: the supervisor heals it (bounded ticks) --------
        for _ in range(MAX_FAILOVER_TICKS):
            supervisor.tick()
            if supervisor.promotions >= 1:
                break
        status = supervisor.status()
        assert status["promotions"] == 1, status
        assert supervisor.ticks <= MAX_FAILOVER_TICKS
        # The routing table flipped to the promoted standby on its own.
        spec = cluster.coordinator.topology.shard(write_shard)
        assert spec.primary == standby_url
        assert cluster.coordinator.failovers >= 1

        # --- phase 4: the write stream resumes against the new primary
        for _ in range(5):
            insert_one(retry_deadline_s=30.0)

        # --- no acked write lost, byte-identical to the naive oracle -
        oracle = NaiveRRQ(
            ProductSet(P.values, value_range=P.value_range),
            WeightSet(np.vstack([W.values, np.array(acked)])),
        )
        for qi in (3, 17, 42):
            _assert_exact(cluster, oracle, P.values[qi], 10,
                          allow_degraded=False)

        # --- the corpse came back as a standby and caught up ---------
        assert status["restarts"] == 1, status
        assert len(spec.endpoints) == 2  # new primary + restarted standby
        restarted_url = spec.replicas[0]
        final = _wait_standby_caught_up(
            restarted_url, int(_healthz(spec.primary)["last_lsn"]))
        assert final["role"] == "standby"

        # --- /cluster/healthz converges back to no degraded shards ---
        deadline = time.monotonic() + 30.0
        while True:
            health = cluster.service.cluster_healthz()
            if health["degraded_shards"] == []:
                break
            assert time.monotonic() < deadline, health
            time.sleep(0.2)
        assert health["status"] == "ok"
        assert health["supervision"]["promotions"] == 1


def test_failover_preserves_reads_of_nonwrite_shards(datasets, tmp_path):
    """Killing a non-owning primary never blocks the write stream, and
    reads stay exact throughout (standby rotation covers the gap even
    before the supervisor confirms death)."""
    P, W = datasets
    oracle = NaiveRRQ(P, W)
    with LocalCluster(P, W, num_workers=NUM_SHARDS, replicas=1,
                      supervise=True, supervisor_autostart=False,
                      detector_kwargs=dict(DETECTOR),
                      base_dir=tmp_path) as cluster:
        victim = 0  # range partitioner routes inserts to the last shard
        assert cluster.coordinator.topology.insert_owner(W.size) != victim
        cluster.kill_worker(victim)

        # Reads before failover: the per-shard client rotates to the
        # standby on connection-reset (the S3 retry path), so answers
        # stay exact and undegraded even with the primary dead.
        _assert_exact(cluster, oracle, P.values[7], 10, allow_degraded=True)

        supervisor = cluster.supervisor
        for _ in range(MAX_FAILOVER_TICKS):
            supervisor.tick()
            if supervisor.promotions >= 1:
                break
        assert supervisor.status()["promotions"] == 1
        _assert_exact(cluster, oracle, P.values[7], 10,
                      allow_degraded=False)


def test_hedged_reads_mask_permanent_straggler(datasets, tmp_path):
    """A 200ms-straggler primary (deterministic fault injection in the
    worker process) is hedged against its standby: tail latency drops by
    an order of magnitude and not a single answer byte changes."""
    P, W = datasets
    oracle = NaiveRRQ(P, W)
    straggle_s = 0.2
    with LocalCluster(P, W, num_workers=NUM_SHARDS, replicas=1,
                      hedge=True, base_dir=tmp_path,
                      worker_extra_args={0: ("--chaos-latency-ms",
                                             str(int(straggle_s * 1000)))},
                      ) as cluster:
        client = cluster.client()
        latencies = []
        for qi in range(12):
            q = P.values[qi]
            t0 = time.monotonic()
            answer = client.query(vector=list(q), kind="rtk", k=10)
            latencies.append(time.monotonic() - t0)
            assert "degraded" not in answer, answer
            expected = encode_result(oracle.reverse_topk(q, 10), "rtk")
            assert canonical_json(answer) == canonical_json(expected)
        stats = cluster.coordinator.stats()
        assert stats["hedge"]["probes"] > 0
        assert stats["hedge"]["wins"] > 0
        # Unhedged, every query would pay the full straggler latency;
        # hedged, the median must land well under it.  A losing attempt
        # that held a pool slot queued later primaries behind it and the
        # median read 129 ms; on a thread of its own it reads 22 ms.
        assert sorted(latencies)[len(latencies) // 2] < straggle_s * 0.3


def test_hedged_attempts_left_behind_a_hung_primary_stay_bounded(
        datasets, tmp_path):
    """A primary that answers only after 1.5 s loses every hedge to its
    standby, and each losing attempt runs on until it answers.  Over 50
    queries (about 20 ms each unhedged by the fault) the attempts still
    running never number more than the coordinator's
    ``max(4, 2 * shards)`` slots: past them a primary is called inline
    and nothing is hedged, and every answer stays exact."""
    P, W = datasets
    oracle = NaiveRRQ(P, W)
    with LocalCluster(P, W, num_workers=NUM_SHARDS, replicas=1,
                      hedge=True, base_dir=tmp_path,
                      worker_extra_args={0: ("--chaos-latency-ms", "1500")},
                      ) as cluster:
        client = cluster.client()
        q = P.values[0]
        client.query(vector=list(q), kind="rtk", k=10)
        time.sleep(1.6)
        idle = threading.active_count()
        peak = idle
        for qi in range(50):
            q = P.values[qi % len(P.values)]
            answer = client.query(vector=list(q), kind="rtk", k=10)
            peak = max(peak, threading.active_count())
            assert "degraded" not in answer, answer
            expected = encode_result(oracle.reverse_topk(q, 10), "rtk")
            assert canonical_json(answer) == canonical_json(expected)
        assert cluster.coordinator.stats()["hedge"]["wins"] > 0
        # One thread per attempt still running, and no more of those
        # than the slots (plus two for the in-process service's own
        # connection threads); unbounded, the attempts read +50 here.
        assert peak - idle <= max(4, 2 * NUM_SHARDS) + 2, (idle, peak)


def test_breaker_cuts_a_straggler_off_after_three_timeouts(
        datasets, tmp_path):
    """A shard slower than ``shard_timeout_s`` costs a full timeout per
    query until its breaker opens after 3 failures; from then on the
    coordinator answers its slice from the exact fallback without
    waiting.  The breaker's number: the next queries cost well under
    half a timeout, and every answer stays byte-identical."""
    P, W = datasets
    oracle = NaiveRRQ(P, W)
    shard_timeout_s = 0.25
    with LocalCluster(P, W, num_workers=NUM_SHARDS,
                      shard_timeout_s=shard_timeout_s, base_dir=tmp_path,
                      worker_extra_args={0: ("--chaos-latency-ms", "1500")},
                      ) as cluster:
        client = cluster.client()
        latencies = []
        for qi in range(10):
            q = P.values[qi]
            t0 = time.monotonic()
            answer = client.query(vector=list(q), kind="rkr", k=10)
            latencies.append(time.monotonic() - t0)
            assert answer.pop("degraded") is True
            assert answer.pop("degraded_shards") == [0]
            expected = encode_result(oracle.reverse_kranks(q, 10), "rkr")
            assert canonical_json(answer) == canonical_json(expected)
        assert all(s >= shard_timeout_s for s in latencies[:3]), latencies
        assert cluster.coordinator.stats()["breakers"]["0"] == "open"
        after = sorted(latencies[3:])
        assert after[len(after) // 2] < shard_timeout_s / 2, latencies


def test_fallback_survives_routed_mutations_and_stays_exact(
        datasets, tmp_path):
    """S1: the coordinator fallback replays routed mutations, so a shard
    killed *after* writes is still answered degraded-but-exact."""
    P, W = datasets
    rng = np.random.default_rng(CHAOS_SEED + 7)
    with LocalCluster(P, W, num_workers=NUM_SHARDS,
                      base_dir=tmp_path) as cluster:
        client = cluster.client()
        new_product = (rng.random(DIM) * P.value_range * 0.9).tolist()
        new_weights = [rng.dirichlet(np.ones(DIM)).tolist()
                       for _ in range(3)]
        p_receipt = client.insert_product(new_product)
        for vec in new_weights:
            w_receipt = client.insert_weight(vec)
        assert w_receipt["index"] == W.size + len(new_weights) - 1

        # Kill a primary AFTER the mutations routed; pre-PR the fallback
        # was withdrawn on the first mutation and this slice went dark.
        cluster.kill_worker(1)
        oracle = NaiveRRQ(
            ProductSet(np.vstack([P.values, [new_product]]),
                       value_range=P.value_range),
            WeightSet(np.vstack([W.values, np.array(new_weights)])),
        )
        client = cluster.client()
        q = np.asarray(new_product, dtype=float)
        answer = client.query(vector=list(q), kind="rtk", k=10)
        assert answer.get("degraded") is True
        assert answer.get("degraded_shards") == [1]
        answer.pop("degraded"), answer.pop("degraded_shards")
        expected = encode_result(oracle.reverse_topk(q, 10), "rtk")
        assert canonical_json(answer) == canonical_json(expected)
        assert p_receipt["index"] == P.size


def test_coordinator_load_shedding_returns_structured_503(
        datasets, tmp_path):
    """The in-flight bound rejects excess fan-outs with a 503 that
    carries ``Retry-After`` — checked over real HTTP."""
    P, W = datasets
    with LocalCluster(P, W, num_workers=NUM_SHARDS, max_inflight=1,
                      base_dir=tmp_path,
                      worker_extra_args={s: ("--chaos-latency-ms", "400")
                                         for s in range(NUM_SHARDS)},
                      ) as cluster:
        import threading

        # retries=0: a shed 503 must surface, not be retried into an ok.
        client = cluster.client(retries=0)
        q = list(P.values[0])
        outcomes = []

        def fire_query():
            try:
                outcomes.append(("ok", client.query(vector=q, k=5)))
            except ReproError as exc:
                outcomes.append(("rejected", exc))

        threads = [threading.Thread(target=fire_query) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        kinds = [kind for kind, _ in outcomes]
        assert "ok" in kinds, outcomes
        assert "rejected" in kinds, outcomes
        rejected = next(exc for kind, exc in outcomes if kind == "rejected")
        assert getattr(rejected, "retry_after_s", None) is not None
        shed = cluster.coordinator.stats()["shedding"]["shed_queries"]
        assert shed >= 1
