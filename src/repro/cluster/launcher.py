"""Stand up a whole local cluster: N worker processes + the coordinator.

:class:`LocalCluster` is the dev/test harness behind the
``repro-rrq cluster`` subcommand and the cluster integration suite.  It

1. slices the global weight set into contiguous ranges and seeds one durability directory per worker via
   :meth:`~repro.durability.engine.DurableDynamicRRQ.bootstrap`
   (products fully replicated, weights partitioned);
2. spawns each worker as a **real subprocess** running
   ``repro-rrq serve --durable`` on an ephemeral port — the same entry
   point production workers use, no in-process shortcuts — and parses
   the serve banner for its URL;
3. optionally boots ``replicas`` standbys per shard: each gets its own
   durability directory seeded with the *same* slice (identical LSN
   lineage, so tailing starts incremental, not with a full-state
   reset) and runs ``--standby-of <primary>`` to tail the primary's
   WAL feed;
4. builds the :class:`~repro.cluster.topology.ClusterTopology` from the
   live worker URLs (primary first per shard) and serves the
   coordinator's HTTP front door over it on a daemon thread;
5. with ``supervise=True``, attaches a
   :class:`~repro.cluster.supervision.ClusterSupervisor` whose restart
   hook respawns a dead worker *as a standby* from its own data
   directory — the full self-healing loop.

Workers can be SIGKILLed individually (:meth:`LocalCluster.kill_worker`,
:meth:`kill_standby`) to exercise the degraded-shard and failover
paths; :meth:`close` tears the whole cluster down, supervisor first,
workers next, coordinator last.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..data.datasets import WeightSet
from ..errors import InvalidParameterError, ServiceUnavailableError
from ..service.client import ServiceClient
from .coordinator import ClusterCoordinator
from .router_server import (
    ClusterService,
    make_cluster_server,
)
from .supervision import ClusterSupervisor, FailureDetector
from .topology import ClusterTopology, partition_weight_indices

#: How long a worker may take to print its serve banner / become healthy.
WORKER_START_TIMEOUT_S = 30.0


class WorkerProcess:
    """One ``repro-rrq serve --durable`` subprocess with a parsed URL."""

    def __init__(self, directory, *extra_args,
                 start_timeout_s: float = WORKER_START_TIMEOUT_S):
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_root if not existing
                             else src_root + os.pathsep + existing)
        env.setdefault("PYTHONUNBUFFERED", "1")
        self.directory = Path(directory)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(directory),
             "--durable",
             "--port", "0", "--batch-window-ms", "0",
             *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        self.url = self._parse_banner(start_timeout_s)

    def _parse_banner(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise ServiceUnavailableError(
                    f"worker for {self.directory} exited before serving "
                    f"(rc={self.proc.poll()})"
                )
            if line.startswith("serving durable") and " at http" in line:
                return line.rsplit(" at ", 1)[1].strip()
        raise ServiceUnavailableError(
            f"worker for {self.directory} printed no serve banner within "
            f"{timeout_s}s"
        )

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill9(self) -> None:
        """SIGKILL — no goodbye, no flush; the chaos path."""
        if self.alive:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=10)

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class LocalCluster:
    """N durable workers + a coordinator front door, all on localhost.

    Parameters
    ----------
    products, weights:
        The full data sets.  Products are replicated to every worker;
        weights are partitioned.  They are also handed to the
        coordinator so a SIGKILLed worker's slice can be answered
        exactly by the local fallback.
    num_workers:
        Worker process count (one shard each).
    replicas:
        Hot standbys per shard.  Each tails its primary's WAL feed from
        its own durability directory; the coordinator routes queries to
        the primary first and rotates to standbys on transport errors.
    base_dir:
        Parent for the per-worker durability directories (a fresh
        temporary directory when omitted; remembered but never deleted —
        callers pass ``tmp_path`` in tests).
    fsync:
        Worker WAL fsync policy.  ``"never"`` by default: the launcher
        targets dev/test clusters, where startup speed beats crash
        durability; production workers are started individually.
    supervise:
        Attach a :class:`ClusterSupervisor` that fails dead primaries
        over to their freshest standby and restarts the corpse as a new
        standby from its own directory.
    supervisor_autostart:
        Run the supervisor's background thread (default).  Chaos tests
        pass ``False`` and drive :meth:`ClusterSupervisor.tick`
        manually for deterministic, bounded failover.
    detector_kwargs:
        Overrides for the supervisor's :class:`FailureDetector`
        (``probe_timeout_s``, ``suspect_after``, ``dead_after``).
    hedge:
        Enable coordinator hedged reads against the standbys.
    worker_extra_args:
        Per-shard extra CLI args for that shard's *primary* worker
        (e.g. ``{0: ["--chaos-latency-ms", "200"]}`` to make shard 0 a
        deterministic straggler for hedging benchmarks).
    """

    def __init__(self, products, weights, num_workers: int = 3,
                 base_dir=None, fsync: str = "never",
                 host: str = "127.0.0.1", coordinator_port: int = 0,
                 shard_timeout_s: float = 5.0,
                 start_timeout_s: float = WORKER_START_TIMEOUT_S,
                 replicas: int = 0,
                 supervise: bool = False,
                 supervisor_autostart: bool = True,
                 detector_kwargs: Optional[dict] = None,
                 hedge: bool = False,
                 max_inflight: Optional[int] = None,
                 worker_extra_args: Optional[Dict[int, Sequence[str]]] = None):
        if replicas < 0:
            raise InvalidParameterError("replicas must be >= 0")
        if supervise and replicas < 1:
            raise InvalidParameterError(
                "supervise=True needs replicas >= 1: failover promotes a "
                "standby, and a shard without one has nothing to promote"
            )
        self.base_dir = Path(base_dir) if base_dir is not None else \
            Path(tempfile.mkdtemp(prefix="rrq-cluster-"))
        self.base_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._start_timeout_s = start_timeout_s
        self.workers: List[WorkerProcess] = []
        self.standbys: List[List[WorkerProcess]] = []
        #: Every process ever spawned (including restarted ones), for
        #: teardown; entries are never removed.
        self._procs: List[WorkerProcess] = []
        self._server = None
        self._thread = None
        self.service: Optional[ClusterService] = None
        self.supervisor: Optional[ClusterSupervisor] = None
        worker_extra_args = worker_extra_args or {}
        try:
            owned = partition_weight_indices(weights.size, num_workers)
            for shard_id in range(num_workers):
                slice_weights = WeightSet(weights.values[owned[shard_id]])
                primary = self._spawn(
                    self.base_dir / f"shard{shard_id}",
                    products, slice_weights,
                    extra_args=tuple(worker_extra_args.get(shard_id, ())),
                )
                self.workers.append(primary)
                shard_standbys = []
                for j in range(replicas):
                    # Seeded with the same slice: identical LSN lineage,
                    # so tailing starts incremental (no full-state reset).
                    shard_standbys.append(self._spawn(
                        self.base_dir / f"shard{shard_id}-r{j}",
                        products, slice_weights,
                        extra_args=("--standby-of", primary.url),
                    ))
                self.standbys.append(shard_standbys)
            for proc in self._procs:
                ServiceClient(proc.url, retries=0).wait_until_healthy(
                    timeout_s=start_timeout_s)
            self.topology = ClusterTopology.build(
                [[self.workers[shard_id].url]
                 + [s.url for s in self.standbys[shard_id]]
                 for shard_id in range(num_workers)],
                weights.size,
            )
            self.coordinator = ClusterCoordinator(
                self.topology,
                products=products,
                weights=weights,
                shard_timeout_s=shard_timeout_s,
                hedge=hedge,
                **({"max_inflight": max_inflight}
                   if max_inflight is not None else {}),
            )
            if supervise:
                detector = FailureDetector(self.coordinator,
                                           **(detector_kwargs or {}))
                self.supervisor = ClusterSupervisor(
                    self.coordinator,
                    restart_worker=self._restart_worker,
                    detector=detector,
                )
                if supervisor_autostart:
                    self.supervisor.start()
            self.service = ClusterService(self.coordinator,
                                          supervisor=self.supervisor)
            self._server = make_cluster_server(self.service, host=host,
                                               port=coordinator_port)
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="rrq-cluster-router", daemon=True)
            self._thread.start()
        except BaseException:
            self.close()
            raise

    def _spawn(self, worker_dir: Path, products, slice_weights,
               extra_args: Sequence[str] = ()) -> WorkerProcess:
        """Bootstrap (once) and spawn one worker over ``worker_dir``."""
        from ..durability import DurableDynamicRRQ

        worker_dir = Path(worker_dir)
        if not (worker_dir / "engine.json").exists():
            seed = DurableDynamicRRQ.bootstrap(
                worker_dir, products, slice_weights, fsync=self.fsync)
            seed.close()
        proc = WorkerProcess(worker_dir, "--fsync", self.fsync, *extra_args,
                             start_timeout_s=self._start_timeout_s)
        self._procs.append(proc)
        return proc

    def _restart_worker(self, shard_id: int, dead_url: str,
                        primary_url: str) -> Optional[str]:
        """Supervisor restart hook: respawn the corpse as a standby.

        The dead worker's durability directory already holds its WAL and
        snapshots, so the respawned process recovers locally first and
        then catches up on the tail through the new primary's feed.
        """
        directory = None
        for proc in self._procs:
            if proc.url == dead_url:
                directory = proc.directory
                break
        if directory is None:
            return None
        proc = WorkerProcess(directory, "--fsync", self.fsync,
                             "--standby-of", primary_url,
                             start_timeout_s=self._start_timeout_s)
        self._procs.append(proc)
        self.standbys[shard_id].append(proc)
        ServiceClient(proc.url, retries=0).wait_until_healthy(
            timeout_s=self._start_timeout_s)
        return proc.url

    @property
    def url(self) -> str:
        """The coordinator front door's base URL."""
        return self._server.url

    def client(self, **kwargs) -> ServiceClient:
        """A client pointed at the coordinator."""
        return ServiceClient(self.url, **kwargs)

    def kill_worker(self, shard_id: int) -> None:
        """SIGKILL one primary; subsequent answers flag the shard degraded
        (or, under supervision, trigger automatic failover)."""
        self.workers[shard_id].kill9()

    def kill_standby(self, shard_id: int, index: int = 0) -> None:
        """SIGKILL one standby (chaos path for replica loss)."""
        self.standbys[shard_id][index].kill9()

    def close(self) -> None:
        """Tear down: supervisor first, workers next, front door last."""
        if self.supervisor is not None:
            try:
                self.supervisor.stop()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
            self.supervisor = None
        for proc in self._procs:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            if self._thread is not None:
                self._thread.join(timeout=5.0)
            self._server = None
            self._thread = None
        if self.service is not None:
            self.service.close()
            self.service = None
        elif getattr(self, "coordinator", None) is not None:
            self.coordinator.close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
