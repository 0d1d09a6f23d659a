"""Process hygiene for the end-to-end benchmark.

Everything that touches the operating system lives here: the work
directory under ``benchmarks/e2e/.work/``, the ``repro.cli`` children
(spawned on ``--port 0``, URL parsed from the banner, killed with the
parent), ``/proc`` readings, and the environment block every report
carries.  Nothing here knows what a workload is.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC_DIR = REPO_ROOT / "src"
WORK_ROOT = HERE / ".work"

_BANNER_URL = re.compile(r"at (http://[0-9.]+:\d+)")
_PR_SET_PDEATHSIG = 1
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_START_TIMEOUT_S = 60.0
_EXIT_TIMEOUT_S = 10.0

#: Children still running; whatever exit path is taken, none outlives us.
_LIVE: List["Server"] = []


class HarnessError(RuntimeError):
    """The benchmark could not set up or talk to a child process."""


def require_source() -> None:
    """Refuse to run without the program's sources beside the benchmark.

    The benchmark measures the checkout it sits in and never an installed
    copy, so a directory holding only the benchmark must fail here.
    """
    if not (SRC_DIR / "repro" / "cli.py").is_file():
        sys.stderr.write(f"error: {SRC_DIR}/repro not found; the benchmark "
                         "runs from a full checkout of the repository\n")
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def child_env() -> Dict[str, str]:
    """Environment of every child: this checkout's sources, fixed hash
    seed, unbuffered stdout (the static banner is not flushed).  BLAS
    thread counts are left at their defaults and recorded instead."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    return env


def environment_report() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name, "default")
                         for name in ("OMP_NUM_THREADS",
                                      "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "kernel": platform.release(),
    }


def install_signal_handlers() -> None:
    """Turn SIGTERM/SIGINT into SystemExit so ``finally`` blocks run."""
    def _exit(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)
    signal.signal(signal.SIGINT, _exit)


class WorkDir:
    """A scratch directory under ``.work/`` that never survives the run."""

    def __init__(self, label: str):
        self.path = WORK_ROOT / f"{os.getpid()}-{label}"

    def __enter__(self) -> Path:
        # A run that was SIGKILLed could not clean up after itself.
        for stale in WORK_ROOT.glob("*-*"):
            pid = stale.name.split("-")[0]
            if stale == self.path or \
                    pid.isdigit() and not Path(f"/proc/{pid}").exists():
                shutil.rmtree(stale, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, exc_type, *_exc) -> None:
        stop_all_servers()
        if exc_type is not None and issubclass(exc_type, Exception):
            # The run ends without a result; what the children said is the
            # evidence, and the directory is about to go.
            for log in sorted(self.path.glob("*.log")):
                tail = log.read_text(encoding="utf-8", errors="replace")
                sys.stderr.write(f"--- {log.name} (last 2000 characters)\n"
                                 f"{tail[-2000:]}\n")
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _die_with_parent():
    """``preexec_fn`` asking the kernel to SIGKILL the child when we die."""
    libc = ctypes.CDLL(None, use_errno=True)

    def preexec():
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)

    return preexec


def http_json(url: str, timeout_s: float = 30.0) -> dict:
    """One out-of-band GET of a JSON endpoint."""
    with urllib.request.urlopen(url, timeout=timeout_s) as resp:
        return json.loads(resp.read())


class Server:
    """One ``python -m repro.cli serve`` child on an ephemeral port."""

    def __init__(self, serve_args: Sequence[str], log_path: Path):
        # Append mode: the child shares this descriptor's offset, and a
        # parent that rewound it to read the banner would make the child's
        # next line overwrite the first.  The parent reads by path instead.
        self._log_path = log_path
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *serve_args,
             "--port", "0"],
            env=child_env(), stdout=self._log, stderr=subprocess.STDOUT,
            preexec_fn=_die_with_parent(),
        )
        _LIVE.append(self)
        self.pid = self.proc.pid
        self.url = self._await_healthy(time.monotonic() + _START_TIMEOUT_S)

    def _log_text(self) -> str:
        return self._log_path.read_text(encoding="utf-8", errors="replace")

    def _await_healthy(self, deadline: float) -> str:
        url = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise HarnessError(f"server exited {self.proc.returncode} "
                                   f"before serving: {self._log_text()}")
            if url is None:
                found = _BANNER_URL.search(self._log_text())
                url = found.group(1) if found else None
            if url is not None:
                try:
                    http_json(url + "/healthz", timeout_s=2.0)
                    return url
                except (urllib.error.URLError, OSError):
                    pass
            time.sleep(0.005)
        self.stop()
        raise HarnessError("server did not become healthy in time")

    def metrics(self) -> dict:
        return http_json(self.url + "/metrics")

    def proc_stats(self) -> dict:
        """CPU seconds, thread count and peak RSS from ``/proc/<pid>``."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        status = Path(f"/proc/{self.pid}/status").read_text()

        def field(name: str) -> float:
            return float(re.search(rf"^{name}:\s+(\d+)", status, re.M).group(1))

        return {
            "cpu_s": (int(fields[11]) + int(fields[12])) / _CLK_TCK,
            "threads": field("Threads"),
            "rss_peak_mb": field("VmHWM") / 1024.0,
        }

    def _reap(self, sig: int) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=_EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        if self in _LIVE:
            _LIVE.remove(self)

    def stop(self) -> None:
        """SIGTERM, then SIGKILL if it lingers; returns once it is gone."""
        self._reap(signal.SIGTERM)

    def kill9(self) -> None:
        """SIGKILL without warning (the durability check's crash)."""
        self._reap(signal.SIGKILL)


def stop_all_servers() -> None:
    for server in list(_LIVE):
        server.stop()


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
