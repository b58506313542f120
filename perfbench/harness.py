"""Process, environment and HTTP plumbing shared by every workload.

The benchmark observes the program from outside: it spawns
``python -m repro ...`` from the checkout's ``src/`` tree and talks HTTP
to ``repro serve`` from its own process.  Everything here exists to make
those observations isolated and repeatable:

* every program invocation gets a fresh ``REPRO_CACHE_DIR`` and
  ``REPRO_RUNS_DIR`` under a scratch directory inside the checkout, so no
  run reuses another run's cache (reuse once made the same 80 sweeps run
  7x faster) and nothing lands in the repo tree or ``~/.cache``;
* the chaos and debug switches (``REPRO_FAULTS``, ``REPRO_FAULTS_SEED``,
  ``REPRO_PASS_DEBUG``) are stripped from the child environment;
* every server is terminated, and waited for, before the run ends.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Root of the checkout (the parent of this package's directory).
ROOT = Path(__file__).resolve().parent.parent

#: The program's source tree, run with ``PYTHONPATH=src``.
SRC = ROOT / "src"

#: Scratch space for caches, manifests and logs; removed after each run.
WORK_ROOT = ROOT / ".perfbench-work"

#: Environment switches that change what the program computes or how
#: fast: a benchmark run must never inherit them.
STRIPPED_ENV = ("REPRO_FAULTS", "REPRO_FAULTS_SEED", "REPRO_PASS_DEBUG",
                "REPRO_CACHE_DIR", "REPRO_RUNS_DIR")

#: Seconds a server may take to answer its first ``/healthz``.
SERVER_START_TIMEOUT_S = 60.0

#: Seconds a terminated server may take to drain before it is killed.
SERVER_STOP_TIMEOUT_S = 10.0


class BenchmarkError(RuntimeError):
    """A failure of the benchmark itself or of a correctness check."""


def check_checkout() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__main__.py").is_file():
        raise BenchmarkError(
            f"no program sources at {SRC / 'repro'}: run the benchmark from "
            "the root of a full checkout")


class Scratch:
    """A per-run scratch directory; hands out fresh isolated dirs."""

    def __init__(self):
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self._count = 0

    def fresh(self, name: str) -> Path:
        self._count += 1
        path = self.path / f"{self._count:03d}-{name}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no concurrent run still uses it


def child_env(state_dir: Path) -> dict[str, str]:
    """The environment of one program invocation, isolated to ``state_dir``."""
    env = {key: value for key, value in os.environ.items()
           if key not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(state_dir / "cache")
    env["REPRO_RUNS_DIR"] = str(state_dir / "runs")
    return env


def run_repro(args: list[str], state_dir: Path, timeout_s: float = 150.0
              ) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``python -m repro <args>`` to completion; (wall seconds, result)."""
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args], cwd=state_dir,
        env=child_env(state_dir), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=timeout_s)
    return time.perf_counter() - started, result


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess on a fresh port and a fresh cache."""

    def __init__(self, state_dir: Path, extra_args: tuple[str, ...] = ()):
        self.state_dir = state_dir
        self.port = free_port()
        self.log = open(state_dir / "server.log", "wb")
        spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port",
             str(self.port), *extra_args],
            cwd=state_dir, env=child_env(state_dir), stdout=self.log,
            stderr=subprocess.STDOUT)
        try:
            self._await_health(spawned)
        except BaseException:
            self.stop()
            raise
        #: Seconds from spawning the process to its first /healthz 200.
        self.setup_s = time.perf_counter() - spawned

    def _await_health(self, spawned: float) -> None:
        deadline = spawned + SERVER_START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise BenchmarkError(
                    f"repro serve exited with {self.process.returncode}; "
                    f"log: {self.state_dir / 'server.log'}")
            try:
                status, _ = http_get_once(self.port, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise BenchmarkError("repro serve did not become healthy in "
                             f"{SERVER_START_TIMEOUT_S:.0f}s")

    def stop(self) -> None:
        """Terminate (graceful drain), wait, kill if the drain hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def http_get_once(port: int, path: str,
                  timeout_s: float = 5.0) -> tuple[int, bytes]:
    """One blocking GET on a fresh connection (health checks, /stats)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout_s) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
                     "Connection: close\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), body


class Connection:
    """One blocking keep-alive HTTP/1.1 client connection.

    Blocking sockets driven from threads, not an event loop: a sleeping
    thread wakes within tens of microseconds of a due time, where an
    event loop's timers round to its millisecond poll resolution.
    """

    def __init__(self, port: int, timeout_s: float = 60.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")

    def request(self, method: str, path: str,
                body: bytes = b"") -> tuple[int, bytes]:
        self.sock.sendall((f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                           f"Content-Length: {len(body)}\r\n\r\n").encode()
                          + body)
        status_line = self.file.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.file.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = self.file.read(length)
        if len(body) != length:
            raise ConnectionError("reply body truncated")
        return status, body

    def close(self) -> None:
        self.file.close()
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ------------------------------------------------------------------ stats
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchmarkError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    for name, q in (("p99", 0.99), ("p90", 0.90)):
        if len(values) * (1 - q) >= 10:
            return name, quantile(values, q)
    return "p50", quantile(values, 0.5)
