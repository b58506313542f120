"""Seeded request generators: open-loop reads and closed-loop sweeps.

An *open loop* sends each request at its due time whatever the server is
doing (independent users); its latency is timed from the due time, so a
stall charges every request queued behind it.  A *closed loop* sends the
next request only after the previous reply (one caller waiting on each
result).  Both are driven from the benchmark's own process, never from
the server's event loop.
"""

from __future__ import annotations

import json
import queue
import random
import threading
import time
from dataclasses import dataclass, field

from harness import Connection

#: Models addressable by ``POST /grid``.
GRID_MODELS = ("bert-tiny", "bert-base", "bert-large", "c1", "c2", "c3")

#: Share of reads that fetch the (large) Perfetto export.
PERFETTO_SHARE = 0.05

#: After every fourth fresh sweep spec, one repeats an earlier spec.
REPEAT_EVERY = 4

#: (batch sizes, sequence lengths, precisions) per spec in one block of
#: fresh sweeps: 4 to 800 points, 156 on average.
BLOCK_SHAPES = ((2, 2, 1), (3, 4, 1), (5, 5, 1), (2, 20, 1), (4, 8, 2),
                (8, 8, 1), (20, 2, 2), (10, 10, 1), (6, 12, 2), (15, 10, 1),
                (12, 16, 2), (20, 20, 2))


@dataclass
class Outcome:
    """One request's timings (perf_counter seconds) and reply."""

    path: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error

    @property
    def latency_ms(self) -> float:
        """From due time to the last byte of the reply."""
        return (self.done - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        """From send to the last byte of the reply (no queueing)."""
        return (self.done - self.sent) * 1e3


def read_paths(points: list[str], rng: random.Random, count: int,
               perfetto_share: float) -> list[str]:
    """``count`` seeded GET paths: /perfetto with ``perfetto_share``."""
    paths = []
    for _ in range(count):
        route = "perfetto" if rng.random() < perfetto_share else "profile"
        paths.append(f"/{route}/{rng.choice(points)}")
    return paths


def poisson_offsets(rng: random.Random, rate: float,
                    seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate``/s over ``seconds``."""
    offsets, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return offsets
        offsets.append(t)


@dataclass
class OpenLoopResult:
    outcomes: list[Outcome]
    late_ms: list[float] = field(default_factory=list)
    drained: bool = True

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)


def open_loop(connections: list[Connection], offsets: list[float],
              paths: list[str], start: float,
              drain_limit_s: float) -> OpenLoopResult:
    """Send ``paths[i]`` at ``start + offsets[i]`` over ``connections``.

    The calling thread dispatches; one thread per connection sends.  A
    request due while every connection is busy waits in a FIFO and its
    wait counts in its latency.  Generator lateness is how far the
    dispatcher itself woke after a due time.  The backlog *drained* if
    every request finished within ``drain_limit_s`` of the last due time.
    """
    pending: queue.SimpleQueue = queue.SimpleQueue()
    outcomes = [Outcome(path, start + offset)
                for offset, path in zip(offsets, paths)]
    late_ms: list[float] = []

    def worker(connection: Connection) -> None:
        while True:
            outcome = pending.get()
            if outcome is None:
                return
            send(connection, outcome, "GET")

    threads = [threading.Thread(target=worker, args=(connection,))
               for connection in connections]
    for thread in threads:
        thread.start()
    try:
        for outcome in outcomes:
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late_ms.append(max(0.0, time.perf_counter() - outcome.due) * 1e3)
            pending.put(outcome)
    finally:
        for _ in threads:
            pending.put(None)
        for thread in threads:
            thread.join()
    last_due = outcomes[-1].due if outcomes else start
    drained = all(o.done - last_due <= drain_limit_s for o in outcomes)
    return OpenLoopResult(outcomes, late_ms, drained)


def send(connection: Connection, outcome: Outcome, method: str,
         body: bytes = b"") -> None:
    """Send one request and record its timings, status and reply."""
    outcome.sent = time.perf_counter()
    try:
        outcome.status, outcome.body = connection.request(
            method, outcome.path, body)
    except (OSError, ValueError) as error:
        outcome.error = f"{type(error).__name__}: {error}"
    outcome.done = time.perf_counter()


def grid_specs(rng: random.Random, count: int) -> list[dict]:
    """``count`` seeded ``POST /grid`` specs; every fifth repeats one.

    Fresh specs come in blocks of :data:`BLOCK_SHAPES`, each shape once
    in a seeded order and each model twice, so every run sees the same
    mix of sweep sizes (4-800 points) and models; the seed picks the
    swept values, the order and which earlier spec a repeat replays.
    """
    specs: list[dict] = []
    fresh = 0
    while len(specs) < count:
        shapes = rng.sample(BLOCK_SHAPES, len(BLOCK_SHAPES))
        models = rng.sample(GRID_MODELS * 2, len(BLOCK_SHAPES))
        for (batches, lengths, precisions), model in zip(shapes, models):
            specs.append({
                "model": model,
                "batch_sizes": sorted(rng.sample(range(1, 65), batches)),
                "seq_lens": sorted(rng.sample(range(16, 513, 16), lengths)),
                "precisions": rng.sample(["fp32", "mixed"], precisions)})
            fresh += 1
            if fresh % REPEAT_EVERY == 0:
                specs.append(rng.choice(specs))
    return specs[:count]


def spec_points(spec: dict) -> int:
    return (len(spec["batch_sizes"]) * len(spec["seq_lens"])
            * len(spec["precisions"]))


def spec_body(spec: dict) -> bytes:
    return json.dumps(spec, sort_keys=True).encode()


def closed_loop_sweeps(connection: Connection, specs: list[dict],
                       deadline: float) -> list[Outcome]:
    """POST ``specs`` one after another until ``deadline`` (perf_counter)."""
    outcomes = []
    for spec in specs:
        if time.perf_counter() >= deadline:
            break
        outcome = Outcome("/grid", time.perf_counter())
        send(connection, outcome, "POST", spec_body(spec))
        outcomes.append(outcome)
    return outcomes
