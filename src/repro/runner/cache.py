"""Content-addressed, disk-backed trace/profile cache.

Several figures evaluate the same operating points, and a
``functools.lru_cache`` memo died with the process.  This cache survives
it.  Entries are pickled ``(Trace, Profile)`` pairs — frozen views,
serialized in their compact columnar form (``KernelTable`` arrays plus a
times array; see ``Trace.__getstate__``/``Profile.__getstate__``) rather
than as per-kernel object graphs, so entries are small and loads stay
lazy — stored under a key that is a SHA-256 over

* the :class:`~repro.config.BertConfig` fields,
* the :class:`~repro.config.TrainingConfig` fields,
* the device fingerprint (every parameter of the
  :class:`~repro.hw.device.DeviceModel`), and
* the code version (a digest of the source files that determine traces
  and profiles),

so a change to any of them simply misses instead of serving stale data.

Every operating point resolved by
:func:`~repro.experiments.common.run_point` or priced by the grid engine
(:mod:`repro.grid.engine`) is counted, process-wide, in
:data:`POINT_RESOLUTIONS` and :data:`POINT_KERNELS`.  The executor reads
each experiment's share from the registry delta it takes around the
experiment.

Concurrency invariant (relied on by the profiling server's worker pool
as well as ``repro run --jobs N``): writes are atomic — each
``put_payload`` pickles into a private temp file in the destination
directory and publishes it with ``os.replace``, which POSIX guarantees
atomic within a filesystem — so readers of the same key observe either
the old complete entry, the new complete entry, or a miss; never a torn
file.  Two racing writers of one key both write valid entries and the
last ``replace`` wins, which is harmless because entries are
content-addressed: every writer of a key serializes the *same* value.
The per-instance :class:`CacheStats` counters are guarded by a lock so
concurrent threads cannot lose increments.

Integrity: every entry is framed as ``RBC1 + CRC32(body) + body`` so a
corrupt or truncated entry — torn by a crash, bit-rotted on disk, or
injected by the ``cache.corrupt`` fault site — is *detected* on ``get``
before the pickle ever reaches the unpickler.  A bad entry is moved to
``<root>/corrupt/`` (quarantined for post-mortem rather than deleted),
counted (``stats.corrupt`` and the ``result=corrupt`` label of
``result_cache.requests``), and reported as a miss, so the caller
recomputes and rewrites a clean entry instead of crashing the run.
An entry without the frame is corrupt like any other.

The cache directory defaults to ``~/.cache/repro-bert`` and can be moved
with the ``REPRO_CACHE_DIR`` environment variable or
:func:`configure_cache`; ``repro cache clear`` (or deleting the
directory) empties it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import struct
import tempfile
import threading
import zlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

from repro.config import BertConfig, TrainingConfig
from repro.faults import sites as fault_sites
from repro.obs import metrics, spans

if TYPE_CHECKING:  # annotations only: a cache hit loads no engine code
    from repro.hw.device import DeviceModel
    from repro.profiler.profiler import Profile
    from repro.trace.builder import Trace

#: Registry view of the cache counters CacheStats also tracks, labeled
#: ``result=hit|miss|eviction`` so ``repro stats`` can derive hit rates.
_CACHE_REQUESTS = metrics.counter(
    "result_cache.requests", "disk-cache reads by result")
_CACHE_WRITES = metrics.counter(
    "result_cache.writes", "disk-cache entries written")

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Entry framing: magic + big-endian CRC32 of the pickled body.
ENTRY_MAGIC = b"RBC1"
_HEADER = struct.Struct(">4sI")

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIR = "corrupt"

#: Packages whose source determines a (trace, profile) result.  A change to
#: any file under them rotates the cache key, so stale entries from an older
#: code version can never be served.
_CODE_FINGERPRINT_PARTS = ("config.py", "ops", "tensor", "trace", "hw",
                           "profiler", "fusion", "memoryplan", "distributed",
                           "nmc", "grid")


def default_cache_dir() -> Path:
    """The active cache directory (``REPRO_CACHE_DIR`` or the user cache)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-bert"


def _jsonable(value):
    """Recursively convert configs/devices into JSON-stable structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _digest(payload) -> str:
    text = json.dumps(_jsonable(payload), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


_code_fingerprint_cache: str | None = None
_full_fingerprint_cache: str | None = None


def _hash_sources(parts: tuple[str, ...]) -> str:
    package_root = Path(__file__).resolve().parent.parent
    sha = hashlib.sha256()
    for part in parts:
        path = package_root / part
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for source in files:
            sha.update(str(source.relative_to(package_root)).encode())
            sha.update(source.read_bytes())
    return sha.hexdigest()


def code_fingerprint() -> str:
    """Digest of the source files that determine traces and profiles."""
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        _code_fingerprint_cache = _hash_sources(_CODE_FINGERPRINT_PARTS)
    return _code_fingerprint_cache


def full_code_fingerprint() -> str:
    """Digest of the entire ``repro`` package source.

    Experiment *results* depend on every layer (trace, device, fusion,
    distributed models, the experiment modules themselves), so their
    cache entries key on the whole package: touch any source file and
    every cached result misses.
    """
    global _full_fingerprint_cache
    if _full_fingerprint_cache is None:
        _full_fingerprint_cache = _hash_sources((".",))
    return _full_fingerprint_cache


def device_fingerprint(device: DeviceModel) -> str:
    """Digest of every performance parameter of ``device``."""
    return _digest(device)


@dataclass
class CacheStats:
    """Counters for one cache instance.

    Attributes:
        hits: entries served from disk.
        misses: keys that had to be recomputed.
        evictions: corrupted/unreadable entries that left the cache.
        corrupt: entries that failed the CRC/pickle check and were
            quarantined (a subset of ``evictions``).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "corrupt": self.corrupt}


#: Resolved operating points, ``result=hit|miss``.
POINT_RESOLUTIONS = metrics.counter(
    "run_point.resolutions", "operating-point resolutions by cache result")
#: Kernels in the profiles of those resolved points.
POINT_KERNELS = metrics.counter(
    "run_point.kernels", "kernels in resolved profiles")


@dataclass
class ResultCache:
    """Disk-backed cache of ``(Trace, Profile)`` pairs.

    Attributes:
        root: directory holding the entries (created lazily).
        stats: hit/miss counters for this instance.
    """

    root: Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)
    #: Guards ``stats``: entry I/O itself needs no lock (atomic rename —
    #: see the module docstring), but ``int +=`` is not atomic across
    #: threads and the server's worker pool shares one instance.
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def key(self, model: BertConfig, training: TrainingConfig,
            device: DeviceModel, *, pipeline: str = "") -> str:
        """Content address of one operating point on one device.

        ``pipeline`` is the :attr:`PassManager.signature` of the trace
        rewrites applied after generation (empty = raw trace), so fused /
        checkpointed / windowed variants of the same point get distinct
        entries.  Omitting it keeps raw-point keys identical to before
        the pass pipeline existed.
        """
        payload = {
            "model": model,
            "training": training,
            "device": device_fingerprint(device),
            "code": code_fingerprint(),
        }
        if pipeline:
            payload["pipeline"] = pipeline
        return _digest(payload)

    def grid_key(self, points, device: DeviceModel, *,
                 pipeline: str = "") -> str:
        """Content address of a whole profiling grid on one device.

        ``points`` iterates ``(model, training)`` pairs; their *order* is
        part of the signature because the cached summary rows come back
        positionally.  One entry per grid keeps a 1000-point sweep at one
        disk read instead of one per point.
        """
        payload = {
            "grid": [{"model": model, "training": training}
                     for model, training in points],
            "device": device_fingerprint(device),
            "code": code_fingerprint(),
        }
        if pipeline:
            payload["pipeline"] = pipeline
        return _digest(payload)

    def experiment_key(self, experiment_id: str, description: str) -> str:
        """Content address of one registered experiment's result."""
        return _digest({
            "experiment": experiment_id,
            "description": description,
            "code": full_code_fingerprint(),
        })

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry to ``<root>/corrupt/`` for post-mortem.

        The ``.corrupt`` suffix keeps quarantined files out of
        :meth:`entries`; quarantine failing (another reader won the
        race, read-only filesystem) degrades to a plain unlink.
        """
        target = self.root / QUARANTINE_DIR / f"{path.stem}.corrupt"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def _record_corrupt(self, path: Path) -> None:
        with self._lock:
            self.stats.corrupt += 1
            self.stats.evictions += 1
            self.stats.misses += 1
        _CACHE_REQUESTS.inc(result="miss")
        _CACHE_REQUESTS.inc(result="eviction")
        _CACHE_REQUESTS.inc(result="corrupt")
        spans.annotate(result="corrupt")
        self._quarantine(path)

    def get_payload(self, key: str):
        """Load any pickled entry; ``None`` on miss/corruption.

        An entry whose CRC32 frame does not verify — or whose pickle is
        unreadable — is quarantined and reported as a miss: corruption
        costs a recompute, never a crash.
        """
        path = self._path(key)
        with spans.span("cache.get", key=key[:12]):
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                with self._lock:
                    self.stats.misses += 1
                _CACHE_REQUESTS.inc(result="miss")
                spans.annotate(result="miss")
                return None
            except OSError:
                self._record_corrupt(path)
                return None
            data = fault_sites.corrupt_bytes("cache.corrupt", data)
            body = data[_HEADER.size:]
            if (len(data) < _HEADER.size
                    or _HEADER.unpack_from(data) != (
                        ENTRY_MAGIC, zlib.crc32(body))):
                self._record_corrupt(path)
                return None
            try:
                payload = pickle.loads(body)
            except Exception:
                # A frame-valid pickle failing to load means an
                # incompatible version, not rot; quarantine either way.
                self._record_corrupt(path)
                return None
            with self._lock:
                self.stats.hits += 1
            _CACHE_REQUESTS.inc(result="hit")
            spans.annotate(result="hit")
            return payload

    def put_payload(self, key: str, payload) -> None:
        """Store any picklable entry atomically (concurrency-safe)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(dir=path.parent,
                                            suffix=".tmp")
        with spans.span("cache.put", key=key[:12]):
            try:
                body = pickle.dumps(payload,
                                    protocol=pickle.HIGHEST_PROTOCOL)
                with os.fdopen(handle, "wb") as tmp:
                    tmp.write(_HEADER.pack(ENTRY_MAGIC, zlib.crc32(body)))
                    tmp.write(body)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            _CACHE_WRITES.inc()
            if spans.get_tracer().enabled:  # stat only when traced
                spans.annotate(bytes=path.stat().st_size)

    def get(self, key: str) -> tuple[Trace, Profile] | None:
        """Load a ``(Trace, Profile)`` entry; ``None`` on miss/corruption."""
        payload = self.get_payload(key)
        if payload is None:
            return None
        trace, profile = payload
        return trace, profile

    def put(self, key: str, trace: Trace, profile: Profile) -> None:
        """Store a ``(Trace, Profile)`` entry atomically."""
        self.put_payload(key, (trace, profile))

    # ------------------------------------------------------------ management
    def entries(self) -> list[Path]:
        """All entry files currently on disk."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.pkl"))

    def size_bytes(self) -> int:
        """Total bytes of all entries."""
        return sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


# The process-wide cache used by ``repro.experiments.common.run_point``.
_active: ResultCache | None = None


def get_cache() -> ResultCache:
    """The process-wide cache instance (created on first use)."""
    global _active
    if _active is None:
        _active = ResultCache()
    return _active


def configure_cache(root: Path | str) -> ResultCache:
    """Point the process-wide cache at ``root`` (used by tests/tools)."""
    global _active
    _active = ResultCache(root=Path(root))
    return _active


def reset_cache() -> None:
    """Forget the process-wide instance (it re-reads the environment)."""
    global _active
    _active = None
