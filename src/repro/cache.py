"""Content-addressed compile cache (survey substrate S17).

Campaigns, matrices and benchmarks compile the *same* program for the
*same* machine over and over — ``run_matrix`` once per cell,
fault-campaign workers once per shard, benchmark harnesses once per
repetition.  Compilation is pure: its output is fully determined by
the source text, the language, the machine description and the compile
options.  That makes it content-addressable, the same observation
ccache applies to C and the REC restoration applies to whole legacy
toolchains — key the result by what went *in* and never compile the
same thing twice.

Keys are SHA-256 digests over ``(source text, language,
machine fingerprint, canonicalised options)``.  The machine
fingerprint digests the *description* — register file, op table,
control-word format, unit timings — not the object identity, so two
independently built instances of the same machine (e.g. in different
worker processes) share cache entries, while a variant built with
different knobs (``macro_visible=...``) or derived with
``machine.derive(...)`` does not.  Machines are immutable once
built, so the fingerprint is computed once and never goes stale.

Two tiers:

* an in-memory LRU (:class:`CompileCache`), bounded by ``capacity``;
* an optional on-disk tier (``disk_dir=...``) holding pickled results,
  shared across processes and sessions.

Observability: every probe emits a ``cache.hit`` / ``cache.miss``
instant event on the supplied tracer and counts into
:attr:`CompileCache.stats`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.obs.tracer import NULL_TRACER

#: Bump when the cached result layout changes incompatibly, so stale
#: on-disk entries from older checkouts can never be unpickled into a
#: newer toolkit.  2: ``CompileResult`` moved to ``repro.pipeline``
#: and grew ``diagnostics``/``dumps``.
CACHE_FORMAT = 2


# ----------------------------------------------------------------------
# Machine fingerprinting
# ----------------------------------------------------------------------
def machine_fingerprint(machine) -> str:
    """Stable digest of a machine *description* (not identity).

    Machines are frozen at construction and digest themselves once
    (:attr:`~repro.machine.machine.MicroArchitecture.fingerprint`), so
    this is an attribute read, not a re-hash.
    """
    return machine.fingerprint


def canonical_value(value) -> str:
    """Render one value insertion-order-independently.

    ``repr()`` of a dict (or of a list holding one) bakes insertion
    order into the cache key, so two equal option dicts built in
    different orders silently keyed different entries.  Canonicalize
    recursively: mappings sort by key at every level, sequences keep
    their order but canonicalize elements, sets sort.

    Public because every content identity in the toolkit wants the
    same property: compile keys here, and the serve layer's in-flight
    ``dedup_key`` / ``batch_group_key`` over request payloads.
    """
    if isinstance(value, dict):
        items = ",".join(
            f"{k!r}:{canonical_value(v)}" for k, v in sorted(value.items())
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        rendered = ",".join(canonical_value(v) for v in value)
        return ("[" if isinstance(value, list) else "(") + rendered + \
            ("]" if isinstance(value, list) else ")")
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonical_value(v) for v in value)) + "}"
    return repr(value)


#: Backwards-compatible private alias (pre-S24 internal name).
_canonical_value = canonical_value


def _canonical_options(options: dict | None) -> str:
    if not options:
        return ""
    return ";".join(
        f"{k}={_canonical_value(options[k])}" for k in sorted(options)
    )


def compile_key(
    source: str, lang: str, machine, options: dict | None = None
) -> str:
    """The content address of one compilation."""
    blob = "\x1f".join(
        (
            f"v{CACHE_FORMAT}",
            lang,
            machine_fingerprint(machine),
            _canonical_options(options),
            source,
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
def write_atomic(path: Path, result) -> None:
    """Crash-safe disk write: serialize, temp file, ``os.replace``.

    Shared by the compile cache and the trace JIT's disk tier
    (:mod:`repro.sim.trace`).  A ``.pkl`` either exists complete or
    not at all — a worker SIGKILLed mid-write (the serve pool's
    normal chaos diet) can never leave a truncated entry for
    ``cache.corrupt`` to clean up later.  Three guarantees stacked:

    * pickling happens fully in memory first, so a serialization
      failure touches no file at all;
    * the temp file is uniquely named (``mkstemp``), so two
      concurrent writers of one key never interleave into the
      same buffer — last ``os.replace`` wins whole;
    * the payload is flushed and fsynced before the rename, so a
      crash between write and replace leaves only a stray temp
      file (swept by the next writer), never a partial target.

    The sweep can race a *live* concurrent writer of the same key
    and unlink its temp mid-write; because the cache is
    content-addressed, both writers carry equivalent payloads, so
    the loser just yields (its ``os.replace`` finds no source and
    the winner's complete entry lands instead).
    """
    blob = pickle.dumps(result)
    for stale in path.parent.glob(f".{path.stem[:16]}*.tmp"):
        try:
            stale.unlink()
        except OSError:
            pass  # another writer swept it first
    descriptor, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.stem[:16]}",
        suffix=".tmp",
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.replace(tmp_name, path)
        except FileNotFoundError:
            return  # swept by a concurrent writer of the same key
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Probe counters for one :class:`CompileCache`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    #: On-disk entries that failed to unpickle and were evicted.
    corrupt: int = 0

    def probes(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        probes = self.probes()
        return self.hits / probes if probes else 0.0

    def to_json(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "hit_rate": round(self.hit_rate(), 4),
        }


@dataclass
class CompileCache:
    """Bounded LRU of compile results with an optional disk tier.

    Use through the front ends' ``cache=`` parameter::

        cache = CompileCache()
        result = compile_yalll(source, machine, cache=cache)   # miss
        result = compile_yalll(source, machine, cache=cache)   # hit

    or directly via :meth:`get_or_compile` for custom build steps.
    Hits return the *same* result object — callers must treat compile
    results as immutable (they already do: the simulator copies what
    it mutates).
    """

    capacity: int = 256
    disk_dir: str | Path | None = None
    tracer: object = NULL_TRACER
    stats: CacheStats = field(default_factory=CacheStats)
    _memory: OrderedDict = field(default_factory=OrderedDict, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    def key(
        self, source: str, lang: str, machine, options: dict | None = None
    ) -> str:
        return compile_key(source, lang, machine, options)

    def _disk_path(self, key: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{key}.pkl"

    def get(self, key: str, tracer=None):
        """Memory tier, then disk tier; None on a full miss.

        A corrupt or stale on-disk entry (truncated pickle, an older
        ``CACHE_FORMAT``'s object layout, …) is a miss — and the bad
        file is *unlinked* so every later probe of the same key does
        not re-read and re-fail on it.  Evictions of this kind count
        into :attr:`CacheStats.corrupt` and emit a ``cache.corrupt``
        instant event.
        """
        tracer = self.tracer if tracer is None else tracer
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            return entry
        path = self._disk_path(key)
        if path is not None and path.exists():
            try:
                with path.open("rb") as handle:
                    entry = pickle.load(handle)
            except Exception as error:
                self.stats.corrupt += 1
                try:
                    path.unlink()
                except OSError:
                    pass  # a concurrent reader may have evicted it first
                if tracer.enabled:
                    tracer.instant(
                        "cache.corrupt", cat="cache",
                        key=key[:12], error=type(error).__name__,
                    )
                return None
            self.stats.disk_hits += 1
            self._remember(key, entry)
            return entry
        return None

    def put(self, key: str, result) -> None:
        self._remember(key, result)
        path = self._disk_path(key)
        if path is not None:
            self._write_atomic(path, result)

    #: Back-compat alias — the crash-atomic writer now lives at module
    #: level so the trace JIT's disk tier can share it.
    _write_atomic = staticmethod(write_atomic)

    def _remember(self, key: str, result) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the memory tier (the disk tier is left intact)."""
        self._memory.clear()

    # ------------------------------------------------------------------
    def get_or_compile(
        self,
        source: str,
        lang: str,
        machine,
        options: dict | None,
        build: Callable[[], object],
        tracer=None,
    ):
        """The front-end entry point: probe, else ``build()`` and store."""
        tracer = self.tracer if tracer is None else tracer
        key = self.key(source, lang, machine, options)
        result = self.get(key, tracer=tracer)
        if result is not None:
            self.stats.hits += 1
            if tracer.enabled:
                tracer.instant(
                    "cache.hit", cat="cache",
                    lang=lang, machine=machine.name, key=key[:12],
                )
            return result
        self.stats.misses += 1
        if tracer.enabled:
            tracer.instant(
                "cache.miss", cat="cache",
                lang=lang, machine=machine.name, key=key[:12],
            )
        result = build()
        self.put(key, result)
        return result
