"""On-disk result store: one JSON record per completed work unit.

The store is what makes interrupted sweeps resumable: every completed
:class:`~repro.exec.units.WorkUnit` is written as ``<unit-key>.json`` under
the store directory, where the key is a content hash of the unit's
fingerprint (experiment label, payload, seed spec, chunk bounds, backend).
A re-run with the same parameters recomputes the same keys, finds the
records of completed units and skips their execution entirely — existing
record files are only ever *read*, never rewritten, so their mtimes are
untouched.

Hardening (what a store tolerates without poisoning a resume):

* Writes are atomic **and durable**: temp file + fsync + ``os.replace`` +
  directory fsync, so neither a kill mid-write nor a power loss right
  after a "completed" unit leaves a half-record behind.
* Batched writes **group-commit**: :meth:`ResultStore.put_many` writes and
  fsyncs every record file, replaces them into place, then issues *one*
  directory fsync for the whole group — the same durability point as N
  individual ``put`` calls at 1/N the directory fsyncs.  A crash mid-batch
  can lose the tail of the group (records not yet replaced, or replaced but
  not yet directory-synced across a power loss); a resume simply re-executes
  the missing units, exactly as it would after N interrupted ``put`` calls.
* An unparseable or schema-invalid record file is **quarantined** — renamed
  to ``<key>.corrupt-<ns>`` so it never shadows the key again and stays on
  disk for forensics — and reported as a miss, so the unit simply
  re-executes.
* A structurally valid record whose stored *fingerprint* does not match the
  fingerprint the caller expects (a foreign or stale store, a truncated-key
  collision) is reported as a miss too, so it is re-executed rather than
  silently merged.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.obs.metrics import Counter


class StoreStats:
    """Counters a :class:`ResultStore` accumulates, for execution reports.

    The attributes read and assign as plain ``int``s (the executor does
    ``stats.hits -= 1`` when it reclassifies a hit) but are backed by
    :class:`repro.obs.Counter` instruments, so an executor can adopt them
    into its :class:`~repro.obs.MetricsRegistry`.  See
    ``docs/OBSERVABILITY.md``.
    """

    def __init__(self) -> None:
        self._hits = Counter(
            "repro_store_hits_total", help="Work units satisfied from stored records."
        )
        self._misses = Counter(
            "repro_store_misses_total", help="Store lookups that required execution."
        )
        self._quarantined = Counter(
            "repro_store_quarantined_total", help="Corrupt record files moved aside."
        )
        self._fingerprint_mismatches = Counter(
            "repro_store_fingerprint_mismatches_total",
            help="Stored records rejected because their fingerprint did not match.",
        )

    def counters(self) -> tuple[Counter, ...]:
        """The backing instruments, for adoption into a registry."""
        return (self._hits, self._misses, self._quarantined, self._fingerprint_mismatches)

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits.set(value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @misses.setter
    def misses(self, value: int) -> None:
        self._misses.set(value)

    @property
    def quarantined(self) -> int:
        return int(self._quarantined.value)

    @quarantined.setter
    def quarantined(self, value: int) -> None:
        self._quarantined.set(value)

    @property
    def fingerprint_mismatches(self) -> int:
        return int(self._fingerprint_mismatches.value)

    @fingerprint_mismatches.setter
    def fingerprint_mismatches(self, value: int) -> None:
        self._fingerprint_mismatches.set(value)


class ResultStore:
    """Directory of completed work-unit records, keyed by content hash."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()
        # Lazily-created pool for overlapping slow-device fsyncs in
        # ``put_many``; never spawned while the store sits on fast storage.
        self._fsync_pool: Optional[ThreadPoolExecutor] = None
        self._fsync_pool_lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        """Path of the record file for ``key``."""
        return self.directory / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def get(
        self, key: str, fingerprint: Optional[dict[str, Any]] = None
    ) -> Optional[dict[str, Any]]:
        """The stored record for ``key``, or ``None`` if absent or unusable.

        A file that exists but cannot be parsed, or parses to something
        other than a record document, is *quarantined* (renamed to
        ``<key>.corrupt-<ns>``) and treated as missing — a truncated file
        from a pre-atomic-write kill must never kill a ``--resume``.  When
        ``fingerprint`` is given, the stored document's fingerprint must
        match it exactly; a mismatch (foreign or stale store) is a miss, so
        the unit re-executes, but the file is left in place — it is a valid
        record, just not *this* unit's.
        """
        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            with path.open("r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.quarantine(key)
            self.stats.misses += 1
            return None
        if (
            not isinstance(document, dict)
            or not isinstance(document.get("record"), dict)
            or not isinstance(document.get("fingerprint"), dict)
        ):
            self.quarantine(key)
            self.stats.misses += 1
            return None
        if fingerprint is not None and not _fingerprints_match(
            document["fingerprint"], fingerprint
        ):
            self.stats.fingerprint_mismatches += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return document["record"]

    def quarantine(self, key: str) -> Optional[Path]:
        """Move ``key``'s record file aside as ``<key>.corrupt-<ns>``.

        The rename keeps the evidence on disk without letting the file ever
        satisfy a lookup again (only ``*.json`` files are records).  Returns
        the quarantine path, or ``None`` if the file vanished underneath us.
        """
        path = self.path_for(key)
        target = path.with_name(f"{key}.corrupt-{time.time_ns()}")
        try:
            os.replace(path, target)
        except OSError:
            return None
        self.stats.quarantined += 1
        return target

    def quarantined_files(self) -> list[Path]:
        """All quarantined record files in the store directory."""
        return sorted(self.directory.glob("*.corrupt-*"))

    def put(self, key: str, record: dict[str, Any], fingerprint: Optional[dict] = None) -> Path:
        """Atomically and durably write ``record`` (plus fingerprint) under ``key``.

        A group commit of one record (:meth:`put_many`).
        """
        return self.put_many([(key, record, fingerprint)])[0]

    def put_many(
        self, items: Sequence[tuple[str, dict[str, Any], Optional[dict]]]
    ) -> list[Path]:
        """Write a batch of ``(key, record, fingerprint)`` items with one group commit.

        Every record file is individually written, fsynced and atomically
        replaced into place, but the directory fsync that makes the *names*
        durable is issued once for the whole batch.  The durability point is
        therefore identical to N sequential ``put`` calls at 1/N the
        directory fsyncs.

        The batch is committed in phases: every temp file is written, then
        all of them are fsynced, and only then are they replaced into place
        *in submission order*.  The fsync phase is adaptive: the first file
        is flushed inline to probe the device, and only when that probe is
        slow (a journaled or rotational disk) are the remaining flushes
        overlapped on a small persistent thread pool — ``fsync`` releases
        the GIL, so the per-file waits stack in parallel.  On fast storage
        (tmpfs, NVMe) the flushes stay serial: dispatching to a pool would
        cost more than the fsyncs themselves.  A crash mid-batch can therefore only lose a
        suffix of the group (records not yet replaced, or replaced but not
        yet directory-synced across a power loss): every name that is
        visible was replaced after its bytes were flushed.  A resume
        re-executes exactly the missing units, the same outcome as being
        killed between two individual ``put`` calls.
        """
        if not items:
            return []
        staged: list[tuple[Path, Path, Any]] = []
        paths: list[Path] = []
        try:
            for key, record, fingerprint in items:
                path = self.path_for(key)
                document = {"fingerprint": fingerprint or {}, "record": record}
                text = json.dumps(document, default=_jsonable_fallback)
                tmp = path.with_name(path.name + ".tmp")
                handle = tmp.open("w", encoding="utf-8")
                staged.append((path, tmp, handle))
                handle.write(text)
                handle.write("\n")
                handle.flush()
            self._flush_handles([handle for _, _, handle in staged])
            for path, tmp, handle in staged:
                handle.close()
                os.replace(tmp, path)
                paths.append(path)
        finally:
            for _, _, handle in staged:
                if not handle.closed:
                    handle.close()
        _fsync_directory(self.directory)
        return paths

    #: An inline fsync slower than this (seconds) marks the backing device
    #: as slow enough that overlapping the remaining flushes pays off.
    _FSYNC_SLOW = 0.002

    def _flush_handles(self, handles: Sequence[Any]) -> None:
        """fsync every open handle, overlapping them only on slow devices.

        The first handle is always flushed inline and timed; when that probe
        comes back fast the rest are flushed serially too (pool dispatch
        would dominate), and when it is slow the remainder fans out on a
        persistent thread pool so the per-file device waits overlap.
        """
        if not handles:
            return
        start = time.perf_counter()
        os.fsync(handles[0].fileno())
        probe = time.perf_counter() - start
        rest = handles[1:]
        if len(rest) >= 3 and probe >= self._FSYNC_SLOW:
            list(self._pool().map(lambda handle: os.fsync(handle.fileno()), rest))
        else:
            for handle in rest:
                os.fsync(handle.fileno())

    def _pool(self) -> ThreadPoolExecutor:
        with self._fsync_pool_lock:
            if self._fsync_pool is None:
                self._fsync_pool = ThreadPoolExecutor(
                    max_workers=8, thread_name_prefix="store-fsync"
                )
            return self._fsync_pool

    def keys(self) -> list[str]:
        """Keys of all stored records."""
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())


def _fingerprints_match(stored: dict[str, Any], expected: dict[str, Any]) -> bool:
    """Compare fingerprints canonically (the stored one is JSON-round-tripped)."""
    try:
        canonical_expected = json.dumps(expected, sort_keys=True, default=_jsonable_fallback)
        canonical_stored = json.dumps(stored, sort_keys=True)
    except (TypeError, ValueError):
        return False
    return canonical_stored == canonical_expected


def _jsonable_fallback(value: Any) -> Any:
    from repro.util.serialization import to_jsonable

    return to_jsonable(value)


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry (best effort; not all filesystems allow it)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
