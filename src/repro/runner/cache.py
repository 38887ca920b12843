"""Content-addressed on-disk result cache for sweep jobs.

Every independent simulation config (frozen :class:`SystemParameters`
plus workload/pattern seeds and scheme) is reduced to a canonical JSON
*cache key*; the SHA-256 of that key addresses a pickle file under the
cache root (``.repro-cache/`` by default, overridable with the
``REPRO_CACHE_DIR`` environment variable).  A key always embeds the
*code fingerprint* — the installed package version plus a digest of
every ``repro`` source file — so any code change, however small,
invalidates the whole cache rather than ever replaying stale results.

Invalidation rules (any of these forces a re-simulation):

* any :class:`~repro.config.SystemParameters` field changes (how a
  sweep executes — worker count, cache use, supervision — is not a
  field, so it never partitions the cache);
* the workload description changes (scheme, degrees, seeds, pattern
  kind, fault-plan parameters, scenario fields, ...);
* any file under ``src/repro`` changes (source digest), or the package
  version is bumped.

Entries are written atomically (temp file + :func:`os.replace`) by the
*parent* process only, so concurrent sweep workers never race on the
cache; corrupt or unreadable entries are treated as misses and removed.

Integrity and bounds (the self-healing contract):

* every entry embeds a SHA-256 checksum of its pickled payload,
  verified on every load — a bit-flipped or truncated entry is purged
  and re-simulated, **never** returned as a wrong result;
* an optional byte quota (``quota_bytes`` or ``REPRO_CACHE_QUOTA``)
  evicts least-recently-used entries after each store (loads refresh
  recency), so a long-lived server's cache cannot grow without bound;
* write failures that are about the *disk*, not the caller (``ENOSPC``,
  read-only filesystems, quota errors) degrade the cache to
  pass-through — counted in ``write_errors`` — instead of failing the
  sweep or the serving request;
* :meth:`ResultCache.fsck` scrubs every entry offline (``repro cache
  fsck``), purging anything unreadable and reporting quota pressure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import tempfile
import threading
from typing import Any, Optional

from repro.config import ConfigError

#: Bumped whenever the on-disk entry layout changes; part of every key.
#: Schema 2 added the per-entry checksum header line.
CACHE_SCHEMA = 2

#: Sentinel distinguishing "miss" from a cached ``None`` result.
_MISS = object()

#: Quota-enforced stores between full directory rescans — bounds how
#: long the tracked byte total can under-count entries written by
#: other processes sharing the cache root.
_QUOTA_RESCAN_INTERVAL = 64

_fingerprint_memo: Optional[dict] = None


def _source_digest() -> str:
    """SHA-256 over every ``repro`` source file (path + contents)."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    blob = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            blob.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                blob.update(fh.read())
    return blob.hexdigest()


def code_fingerprint() -> dict:
    """The code identity embedded in every cache key (memoized).

    ``{"package", "version", "source_digest", "cache_schema"}`` — the
    source digest covers every ``.py`` file in the installed ``repro``
    package, so *any* code edit invalidates all cached results.
    """
    global _fingerprint_memo
    if _fingerprint_memo is None:
        import repro

        _fingerprint_memo = {
            "package": "repro",
            "version": repro.__version__,
            "source_digest": _source_digest(),
            "cache_schema": CACHE_SCHEMA,
        }
    return _fingerprint_memo


def params_key(params) -> dict:
    """A :class:`SystemParameters` as cache-key material: every field,
    in field order."""
    return {f.name: getattr(params, f.name)
            for f in dataclasses.fields(params)}


def key_digest(key: dict) -> str:
    """Canonical SHA-256 of a JSON-able cache key (plus fingerprint)."""
    material = {"fingerprint": code_fingerprint(), "key": key}
    text = json.dumps(material, sort_keys=True, separators=(",", ":"),
                      default=_json_default)
    return hashlib.sha256(text.encode()).hexdigest()


def _json_default(value):
    """Allow numpy scalars and similar in keys without importing numpy."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cache keys must be JSON-able, got "
                    f"{type(value).__name__}: {value!r}")


class ResultCache:
    """Digest-addressed pickle store under a single root directory.

    Layout: ``<root>/objects/<digest[:2]>/<digest>.pkl`` — each entry a
    hex SHA-256 checksum line followed by a pickle of
    ``{"cache_schema", "key", "result"}``; the checksum covers the
    pickle bytes and is verified on every load, so silent on-disk
    corruption can never surface as a wrong result.  Results round-trip
    through :mod:`pickle`, so replays are *bit-identical* to the fresh
    run (numpy scalar types and all).  The instance counts ``hits``,
    ``misses``, ``stores``, ``corrupt`` (purged-entry), ``evictions``
    (quota), and ``write_errors`` (disk-full pass-through) events for
    reporting; every purge is additionally appended to
    ``<root>/corrupt.log`` so ``repro cache info`` can report lifetime
    corruption, not just this process's.

    ``quota_bytes`` (default from ``REPRO_CACHE_QUOTA``; ``0`` =
    unbounded) bounds the total entry bytes: after each store the
    least-recently-used entries are evicted until the total fits.
    Loads refresh an entry's recency (mtime), so a serving hot set
    survives eviction pressure.  A negative quota, or a
    ``REPRO_CACHE_QUOTA`` that is not a byte count, raises
    :class:`~repro.config.ConfigError`.
    """

    def __init__(self, root: Optional[str] = None,
                 quota_bytes: Optional[int] = None) -> None:
        self.root = os.path.abspath(
            root or os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))
        if quota_bytes is None:
            env = os.environ.get("REPRO_CACHE_QUOTA") or "0"
            if not env.isdecimal():
                raise ConfigError(f"REPRO_CACHE_QUOTA={env!r} must be a "
                                  f"byte count >= 0 (0 = unbounded)")
            quota_bytes = int(env)
        if quota_bytes < 0:
            raise ConfigError("quota_bytes must be >= 0 (0 = unbounded)")
        self.quota_bytes = quota_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.evictions = 0
        self.write_errors = 0
        # Running entry-byte total for O(1) quota checks on the store
        # hot path; None = unknown (forces a directory rescan).
        self._total_bytes: Optional[int] = None
        self._stores_since_scan = 0
        # Serializes store()'s write sequence with clear() in this
        # process; re-entrant so code running inside a store may clear.
        self._write_lock = threading.RLock()

    # -- addressing ----------------------------------------------------
    def digest(self, key: dict) -> str:
        return key_digest(key)

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, "objects", digest[:2],
                            f"{digest}.pkl")

    # -- read / write --------------------------------------------------
    @staticmethod
    def _decode(raw: bytes) -> dict:
        """Checksum-verify and unpickle one entry's file bytes.

        Raises :class:`ValueError` on a malformed header or a checksum
        mismatch (both mean on-disk corruption) and lets pickle errors
        propagate for truncated payloads.
        """
        head, sep, blob = raw.partition(b"\n")
        if not sep or len(head) != 64:
            raise ValueError("malformed cache entry header")
        if hashlib.sha256(blob).hexdigest().encode("ascii") != head:
            raise ValueError("cache entry checksum mismatch")
        return pickle.loads(blob)

    def load(self, digest: str, key: Optional[dict] = None) -> Any:
        """The cached result for ``digest``, or :data:`MISS`.

        The entry's SHA-256 checksum is verified before unpickling.
        When ``key`` is given, the stored key must match it exactly
        (guards against digest-construction bugs); mismatches and
        corrupt entries are dropped and reported as misses — a
        corrupted entry re-simulates, it never replays wrong.
        """
        path = self._path(digest)
        try:
            with open(path, "rb") as fh:
                entry = self._decode(fh.read())
            if entry.get("cache_schema") != CACHE_SCHEMA:
                raise ValueError("cache schema mismatch")
            if key is not None and entry.get("key") != _roundtrip(key):
                raise ValueError("cache key mismatch")
        except FileNotFoundError:
            self.misses += 1
            return _MISS
        except Exception as exc:
            # Corrupt, truncated, or foreign entry: purge and miss —
            # but never silently (``corrupt`` counter + on-disk log).
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses += 1
            self.corrupt += 1
            self._log_corrupt(digest, exc)
            return _MISS
        self.hits += 1
        try:
            os.utime(path)        # refresh recency for LRU eviction
        except OSError:
            pass
        return entry["result"]

    def _corrupt_log_path(self) -> str:
        return os.path.join(self.root, "corrupt.log")

    def _log_corrupt(self, digest: str, exc: Exception) -> None:
        """Best-effort append to the lifetime corruption tally."""
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(self._corrupt_log_path(), "a",
                      encoding="utf-8") as fh:
                fh.write(f"{digest} {type(exc).__name__}: {exc}\n")
        except OSError:
            pass

    def corrupt_purged(self) -> int:
        """Lifetime count of purged corrupt entries (from the log)."""
        try:
            with open(self._corrupt_log_path(), "rb") as fh:
                return sum(1 for line in fh if line.strip())
        except OSError:
            return 0

    def store(self, digest: str, key: dict, result: Any) -> bool:
        """Atomically persist ``result`` under ``digest``.

        Returns ``True`` when the entry landed on disk.  Two distinct
        failure families are handled differently:

        * A :meth:`clear` racing this store from another process can
          remove ``objects/<xx>/`` between the ``makedirs`` and the
          ``os.replace`` — the directory vanishing mid-write is an
          expected lifecycle event, not a corrupted cache, so the
          makedirs+write+replace sequence retries once before letting
          the error escape.  A clear from another thread of this
          process waits for the write sequence instead (a clearing
          thread in a tight loop could win the race twice in a row).
        * Disk-environment failures (``ENOSPC``, read-only filesystem,
          quota exceeded, ...) are not the caller's problem to recover:
          the cache degrades to pass-through — the write is dropped,
          ``write_errors`` counts it, and the sweep or serving request
          proceeds with its in-memory result.
        """
        path = self._path(digest)
        blob = pickle.dumps(
            {"cache_schema": CACHE_SCHEMA, "key": _roundtrip(key),
             "result": result}, protocol=pickle.HIGHEST_PROTOCOL)
        payload = (hashlib.sha256(blob).hexdigest().encode("ascii")
                   + b"\n" + blob)
        try:
            with self._write_lock:
                for retry in (False, True):
                    try:
                        os.makedirs(os.path.dirname(path), exist_ok=True)
                        fd, tmp = tempfile.mkstemp(
                            dir=os.path.dirname(path), suffix=".tmp")
                        try:
                            with os.fdopen(fd, "wb") as fh:
                                fh.write(payload)
                            os.replace(tmp, path)
                        except BaseException:
                            try:
                                os.remove(tmp)
                            except OSError:
                                pass
                            raise
                    except (FileNotFoundError, NotADirectoryError):
                        if retry:
                            raise
                        continue
                    break
        except (FileNotFoundError, NotADirectoryError):
            raise
        except OSError:
            # ENOSPC and kin: serving/sweeping beats persisting.
            self.write_errors += 1
            return False
        self.stores += 1
        if self.quota_bytes:
            if self._total_bytes is not None:
                # Over-counts when an existing entry is overwritten;
                # drift upward only ever triggers a correcting rescan.
                self._total_bytes += len(payload)
            self._stores_since_scan += 1
            self._enforce_quota()
        return True

    def _scan_entries(self) -> list[tuple[float, int, str]]:
        """Stat every entry, resyncing the tracked byte total."""
        stats: list[tuple[float, int, str]] = []
        total = 0
        for path in self._entries():
            try:
                st = os.stat(path)
            except OSError:
                continue
            stats.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        self._total_bytes = total
        self._stores_since_scan = 0
        return stats

    def _enforce_quota(self) -> None:
        """Evict least-recently-used entries until the total fits.

        Recency is file mtime (loads refresh it); the entry just
        stored is newest, so it survives unless the quota is smaller
        than the entry itself — then the cache degrades to
        pass-through, which is the correct bound-respecting behavior.

        The tracked in-process byte total makes the common under-quota
        store O(1); the full directory walk happens only when the
        tracked total crosses the quota (eviction needs the stat list
        anyway) or every :data:`_QUOTA_RESCAN_INTERVAL` stores, to
        resync with entries written by other processes.
        """
        total = self._total_bytes
        if (total is not None and total <= self.quota_bytes
                and self._stores_since_scan < _QUOTA_RESCAN_INTERVAL):
            return
        stats = self._scan_entries()
        total = self._total_bytes
        if total <= self.quota_bytes:
            return
        for _mtime, size, path in sorted(stats):
            if total <= self.quota_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            self.evictions += 1
        self._total_bytes = total

    # -- maintenance ---------------------------------------------------
    def _entries(self) -> list[str]:
        objects = os.path.join(self.root, "objects")
        found: list[str] = []
        if not os.path.isdir(objects):
            return found
        for dirpath, _dirnames, filenames in os.walk(objects):
            found.extend(os.path.join(dirpath, name)
                         for name in filenames if name.endswith(".pkl"))
        return sorted(found)

    def info(self) -> dict:
        """Summary mapping for ``repro cache info``."""
        paths = self._entries()
        total = 0
        for path in paths:
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return {"root": self.root, "entries": len(paths), "bytes": total,
                "corrupt_purged": self.corrupt_purged(),
                "quota_bytes": self.quota_bytes,
                "evictions": self.evictions,
                "write_errors": self.write_errors}

    def fsck(self) -> dict:
        """Scrub every entry: verify checksum, schema, and pickle
        integrity; purge (and count) anything unreadable.

        Returns ``{"root", "scanned", "ok", "purged", "bytes",
        "quota_bytes", "over_quota"}`` — the ``repro cache fsck``
        report.  Purged entries land in ``corrupt.log`` like runtime
        purges, so lifetime corruption accounting stays consistent.
        """
        scanned = ok = purged = 0
        total = 0
        for path in self._entries():
            scanned += 1
            digest = os.path.splitext(os.path.basename(path))[0]
            try:
                with open(path, "rb") as fh:
                    entry = self._decode(fh.read())
                if entry.get("cache_schema") != CACHE_SCHEMA:
                    raise ValueError("cache schema mismatch")
                total += os.path.getsize(path)
                ok += 1
            except Exception as exc:
                try:
                    os.remove(path)
                except OSError:
                    pass
                purged += 1
                self.corrupt += 1
                self._log_corrupt(digest, exc)
        self._total_bytes = total
        self._stores_since_scan = 0
        return {"root": self.root, "scanned": scanned, "ok": ok,
                "purged": purged, "bytes": total,
                "quota_bytes": self.quota_bytes,
                "over_quota": bool(self.quota_bytes
                                   and total > self.quota_bytes)}

    def clear(self) -> int:
        """Remove every entry (and reset the corruption tally); returns
        the number of entries removed.

        The whole ``objects/`` tree goes, fan-out directories included;
        a concurrent :meth:`store` recreates its directory and retries
        (see :meth:`store`), so clearing under load is safe.
        """
        with self._write_lock:
            paths = self._entries()
            shutil.rmtree(os.path.join(self.root, "objects"),
                          ignore_errors=True)
        self._total_bytes = 0
        self._stores_since_scan = 0
        try:
            os.remove(self._corrupt_log_path())
        except OSError:
            pass
        return len(paths)


#: Public miss sentinel (``cache.load(...) is MISS``).
MISS = _MISS


def _roundtrip(key: dict) -> dict:
    """Keys compare after a JSON round-trip (tuples become lists, numpy
    scalars become plain numbers) so stored/fresh forms always match."""
    return json.loads(json.dumps(key, sort_keys=True,
                                 default=_json_default))


#: Memoized process-default instances, one per resolved root.
_default_caches: dict[str, ResultCache] = {}


def default_cache() -> ResultCache:
    """The process-default cache (root from ``REPRO_CACHE_DIR`` or
    ``.repro-cache/`` under the current directory).

    Memoized per resolved root: every call site sharing a root shares
    one :class:`ResultCache` instance, so the ``hits``/``misses``/
    ``stores``/``corrupt`` counters accumulate process-wide (``repro
    cache info`` and the ``repro serve`` ``/metrics`` endpoint report
    true lifetime rates) instead of fragmenting across fresh instances.
    A changed ``REPRO_CACHE_DIR`` (tests repoint it per session) still
    takes effect — a new root simply memoizes a new instance.
    """
    root = os.path.abspath(
        os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))
    cache = _default_caches.get(root)
    if cache is None:
        cache = _default_caches[root] = ResultCache(root)
    return cache
