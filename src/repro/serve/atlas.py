"""The persistent policy atlas: a crash-safe, content-addressed store
of solved analyses.

Solving a setting-2 cell takes seconds to minutes; serving millions of
queries means most traffic must hit precomputed artifacts (following
the cache-the-solved-ratios lesson of Bar-Zur, Eyal & Tamar,
arXiv:2007.05614).  The atlas is that artifact store, hardened for a
long-running service:

- **content-addressed**: an entry's filename is the SHA-256 digest of
  its canonical key (config + incentive model), so lookups are one
  ``stat`` and two processes backfilling the same cell converge on the
  same file (writes are atomic ``os.replace``\\ s of identical
  content);
- **checksummed**: every entry embeds the SHA-256 of its canonical
  ``key`` + ``body`` JSON; a flipped bit or a truncated write is
  detected on load, never served;
- **validated**: bodies are checked against the
  :mod:`repro.analysis.store` analysis schema on load, so a
  wrong-schema or hand-edited file surfaces as the typed
  :class:`~repro.errors.ArtifactCorruptError`;
- **quarantine-and-resolve**: a corrupt entry is moved into
  ``quarantine/`` (with a ``.reason`` sidecar) and reported as a miss,
  so the service re-solves and backfills instead of crashing -- a
  kill-and-restart therefore resumes serving with zero corrupt
  entries loaded;
- **indexed and cached**: an in-memory ``digest -> key`` index (built
  by :meth:`scan`, kept coherent by :meth:`put`, :meth:`get` and
  :meth:`quarantine`) plus a bounded LRU cache of hot policy bodies
  make repeat :meth:`get`\\ s and :meth:`nearest` queries run with
  zero disk reads.  The cache is strictly read-through: bodies enter
  it only after surviving a fully validated disk load -- in
  :meth:`get`, or in the :meth:`scan` that already validated them, so
  a restarted service reads each entry once -- and :meth:`put` only
  invalidates (never populates) the cached body.

Multi-writer safety: several processes may share one atlas directory.
The index is therefore advisory for *presence* -- a digest absent from
the index may still have been written by another process, so a miss is
only declared after falling through to disk -- while an index *hit*
still reads (and validates) the body from disk unless it is already
cached.

The atlas also answers *nearest-neighbor* queries (same model/setting,
closest power split) used by the service's degraded mode when an exact
solve misses its deadline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.core.config import AttackConfig
from repro.core.incentives import IncentiveModel
from repro.errors import ArtifactCorruptError, AtlasQuarantineError
from repro.runtime.journal import atomic_write_text
from repro.runtime.telemetry import counter_add

PathLike = Union[str, Path]

#: Format version of atlas entry files; bump on breaking changes.
ATLAS_SCHEMA = 1

#: Default bound on the number of policy bodies kept hot in memory.
DEFAULT_CACHE_ENTRIES = 256

#: Continuous config fields the nearest-neighbor distance may vary
#: over; every other key field must match exactly.
_NEAREST_FIELDS = ("alpha", "beta", "gamma")


def canonical_json(obj) -> str:
    """Canonical (sorted, compact) JSON text of ``obj``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def atlas_key(config: AttackConfig, model: IncentiveModel) -> Dict:
    """The canonical JSON-compatible identity of one solved cell.

    ``include_wait`` is taken from the model, as
    :func:`repro.core.solve.analyze` does before solving: the stored
    answer's config then matches its key, and two requests that differ
    only in that flag are one cell.
    """
    config = dataclasses.replace(config, include_wait=model.uses_wait)
    return {"config": dataclasses.asdict(config), "model": model.value}


def key_digest(key: Dict) -> str:
    """SHA-256 hex digest of a canonical atlas key."""
    return hashlib.sha256(canonical_json(key).encode()).hexdigest()


def _entry_checksum(key: Dict, body: Dict) -> str:
    """Checksum covering both the key and the body of one entry."""
    return hashlib.sha256(
        canonical_json({"key": key, "body": body}).encode()).hexdigest()


@dataclass
class AtlasStats:
    """Counters over one :class:`PolicyAtlas` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    quarantined: int = 0
    #: Quarantine attempts that lost the race to another process (the
    #: source entry was already gone) -- counted separately from real
    #: quarantines so a swallowed failure can't masquerade as one.
    quarantine_races: int = 0
    #: ``get()`` calls answered straight from the in-memory LRU cache.
    cache_hits: int = 0
    #: ``get()`` calls that had to go past the cache (to the index
    #: and/or disk), whether or not they ultimately hit.
    cache_misses: int = 0
    #: Bodies dropped from the LRU cache to respect the bound.
    cache_evictions: int = 0
    #: Entry files read and validated from disk.  The serve-smoke
    #: benchmark asserts this stays flat across the hot phase.
    disk_reads: int = 0

    def cache_hit_rate(self) -> float:
        """Fraction of ``get()`` calls served from memory."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class PolicyAtlas:
    """Content-addressed, checksummed store of solved analyses.

    Parameters
    ----------
    root:
        Directory holding ``entries/`` and ``quarantine/`` (created on
        demand).
    validate_bodies:
        When true (the default), loaded bodies are additionally run
        through the :mod:`repro.analysis.store` schema decoder; a body
        that is valid JSON with a valid checksum but the wrong shape
        is still quarantined.
    cache_entries:
        Bound on the in-memory LRU cache of hot policy bodies; ``0``
        disables body caching (the digest -> key index is always
        maintained).
    """

    def __init__(self, root: PathLike,
                 validate_bodies: bool = True,
                 cache_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        self.quarantine_dir = self.root / "quarantine"
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        self.validate_bodies = validate_bodies
        self.cache_entries = int(cache_entries)
        self.stats = AtlasStats()
        #: In-memory ``digest -> key`` of entries known valid: built by
        #: :meth:`scan`, extended by :meth:`put` and validated loads,
        #: pruned by :meth:`quarantine` and vanished-file discoveries.
        self._index: Dict[str, Dict] = {}
        #: True once :meth:`scan` has walked the whole directory, so
        #: :meth:`nearest` can trust the index as the candidate set.
        self._index_complete = False
        #: LRU of ``digest -> body`` for validated, disk-loaded
        #: entries only (read-through; :meth:`put` never populates it).
        self._cache: "OrderedDict[str, Dict]" = OrderedDict()

    # -- paths ---------------------------------------------------------

    def path_for(self, digest: str) -> Path:
        """On-disk location of the entry with ``digest``."""
        return self.entries_dir / f"{digest}.json"

    def __len__(self) -> int:
        return sum(1 for _ in self.entries_dir.glob("*.json"))

    # -- index / cache maintenance -------------------------------------

    def _admit(self, digest: str, key: Dict, body: Dict) -> None:
        """Record a disk-validated entry in the index and LRU cache."""
        self._index[digest] = key
        if self.cache_entries <= 0:
            return
        self._cache[digest] = body
        self._cache.move_to_end(digest)
        while len(self._cache) > self.cache_entries:
            self._cache.popitem(last=False)
            self.stats.cache_evictions += 1
            counter_add("atlas/cache_evictions")

    def _forget(self, digest: str) -> None:
        """Drop an entry from the index and cache (quarantined, or its
        file vanished under another process's quarantine)."""
        self._index.pop(digest, None)
        self._cache.pop(digest, None)

    def _ensure_index(self) -> None:
        """Make the index a complete picture of the entries directory
        (one full :meth:`scan` on first need)."""
        if not self._index_complete:
            self.scan()

    # -- writing -------------------------------------------------------

    def put(self, key: Dict, body: Dict) -> Path:
        """Store ``body`` under ``key``; returns the entry path.

        The write is atomic and durable (temp file + ``os.replace`` +
        directory fsync via :func:`atomic_write_text`), so a crash
        mid-backfill can never leave a truncated entry -- only the old
        content, the new content, or no file.

        The in-memory index learns the new digest immediately; any
        cached body for the same key is invalidated (not replaced), so
        the next read revalidates what actually landed on disk.
        """
        digest = key_digest(key)
        entry = {"schema": ATLAS_SCHEMA, "kind": "atlas-entry",
                 "key": key, "body": body,
                 "sha256": _entry_checksum(key, body)}
        path = self.path_for(digest)
        atomic_write_text(path, json.dumps(entry, indent=1))
        self._index[digest] = key
        self._cache.pop(digest, None)
        self.stats.writes += 1
        counter_add("atlas/writes")
        return path

    def put_analysis(self, analysis) -> Path:
        """Store one solved :class:`~repro.core.solve.AttackAnalysis`."""
        from repro.analysis.store import analysis_to_payload
        return self.put(atlas_key(analysis.config, analysis.model),
                        analysis_to_payload(analysis))

    # -- loading -------------------------------------------------------

    def _load_entry(self, path: Path) -> Tuple[Dict, Dict]:
        """Load and fully validate one entry file.

        Returns ``(key, body)``; raises
        :class:`~repro.errors.ArtifactCorruptError` on malformed JSON,
        wrong kind/schema, missing fields, checksum mismatch, or (with
        ``validate_bodies``) a body violating the analysis schema.
        """
        self.stats.disk_reads += 1
        counter_add("atlas/disk_reads")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ArtifactCorruptError(
                path, f"malformed JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ArtifactCorruptError(
                path, f"not valid UTF-8: {exc}") from exc
        if not isinstance(raw, dict):
            raise ArtifactCorruptError(
                path, f"expected a JSON object, got {type(raw).__name__}")
        if raw.get("kind") != "atlas-entry":
            raise ArtifactCorruptError(
                path, f"not an atlas entry (kind={raw.get('kind')!r})")
        if raw.get("schema") != ATLAS_SCHEMA:
            raise ArtifactCorruptError(
                path, f"unsupported schema {raw.get('schema')!r} "
                      f"(expected {ATLAS_SCHEMA})")
        key, body = raw.get("key"), raw.get("body")
        if not isinstance(key, dict) or not isinstance(body, dict):
            raise ArtifactCorruptError(path, "missing key or body")
        recorded = raw.get("sha256")
        actual = _entry_checksum(key, body)
        if recorded != actual:
            raise ArtifactCorruptError(
                path, f"checksum mismatch (recorded {recorded!r}, "
                      f"actual {actual!r})")
        expected = f"{key_digest(key)}.json"
        if path.name != expected:
            raise ArtifactCorruptError(
                path, f"content address mismatch (key hashes to "
                      f"{expected!r})")
        if self.validate_bodies:
            from repro.analysis.store import validate_analysis_payload
            validate_analysis_payload(body, source=str(path))
            for field_name in ("config", "model"):
                if body.get(field_name) != key.get(field_name):
                    raise ArtifactCorruptError(
                        path, f"body {field_name} does not match the "
                              f"entry key (an answer stored under the "
                              f"wrong cell)")
        return key, body

    def quarantine(self, path: Path, reason: str) -> Path:
        """Move a corrupt entry aside (with a ``.reason`` sidecar) and
        return its quarantine location.

        Losing the race to another process (the source entry is already
        gone) is fine and counted as :attr:`AtlasStats.quarantine_races`;
        any *other* failure to move the file -- permissions, an
        unwritable quarantine directory -- raises the typed
        :class:`~repro.errors.AtlasQuarantineError` instead of silently
        leaving the corrupt entry in place to be re-served forever.
        """
        digest = path.stem
        self._forget(digest)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        try:
            os.replace(path, target)
        except OSError as exc:
            if isinstance(exc, FileNotFoundError) or not path.exists():
                self.stats.quarantine_races += 1
                counter_add("atlas/quarantine_races")
                return target
            raise AtlasQuarantineError(
                f"cannot quarantine corrupt entry {path}: {exc}") from exc
        atomic_write_text(target.with_suffix(".reason"), reason + "\n")
        self.stats.quarantined += 1
        counter_add("atlas/quarantined")
        return target

    def get(self, key: Dict) -> Optional[Dict]:
        """The stored body for ``key``, or ``None`` on a miss.

        Hot path: a body already in the LRU cache is returned with zero
        disk access.  Otherwise one disk read loads and validates the
        entry (admitting it to the cache); a corrupt entry is
        quarantined and reported as a miss -- the resolve half of
        quarantine-and-resolve is the caller's solve path backfilling
        via :meth:`put`.  A digest absent from the index still falls
        through to disk before being declared a miss, preserving
        multi-writer safety.
        """
        digest = key_digest(key)
        cached = self._cache.get(digest)
        if cached is not None:
            self._cache.move_to_end(digest)
            self.stats.cache_hits += 1
            self.stats.hits += 1
            counter_add("atlas/cache_hits")
            counter_add("atlas/hits")
            return cached
        self.stats.cache_misses += 1
        counter_add("atlas/cache_misses")
        path = self.path_for(digest)
        if not path.exists():
            # Another process may have quarantined what we indexed.
            self._forget(digest)
            self.stats.misses += 1
            counter_add("atlas/misses")
            return None
        try:
            entry_key, body = self._load_entry(path)
        except FileNotFoundError:
            self._forget(digest)
            self.stats.misses += 1
            counter_add("atlas/misses")
            return None
        except ArtifactCorruptError as exc:
            self.quarantine(path, exc.reason)
            self.stats.misses += 1
            counter_add("atlas/misses")
            return None
        self._admit(digest, entry_key, body)
        self.stats.hits += 1
        counter_add("atlas/hits")
        return body

    def __contains__(self, key: Dict) -> bool:
        """Membership consistent with :meth:`get`: only entries that
        have passed (or, per the index, previously passed) validation
        count, never a merely-existing corrupt file.

        An index hit is answered without touching disk -- indexed
        entries were validated when admitted (external tampering behind
        a built index is, as for :meth:`get`'s cache, discovered on the
        next disk read or :meth:`scan`).  An index miss falls through
        to a fully validated disk load, quarantining a corrupt file and
        returning ``False`` exactly where :meth:`get` would miss.
        """
        digest = key_digest(key)
        if digest in self._index:
            return True
        path = self.path_for(digest)
        if not path.exists():
            return False
        try:
            entry_key, body = self._load_entry(path)
        except FileNotFoundError:
            return False
        except ArtifactCorruptError as exc:
            self.quarantine(path, exc.reason)
            return False
        self._admit(digest, entry_key, body)
        return True

    # -- scanning and nearest-neighbor queries -------------------------

    def scan(self) -> Dict[str, Dict]:
        """Load every entry, quarantining corrupt ones, and (re)build
        the in-memory index.

        Returns ``digest -> key`` for the entries that survived -- what
        a restarted service resumes from.  After a scan, every
        remaining entry on disk has passed checksum and schema
        validation (the "zero corrupt entries loaded" guarantee), the
        index is exactly the on-disk survivor set, and cached bodies
        whose entries did not survive have been dropped.  The bodies
        just validated enter the LRU cache (within its bound), so a
        :meth:`get` right after the scan reads nothing from disk.
        """
        index: Dict[str, Dict] = {}
        for path in sorted(self.entries_dir.glob("*.json")):
            try:
                key, body = self._load_entry(path)
            except FileNotFoundError:
                continue
            except ArtifactCorruptError as exc:
                self.quarantine(path, exc.reason)
                continue
            index[path.stem] = key
            self._admit(path.stem, key, body)
        self._index = dict(index)
        self._index_complete = True
        for digest in [d for d in self._cache if d not in self._index]:
            self._cache.pop(digest, None)
        return index

    def iter_entries(self) -> Iterator[Tuple[Dict, Dict]]:
        """Iterate ``(key, body)`` over valid entries, quarantining
        corrupt ones as they are encountered."""
        for path in sorted(self.entries_dir.glob("*.json")):
            try:
                yield self._load_entry(path)
            except FileNotFoundError:
                continue
            except ArtifactCorruptError as exc:
                self.quarantine(path, exc.reason)

    def nearest(self, key: Dict,
                max_distance: float = float("inf")
                ) -> Optional[Tuple[Dict, Dict, float]]:
        """The closest stored entry usable as a degraded substitute.

        Candidates must match ``key`` exactly on every config field
        except the continuous power split (``alpha``/``beta``/
        ``gamma``) and on the incentive model; distance is the L1
        distance over the power split.  Returns ``(key, body,
        distance)`` or ``None`` when nothing qualifies within
        ``max_distance``.

        The candidate search walks the in-memory index (one full
        :meth:`scan` on first use, O(index) afterwards); only the
        winning entry's body is fetched, via :meth:`get`, so a repeat
        query against a warm cache does zero disk reads.  Should the
        winner turn out corrupt or vanished at fetch time it is
        dropped from the index and the search repeats without it.
        """
        self._ensure_index()
        want_config = dict(key.get("config", {}))
        want_model = key.get("model")
        want_discrete = {k: v for k, v in want_config.items()
                         if k not in _NEAREST_FIELDS}
        while True:
            best: Optional[Tuple[str, Dict, float]] = None
            for digest, cand_key in self._index.items():
                if cand_key.get("model") != want_model:
                    continue
                cand_config = dict(cand_key.get("config", {}))
                discrete = {k: v for k, v in cand_config.items()
                            if k not in _NEAREST_FIELDS}
                if discrete != want_discrete:
                    continue
                try:
                    distance = sum(
                        abs(float(cand_config[f]) - float(want_config[f]))
                        for f in _NEAREST_FIELDS)
                except (KeyError, TypeError, ValueError):
                    continue
                if distance <= max_distance and \
                        (best is None or distance < best[2]):
                    best = (digest, cand_key, distance)
            if best is None:
                return None
            digest, cand_key, distance = best
            body = self.get(cand_key)
            if body is not None:
                return cand_key, body, distance
            # get() already dropped the corrupt/vanished digest from
            # the index; re-run the search over what remains.
