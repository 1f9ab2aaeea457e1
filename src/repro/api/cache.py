"""Content-addressed compile cache: fingerprinted requests, two-tier store.

Routing in this repository is bit-for-bit deterministic per request (the
PR 1-3 invariant, enforced by the golden harness), so a
:class:`~repro.api.result.CompileResult` is a pure function of its
:class:`~repro.api.request.CompileRequest`.  That makes compile results
content-addressable: :func:`request_fingerprint` reduces a request to a
canonical SHA-256 digest -- router aliases resolved to canonical registry
names, circuit sources hashed by *content* (gate stream, QASM file bytes or
generator spec), backends digested by coupling-graph content so a backend
name and its resolved graph fingerprint identically, configs digested field
by field -- and :class:`CompileCache` keys a two-tier store on it:

* an in-process LRU of payloads (fast, per-process, on by default), and
* an optional disk tier shared across processes and runs: one SQLite
  database, ``<directory>/cache.sqlite3``.

A store and any eviction it causes is one transaction; a disk hit is one
``SELECT`` and one access-order ``UPDATE``.  Going over ``max_bytes`` (of
payload text) or ``max_entries`` evicts least-recently-used entries in a
deterministic order (ascending access sequence, fingerprint tie-break) read
from an index, against running totals, so an evicting put issues the same
statements at any store size.  The digest covers the fingerprint and the
payload text, so a hit hashes the text it read.  ``readonly=True`` opens the
database through a ``mode=ro`` URI and never writes a byte, so one warm
store can serve many ``repro-serve`` workers: the rollback journal
(``TRUNCATE``; a WAL reader creates files) keeps such a reader from writing,
and ``synchronous=OFF`` keeps a hit from syncing its access order.  One
handle may serve many threads (the compile service looks up on its event
loop and stores from executor threads): one lock guards the database
connection, another the memory tier and ``stats``, so a memory hit never
waits on disk IO, and neither is held across an encode or a decode.

Both tiers store the *serialized* payload (:mod:`repro.api.serialize`: the
routed circuit as a columnar gate table); a disk hit decodes it in the
lookup and a memory hit on first use, through the round-trip the test
battery pins as exact.  Every fingerprint embeds the payload version, so
a payload layout change turns older entries into one-time misses; they are
never read back.  Bad persisted state is logged and treated as a miss --
the cache never raises on it, and caching only ever changes hit rates,
never a single routed bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from repro.api.request import CompileRequest, parse_generate_spec
from repro.api.result import CompileResult
from repro.api.serialize import (
    PAYLOAD_VERSION,
    SerializationError,
    result_from_payload,
    result_to_payload,
)
from repro.hardware.coupling import CouplingGraph
from repro.obs.trace import current_tracer

logger = logging.getLogger(__name__)

#: Version stamp of a stored entry *and* the fingerprint layout.  Bump on
#: any change to either; older entries then miss instead of deserializing
#: into garbage.
CACHE_SCHEMA_VERSION = 1

#: Environment variable enabling the disk tier of the process default cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variables bounding the disk tier of the process default cache.
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"

#: Default capacity of the in-process LRU tier.
DEFAULT_MEMORY_ENTRIES = 256

#: The disk tier's database file inside the cache directory.
DATABASE_NAME = "cache.sqlite3"
#: Seconds a statement waits for another connection's lock before it fails.
_BUSY_TIMEOUT_SECONDS = 1.0

#: Age-histogram bucket upper bounds in seconds (the last bucket is open).
AGE_BUCKET_BOUNDS = (60.0, 3600.0, 86400.0, 604800.0)
_AGE_BUCKET_LABELS = ("<=1m", "<=1h", "<=1d", "<=7d", ">7d")


# ---------------------------------------------------------------------------
# Request fingerprinting
# ---------------------------------------------------------------------------


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _jsonify(value) -> Any:
    """Reduce an arbitrary option value to a canonical JSON-safe form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                f.name: _jsonify(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in sorted(value.items(), key=lambda i: str(i[0]))}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_jsonify(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=_canonical_json)
        return items
    # Arbitrary objects: key on their attribute contents where possible --
    # the default object repr embeds a memory address, which would make the
    # fingerprint identity-dependent (every process would miss on disk).
    attributes = getattr(value, "__dict__", None)
    if isinstance(attributes, dict):
        return {"__object__": type(value).__name__, "fields": _jsonify(attributes)}
    return {"__repr__": f"{type(value).__name__}:{value!r}"}


def _circuit_token(circuit) -> dict:
    # The gate-stream hash is memoized on the circuit object: sweeps reuse
    # one circuit across many requests, and rehashing O(gates) per request
    # in the single-threaded parent would dominate small batches.  Gates are
    # immutable and the list is append-only, so the gate count is a sound
    # invalidation guard.
    memo = getattr(circuit, "_repro_gate_digest", None)
    if memo is not None and memo[0] == len(circuit):
        gates_digest = memo[1]
    else:
        digest = hashlib.sha256()
        digest.update(str(circuit.num_qubits).encode())
        for gate in circuit:
            digest.update(
                repr((gate.name, gate.qubits, gate.params, gate.label)).encode()
            )
        gates_digest = digest.hexdigest()
        try:
            circuit._repro_gate_digest = (len(circuit), gates_digest)
        except AttributeError:
            pass  # slotted or frozen circuit types just skip the memo
    return {
        "kind": "circuit",
        "name": circuit.name,
        "num_qubits": circuit.num_qubits,
        "gates": gates_digest,
    }


def _qasm_token(path, content: str | None = None) -> dict:
    """The source token of a QASM file: its stem and the SHA-256 of ``content`` bytes.

    ``content`` is the digest of bytes already read; without it the file is read now.
    """
    path = Path(path)
    if content is None:
        try:
            content = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            # The compile pass will fail with its own one-line message; key the
            # (never stored) fingerprint on the path so fingerprinting never raises.
            return {"kind": "qasm", "stem": path.stem, "path": str(path)}
    # Content-addressed: the same file moved elsewhere (same stem, and thus
    # the same metrics record) hits the same entry.
    return {"kind": "qasm", "stem": path.stem, "content": content}


_backend_digests: dict[str, str] = {}


def _graph_digest(graph: CouplingGraph) -> str:
    record = {
        "name": graph.name,
        "num_qubits": graph.num_qubits,
        "edges": sorted(tuple(sorted(edge)) for edge in graph.edges()),
    }
    return _sha256(_canonical_json(record))


def _backend_token(backend) -> dict:
    if isinstance(backend, CouplingGraph):
        return {"kind": "graph", "digest": _graph_digest(backend)}
    name = str(backend).strip().lower()
    digest = _backend_digests.get(name)
    if digest is None:
        from repro.hardware.backends import backend_by_name

        try:
            digest = _graph_digest(backend_by_name(name))
        except KeyError:
            # Unknown backend: compile will fail; fingerprint on the name.
            return {"kind": "name", "name": name}
        _backend_digests[name] = digest
    # A backend *name* and the graph it resolves to fingerprint identically.
    return {"kind": "graph", "digest": digest}


def _router_token(name: str) -> str:
    from repro.api.registry import UnknownRouterError, resolve_router

    try:
        return resolve_router(name).name
    except UnknownRouterError:
        # Unknown router: compile will fail before anything is stored.
        return str(name).strip().lower()


def request_fingerprint(request: CompileRequest) -> str:
    """The canonical SHA-256 fingerprint of a compile request.

    Every request field is normalized into the digest: equal requests --
    including alias vs canonical router names, backend names vs their
    resolved coupling graphs, equal-content circuits or QASM files, and
    equivalent ``generate=`` specs -- produce equal fingerprints, and any
    output-affecting mutation changes it.
    """
    if request.circuit is not None:
        source = _circuit_token(request.circuit)
    elif request.qasm is not None:
        source = _qasm_token(request.qasm)
    else:
        # The family:count form the load pass builds, so QFT:8, qft: 8 and
        # qft:08 share a key; a spec that does not parse keys on its text.
        try:
            spec = "%s:%d" % parse_generate_spec(request.generate)
        except ValueError:
            spec = str(request.generate).strip()
        source = {"kind": "generate", "spec": spec}
    return _fingerprint(request, source)


#: Bidirectional passes route with the request's own router; an earlier
#: strategy of the same name always routed them with Qlosure.  A token of its
#: own keeps every entry stored for that strategy from answering this one.
_PLACEMENT_TOKENS = {"bidirectional": "bidirectional:request-router"}


def _fingerprint(request: CompileRequest, source: dict) -> str:
    record = {
        "schema": CACHE_SCHEMA_VERSION,
        "payload": PAYLOAD_VERSION,
        "source": source,
        "backend": _backend_token(request.backend),
        "router": _router_token(request.router),
        "seed": _jsonify(request.seed),
        "placement": _PLACEMENT_TOKENS.get(request.placement, request.placement),
        "placement_options": _jsonify(request.placement_options),
        "router_config": _jsonify(request.router_config),
        "validation": request.validation,
        "label": request.label,
    }
    return _sha256(_canonical_json(record))


def check_cache_bounds(max_memory_entries, max_bytes, max_entries,
                       names=("max_memory_entries", "max_bytes", "max_entries")) -> None:
    """Raise ``ValueError`` unless the three cache bounds are valid.

    Each is an integer (a bool is not): the memory bound at least 0, the disk
    bounds at least 1 or ``None``.  ``names`` label them in the message.
    """
    for value, name, floor in zip((max_memory_entries, max_bytes, max_entries), names, (0, 1, 1)):
        if value is None and floor:
            continue
        if isinstance(value, bool) or not isinstance(value, int) or value < floor:
            allowed = f"an integer >= {floor}" + (" or None" if floor else "")
            raise ValueError(f"{name} must be {allowed}, got {value!r}")


# ---------------------------------------------------------------------------
# The two-tier store
# ---------------------------------------------------------------------------

# The disk tier's schema, made in one transaction so that no reader sees
# half of it.  The triggers keep the totals row at COUNT(*) and SUM(size).
_SCHEMA = """
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS entries (
    fingerprint TEXT PRIMARY KEY,
    seq INTEGER NOT NULL,
    size INTEGER NOT NULL,
    written REAL NOT NULL,
    schema INTEGER NOT NULL,
    digest TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS entries_by_access ON entries (seq, fingerprint);
CREATE TABLE IF NOT EXISTS totals (
    entries INTEGER NOT NULL,
    bytes INTEGER NOT NULL,
    evictions INTEGER NOT NULL,
    evicted_bytes INTEGER NOT NULL
);
INSERT INTO totals SELECT 0, 0, 0, 0 WHERE NOT EXISTS (SELECT 1 FROM totals);
CREATE TRIGGER IF NOT EXISTS entry_added AFTER INSERT ON entries
    BEGIN UPDATE totals SET entries = entries + 1, bytes = bytes + new.size; END;
CREATE TRIGGER IF NOT EXISTS entry_rewritten AFTER UPDATE OF size ON entries
    BEGIN UPDATE totals SET bytes = bytes - old.size + new.size; END;
CREATE TRIGGER IF NOT EXISTS entry_removed AFTER DELETE ON entries
    BEGIN UPDATE totals SET entries = entries - 1, bytes = bytes - old.size; END;
COMMIT;
"""

_PUT = """
INSERT INTO entries (fingerprint, seq, size, written, schema, digest, payload)
VALUES (?1, (SELECT IFNULL(MAX(seq), 0) + 1 FROM entries), ?2, ?3, ?4, ?5, ?6)
ON CONFLICT (fingerprint) DO UPDATE SET
    seq = excluded.seq, size = excluded.size, written = excluded.written,
    schema = excluded.schema, digest = excluded.digest, payload = excluded.payload
"""

# Per shard and age bucket (the number of bucket bounds an entry's age
# exceeds): entries, bytes, and the oldest and newest write times.
_STATS = (
    "SELECT substr(fingerprint, 1, 2) AS shard, "
    + " + ".join(f"(?1 - written > {bound})" for bound in AGE_BUCKET_BOUNDS)
    + " AS bucket, COUNT(*), SUM(size), MIN(written), MAX(written)"
    " FROM entries GROUP BY shard, bucket ORDER BY shard"
)


class CompileCache:
    """Content-addressed store of compile results, keyed by fingerprint.

    Args:
        max_memory_entries: capacity of the in-process LRU tier (0 disables
            the memory tier entirely).
        directory: directory of the on-disk tier; ``None`` (the default)
            keeps the cache memory-only.
        max_bytes: global byte bound of the disk tier's payloads (LRU
            eviction keeps the store at or below it); ``None`` leaves it
            unbounded.
        max_entries: global entry-count bound of the disk tier; ``None``
            leaves it unbounded.
        readonly: open the disk tier read-only -- lookups are served from a
            shared directory but nothing is ever written (no entries, no
            access order, no eviction).  Requires ``directory``.
    """

    def __init__(
        self,
        max_memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        directory: str | Path | None = None,
        *,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        readonly: bool = False,
    ):
        check_cache_bounds(max_memory_entries, max_bytes, max_entries)
        self.max_memory_entries = max_memory_entries
        self.directory = Path(directory) if directory is not None else None
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.readonly = bool(readonly)
        if self.readonly and self.directory is None:
            raise ValueError("readonly=True requires a cache directory")
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self.stats = dict.fromkeys(
            ("memory_hits", "disk_hits", "misses", "stores", "evictions", "evicted_bytes",
             "integrity_misses"), 0)
        # Guards _memory and stats; taken inside _disk_lock, never around it.
        self._memory_lock = threading.Lock()
        # Guards the database connection, opened on first use.
        self._disk_lock = threading.Lock()
        self._db = None
        if self.directory is not None:
            import sqlite3  # only a disk tier pays for the import

            self._sqlite = sqlite3
            self._disk_errors = (OSError, sqlite3.Error)

    # -- lookups -------------------------------------------------------------

    def lookup(self, fingerprint: str, request: CompileRequest) -> CompileResult | None:
        """The cached result for ``fingerprint``, or ``None`` on a miss.

        Hits rebuild the stored payload into a fresh :class:`CompileResult`
        carrying the caller's ``request``; a memory hit's routed circuit
        reads its table (which :meth:`store` wrote or a disk hit decoded) on
        first use.  A disk hit decodes here, so any undecodable entry
        (unparsable text, schema or payload version mismatch, integrity
        digest mismatch, a damaged or locked database) is a logged miss;
        this method never raises on bad cache state.
        """
        payload = self._memory_get(fingerprint)
        tier = "memory"
        if payload is None and self.directory is not None:
            payload = self._disk_get(fingerprint)
            tier = "disk"
        if payload is not None:
            try:
                result = result_from_payload(payload, request, lazy=(tier == "memory"))
            except SerializationError as exc:
                logger.warning("cache entry %s undecodable (%s); treating as miss",
                               fingerprint[:12], exc)
                with self._memory_lock:
                    self._memory.pop(fingerprint, None)
            else:
                self._count(f"{tier}_hits")
                current_tracer().count(f"cache.{tier}_hits")
                if tier == "disk":
                    self._memory_put(fingerprint, payload)
                    self._touch(fingerprint)
                return result
        self._count("misses")
        current_tracer().count("cache.misses")
        return None

    def get(self, request: CompileRequest) -> CompileResult | None:
        """Fingerprint ``request`` and look it up."""
        return self.lookup(request_fingerprint(request), request)

    # -- stores --------------------------------------------------------------

    def store(self, fingerprint: str, result: CompileResult) -> dict:
        """Store ``result``'s payload under ``fingerprint`` in every tier; return it (read-only).

        A ``qasm=`` result compiled in this process is stored under the
        fingerprint of the bytes its load pass parsed instead: ``fingerprint``
        hashed the file before it was loaded, and a file edited in between
        would otherwise leave one content's route under the other's key.
        """
        if result.source_digest is not None:
            request = result.request
            fingerprint = _fingerprint(request, _qasm_token(request.qasm, result.source_digest))
        payload = result_to_payload(result)
        self._memory_put(fingerprint, payload)
        if self.directory is not None and not self.readonly:
            self._disk_put(fingerprint, payload)
        self._count("stores")
        current_tracer().count("cache.stores")
        return payload

    def put(self, result: CompileResult) -> str:
        """Store ``result`` under its own request fingerprint."""
        fingerprint = request_fingerprint(result.request)
        self.store(fingerprint, result)
        return fingerprint

    # -- memory tier ---------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._memory_lock:
            self.stats[name] += amount

    def _memory_get(self, fingerprint: str) -> dict | None:
        with self._memory_lock:
            payload = self._memory.get(fingerprint)
            if payload is not None:
                self._memory.move_to_end(fingerprint)
        return payload

    def _memory_put(self, fingerprint: str, payload: dict) -> None:
        if self.max_memory_entries == 0:
            return
        with self._memory_lock:
            self._memory[fingerprint] = payload
            self._memory.move_to_end(fingerprint)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)

    # -- disk tier -----------------------------------------------------------

    def _database(self, create: bool = True):
        """The disk tier's connection, opened on first use (hold ``_disk_lock``).

        ``None`` while the database file does not exist, unless ``create``
        asks a writer handle to make it: a missing database reads as an
        empty store, and only a store creates one.
        """
        if self._db is None:
            path = self.directory / DATABASE_NAME
            if (self.readonly or not create) and not path.exists():
                return None
            if self.readonly:
                path = f"{path.absolute().as_uri()}?mode=ro"
            else:
                self.directory.mkdir(parents=True, exist_ok=True)
            # Transactions are explicit, and _disk_lock serializes the threads.
            db = self._sqlite.connect(path, uri=self.readonly, timeout=_BUSY_TIMEOUT_SECONDS,
                                      isolation_level=None, check_same_thread=False)
            try:
                if not self.readonly:
                    db.execute("PRAGMA journal_mode=TRUNCATE")
                    db.execute("PRAGMA synchronous=OFF")
                    db.executescript(_SCHEMA)
            except BaseException:
                db.close()
                raise
            self._db = db
        return self._db

    @contextmanager
    def _transaction(self):
        """A write transaction on the database (hold ``_disk_lock``)."""
        db = self._database()
        with db:  # commits, or rolls back on an exception
            # Lock up front: two writing connections then wait, not fail to upgrade.
            db.execute("BEGIN IMMEDIATE")
            yield db

    def _disk_get(self, fingerprint: str) -> dict | None:
        try:
            with self._disk_lock:
                db = self._database(create=False)
                if db is None:
                    return None
                row = db.execute(
                    "SELECT schema, digest, payload FROM entries WHERE fingerprint = ?",
                    (fingerprint,),
                ).fetchone()
        except self._disk_errors as exc:
            logger.warning("cache database unreadable (%s); treating %s as a miss",
                           exc, fingerprint[:12])
            return None
        if row is None:
            return None
        schema, digest, text = row
        if schema != CACHE_SCHEMA_VERSION:
            logger.warning("cache entry %s has schema %r != %r; treating as miss",
                           fingerprint[:12], schema, CACHE_SCHEMA_VERSION)
            return None
        if not isinstance(text, str) or digest != _sha256(fingerprint + text):
            # Bit rot, or a row filed under another fingerprint.
            logger.warning("cache entry %s failed integrity verification; treating as miss",
                           fingerprint[:12])
            self._count("integrity_misses")
            return None
        try:
            return json.loads(text)  # lookup's decode rejects anything but a payload
        except ValueError as exc:
            logger.warning("cache entry %s malformed (%s); treating as miss",
                           fingerprint[:12], exc)
            return None

    def _touch(self, fingerprint: str) -> None:
        """Record a disk hit in the LRU order (writer handles only)."""
        if self.readonly:
            return
        try:
            with self._disk_lock, self._transaction() as db:
                db.execute(
                    "UPDATE entries SET seq = (SELECT MAX(seq) FROM entries) + 1"
                    " WHERE fingerprint = ?",
                    (fingerprint,),
                )
        except self._disk_errors as exc:
            logger.warning("cannot record cache access for %s (%s)", fingerprint[:12], exc)

    def _disk_put(self, fingerprint: str, payload: dict) -> None:
        text = json.dumps(payload, separators=(",", ":"))
        row = (fingerprint, len(text), time.time(), CACHE_SCHEMA_VERSION,
               _sha256(fingerprint + text), text)
        try:
            with self._disk_lock:
                with self._transaction() as db:
                    db.execute(_PUT, row)
                    victims = self._evict(db)
                if victims:
                    freed = sum(size for _, size in victims)
                    with self._memory_lock:
                        for victim, _ in victims:
                            self._memory.pop(victim, None)
                        self.stats["evictions"] += len(victims)
                        self.stats["evicted_bytes"] += freed
                    current_tracer().count("cache.evictions", len(victims))
                    logger.debug("evicted %d cache entries (%d bytes)", len(victims), freed)
        except self._disk_errors as exc:
            logger.warning("cannot persist cache entry %s (%s); memory tier only",
                           fingerprint[:12], exc)

    def _evict(self, db) -> list[tuple[str, int]]:
        """Delete LRU entries (one batch) until the store is within bounds.

        Victims go in ascending last-access sequence, fingerprint tie-break,
        so identical operation histories evict identical entries; the totals
        row and the access index make the cost independent of the store's
        size.  Returns each victim's ``(fingerprint, size)``.
        """
        if self.max_bytes is None and self.max_entries is None:
            return []

        def over(entries, size):
            return (self.max_entries is not None and entries > self.max_entries) or (
                self.max_bytes is not None and size > self.max_bytes)

        entries, size = db.execute("SELECT entries, bytes FROM totals").fetchone()
        victims = []
        if over(entries, size):
            rows = db.execute("SELECT fingerprint, size FROM entries ORDER BY seq, fingerprint")
            for victim in rows:
                victims.append(victim)
                entries, size = entries - 1, size - victim[1]
                if not over(entries, size):
                    break
            rows.close()
            db.executemany("DELETE FROM entries WHERE fingerprint = ?",
                           [(victim,) for victim, _ in victims])
            db.execute(
                "UPDATE totals SET evictions = evictions + ?, evicted_bytes = evicted_bytes + ?",
                (len(victims), sum(freed for _, freed in victims)),
            )
        return victims

    # -- introspection / maintenance -----------------------------------------

    def disk_stats(self) -> dict:
        """Aggregate statistics of the disk tier (the ``cache info`` payload).

        Total bytes and entries, per-shard (two-hex fingerprint prefix)
        bytes/entries, the ages in seconds of the oldest and newest writes, an
        entry-age histogram and the persisted eviction counters, shared by
        ``repro-map cache info`` and the service's ``/metrics``.  An
        unreadable database is logged and reads as an empty store.
        """
        now = time.time()
        rows, evictions = [], (0, 0)
        if self.directory is not None:
            try:
                with self._disk_lock:
                    db = self._database(create=False)
                    if db is not None:
                        rows = db.execute(_STATS, (now,)).fetchall()
                        evictions = db.execute(
                            "SELECT evictions, evicted_bytes FROM totals"
                        ).fetchone()
            except self._disk_errors as exc:
                logger.warning("cannot read cache statistics (%s)", exc)
        shards: dict[str, dict] = {}
        ages = [0] * len(_AGE_BUCKET_LABELS)
        for shard, bucket, count, size, _, _ in rows:
            totals = shards.setdefault(shard, {"entries": 0, "bytes": 0})
            totals["entries"] += count
            totals["bytes"] += size
            ages[bucket] += count

        def age(written):
            return None if written is None else max(0.0, round(now - written, 3))

        return {
            "entries": sum(ages),
            "bytes": sum(totals["bytes"] for totals in shards.values()),
            "shards": shards,
            "age_histogram": dict(zip(_AGE_BUCKET_LABELS, ages)),
            "evictions": evictions[0],
            "evicted_bytes": evictions[1],
            "oldest_age_seconds": age(min((row[4] for row in rows), default=None)),
            "newest_age_seconds": age(max((row[5] for row in rows), default=None)),
        }

    def info(self) -> dict:
        """Flat introspection record (used by ``repro-map cache info``)."""
        disk = self.disk_stats()
        with self._memory_lock:
            stats = dict(self.stats)
        hits = stats["memory_hits"] + stats["disk_hits"]
        lookups = hits + stats["misses"]
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "memory_entries": len(self._memory),
            "max_memory_entries": self.max_memory_entries,
            "disk_dir": str(self.directory) if self.directory is not None else None,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
            "readonly": self.readonly,
            **{f"disk_{key}": value for key, value in disk.items()},
            "hit_rate": round(hits / lookups, 4) if lookups else None,
            "stats": stats,
        }

    def clear(self) -> dict:
        """Drop every entry in both tiers; return per-tier removal counts.

        Clearing also resets the persisted eviction counters.  A database
        that cannot be read as one (damaged, or not a database) is removed.
        A ``readonly`` handle only clears its memory tier -- the shared disk
        store is left untouched.
        """
        with self._memory_lock:
            removed = {"memory_entries": len(self._memory), "disk_entries": 0}
            self._memory.clear()
        if self.readonly or self.directory is None:
            return removed
        with self._disk_lock:
            try:
                if self._database(create=False) is not None:
                    with self._transaction() as db:
                        removed["disk_entries"] = db.execute("DELETE FROM entries").rowcount
                        db.execute("UPDATE totals SET evictions = 0, evicted_bytes = 0")
            except (OSError, self._sqlite.OperationalError) as exc:
                logger.warning("cannot clear the cache database (%s)", exc)
            except self._sqlite.DatabaseError as exc:
                logger.warning("removing the unreadable cache database (%s)", exc)
                if self._db is not None:
                    self._db.close()
                    self._db = None
                for name in (DATABASE_NAME, f"{DATABASE_NAME}-journal"):
                    try:
                        (self.directory / name).unlink(missing_ok=True)
                    except OSError as error:
                        logger.warning("cannot remove %s (%s)", name, error)
        return removed

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        tier = f", dir={str(self.directory)!r}" if self.directory is not None else ""
        if self.readonly:
            tier += ", readonly"
        return (
            f"CompileCache(memory={len(self._memory)}/{self.max_memory_entries}"
            f"{tier}, stats={self.stats})"
        )


# ---------------------------------------------------------------------------
# The process default cache
# ---------------------------------------------------------------------------

_default_cache: CompileCache | None = None


def _env_int(name: str) -> int | None:
    """A positive integer environment bound, or ``None`` (invalid = ignored)."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        logger.warning("ignoring %s=%r: not an integer", name, raw)
        return None
    if value < 1:
        logger.warning("ignoring %s=%r: must be positive", name, raw)
        return None
    return value


def default_cache() -> CompileCache:
    """The lazily-created process-wide cache :func:`repro.api.compile` uses.

    Memory-only unless the ``REPRO_CACHE_DIR`` environment variable names a
    directory at first use (disk persistence stays opt-in);
    ``REPRO_CACHE_MAX_BYTES`` / ``REPRO_CACHE_MAX_ENTRIES`` bound the disk
    tier with LRU eviction.
    """
    global _default_cache
    if _default_cache is None:
        directory = os.environ.get(CACHE_DIR_ENV) or None
        _default_cache = CompileCache(
            directory=directory,
            max_bytes=_env_int(CACHE_MAX_BYTES_ENV) if directory else None,
            max_entries=_env_int(CACHE_MAX_ENTRIES_ENV) if directory else None,
        )
    return _default_cache


def set_default_cache(cache: CompileCache | None) -> CompileCache | None:
    """Replace the process default cache (``None`` resets to lazy creation).

    Returns the previous default (primarily so tests can restore it).
    """
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def resolve_cache(cache: CompileCache | bool | None) -> CompileCache | None:
    """Normalize the ``cache=`` argument of the compile entry points.

    ``True`` selects the process default cache, ``False``/``None`` disables
    caching, and a :class:`CompileCache` instance is used as-is.
    """
    if cache is True:
        return default_cache()
    if cache is False or cache is None:
        return None
    if isinstance(cache, CompileCache):
        return cache
    raise TypeError(
        f"cache must be a CompileCache, True, False or None, got {type(cache).__name__}"
    )
