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
* an optional on-disk **sharded piece store** shared across processes and
  runs.

The disk tier is a bounded, shareable piece store:

* **Sharding** -- entries live under two-hex fingerprint-prefix shard
  directories (``<dir>/ab/<fingerprint>.json``), so a populated cache
  directory can be split or synced per shard.
* **Per-shard index** -- every shard carries an append-only ``index.jsonl``
  of ``put``/``touch`` records (fingerprint, size, schema version, created
  and last-access stamps, a monotonic access sequence).  The *directory* is
  always the source of truth: index metadata is reconciled against the
  actual entry files on load, so a torn or malformed index line or an
  index/payload mismatch degrades gracefully and is compacted away on the
  next write.
* **Bounds** -- ``max_bytes``/``max_entries`` cap the store globally; going
  over evicts least-recently-used entries in a deterministic victim order
  (ascending access sequence, fingerprint tie-break) as one batch, with an
  atomic rewrite of each affected shard index.
* **Integrity on read** -- entries embed a payload digest and the index
  records their size; a digest or size mismatch is logged and served as a
  recomputed miss, exactly like the corrupt-entry path.
* **Read-only fleet mode** -- ``readonly=True`` opens a populated directory
  without ever writing (no entries, no index appends, no eviction), so one
  warm store can be mounted into many ``repro-serve`` workers without write
  contention.  The single-writer/many-reader split is the supported sharing
  model.
* **Threads** -- one handle may serve many threads (the compile service
  looks up on its event loop and stores from executor threads).  One lock
  guards the disk tier's writer state and files, another the memory tier
  and ``stats``, so a memory hit never waits on disk IO; neither is held
  across an encode or a decode.

Both tiers store the *serialized* payload (:mod:`repro.api.serialize`: the
routed circuit as a columnar gate table); a disk hit decodes it in the
lookup and a memory hit on first use, through the round-trip the test
battery pins as exact.  Every fingerprint embeds the payload version, so
a payload layout change turns older entries into one-time misses; they are
never read back.  Corrupted, truncated or version-mismatched disk entries are
logged and treated as misses -- the cache never raises on bad persisted
state, and caching only ever changes hit rates, never a single routed bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.api.request import CompileRequest
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

#: Version stamp of the on-disk entry envelope *and* the fingerprint layout.
#: Bump on any change to either; older entries then miss instead of
#: deserializing into garbage.
CACHE_SCHEMA_VERSION = 1

#: Environment variable enabling the disk tier of the process default cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variables bounding the disk tier of the process default cache.
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"

#: Default capacity of the in-process LRU tier.
DEFAULT_MEMORY_ENTRIES = 256

#: Per-shard append-only index file name (JSON lines).
INDEX_NAME = "index.jsonl"
#: Store-level metadata file (persisted eviction counters + sequence floor).
META_NAME = "_meta.json"

#: Age-histogram bucket upper bounds in seconds (the last bucket is open).
AGE_BUCKET_BOUNDS = (60.0, 3600.0, 86400.0, 604800.0)
_AGE_BUCKET_LABELS = ("<=1m", "<=1h", "<=1d", "<=7d", ">7d")

_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")
_ENTRY_RE = re.compile(r"^[0-9a-f]{64}\.json$")


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
    resolved coupling graphs, and equal-content circuits or QASM files --
    produce equal fingerprints, and any output-affecting mutation changes it.
    """
    if request.circuit is not None:
        source = _circuit_token(request.circuit)
    elif request.qasm is not None:
        source = _qasm_token(request.qasm)
    else:
        source = {"kind": "generate", "spec": str(request.generate).strip()}
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


def payload_digest(payload: dict) -> str:
    """The integrity digest embedded in (and verified against) disk entries."""
    return _sha256(_canonical_json(payload))


# ---------------------------------------------------------------------------
# The sharded disk catalog
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _CatalogEntry:
    """One disk entry as the writer's in-memory catalog sees it.

    ``size`` is the actual payload file size (the directory is truth);
    ``seq`` is the monotonic last-access sequence driving LRU eviction
    (deterministic: no wall-clock comparisons), ``created`` the wall-clock
    time of the first store, kept only in the shard index (the age
    histogram reads each file's ``st_mtime``).
    """

    fingerprint: str
    size: int
    created: float
    seq: int

    @property
    def shard(self) -> str:
        return self.fingerprint[:2]


def _fresh_stats() -> dict:
    return {
        "memory_hits": 0,
        "disk_hits": 0,
        "misses": 0,
        "stores": 0,
        "evictions": 0,
        "evicted_bytes": 0,
        "integrity_misses": 0,
        "stale_index_misses": 0,
    }


def _check_bound(value, name: str) -> int | None:
    if value is None:
        return None
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a positive integer or None, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be a positive integer or None, got {value}")
    return value


def _finite(value) -> bool:
    """Whether a persisted metadata field is a finite number (not a bool)."""
    return type(value) in (int, float) and math.isfinite(value)


def _atomic_write(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` through a sibling temp file and a rename.

    Readers see the old file or the new one, never a partial write; a failed
    write leaves no temp file behind.
    """
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# The two-tier store
# ---------------------------------------------------------------------------


class CompileCache:
    """Content-addressed store of compile results, keyed by fingerprint.

    Args:
        max_memory_entries: capacity of the in-process LRU tier (0 disables
            the memory tier entirely).
        directory: directory of the on-disk tier; ``None`` (the default)
            keeps the cache memory-only.
        max_bytes: global byte bound of the disk tier (LRU eviction keeps the
            store at or below it); ``None`` leaves it unbounded.
        max_entries: global entry-count bound of the disk tier; ``None``
            leaves it unbounded.
        readonly: open the disk tier read-only -- lookups are served from a
            shared directory but nothing is ever written (no entries, no
            index appends, no eviction).  Requires
            ``directory``.
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
        if max_memory_entries < 0:
            raise ValueError("max_memory_entries must be non-negative")
        self.max_memory_entries = int(max_memory_entries)
        self.directory = Path(directory) if directory is not None else None
        self.max_bytes = _check_bound(max_bytes, "max_bytes")
        self.max_entries = _check_bound(max_entries, "max_entries")
        self.readonly = bool(readonly)
        if self.readonly and self.directory is None:
            raise ValueError("readonly=True requires a cache directory")
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self.stats = _fresh_stats()
        # Guards _memory and stats; taken inside _disk_lock, never around it.
        self._memory_lock = threading.Lock()
        # Guards the catalog, dirty shards, sequence, _meta and every disk write.
        self._disk_lock = threading.Lock()
        # Writer-side disk catalog, built lazily on the first disk write/hit.
        self._catalog: dict[str, _CatalogEntry] | None = None
        self._dirty_shards: set[str] = set()
        self._seq = 0
        self._meta = {"evictions": 0, "evicted_bytes": 0}

    # -- lookups -------------------------------------------------------------

    def lookup(self, fingerprint: str, request: CompileRequest) -> CompileResult | None:
        """The cached result for ``fingerprint``, or ``None`` on a miss.

        Hits rebuild the stored payload into a fresh :class:`CompileResult`
        carrying the caller's ``request``; a memory hit's routed circuit
        reads its table (which :meth:`store` wrote or a disk hit decoded) on
        first use.  A disk hit decodes here, so any undecodable entry
        (corrupt JSON, truncated file, schema or payload version mismatch,
        integrity digest or index size mismatch) is a logged miss; this
        method never raises on bad cache state.
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

    # -- disk layout ---------------------------------------------------------

    def _entry_path(self, fingerprint: str) -> Path:
        return self.directory / fingerprint[:2] / f"{fingerprint}.json"

    def _index_path(self, shard: str) -> Path:
        return self.directory / shard / INDEX_NAME

    def _meta_path(self) -> Path:
        return self.directory / META_NAME

    def _scan_shard_dirs(self):
        """Yield ``(shard, Path)`` for every shard directory, tolerantly."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in sorted(names):
            if _SHARD_RE.match(name):
                yield name, self.directory / name

    def _scan_entry_files(self, directory: Path):
        """Yield payload-entry ``Path``s in one directory, tolerantly."""
        try:
            names = os.listdir(directory)
        except OSError:
            return
        for name in sorted(names):
            if _ENTRY_RE.match(name):
                yield directory / name

    def _disk_entries(self) -> list[Path]:
        """Every sharded payload file, sorted (tolerant)."""
        if self.directory is None or not self.directory.is_dir():
            return []
        return [
            path
            for _, shard_dir in self._scan_shard_dirs()
            for path in self._scan_entry_files(shard_dir)
        ]

    # -- the writer catalog --------------------------------------------------

    def _catalog_entries(self) -> dict[str, _CatalogEntry]:
        if self._catalog is None:
            self._catalog = self._load_catalog()
        return self._catalog

    def _load_catalog(self) -> dict[str, _CatalogEntry]:
        """Reconcile every shard index against the directory contents.

        The directory is the source of truth: entry files present on disk
        define the store, the index only contributes created/last-access
        metadata.  Files the index has never heard of (a crash between the
        payload rename and the index append) are adopted with synthesized
        metadata; index records whose payload vanished (a crash mid-eviction)
        are dropped.  Either inconsistency marks the shard dirty so the next
        write compacts its index.  This loader never raises on bad state.
        """
        catalog: dict[str, _CatalogEntry] = {}
        self._dirty_shards = set()
        meta = self._read_meta() or {"evictions": 0, "evicted_bytes": 0, "seq": 0}
        if self.directory.is_dir():
            for shard, shard_dir in self._scan_shard_dirs():
                index_meta = self._read_index(shard, shard_dir)
                for path in self._scan_entry_files(shard_dir):
                    fingerprint = path.name[:-5]
                    try:
                        stat = path.stat()
                    except OSError:
                        continue  # vanished mid-scan: skip, never raise
                    known = index_meta.pop(fingerprint, None)
                    if known is None:
                        # orphan payload: adopt as coldest, reindex on write
                        self._dirty_shards.add(shard)
                        catalog[fingerprint] = _CatalogEntry(
                            fingerprint, stat.st_size, stat.st_mtime, 0
                        )
                        continue
                    if known.get("size") != stat.st_size:
                        self._dirty_shards.add(shard)
                    catalog[fingerprint] = _CatalogEntry(
                        fingerprint,
                        stat.st_size,
                        float(known["created"] or stat.st_mtime),
                        int(known["seq"]),
                    )
                if index_meta:
                    # index records whose payloads are gone: stale, compact away
                    self._dirty_shards.add(shard)
        self._meta = {"evictions": meta["evictions"], "evicted_bytes": meta["evicted_bytes"]}
        self._seq = max([meta["seq"]] + [entry.seq for entry in catalog.values()])
        return catalog

    def _read_meta(self) -> dict | None:
        """The ``evictions``, ``evicted_bytes`` and ``seq`` counters of ``_meta.json``.

        ``None`` for a memory-only cache, and when the file is missing,
        unreadable, or anything but a JSON object whose counters are
        non-negative integers.
        """
        if self.directory is None:
            return None
        try:
            loaded = json.loads(self._meta_path().read_bytes())
        except (OSError, ValueError):
            return None
        if not isinstance(loaded, dict):
            return None
        meta = {key: loaded.get(key, 0) for key in ("evictions", "evicted_bytes", "seq")}
        if all(type(value) is int and value >= 0 for value in meta.values()):
            return meta
        return None

    def _read_index(self, shard: str, shard_dir: Path) -> dict[str, dict]:
        """Parse one shard's ``index.jsonl`` tolerantly (last record wins).

        A line that is not JSON, or a record whose numeric fields are not
        finite numbers, counts as unreadable and marks the shard dirty.
        """
        records: dict[str, dict] = {}
        try:
            text = (shard_dir / INDEX_NAME).read_text(errors="replace")
        except OSError:
            return records
        torn = 0
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                torn += 1
                continue
            if not isinstance(record, dict):
                torn += 1
                continue
            fingerprint = record.get("fp")
            if not isinstance(fingerprint, str):
                continue
            if record.get("op") == "put":
                fields = ("size", "created", "seq")
            elif record.get("op") == "touch" and fingerprint in records:
                fields = ("seq",)
            else:
                continue
            values = {name: record.get(name) for name in fields}
            if not all(_finite(value) for value in values.values()):
                torn += 1
                continue
            records.setdefault(fingerprint, {}).update(values)
        if torn:
            logger.warning(
                "cache index %s/%s has %d unreadable line(s); will compact on next write",
                shard, INDEX_NAME, torn,
            )
            self._dirty_shards.add(shard)
        return records

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _append_index(self, fingerprint: str, record: dict) -> None:
        """Append one record to the entry's shard index."""
        with open(self._index_path(fingerprint[:2]), "a") as handle:
            handle.write(_canonical_json(record) + "\n")

    def _touch(self, fingerprint: str) -> None:
        """Record a disk hit in the LRU order (writer handles only)."""
        if self.readonly or self.directory is None:
            return
        try:
            with self._disk_lock:
                entry = self._catalog_entries().get(fingerprint)
                if entry is None:
                    return
                entry.seq = self._next_seq()
                self._append_index(
                    fingerprint,
                    {
                        "op": "touch",
                        "fp": fingerprint,
                        "seq": entry.seq,
                        "ts": round(time.time(), 3),
                    },
                )
        except OSError as exc:
            logger.warning("cannot record cache access for %s (%s)",
                           fingerprint[:12], exc)

    def _rewrite_shard_index(self, shard: str) -> None:
        """Atomically rewrite one shard's index from the catalog (compaction)."""
        catalog = self._catalog_entries()
        entries = sorted(
            (e for e in catalog.values() if e.shard == shard),
            key=lambda e: e.fingerprint,
        )
        shard_dir = self.directory / shard
        if not entries:
            # the shard emptied out: drop its index and (if possible) the dir
            try:
                (shard_dir / INDEX_NAME).unlink()
            except OSError:
                pass
            try:
                shard_dir.rmdir()
            except OSError:
                pass  # stray temp files or a concurrent writer: leave it
            return
        shard_dir.mkdir(parents=True, exist_ok=True)
        lines = [
            _canonical_json(
                {
                    "op": "put",
                    "fp": entry.fingerprint,
                    "size": entry.size,
                    "schema": CACHE_SCHEMA_VERSION,
                    "created": round(entry.created, 3),
                    "seq": entry.seq,
                }
            )
            + "\n"
            for entry in entries
        ]
        _atomic_write(self._index_path(shard), "".join(lines))

    def _compact_dirty_shards(self) -> None:
        for shard in sorted(self._dirty_shards):
            self._rewrite_shard_index(shard)
        self._dirty_shards = set()

    def _write_meta(self) -> None:
        record = {
            "schema": CACHE_SCHEMA_VERSION,
            "evictions": self._meta["evictions"],
            "evicted_bytes": self._meta["evicted_bytes"],
            "seq": self._seq,
        }
        _atomic_write(self._meta_path(), json.dumps(record, sort_keys=True))

    def _enforce_bounds(self) -> None:
        """Evict LRU entries (one batch) until the store is within bounds.

        Victim order is deterministic: ascending last-access sequence with
        the fingerprint as tie-break, so identical operation histories evict
        identical entries regardless of timing.
        """
        if self.max_bytes is None and self.max_entries is None:
            return
        catalog = self._catalog_entries()
        entries = len(catalog)
        total = sum(entry.size for entry in catalog.values())
        victims: list[_CatalogEntry] = []
        if (self.max_entries is not None and entries > self.max_entries) or (
            self.max_bytes is not None and total > self.max_bytes
        ):
            for entry in sorted(catalog.values(), key=lambda e: (e.seq, e.fingerprint)):
                over_entries = (
                    self.max_entries is not None and entries > self.max_entries
                )
                over_bytes = self.max_bytes is not None and total > self.max_bytes
                if not over_entries and not over_bytes:
                    break
                victims.append(entry)
                entries -= 1
                total -= entry.size
        if not victims:
            return
        shards: set[str] = set()
        freed = 0
        for entry in victims:
            try:
                self._entry_path(entry.fingerprint).unlink()
            except OSError:
                pass  # already gone: the bound still holds
            del catalog[entry.fingerprint]
            shards.add(entry.shard)
            freed += entry.size
        with self._memory_lock:
            for entry in victims:
                self._memory.pop(entry.fingerprint, None)
            self.stats["evictions"] += len(victims)
            self.stats["evicted_bytes"] += freed
        current_tracer().count("cache.evictions", len(victims))
        self._meta["evictions"] += len(victims)
        self._meta["evicted_bytes"] += freed
        try:
            for shard in sorted(shards):
                self._rewrite_shard_index(shard)
            self._write_meta()
        except OSError as exc:
            logger.warning("cannot persist cache index after eviction (%s)", exc)
        logger.debug("evicted %d cache entries (%d bytes)", len(victims), freed)

    # -- disk tier -----------------------------------------------------------

    def _disk_get(self, fingerprint: str) -> dict | None:
        path = self._entry_path(fingerprint)
        try:
            raw = path.read_bytes()
            envelope = json.loads(raw)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            logger.warning("cache entry %s unreadable (%s); treating as miss",
                           path.name, exc)
            return None
        if not isinstance(envelope, dict):
            logger.warning("cache entry %s malformed (not an object); treating as miss",
                           path.name)
            return None
        if envelope.get("schema") != CACHE_SCHEMA_VERSION:
            logger.warning(
                "cache entry %s has schema %r != %r; treating as miss",
                path.name, envelope.get("schema"), CACHE_SCHEMA_VERSION,
            )
            return None
        if envelope.get("fingerprint") != fingerprint:
            logger.warning("cache entry %s fingerprint mismatch; treating as miss",
                           path.name)
            return None
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            return None
        digest = envelope.get("digest")
        if digest is not None and digest != payload_digest(payload):
            # Bit rot that still parses as JSON: the embedded digest catches it.
            logger.warning(
                "cache entry %s failed integrity verification; treating as miss",
                path.name,
            )
            self._count("integrity_misses")
            return None
        with self._disk_lock:
            entry = self._catalog.get(fingerprint) if self._catalog is not None else None
            if entry is None or entry.size == len(raw):
                return payload
            # The index disagrees with the bytes on disk: distrust both,
            # recompute, and let the next write reindex the entry.
            logger.warning(
                "cache entry %s size %d != indexed %d (stale index); "
                "treating as miss", path.name, len(raw), entry.size,
            )
            entry.size = len(raw)
            self._dirty_shards.add(fingerprint[:2])
        self._count("stale_index_misses")
        return None

    def _disk_put(self, fingerprint: str, payload: dict) -> None:
        envelope = {
            "schema": CACHE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "digest": payload_digest(payload),
            "payload": payload,
        }
        text = json.dumps(envelope, sort_keys=True)
        try:
            with self._disk_lock:
                catalog = self._catalog_entries()
                path = self._entry_path(fingerprint)
                path.parent.mkdir(parents=True, exist_ok=True)
                _atomic_write(path, text)
                try:
                    size = path.stat().st_size
                except OSError:
                    size = len(text)
                previous = catalog.get(fingerprint)
                created = previous.created if previous is not None else time.time()
                seq = self._next_seq()
                catalog[fingerprint] = _CatalogEntry(fingerprint, size, created, seq)
                self._append_index(
                    fingerprint,
                    {
                        "op": "put",
                        "fp": fingerprint,
                        "size": size,
                        "schema": CACHE_SCHEMA_VERSION,
                        "created": round(created, 3),
                        "seq": seq,
                    },
                )
                self._compact_dirty_shards()
                self._enforce_bounds()
        except OSError as exc:
            logger.warning("cannot persist cache entry %s (%s); memory tier only",
                           fingerprint[:12], exc)

    # -- introspection / maintenance -----------------------------------------

    def disk_stats(self) -> dict:
        """Aggregate statistics of the disk tier (the ``cache info`` payload).

        Reports total bytes and entry count, per-shard bytes/entries, the age
        in seconds of the oldest and newest entries, an entry-age histogram and
        the persisted eviction counters.  Shared by ``repro-map cache info``
        and the compile service's ``/metrics`` endpoint, so both surfaces
        always agree.  The directory may be shared with concurrently writing
        or clearing processes: an entry unlinked between scan and stat is
        skipped, never raised.
        """
        entries = 0
        total_bytes = 0
        oldest_mtime: float | None = None
        newest_mtime: float | None = None
        shards: dict[str, dict] = {}
        ages = [0] * len(_AGE_BUCKET_LABELS)
        now = time.time()
        for path in self._disk_entries():
            try:
                stat = path.stat()
            except OSError:
                continue  # vanished mid-scan (e.g. a concurrent clear)
            shard = path.parent.name
            entries += 1
            total_bytes += stat.st_size
            bucket = shards.setdefault(shard, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += stat.st_size
            if oldest_mtime is None or stat.st_mtime < oldest_mtime:
                oldest_mtime = stat.st_mtime
            if newest_mtime is None or stat.st_mtime > newest_mtime:
                newest_mtime = stat.st_mtime
            age = max(0.0, now - stat.st_mtime)
            for index, bound in enumerate(AGE_BUCKET_BOUNDS):
                if age <= bound:
                    ages[index] += 1
                    break
            else:
                ages[-1] += 1
        evictions, evicted_bytes = self._persisted_evictions()
        return {
            "entries": entries,
            "bytes": total_bytes,
            "shards": shards,
            "age_histogram": dict(zip(_AGE_BUCKET_LABELS, ages)),
            "evictions": evictions,
            "evicted_bytes": evicted_bytes,
            "oldest_age_seconds": (
                max(0.0, round(now - oldest_mtime, 3)) if oldest_mtime is not None else None
            ),
            "newest_age_seconds": (
                max(0.0, round(now - newest_mtime, 3)) if newest_mtime is not None else None
            ),
        }

    def _persisted_evictions(self) -> tuple[int, int]:
        """Cumulative eviction counters from ``_meta.json`` (tolerant)."""
        meta = self._read_meta() or self._meta
        return meta["evictions"], meta["evicted_bytes"]

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
            "disk_entries": disk["entries"],
            "disk_bytes": disk["bytes"],
            "disk_shards": disk["shards"],
            "disk_age_histogram": disk["age_histogram"],
            "disk_evictions": disk["evictions"],
            "disk_evicted_bytes": disk["evicted_bytes"],
            "disk_oldest_age_seconds": disk["oldest_age_seconds"],
            "disk_newest_age_seconds": disk["newest_age_seconds"],
            "hit_rate": round(hits / lookups, 4) if lookups else None,
            "stats": stats,
        }

    def clear(self) -> dict:
        """Drop every entry in both tiers; return per-tier removal counts.

        A ``readonly`` handle only clears its memory tier -- the shared disk
        store is left untouched.
        """
        with self._memory_lock:
            removed = {"memory_entries": len(self._memory), "disk_entries": 0}
            self._memory.clear()
        if self.readonly:
            return removed
        with self._disk_lock:
            for path in self._disk_entries():
                try:
                    path.unlink()
                except OSError as exc:
                    logger.warning("cannot remove cache entry %s (%s)", path.name, exc)
                else:
                    removed["disk_entries"] += 1
            if self.directory is not None and self.directory.is_dir():
                for _, shard_dir in self._scan_shard_dirs():
                    try:
                        (shard_dir / INDEX_NAME).unlink()
                    except OSError:
                        pass
                    try:
                        shard_dir.rmdir()
                    except OSError:
                        pass  # non-empty (a concurrent writer) or already gone
                try:
                    self._meta_path().unlink()
                except OSError:
                    pass
            self._catalog = None
            self._dirty_shards = set()
            self._meta = {"evictions": 0, "evicted_bytes": 0}
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
