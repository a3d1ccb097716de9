"""Content-addressed on-disk result cache (the campaign's L2).

Each entry is one strict-JSON file named by the SHA-256 of its canonical
key material (full profile + config + run parameters + code-version salt).
The salt hashes every ``repro`` source file, so editing the simulator
invalidates old results instead of silently serving them; ``gc`` reclaims
entries written under a different salt.

An entry is the object ``{"digest", "salt", "schema", "meta", "bytes",
"crc32", "payload", "tree", "z"}``, laid out on five lines::

    {"digest":"…","salt":"…","schema":3,"meta":{…},"bytes":N,"crc32":C,"payload":
    {"schema":8,"engine":"…","stats":null,…,"cycles":…,"instructions":…}
    ,"tree":{…the packed stats envelope's tree, as plain JSON…}
    ,"z":"…the envelope's base64 column block…"
    }

The first line is the header: ``schema`` is the entry layout (3), and
``bytes`` and ``crc32`` are the length and CRC-32 of the three body lines
between it and the closing brace. The payload is the worker's compact
form (:func:`repro.orchestrator.serialize.payload_from_run`), whose stats
envelope is packed into a small-value tree (one JSON string) and one
zlib-compressed column block (``"@z"``); ``cycles`` and ``instructions``
sit at its top level. The entry stores that tree and block each on a
line of its own and leaves ``null`` in the payload's ``"stats"``, so a
read is one file read, one checksum and a parse of two short lines:
:func:`read_entry` slices the tree and block back into the envelope as
strings, and no stats are decoded until someone reads them. A payload
whose stats are not such an envelope stays whole on the payload line,
and its tree and block lines hold ``null``. Every reader goes through
:func:`read_entry`; ``gc`` reads the header line alone. Nothing on disk
is pickled: tenants of one service share the directory.

Concurrency contract (many processes may share one cache directory):

* ``put`` is atomic (temp file + ``os.replace``) — concurrent writers of
  the same digest can only race to install identical bytes, and readers
  never observe a partial file.
* ``stage`` is the write-behind form of ``put``: this process's ``get``
  and ``contains`` serve a staged entry from memory at once, and
  ``flush`` writes it through ``put`` later, off the caller's critical
  path. Other processes see it once it is flushed; a flush that fails
  drops the entry, so it is served but not cached.
* ``get`` verifies integrity: the header parses, is layout 3 and names
  the digest of its filename, the body lines have the stored length and
  CRC-32, and the payload line parses. Any mismatch (a truncated file, a
  renamed one, one edited or flipped byte anywhere in the payload, tree
  or block) counts as a miss and removes the file; ``evict`` removes
  such entries the same way.
* ``inventory``/``gc`` tolerate entries vanishing underneath them — a
  concurrent ``gc`` or eviction from another process is not an error.
* Maintenance that removes files (``gc``, ``evict``) serializes on an
  advisory ``fcntl`` lock at ``<root>/.lock``, so two sweepers never
  double-count removals or re-create half-empty shards.
* A writer killed between ``mkstemp`` and ``os.replace`` leaves a
  ``*.tmp`` orphan; ``gc`` reaps orphans older than ``tmp_max_age``
  seconds and ``inventory`` reports them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.orchestrator.points import SimPoint
from repro.orchestrator.serialize import compact_json, point_key_material

ENV_CACHE_DIR = "REPRO_CACHE_DIR"

# Orphaned *.tmp files younger than this are presumed to belong to a
# live writer mid-``put`` and are left alone by ``gc``.
TMP_MAX_AGE = 3600.0

# Entry layout: v1 was one JSON object on one line; v2 puts the header
# on its own line with the length and CRC-32 of the payload line; v3
# moves the packed stats tree (as plain JSON, not an escaped string) and
# the base64 column block out of the payload onto lines of their own, so
# a read parses no long string, and the CRC-32 covers all three lines.
ENTRY_SCHEMA = 3

_loads = json.JSONDecoder().decode
# What ends the header line, what starts the tree and block lines, and
# the line that ends the entry.
_HEADER_END = b',"payload":'
_TREE = b',"tree":'
_BLOCK = b',"z":'
_ENTRY_END = b"\n}\n"

_code_salt_cache: str | None = None


def code_salt() -> str:
    """Hash of every ``repro`` source file: the cache's code-version salt."""
    global _code_salt_cache
    if _code_salt_cache is None:
        import repro

        package_root = pathlib.Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_salt_cache = digest.hexdigest()[:16]
    return _code_salt_cache


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-sim``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-sim"


def point_digest(point: SimPoint, salt: str | None = None,
                 engine: str | None = None) -> str:
    """Stable content address of one simulation point.

    ``engine`` is normally None (results are engine-neutral — the kernels
    are bit-exact); an engine-drift audit passes the engine it insists on
    to get a key space disjoint from ordinary campaign entries."""
    material = point_key_material(point, salt if salt is not None
                                  else code_salt(), engine)
    return hashlib.sha256(material.encode()).hexdigest()


def read_entry(path: str | os.PathLike, digest: str | None = None,
               header_only: bool = False) -> tuple[dict[str, Any], Any]:
    """``(header, payload)`` of the entry stored at ``path``.

    Raises :class:`ValueError` unless the header line parses, is entry
    layout :data:`ENTRY_SCHEMA` and (when ``digest`` is given) names that
    digest, the body lines have the header's length and CRC-32, and the
    payload line parses; a missing or unreadable file raises
    :class:`OSError`. Only the header and payload lines go through the
    JSON decoder: the tree and block lines are sliced back into the
    payload's packed stats envelope, ``{"@z": block, "tree": tree}``, as
    the strings :func:`repro.orchestrator.serialize.unpack_envelope`
    reads. With ``header_only`` only the header line is read and
    checked, and the payload comes back as None."""
    with open(path, "rb") as handle:
        data = handle.readline() if header_only else handle.read()
    end = data.find(b"\n")
    try:
        if end < 0 or not data.startswith(_HEADER_END,
                                          end - len(_HEADER_END), end):
            raise ValueError("no entry header line")
        header = _loads(data[:end - len(_HEADER_END)].decode() + "}")
        if header["schema"] != ENTRY_SCHEMA:
            raise ValueError(f"entry layout {header['schema']!r}")
        if digest is not None and header["digest"] != digest:
            raise ValueError("digest/filename mismatch")
        if header_only:
            return header, None
        start = end + 1
        stop = start + header["bytes"]
        if data[stop:] != _ENTRY_END or \
                zlib.crc32(memoryview(data)[start:stop]) != header["crc32"]:
            raise ValueError("body length or CRC-32 mismatch")
        # Each line is sliced out of ``data`` once: splitting the body
        # first would copy the block twice.
        tree_at = data.find(b"\n", start, stop) + 1
        block_at = data.find(b"\n", tree_at, stop) + 1
        if not (tree_at and data.startswith(_TREE, tree_at)
                and data.startswith(_BLOCK, block_at)):
            raise ValueError("no tree or block line")
        payload = _loads(data[start:tree_at - 1].decode())
        tree_at += len(_TREE)
        if not data.startswith(b"null\n", tree_at):
            payload["stats"] = {
                "@z": data[block_at + len(_BLOCK) + 1:stop - 1].decode(),
                "tree": data[tree_at:block_at - 1].decode()}
        return header, payload
    except (KeyError, TypeError) as error:
        raise ValueError(f"corrupt cache entry: {error!r}") from error


def _entry_body(payload: dict[str, Any]) -> bytes:
    """The three body lines of ``payload``'s entry: the payload, then a
    packed stats envelope's tree and block (``null`` when the payload
    keeps its stats). Both are written as they are, so
    :func:`read_entry` slices back exactly these strings."""
    stats = payload.get("stats")
    if type(stats) is dict and stats.keys() == {"@z", "tree"} \
            and type(stats["tree"]) is str and type(stats["@z"]) is str:
        return b"\n".join((compact_json({**payload, "stats": None}).encode(),
                           _TREE + stats["tree"].encode(),
                           b'%s"%s"' % (_BLOCK, stats["@z"].encode())))
    return b"\n".join((compact_json(payload).encode(), _TREE + b"null",
                       _BLOCK + b"null"))


@dataclass
class CacheCounters:
    """Hit/miss accounting for one cache tier."""

    hits: int = 0
    misses: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


@dataclass
class ResultCache:
    """Directory of content-addressed simulation results."""

    root: pathlib.Path
    counters: CacheCounters = field(default_factory=CacheCounters)
    # digest -> (payload, meta) staged for a later flush().
    _staged: dict[str, tuple[dict[str, Any], dict[str, Any] | None]] = \
        field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root)

    def _file(self, digest: str) -> str:
        # Two-character shard keeps directories small at campaign scale.
        return f"{self.root}/{digest[:2]}/{digest}.json"

    def _path(self, digest: str) -> pathlib.Path:
        return pathlib.Path(self._file(digest))

    @contextlib.contextmanager
    def locked(self) -> Iterator[None]:
        """Advisory exclusive lock over cache maintenance.

        Serializes cross-process ``gc``/``evict`` sweeps. Readers and
        writers never take it — ``put`` is atomic and ``get`` tolerates
        vanishing files — so the lock only ever contends with another
        sweeper.
        """
        if fcntl is None:  # pragma: no cover — non-POSIX fallback
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with (self.root / ".lock").open("a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def get(self, digest: str) -> dict[str, Any] | None:
        """The stored payload for ``digest``, or None on miss.

        Integrity-checked by :func:`read_entry`: an entry that fails it
        (unparseable, another layout, a stored digest that does not match
        its filename, body lines whose length or CRC-32 differs from the
        header's) counts as a miss and is removed. A staged entry is
        a hit served from memory."""
        staged = self._staged.get(digest)
        if staged is not None:
            self.counters.hits += 1
            return staged[0]
        path = self._file(digest)
        try:
            _, payload = read_entry(path, digest)
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except (OSError, ValueError):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return payload

    def put(self, digest: str, payload: dict[str, Any],
            meta: dict[str, Any] | None = None) -> None:
        """Atomically store ``payload`` under ``digest``.

        Content-addressed writes are idempotent, so a concurrent
        aggressive ``gc(tmp_max_age=0)`` or shard eviction racing this
        writer (reaping the tmp file or the shard directory mid-put) is
        absorbed by retrying, not surfaced to the caller.
        """
        path = self._path(digest)
        # Whole-string encodes run the C encoder; json.dump onto a handle
        # would stream through the pure-Python one.
        body = _entry_body(payload)
        header = compact_json({
            "digest": digest,
            "salt": code_salt(),
            "schema": ENTRY_SCHEMA,
            "meta": meta or {},
            "bytes": len(body),
            "crc32": zlib.crc32(body),
        }).encode("utf-8")
        data = b"".join((header[:-1], _HEADER_END, b"\n", body, _ENTRY_END))
        for attempt in range(4):
            tmp_name = None
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                                suffix=".tmp")
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_name, path)
                return
            except FileNotFoundError:
                if attempt == 3:
                    raise
            except BaseException:
                if tmp_name is not None:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
                raise

    def stage(self, digest: str, payload: dict[str, Any],
              meta: dict[str, Any] | None = None) -> None:
        """Serve ``payload`` under ``digest`` from memory now and write
        it to disk at the next :meth:`flush`."""
        self._staged[digest] = (payload, meta)

    def flush(self) -> None:
        """Write every staged entry through :meth:`put`, then drop it
        from memory. A write that raises ``OSError`` drops the entry all
        the same: it was served, just not cached. Concurrent flushes may
        write one entry twice, which ``put`` makes harmless."""
        for digest, (payload, meta) in dict(self._staged).items():
            try:
                self.put(digest, payload, meta)
            except OSError:
                pass
            self._staged.pop(digest, None)

    @property
    def staged(self) -> int:
        """Entries served from memory and not yet on disk."""
        return len(self._staged)

    def contains(self, digest: str) -> bool:
        return digest in self._staged or os.path.exists(self._file(digest))

    # ------------------------------------------------------------------
    # Inventory and maintenance
    # ------------------------------------------------------------------

    def entries(self) -> list[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def tmp_orphans(self) -> list[pathlib.Path]:
        """Leftover ``*.tmp`` files from writers that died mid-``put``."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.tmp"))

    def inventory(self) -> dict[str, Any]:
        """Entry count, total bytes, per-salt breakdown, orphaned tmp
        files, and the simulated volume banked under the current salt.

        ``sim_seconds``/``sim_cycles``/``sim_instructions`` sum the
        original worker wall-clock and the (schema >= 4) top-level
        cycle/instruction counts of every current-salt entry, so campaign
        throughput (cycles/s) is derivable straight from the cache.

        Safe against concurrent maintenance: entries removed by another
        process mid-scan are skipped, not raised.
        """
        from repro.orchestrator.serialize import CACHE_SCHEMA_VERSION

        salts: dict[str, int] = {}
        engines: dict[str, int] = {}
        total_bytes = 0
        sim_seconds = sim_cycles = 0.0
        sim_instructions = 0
        scanned = stale_schema = 0
        current = code_salt()
        for path in self.entries():
            try:
                size = path.stat().st_size
                header, payload = read_entry(path)
                salt = header.get("salt", "?")
            except FileNotFoundError:
                continue            # vanished under a concurrent gc
            except (OSError, ValueError):
                salt = "?"
                payload = {}
                size = 0
            scanned += 1
            total_bytes += size
            salts[salt] = salts.get(salt, 0) + 1
            if payload.get("schema") != CACHE_SCHEMA_VERSION:
                # Orphaned older (or corrupt) payload: its digest can no
                # longer be looked up — the key material embeds the
                # schema — so it only wastes space until ``gc`` runs.
                stale_schema += 1
            if salt == current:
                engine = payload.get("engine", "scalar")
                engines[engine] = engines.get(engine, 0) + 1
                sim_seconds += payload.get("wall_clock", 0.0)
                sim_cycles += payload.get("cycles", 0.0)
                sim_instructions += int(payload.get("instructions", 0))
        tmp_bytes = 0
        orphans = self.tmp_orphans()
        for path in orphans:
            try:
                tmp_bytes += path.stat().st_size
            except OSError:
                continue
        return {
            "root": str(self.root),
            "entries": scanned,
            "bytes": total_bytes,
            "salts": salts,
            "engines": engines,
            "stale_schema": stale_schema,
            "current_salt": current,
            "tmp_orphans": len(orphans),
            "tmp_bytes": tmp_bytes,
            "sim_seconds": sim_seconds,
            "sim_cycles": sim_cycles,
            "sim_instructions": sim_instructions,
        }

    def gc(self, all_entries: bool = False,
           tmp_max_age: float = TMP_MAX_AGE) -> int:
        """Remove stale entries (different code salt), or everything with
        ``all_entries``, plus orphaned ``*.tmp`` files older than
        ``tmp_max_age`` seconds; returns the number of files removed.

        Holds the advisory maintenance lock, so concurrent sweepers from
        other processes serialize instead of double-counting."""
        from repro.observe.slog import log_for_run

        with self.locked():
            removed = self._gc_locked(all_entries, tmp_max_age)
        log = log_for_run()
        if log is not None:
            log.emit("cache.gc", root=str(self.root), removed=removed,
                     all_entries=all_entries)
        return removed

    def _gc_locked(self, all_entries: bool, tmp_max_age: float) -> int:
        current = code_salt()
        removed = 0
        for path in self.entries():
            if not all_entries:
                try:
                    salt = read_entry(path, header_only=True)[0].get("salt")
                except FileNotFoundError:
                    continue        # vanished under a concurrent writer
                except (OSError, ValueError):
                    salt = None
                # Stale-schema payloads and older entry layouts are
                # always written under an older code salt — the salt
                # hashes the source that defines them — so the salt sweep
                # reclaims them; ``inventory`` reports them as
                # ``stale_schema``.
                if salt == current:
                    continue
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                continue
        now = time.time()
        for path in self.tmp_orphans():
            try:
                if now - path.stat().st_mtime < tmp_max_age:
                    continue        # a live writer is mid-put
                path.unlink()
                removed += 1
            except OSError:
                continue
        self._drop_empty_shards()
        return removed

    def evict(self, max_bytes: int) -> dict[str, Any]:
        """Shard-level eviction: drop whole shards, oldest first, until
        the cache fits in ``max_bytes``.

        Shard age is the newest entry mtime it contains, so recently
        written/refreshed shards survive. The scan integrity-checks every
        entry as ``get`` does (:func:`read_entry`) and removes corrupt
        ones outright — they can never be served anyway. Runs under the
        advisory maintenance lock."""
        with self.locked():
            shards: list[tuple[float, int, pathlib.Path, list]] = []
            corrupt_removed = 0
            for shard in sorted(self.root.glob("*")):
                if not shard.is_dir():
                    continue
                newest = 0.0
                size = 0
                files = []
                for path in sorted(shard.glob("*.json")):
                    try:
                        stat = path.stat()
                        read_entry(path, path.stem)
                    except FileNotFoundError:
                        continue
                    except (OSError, ValueError):
                        path.unlink(missing_ok=True)
                        corrupt_removed += 1
                        continue
                    newest = max(newest, stat.st_mtime)
                    size += stat.st_size
                    files.append(path)
                shards.append((newest, size, shard, files))

            total = sum(size for _, size, _, _ in shards)
            evicted_shards = removed_entries = removed_bytes = 0
            for newest, size, shard, files in sorted(shards):
                if total <= max_bytes:
                    break
                if not files:
                    continue
                for path in files:
                    path.unlink(missing_ok=True)
                    removed_entries += 1
                total -= size
                removed_bytes += size
                evicted_shards += 1
            self._drop_empty_shards()
            report = {
                "max_bytes": max_bytes,
                "bytes": total,
                "evicted_shards": evicted_shards,
                "removed_entries": removed_entries,
                "removed_bytes": removed_bytes,
                "corrupt_removed": corrupt_removed,
            }
        from repro.observe.slog import log_for_run

        log = log_for_run()
        if log is not None:
            log.emit("cache.evict", root=str(self.root), **report)
        return report

    def _drop_empty_shards(self) -> None:
        for shard in self.root.glob("*"):
            try:
                if shard.is_dir() and not any(shard.iterdir()):
                    shard.rmdir()
            except OSError:
                continue            # a concurrent writer refilled it
