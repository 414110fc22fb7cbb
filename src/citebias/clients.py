"""Offline index clients, the disk cache and the stage-artifact codec.

Two external services back the pipeline: a preprint index (harvesting
candidate papers) and a scholarly index (resolution, enrichment, title
search). ``FixtureIndexClient`` stands in for both with a directory of
canned JSON, read in one pass by ``read_tree``, which also feeds the
run's input digest. ``CachedScholarClient`` serves every scholar read
through ``JsonCache``, one append-only log per service. ``to_json`` and
``from_json`` are the codec of every stage artifact, and
``atomic_write_text`` writes each one. The HTTP clients of a live run
are in ``live``, which this module never imports. Paths are strings:
pathlib interns each part it parses, which over many runs in one
process rebuilds the intern table ever larger.

Wire formats (JSON):

* preprint record::

    {"preprint_id": "2203.01234", "title": "...", "authors": ["..."],
     "journal_ref": "NeurIPS 2022", "posted_date": "2022-03-05",
     "categories": ["cs.LG"], "license": "CC-BY-4.0"}

* scholarly paper::

    {"index_id": "p001", "title": "...", "authors": ["..."],
     "venue": "...", "year": 2021, "citation_count": 10,
     "influential_citation_count": 2, "reference_count": 30,
     "references": ["p002", "p003"]}
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import heapq
import json
import operator
import os
import re
import threading
import types
import typing
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Protocol

from .errors import IndexParseError
from .textnorm import title_key, tokens

CACHE_SCHEMA_VERSION = 1

_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]")


def safe_filename(identifier: str) -> str:
    """Map an arbitrary id to a filesystem-safe name, stable across runs."""
    cleaned = _SAFE_RE.sub("_", identifier)
    if cleaned != identifier or len(cleaned) > 120:
        digest = hashlib.sha256(identifier.encode("utf-8")).hexdigest()[:12]
        cleaned = f"{cleaned[:100]}_{digest}"
    return cleaned


def dump_json(obj: Any) -> str:
    """Deterministic JSON serialization used for all on-disk artifacts."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def to_json(obj: Any) -> Any:
    """JSON-ready form of a stage artifact.

    Dataclasses become objects keyed by field name, ``Fraction`` becomes
    ``[numerator, denominator]``, sets become sorted lists and tuples
    lists; ``from_json`` inverts it given the declared type.
    """
    return _encoder(type(obj))(obj)


def _identity(value: Any) -> Any:
    return value


@functools.cache
def _encoder(cls: type) -> Callable[[Any], Any]:
    """``to_json`` for instances of ``cls``, chosen once per class."""
    if dataclasses.is_dataclass(cls):
        names = tuple(name for name, _ in _field_types(cls))
        return lambda obj: {name: to_json(getattr(obj, name)) for name in names}
    if issubclass(cls, Fraction):
        return lambda obj: [obj.numerator, obj.denominator]
    if issubclass(cls, (set, frozenset)):
        return lambda obj: sorted(to_json(item) for item in obj)
    if issubclass(cls, (list, tuple)):
        return lambda obj: [to_json(item) for item in obj]
    if issubclass(cls, dict):
        return lambda obj: {key: to_json(value) for key, value in obj.items()}
    return _identity


@functools.cache
def _field_types(cls: type) -> tuple[tuple[str, Any], ...]:
    # get_type_hints re-evaluates every annotation on each call
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def from_json(tp: Any, data: Any) -> Any:
    """Rebuild a value of type ``tp`` from its ``to_json`` form.

    Dataclass fields missing from ``data`` take their defaults; keys
    that name no field are ignored.
    """
    return _decoder(tp)(data)


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    """``from_json`` for type ``tp``, composed once from the decoders of
    its parts; a type with no parts to rebuild decodes as the identity."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        (inner,) = [arg for arg in args if arg is not type(None)]
        decode = _decoder(inner)
        return lambda data: None if data is None else decode(data)
    if dataclasses.is_dataclass(tp):
        fields = tuple((name, _decoder(field_tp)) for name, field_tp in _field_types(tp))
        return lambda data: tp(
            **{name: decode(data[name]) for name, decode in fields if name in data}
        )
    if tp is Fraction:
        return lambda data: Fraction(*data)
    if origin in (list, set):
        decode = _decoder(args[0])
        return origin if decode is _identity else lambda data: origin(map(decode, data))
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            decode = _decoder(args[0])
            return tuple if decode is _identity else lambda data: tuple(map(decode, data))
        decoders = tuple(_decoder(arg) for arg in args)
        return lambda data: tuple(decode(item) for decode, item in zip(decoders, data))
    if origin is dict:
        decode = _decoder(args[1])
        return lambda data: {key: decode(value) for key, value in data.items()}
    return _identity


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write via a sibling temp file and rename; readers see old or new, never partial.

    The temp name carries the process and thread ids, so two threads
    writing the same path never share a temp file. The text is encoded
    before the temp file exists, and the temp file is removed on any
    failure, so a text that is not valid Unicode leaves nothing behind.
    The parent directories are made only when the temp file cannot be
    created for want of them.
    """
    data = text.encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    try:
        try:
            fd = os.open(tmp, flags, 0o666)
        except FileNotFoundError:
            # makedirs looks before it makes, so each missing directory
            # costs one mkdir and an existing one none
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(tmp, flags, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_tree(root: Path | str) -> list[tuple[str, bytes]]:
    """Every file under ``root`` as (POSIX relative path, bytes), in
    path-component order, the order ``sorted`` gives the ``Path`` objects.

    Each directory is opened once and its entries are opened relative to
    its descriptor (``dir_fd``), so no path is resolved again from the
    root. Symlinked files are read through; a symlinked directory is not
    entered, as ``Path.rglob`` does not enter it. A file root is one
    entry named ``"."``; a missing root has none.
    """
    if os.path.isfile(root):
        return [(".", _read_file(root))]
    files: list[tuple[str, bytes]] = []
    if os.path.isdir(root):
        _read_dir(os.open(root, _DIR_FLAGS), "", files)
    return files


_DIR_FLAGS = os.O_RDONLY | os.O_DIRECTORY
_entry_name = operator.attrgetter("name")


def _read_dir(dir_fd: int, prefix: str, files: list[tuple[str, bytes]]) -> None:
    # names sorted per directory, depth first: the order of the component
    # tuples, since a directory's files share its prefix. Closes
    # ``dir_fd``. Not a closure: a recursive one is a reference cycle that
    # keeps ``files`` alive until the cyclic collector runs
    try:
        with os.scandir(dir_fd) as it:
            entries = sorted(it, key=_entry_name)
        for entry in entries:
            name = entry.name
            if entry.is_dir(follow_symlinks=False):
                _read_dir(os.open(name, _DIR_FLAGS, dir_fd=dir_fd), prefix + name + "/", files)
            elif entry.is_file():
                files.append((prefix + name, _read_file(name, dir_fd)))
    finally:
        os.close(dir_fd)


_READ_SIZE = 1 << 16


def _read_file(path: str | Path, dir_fd: int | None = None) -> bytes:
    """A file's bytes, read on its descriptor: no ``fstat``, no tty check
    and no buffered file object, as ``open`` would add. A relative
    ``path`` is taken from the directory ``dir_fd`` when given."""
    fd = os.open(path, os.O_RDONLY, dir_fd=dir_fd)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def parallel_map(fn: Callable, items: list, max_in_flight: int = 1) -> list:
    """Apply ``fn`` over items with a bounded worker pool, preserving order.

    With ``max_in_flight`` of one this is a plain loop; rate limiting
    stays with the shared per-service token bucket either way.
    """
    if max_in_flight <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return list(pool.map(fn, items))


def _log_envelope(line: bytes) -> dict | None:
    """The envelope a cache log line holds, or None for a line that does
    not parse or names no id."""
    try:
        envelope = parse_record(line)
    except ValueError:
        return None
    if isinstance(envelope, dict) and isinstance(envelope.get("id"), str):
        return envelope
    return None


class JsonCache:
    """Disk cache for index responses: one append-only log per service.

    ``<root>/<service>.jsonl`` holds one JSON envelope per line. The first
    ``load`` or ``store`` reads the log once into a map from id to the
    bytes of the last intact line for that id; a line that does not parse
    (a torn last line, say) is skipped, so its key is a miss. Each line is
    decoded once there, to read its id, and again by every ``load`` that
    hits it, so no decoded envelope is held and each hit returns a fresh
    one. An envelope of another endpoint, schema version or ``source`` is a
    miss too: the caller recomputes that key only, and its new line wins
    from then on. A fixture run passes its input digest as ``source``, so
    an edited fixture never reads the old one's entries; a live run passes
    none.
    Explicit not-found markers are first-class entries so corpus
    attrition is never a silent gap. ``refresh=True`` never reads the
    log, so only entries stored since the cache opened are served; every
    entry is still appended. The log is never compacted.

    Each entry is appended with one ``os.write`` on a descriptor opened
    for appending, so concurrent writers never interleave within a line.
    A lock guards the map: ingest calls the cache from several threads
    when ``max_in_flight`` is above one.
    """

    def __init__(
        self, root: Path | str, service: str, refresh: bool = False, source: str | None = None
    ):
        self.path = os.path.join(root, f"{service}.jsonl")
        self.refresh = refresh
        self.source = source
        self._lock = threading.Lock()
        self._entries: dict[str, bytes] | None = None
        # the log ends inside a line, so the next append starts a new one
        self._torn_tail = False

    def _loaded(self) -> dict[str, bytes]:
        """The id -> log line map, read from the log on first use. Called
        under the lock."""
        if self._entries is None:
            self._entries = {}
            last = b"\n"
            try:
                with open(self.path, "rb") as fh:
                    if self.refresh:  # only the last byte, for the torn-tail check
                        fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
                    for last in fh:
                        envelope = None if self.refresh else _log_envelope(last)
                        if envelope is not None:
                            self._entries[envelope["id"]] = last
            except FileNotFoundError:
                pass
            self._torn_tail = not last.endswith(b"\n")
        return self._entries

    def load(self, endpoint: str, cache_id: str) -> dict | None:
        """Return the envelope for (endpoint, id), or None on miss."""
        with self._lock:
            line = self._loaded().get(cache_id)
        if line is None:
            return None
        envelope = parse_record(line)
        if (
            envelope.get("schema_version") != CACHE_SCHEMA_VERSION
            or envelope.get("endpoint") != endpoint
            or envelope.get("source") != self.source
            or envelope.get("status") not in ("ok", "not_found")
        ):
            return None
        return envelope

    def store(self, endpoint: str, cache_id: str, payload: Any) -> dict:
        return self._write(endpoint, cache_id, status="ok", payload=payload)

    def store_not_found(self, endpoint: str, cache_id: str, reason: str) -> dict:
        return self._write(endpoint, cache_id, status="not_found", reason=reason)

    def _write(self, endpoint: str, cache_id: str, **entry: Any) -> dict:
        envelope = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "endpoint": endpoint,
            "id": cache_id,
            **entry,
        }
        if self.source is not None:
            envelope["source"] = self.source
        try:
            data = (json.dumps(envelope, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate, which json.loads accepts
            raise IndexParseError(
                f"the {endpoint} response for {cache_id!r} is not valid Unicode ({exc.reason})",
                entry,
            ) from exc
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        with self._lock:
            entries = self._loaded()
            try:
                fd = os.open(self.path, flags, 0o666)
            except FileNotFoundError:
                os.makedirs(os.path.dirname(self.path), exist_ok=True)
                fd = os.open(self.path, flags, 0o666)
            try:
                os.write(fd, b"\n" + data if self._torn_tail else data)
            finally:
                os.close(fd)
            self._torn_tail = False
            entries[cache_id] = data
        return envelope


class PreprintIndexClient(Protocol):
    def list_records(self, start: str, end: str, category: str) -> list[dict]:
        """All records posted in [start, end] (ISO dates) under a category."""
        ...


class ScholarIndexClient(Protocol):
    def search_title(self, query: str, limit: int = 10) -> list[dict]:
        """Paper records ranked by the index's own title relevance."""
        ...

    def get_paper(self, index_id: str) -> dict | None:
        """Full record for an id, or None when the index has no such paper."""
        ...


def _is_paper_file(rel: str) -> bool:
    """Whether a fixture path is ``scholar/papers/*.json``."""
    head, _, name = rel.rpartition("/")
    return head == "scholar/papers" and name.endswith(".json")


_scan_value = json.JSONDecoder().scan_once
_skip_space = json.decoder.WHITESPACE.match
_BOM_UTF8 = b"\xef\xbb\xbf"


def parse_record(data: bytes) -> Any:
    """``json.loads(data)``, decoded on ``json``'s C scanner without its
    Python wrapper: UTF-8 text, whitespace around one value, nothing
    after it. Bytes that need more than that go to ``json.loads``, so the
    value or the error is always its own: a BOM, UTF-16/32 (a NUL in the
    first two bytes), invalid UTF-8 (encoded surrogates included), and
    every malformed document."""
    if data.startswith(_BOM_UTF8) or 0 in data[:2]:
        return json.loads(data)
    try:
        text = data.decode("utf-8")
        value, end = _scan_value(text, _skip_space(text, 0).end())
    except (UnicodeDecodeError, StopIteration, ValueError):
        return json.loads(data)
    if _skip_space(text, end).end() != len(text):
        return json.loads(data)  # raises "Extra data"
    return value


def _id_and_title(rel: str, rec: Any) -> tuple[str, str]:
    """The ``index_id`` and title ("" for none) of the scholar record in
    fixture file ``rel``, or an ``IndexParseError`` naming the file."""
    if not isinstance(rec, dict):
        raise IndexParseError(f"{rel}: a scholar record must be a JSON object", rec)
    index_id, title = rec.get("index_id"), rec.get("title")
    if not isinstance(index_id, str):
        raise IndexParseError(f"{rel}: index_id is missing or not a string", rec)
    if title is not None and not isinstance(title, str):
        raise IndexParseError(f"{rel}: title is neither a string nor null", rec)
    return index_id, title or ""


def _categories(rec: dict) -> list:
    """A preprint record's categories: none for a null, an
    ``IndexParseError`` naming the record for a value that is not a list."""
    categories = rec.get("categories")
    if categories is None:
        return []
    if not isinstance(categories, list):
        raise IndexParseError(f"malformed preprint record (categories is not a list): {rec!r}", rec)
    return categories


class FixtureIndexClient:
    """Directory of canned JSON standing in for both services.

    Layout::

        <root>/preprint/records.json      list of preprint records
        <root>/scholar/papers/<id>.json   one scholarly record per file

    ``files`` is the tree as ``read_tree(root)`` gives it, for a caller
    that has read it already (``run_pipeline`` reads it once for the run
    identity and the index); without it the client reads the tree once.
    The first call of any kind loads both parts in one pass: the preprint
    records are parsed, and each paper is decoded once to key it by
    ``index_id`` (the last file in ``read_tree`` order wins a duplicate
    id). Only each paper's bytes and title are held, and a lookup or
    search decodes each record it returns again, so each call returns
    fresh dicts. The files are dropped only once the whole pass has
    succeeded, so a malformed paper (see ``_id_and_title``) or a
    ``records.json`` that is not a JSON list fails that first call,
    whichever kind it is, and every later one, with the same error. A
    listing without ``records.json`` is an ``IndexParseError`` naming
    it; a malformed preprint record is kept for ``CandidateStub.from_record``
    to name.

    Title search ranks by token overlap (Jaccard) with the query, ties
    broken by id, which is a deliberately different notion of relevance
    than the matcher's similarity scores. The first search builds a title
    index (a postings map from each title token to the ids whose titles
    hold it, and each title's distinct-token count) and drops the titles;
    a lookup-only client never tokenizes a title. A query scores only
    the records its tokens' postings reach, as ``shared / (size + query
    size - shared)``, the same integers and so the same float as the
    set-based Jaccard, and keeps the ``limit`` smallest of the same
    ``(-jaccard, id)`` keys, without sorting the rest.
    """

    def __init__(self, root: Path | str, files: list[tuple[str, bytes]] | None = None):
        self.root = root
        self._files = files
        # held while the files load and the title index is built, so a
        # concurrent call waits for the whole of either
        self._lock = threading.RLock()
        self._records: list[dict] | None = None
        # index_id -> the bytes of the file that holds the record, and its
        # title until the title index is built
        self._papers: dict[str, bytes] | None = None
        self._titles: dict[str, str] = {}
        self._title_index: tuple[dict[str, list[str]], dict[str, int]] | None = None

    def _load_papers(self) -> dict[str, bytes]:
        with self._lock:
            if self._papers is None:
                if self._files is None:
                    self._files = read_tree(self.root)
                records = None
                papers: dict[str, bytes] = {}
                titles: dict[str, str] = {}
                for rel, data in self._files:
                    if rel == "preprint/records.json":
                        records = parse_record(data)
                        if not isinstance(records, list):
                            raise IndexParseError(f"{rel}: not a JSON list", records)
                    elif _is_paper_file(rel):
                        index_id, title = _id_and_title(rel, parse_record(data))
                        papers[index_id] = data
                        titles[index_id] = title
                self._files = None
                self._records, self._titles, self._papers = records, titles, papers
        return self._papers

    # -- preprint side -------------------------------------------------

    def list_records(self, start: str, end: str, category: str) -> list[dict]:
        self._load_papers()
        if self._records is None:
            raise IndexParseError(f"{self.root}/preprint/records.json: no such file")
        out = []
        for rec in self._records:
            posted = rec.get("posted_date") if isinstance(rec, dict) else None
            if isinstance(posted, str) and not (
                start <= posted <= end and (not category or category in _categories(rec))
            ):
                continue
            out.append(rec)
        return out

    # -- scholar side --------------------------------------------------

    def search_title(self, query: str, limit: int = 10) -> list[dict]:
        query_tokens = set(tokens(query))
        if not query_tokens:
            return []
        with self._lock:
            papers = self._load_papers()
            if self._title_index is None:
                postings: dict[str, list[str]] = {}
                sizes: dict[str, int] = {}
                for index_id, title in self._titles.items():
                    title_tokens = set(tokens(title))
                    sizes[index_id] = len(title_tokens)
                    for token in title_tokens:
                        postings.setdefault(token, []).append(index_id)
                self._title_index = (postings, sizes)
                self._titles = {}
            postings, sizes = self._title_index
        shared: Counter[str] = Counter()
        for token in query_tokens:
            shared.update(postings.get(token, ()))
        q = len(query_tokens)
        ranked = heapq.nsmallest(
            limit,
            (
                (-inter / (sizes[index_id] + q - inter), index_id)
                for index_id, inter in shared.items()
            ),
        )
        return [parse_record(papers[index_id]) for _, index_id in ranked]

    def get_paper(self, index_id: str) -> dict | None:
        data = self._load_papers().get(index_id)
        return None if data is None else parse_record(data)


class CachedScholarClient:
    """Scholar client wrapper that serves reads from a JsonCache.

    Paper lookups cache under the bare index id; title searches cache
    under ``search__<safe query key>__<limit>``, a key derived from the
    normalized query. Both kinds share the one log, ``cache/scholar.jsonl``.
    """

    def __init__(self, inner: ScholarIndexClient, cache: JsonCache):
        self.inner = inner
        self.cache = cache

    def search_title(self, query: str, limit: int = 10) -> list[dict]:
        cache_id = f"search__{safe_filename(title_key(query))}__{limit}"
        hit = self.cache.load("search", cache_id)
        if hit is not None:
            return hit["payload"] if hit["status"] == "ok" else []
        results = self.inner.search_title(query, limit)
        self.cache.store("search", cache_id, results)
        return results

    def get_paper(self, index_id: str) -> dict | None:
        hit = self.cache.load("paper", index_id)
        if hit is not None:
            return hit["payload"] if hit["status"] == "ok" else None
        record = self.inner.get_paper(index_id)
        if record is None:
            self.cache.store_not_found("paper", index_id, "id-not-in-index")
        else:
            self.cache.store("paper", index_id, record)
        return record
