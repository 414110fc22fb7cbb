"""Corpus construction: harvest candidate papers, resolve them in the
scholarly index, and enrich references with metadata.

The corpus is the ground-truth side of the audit. Candidate papers come
from the preprint index filtered by venue keywords and a blacklist; each
survivor is resolved in the scholarly index by title, which yields its
full reference list; every reference id can then be enriched with venue,
year, authors, citation counts, and its own outgoing references. All
enrichment goes through the disk cache so repeated runs cost no network.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Sequence

from .clients import CachedScholarClient, PreprintIndexClient, ScholarIndexClient
from .errors import EXCL_AMBIGUOUS, EXCL_NOT_FOUND, Exclusion, IndexParseError
from .matcher import title_similarity
from .textnorm import title_key, tokens

logger = logging.getLogger(__name__)

CANONICAL_VENUES = ("AAAI", "NeurIPS", "ICML", "ICLR", "arXiv", "Nature", "Others")


@functools.cache
def _default_aliases() -> str:
    """The bundled alias table's text, read once per process."""
    return resources.files("citebias.data").joinpath("venue_aliases.json").read_text("utf-8")


@dataclass(frozen=True)
class Venue:
    """A publication venue: the raw string plus its canonical label."""

    canonical: str
    raw: str


class VenueTable:
    """Alias table mapping raw venue strings to the canonical labels.

    Canonicalization is total: any raw string maps to exactly one label,
    with unknown strings falling through to ``Others``.
    """

    def __init__(self, aliases: dict[str, dict]):
        self._exact: dict[str, str] = {}
        self._keywords: dict[str, str] = {}
        for canonical, spec in aliases.items():
            if canonical.startswith("_"):
                continue
            if canonical not in CANONICAL_VENUES:
                raise ValueError(f"unknown canonical venue {canonical!r}")
            for alias in spec.get("exact", []):
                self._exact[title_key(alias)] = canonical
            for kw in spec.get("keywords", []):
                self._keywords[kw.lower()] = canonical

    @classmethod
    def default(cls) -> "VenueTable":
        return cls(json.loads(_default_aliases()))

    @classmethod
    def from_file(cls, path) -> "VenueTable":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def canonicalize(self, raw: str | None) -> Venue:
        raw = raw or ""
        key = title_key(raw)
        if key in self._exact:
            return Venue(self._exact[key], raw)
        for tok in tokens(raw):
            if tok in self._keywords:
                return Venue(self._keywords[tok], raw)
        return Venue("Others", raw)


@dataclass
class CandidateStub:
    """A paper as listed by the preprint index, before resolution."""

    preprint_id: str
    title: str
    journal_ref: str
    posted_date: str
    authors: list[str] = field(default_factory=list)
    license: str = ""

    @classmethod
    def from_record(cls, record: dict) -> "CandidateStub":
        """The stub of one preprint record. A null ``journal_ref``,
        ``license`` or ``authors`` reads as absent. A record that is not an
        object, whose ``preprint_id``, ``title`` or ``posted_date`` is not
        a string, whose ``journal_ref`` or ``license`` is another type, or
        whose ``authors`` is not a list of strings, is an
        ``IndexParseError`` that names the record."""
        try:
            if not isinstance(record, dict):
                raise TypeError("not a JSON object")
            for name in ("preprint_id", "title", "posted_date"):
                if not isinstance(record.get(name), str):
                    raise TypeError(f"{name} is missing or not a string")
            optional = {}
            for name in ("journal_ref", "license"):
                value = record.get(name)
                if not isinstance(value, (str, type(None))):
                    raise TypeError(f"{name} is not a string")
                optional[name] = value or ""
            authors = record.get("authors")
            authors = [] if authors is None else authors
            if not (isinstance(authors, list) and all(isinstance(a, str) for a in authors)):
                raise TypeError("authors is not a list of strings")
            return cls(
                preprint_id=record["preprint_id"],
                title=record["title"],
                posted_date=record["posted_date"],
                authors=list(authors),
                **optional,
            )
        except TypeError as exc:
            raise IndexParseError(f"malformed preprint record ({exc}): {record!r}", record) from exc


@dataclass
class PaperRecord:
    """A focal paper with identifiers in both indices and its ground truth.

    ``reference_ids`` is the full, ordered reference list from the
    scholarly index. ``intro_reference_numbers`` is filled in by document
    preparation and is a subset of 1..len(bibliography).
    """

    preprint_id: str
    index_id: str
    title: str
    venue: Venue
    year: int
    posted_date: str
    authors: list[str]
    reference_ids: list[str] = field(default_factory=list)
    intro_reference_numbers: set[int] = field(default_factory=set)


@dataclass
class EnrichedRecord:
    """Metadata for one index id, as returned by enrichment."""

    index_id: str
    title: str
    authors: list[str]
    venue_raw: str
    year: int | None
    citation_count: int | None
    influential_citation_count: int | None
    reference_count: int | None
    outgoing_reference_ids: list[str]

    @classmethod
    def from_payload(cls, payload: dict) -> "EnrichedRecord":
        return cls(
            index_id=payload["index_id"],
            title=payload.get("title", ""),
            authors=list(payload.get("authors", [])),
            venue_raw=payload.get("venue", ""),
            year=payload.get("year"),
            citation_count=payload.get("citation_count"),
            influential_citation_count=payload.get("influential_citation_count"),
            reference_count=payload.get("reference_count"),
            outgoing_reference_ids=list(payload.get("references", [])),
        )


def harvest_candidates(
    client: PreprintIndexClient,
    window: tuple[str, str],
    category: str,
    venue_keywords: Sequence[str],
) -> list[CandidateStub]:
    """Candidate stubs whose journal reference mentions a venue keyword.

    Args:
        client: preprint index client.
        window: (start, end) ISO dates, inclusive.
        category: index category to query, e.g. "cs.LG".
        venue_keywords: case-insensitive keywords matched against the
            journal-reference string.

    Returns:
        Matching stubs in stable order by posted date, then preprint id.
    """
    start, end = window
    if start > end:
        raise ValueError(f"malformed window: {start} > {end}")
    if not category:
        raise ValueError("category must be non-empty")
    records = client.list_records(start, end, category)
    keywords = [kw.lower() for kw in venue_keywords]
    stubs = []
    for record in records:
        stub = CandidateStub.from_record(record)
        ref = stub.journal_ref.lower()
        if any(kw in ref for kw in keywords):
            stubs.append(stub)
    stubs.sort(key=lambda s: (s.posted_date, s.preprint_id))
    return stubs


def filter_candidates(
    stubs: Iterable[CandidateStub], blacklist: Sequence[str]
) -> list[CandidateStub]:
    """Drop stubs whose journal reference contains any blacklist keyword
    (case-insensitive substring match)."""
    terms = [term.lower() for term in blacklist]
    kept = []
    for stub in stubs:
        ref = stub.journal_ref.lower()
        if any(term in ref for term in terms):
            continue
        kept.append(stub)
    return kept


def resolve_paper(
    stub: CandidateStub,
    scholar: ScholarIndexClient,
    venue_table: VenueTable,
    search_limit: int = 10,
    fuzzy_threshold: float | None = None,
) -> PaperRecord | Exclusion:
    """Resolve a candidate in the scholarly index by title.

    Matching is exact after whitespace/case/punctuation normalization;
    with ``fuzzy_threshold`` set, candidates scoring at least that much
    on best-substring title similarity are accepted when no exact hit
    exists. Exactly one hit yields a PaperRecord with its reference list;
    zero hits (or a blank title, which is not searched) yield a not-found
    exclusion, and several equally plausible hits an ambiguous one.
    """
    if not stub.title.strip():
        return Exclusion(EXCL_NOT_FOUND, "blank title")
    key = title_key(stub.title)
    results = scholar.search_title(stub.title, limit=search_limit)
    hits = [rec for rec in results if title_key(rec.get("title", "")) == key]
    if not hits and fuzzy_threshold is not None:
        scored = [
            (title_similarity(stub.title, rec.get("title", "")), rec) for rec in results
        ]
        qualifying = [(s, rec) for s, rec in scored if s >= fuzzy_threshold]
        if qualifying:
            best = max(s for s, _ in qualifying)
            hits = [rec for s, rec in qualifying if s == best]
    if not hits:
        return Exclusion(EXCL_NOT_FOUND, f"no index record titled {stub.title!r}")
    if len(hits) > 1:
        ids = ", ".join(str(rec["index_id"]) for rec in hits)
        detail = f"title {stub.title!r} matches {len(hits)} index records: {ids}"
        return Exclusion(EXCL_AMBIGUOUS, detail)
    rec = hits[0]
    year = rec.get("year")
    if year is None:
        year = int(stub.posted_date[:4])
    return PaperRecord(
        preprint_id=stub.preprint_id,
        index_id=rec["index_id"],
        title=rec.get("title", stub.title),
        venue=venue_table.canonicalize(stub.journal_ref),
        year=year,
        posted_date=stub.posted_date,
        authors=list(rec.get("authors", stub.authors)),
        reference_ids=list(rec.get("references", [])),
    )


def enrich_reference(index_id: str, scholar: CachedScholarClient) -> EnrichedRecord | Exclusion:
    """Metadata for one index id, read through the disk cache.

    A repeat call performs no network I/O. Ids missing from the index
    leave an explicit not-found marker in the cache rather than a silent
    gap.
    """
    payload = scholar.get_paper(index_id)
    if payload is None:
        return Exclusion(EXCL_NOT_FOUND, index_id)
    return EnrichedRecord.from_payload(payload)
