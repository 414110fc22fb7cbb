"""Provider-agnostic LLM access: prompt rendering, generation with an
audit trail, markdown-table response parsing, and the iterative merge.

Three prompts drive the pipeline (stored verbatim as template files): the
vanilla prompt asking for a reference per bracketed citation number, the
postprocessing prompt that structures a reference list into a markdown
table, and the iterative prompt that asks for replacements of references
flagged non-existent. Providers implement ``send(messages, params) ->
text``; a directory-backed replay store makes whole runs deterministic
and is the only provider tests use.

Replay store contract: a response lives at ``<store>/<digest>.txt`` where
``digest`` is the SHA-256 of the compact JSON array ``[[role, content],
...]`` of the outgoing messages, UTF-8 encoded.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .clients import atomic_write_text
from .corpus import Venue, VenueTable
from .errors import CitebiasError, MockResponseMissing, ProviderRefusal, TableParseError
from .textnorm import ET_AL_RE

logger = logging.getLogger(__name__)

SYSTEM_MESSAGE = "You are a helpful assistant"

Message = tuple[str, str]  # (role, content)

VANILLA = "vanilla"
ITERATIVE = "iterative"

REASK_MESSAGE = (
    "Your previous response did not contain the requested markdown table. "
    "Please return only the markdown table with the citation number (without "
    "brackets), authors, number of authors, title, publication year, and "
    "publication venue as columns."
)


@functools.cache
def template_text(name: str) -> str:
    """Raw template text, read once per process; names: vanilla,
    postprocess, iterative."""
    return resources.files("citebias.templates").joinpath(f"{name}.txt").read_text("utf-8")


@functools.cache
def _template_hashes() -> dict[str, str]:
    return {
        name: hashlib.sha256(template_text(name).encode("utf-8")).hexdigest()
        for name in ("vanilla", "postprocess", "iterative")
    }


def template_hashes() -> dict[str, str]:
    """SHA-256 for each prompt template, recorded in run manifests; the
    prompts are rendered from the same read of each template."""
    return dict(_template_hashes())


def _fill(template: str, **slots: str) -> str:
    # str.format would choke on LaTeX braces in the content
    for key, value in slots.items():
        template = template.replace("{" + key + "}", value)
    return template.rstrip("\n")


def prompt_digest(messages: list[Message]) -> str:
    """Stable hash of a message list; the replay-store key."""
    payload = json.dumps(
        [[role, content] for role, content in messages],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def render_vanilla_prompt(main_content: str) -> list[Message]:
    """System + user pair for the reference-suggestion prompt."""
    if not main_content.strip():
        raise ValueError("main content must be non-empty")
    user = _fill(template_text("vanilla"), content=main_content)
    return [("system", SYSTEM_MESSAGE), ("user", user)]


def render_postprocess_prompt(reference_list: str) -> list[Message]:
    """System + user pair for structuring a reference list."""
    if not reference_list.strip():
        raise ValueError("reference list must be non-empty")
    user = _fill(template_text("postprocess"), content=reference_list)
    return [("system", SYSTEM_MESSAGE), ("user", user)]


def render_iterative_prompt(
    parent: "GenerationRun", nonexistent: set[int], main_content: str
) -> list[Message]:
    """Follow-up message list: the parent vanilla exchange verbatim, then
    the replacement request listing the non-existent citation numbers."""
    if not nonexistent:
        raise ValueError("no non-existent numbers: skip the iterative stage")
    if not parent.transcript or parent.transcript[-1][0] != "assistant":
        raise ValueError("parent transcript is incomplete")
    numbers = ", ".join(f"[{n}]" for n in sorted(nonexistent))
    user = _fill(template_text("iterative"), numbers=numbers, content=main_content)
    return [*parent.transcript, ("user", user)]


@dataclass
class GenerationRun:
    """One prompting pass for one paper: parameters plus the transcript."""

    model_id: str
    strategy: str
    run_index: int
    sampling_params: dict = field(default_factory=dict)
    transcript: list[Message] = field(default_factory=list)
    parent: "GenerationRun | None" = None

    def __post_init__(self):
        if self.strategy not in (VANILLA, ITERATIVE):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.run_index < 1:
            raise ValueError("run_index starts at 1")
        if self.strategy == ITERATIVE and self.parent is None:
            raise ValueError("iterative runs must reference their parent vanilla run")


class DirectoryMockProvider:
    """Replay provider reading canned responses from ``<root>/<digest>.txt``.

    Distinct sampled runs send byte-identical prompts, so a flat store
    could only ever replay one draw. A provider bound to a namespace
    (e.g. ``vanilla-2``) first checks ``<root>/<namespace>/<digest>.txt``
    and falls back to the flat layout, letting a store carry per-run
    draws while single-draw prompts stay flat.
    """

    def __init__(self, root: Path | str, namespace: str = ""):
        self.root = os.fspath(root)
        self.namespace = namespace

    def send(self, messages: list[Message], params: dict) -> str:
        digest = prompt_digest(messages)
        name = f"{digest}.txt"
        candidates = []
        if self.namespace:
            candidates.append(os.path.join(self.root, self.namespace, name))
        candidates.append(os.path.join(self.root, name))
        for path in candidates:
            if os.path.isfile(path):
                try:
                    with open(path, encoding="utf-8") as fh:
                        return fh.read()
                except UnicodeDecodeError as exc:
                    raise CitebiasError(f"replay entry {path} is not UTF-8: {exc}") from None
        raise MockResponseMissing(digest, self.root)


def store_mock_response(
    root: Path | str, messages: list[Message], text: str, namespace: str = ""
) -> Path:
    """Write a canned response where DirectoryMockProvider will find it."""
    root = Path(root)
    if namespace:
        root = root / namespace
    path = root / f"{prompt_digest(messages)}.txt"
    atomic_write_text(path, text)
    return path


def generate(
    run: GenerationRun,
    messages: list[Message],
    provider,
    raw_path: Path | str | None = None,
) -> str:
    """Send messages, persist the raw response, extend the transcript.

    The raw text hits disk before any parsing so a parse failure never
    loses provider output. An empty response is recorded then surfaced as
    a refusal for this paper/run.
    """
    if messages[: len(run.transcript)] != run.transcript:
        raise ValueError("messages must extend the run's transcript")
    text = provider.send(messages, run.sampling_params)
    if raw_path is not None:
        atomic_write_text(raw_path, text)
    run.transcript.extend(messages[len(run.transcript) :])
    run.transcript.append(("assistant", text))
    if not text.strip():
        raise ProviderRefusal(f"{run.model_id} {run.strategy} run {run.run_index}")
    return text


# ---------------------------------------------------------------------------
# Markdown-table parsing
# ---------------------------------------------------------------------------


@dataclass
class GeneratedReference:
    """One LLM-suggested reference for a citation number.

    ``et_al`` records that the response truncated the author list, in
    which case ``author_count`` is unknown and ``authors`` holds only the
    first author.
    """

    citation_number: int
    raw_text: str
    title: str = ""
    authors: list[str] = field(default_factory=list)
    author_count: int | None = None
    year: int | None = None
    venue: Venue = Venue("Others", "")
    source_strategy: str = VANILLA
    range_derived: bool = False
    et_al: bool = False


@dataclass
class ParsedTable:
    """Parse result: usable rows, quarantined rows, and logged anomalies."""

    references: list[GeneratedReference] = field(default_factory=list)
    quarantined: list[dict] = field(default_factory=list)
    anomalies: list[str] = field(default_factory=list)


_SEPARATOR_ROW_RE = re.compile(r"^\s*\|?\s*:?-{2,}:?\s*(\|\s*:?-{2,}:?\s*)+\|?\s*$")
_YEAR_RE = re.compile(r"\b(1[5-9]\d{2}|20\d{2})\b")
_NUM_RANGE_RE = re.compile(r"^(\d+)\s*[-–—]\s*(\d+)$")


def _split_row(line: str) -> list[str]:
    cells = line.split("|")
    if cells and not cells[0].strip():
        cells = cells[1:]
    if cells and not cells[-1].strip():
        cells = cells[:-1]
    return [c.strip() for c in cells]


def _map_columns(header: list[str]) -> dict[str, int] | None:
    mapping: dict[str, int] = {}
    for i, cell in enumerate(header):
        label = cell.lower()
        if "citation" in label or label in ("number", "no.", "#", "no"):
            mapping.setdefault("number", i)
        elif "author" in label and ("number" in label or "#" in label or "count" in label):
            mapping.setdefault("author_count", i)
        elif "author" in label:
            mapping.setdefault("authors", i)
        elif "title" in label:
            mapping.setdefault("title", i)
        elif "year" in label:
            mapping.setdefault("year", i)
        elif "venue" in label or "journal" in label or "publication" in label:
            mapping.setdefault("venue", i)
    required = {"number", "authors", "title"}
    if not required <= set(mapping):
        return None
    return mapping


def _parse_authors(cell: str) -> tuple[list[str], bool]:
    et_al = bool(ET_AL_RE.search(cell))
    cleaned = ET_AL_RE.sub("", cell)
    parts = re.split(r",| and |;|&", cleaned)
    authors = [p.strip().strip(".") for p in parts if p.strip().strip(".")]
    if et_al:
        authors = authors[:1]
    return authors, et_al


def _expand_numbers(cell: str) -> list[int] | None:
    cell = cell.strip().strip("[]").strip()
    if re.fullmatch(r"\d+", cell):
        return [int(cell)]
    match = _NUM_RANGE_RE.fullmatch(cell)
    if match:
        lo, hi = int(match.group(1)), int(match.group(2))
        if 1 <= lo <= hi:
            return list(range(lo, hi + 1))
    return None


def parse_reference_table(
    markdown: str,
    venue_table: VenueTable | None = None,
    source_strategy: str = VANILLA,
) -> ParsedTable:
    """Extract generated references from a markdown table response.

    Tolerates missing edge pipes, arbitrary text around the table, and
    the model's habit of closing with a ``...`` row. Rows whose citation
    number cannot be read are quarantined rather than dropped; a range
    label like ``4-8`` fans out into per-number rows flagged as
    range-derived. Raises TableParseError when no table is present.
    """
    venue_table = venue_table or VenueTable.default()
    lines = markdown.split("\n")
    header_idx = None
    columns = None
    for i, line in enumerate(lines):
        if line.count("|") < 2:
            continue
        candidate = _map_columns(_split_row(line))
        if candidate is not None:
            header_idx = i
            columns = candidate
            break
    if header_idx is None or columns is None:
        raise TableParseError("no markdown table with the expected columns")

    result = ParsedTable()
    for line in lines[header_idx + 1 :]:
        if line.count("|") < 1:
            if line.strip():
                break  # table ended; trailing prose
            continue
        if _SEPARATOR_ROW_RE.match(line):
            continue
        cells = _split_row(line)
        if all(c in ("...", "…", "") for c in cells):
            result.anomalies.append(f"skipped filler row: {line.strip()!r}")
            continue
        if len(cells) <= max(columns.values()):
            result.anomalies.append(f"skipped malformed row: {line.strip()!r}")
            continue

        def cell(name: str) -> str:
            idx = columns.get(name)
            return cells[idx] if idx is not None and idx < len(cells) else ""

        numbers = _expand_numbers(cell("number"))
        if numbers is None:
            result.quarantined.append(
                {"row": line.strip(), "reason": f"unreadable citation number {cell('number')!r}"}
            )
            continue
        authors, et_al = _parse_authors(cell("authors"))
        author_count: int | None = None
        if et_al:
            author_count = None
        else:
            count_cell = cell("author_count")
            if re.fullmatch(r"\d+", count_cell) and int(count_cell) >= 1:
                author_count = int(count_cell)
            elif authors:
                author_count = len(authors)
        year_match = _YEAR_RE.search(cell("year"))
        year = int(year_match.group()) if year_match else None
        venue = venue_table.canonicalize(cell("venue"))
        for number in numbers:
            result.references.append(
                GeneratedReference(
                    citation_number=number,
                    raw_text=line.strip(),
                    title=cell("title"),
                    authors=list(authors),
                    author_count=author_count,
                    year=year,
                    venue=venue,
                    source_strategy=source_strategy,
                    range_derived=len(numbers) > 1,
                    et_al=et_al,
                )
            )
    if not result.references and not result.quarantined:
        raise TableParseError("table contained no data rows")
    return result


def postprocess_references(
    reference_list: str,
    run: GenerationRun,
    provider,
    venue_table: VenueTable | None = None,
    raw_dir: Path | str | None = None,
    raw_prefix: str = "postprocess",
) -> ParsedTable:
    """Structure a reference list via the postprocessing prompt.

    One structured re-ask is attempted when the response has no usable
    table; a second failure is a hard error for this run/paper.
    """
    messages = render_postprocess_prompt(reference_list)
    raw_path = os.path.join(raw_dir, f"{raw_prefix}_raw.txt") if raw_dir else None
    text = generate(run, messages, provider, raw_path)
    try:
        return parse_reference_table(text, venue_table, run.strategy)
    except TableParseError as exc:
        logger.warning("re-asking after unparseable table: %s", exc)
    messages = [*run.transcript, ("user", REASK_MESSAGE)]
    raw_path = os.path.join(raw_dir, f"{raw_prefix}_raw_retry.txt") if raw_dir else None
    text = generate(run, messages, provider, raw_path)
    return parse_reference_table(text, venue_table, run.strategy)


# ---------------------------------------------------------------------------
# Iterative merge
# ---------------------------------------------------------------------------


@dataclass
class MergeResult:
    merged: dict[int, GeneratedReference]
    gaps: list[int] = field(default_factory=list)
    ignored: list[int] = field(default_factory=list)


def merge_iterative(
    parent_refs: dict[int, GeneratedReference],
    parent_existing: set[int],
    iterative_refs: dict[int, GeneratedReference],
    requested: set[int] | None = None,
) -> MergeResult:
    """Merge replacement references into the parent run's set.

    Slots verified existing in the parent are never touched; requested
    (previously non-existent) slots take the iterative entry when one was
    supplied, otherwise the parent entry stays and the gap is recorded.
    ``requested`` defaults to the parent slots outside ``parent_existing``;
    it may also name slots the vanilla response omitted entirely.
    Iterative rows that would rewrite an existing slot, or that answer a
    slot nobody asked about, are ignored and reported.
    """
    if requested is None:
        requested = set(parent_refs) - parent_existing
    merged: dict[int, GeneratedReference] = {}
    gaps: list[int] = []
    for number, parent_ref in parent_refs.items():
        if number in parent_existing or number not in requested:
            merged[number] = parent_ref
        elif number in iterative_refs:
            merged[number] = iterative_refs[number]
        else:
            merged[number] = parent_ref
            gaps.append(number)
    for number in requested - set(parent_refs):
        if number in iterative_refs:
            merged[number] = iterative_refs[number]
        else:
            gaps.append(number)
    ignored = sorted(n for n, ref in iterative_refs.items() if merged.get(n) is not ref)
    return MergeResult(merged=merged, gaps=sorted(gaps), ignored=ignored)
