"""LaTeX source preparation: the anonymized main content and the
ground-truth intro reference list.

A paper's source bundle is read once, with ``clients.read_tree`` (the
listing the run's input digest hashes), and every later file lookup is a
lookup in that listing. ``render_text`` reads, in one pass over the main
file, the parts a reader would see first (title, authors, conference
info, abstract, introduction), drops figures, tables, cross references,
footnotes and ``\\thanks`` notes, rewrites every citation command to a
numeric bracket group, e.g. ``[2,5]`` or ``[4-8]``, and flattens each
part to plain text; in the abstract and introduction, the
``\\begin``/``\\end`` markers of a kept environment and each ``\\item``
of a list leave only a word break.
Numbering follows the compiled bibliography order, which ``bibtex``
fixes: the order of
``\\bibitem`` entries when a .bbl is available, otherwise the order the
bibliography style would produce from the .bib database (citation order
for unsrt-family styles, alphabetical otherwise). The numbered reference
list is those entries in that order. Papers that cannot be processed are
excluded with a reason code, never dropped silently.

No TeX toolchain is run: every check (balanced braces and environments,
defined citation keys, a well-formed .bib) and the numbering are
computed here and in ``bibtex`` from the bundle's bytes, so runs are
reproducible on machines without TeX and never write into a source
bundle.
"""

from __future__ import annotations

import logging
import os
import posixpath
import re
from dataclasses import dataclass, field
from pathlib import Path

from .bibtex import (
    CompiledBibliography,
    bundle_text,
    decode_source,
    find_command_arg,
    latex_to_plain,
    read_braced,
    resolve_bibliography,
    strip_comments,
)
from .clients import read_tree
from .errors import EXCL_COMPILE_ERROR, EXCL_MULTIPLE_MAINS, EXCL_NO_MAIN, Exclusion, TexError

logger = logging.getLogger(__name__)

_DASH_CLASS = r"\-\u2010\u2011\u2012\u2013\u2014\u2015\u2212"
_RANGE_RE = re.compile(rf"^(\d+)\s*(?:--|[{_DASH_CLASS}])\s*(\d+)$")
_NUMBER_RE = re.compile(r"^\d+$")
_BRACKET_RE = re.compile(r"\[([^\[\]]*)\]")

_CITE_RE = re.compile(
    r"\\[Cc]ite(?:p|t|alp|alt|author|year|num)?\*?"
    r"(?:\[[^\]]*\])?(?:\[[^\]]*\])?\{([^{}]*)\}"
)
_STRIP_ENVS = (
    "figure",
    "figure*",
    "table",
    "table*",
    "algorithm",
    "algorithm*",
    "algorithmic",
    "tikzpicture",
    "wrapfigure",
)
_FOOTNOTE_RE = re.compile(r"\\(?:footnote(mark|text)?|thanks)(?![a-zA-Z])(?:\s*\[[^\]]*\])?")
# a list environment's markers and items: \begin{…}, \end{…}, \item[label]
_LIST_MARK_RE = re.compile(r"\\(?:begin|end)\{[^{}]*\}|\\item(?![a-zA-Z])(?:\s*\[[^\]]*\])?")
_CONFERENCE_PKG_RE = re.compile(
    r"^\\usepackage(?:\[[^\]]*\])?\{[^}]*(?:neurips|icml|iclr|aaai|nips|corl|acl)[^}]*\}",
    re.IGNORECASE | re.MULTILINE,
)


@dataclass(frozen=True)
class BracketGroup:
    """One in-text citation group, e.g. ``[1]``, ``[2,5]``, ``[4-8]``.

    ``numbers`` is the exact expansion of the raw string: singletons,
    comma lists, and inclusive dash ranges. A group identifies a single
    reference unambiguously iff it expands to one number.
    """

    raw: str
    numbers: frozenset[int]


@dataclass
class MainContent:
    """Anonymizable main text plus its citation groups in reading order."""

    text: str
    citation_occurrences: list[BracketGroup] = field(default_factory=list)


@dataclass
class PreparedDocument:
    """Everything document preparation produces for one paper."""

    main_content: MainContent
    reference_texts: list[tuple[int, str]]
    bibliography: CompiledBibliography


# ---------------------------------------------------------------------------
# Step: locate the main tex file
# ---------------------------------------------------------------------------


def locate_main_tex(bundle: dict[str, bytes], name: str) -> str | Exclusion:
    """The path of the bundle's unique .tex file containing both document
    markers; ``name`` (the bundle's) is the detail of a ``no-main``.

    Zero candidates or more than one yield an exclusion rather than a
    guess.
    """
    candidates = [
        rel
        for rel, data in bundle.items()
        if rel.endswith(".tex") and b"\\begin{document}" in data and b"\\end{document}" in data
    ]
    if not candidates:
        return Exclusion(EXCL_NO_MAIN, name)
    if len(candidates) > 1:
        return Exclusion(
            EXCL_MULTIPLE_MAINS, ", ".join(posixpath.basename(rel) for rel in candidates)
        )
    return candidates[0]


# ---------------------------------------------------------------------------
# Low-level tex utilities
# ---------------------------------------------------------------------------



_ENV_MARK_RE = re.compile(r"\\(begin|end)\{([^}]*)\}")


def check_environments(tex: str) -> None:
    """Verify begin/end nesting; raises TexError with the offending line."""
    # (name, offset) of each open environment; a line is counted only
    # for the error raised
    stack: list[tuple[str, int]] = []

    def line(offset: int) -> int:
        return tex.count("\n", 0, offset) + 1

    for match in _ENV_MARK_RE.finditer(tex):
        kind, name = match.group(1), match.group(2)
        if kind == "begin":
            stack.append((name, match.start()))
        else:
            if not stack:
                raise TexError(
                    f"\\end{{{name}}} without a matching \\begin", line(match.start())
                )
            if stack[-1][0] != name:
                open_name, open_at = stack[-1]
                raise TexError(
                    f"\\end{{{name}}} closes \\begin{{{open_name}}} from line {line(open_at)}",
                    line(match.start()),
                )
            stack.pop()
    if stack:
        name, open_at = stack[-1]
        raise TexError(f"\\begin{{{name}}} is never closed", line(open_at))


def _strip_environments(tex: str, names=_STRIP_ENVS) -> str:
    for name in names:
        escaped = re.escape(name)
        pattern = re.compile(
            rf"\\begin\{{{escaped}\}}.*?\\end\{{{escaped}\}}", re.DOTALL
        )
        tex = pattern.sub("", tex)
    return tex


def _strip_footnotes(tex: str) -> str:
    """Remove each \\footnote, \\footnotemark, \\footnotetext and \\thanks
    whole: its optional ``[n]`` and, but for a mark, its braced text,
    with any whitespace before them. Whitespace after a bare command
    stays. A longer control word such as \\footnotesize is left alone."""
    # footnotes can nest braces; remove with a balanced reader
    while match := _FOOTNOTE_RE.search(tex):
        rest = tex[match.end() :]
        braced = rest.lstrip()
        if match.group(1) != "mark" and braced.startswith("{"):
            _, end = read_braced(braced, 0)
            rest = braced[end:]
        tex = tex[: match.start()] + rest
    return tex


def _strip_crossrefs(tex: str) -> str:
    tex = re.sub(r"~?\\(?:auto|eq|c|C|v)?ref\{[^}]*\}", "", tex)
    tex = re.sub(r"\\label\{[^}]*\}", "", tex)
    return _strip_footnotes(tex)


def _compress_numbers(numbers: list[int]) -> str:
    """Render sorted numbers the way a compiled document would:
    runs of three or more compress to a dash range."""
    parts: list[str] = []
    i = 0
    while i < len(numbers):
        j = i
        while j + 1 < len(numbers) and numbers[j + 1] == numbers[j] + 1:
            j += 1
        if j - i >= 2:
            parts.append(f"{numbers[i]}-{numbers[j]}")
            i = j + 1
        else:
            parts.extend(str(n) for n in numbers[i : j + 1])
            i = j + 1
    return ",".join(parts)


def cited_keys(tex: str) -> list[str]:
    """All citation keys in first-appearance order."""
    seen: dict[str, None] = {}
    for match in _CITE_RE.finditer(tex):
        for key in match.group(1).split(","):
            key = key.strip()
            if key:
                seen.setdefault(key)
    return list(seen)


def _replace_citations(tex: str, numbering: dict[str, int]) -> str:
    def repl(match: re.Match) -> str:
        keys = [k.strip() for k in match.group(1).split(",") if k.strip()]
        nums = sorted({numbering[k] for k in keys if k in numbering})
        if not nums:
            return ""
        return f"[{_compress_numbers(nums)}]"

    return _CITE_RE.sub(repl, tex)




# ---------------------------------------------------------------------------
# Text rendering (the compiled-PDF stand-in)
# ---------------------------------------------------------------------------


def _extract_intro(body: str) -> str:
    match = re.search(r"\\section\*?\{([Ii]ntroduction[^}]*)\}", body)
    if match:
        start = match.end()
    else:
        # no heading: skip the front matter captured separately, so the
        # abstract is not duplicated into the introduction slice
        abstract_end = re.search(r"\\end\{abstract\}", body)
        maketitle = re.search(r"\\maketitle", body)
        if abstract_end:
            start = abstract_end.end()
        elif maketitle:
            start = maketitle.end()
        else:
            start = 0
    stops = []
    next_section = re.search(r"\\section\*?\{", body[start:])
    if next_section:
        stops.append(start + next_section.start())
    for marker in (r"\\bibliographystyle", r"\\bibliography\{", r"\\begin\{thebibliography\}", r"\\appendix", r"\\end\{document\}"):
        found = re.search(marker, body[start:])
        if found:
            stops.append(start + found.start())
    end = min(stops) if stops else len(body)
    return body[start:end]


def _extract_abstract(body: str) -> str:
    match = re.search(r"\\begin\{abstract\}(.*?)\\end\{abstract\}", body, re.DOTALL)
    if match:
        return match.group(1)
    arg = find_command_arg(body, "abstract")
    return arg or ""


def render_text(tex: str, bibliography: CompiledBibliography) -> str:
    """Flatten a main file's front matter (title, authors, conference
    line, abstract, introduction) to plain text, mirroring what PDF text
    extraction would yield for those pages.

    ``tex`` is the main file with comments stripped and inputs inlined.
    Each part is read from it once: figures, tables, cross references,
    footnotes and ``\\thanks`` notes are dropped, and every citation
    command becomes a bracket group numbered in ``bibliography`` order.
    Raises TexError when a document marker is missing or environments
    do not nest.
    """
    if "\\begin{document}" not in tex or "\\end{document}" not in tex:
        raise TexError("missing \\begin{document} or \\end{document}")
    check_environments(tex)
    docclass = re.search(r"\\documentclass(?:\[[^\]]*\])?\{([^}]*)\}", tex)
    conference = _CONFERENCE_PKG_RE.findall(tex)
    title = _strip_footnotes(find_command_arg(tex, "title") or "")
    author = _strip_footnotes(find_command_arg(tex, "author") or "")

    body = tex.split("\\begin{document}", 1)[1].split("\\end{document}", 1)[0]
    body = _strip_crossrefs(_strip_environments(body))
    # list markers go before citations are numbered, so an \item label
    # cannot swallow a citation's bracket group
    abstract, intro = (
        _replace_citations(_LIST_MARK_RE.sub(" ", part), bibliography.numbers)
        for part in (_extract_abstract(body), _extract_intro(body))
    )

    lines: list[str] = []
    if title:
        lines.append(latex_to_plain(title))
    if author:
        lines.append(latex_to_plain(re.sub(r"\\and\b", ", ", author)))
    conf_bits = [m.split("{")[-1].rstrip("}") for m in conference]
    if docclass:
        conf_bits.append(docclass.group(1))
    if conf_bits:
        lines.append(" ".join(dict.fromkeys(conf_bits)))
    lines.append("")
    if abstract.strip():
        lines.append("Abstract")
        lines.append(latex_to_plain(abstract))
        lines.append("")
    lines.append("1 Introduction")
    lines.append(latex_to_plain(intro))
    return "\n".join(lines).rstrip()


# ---------------------------------------------------------------------------
# Citation extraction
# ---------------------------------------------------------------------------


def _parse_group_content(content: str) -> frozenset[int] | None:
    numbers: set[int] = set()
    for token in content.split(","):
        token = token.strip()
        if _NUMBER_RE.match(token):
            value = int(token)
            if value < 1:
                return None
            numbers.add(value)
            continue
        range_match = _RANGE_RE.match(token)
        if range_match:
            lo, hi = int(range_match.group(1)), int(range_match.group(2))
            if lo < 1 or hi < lo:
                return None
            numbers.update(range(lo, hi + 1))
            continue
        return None
    return frozenset(numbers) if numbers else None


def extract_citations(text: str, max_number: int | None = None) -> list[BracketGroup]:
    """Every citation bracket group in reading order.

    Groups containing any non-numeric token are ignored entirely
    (precision over recall); when the reference-list length is known,
    groups citing beyond it are excluded as non-citations.
    """
    groups = []
    for match in _BRACKET_RE.finditer(text):
        numbers = _parse_group_content(match.group(1))
        if numbers is None:
            continue
        if max_number is not None and any(n > max_number for n in numbers):
            continue
        groups.append(BracketGroup(raw=match.group(0), numbers=numbers))
    return groups


def select_intro_references(
    groups: list[BracketGroup],
    reference_texts: list[tuple[int, str]],
    warnings: list[str] | None = None,
) -> list[tuple[int, str]]:
    """Reference entries cited by any group, in bibliography order.

    Numbers beyond the reference list record a dangling-citation warning
    on the paper instead of failing.
    """
    known = {num for num, _ in reference_texts}
    cited: set[int] = set()
    for group in groups:
        cited |= group.numbers
    dangling = sorted(cited - known)
    if dangling and warnings is not None:
        warnings.append(
            "dangling-citation: cited numbers beyond reference list: "
            + ", ".join(map(str, dangling))
        )
    return [(num, raw) for num, raw in reference_texts if num in cited]


def uniquely_identifiable_numbers(groups: list[BracketGroup]) -> set[int]:
    """Numbers with an unambiguous slot: cited in at least one
    single-number bracket group."""
    return {next(iter(g.numbers)) for g in groups if len(g.numbers) == 1}


# ---------------------------------------------------------------------------
# Orchestration for one paper
# ---------------------------------------------------------------------------


def prepare_source(source_dir: Path | str) -> PreparedDocument | Exclusion:
    """Run the full preparation for one source bundle.

    The bundle is read once, with ``read_tree``, so what preparation can
    read is what the run's input digest covers: the main file, its
    inputs and the bibliography databases are looked up by path in that
    listing, and a name it does not list (outside the bundle, or behind
    a symlinked directory) reads nothing.

    Returns a PreparedDocument, or an Exclusion naming why the paper
    cannot enter the corpus (no main file, multiple mains, no
    bibliography, compile error). A compile error comes from the checks
    here only: unbalanced braces or environments, a missing document
    environment, a malformed .bib (each a TexError) or a citation key the
    bibliography lacks; an unreadable file raises OSError.
    """
    bundle = dict(read_tree(source_dir))
    name = os.path.basename(os.path.normpath(source_dir))
    located = locate_main_tex(bundle, name)
    if isinstance(located, Exclusion):
        return located
    try:
        # a commented-out \input or bibliography command must not act
        tex = _inline_inputs(strip_comments(decode_source(bundle[located])), bundle)

        cited = cited_keys(tex)
        bibliography = resolve_bibliography(bundle, tex, cited, name, located)
        if isinstance(bibliography, Exclusion):
            return bibliography
        text = render_text(tex, bibliography)
    except TexError as exc:
        return Exclusion(EXCL_COMPILE_ERROR, str(exc))
    return PreparedDocument(
        main_content=MainContent(text, extract_citations(text)),
        reference_texts=[(i, entry.raw) for i, entry in enumerate(bibliography.entries, 1)],
        bibliography=bibliography,
    )


def _inline_inputs(tex: str, bundle: dict[str, bytes]) -> str:
    """Inline one level of \\input/\\include from the bundle, comments
    stripped; a name the bundle does not list inlines nothing."""

    def repl(match: re.Match) -> str:
        text = bundle_text(bundle, match.group(1).strip(), ".tex")
        return "" if text is None else strip_comments(text)

    return re.sub(r"\\(?:input|include)\{([^}]*)\}", repl, tex)
