"""BibTeX and ``.bbl`` handling: the compiled bibliography of a paper.

``resolve_bibliography`` fixes a paper's numbered reference list as a TeX
run would, from a ``.bbl`` or else from the ``.bib`` databases in the
order of the bibliography style. The bundle, brace, comment and
plain-text helpers here are the LaTeX reading that ``docprep`` shares.
"""

from __future__ import annotations

import posixpath
import re
from collections.abc import Container
from dataclasses import dataclass, field

from .errors import EXCL_COMPILE_ERROR, EXCL_NO_BIB, Exclusion, TexError
from .textnorm import normalize


@dataclass
class BibEntry:
    key: str
    raw: str
    title: str = ""
    authors: list[str] = field(default_factory=list)
    venue: str = ""
    year: int | None = None
    # the first author's last name, which alphabetical styles sort by
    sort_name: str = ""


@dataclass
class CompiledBibliography:
    """Bibliography entries in their final numbered order (1-based)."""

    entries: list[BibEntry]

    @property
    def numbers(self) -> dict[str, int]:
        return {entry.key: i + 1 for i, entry in enumerate(self.entries)}

    def __len__(self) -> int:
        return len(self.entries)


def decode_source(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return data.decode("latin-1")


def bundle_text(bundle: dict[str, bytes], name: str, suffix: str) -> str | None:
    """The text of the bundle's file ``name`` (plus ``suffix``), or None
    when the bundle lists no such file."""
    data = bundle.get(posixpath.normpath(name if name.endswith(suffix) else name + suffix))
    return None if data is None else decode_source(data)


_BRACE_RE = re.compile(r"[{}]")


def _escaped(text: str, i: int) -> bool:
    """Whether ``text[i]`` is escaped: preceded by an odd run of
    backslashes (``\\\\%`` is a line break and then a comment)."""
    j = i
    while j > 0 and text[j - 1] == "\\":
        j -= 1
    return (i - j) % 2 == 1


def strip_comments(tex: str) -> str:
    # % starts a comment unless escaped as \%
    if "%" not in tex:
        return tex
    out = []
    for line in tex.split("\n"):
        j = line.find("%")
        while j >= 0 and _escaped(line, j):
            j = line.find("%", j + 1)
        out.append(line if j < 0 else line[:j])
    return "\n".join(out)


def read_braced(text: str, start: int) -> tuple[str, int]:
    """Read one balanced {...} group starting at ``start``; returns
    (content, end_index_after_closing_brace)."""
    if start >= len(text) or text[start] != "{":
        raise TexError(f"expected '{{' at offset {start}")
    depth = 0
    for brace in _BRACE_RE.finditer(text, start):
        i = brace.start()
        if not _escaped(text, i):
            depth += 1 if brace.group() == "{" else -1
            if depth == 0:
                return text[start + 1 : i], i + 1
    raise TexError("unbalanced braces")


def find_command_arg(text: str, command: str) -> str | None:
    idx = text.find(f"\\{command}")
    while idx >= 0:
        j = idx + len(command) + 1
        while j < len(text) and text[j] in " \t\n":
            j += 1
        if j < len(text) and text[j] == "[":
            close = text.find("]", j)
            if close < 0:
                return None
            j = close + 1
            while j < len(text) and text[j] in " \t\n":
                j += 1
        if j < len(text) and text[j] == "{":
            content, _ = read_braced(text, j)
            return content
        idx = text.find(f"\\{command}", idx + 1)
    return None


# spacing commands go with their arguments, which are lengths, not text
_LAYOUT_RE = re.compile(
    r"\\(?:(?:[vh]space|addvspace|enlargethispage|linespread)\*?\s*\{[^{}]*\}"
    r"|(?:set|addto)length\*?\s*(?:\{[^{}]*\}|\\[a-zA-Z]+)\s*\{[^{}]*\})"
)


_FORMAT_RE = re.compile(
    r"\\(?:textbf|textit|textsc|texttt|textrm|emph|mbox|text|underline)\{([^{}]*)\}"
)
_HREF_RE = re.compile(r"\\href\{[^}]*\}\{([^{}]*)\}")
_URL_RE = re.compile(r"\\url\{([^}]*)\}")
_NEWBLOCK_RE = re.compile(r"\\newblock\s*")
_COMMAND_ARG_RE = re.compile(r"\\[a-zA-Z]+\{([^{}]*)\}")
_COMMAND_RE = re.compile(r"\\[a-zA-Z]+\s*")
_INLINE_MATH_RE = re.compile(r"\$([^$]*)\$")
_SPACE_RUN_RE = re.compile(r"\s+")


def latex_to_plain(text: str) -> str:
    """Best-effort plain-text rendering of LaTeX fragments."""
    text = strip_comments(text)
    # each rewrite needs its trigger character, and none adds one
    commands = "\\" in text
    if commands:
        text = _LAYOUT_RE.sub("", text)
        for _ in range(3):  # formatting commands may nest
            new = _FORMAT_RE.sub(r"\1", text)
            if new == text:
                break
            text = new
        text = _HREF_RE.sub(r"\1", text)
        text = _URL_RE.sub(r"\1", text)
    if "$" in text:
        text = _INLINE_MATH_RE.sub(r"\1", text)
    if commands:
        text = _NEWBLOCK_RE.sub("", text)
        text = _COMMAND_ARG_RE.sub(r"\1", text)
        text = _COMMAND_RE.sub("", text)
    text = text.replace("~", " ").replace("{", "").replace("}", "")
    text = text.replace("\\&", "&").replace("\\%", "%").replace("\\_", "_")
    text = text.replace("``", '"').replace("''", '"').replace("--", "-")
    return _SPACE_RUN_RE.sub(" ", text).strip()


# an author list splits on an "and" outside braces: {Barnes and Noble}
# is one name
_AUTHOR_SPLIT_RE = re.compile(r"[{}]|\s+and\s+")


def _bib_names(author_field: str) -> list[tuple[str, str]]:
    """Each author of a BibTeX author field as (First Last, Last)."""
    parts, depth, begin = [], 0, 0
    for match in _AUTHOR_SPLIT_RE.finditer(author_field):
        token = match.group()
        if token == "{":
            depth += 1
        elif token == "}":
            depth -= 1
        elif depth == 0:
            parts.append(author_field[begin : match.start()])
            begin = match.end()
    parts.append(author_field[begin:])
    return [_bib_name(part) for part in map(str.strip, parts) if part]


# a name's parts split at a comma, a space or a tie (~) outside braces:
# {Smith, Ltd} is one last name
_NAME_SPLIT_RE = re.compile(r"[{},]|[\s~]+")


def _bib_name(name: str) -> tuple[str, str]:
    """A "von Last, First" or "First von Last" name as (First von Last,
    von Last), the second being what ``plain.bst`` sorts by. It is the
    part before the first comma outside braces; else it starts at the
    first word outside braces that begins in lower case and is not the
    last word, or else at the last word. A braced group counts as one
    word and as no lower-case one."""
    depth, word, von = 0, 0, None
    for match in _NAME_SPLIT_RE.finditer(name):
        token = match.group()
        if token == "{":
            depth += 1
        elif token == "}":
            depth -= 1
        elif depth == 0 and token == ",":
            last, first = name[: match.start()].strip(), name[match.end() :].strip()
            return latex_to_plain(f"{first} {last}".strip()), latex_to_plain(last)
        elif depth == 0:
            if von is None and name[word : word + 1].islower():
                von = word
            word = match.end()
    return latex_to_plain(name), latex_to_plain(name[word if von is None else von :])


_BIB_ENTRY_RE = re.compile(r"@(\w+)\s*\{")
_BIB_FIELD_RE = re.compile(r"\s*(\w+)\s*=\s*")
_BIB_BARE_VALUE_RE = re.compile(r"[^,]*")
_YEAR_RE = re.compile(r"\d{4}")


def parse_bib(text: str) -> dict[str, BibEntry]:
    """Parse a .bib database into entries keyed by citation key.

    Handles brace- and quote-delimited values with nesting; this is not a
    full BibTeX grammar but covers the entry shapes arXiv bundles use.
    """
    entries: dict[str, BibEntry] = {}
    idx = 0
    while True:
        at = text.find("@", idx)
        if at < 0:
            break
        match = _BIB_ENTRY_RE.match(text, at)
        if not match:
            idx = at + 1
            continue
        if match.group(1).lower() in ("comment", "preamble", "string"):
            idx = at + 1
            continue
        body, end = read_braced(text, match.end() - 1)
        idx = end
        key, _, fields_text = body.partition(",")
        key = key.strip()
        if not key:
            continue
        fields = _parse_bib_fields(fields_text)
        venue = (
            fields.get("journal")
            or fields.get("booktitle")
            or (f"arXiv preprint arXiv:{fields['eprint']}" if "eprint" in fields else "")
            or fields.get("howpublished", "")
        )
        year = None
        year_match = _YEAR_RE.search(fields.get("year", ""))
        if year_match:
            year = int(year_match.group())
        names = _bib_names(fields.get("author", ""))
        entry = BibEntry(
            key=key,
            raw="",
            title=latex_to_plain(fields.get("title", "")),
            authors=[name for name, _ in names],
            venue=latex_to_plain(venue),
            year=year,
            sort_name=names[0][1] if names else "",
        )
        entry.raw = render_entry(entry)
        entries[key] = entry
    return entries


def _parse_bib_fields(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    i = 0
    while i < len(text):
        match = _BIB_FIELD_RE.match(text, i)
        if not match:
            i += 1
            continue
        name = match.group(1).lower()
        i = match.end()
        if i >= len(text):
            break
        if text[i] == "{":
            value, i = read_braced(text, i)
        elif text[i] == '"':
            close = text.find('"', i + 1)
            value = text[i + 1 : close] if close > 0 else text[i + 1 :]
            i = close + 1 if close > 0 else len(text)
        else:
            match = _BIB_BARE_VALUE_RE.match(text, i)
            value = match.group().strip()
            i = match.end()
        fields[name] = value
        comma = text.find(",", i)
        i = comma + 1 if comma >= 0 else len(text)
    return fields


def render_entry(entry: BibEntry) -> str:
    """Render a bibliography entry the way it would appear in print."""
    if len(entry.authors) > 1:
        authors = ", ".join(entry.authors[:-1]) + f", and {entry.authors[-1]}"
    elif entry.authors:
        authors = entry.authors[0]
    else:
        authors = "Unknown"
    parts = [f"{authors}. {entry.title}."]
    if entry.venue and entry.year:
        parts.append(f" {entry.venue}, {entry.year}.")
    elif entry.venue:
        parts.append(f" {entry.venue}.")
    elif entry.year:
        parts.append(f" {entry.year}.")
    return "".join(parts)


_BIBITEM_RE = re.compile(r"\\bibitem(?:\[[^\]]*\])?\{([^}]*)\}")


def parse_bbl(text: str) -> list[BibEntry]:
    """Parse a .bbl (or inline thebibliography) into ordered entries."""
    matches = list(_BIBITEM_RE.finditer(text))
    entries = []
    for i, match in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        chunk = text[match.end() : end]
        chunk = chunk.split("\\end{thebibliography}")[0]
        entries.append(BibEntry(key=match.group(1), raw=latex_to_plain(chunk)))
    return entries


def _alpha_sort_key(entry: BibEntry) -> tuple:
    return (
        normalize(entry.sort_name),
        normalize(" ".join(entry.authors)),
        entry.year or 0,
        normalize(entry.title),
    )


def _undefined_keys(cited: list[str], known: Container[str]) -> Exclusion | None:
    """The compile error of citing keys outside ``known``, if any."""
    missing = [k for k in cited if k not in known]
    if missing:
        return Exclusion(EXCL_COMPILE_ERROR, f"undefined citation keys: {', '.join(missing)}")
    return None


def resolve_bibliography(
    bundle: dict[str, bytes],
    main_tex: str,
    cited: list[str],
    name: str,
    main_path: str = "",
) -> CompiledBibliography | Exclusion:
    """Determine the final bibliography order for a paper.

    A .bbl (an inline thebibliography, else ``<main stem>.bbl`` for the
    main file at ``main_path``, else the first .bbl in listing order)
    fixes the order outright, and any .bib is then not read. Otherwise a
    .bib database is ordered the way its style would: citation order for
    unsrt-family styles, alphabetical by author otherwise, over the cited
    entries only. Citing a key the chosen bibliography lacks is a compile
    error; having neither database kind excludes the paper, with ``name``
    (the bundle's) as the detail.
    """
    inline = re.search(
        r"\\begin\{thebibliography\}.*?\\end\{thebibliography\}", main_tex, re.DOTALL
    )
    if inline:
        bbl_text = inline.group()
    else:
        stem_bbl = posixpath.splitext(main_path)[0] + ".bbl"
        bbl_data = bundle.get(stem_bbl) if main_path else None
        if bbl_data is None:
            bbl_data = next((data for rel, data in bundle.items() if rel.endswith(".bbl")), None)
        bbl_text = None if bbl_data is None else decode_source(bbl_data)
    if bbl_text is not None:
        entries = parse_bbl(bbl_text)
        return _undefined_keys(cited, {e.key for e in entries}) or CompiledBibliography(entries)

    # the databases \bibliography names, or failing those every .bib
    bib_names = find_command_arg(main_tex, "bibliography")
    bib_texts = []
    for bib in bib_names.split(",") if bib_names else []:
        text = bundle_text(bundle, bib.strip(), ".bib")
        if text is not None:
            bib_texts.append(text)
    if not bib_texts:
        bib_texts = [decode_source(data) for rel, data in bundle.items() if rel.endswith(".bib")]
    bib_entries: dict[str, BibEntry] = {}
    for text in bib_texts:
        bib_entries.update(parse_bib(text))
    if not bib_entries:
        return Exclusion(EXCL_NO_BIB, name)
    undefined = _undefined_keys(cited, bib_entries)
    if undefined is not None:
        return undefined
    style = find_command_arg(main_tex, "bibliographystyle") or ""
    selected = [bib_entries[k] for k in cited]
    if "unsrt" not in style.lower():
        selected.sort(key=_alpha_sort_key)
    return CompiledBibliography(selected)
