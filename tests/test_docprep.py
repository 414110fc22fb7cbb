"""Document preparation: bracket citations, main-file location from the
bundle listing, text rendering, bibliography order, and whole bundles
read once."""

import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citebias import bibtex, docprep
from citebias.bibtex import BibEntry, CompiledBibliography, parse_bib, resolve_bibliography
from citebias.clients import read_tree
from citebias.docprep import (
    BracketGroup,
    extract_citations,
    locate_main_tex,
    prepare_source,
    render_text,
    select_intro_references,
    uniquely_identifiable_numbers,
)
from citebias.errors import Exclusion, TexError

# ---------------------------------------------------------------------------
# Bracket extraction
# ---------------------------------------------------------------------------


def test_extract_singleton_and_range():
    groups = extract_citations("as shown in [1] and [4-8]")
    assert [g.numbers for g in groups] == [frozenset({1}), frozenset({4, 5, 6, 7, 8})]
    assert [g.raw for g in groups] == ["[1]", "[4-8]"]


def test_extract_no_brackets():
    assert extract_citations("nothing to see here") == []


def test_extract_dedupes_repeated_numbers():
    (group,) = extract_citations("[2,2,3]")
    assert group.numbers == frozenset({2, 3})


def test_extract_ignores_non_numeric_groups():
    text = "see [see 4] and [a,b] and [  ] but keep [7]"
    groups = extract_citations(text)
    assert [g.numbers for g in groups] == [frozenset({7})]


@pytest.mark.parametrize("dash", ["-", "\u2013", "\u2014", "--"])
def test_extract_dash_variants(dash):
    (group,) = extract_citations(f"[2{dash}4]")
    assert group.numbers == frozenset({2, 3, 4})


def test_extract_mixed_list_and_range():
    (group,) = extract_citations("[1, 4-6, 9]")
    assert group.numbers == frozenset({1, 4, 5, 6, 9})


def test_extract_rejects_descending_range_and_zero():
    assert extract_citations("[8-4]") == []
    assert extract_citations("[0]") == []


def test_extract_respects_known_reference_count():
    groups = extract_citations("[3] and [12]", max_number=10)
    assert [g.numbers for g in groups] == [frozenset({3})]


def _random_expression(rng: random.Random) -> tuple[str, set[int]]:
    """Build one bracket expression plus the set it must expand to."""
    dashes = ["-", "\u2013", "\u2014"]
    tokens = []
    numbers: set[int] = set()
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.4:
            lo = rng.randint(1, 40)
            hi = lo + rng.randint(1, 6)
            tokens.append(f"{lo}{rng.choice(dashes)}{hi}")
            numbers.update(range(lo, hi + 1))
        else:
            n = rng.randint(1, 60)
            tokens.append(str(n))
            numbers.add(n)
    return "[" + ",".join(tokens) + "]", numbers


def test_extraction_round_trip_property():
    rng = random.Random(20240)
    for _ in range(300):
        n_groups = rng.randint(1, 6)
        expected = []
        parts = []
        for _ in range(n_groups):
            raw, numbers = _random_expression(rng)
            expected.append(numbers)
            parts.append(f"word {raw} filler")
        text = " ".join(parts)
        groups = extract_citations(text)
        assert [set(g.numbers) for g in groups] == expected


# ---------------------------------------------------------------------------
# Uniquely identifiable numbers
# ---------------------------------------------------------------------------


def _group(*numbers: int) -> BracketGroup:
    return BracketGroup(raw="[x]", numbers=frozenset(numbers))


def test_unique_numbers_range_not_identifying():
    groups = [_group(1), _group(4, 5, 6, 7, 8)]
    assert uniquely_identifiable_numbers(groups) == {1}


def test_unique_numbers_singleton_wins_over_multi():
    # a number cited alone somewhere stays identifiable even if it also
    # appears inside a multi-citation group
    groups = [_group(3), _group(3, 7)]
    assert uniquely_identifiable_numbers(groups) == {3}


def test_unique_numbers_empty():
    assert uniquely_identifiable_numbers([]) == set()


def test_unique_numbers_matches_brute_force_rescan():
    rng = random.Random(77)
    for _ in range(200):
        groups = []
        for _ in range(rng.randint(0, 8)):
            size = rng.choice([1, 1, 1, 2, 3, 5])
            groups.append(_group(*rng.sample(range(1, 30), size)))
        expected = set()
        for g in groups:
            if len(g.numbers) == 1:
                expected |= g.numbers
        assert uniquely_identifiable_numbers(groups) == expected


# ---------------------------------------------------------------------------
# Intro reference selection
# ---------------------------------------------------------------------------

REF_TEXTS = [(i, f"entry {i}") for i in range(1, 11)]


def test_select_union_of_groups():
    groups = [_group(1), _group(4, 5, 6, 7, 8)]
    selected = select_intro_references(groups, REF_TEXTS)
    assert [num for num, _ in selected] == [1, 4, 5, 6, 7, 8]


def test_select_empty_groups():
    assert select_intro_references([], REF_TEXTS) == []


def test_select_dangling_citation_warns_not_fails():
    warnings: list[str] = []
    groups = [_group(2), _group(11)]
    selected = select_intro_references(groups, REF_TEXTS, warnings)
    assert [num for num, _ in selected] == [2]
    assert len(warnings) == 1 and "11" in warnings[0]


# ---------------------------------------------------------------------------
# Main-file location
# ---------------------------------------------------------------------------

DOC = b"\\begin{document}\nhello\n\\end{document}\n"


def test_locate_single_main():
    bundle = {"macros.tex": b"\\newcommand{\\x}{y}\n", "src/main.tex": DOC}
    assert locate_main_tex(bundle, "paper") == "src/main.tex"


def test_locate_multiple_mains_excluded():
    result = locate_main_tex({"a.tex": DOC, "sub/b.tex": DOC}, "paper")
    assert result == Exclusion("multiple-mains", "a.tex, b.tex")


def test_locate_no_main_excluded():
    result = locate_main_tex({"notes.tex": b"no document markers", "main.txt": DOC}, "paper")
    assert result == Exclusion("no-main", "paper")


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

FIXTURE_TEX = r"""
\documentclass{article}
\usepackage{neurips_2023}
\title{A Fixture Paper}
\author{Ada Author \and Ben Builder}
\begin{document}
\maketitle
\begin{abstract}
We study things~\cite{evans}.
\end{abstract}
\section{Introduction}
Prior work \cite{brown} and \cite{brown,evans} matter. % a comment
\begin{figure}
\includegraphics{plot.pdf}
\caption{A figure body that must vanish.}
\end{figure}
See Section~\ref{sec:method} for details\footnote{a footnote}.
\section{Method}
Hidden content.
\bibliographystyle{plain}
\bibliography{refs}
\end{document}
"""

FIXTURE_BIB = """
@article{adams, author = {Zoe Adams}, title = {Alpha Works}, journal = {Venue A}, year = {2001}}
@article{brown, author = {Ann Brown}, title = {Beta Works}, journal = {Venue B}, year = {2002}}
@article{clark, author = {Cal Clark}, title = {Gamma Works}, journal = {Venue C}, year = {2003}}
@article{davis, author = {Dee Davis}, title = {Delta Works}, journal = {Venue D}, year = {2004}}
@article{evans, author = {Eli Evans}, title = {Epsilon Works}, journal = {Venue E}, year = {2005}}
"""


def _fixture_bibliography() -> CompiledBibliography:
    entries = parse_bib(FIXTURE_BIB)
    # plain style: alphabetical by author over the cited keys only
    cited = ["evans", "brown"]  # appearance order in the fixture tex
    ordered = sorted((entries[k] for k in cited), key=lambda e: e.authors[0].split()[-1])
    return CompiledBibliography(ordered)


def _render(tex: str, bibliography: CompiledBibliography | None = None) -> str:
    """render_text over ``tex`` with comments stripped, as prepare_source
    hands it over."""
    return render_text(bibtex.strip_comments(tex), bibliography or _fixture_bibliography())


def test_clean_strips_figure_bodies():
    text = _render(FIXTURE_TEX)
    assert "includegraphics" not in text
    assert "plot.pdf" not in text
    assert "A figure body" not in text


def test_clean_strips_crossrefs_comments_and_later_sections(tmp_path):
    _write_fixture_bundle(tmp_path)
    text = prepare_source(tmp_path).main_content.text
    assert "sec:method" not in text
    assert "a comment" not in text
    assert "Hidden content" not in text
    assert "a footnote" not in text
    assert text.endswith("See Section for details.")


def test_clean_numbers_follow_compiled_bibliography_order():
    # alphabetical (plain style) order over cited keys: brown=1, evans=2
    bibliography = _fixture_bibliography()
    assert bibliography.numbers == {"brown": 1, "evans": 2}
    text = _render(FIXTURE_TEX, bibliography)
    assert "things [2]." in text  # \cite{evans} in the abstract
    assert "Prior work [1] and [1,2] matter." in text  # \cite{brown}, \cite{brown,evans}
    assert "\\cite" not in text


def test_clean_multi_cite_in_five_entry_database():
    # with all five entries cited, alphabetical order puts brown at 2 and
    # evans at 5, so \cite{brown,evans} renders as [2,5]
    tex = FIXTURE_TEX.replace(
        "Prior work \\cite{brown} and \\cite{brown,evans} matter.",
        "Prior work \\cite{adams}\\cite{clark}\\cite{davis} and \\cite{brown,evans} matter.",
    )
    entries = parse_bib(FIXTURE_BIB)
    ordered = sorted(entries.values(), key=lambda e: e.authors[0].split()[-1])
    text = _render(tex, CompiledBibliography(ordered))
    assert "Prior work [1][3][4] and [2,5] matter." in text


def test_clean_range_compression():
    tex = FIXTURE_TEX.replace(
        "\\cite{brown,evans}", "\\cite{adams,brown,clark,davis,evans}"
    )
    entries = parse_bib(FIXTURE_BIB)
    ordered = sorted(entries.values(), key=lambda e: e.authors[0].split()[-1])
    text = _render(tex, CompiledBibliography(ordered))
    assert "[1-5]" in text


def test_clean_unbalanced_environment_reports_line():
    bad = "\\begin{document}\ntext\n\\begin{figure}\nno closing\n\\end{document}\n"
    with pytest.raises(TexError) as err:
        render_text(bad, CompiledBibliography([]))
    # the mismatch is detected at \end{document}, naming the open figure env
    assert err.value.line == 5
    assert "figure" in str(err.value) and "line 3" in str(err.value)


def test_clean_requires_document_markers():
    with pytest.raises(TexError):
        render_text("just text", CompiledBibliography([]))
    with pytest.raises(TexError):
        render_text("\\begin{document}\nno end", CompiledBibliography([]))


def test_clean_strips_comment_after_a_line_break():
    # \\ is a line break, so the % after it starts a comment; \% is a percent sign
    tex = FIXTURE_TEX.replace(
        "Ada Author \\and", "Ada Author \\\\% affiliation TODO\n50\\% \\and"
    )
    text = _render(tex)
    assert "TODO" not in text
    assert text.split("\n")[1] == "Ada Author \\\\ 50% , Ben Builder"


def test_clean_brace_after_a_line_break_closes_its_group():
    # the } after \\ is not escaped, so the author group is balanced
    tex = FIXTURE_TEX.replace("Ben Builder}", "Ben Builder\\\\}")
    assert _render(tex).split("\n")[1] == "Ada Author , Ben Builder\\\\"


def test_clean_without_intro_heading_does_not_duplicate_abstract():
    doc = (
        "\\documentclass{article}\n\\title{T}\n\\author{A}\n"
        "\\begin{document}\n\\begin{abstract}\nThe abstract sentence.\n\\end{abstract}\n"
        "Body text here.\n\\bibliographystyle{plain}\n\\bibliography{refs}\n\\end{document}\n"
    )
    text = render_text(doc, CompiledBibliography([]))
    assert text.count("The abstract sentence.") == 1
    assert text.endswith("1 Introduction\nBody text here.")


def test_render_reads_the_intro_after_an_abstract_holding_its_heading():
    # the introduction is read from the main file, not from the rendered
    # abstract, even when the abstract holds an introduction heading
    doc = (
        "\\documentclass{article}\n\\title{T}\n\\author{A}\n\\begin{document}\n"
        "\\section{Introduction}\nThe real introduction \\cite{brown}.\n\\section{Method}\nM.\n"
        "\\begin{abstract}\nLead. \\section{Introduction} x\n\\end{abstract}\n\\end{document}\n"
    )
    text = render_text(doc, _fixture_bibliography())
    assert text.endswith("1 Introduction\nThe real introduction [1].")
    assert "Abstract\nLead. Introduction x\n" in text


def test_clean_strips_footnote_marks_texts_and_numbered_footnotes(tmp_path):
    # \footnote[n]{..}, \footnotemark[n] and \footnotetext[n]{..} go whole;
    # a leaked [1] would be read as a citation of reference 1
    _write_fixture_bundle(tmp_path)
    tex = FIXTURE_TEX.replace("Ada Author", "Ada Author\\footnotemark[1]").replace(
        "for details\\footnote{a footnote}.",
        "for details\\footnote[2]{Numbered note.}\\footnotemark."
        "\\footnotetext[2]{Hidden {nested} note.} More\\footnotetext{Plain note.} text.",
    )
    (tmp_path / "main.tex").write_text(tex)
    prep = prepare_source(tmp_path)
    assert prep.main_content.text.split("\n")[1] == "Ada Author , Ben Builder"
    assert prep.main_content.text.endswith("See Section for details. More text.")
    assert [g.raw for g in prep.main_content.citation_occurrences] == ["[2]", "[1]", "[1,2]"]


def _tiny_document(title: str, intro: str) -> str:
    return (
        "\\documentclass{article}\n\\title{%s}\n\\author{A}\n\\begin{document}\n"
        "\\section{Introduction}\n%s\n\\end{document}\n" % (title, intro)
    )


def test_render_leaves_a_word_break_for_list_markers():
    # \begin/\end of a kept environment and each \item, with or without
    # its [label], become a space; \itemsep is a longer control word
    intro = (
        "We list:\\begin{itemize}\\item one\\end{itemize}"
        "\\begin{enumerate}\\itemsep\\item[(a)]two\\item three\\end{enumerate}done."
    )
    text = render_text(_tiny_document("T", intro), _fixture_bibliography())
    assert text.endswith("1 Introduction\nWe list: one two three done.")


def test_render_drops_spacing_commands_with_their_lengths():
    intro = (
        "one\\setlength{\\itemsep}{0pt} two\\vspace{2mm} x\\vspace* {-1ex}y "
        "\\hspace*{1em}three \\addtolength\\parskip{0.5\\baselineskip}four "
        "\\linespread{0.95}five\\enlargethispage*{2\\baselineskip} six\\addvspace{3pt}."
    )
    text = render_text(_tiny_document("T", intro), _fixture_bibliography())
    assert text.endswith("1 Introduction\none two xy three four five six.")


def test_render_keeps_a_citation_that_opens_a_list_item():
    # the item's optional label is read before citations become bracket
    # groups, so [1] is not taken for a label
    intro = "\\begin{itemize}\\item \\citet{brown} show X\\item[(b)] \\cite{evans}.\\end{itemize}"
    text = render_text(_tiny_document("T", intro), _fixture_bibliography())
    assert text.endswith("1 Introduction\n[1] show X [2].")


def test_render_drops_thanks_and_spaced_footnotes():
    intro = "a note\\footnote {spaced out}. b\\footnote\n[3] {numbered}, and\\footnotemark[2] x."
    text = render_text(_tiny_document("T\\thanks{Funded}", intro), _fixture_bibliography())
    assert text.split("\n")[0] == "T"
    assert text.endswith("1 Introduction\na note. b, and x.")

def _random_document(rng: random.Random, keys: list[str]) -> tuple[str, list[list[str]]]:
    """A main file with comments stripped, plus the key lists of its
    front-matter citations in reading order."""
    cited: list[list[str]] = []

    def cite() -> str:
        group = rng.sample(keys, rng.randint(1, 4))
        cited.append(group)
        return "\\cite%s{%s}" % (rng.choice(["", "p", "t"]), ",".join(group))

    parts = ["\\documentclass{article}", "\\title{Paper %d}" % rng.randint(1, 99)]
    parts += ["\\author{Someone}", "\\begin{document}"]
    if rng.random() < 0.7:
        parts.append("\\maketitle")
    if rng.random() < 0.8:
        parts.append("\\begin{abstract}\nAbstract sentence %s.\n\\end{abstract}" % cite())
    if rng.random() < 0.8:
        parts.append("\\section{Introduction}\n\\label{sec:intro}")
    for _ in range(rng.randint(1, 4)):
        parts.append("Some intro text %s and more~\\ref{fig:x}." % cite())
        if rng.random() < 0.3:
            parts.append("\\begin{figure}\nfigure body \\cite{%s}\n\\end{figure}" % keys[0])
    if rng.random() < 0.5:
        parts.append("\\section{%s}\nhidden \\cite{%s}" % (rng.choice(["Method", "Results"]), keys[0]))
    parts += ["\\bibliographystyle{plain}", "\\bibliography{refs}", "\\end{document}"]
    return "\n".join(parts), cited


def test_render_properties_on_randomized_documents():
    rng = random.Random(42)
    keys = [f"k{i}" for i in range(1, 13)]
    for _ in range(200):
        order = rng.sample(keys, len(keys))
        bibliography = CompiledBibliography([BibEntry(key=k, raw=k) for k in order])
        doc, cited = _random_document(rng, keys)
        text = render_text(doc, bibliography)
        assert "\\cite" not in text and "figure body" not in text and "hidden" not in text
        assert text.count("Abstract sentence") == doc.count("Abstract sentence")
        expected = [frozenset(bibliography.numbers[k] for k in group) for group in cited]
        assert [g.numbers for g in extract_citations(text)] == expected


# ---------------------------------------------------------------------------
# Bibliography resolution
# ---------------------------------------------------------------------------


BIB_BUNDLE = {"refs.bib": FIXTURE_BIB.encode()}


def test_resolve_unsrt_uses_citation_order():
    tex = FIXTURE_TEX.replace("plain", "unsrt")
    bibliography = resolve_bibliography(BIB_BUNDLE, tex, ["evans", "brown"], "paper")
    assert [e.key for e in bibliography.entries] == ["evans", "brown"]


def test_resolve_plain_sorts_alphabetically():
    bibliography = resolve_bibliography(BIB_BUNDLE, FIXTURE_TEX, ["evans", "brown"], "paper")
    assert [e.key for e in bibliography.entries] == ["brown", "evans"]


def test_resolve_undefined_key_is_compile_error():
    result = resolve_bibliography(BIB_BUNDLE, FIXTURE_TEX, ["evans", "ghost"], "paper")
    assert isinstance(result, Exclusion) and result.code == "compile-error"
    assert "ghost" in result.detail


def test_resolve_no_database_is_excluded():
    result = resolve_bibliography({}, FIXTURE_TEX, ["evans"], "paper")
    assert isinstance(result, Exclusion) and result.code == "no-bib"


def test_resolve_missing_named_database_is_excluded_with_the_bundle_name():
    tex = FIXTURE_TEX.replace("\\bibliography{refs}", "\\bibliography{missing}")
    result = resolve_bibliography({"main.tex": tex.encode()}, tex, ["evans"], "paper-7")
    assert result == Exclusion("no-bib", "paper-7")


def test_resolve_bbl_order_wins():
    bbl = (
        "\\begin{thebibliography}{9}\n"
        "\\bibitem{evans} Eli Evans. Epsilon Works. Venue E, 2005.\n"
        "\\bibitem{brown} Ann Brown. Beta Works. Venue B, 2002.\n"
        "\\end{thebibliography}\n"
    )
    tex = FIXTURE_TEX.replace("\\bibliography{refs}", "")
    bibliography = resolve_bibliography({"main.bbl": bbl.encode()}, tex, ["evans", "brown"], "p")
    assert [e.key for e in bibliography.entries] == ["evans", "brown"]
    assert "Epsilon Works" in bibliography.entries[0].raw


def _bbl(*keys):
    works = {"brown": "Ann Brown. Beta Works. Venue B, 2002.",
             "evans": "Eli Evans. Epsilon Works. Venue E, 2005."}
    items = "".join(f"\\bibitem{{{key}}} {works[key]}\n" for key in keys)
    return "\\begin{thebibliography}{9}\n" + items + "\\end{thebibliography}\n"


def test_resolve_bbl_file_wins_over_a_bib():
    # plain style would sort the .bib entries to brown, evans
    bundle = {"main.bbl": _bbl("evans", "brown").encode(), **BIB_BUNDLE}
    bibliography = resolve_bibliography(bundle, FIXTURE_TEX, ["evans", "brown"], "p", "main.tex")
    assert [e.key for e in bibliography.entries] == ["evans", "brown"]


def test_resolve_inline_bibliography_wins_over_a_bib():
    tex = FIXTURE_TEX.replace("\\bibliography{refs}", _bbl("evans", "brown"))
    bibliography = resolve_bibliography(BIB_BUNDLE, tex, ["evans", "brown"], "p", "main.tex")
    assert [e.key for e in bibliography.entries] == ["evans", "brown"]


def test_resolve_prefers_the_main_stem_bbl():
    bundle = {"a.bbl": _bbl("brown", "evans").encode(), "paper.bbl": _bbl("evans", "brown").encode()}
    cited = ["evans", "brown"]
    stem = resolve_bibliography(bundle, FIXTURE_TEX, cited, "p", "paper.tex")
    assert [e.key for e in stem.entries] == ["evans", "brown"]
    # without a <main stem>.bbl, the first in listing order
    first = resolve_bibliography(bundle, FIXTURE_TEX, cited, "p", "main.tex")
    assert [e.key for e in first.entries] == ["brown", "evans"]


def test_prepare_source_numbers_by_the_main_stem_bbl(tmp_path):
    (tmp_path / "paper.tex").write_text(FIXTURE_TEX)
    (tmp_path / "refs.bib").write_text(FIXTURE_BIB)
    (tmp_path / "a.bbl").write_text(_bbl("brown", "evans"))
    (tmp_path / "paper.bbl").write_text(_bbl("evans", "brown"))
    prep = prepare_source(tmp_path)
    assert [e.key for e in prep.bibliography.entries] == ["evans", "brown"]


# ---------------------------------------------------------------------------
# End-to-end preparation of a source bundle
# ---------------------------------------------------------------------------


def _write_fixture_bundle(tmp_path):
    (tmp_path / "main.tex").write_text(FIXTURE_TEX)
    (tmp_path / "refs.bib").write_text(FIXTURE_BIB)


def test_prepare_source_full_flow(tmp_path):
    _write_fixture_bundle(tmp_path)
    prep = prepare_source(tmp_path)
    assert not isinstance(prep, Exclusion)
    # brown sorts before evans under the plain-style ordering
    assert [e.key for e in prep.bibliography.entries] == ["brown", "evans"]
    assert [g.raw for g in prep.main_content.citation_occurrences] == ["[2]", "[1]", "[1,2]"]
    assert prep.reference_texts == [
        (1, "Ann Brown. Beta Works. Venue B, 2002."),
        (2, "Eli Evans. Epsilon Works. Venue E, 2005."),
    ]
    for group in prep.main_content.citation_occurrences:
        assert group.raw in prep.main_content.text


def test_prepare_source_reads_the_bundle_once_through_read_tree(tmp_path, monkeypatch):
    _write_fixture_bundle(tmp_path)
    (tmp_path / "sec").mkdir()
    (tmp_path / "sec" / "more.tex").write_text("More text \\cite{evans}.\n")
    tex = FIXTURE_TEX.replace("matter. % a comment", "matter.\n\\input{sec/more}")
    (tmp_path / "main.tex").write_text(tex)
    calls = []

    def counted(root):
        calls.append(root)
        return read_tree(root)

    def refuse(*args, **kwargs):
        raise AssertionError("prepare_source read the bundle outside read_tree")

    monkeypatch.setattr(docprep, "read_tree", counted)
    for method in ("rglob", "read_bytes", "read_text"):
        monkeypatch.setattr(Path, method, refuse)
    prep = prepare_source(tmp_path)
    assert calls == [tmp_path]
    assert not isinstance(prep, Exclusion)
    assert "More text [2]." in prep.main_content.text
    assert [e.key for e in prep.bibliography.entries] == ["brown", "evans"]


def test_render_text_is_the_front_matter_only(tmp_path):
    _write_fixture_bundle(tmp_path)
    prep = prepare_source(tmp_path)
    text = _render(FIXTURE_TEX, prep.bibliography)
    assert text == prep.main_content.text
    assert text.startswith("A Fixture Paper\nAda Author , Ben Builder\n")
    assert text.endswith("Prior work [1] and [1,2] matter. See Section for details.")


def test_prepare_source_ignores_commented_input(tmp_path):
    _write_fixture_bundle(tmp_path)
    commented = "matter. % a comment\n% \\input{old}"
    (tmp_path / "main.tex").write_text(FIXTURE_TEX.replace("matter. % a comment", commented))
    (tmp_path / "old.tex").write_text("Old first line.\nOld second line \\cite{adams} LEAKED.\n")
    prep = prepare_source(tmp_path)
    assert not isinstance(prep, Exclusion)
    assert "LEAKED" not in prep.main_content.text
    assert [e.key for e in prep.bibliography.entries] == ["brown", "evans"]


def test_prepare_source_ignores_commented_bibliographystyle(tmp_path):
    _write_fixture_bundle(tmp_path)
    live = "\\bibliographystyle{plain}"
    tex = FIXTURE_TEX.replace(live, "%\\bibliographystyle{unsrt}\n" + live)
    (tmp_path / "main.tex").write_text(tex)
    prep = prepare_source(tmp_path)
    assert not isinstance(prep, Exclusion)
    assert [e.key for e in prep.bibliography.entries] == ["brown", "evans"]


@pytest.mark.parametrize("absolute", [True, False])
def test_prepare_source_does_not_inline_input_outside_the_bundle(tmp_path, absolute):
    bundle, outside = tmp_path / "bundle", tmp_path / "outside"
    bundle.mkdir()
    outside.mkdir()
    _write_fixture_bundle(bundle)
    (outside / "secret.tex").write_text("OUTSIDE secret text.\n")
    name = str(outside / "secret") if absolute else "../outside/secret"
    tex = FIXTURE_TEX.replace("matter. % a comment", f"matter.\n\\input{{{name}}}")
    (bundle / "main.tex").write_text(tex)
    prep = prepare_source(bundle)
    assert not isinstance(prep, Exclusion)
    assert "OUTSIDE" not in prep.main_content.text


@pytest.mark.parametrize("absolute", [True, False])
def test_prepare_source_ignores_bibliography_outside_the_bundle(tmp_path, absolute):
    bundle, outside = tmp_path / "bundle", tmp_path / "outside"
    bundle.mkdir()
    outside.mkdir()
    _write_fixture_bundle(bundle)
    (outside / "ext.bib").write_text(FIXTURE_BIB.replace("Works", "Outside"))
    name = str(outside / "ext") if absolute else "../outside/ext"
    tex = FIXTURE_TEX.replace("\\bibliography{refs}", f"\\bibliography{{{name}}}")
    (bundle / "main.tex").write_text(tex)
    prep = prepare_source(bundle)
    assert not isinstance(prep, Exclusion)
    assert [e.title for e in prep.bibliography.entries] == ["Beta Works", "Epsilon Works"]


def test_prepare_source_reads_symlinked_input_inside_the_bundle(tmp_path):
    bundle, outside = tmp_path / "bundle", tmp_path / "outside"
    bundle.mkdir()
    outside.mkdir()
    _write_fixture_bundle(bundle)
    (outside / "real.tex").write_text("LINKED text.\n")
    # read_tree reads a symlinked file through, so the input digest hashes
    # what the link points at and the file may be inlined
    (bundle / "linked.tex").symlink_to(outside / "real.tex")
    tex = FIXTURE_TEX.replace("matter. % a comment", "matter.\n\\input{linked}")
    (bundle / "main.tex").write_text(tex)
    prep = prepare_source(bundle)
    assert not isinstance(prep, Exclusion)
    assert "LINKED" in prep.main_content.text


def _bundle_with_linked_directory(tmp_path):
    bundle, outside = tmp_path / "bundle", tmp_path / "outside"
    bundle.mkdir()
    outside.mkdir()
    _write_fixture_bundle(bundle)
    (outside / "secret.tex").write_text("OUTSIDE secret text.\n")
    (outside / "ext.bib").write_text(FIXTURE_BIB.replace("Works", "Outside"))
    (bundle / "linkdir").symlink_to(outside, target_is_directory=True)
    # read_tree, and so the input digest, does not enter the linked directory
    assert [rel for rel, _ in read_tree(bundle)] == ["main.tex", "refs.bib"]
    return bundle


def test_prepare_source_does_not_inline_input_through_a_symlinked_directory(tmp_path):
    bundle = _bundle_with_linked_directory(tmp_path)
    tex = FIXTURE_TEX.replace("matter. % a comment", "matter.\n\\input{linkdir/secret}")
    (bundle / "main.tex").write_text(tex)
    prep = prepare_source(bundle)
    assert not isinstance(prep, Exclusion)
    assert "OUTSIDE" not in prep.main_content.text


def test_prepare_source_ignores_bibliography_through_a_symlinked_directory(tmp_path):
    bundle = _bundle_with_linked_directory(tmp_path)
    tex = FIXTURE_TEX.replace("\\bibliography{refs}", "\\bibliography{linkdir/ext}")
    (bundle / "main.tex").write_text(tex)
    prep = prepare_source(bundle)
    assert not isinstance(prep, Exclusion)
    assert [e.title for e in prep.bibliography.entries] == ["Beta Works", "Epsilon Works"]


def test_prepare_source_malformed_bib_is_compile_error(tmp_path):
    _write_fixture_bundle(tmp_path)
    with (tmp_path / "refs.bib").open("a") as bib:
        bib.write("@article{broken, title={Unclosed\n")
    result = prepare_source(tmp_path)
    assert isinstance(result, Exclusion) and result.code == "compile-error"
    assert "unbalanced braces" in result.detail


def test_prepare_source_compile_error(tmp_path):
    (tmp_path / "main.tex").write_text(FIXTURE_TEX.replace("\\cite{brown}", "\\cite{ghost}"))
    (tmp_path / "refs.bib").write_text(FIXTURE_BIB)
    result = prepare_source(tmp_path)
    assert isinstance(result, Exclusion) and result.code == "compile-error"


# ---------------------------------------------------------------------------
# Compiled scans against their per-character references
# ---------------------------------------------------------------------------


def _read_braced_reference(text, start):
    # the per-character reader the brace scan replaced
    if start >= len(text) or text[start] != "{":
        raise TexError(f"expected '{{' at offset {start}")
    depth = 0
    for i in range(start, len(text)):
        if text[i] in "{}" and not bibtex._escaped(text, i):
            depth += 1 if text[i] == "{" else -1
            if depth == 0:
                return text[start + 1 : i], i + 1
    raise TexError("unbalanced braces")


def _strip_comments_reference(tex):
    out = []
    for line in tex.split("\n"):
        j = line.find("%")
        while j >= 0 and bibtex._escaped(line, j):
            j = line.find("%", j + 1)
        out.append(line if j < 0 else line[:j])
    return "\n".join(out)


def _latex_to_plain_reference(text):
    # every rewrite, whether or not its trigger character is present
    text = bibtex._LAYOUT_RE.sub("", _strip_comments_reference(text))
    for _ in range(3):
        new = re.sub(
            r"\\(?:textbf|textit|textsc|texttt|textrm|emph|mbox|text|underline)\{([^{}]*)\}",
            r"\1",
            text,
        )
        if new == text:
            break
        text = new
    text = re.sub(r"\\href\{[^}]*\}\{([^{}]*)\}", r"\1", text)
    text = re.sub(r"\\url\{([^}]*)\}", r"\1", text)
    text = re.sub(r"\$([^$]*)\$", r"\1", text)
    text = re.sub(r"\\newblock\s*", "", text)
    text = re.sub(r"\\[a-zA-Z]+\{([^{}]*)\}", r"\1", text)
    text = re.sub(r"\\[a-zA-Z]+\s*", "", text)
    text = text.replace("~", " ").replace("{", "").replace("}", "")
    text = text.replace("\\&", "&").replace("\\%", "%").replace("\\_", "_")
    text = text.replace("``", '"').replace("''", '"').replace("--", "-")
    return re.sub(r"\s+", " ", text).strip()


def _check_environments_reference(tex):
    # counts the line of every marker, as before errors alone did
    stack = []
    for match in re.finditer(r"\\(begin|end)\{([^}]*)\}", tex):
        kind, name = match.group(1), match.group(2)
        line = tex.count("\n", 0, match.start()) + 1
        if kind == "begin":
            stack.append((name, line))
        else:
            if not stack:
                raise TexError(f"\\end{{{name}}} without a matching \\begin", line)
            if stack[-1][0] != name:
                open_name, open_line = stack[-1]
                raise TexError(
                    f"\\end{{{name}}} closes \\begin{{{open_name}}} from line {open_line}", line
                )
            stack.pop()
    if stack:
        name, line = stack[-1]
        raise TexError(f"\\begin{{{name}}} is never closed", line)


def _outcome(fn, *args):
    """(value, None) or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except Exception as exc:  # compared, not swallowed
        return None, (type(exc), str(exc))


LATEX_PIECES = [
    "\\", "\\\\", "{", "}", "%", "\\%", "$", "~", "\n", " ", "\t", "a", "Z", "é", "0pt",
    "and", " and ", "\\textbf", "\\emph", "\\text", "\\url", "\\href", "\\newblock",
    "\\vspace", "\\setlength", "\\itemsep", "\\&", "\\_", "``", "''", "--", "\\begin{a}",
    "\\end{a}", "\\begin{b}", "\\end{b}",
]
latex_like = st.lists(st.sampled_from(LATEX_PIECES), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(latex_like, st.data())
@example("\\{a}{b}", None)
@example("x{a\\}b}", None)
def test_read_braced_agrees_with_the_per_character_reader(text, data):
    starts = range(len(text) + 1)
    picked = starts if data is None else [data.draw(st.sampled_from(starts))]
    for start in picked:
        assert _outcome(bibtex.read_braced, text, start) == _outcome(
            _read_braced_reference, text, start
        )


@settings(max_examples=400, deadline=None)
@given(latex_like)
@example("no markers at all")
@example("\\textbf{\\emph{x}} $y$ 50\\% % gone")
def test_latex_to_plain_and_strip_comments_agree_with_the_unguarded_rewrites(text):
    assert bibtex.strip_comments(text) == _strip_comments_reference(text)
    assert bibtex.latex_to_plain(text) == _latex_to_plain_reference(text)


@settings(max_examples=400, deadline=None)
@given(latex_like)
@example("\\begin{a}\n\\begin{b}\n\\end{a}")
@example("\n\n\\end{b}")
@example("\\begin{a}\n\n")
def test_check_environments_agrees_with_counting_every_line(text):
    assert _outcome(docprep.check_environments, text) == _outcome(
        _check_environments_reference, text
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["Ann", " ", "  ", "and", " and ", "\t", "Lee,", "Bo", "\n"]),
                max_size=20).map("".join))
def test_unbraced_author_list_splits_as_before(field):
    # without braces every "and" is at depth 0, so the split is re.split's
    expected = []
    for part in re.split(r"\s+and\s+", field):
        part = part.strip()
        if part:
            if "," in part:
                last, _, first = part.partition(",")
                part = f"{first.strip()} {last.strip()}".strip()
            expected.append(bibtex.latex_to_plain(part))
    assert [name for name, _ in bibtex._bib_names(field)] == expected


def test_braced_and_does_not_split_a_bib_author():
    entries = parse_bib(
        "@article{k1, author={Doe, Jane and {Barnes and Noble}}, year={2020}}"
    )
    assert entries["k1"].authors == ["Jane Doe", "Barnes and Noble"]
    assert [name for name, _ in bibtex._bib_names("{A and B} and C and {D {and} E}")] == [
        "A and B",
        "C",
        "D and E",
    ]


def test_braced_comma_does_not_split_a_bib_name():
    assert [name for name, _ in bibtex._bib_names("{Smith, Ltd}")] == ["Smith, Ltd"]
    assert [name for name, _ in bibtex._bib_names("Doe, Jane and {Smith, Ltd}")] == [
        "Jane Doe",
        "Smith, Ltd",
    ]
    entries = parse_bib("@article{k1, author={{Smith, Ltd} and {van Dyke}, Dick}, year={2020}}")
    assert entries["k1"].authors == ["Smith, Ltd", "Dick van Dyke"]


def test_parse_bib_reads_every_field_form():
    # braced, quoted and bare values; text with no "name =" is skipped;
    # an unterminated quote runs to the end of the entry
    entries = parse_bib(
        "@article{k1,\n"
        '  author = "Doe, Jane and Roe, Rick",\n'
        "  title = {Braced {Title}},\n"
        "  year = 2020 ,\n"
        "  ;; stray text with no equals sign ;;\n"
        '  journal = "Journal of Quotes"\n'
        "}\n"
        '@misc{k2, title = "Never Closed, year = 2021}\n'
        "@misc{k3, title = }\n"
    )
    k1, k2, k3 = entries["k1"], entries["k2"], entries["k3"]
    assert (k1.authors, k1.title, k1.year, k1.venue) == (
        ["Jane Doe", "Rick Roe"],
        "Braced Title",
        2020,
        "Journal of Quotes",
    )
    assert (k2.title, k2.year) == ("Never Closed, year = 2021", None)
    assert (k3.title, k3.year, k3.authors) == ("", None, [])


@pytest.mark.parametrize(
    "author, sort_name",
    [
        ("Doe, Jane", "Doe"),
        ("Jane Doe", "Doe"),
        ("Jane~Doe", "Doe"),
        # plain.bst sorts by von part plus last name, in either form
        ("Ludwig van Beethoven", "van Beethoven"),
        ("van Beethoven, Ludwig", "van Beethoven"),
        ("Ludwig~van~Beethoven", "van Beethoven"),
        ("Dick {van Dyke}", "van Dyke"),
        ("Jean De La Fontaine", "Fontaine"),
        ("Jean de La Fontaine", "de La Fontaine"),
        ("Jean d'Alembert", "d'Alembert"),
        ("{Smith, Ltd}", "Smith, Ltd"),
        ("{Barnes and Noble}", "Barnes and Noble"),
        ("Jane {De la Cruz}", "De la Cruz"),
        ("{van Dyke}, Dick", "van Dyke"),
    ],
)
def test_sort_name_is_the_last_name_outside_braces(author, sort_name):
    entry = parse_bib(f"@article{{k1, author={{{author} and Ann Other}}, year={{2020}}}}")["k1"]
    assert entry.sort_name == sort_name


def test_plain_style_sorts_a_braced_name_as_one_last_name():
    # {Smith, Ltd} sorts under "smith, ltd": after Nolan, not under "ltd"
    bib = (
        "@article{corp, author={{Smith, Ltd}}, title={A}, year={2020}}\n"
        "@article{nolan, author={Mary Nolan}, title={B}, year={2020}}\n"
    )
    tex = "\\bibliographystyle{plain}\n\\bibliography{refs}\n"
    bibliography = resolve_bibliography({"refs.bib": bib.encode()}, tex, ["corp", "nolan"], "paper")
    assert [e.key for e in bibliography.entries] == ["nolan", "corp"]
    assert bibtex._alpha_sort_key(bibliography.entries[1])[0] == "smith, ltd"
