"""Seeded synthetic workspaces for the citebias benchmark.

A workspace holds everything one ``run_pipeline`` call reads: LaTeX
bundles under ``sources/``, a fixture index under ``index/``, a replay
store under ``mock/`` and ``config.yaml``. Beside them ``plan.json``
records what the pipeline must conclude: the existence verdict and
matched index id of every generated reference, and the outcome counts
of every stage.

The generator is a pure function of (scale, seed). Every count that
drives the pipeline's cost is fixed by the scale, so two seeds give
workspaces of the same cost; the seed only picks words, names and
targets. Fixed are: papers, references, fabricated slots, repeated
suggestions, distinct search queries (a fresh real suggestion names a
record no earlier suggestion named), the mix of surface noise, and the
title lengths (every index title has ``title_chars`` characters, every
fabricated title ``fabricated_chars``), which set the cost of each
``title_similarity`` call.

The expected verdicts do not come from the matcher under test: ``Oracle``
ranks the index the way the fixture search specifies and admits only
fabricated titles that cannot reach the title threshold, and a draw it
rejects is replaced by the next draw of the same seeded stream. Then,
untimed, every planned suggestion goes through ``search_candidates`` +
``decide_existence`` against the written index, as the verify stage will;
mismatches are recorded in ``plan.json`` and the benchmark counts each
as a failure.

Run ``python3 bench/workspace.py --workload cold-corpus --seed 1 --out DIR``
to build one workspace by hand.
"""

from __future__ import annotations

import argparse
import math
import random
import re
import shutil
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MODEL_ID = "mock-model"
SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
# letters no index title uses, for the words fabricated titles add
FOREIGN_SYLLABLES = [c + v for c in "chjwy" for v in "aeiou"]
VENUES = [
    "NeurIPS",
    "International Conference on Machine Learning",
    "International Conference on Learning Representations",
    "AAAI",
    "Journal of Machine Learning Research",
    "Nature",
    "arXiv preprint",
    "Transactions on Pattern Analysis",
]
FOCAL_VENUES = ["NeurIPS 2022", "ICML 2022", "ICLR 2023", "AAAI 2023"]
# (kind, weight) of the record a real suggestion names
REAL_TARGETS = (("same-slot", 4), ("same-paper", 2), ("popular", 3), ("other-paper", 1))
# surface noise of real suggestions, assigned in turn
NOISE_KINDS = ("exact", "case", "typo", "accent")
# a postprocess response without the requested table
NO_TABLE = "Sure. The references above are already in the requested order."


@dataclass(frozen=True)
class Scale:
    """Parameters of one synthetic workspace."""

    papers: int  # N focal papers with sources
    index_records: int  # M scholarly records in the fixture index
    runs: int  # R vanilla runs (each followed by an iterative pass)
    refs_per_paper: int  # intro-cited references per paper
    outside_refs: int  # references cited only after the introduction
    title_chars: int  # length of every index title (and real suggestion)
    fabricated_chars: int  # length of every fabricated title
    fabricated_share: float  # share of suggestions per (paper, run) that are fabricated
    repeat_share: float  # share of run-1 suggestions repeated verbatim by later runs
    vocabulary: int  # distinct title words; smaller means longer search postings
    popular: int  # real records outside any bibliography that suggestions name


@dataclass(frozen=True)
class Workload:
    scale: Scale
    warm: bool  # one untimed full run at build time; cache/ kept, out/ removed


# Sizes per paper follow the source paper: its abstract (arXiv
# 2405.15739) audits 166 papers with 3,066 introduction references, 18.5
# a paper. The reference list beyond the introduction (22 more) and the
# body (``SECTION_WORDS``) are estimates, not measurements. One call
# covers one paper and one or two runs of the paper's corpus, so that a
# call takes one to three seconds and a run of the benchmark holds enough
# calls for a steady median.
CORPUS = Scale(
    papers=1,
    index_records=300,
    runs=2,
    refs_per_paper=18,
    outside_refs=22,
    title_chars=80,
    fabricated_chars=52,
    fabricated_share=0.5,
    repeat_share=0.25,
    vocabulary=600,
    popular=60,
)
BIGINDEX = Scale(
    papers=1,
    index_records=2000,
    runs=1,
    refs_per_paper=18,
    outside_refs=22,
    title_chars=36,
    fabricated_chars=30,
    fabricated_share=0.3,
    repeat_share=0.0,
    vocabulary=160,
    popular=20,
)

WORKLOADS = {
    "cold-corpus": Workload(CORPUS, warm=False),
    "cold-bigindex": Workload(BIGINDEX, warm=False),
    "warm-corpus": Workload(CORPUS, warm=True),
}

# the same shapes at a size the smoke test runs in seconds
TINY = {
    name: replace(
        w,
        scale=replace(
            w.scale,
            index_records=min(w.scale.index_records, 120),
            runs=2,
            refs_per_paper=5,
            outside_refs=3,
            popular=12,
        ),
    )
    for name, w in WORKLOADS.items()
}


# ---------------------------------------------------------------------------
# Words, titles, names
# ---------------------------------------------------------------------------


def _word(rng: random.Random, syllables: list[str] = SYLLABLES) -> str:
    return "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))


def make_vocabulary(
    rng: random.Random, size: int, syllables: list[str] = SYLLABLES
) -> dict[int, list[str]]:
    """Distinct pseudo-words bucketed by length (4, 6 or 8 letters)."""
    words: set[str] = set()
    while len(words) < size:
        words.add(_word(rng, syllables))
    buckets: dict[int, list[str]] = {}
    for w in sorted(words):
        buckets.setdefault(len(w), []).append(w)
    return buckets


class Titles:
    """Titles of exact character lengths drawn from one vocabulary, all
    with distinct normalized keys."""

    def __init__(self, rng: random.Random, vocab: dict[int, list[str]]):
        self.rng = rng
        self.vocab = vocab
        self.seen: set[str] = set()

    def make(self, length: int, pools: list[dict[int, list[str]]] | None = None) -> str:
        """A title of exactly ``length`` characters whose words take turns
        among ``pools`` (by default the vocabulary alone)."""
        pools = pools or [self.vocab]
        flat = [[w for ws in pool.values() for w in ws] for pool in pools]
        while True:
            words: list[str] = []
            size = -1
            # fill until the remainder is one word of a length the pool has
            while length - size - 1 > 8:
                w = self.rng.choice(flat[len(words) % len(pools)])
                words.append(w)
                size += len(w) + 1
            need = length - size - 1
            last = pools[len(words) % len(pools)]
            if need not in last:
                continue
            words.append(self.rng.choice(last[need]))
            key = " ".join(words)
            if key in self.seen:
                continue
            self.seen.add(key)
            return " ".join(w.capitalize() for w in words)


def _name(rng: random.Random) -> str:
    return f"{_word(rng).capitalize()} {_word(rng).capitalize()}"


def _authors(rng: random.Random) -> list[str]:
    return [_name(rng) for _ in range(rng.randint(1, 4))]


def _add_noise(rng: random.Random, title: str, kind: str) -> str:
    """A surface variant that still clears the title threshold."""
    if kind == "case":
        return title.lower() + "."
    if kind == "accent":
        return title.replace("e", "é", 1) if "e" in title else title.upper()
    if kind == "typo":
        # one substituted letter inside a word: ratio (n-1)/n
        spots = [i for i, ch in enumerate(title) if ch.isalpha() and i > 0]
        i = rng.choice(spots)
        repl = "x" if title[i].lower() != "x" else "q"
        return title[:i] + repl + title[i + 1 :]
    return title


# ---------------------------------------------------------------------------
# Index records
# ---------------------------------------------------------------------------


def _record(rng, index_id, title, authors, venue, year, references):
    citations = rng.randint(0, 5000)
    return {
        "index_id": index_id,
        "title": title,
        "authors": authors,
        "venue": venue,
        "year": year,
        "citation_count": citations,
        "influential_citation_count": citations // rng.randint(8, 20),
        "reference_count": rng.randint(5, 60),
        "references": references,
    }


def _build_index(rng: random.Random, scale: Scale, titles: Titles) -> dict:
    """Focal, bibliography, popular and distractor records."""
    n_bib = scale.refs_per_paper + scale.outside_refs
    records: dict[str, dict] = {}
    papers = []
    popular_ids = [f"p{j:04d}" for j in range(scale.popular)]

    def next_title() -> str:
        return titles.make(scale.title_chars)

    for i in range(scale.papers):
        bib_ids = [f"g{i:03d}-{k:02d}" for k in range(n_bib)]
        for k, gid in enumerate(bib_ids):
            cites = rng.sample(bib_ids[:k] + popular_ids, k=min(3, k + len(popular_ids)))
            records[gid] = _record(
                rng, gid, next_title(), _authors(rng), rng.choice(VENUES),
                rng.randint(1990, 2021), cites,
            )
        focal_id = f"f{i:03d}"
        records[focal_id] = _record(
            rng, focal_id, next_title(), _authors(rng), "NeurIPS", 2022, bib_ids
        )
        papers.append(
            {
                "preprint_id": f"2205.{i + 1:05d}",
                "index_id": focal_id,
                "bib_ids": bib_ids,
                "outside": scale.outside_refs,
                "journal_ref": FOCAL_VENUES[i % len(FOCAL_VENUES)],
                "posted_date": f"2022-{5 + i % 6:02d}-{1 + i % 28:02d}",
            }
        )
    all_bib = [gid for p in papers for gid in p["bib_ids"]]
    for pid in popular_ids:
        records[pid] = _record(
            rng, pid, next_title(), _authors(rng), rng.choice(VENUES),
            rng.randint(1990, 2021), rng.sample(all_bib, k=min(4, len(all_bib))),
        )
    ghost = {
        "preprint_id": "2207.90002",
        "index_id": "f-ghost",
        "journal_ref": "ICLR 2023",
        "posted_date": "2022-07-02",
    }
    records["f-ghost"] = _record(rng, "f-ghost", next_title(), _authors(rng), "ICLR", 2023, [])
    j = 0
    while len(records) < scale.index_records:
        did = f"d{j:05d}"
        records[did] = _record(
            rng, did, next_title(), _authors(rng), rng.choice(VENUES), rng.randint(1990, 2021), []
        )
        j += 1
    return {"records": records, "papers": papers, "popular": popular_ids, "ghost": ghost}


def _preprint_records(records: dict, papers: list[dict], ghost: dict) -> list[dict]:
    out = []
    for p in [*papers, ghost]:
        rec = records[p["index_id"]]
        out.append(
            {
                "preprint_id": p["preprint_id"],
                "title": rec["title"],
                "authors": rec["authors"],
                "journal_ref": p["journal_ref"],
                "posted_date": p["posted_date"],
                "categories": ["cs.LG"],
                "license": "CC-BY-4.0",
            }
        )
    # harvested then dropped by the blacklist
    out.append(
        {
            "preprint_id": "2206.90001",
            "title": "Workshop Notes On Widgets",
            "authors": ["Zed Zane"],
            "journal_ref": "NeurIPS 2022 Workshop on Widgets",
            "posted_date": "2022-06-01",
            "categories": ["cs.LG"],
        }
    )
    # no venue keyword: never harvested
    out.append(
        {
            "preprint_id": "2208.90003",
            "title": "An Unrelated Journal Thing",
            "authors": ["Ada Aldrin"],
            "journal_ref": "Journal of Things 4(2)",
            "posted_date": "2022-08-03",
            "categories": ["cs.LG"],
        }
    )
    return out


# ---------------------------------------------------------------------------
# LaTeX sources
# ---------------------------------------------------------------------------


# Words per part of a paper's LaTeX body. Papers at the audited venues
# have nine pages of main text (NeurIPS, ICLR; eight at ICML, seven at
# AAAI); at about 550 words a page beside figures and tables that is
# about 5,000 words, split here the way such papers usually are. The
# abstract stays under the venues' 250-word cap.
SECTION_WORDS = (
    ("abstract", 180),
    ("introduction", 900),
    ("related", 700),
    ("method", 1200),
    ("experiments", 1500),
    ("conclusion", 300),
)
FUNCTION_WORDS = "the of and to a in is for that we on with as by this are from".split()


def _sentence(rng: random.Random, words: list[str], cite: str = "") -> str:
    picked = [
        rng.choice(FUNCTION_WORDS) if rng.random() < 0.4 else rng.choice(words)
        for _ in range(rng.randint(12, 24))
    ]
    if rng.random() < 0.15:
        picked[rng.randrange(len(picked))] = f"$\\mathcal{{O}}(n^{rng.randint(2, 3)})$"
    if rng.random() < 0.1:
        picked[rng.randrange(len(picked))] = f"\\emph{{{rng.choice(words)}}}"
    text = " ".join(picked).capitalize()
    return f"{text}~{cite}." if cite else f"{text}."


def _prose(rng: random.Random, words: list[str], n_words: int, cites: list[str]) -> str:
    """Paragraphs of about ``n_words`` words, the citation commands spread
    evenly over their sentences."""
    n_sentences = max(len(cites), n_words // 18)
    at = {round(i * n_sentences / len(cites)): c for i, c in enumerate(cites)} if cites else {}
    paragraphs, current = [], []
    for i in range(n_sentences):
        current.append(_sentence(rng, words, at.get(i, "")))
        if len(current) == 6:
            paragraphs.append(" ".join(current))
            current = []
    if current:
        paragraphs.append(" ".join(current))
    return "\n\n".join(paragraphs)


def _cite_groups(rng: random.Random, keys: list[str]) -> list[str]:
    """Citation commands covering ``keys`` in order, one to three keys each."""
    groups, k = [], 0
    while k < len(keys):
        group = keys[k : k + rng.randint(1, 3)]
        k += len(group)
        groups.append(f"\\{rng.choice(['cite', 'citep', 'citet'])}{{{','.join(group)}}}")
    return groups


def _figure(rng: random.Random, words: list[str], label: str) -> str:
    return "\n".join([
        "\\begin{figure}[t]",
        "\\centering",
        f"\\includegraphics[width=0.9\\linewidth]{{figures/{label}.pdf}}",
        f"\\caption{{{_sentence(rng, words)}}}",
        f"\\label{{fig:{label}}}",
        "\\end{figure}",
    ])


def _table(rng: random.Random, words: list[str], label: str) -> str:
    rows = [
        " & ".join([rng.choice(words)] + [f"{rng.uniform(10, 99):.1f}" for _ in range(4)]) + " \\\\"
        for _ in range(8)
    ]
    return "\n".join([
        "\\begin{table}[t]",
        f"\\caption{{{_sentence(rng, words)}}}",
        f"\\label{{tab:{label}}}",
        "\\centering",
        "\\begin{tabular}{lcccc}",
        "\\toprule",
        *rows,
        "\\bottomrule",
        "\\end{tabular}",
        "\\end{table}",
    ])


def _equation(rng: random.Random, label: str) -> str:
    terms = " + ".join(f"\\lambda_{{{j}}} x_{{{j}}}^{{{rng.randint(1, 3)}}}" for j in range(4))
    return f"\\begin{{equation}}\n\\mathcal{{L}} = {terms}\n\\label{{eq:{label}}}\n\\end{{equation}}"


def _write_sources(rng, paper_dir: Path, paper: dict, records: dict, words: list[str], i: int):
    """A bundle shaped like an arXiv source of a conference paper: a main
    file that inputs one file per section, figures, tables, equations,
    comments and footnotes around about 5,000 words of text (see
    ``SECTION_WORDS``), and a ``.bib`` file of every cited entry."""
    focal = records[paper["index_id"]]
    keys = [f"k{gid.replace('-', '')}" for gid in paper["bib_ids"]]
    n_intro = len(keys) - paper["outside"]
    intro_keys, outside_keys = keys[:n_intro], keys[n_intro:]
    half = len(outside_keys) // 2
    size = dict(SECTION_WORDS)
    style = "unsrt" if i % 2 == 0 else "plainnat"
    sections = {
        "introduction": [
            "\\section{Introduction}",
            "\\label{sec:intro}",
            "% the opening paragraph was shortened for the camera-ready version",
            _prose(rng, words, size["introduction"], _cite_groups(rng, intro_keys)),
            f"Our code is public.\\footnote{{See the supplementary material, Section~\\ref{{sec:method}}.}}",
        ],
        "related": [
            "\\section{Related Work}",
            _prose(rng, words, size["related"], _cite_groups(rng, outside_keys[:half] + intro_keys[:3])),
        ],
        "method": [
            "\\section{Method}",
            "\\label{sec:method}",
            _prose(rng, words, size["method"] // 2, []),
            _equation(rng, "loss"),
            _prose(rng, words, size["method"] // 2, []),
            _equation(rng, "update"),
        ],
        "experiments": [
            "\\section{Experiments}",
            _prose(rng, words, size["experiments"] // 2, _cite_groups(rng, outside_keys[half:])),
            _figure(rng, words, "main"),
            _table(rng, words, "results"),
            "% TODO: add the ablation on the held-out split",
            _prose(rng, words, size["experiments"] // 2, []),
            _table(rng, words, "ablation"),
        ],
        "conclusion": [
            "\\section{Conclusion}",
            _prose(rng, words, size["conclusion"], []),
        ],
    }
    authors = " \\and ".join(focal["authors"])
    tex = "\n".join(
        [
            "\\documentclass{article}",
            "\\usepackage[final]{neurips_2022}",
            "\\usepackage{amsmath,amssymb}",
            "\\usepackage{graphicx}",
            "\\usepackage{booktabs}",
            "\\usepackage{hyperref}",
            "\\newcommand{\\method}{\\textsc{Ours}}",
            f"\\title{{{focal['title']}}}",
            f"\\author{{{authors}}}",
            "\\begin{document}",
            "\\maketitle",
            "\\begin{abstract}",
            _prose(rng, words, size["abstract"], []),
            "\\end{abstract}",
            *(f"\\input{{sections/{name}}}" for name in sections),
            f"\\bibliographystyle{{{style}}}",
            "\\bibliography{refs}",
            "\\end{document}",
            "",
        ]
    )
    bib = []
    for key, gid in zip(keys, paper["bib_ids"]):
        rec = records[gid]
        bib.append(
            f"@inproceedings{{{key},\n  author = {{{' and '.join(rec['authors'])}}},\n"
            f"  title = {{{rec['title']}}},\n  booktitle = {{{rec['venue']}}},\n"
            f"  pages = {{{rng.randint(1, 900)}--{rng.randint(901, 999)}}},\n"
            f"  publisher = {{PMLR}},\n  year = {{{rec['year']}}}\n}}\n"
        )
    (paper_dir / "sections").mkdir(parents=True, exist_ok=True)
    for name, parts in sections.items():
        (paper_dir / "sections" / f"{name}.tex").write_text("\n\n".join(parts) + "\n", encoding="utf-8")
    (paper_dir / "main.tex").write_text(tex, encoding="utf-8")
    (paper_dir / "refs.bib").write_text("\n".join(bib), encoding="utf-8")
    return dict(zip(keys, paper["bib_ids"]))


# ---------------------------------------------------------------------------
# Replay store rendering
# ---------------------------------------------------------------------------


def _response_text(entries: dict[int, dict]) -> str:
    return "\n".join(
        f"[{n}] {', '.join(e['authors'])}. {e['title']}. {e['venue']}, {e['year']}."
        for n, e in sorted(entries.items())
    )


def _markdown_table(entries: dict[int, dict]) -> str:
    lines = [
        "| Citation Number | Authors | Number of Authors | Title | Publication Year | Publication Venue |",
        "|---|---|---|---|---|---|",
    ]
    for n, e in sorted(entries.items()):
        lines.append(
            f"| {n} | {', '.join(e['authors'])} | {len(e['authors'])} | {e['title']} "
            f"| {e['year']} | {e['venue']} |"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Planning with build-time verdict checks
# ---------------------------------------------------------------------------


class Oracle:
    """Expected verdicts worked out without the matcher under test.

    Ranking mirrors the fixture index's title search: Jaccard overlap of
    word tokens, ties broken by id. A title stays below the title
    threshold against every record when it shares no ``k``-character
    substring with any index title: a best-window LCS of ``need`` out of
    ``n`` characters leaves at most ``2 * (n - need)`` unmatched
    characters in the pair, so some run of at least ``k`` characters is
    common to both.
    """

    def __init__(self, records: dict, title_threshold: float, fabricated_chars: int):
        self.tokens = {rid: _oracle_tokens(rec["title"]) for rid, rec in sorted(records.items())}
        n = fabricated_chars
        need = math.ceil(title_threshold * n)
        self.k = need // (2 * (n - need) + 1)
        self.grams = {
            title[i : i + self.k]
            for title in (rec["title"].lower() for rec in records.values())
            for i in range(len(title) - self.k + 1)
        }

    def top(self, title: str, limit: int = 3) -> list[str]:
        query = _oracle_tokens(title)
        scored = [
            (-len(toks & query) / len(toks | query), rid)
            for rid, toks in self.tokens.items()
            if toks & query
        ]
        return [rid for _, rid in sorted(scored)[:limit]]

    def below_threshold(self, title: str) -> bool:
        text = title.lower()
        return not any(text[i : i + self.k] in self.grams for i in range(len(text) - self.k + 1))


def _oracle_tokens(title: str) -> set[str]:
    return set(re.findall(r"[a-z0-9]+", title.lower().replace("é", "e")))


class Planner:
    """Draws suggestions whose verdicts follow from the index by
    construction, as the Oracle judges them."""

    def __init__(self, rng, scale, titles, records, popular, title_threshold):
        self.rng = rng
        self.scale = scale
        self.titles = titles
        self.records = records
        self.popular = popular
        self.oracle = Oracle(records, title_threshold, scale.fabricated_chars)
        # vocabulary words short enough that no k-gram lies inside one,
        # alternating with words made of letters the index never uses
        shared = {n: ws for n, ws in titles.vocab.items() if n <= self.oracle.k - 3}
        if not shared:
            raise ValueError("fabricated_chars too small for the title threshold")
        self.fabricated_pools = [shared, make_vocabulary(rng, 200, FOREIGN_SYLLABLES)]
        self.planned: dict[tuple, str | None] = {}
        self.used: set[str] = set()
        self.n_real = 0

    def _keep(self, entry: dict) -> dict:
        self.planned[(entry["title"], tuple(entry["authors"]))] = entry["expect"]
        return entry

    def real(self, bib_by_number: dict[int, str], number: int, other_bib: list[str]) -> dict:
        """A real suggestion naming a record no earlier suggestion named."""
        pools = {
            "same-slot": [bib_by_number[number]],
            "same-paper": sorted(bib_by_number.values()),
            "popular": self.popular,
            "other-paper": other_bib,
        }
        noise = NOISE_KINDS[self.n_real % len(NOISE_KINDS)]
        while True:
            unused = {k: [t for t in pool if t not in self.used] for k, pool in pools.items()}
            kinds = [(k, w) for k, w in REAL_TARGETS if unused[k]]
            if not kinds:
                raise RuntimeError("scale too small: every real record is already suggested")
            kind = self.rng.choices([k for k, _ in kinds], [w for _, w in kinds])[0]
            target = self.rng.choice(unused[kind])
            self.used.add(target)
            rec = self.records[target]
            entry = {
                "title": _add_noise(self.rng, rec["title"], noise),
                "authors": list(rec["authors"]),
                "venue": rec["venue"],
                "year": rec["year"],
                "expect": target,
            }
            # same authors and a title that clears the threshold by
            # construction: the verdict follows once search returns it
            if target in self.oracle.top(entry["title"]):
                self.n_real += 1
                return self._keep(entry)

    def fabricated(self) -> dict:
        while True:
            entry = {
                "title": self.titles.make(self.scale.fabricated_chars, self.fabricated_pools),
                "authors": _authors(self.rng),
                "venue": self.rng.choice(VENUES),
                "year": self.rng.randint(1985, 2022),
                "expect": None,
            }
            title = entry["title"]
            if self.oracle.below_threshold(title) and self.oracle.top(title):
                return self._keep(entry)


def check_plan(index_dir: Path, planned: dict[tuple, str | None]) -> list[str]:
    """Run every planned suggestion through ``search_candidates`` +
    ``decide_existence``, as the verify stage will; return the mismatches."""
    from citebias.clients import FixtureIndexClient
    from citebias.matcher import decide_existence, default_thresholds, search_candidates

    scholar = FixtureIndexClient(index_dir)
    thresholds = default_thresholds()
    failures = []
    for (title, authors), expect in planned.items():
        verdict = decide_existence(search_candidates(scholar, title, list(authors), limit=3), thresholds)
        got = verdict.matched_index_id if verdict.exists else None
        if got != expect:
            failures.append(f"{title!r} planned {expect} got {got}")
    return failures


def _plan_run(planner, scale, rng, numbers, bib_by_number, other_bib, first_run):
    """Suggestions for one (paper, run): a fixed number fabricated, and
    after run 1 a fixed number of each kind repeated from run 1."""
    n_fab = round(scale.fabricated_share * len(numbers))
    entries: dict[int, dict] = {}
    if first_run is not None:
        fab = [n for n in numbers if first_run[n]["expect"] is None]
        real = [n for n in numbers if first_run[n]["expect"] is not None]
        for group in (fab, real):
            for n in rng.sample(group, round(scale.repeat_share * len(group))):
                entries[n] = first_run[n]
    n_fab -= sum(1 for e in entries.values() if e["expect"] is None)
    fresh = [n for n in numbers if n not in entries]
    fab_numbers = set(rng.sample(fresh, n_fab))
    for n in fresh:
        entries[n] = planner.fabricated() if n in fab_numbers else planner.real(
            bib_by_number, n, other_bib
        )
    return entries


def build(workload: Workload, seed: int, root: Path) -> dict:
    """Write a workspace under ``root`` and return its plan."""
    from citebias.clients import dump_json
    from citebias.docprep import prepare_source, select_intro_references
    from citebias.llmgate import (
        REASK_MESSAGE,
        VANILLA,
        GenerationRun,
        render_iterative_prompt,
        render_postprocess_prompt,
        render_vanilla_prompt,
        store_mock_response,
    )

    import yaml

    scale = workload.scale
    rng = random.Random(seed)
    vocab = make_vocabulary(rng, scale.vocabulary)
    words = [w for ws in vocab.values() for w in ws]
    titles = Titles(rng, vocab)
    built = _build_index(rng, scale, titles)
    records, papers = built["records"], built["papers"]

    index_dir = root / "index"
    papers_dir = index_dir / "scholar" / "papers"
    papers_dir.mkdir(parents=True)
    for rid, rec in records.items():
        (papers_dir / f"{rid}.json").write_text(dump_json(rec), encoding="utf-8")
    (index_dir / "preprint" / "records.json").parent.mkdir(parents=True)
    (index_dir / "preprint" / "records.json").write_text(
        dump_json(_preprint_records(records, papers, built["ghost"])), encoding="utf-8"
    )

    from citebias.matcher import default_thresholds

    planner = Planner(
        rng, scale, titles, records, built["popular"], default_thresholds().title_threshold
    )
    mock_dir = root / "mock"
    verdicts: dict[str, dict[str, dict[str, str | None]]] = {}
    verified = 0
    for i, paper in enumerate(papers):
        key_to_id = _write_sources(
            rng, root / "sources" / paper["preprint_id"], paper, records, words, i
        )
        prep = prepare_source(root / "sources" / paper["preprint_id"])
        content = prep.main_content.text + "\n"
        intro_refs = select_intro_references(
            prep.main_content.citation_occurrences, prep.reference_texts, []
        )
        numbering = prep.bibliography.numbers
        bib_by_number = {numbering[k]: gid for k, gid in key_to_id.items()}
        numbers = [n for n, _ in intro_refs]
        if sorted(numbers) != sorted(numbering[k] for k in list(key_to_id)[: scale.refs_per_paper]):
            raise AssertionError(f"{paper['preprint_id']}: intro slots {numbers}")
        ref_lines = "\n".join(f"[{n}] {raw}" for n, raw in intro_refs)
        gt = {n: {**records[bib_by_number[n]]} for n in numbers}
        store_mock_response(mock_dir, render_postprocess_prompt(ref_lines), _markdown_table(gt))

        other_bib = [g for p in papers if p is not paper for g in p["bib_ids"]]
        vanilla_messages = render_vanilla_prompt(content)
        first_run = None
        for run_index in range(1, scale.runs + 1):
            plan = _plan_run(planner, scale, rng, numbers, bib_by_number, other_bib, first_run)
            first_run = first_run or plan
            namespace = f"vanilla-{run_index}"
            response = _response_text(plan)
            store_mock_response(mock_dir, vanilla_messages, response, namespace)
            post_messages = render_postprocess_prompt(response)
            if i == 0:
                # the first paper's table comes only after one re-ask, so
                # the re-ask path runs in every run
                store_mock_response(mock_dir, post_messages, NO_TABLE, namespace)
                post_messages = [*post_messages, ("assistant", NO_TABLE), ("user", REASK_MESSAGE)]
            store_mock_response(mock_dir, post_messages, _markdown_table(plan), namespace)
            verdicts.setdefault(namespace, {})[paper["preprint_id"]] = {
                str(n): e["expect"] for n, e in sorted(plan.items())
            }
            verified += len(plan)

            # the iterative pass replaces every fabricated slot
            missing = sorted(n for n, e in plan.items() if e["expect"] is None)
            merged = {str(n): e["expect"] for n, e in sorted(plan.items())}
            if missing:
                parent = GenerationRun(MODEL_ID, VANILLA, run_index)
                parent.transcript = [*vanilla_messages, ("assistant", response)]
                iter_messages = render_iterative_prompt(parent, set(missing), content)
                n_fab = round(scale.fabricated_share * len(missing))
                fab_numbers = set(rng.sample(missing, n_fab))
                replacements = {
                    n: planner.fabricated() if n in fab_numbers else planner.real(
                        bib_by_number, n, other_bib
                    )
                    for n in missing
                }
                iter_namespace = f"iterative-{run_index}"
                iter_response = _response_text(replacements)
                store_mock_response(mock_dir, iter_messages, iter_response, iter_namespace)
                store_mock_response(
                    mock_dir,
                    render_postprocess_prompt(iter_response),
                    _markdown_table(replacements),
                    iter_namespace,
                )
                merged.update({str(n): e["expect"] for n, e in replacements.items()})
                verified += len(replacements)
            verdicts.setdefault(f"iterative-{run_index}", {})[paper["preprint_id"]] = merged

    config = {
        "corpus": {
            "window": ["2022-03-01", "2023-10-31"],
            "category": "cs.LG",
            "venue_keywords": ["AAAI", "NeurIPS", "ICLR", "ICML"],
            "blacklist": ["workshop", "tiny paper", "2020", "2021",
                          "track on datasets and benchmarks", "bridge"],
            "sources_dir": "sources",
        },
        "index": {"fixture_dir": "index"},
        "provider": {"model_id": MODEL_ID, "kind": "mock"},
        "runs": {"vanilla": scale.runs, "iterative": True},
        "graph": {"strategy": "vanilla", "run_index": 1},
        "cache_dir": "cache",
        "out_dir": "out",
        "mock_dir": "mock",
    }
    (root / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")

    plan = {
        "scale": asdict(scale),
        "seed": seed,
        "warm": workload.warm,
        "papers": [p["preprint_id"] for p in papers],
        "focal_index_id": papers[0]["index_id"],
        "verdicts": verdicts,
        "verified_refs": verified,
        "outcomes": _expected_outcomes(scale, papers, verdicts),
        "build_check_failures": check_plan(index_dir, planner.planned),
    }
    (root / "plan.json").write_text(dump_json(plan), encoding="utf-8")
    return plan


def _expected_outcomes(scale: Scale, papers: list[dict], verdicts: dict) -> dict:
    """Stage outcome counts the pipeline must report on this workspace."""
    n, runs = len(papers), scale.runs
    checked = n * scale.refs_per_paper * runs
    existing = sum(
        1
        for r in range(1, runs + 1)
        for slots in verdicts[f"vanilla-{r}"].values()
        for v in slots.values()
        if v is not None
    )
    iterated = sum(
        1
        for r in range(1, runs + 1)
        for slots in verdicts[f"vanilla-{r}"].values()
        if any(v is None for v in slots.values())
    )
    iterate = {"enabled": True}
    if iterated:
        iterate["ok"] = iterated
    if n * runs - iterated:
        iterate["skipped"] = n * runs - iterated
    return {
        "ingest": {
            "harvested": n + 2,
            "after_blacklist": n + 1,
            "resolved": n + 1,
            "excluded": 0,
            "excluded_by_code": {},
            "references_enriched": sum(len(p["bib_ids"]) for p in papers),
            "references_not_found": 0,
        },
        "prepare": {
            "prepared": n,
            "excluded": 1,
            "excluded_by_code": {"no-main": 1},
            "gt_postprocess_failures": 0,
        },
        "generate": {"runs": runs, "ok": n * runs, "refusal": 0, "parse-failure": 0},
        "verify": {"checked": checked, "existing": existing},
        "iterate": iterate,
        "analyze": {
            "runs_analyzed": 2 * runs,
            "characteristics_rows": 3 * checked,
            "bias_pairs": existing,
        },
        "graph": {"graphs": n},
    }


def warm_up(root: Path) -> None:
    """One full run that fills cache/; out/ is removed afterwards."""
    from citebias.pipeline import load_config, run_pipeline

    run_pipeline(load_config(root / "config.yaml"))
    shutil.rmtree(root / "out")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="new directory to build in")
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = parser.parse_args(argv)
    if not (SRC / "citebias").is_dir():
        print(f"citebias sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    if args.out.exists():
        shutil.rmtree(args.out)
    args.out.mkdir(parents=True)
    build(workload, args.seed, args.out)
    if workload.warm:
        warm_up(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
