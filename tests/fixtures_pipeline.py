"""Builds a complete offline workspace for end-to-end pipeline runs.

The workspace contains three LaTeX source bundles (unsrt .bib, plain
.bib, and .bbl variants), a fixture index directory for both services,
a replay store with scripted responses for every prompt the pipeline
will send, and a config file wiring them together.

The response store is driven by per-(paper, run) plans mapping citation
slots to either a real index record or a fabricated reference. Vanilla
prompts are identical across runs, so per-run draws live in run-scoped
store namespaces (``vanilla-1/``, ``iterative-2/``, ...). The builder
self-checks: it runs document preparation to obtain the exact prompts,
and it scores every planned reference against the fixture index to
guarantee the verify stage reaches the planned verdicts.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from citebias.clients import FixtureIndexClient, dump_json
from citebias.docprep import prepare_source, select_intro_references
from citebias.errors import Exclusion
from citebias.llmgate import (
    REASK_MESSAGE,
    VANILLA,
    GenerationRun,
    render_iterative_prompt,
    render_postprocess_prompt,
    render_vanilla_prompt,
    store_mock_response,
)
from citebias.matcher import decide_existence, default_thresholds, search_candidates

# ---------------------------------------------------------------------------
# Scholarly index records
# ---------------------------------------------------------------------------


def _rec(index_id, title, authors, venue, year, citations, influential, references, outgoing):
    return {
        "index_id": index_id,
        "title": title,
        "authors": authors,
        "venue": venue,
        "year": year,
        "citation_count": citations,
        "influential_citation_count": influential,
        "reference_count": references,
        "references": outgoing,
    }


SCHOLAR_RECORDS = [
    # --- paper A: Adaptive Widget Learning -------------------------------
    _rec("focalA", "Adaptive Widget Learning", ["Pat Prime", "Quinn Quill"], "NeurIPS", 2022,
         5, 1, 10, [f"a{i}" for i in range(1, 11)]),
    _rec("a1", "Foundations of Adaptive Widgets", ["Wendy Founder", "Omar First"],
         "Machine Intelligence Journal", 1986, 4200, 300, 20, ["a2", "a3"]),
    _rec("a2", "Stochastic Widget Descent", ["Ann Brown", "Bo Chen"],
         "Advances in Neural Information Processing Systems", 1995, 2600, 180, 18, ["a1"]),
    _rec("a3", "Widget Regularization Revisited", ["Cal Carr"],
         "Journal of Widget Research", 2004, 950, 70, 30, ["a1", "a2"]),
    _rec("a4", "Deep Widget Networks", ["Dee Drew", "Eli Evans", "Fay Fox"],
         "International Conference on Machine Learning", 2014, 1800, 120, 35, ["a2", "a3"]),
    _rec("a5", "Attention for Widgets", ["Gus Green", "Hal Hart"],
         "NeurIPS", 2018, 2900, 210, 40, ["a4"]),
    _rec("a6", "Self-Supervised Widget Pretraining", ["Ida Iris", "Jan Jones"],
         "International Conference on Learning Representations", 2021, 800, 60, 45, ["a4", "a5"]),
    _rec("a7", "Widget Benchmarks at Scale", ["Kit Kahn"],
         "arXiv preprint arXiv:2005.01234", 2020, 300, 20, 50, ["a5"]),
    _rec("a8", "A Survey of Widget Methods", ["Lee Long", "Mia Moss"],
         "ACM Computing Surveys", 2019, 700, 40, 120, ["a1"]),
    _rec("a9", "Widget Distillation", ["Ned North"],
         "NeurIPS", 2022, 150, 10, 38, ["a5", "a6"]),
    _rec("a10", "Bayesian Widgets", ["Opal Ortiz"],
         "AAAI", 2013, 400, 30, 27, ["a2"]),
    # --- paper B: Sparse Gadget Distillation ------------------------------
    _rec("focalB", "Sparse Gadget Distillation", ["Rae Ruiz"], "ICML", 2022,
         3, 0, 8, [f"b{i}" for i in range(1, 9)]),
    _rec("b1", "Gadget Priors for Sparse Models", ["Ann Alpha"],
         "Statistical Gadgetry", 1988, 5100, 400, 15, ["b2"]),
    _rec("b2", "Bayesian Gadget Selection", ["Bob Beta", "Cal Carr"],
         "AAAI", 2001, 1900, 130, 22, ["b1"]),
    _rec("b3", "Neural Gadget Machines", ["Cam Carver", "Dee Drew"],
         "NeurIPS", 2015, 3200, 250, 30, ["b1", "b2"]),
    _rec("b4", "Gadget Pruning at Initialization", ["Dana Dorn"],
         "International Conference on Learning Representations", 2019, 700, 50, 28, ["b3"]),
    _rec("b5", "Distilling Sparse Gadgets", ["Eve Early", "Fred Fain"],
         "arXiv preprint arXiv:2202.01234", 2022, 120, 8, 33, ["b3", "b4"]),
    _rec("b6", "Sparse Training Dynamics", ["Gil Gray"],
         "International Conference on Machine Learning", 2020, 450, 35, 29, ["b3"]),
    _rec("b7", "The Gadget Lottery", ["Hana Hill"],
         "International Conference on Learning Representations", 2018, 1500, 110, 31, ["b1"]),
    _rec("b8", "Gadget Quantization Methods", ["Ivo Iqbal"],
         "Nature Machine Intelligence", 2021, 260, 15, 36, ["b4"]),
    # --- paper C: Calibrated Doohickey Ensembles --------------------------
    _rec("focalC", "Calibrated Doohickey Ensembles", ["Sam Stone", "Tia Turner"], "AAAI", 2023,
         1, 0, 5, ["sc1", "sc2", "sc3", "sc5", "sc6"]),
    _rec("sc1", "Calibration of Doohickey Classifiers", ["Kay Kim", "Lou Lam"],
         "International Conference on Machine Learning", 2017, 2200, 160, 26, ["sc2"]),
    _rec("sc2", "Ensemble Doohickey Methods", ["Max Moor"],
         "Machine Learning", 2000, 4800, 350, 19, []),
    _rec("sc3", "Temperature Scaling for Doohickeys", ["Nia Noor", "Ole Oak"],
         "International Conference on Machine Learning", 2017, 1100, 90, 24, ["sc1"]),
    _rec("sc5", "Doohickey Uncertainty Estimation", ["Pia Park"],
         "NeurIPS", 2019, 640, 45, 32, ["sc1"]),
    _rec("sc6", "Benchmarking Doohickeys", ["Ravi Rao"],
         "arXiv preprint arXiv:2106.00001", 2021, 210, 12, 41, ["sc3"]),
    # --- shared extras -----------------------------------------------------
    _rec("focalGhost", "Ghost Source Paper", ["Gus Ghostly"],
         "International Conference on Learning Representations", 2023, 0, 0, 0, []),
    _rec("l1", "Geometric Widget Embeddings", ["Uma Usher", "Vic Vale"],
         "International Conference on Machine Learning", 2019, 620, 40, 34, ["a1", "a5"]),
    _rec("l2", "Contrastive Gadget Pretraining", ["Wes Wood"],
         "NeurIPS", 2020, 500, 30, 37, ["b1", "b2"]),
    _rec("iso1", "Island Widget Compendium", ["Xan Xu"],
         "Widget Press", 2016, 90, 5, 12, []),
    _rec("iso2", "Lonely Gadget Atlas", ["Yve Young"],
         "Gadget House", 2015, 40, 2, 9, []),
]

SCHOLAR_BY_ID = {rec["index_id"]: rec for rec in SCHOLAR_RECORDS}

PREPRINT_RECORDS = [
    {
        "preprint_id": "2203.11111",
        "title": "Adaptive Widget Learning",
        "journal_ref": "NeurIPS 2022",
        "posted_date": "2022-03-20",
        "categories": ["cs.LG"],
        "authors": ["Pat Prime", "Quinn Quill"],
        "license": "CC-BY-4.0",
    },
    {
        "preprint_id": "2207.22222",
        "title": "Sparse Gadget Distillation",
        "journal_ref": "ICML 2023",
        "posted_date": "2022-07-07",
        "categories": ["cs.LG"],
        "authors": ["Rae Ruiz"],
        "license": "CC-BY-4.0",
    },
    {
        "preprint_id": "2301.33333",
        "title": "Calibrated Doohickey Ensembles",
        "journal_ref": "AAAI 2023",
        "posted_date": "2023-01-15",
        "categories": ["cs.LG"],
        "authors": ["Sam Stone", "Tia Turner"],
        "license": "CC-BY-4.0",
    },
    {
        "preprint_id": "2205.55555",
        "title": "Workshop Paper on Widgets",
        "journal_ref": "NeurIPS 2022 Workshop on Widgets",
        "posted_date": "2022-05-05",
        "categories": ["cs.LG"],
        "authors": ["Zed Zane"],
    },
    {
        # resolves in the index but has no source bundle on disk, so the
        # prepare stage excludes it with a no-main reason code
        "preprint_id": "2302.44444",
        "title": "Ghost Source Paper",
        "journal_ref": "ICLR 2023",
        "posted_date": "2023-02-02",
        "categories": ["cs.LG"],
        "authors": ["Gus Ghostly"],
    },
    {
        "preprint_id": "2206.66666",
        "title": "An Unrelated Journal Thing",
        "journal_ref": "Journal of Things 4(2)",
        "posted_date": "2022-06-06",
        "categories": ["cs.LG"],
        "authors": ["Ada Aldrin"],
    },
]

# ---------------------------------------------------------------------------
# LaTeX sources
# ---------------------------------------------------------------------------

TEX_A = r"""\documentclass{article}
\usepackage{neurips_2022}
\title{Adaptive Widget Learning}
\author{Pat Prime \and Quinn Quill}
\begin{document}
\maketitle
\begin{abstract}
We adapt widgets with learning, extending foundational ideas~\cite{kFound}.
\end{abstract}
\section{Introduction}
Widgets began with foundational work \cite{kFound} and stochastic descent \cite{kStoch}.
Regularized variants \cite{kReg} improved robustness. % strip this comment
\begin{figure}[t]
\includegraphics{widgets.pdf}
\caption{Strip this figure body.}
\end{figure}
Modern deep approaches \cite{kDeep,kAttn,kSelf} dominate benchmarks, see Section~\ref{sec:methods}.
\section{Methods}
\label{sec:methods}
Hidden method text \cite{kDeep}.
\bibliographystyle{unsrt}
\bibliography{refs}
\end{document}
"""

BIB_A_ENTRIES = [
    ("kFound", "a1"),
    ("kStoch", "a2"),
    ("kReg", "a3"),
    ("kDeep", "a4"),
    ("kAttn", "a5"),
    ("kSelf", "a6"),
]

TEX_B = r"""\documentclass{article}
\usepackage{icml2023}
\title{Sparse Gadget Distillation}
\author{Rae Ruiz}
\begin{document}
\begin{abstract}
Gadgets can be made sparse and then distilled.
\end{abstract}
\section{Introduction}
Sparse priors \cite{kPrior} shaped the field.
Selection and machines \cite{kSelect,kMachine} followed quickly.
Pruning at initialization \cite{kPrune} and distillation \cite{kDistill} are recent trends.
\begin{table}[t]
\caption{Strip this table.}
\end{table}
\bibliographystyle{plain}
\bibliography{refs}
\end{document}
"""

BIB_B_ENTRIES = [
    ("kPrior", "b1"),
    ("kSelect", "b2"),
    ("kMachine", "b3"),
    ("kPrune", "b4"),
    ("kDistill", "b5"),
]

TEX_C = r"""\documentclass{article}
\usepackage{aaai23}
\title{Calibrated Doohickey Ensembles}
\author{Sam Stone \and Tia Turner}
\begin{document}
\begin{abstract}
Ensembles of doohickeys need calibration before deployment.
\end{abstract}
\section{Introduction}
Calibration matters \cite{kCalib}. Ensembles help \cite{kEns}.
Temperature scaling \cite{kTemp} is simple and strong.
An obscure memo \cite{kMemo} hinted at this long ago.
\end{document}
"""

BBL_C_ENTRIES = [
    ("kCalib", "sc1", "Kay Kim and Lou Lam", "Calibration of Doohickey Classifiers",
     "International Conference on Machine Learning", 2017),
    ("kEns", "sc2", "Max Moor", "Ensemble Doohickey Methods", "Machine Learning", 2000),
    ("kTemp", "sc3", "Nia Noor and Ole Oak", "Temperature Scaling for Doohickeys",
     "International Conference on Machine Learning", 2017),
    ("kMemo", None, "Uma Uhl", "Archival Obscure Memo on Doohickey Tuning", "Internal Notes", 1999),
    ("kUnc", "sc5", "Pia Park", "Doohickey Uncertainty Estimation", "NeurIPS", 2019),
    ("kBench", "sc6", "Ravi Rao", "Benchmarking Doohickeys",
     "arXiv preprint arXiv:2106.00001", 2021),
]


def _bib_file(entries) -> str:
    chunks = []
    for key, sid in entries:
        rec = SCHOLAR_BY_ID[sid]
        authors = " and ".join(rec["authors"])
        chunks.append(
            f"@article{{{key},\n"
            f"  author = {{{authors}}},\n"
            f"  title = {{{rec['title']}}},\n"
            f"  journal = {{{rec['venue']}}},\n"
            f"  year = {{{rec['year']}}}\n"
            f"}}\n"
        )
    return "\n".join(chunks)


def _bbl_file(entries) -> str:
    lines = ["\\begin{thebibliography}{9}"]
    for key, _sid, authors, title, venue, year in entries:
        lines.append(f"\\bibitem{{{key}}} {authors}. {title}. {venue}, {year}.")
    lines.append("\\end{thebibliography}")
    return "\n".join(lines) + "\n"


PAPER_SOURCES = {
    "2203.11111": {"tex": TEX_A, "bib": BIB_A_ENTRIES, "bbl": None},
    "2207.22222": {"tex": TEX_B, "bib": BIB_B_ENTRIES, "bbl": None},
    "2301.33333": {"tex": TEX_C, "bib": None, "bbl": BBL_C_ENTRIES},
}

EXPECTED_INTRO = {
    "2203.11111": {"slots": {1, 2, 3, 4, 5, 6}, "unique": {1, 2, 3}},
    "2207.22222": {"slots": {1, 2, 3, 4, 5}, "unique": {1, 4, 5}},
    "2301.33333": {"slots": {1, 2, 3, 4}, "unique": {1, 2, 3, 4}},
}

GT_SLOT_IDS = {
    "2203.11111": {1: "a1", 2: "a2", 3: "a3", 4: "a4", 5: "a5", 6: "a6"},
    "2207.22222": {1: "b1", 2: "b2", 3: "b3", 4: "b4", 5: "b5"},
    "2301.33333": {1: "sc1", 2: "sc2", 3: "sc3", 4: None},
}

# one ground-truth table row uses "et al." (unknown author count path)
GT_ET_AL = {("2203.11111", 4)}

MODEL_ID = "mock-model"
VANILLA_RUNS = 2

# ---------------------------------------------------------------------------
# Fabricated references and generation plans
# ---------------------------------------------------------------------------

FABRICATED = {
    "F_A5": {
        "title": "Perpetual Motion Widgets Through Alchemical Gradient Descent",
        "authors": ["Quirin Quack", "Zenia Zond"],
        "year": 2003,
        "venue": "Unknown Press",
    },
    "F_A2v2": {
        "title": "Unwritten Widget Treatise of the Phantom Archive",
        "authors": ["Nolan Null"],
        "year": 2011,
        "venue": "Phantom Books",
    },
    "F_A5v2": {
        "title": "Perpetuum Widget Engines of Pure Speculation",
        "authors": ["Vera Vapor"],
        "year": 2007,
        "venue": "Speculative Press",
    },
    "F_B3": {
        "title": "Imaginary Gadget Calculus for Nonexistent Machines",
        "authors": ["Iris Illusion", "Hector Haze"],
        "year": 1997,
        "venue": "Mirage Quarterly",
    },
    "F_B5": {
        "title": "The Compleat Gadgeteer: Volume Zero",
        "authors": ["Gale Ghost"],
        "year": 1989,
        "venue": "Apocryphal Editions",
    },
    "F_C2": {
        "title": "Spectral Doohickey Annihilation Protocols",
        "authors": ["Mona Mirage", "Pete Phantom"],
        "year": 2008,
        "venue": "Vanished Letters",
    },
    "F_C4": {
        "title": "Doohickey Dreams and Other Unpublished Phenomena",
        "authors": ["Rita Rumor"],
        "year": 1994,
        "venue": "Unseen Review",
    },
}

# slot -> ("id", scholar_id) or ("fab", fabricated_key)
VANILLA_PLANS = {
    ("2203.11111", 1): {
        1: ("id", "a1"),
        2: ("id", "a3"),
        3: ("id", "a7"),
        4: ("id", "l1"),
        5: ("fab", "F_A5"),
        6: ("id", "iso1"),
    },
    ("2203.11111", 2): {
        1: ("id", "a1"),
        2: ("fab", "F_A2v2"),
        3: ("id", "a8"),
        4: ("id", "l1"),
        5: ("fab", "F_A5"),
        6: ("id", "a6"),
    },
    ("2207.22222", 1): {
        1: ("id", "b1"),
        2: ("id", "b7"),
        3: ("fab", "F_B3"),
        4: ("id", "b2"),
        5: ("fab", "F_B5"),
    },
    ("2207.22222", 2): {
        1: ("id", "b1"),
        2: ("id", "l2"),
        3: ("fab", "F_B3"),
        4: ("id", "b4"),
        5: ("id", "iso2"),
    },
    ("2301.33333", 1): {
        1: ("id", "sc1"),
        2: ("fab", "F_C2"),
        3: ("id", "sc2"),
        4: ("fab", "F_C4"),
    },
    ("2301.33333", 2): {
        1: ("id", "sc1"),
        2: ("id", "l1"),
        3: ("fab", "F_C2"),
        4: ("id", "iso1"),
    },
}

# replacements offered by the iterative pass; a requested slot missing
# here becomes a logged gap and keeps the parent entry. The slot-1 row in
# C run 1 rewrites an already-existing slot and must be ignored.
ITERATIVE_PLANS = {
    ("2203.11111", 1): {5: ("id", "l2")},
    ("2203.11111", 2): {2: ("id", "a4"), 5: ("fab", "F_A5v2")},
    ("2207.22222", 1): {3: ("id", "b3")},  # slot 5 omitted -> gap
    ("2207.22222", 2): {3: ("id", "b8")},
    ("2301.33333", 1): {2: ("id", "sc2"), 4: ("id", "iso2"), 1: ("id", "sc3")},
    ("2301.33333", 2): {},  # slot 3 omitted -> gap (empty response text)
}

# extra uncited-slot row injected into one vanilla table (quarantine path)
EXTRA_TABLE_ROWS = {
    ("2301.33333", 1): [
        {"number": 9, "authors": "Stray Writer", "count": 1,
         "title": "A Row For An Uncited Slot", "year": 2001, "venue": "Nowhere"}
    ]
}


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _entry_fields(entry) -> dict:
    kind, key = entry
    source = SCHOLAR_BY_ID[key] if kind == "id" else FABRICATED[key]
    return {
        "authors": ", ".join(source["authors"]),
        "count": len(source["authors"]),
        "title": source["title"],
        "year": source["year"],
        "venue": source["venue"],
    }


def _response_text(plan: dict) -> str:
    lines = []
    for slot in sorted(plan):
        f = _entry_fields(plan[slot])
        lines.append(f"[{slot}] {f['authors']}. {f['title']}. {f['venue']}, {f['year']}.")
    return "\n".join(lines)


def _markdown_table(rows: list[dict]) -> str:
    lines = [
        "| Citation Number | Authors | Number of Authors | Title | Publication Year | Publication Venue |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['number']} | {r['authors']} | {r['count']} | {r['title']} "
            f"| {r['year']} | {r['venue']} |"
        )
    return "\n".join(lines)


def _plan_rows(plan: dict) -> list[dict]:
    return [{"number": slot, **_entry_fields(plan[slot])} for slot in sorted(plan)]


def store_plan(mock_dir: Path, messages, plan: dict, namespace: str, extra_rows=()) -> str:
    """Store the answer that follows ``plan`` for ``messages``, and the
    table that answers its postprocess prompt, under ``namespace``.
    Returns the answer."""
    response = _response_text(plan)
    store_mock_response(mock_dir, messages, response, namespace)
    table = _markdown_table(_plan_rows(plan) + list(extra_rows))
    store_mock_response(mock_dir, render_postprocess_prompt(response), table, namespace)
    return response


def _gt_rows(preprint_id: str, intro_slots: list[int]) -> list[dict]:
    rows = []
    source = PAPER_SOURCES[preprint_id]
    for slot in intro_slots:
        sid = GT_SLOT_IDS[preprint_id].get(slot)
        if sid is not None:
            rec = SCHOLAR_BY_ID[sid]
            authors = ", ".join(rec["authors"])
            count: int | str = len(rec["authors"])
            title, year, venue = rec["title"], rec["year"], rec["venue"]
        else:
            _key, _sid, bbl_authors, title, venue, year = source["bbl"][slot - 1]
            authors = bbl_authors.replace(" and ", ", ")
            count = len(bbl_authors.split(" and "))
        if (preprint_id, slot) in GT_ET_AL:
            authors = authors.split(",")[0] + " et al."
            count = ""
        rows.append(
            {"number": slot, "authors": authors, "count": count, "title": title,
             "year": year, "venue": venue}
        )
    return rows


# ---------------------------------------------------------------------------
# Self-checks
# ---------------------------------------------------------------------------


def _verify_plan_verdicts(index_dir: Path) -> None:
    """The verify stage must reach exactly the planned verdicts."""
    scholar = FixtureIndexClient(index_dir)
    thresholds = default_thresholds()
    for plan in list(VANILLA_PLANS.values()) + list(ITERATIVE_PLANS.values()):
        for entry in plan.values():
            fields = _entry_fields(entry)
            authors = [a.strip() for a in fields["authors"].split(",")]
            candidates = search_candidates(scholar, fields["title"], authors, limit=3)
            verdict = decide_existence(candidates, thresholds)
            kind, key = entry
            if kind == "id":
                assert verdict.exists and verdict.matched_index_id == key, (
                    f"planned match for {key} failed: {verdict}"
                )
            else:
                assert not verdict.exists, f"fabricated {key} accidentally matches: {verdict}"


# ---------------------------------------------------------------------------
# Workspace assembly
# ---------------------------------------------------------------------------


def workspace_config() -> dict:
    """The workspace's config.yaml as a fresh dict, paths relative to the
    workspace root."""
    return {
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
        "runs": {"vanilla": VANILLA_RUNS, "iterative": True},
        "graph": {"strategy": "vanilla", "run_index": 1},
        "cache_dir": "cache",
        "out_dir": "out",
        "mock_dir": "mock",
    }


def build_workspace(root: Path) -> Path:
    """Create sources/, index/, mock/, and config.yaml under ``root``.

    Returns the config path. Raises AssertionError if a fixture
    self-check fails.
    """
    root = Path(root)
    sources = root / "sources"
    index_dir = root / "index"
    mock_dir = root / "mock"

    preprint_dir = index_dir / "preprint"
    preprint_dir.mkdir(parents=True, exist_ok=True)
    (preprint_dir / "records.json").write_text(dump_json(PREPRINT_RECORDS), encoding="utf-8")
    papers_dir = index_dir / "scholar" / "papers"
    papers_dir.mkdir(parents=True, exist_ok=True)
    for rec in SCHOLAR_RECORDS:
        (papers_dir / f"{rec['index_id']}.json").write_text(dump_json(rec), encoding="utf-8")

    for preprint_id, spec in PAPER_SOURCES.items():
        paper_dir = sources / preprint_id
        paper_dir.mkdir(parents=True, exist_ok=True)
        (paper_dir / "main.tex").write_text(spec["tex"], encoding="utf-8")
        if spec["bib"]:
            (paper_dir / "refs.bib").write_text(_bib_file(spec["bib"]), encoding="utf-8")
        if spec["bbl"]:
            (paper_dir / "main.bbl").write_text(_bbl_file(spec["bbl"]), encoding="utf-8")

    for preprint_id in PAPER_SOURCES:
        prep = prepare_source(sources / preprint_id)
        assert not isinstance(prep, Exclusion), f"{preprint_id}: {prep}"
        content = prep.main_content.text + "\n"
        warnings: list[str] = []
        intro_refs = select_intro_references(
            prep.main_content.citation_occurrences, prep.reference_texts, warnings
        )
        intro_slots = [num for num, _ in intro_refs]
        assert set(intro_slots) == EXPECTED_INTRO[preprint_id]["slots"], (
            preprint_id,
            intro_slots,
        )

        # prepare stage: the ground-truth postprocess call is run-agnostic
        ref_lines = "\n".join(f"[{num}] {raw}" for num, raw in intro_refs)
        store_mock_response(
            mock_dir,
            render_postprocess_prompt(ref_lines),
            _markdown_table(_gt_rows(preprint_id, intro_slots)),
        )

        vanilla_messages = render_vanilla_prompt(content)
        for run_index in range(1, VANILLA_RUNS + 1):
            namespace = f"vanilla-{run_index}"
            plan = VANILLA_PLANS[(preprint_id, run_index)]
            extra_rows = EXTRA_TABLE_ROWS.get((preprint_id, run_index), [])
            response = store_plan(mock_dir, vanilla_messages, plan, namespace, extra_rows)

            # iterative stage for this run
            nonexistent = sorted(slot for slot, entry in plan.items() if entry[0] == "fab")
            if not nonexistent:
                continue
            parent = GenerationRun(MODEL_ID, VANILLA, run_index)
            parent.transcript = [*vanilla_messages, ("assistant", response)]
            iter_messages = render_iterative_prompt(parent, set(nonexistent), content)
            iter_plan = ITERATIVE_PLANS[(preprint_id, run_index)]
            iter_namespace = f"iterative-{run_index}"
            if iter_plan:
                store_plan(mock_dir, iter_messages, iter_plan, iter_namespace)
            else:
                # the model offers nothing; the table parse (and one re-ask)
                # hard-fails for this paper/run and the parent entries are kept
                refusal_text = "I could not find replacements."
                store_mock_response(mock_dir, iter_messages, refusal_text, iter_namespace)
                post_messages = render_postprocess_prompt(refusal_text)
                store_mock_response(mock_dir, post_messages, "Sorry, no table.", iter_namespace)
                reask_messages = [
                    *post_messages,
                    ("assistant", "Sorry, no table."),
                    ("user", REASK_MESSAGE),
                ]
                store_mock_response(mock_dir, reask_messages, "Still no table.", iter_namespace)

    _verify_plan_verdicts(index_dir)

    config = workspace_config()
    config_path = root / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return config_path
