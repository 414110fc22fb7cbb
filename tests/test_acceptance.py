"""Acceptance criteria, one test per criterion, with pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import os
import random
import shutil
import time
from fractions import Fraction

import pytest

from citebias.citegraph import (
    GEN_ISOLATED,
    avg_clustering,
    boolean_edge_density,
    build_graph,
    categorize,
    clustering_coefficient,
    edge_expansion,
)
from citebias.clients import FixtureIndexClient
from citebias.config import load_config
from citebias.docprep import extract_citations, uniquely_identifiable_numbers
from citebias.llmgate import GeneratedReference, merge_iterative, parse_reference_table
from citebias.matcher import (
    bundled_labelled_pairs,
    calibrate,
    decide_existence,
    default_thresholds,
    search_candidates,
)
from citebias.pipeline import run_pipeline
from citebias.stats import (
    RefFlags,
    bias_breakdown,
    classify_generated,
    summarize_run,
    write_bias_csv,
)
from citebias.stats import CharacteristicsRow, PairedRefs
from fixtures_graph import central_caption_graph, make_focal
from test_citegraph import _oracle_metrics, _random_graph


def _report(criterion: str, elapsed: float, passed: bool = True) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Central-graph fixture: exact density 2/3 and expansion 7/3
# ---------------------------------------------------------------------------


def test_criterion_1_central_graph_exact_metrics():
    start = time.monotonic()
    graph = central_caption_graph()
    linked = [n for n, t in graph.node_tags.items() if t == "GenLinked"]
    assert len(linked) == 3  # three non-isolated generations
    gt_touching = [n for n in linked if graph.undirected_neighbors(n) & graph.intro_ids]
    assert len(gt_touching) == 2  # one links only within its own group
    assert boolean_edge_density(graph) == Fraction(2, 3)
    assert edge_expansion(graph) == Fraction(7, 3)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("criterion 1: central-graph density 2/3 and expansion 7/3", elapsed)


# ---------------------------------------------------------------------------
# 2. Graph metrics match brute force on 500 random graphs
# ---------------------------------------------------------------------------


def test_criterion_2_graph_metric_oracles():
    start = time.monotonic()
    rng = random.Random(20260809)
    for _ in range(500):
        graph = _random_graph(rng)
        assert len(graph.nodes) <= 30
        clustering_oracle, bed_oracle, expansion_oracle = _oracle_metrics(graph)
        for node in sorted(graph.nodes):
            assert clustering_coefficient(graph, node) == clustering_oracle(node)
        nonzero = [clustering_oracle(n) for n in sorted(graph.nodes) if clustering_oracle(n) > 0]
        expected_avg = Fraction(sum(nonzero), len(nonzero)) if nonzero else None
        assert avg_clustering(graph, set(graph.nodes)) == expected_avg
        assert boolean_edge_density(graph) == bed_oracle
        assert edge_expansion(graph) == expansion_oracle
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report("criterion 2: 500 random graphs match brute-force enumeration exactly", elapsed)


# ---------------------------------------------------------------------------
# 3. Calibration on the bundled labelled fixture
# ---------------------------------------------------------------------------


def test_criterion_3_calibration_protocol_bounds():
    start = time.monotonic()
    pairs = bundled_labelled_pairs()
    assert len(pairs) == 100
    report = calibrate(pairs)
    assert report.accuracy >= 0.95
    assert report.missed_true <= 5  # true matches classified non-existent
    assert report.accepted_false <= 5
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(
        f"criterion 3: calibration accuracy {report.accuracy:.0%}, "
        f"{report.missed_true} missed true / {report.accepted_false} accepted false",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 4. Citation-extraction property suite
# ---------------------------------------------------------------------------


def test_criterion_4_bracket_extraction_property_suite():
    start = time.monotonic()
    rng = random.Random(13261326)
    dashes = ["-", "–", "—"]
    filler = ["compared to", "as shown in", "see also", "building on", "following"]
    failures = 0
    for _ in range(1000):
        n_groups = rng.randint(1, 5)
        expected_sets = []
        parts = []
        for _ in range(n_groups):
            tokens = []
            numbers = set()
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.35:
                    lo = rng.randint(1, 50)
                    hi = lo + rng.randint(1, 8)
                    tokens.append(f"{lo}{rng.choice(dashes)}{hi}")
                    numbers.update(range(lo, hi + 1))
                else:
                    value = rng.randint(1, 80)
                    tokens.append(str(value))
                    numbers.add(value)
            expected_sets.append(numbers)
            parts.append(f"{rng.choice(filler)} [{','.join(tokens)}]")
        text = " ".join(parts)
        groups = extract_citations(text)
        if [set(g.numbers) for g in groups] != expected_sets:
            failures += 1
        # brute-force re-scan: a number is uniquely identifiable iff some
        # group expands to exactly that singleton
        brute = {n for s in expected_sets if len(s) == 1 for n in s}
        if uniquely_identifiable_numbers(groups) != brute:
            failures += 1
    assert failures == 0
    elapsed = time.monotonic() - start
    _report("criterion 4: 1,000 bracket expressions round-trip with zero failures", elapsed)


# ---------------------------------------------------------------------------
# 5. End-to-end determinism on the three-paper fixture
# ---------------------------------------------------------------------------


def _tree_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_5_end_to_end_determinism(workspace, tmp_path):
    start = time.monotonic()
    root, config_path = workspace
    # the third run reads a copy of the same workspace at another path
    moved = tmp_path / "moved_workspace"
    shutil.copytree(root, moved, ignore=shutil.ignore_patterns("out", "cache"))
    os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
    try:
        outs = []
        for name, config_file in (
            ("det_one", config_path),
            ("det_two", config_path),
            ("det_moved", moved / config_path.relative_to(root)),
        ):
            config = load_config(
                config_file,
                {
                    "out_dir": str(tmp_path / name),
                    "cache_dir": str(tmp_path / f"cache_{name}"),
                },
            )
            manifest = run_pipeline(config)
            assert manifest["failure"] is None
            outs.append(tmp_path / name)
    finally:
        os.environ.pop("SOURCE_DATE_EPOCH", None)

    first, *others = (_tree_bytes(out) for out in outs)
    for other, name in zip(others, ("a rerun", "a moved workspace")):
        assert first.keys() == other.keys()
        for rel in first:
            assert first[rel] == other[rel], f"{rel} differs on {name}"

    lines = (outs[0] / "report" / "summary.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[2:]}
    for column in range(len(header) - 1):
        existence = float(rows["Existence"][column])
        paper = float(rows["Cited in paper"][column])
        intro = float(rows["Cited in introduction"][column])
        pm = float(rows["PM all"][column])
        assert pm <= intro <= paper <= existence, header[column + 1]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("criterion 5: three full runs byte-identical; monotone chain holds", elapsed)


# ---------------------------------------------------------------------------
# 6. Iterative-merge contract: 6+4 slots, 3 of 4 replaced, 90% exactly
# ---------------------------------------------------------------------------

ITERATIVE_TABLE = """| Citation Number | Authors | Number of Authors | Title | Publication Year | Publication Venue |
|---|---|---|---|---|---|
| 7 | Greta Grove | 1 | Replacement Work Seven | 2018 | NeurIPS |
| 8 | Hank Hale | 1 | Replacement Work Eight | 2019 | ICML |
| 9 | Ina Ives | 1 | Replacement Work Nine | 2020 | ICLR |
"""


def test_criterion_6_iterative_merge_contract(tmp_path):
    start = time.monotonic()
    papers_dir = tmp_path / "scholar" / "papers"
    papers_dir.mkdir(parents=True)
    records = []
    for slot in range(1, 7):
        records.append(
            {
                "index_id": f"e{slot}",
                "title": f"Established Work Number {slot} on Widgets",
                "authors": [f"Author {chr(64 + slot)}. Example"],
            }
        )
    for slot, (title, author) in {
        7: ("Replacement Work Seven", "Greta Grove"),
        8: ("Replacement Work Eight", "Hank Hale"),
        9: ("Replacement Work Nine", "Ina Ives"),
    }.items():
        records.append({"index_id": f"n{slot}", "title": title, "authors": [author]})
    for rec in records:
        (papers_dir / f"{rec['index_id']}.json").write_text(json.dumps(rec))
    scholar = FixtureIndexClient(tmp_path)
    thresholds = default_thresholds()

    def verify(ref: GeneratedReference):
        candidates = search_candidates(scholar, ref.title, ref.authors, et_al=ref.et_al, limit=3)
        return decide_existence(candidates, thresholds)

    parent_refs = {}
    parent_verdicts = {}
    for slot in range(1, 11):
        if slot <= 6:
            title = f"Established Work Number {slot} on Widgets"
            authors = [f"Author {chr(64 + slot)}. Example"]
        else:
            title = f"Fabricated Phantom Opus {slot} of Nowhere"
            authors = ["Nobody Real"]
        ref = GeneratedReference(
            citation_number=slot, raw_text=f"[{slot}]", title=title, authors=authors
        )
        parent_refs[slot] = ref
        parent_verdicts[slot] = verify(ref)

    existing_slots = {n for n, v in parent_verdicts.items() if v.exists}
    assert existing_slots == {1, 2, 3, 4, 5, 6}  # vanilla: 6 existing, 4 not

    parsed = parse_reference_table(ITERATIVE_TABLE, source_strategy="iterative")
    iterative_refs = {r.citation_number: r for r in parsed.references}
    assert set(iterative_refs) == {7, 8, 9}  # the mock replaces 3 of 4

    merge = merge_iterative(parent_refs, existing_slots, iterative_refs, requested={7, 8, 9, 10})
    assert merge.gaps == [10]  # the missing slot is logged
    for slot in range(1, 7):
        assert merge.merged[slot] is parent_refs[slot]  # existing entries untouched

    merged_verdicts = dict(parent_verdicts)
    for slot in (7, 8, 9):
        merged_verdicts[slot] = verify(merge.merged[slot])

    focal = make_focal([f"e{i}" for i in range(1, 7)] + ["n7", "n8", "n9"])
    intro_ids = {slot: f"e{slot}" for slot in range(1, 7)}
    intro_ids.update({slot: f"n{slot}" for slot in (7, 8, 9)})
    intro_ids[10] = None
    flags = [
        classify_generated(
            merge.merged[slot], merged_verdicts[slot], focal, intro_ids, slot, True
        )
        for slot in range(1, 11)
    ]
    summary = summarize_run(flags)
    assert summary.pct["existence"] == Fraction(90)  # exactly 90%
    elapsed = time.monotonic() - start
    _report("criterion 6: merged existence exactly 90%, parent untouched, gap logged", elapsed)


# ---------------------------------------------------------------------------
# 7. Planted bias fixture reproduces a 1,326 median gap in every bin
# ---------------------------------------------------------------------------


def test_criterion_7_planted_bias_gap(tmp_path):
    start = time.monotonic()
    bin_years = [1980, 1993, 2004, 2013, 2020, 2025]  # one year per default bin
    pairs = []
    for slot, year in enumerate(bin_years, start=1):
        for base in (100, 250, 700):
            generated = CharacteristicsRow(
                title_chars=60,
                year=year,
                author_count=2,
                venue="NeurIPS",
                citation_count=base + 1326,
            )
            ground_truth = CharacteristicsRow(
                title_chars=60,
                year=year,
                author_count=3,
                venue="NeurIPS",
                citation_count=base,
            )
            pairs.append(
                PairedRefs(
                    paper_id="planted",
                    citation_number=slot,
                    generated=generated,
                    ground_truth=ground_truth,
                )
            )
    table = bias_breakdown(pairs, "subperiod")
    populated = [b for b in table.bins if b.n_generated]
    assert len(populated) == 6  # every default subperiod bin is hit
    for b in populated:
        assert b.difference == 1326

    csv_path = tmp_path / "bias" / "subperiod.csv"
    csv_path.parent.mkdir(parents=True)
    write_bias_csv(csv_path, table, "fixture")
    lines = csv_path.read_text().splitlines()
    header = lines[1].split(",")
    diff_idx = header.index("difference")
    n_idx = header.index("n_generated")
    data_rows = [line.split(",") for line in lines[2:] if not line.startswith("excluded")]
    populated_rows = [row for row in data_rows if row[n_idx] != "0"]
    assert populated_rows and all(row[diff_idx] == "1326" for row in populated_rows)
    elapsed = time.monotonic() - start
    _report("criterion 7: planted 1,326 median gap reproduced in bias/subperiod.csv", elapsed)


# ---------------------------------------------------------------------------
# 8. Null model: empty adjacency isolates every off-list generation
# ---------------------------------------------------------------------------


def test_criterion_8_null_model_isolation():
    start = time.monotonic()
    rng = random.Random(5050)
    for _ in range(100):
        gt = [f"g{i}" for i in range(rng.randint(1, 8))]
        in_paper_extra = [f"r{i}" for i in range(rng.randint(0, 3))]
        focal = make_focal(gt + in_paper_extra)
        generated = [f"x{i}" for i in range(rng.randint(1, 10))]
        generated += rng.sample(gt, k=min(len(gt), rng.randint(0, 2)))
        graph = build_graph(focal, gt, generated, {})
        tags = categorize(graph, focal)
        for node in generated:
            if node not in focal.reference_ids:
                assert tags[node] == GEN_ISOLATED
    elapsed = time.monotonic() - start
    _report("criterion 8: empty adjacency isolates every off-list generation", elapsed)
