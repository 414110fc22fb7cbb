"""Flags, summaries, overlap, characteristics, and bias breakdowns."""

import random
from fractions import Fraction

import pytest

from citebias.corpus import PaperRecord, Venue
from citebias.llmgate import GeneratedReference
from citebias.matcher import MatchVerdict
from citebias.stats import (
    CharacteristicsRow,
    PairedRefs,
    RefFlags,
    bias_breakdown,
    characteristics,
    classify_generated,
    cohort_split_by_counterpart,
    count_distribution,
    format_median,
    format_pct,
    run_overlap,
    summarize_run,
    write_overlap_csv,
    write_summary_csv,
)

FOCAL = PaperRecord(
    preprint_id="2301.00001",
    index_id="focal",
    title="The Focal Paper",
    venue=Venue("NeurIPS", "NeurIPS 2023"),
    year=2023,
    posted_date="2023-01-01",
    authors=["A. Author"],
    reference_ids=["r1", "r2", "r3", "r4", "r5"],
    intro_reference_numbers={1, 2, 3},
)

INTRO_IDS = {1: "r1", 2: "r2", 3: "r3"}


def _ref(n, title="Some Title"):
    return GeneratedReference(citation_number=n, raw_text=f"[{n}]", title=title)


def _verdict(exists, matched=None):
    return MatchVerdict(
        exists=exists, matched_index_id=matched, best_candidate=None, thresholds_used=(0.9, 0.6)
    )


# ---------------------------------------------------------------------------
# Flag classification
# ---------------------------------------------------------------------------


def test_classify_pairwise_match_sets_all_flags():
    flags = classify_generated(_ref(3), _verdict(True, "r3"), FOCAL, INTRO_IDS, 3, True)
    assert (flags.existing, flags.cited_in_paper, flags.cited_in_intro, flags.pairwise_match) == (
        True,
        True,
        True,
        True,
    )


def test_classify_in_paper_but_not_intro():
    flags = classify_generated(_ref(1), _verdict(True, "r5"), FOCAL, INTRO_IDS, 1, True)
    assert flags.existing and flags.cited_in_paper
    assert not flags.cited_in_intro and not flags.pairwise_match


def test_classify_intro_but_wrong_slot_is_not_pm():
    flags = classify_generated(_ref(1), _verdict(True, "r2"), FOCAL, INTRO_IDS, 1, True)
    assert flags.cited_in_intro and not flags.pairwise_match


def test_classify_nonexistent_clears_everything():
    flags = classify_generated(_ref(2), _verdict(False), FOCAL, INTRO_IDS, 2, False)
    assert not any(
        [flags.existing, flags.cited_in_paper, flags.cited_in_intro, flags.pairwise_match]
    )


def test_classify_missing_row_counts_as_nonexistent():
    flags = classify_generated(None, None, FOCAL, INTRO_IDS, 2, False)
    assert not flags.existing
    assert flags.identity.startswith("missing:")


def test_classify_existing_off_index_reference():
    # matched a real record that the focal paper never cites
    flags = classify_generated(_ref(2), _verdict(True, "elsewhere"), FOCAL, INTRO_IDS, 2, False)
    assert flags.existing and not flags.cited_in_paper


# ---------------------------------------------------------------------------
# Run summaries
# ---------------------------------------------------------------------------


def _flag(n, existing=False, paper=False, intro=False, pm=False, unique=False, ident="x"):
    return RefFlags(
        paper_id="focal",
        citation_number=n,
        existing=existing,
        cited_in_paper=paper,
        cited_in_intro=intro,
        pairwise_match=pm,
        uniquely_identifiable=unique,
        identity=ident,
    )


def test_summary_percentages_are_exact():
    flags = [_flag(i, existing=i <= 6) for i in range(1, 11)]
    summary = summarize_run(flags)
    assert summary.pct["existence"] == Fraction(60)
    assert summary.denominators == (10, 0)
    assert summary.pct["pm_unique"] is None  # no uniquely identifiable slots


def test_summary_all_pairwise_matched_is_all_hundred():
    flags = [
        _flag(i, existing=True, paper=True, intro=True, pm=True, unique=True) for i in range(1, 6)
    ]
    summary = summarize_run(flags)
    for value in (
        summary.pct["existence"],
        summary.pct["cited_in_paper"],
        summary.pct["cited_in_intro"],
        summary.pct["pm_all"],
        summary.pct["pm_unique"],
    ):
        assert value == Fraction(100)


def test_summary_monotone_chain_on_random_fixtures():
    rng = random.Random(1326)
    for _ in range(100):
        flags = []
        for n in range(1, rng.randint(5, 30)):
            exists = rng.random() < 0.7
            paper = exists and rng.random() < 0.5
            intro = paper and rng.random() < 0.6
            pm = intro and rng.random() < 0.5
            flags.append(
                _flag(n, existing=exists, paper=paper, intro=intro, pm=pm, unique=rng.random() < 0.5)
            )
        summary = summarize_run(flags)
        total = len(flags)
        # oracle recount, straight off the flag lists
        assert summary.pct["existence"] == Fraction(
            100 * sum(f.existing for f in flags), total
        )
        assert (
            summary.pct["pm_all"]
            <= summary.pct["cited_in_intro"]
            <= summary.pct["cited_in_paper"]
            <= summary.pct["existence"]
        )


def test_summary_zero_denominator_markers():
    summary = summarize_run([])
    assert summary.pct["existence"] is None
    assert summary.pct["pm_unique"] is None
    assert summary.denominators == (0, 0)


# ---------------------------------------------------------------------------
# Run overlap
# ---------------------------------------------------------------------------


def test_overlap_self_is_hundred():
    flags = [_flag(n, ident=f"id:{n}") for n in range(1, 8)]
    assert run_overlap(flags, flags) == Fraction(100)


def test_overlap_disjoint_is_zero():
    a = [_flag(n, ident=f"id:a{n}") for n in range(1, 6)]
    b = [_flag(n, ident=f"id:b{n}") for n in range(1, 6)]
    assert run_overlap(a, b) == Fraction(0)


def test_overlap_is_symmetric_and_counts_matches():
    a = [_flag(1, ident="id:x"), _flag(2, ident="title:foo"), _flag(3, ident="id:z")]
    b = [_flag(1, ident="id:x"), _flag(2, ident="title:bar"), _flag(3, ident="id:z")]
    assert run_overlap(a, b) == run_overlap(b, a) == Fraction(200, 3)


def test_overlap_requires_same_corpus():
    a = [_flag(1)]
    b = [_flag(2)]
    with pytest.raises(ValueError):
        run_overlap(a, b)


# ---------------------------------------------------------------------------
# Characteristics
# ---------------------------------------------------------------------------


def _row(citations=None, year=2020, title="x" * 60, authors=3, venue="NeurIPS"):
    return CharacteristicsRow(
        title_chars=len(title),
        year=year,
        author_count=authors,
        venue=venue,
        citation_count=citations,
    )


def test_single_row_cohort_median_is_that_value():
    tables = characteristics({"ground_truth": [_row(citations=42)]})
    assert tables["ground_truth"]["citation_count"].median == 42


def test_median_over_known_values_only():
    rows = [_row(citations=1), _row(citations=2), _row(citations=100), _row(citations=None)]
    hist = characteristics({"ground_truth": rows})["ground_truth"]["citation_count"]
    assert hist.median == 2
    assert hist.unknown == 1
    assert hist.total() == 4


def test_planted_median_difference_of_1326():
    gt = [_row(citations=c) for c in (100, 200, 300)]
    gen = [_row(citations=c + 1326) for c in (100, 200, 300)]
    tables = characteristics({"ground_truth": gt, "generated_existing": gen})
    diff = (
        tables["generated_existing"]["citation_count"].median
        - tables["ground_truth"]["citation_count"].median
    )
    assert diff == 1326


def test_histogram_bins_are_total_below_first_edge():
    rows = [_row(citations=5, year=1949), _row(citations=5, year=1951)]
    hist = characteristics({"c": rows})["c"]["year"]
    assert dict(hist.bins) == {"<1950": 1, "1950-1954": 1}
    assert hist.total() == 2


def test_histogram_totals_equal_cohort_sizes():
    rng = random.Random(3)
    rows = []
    for _ in range(57):
        rows.append(
            _row(
                citations=rng.choice([None, rng.randint(0, 5000)]),
                year=rng.choice([None, rng.randint(1980, 2023)]),
            )
        )
    tables = characteristics({"generated_all": rows})
    for metric in ("citation_count", "year", "venue", "title_chars"):
        assert tables["generated_all"][metric].total() == 57


def test_count_distribution_is_shared_with_characteristics():
    values = [0, 1, 10, 100, None]
    hist = count_distribution(values, "citation_count")
    rows = [_row(citations=v) for v in values]
    assert characteristics({"c": rows})["c"]["citation_count"].bins == hist.bins


# ---------------------------------------------------------------------------
# Bias breakdowns
# ---------------------------------------------------------------------------


def _pair(paper, slot, gen_citations, gt_citations, gen_year=2020, gt_year=2020):
    return PairedRefs(
        paper_id=paper,
        citation_number=slot,
        generated=_row(citations=gen_citations, year=gen_year),
        ground_truth=_row(citations=gt_citations, year=gt_year),
    )


def test_bias_all_equal_counts_gives_zero_differences():
    pairs = [_pair("p", i, 50, 50, gen_year=1980 + i * 10, gt_year=1980 + i * 10) for i in range(5)]
    table = bias_breakdown(pairs, "subperiod")
    for b in table.bins:
        if b.difference is not None:
            assert b.difference == 0


def test_bias_planted_offset_reproduced_in_every_bin():
    years = [1985, 1992, 2003, 2012, 2020]
    pairs = []
    for slot, year in enumerate(years):
        for c in (100, 300, 900):
            pairs.append(_pair("p", slot, c + 1000, c, gen_year=year, gt_year=year))
    table = bias_breakdown(pairs, "subperiod")
    populated = [b for b in table.bins if b.n_generated]
    assert len(populated) == 5
    for b in populated:
        assert b.difference == 1000


def test_bias_unknown_counts_excluded_and_tallied():
    pairs = [_pair("p", 1, 10, None), _pair("p", 2, 10, 5)]
    table = bias_breakdown(pairs, "subperiod")
    assert table.excluded_pairs == 1
    assert sum(b.n_generated for b in table.bins) == 1


def test_bias_pairing_is_slot_sensitive():
    # re-pairing generations with other slots' ground truths changes the
    # result: exclusion of unknown counts happens at the pair level, so a
    # generation married to an unknown counterpart drops out entirely
    pairs = [
        _pair("p", 1, 2000, None, gen_year=2020, gt_year=2020),
        _pair("p", 2, 30, 50, gen_year=1985, gt_year=1985),
    ]
    shuffled = [
        _pair("p", 1, 2000, 50, gen_year=2020, gt_year=1985),
        _pair("p", 2, 30, None, gen_year=1985, gt_year=1985),
    ]
    original = {b.bin_label: b.generated_median for b in bias_breakdown(pairs, "subperiod").bins}
    swapped = {b.bin_label: b.generated_median for b in bias_breakdown(shuffled, "subperiod").bins}
    assert original != swapped
    assert original["2017-2023"] is None  # the 2020 generation was excluded
    assert swapped["2017-2023"] == 2000  # after re-pairing it survives


def test_bias_custom_subperiod_bins_exclude_uncovered_years():
    bins = [("2000-2009", 2000, 2009), ("2010-2019", 2010, 2019)]
    pairs = [
        _pair("p", 1, 10, 5, gen_year=1990, gt_year=1991),  # neither side covered
        _pair("p", 2, 30, 20, gen_year=2012, gt_year=1995),  # only the generated side
    ]
    table = bias_breakdown(pairs, "subperiod", subperiod_bins=bins)
    by_label = {b.bin_label: b for b in table.bins}
    assert table.excluded_pairs == 1
    assert (by_label["2010-2019"].n_generated, by_label["2010-2019"].n_ground_truth) == (1, 0)
    assert (by_label["2000-2009"].n_generated, by_label["2000-2009"].n_ground_truth) == (0, 0)


def test_bias_venue_facet_uses_canonical_labels():
    pairs = [_pair("p", 1, 500, 100)]
    table = bias_breakdown(pairs, "venue")
    by_label = {b.bin_label: b for b in table.bins}
    assert by_label["NeurIPS"].difference == 400


def test_bias_influential_metric_runs_same_machinery():
    gen = _row(citations=None)
    gen.influential_citation_count = 60
    gt = _row(citations=None)
    gt.influential_citation_count = 10
    pairs = [PairedRefs(paper_id="p", citation_number=1, generated=gen, ground_truth=gt)]
    table = bias_breakdown(pairs, "subperiod", metric="influential_citation_count")
    populated = [b for b in table.bins if b.n_generated]
    assert populated[0].difference == 50


# ---------------------------------------------------------------------------
# Counterpart cohorts
# ---------------------------------------------------------------------------


def test_counterpart_all_nonexistent_single_cohort():
    rows = [( _flag(i), _row(citations=i)) for i in range(1, 5)]
    split = cohort_split_by_counterpart(rows)
    assert len(split["counterpart_of_nonexistent"]) == 4
    assert not split["counterpart_of_existing"]
    assert not split["counterpart_of_in_paper"]


def test_counterpart_planted_ordering_reproduced():
    rows = []
    # in-paper counterparts: high citations; existing-only: medium; nonexistent: low
    for c in (5000, 6000, 7000):
        rows.append((_flag(1, existing=True, paper=True), _row(citations=c)))
    for c in (500, 600, 700):
        rows.append((_flag(2, existing=True), _row(citations=c)))
    for c in (5, 6, 7):
        rows.append((_flag(3), _row(citations=c)))
    split = cohort_split_by_counterpart(rows)
    tables = characteristics(split)
    med = lambda c: tables[c]["citation_count"].median  # noqa: E731
    assert med("counterpart_of_in_paper") > med("counterpart_of_existing") > med(
        "counterpart_of_nonexistent"
    )


def test_counterpart_assignment_matches_brute_force():
    rng = random.Random(8)
    rows = []
    for i in range(60):
        exists = rng.random() < 0.6
        paper = exists and rng.random() < 0.5
        rows.append((_flag(i, existing=exists, paper=paper), _row(citations=i)))
    split = cohort_split_by_counterpart(rows)
    assert len(split["counterpart_of_existing"]) == sum(1 for f, _ in rows if f.existing)
    assert len(split["counterpart_of_in_paper"]) == sum(1 for f, _ in rows if f.cited_in_paper)
    assert len(split["counterpart_of_nonexistent"]) == sum(1 for f, _ in rows if not f.existing)
    # existing/nonexistent partition the slots
    assert len(split["counterpart_of_existing"]) + len(split["counterpart_of_nonexistent"]) == 60


# ---------------------------------------------------------------------------
# Formatting and emission
# ---------------------------------------------------------------------------


def test_format_pct_round_half_even():
    assert format_pct(Fraction(1235, 100)) == "12.4"  # 12.35 -> even digit 4
    assert format_pct(Fraction(1245, 100)) == "12.4"  # 12.45 -> stays at 4
    assert format_pct(Fraction(100, 3)) == "33.3"
    assert format_pct(Fraction(200, 3)) == "66.7"
    assert format_pct(None) == "NA"


def test_zero_overlap_writes_zero_not_na(tmp_path):
    path = tmp_path / "overlap.csv"
    write_overlap_csv(path, {"1-2": Fraction(0)}, [1, 2], "h")
    assert path.read_text().splitlines()[2:] == ["run2,0.0"]

def test_format_median_keeps_large_counts_exact():
    assert format_median(135000.5) == "135000.5"
    assert format_median(1234567) == "1234567"
    assert format_median(1234567.0) == "1234567"
    # below 100,000 the text is what it always was
    assert format_median(1326) == "1326"
    assert format_median(2.5) == "2.5"
    assert format_median(-0.5) == "-0.5"
    assert format_median(None) == "NA"


def test_summary_csv_rows_are_exactly_the_five_metrics(tmp_path):
    flags = [_flag(i, existing=i < 3, unique=True) for i in range(1, 5)]
    summary = summarize_run(flags)
    path = tmp_path / "summary.csv"
    write_summary_csv(path, {("vanilla", 1): summary}, "deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# manifest_hash=deadbeef"
    assert lines[1] == "metric,run1_vanilla"
    labels = [line.split(",")[0] for line in lines[2:]]
    assert labels == ["Existence", "Cited in paper", "Cited in introduction", "PM all", "PM unique"]
