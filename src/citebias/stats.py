"""Per-run summary statistics, run overlap, characteristics
distributions, and citation-bias breakdowns.

Every percentage is an exact rational until the moment it is written
(one decimal, round-half-to-even), and every table is emitted with its
raw counts so numbers are recomputable. Flag semantics form a chain:
a pairwise match implies cited-in-introduction implies cited-in-paper
implies existence.
"""

from __future__ import annotations

import logging
import os
import statistics
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .clients import atomic_write_text
from .corpus import CANONICAL_VENUES, PaperRecord
from .llmgate import GeneratedReference
from .matcher import MatchVerdict
from .textnorm import title_key

logger = logging.getLogger(__name__)

# the five headline metrics: (key, label, count, denominator), where the
# count and the denominator name entries of RunSummary.counts
HEADLINE = (
    ("existence", "Existence", "existing", "total_refs"),
    ("cited_in_paper", "Cited in paper", "cited_in_paper", "total_refs"),
    ("cited_in_intro", "Cited in introduction", "cited_in_intro", "total_refs"),
    ("pm_all", "PM all", "pm_all", "total_refs"),
    ("pm_unique", "PM unique", "pm_unique", "unique_refs"),
)

DEFAULT_SUBPERIOD_BINS: list[tuple[str, int | None, int | None]] = [
    ("<=1988", None, 1988),
    ("1989-1998", 1989, 1998),
    ("1999-2009", 1999, 2009),
    ("2010-2016", 2010, 2016),
    ("2017-2023", 2017, 2023),
    (">=2024", 2024, None),
]

# 1-2-5 ladder for citation-style heavy-tailed counts
DEFAULT_COUNT_BIN_EDGES = [0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 100000]

MISSING_IDENTITY = "missing:"


@dataclass(frozen=True)
class RefFlags:
    """Verdict-derived flags for one (paper, citation slot)."""

    paper_id: str
    citation_number: int
    existing: bool
    cited_in_paper: bool
    cited_in_intro: bool
    pairwise_match: bool
    uniquely_identifiable: bool
    identity: str


@dataclass
class RunSummary:
    """Headline percentages for one run, keyed by ``HEADLINE`` key; None
    marks a zero denominator. ``analysis.json`` stores it in this shape."""

    pct: dict[str, Fraction | None]
    denominators: tuple[int, int]
    counts: dict[str, int] = field(default_factory=dict)


def classify_generated(
    ref: GeneratedReference | None,
    verdict: MatchVerdict | None,
    focal: PaperRecord,
    intro_ids: dict[int, str | None],
    citation_number: int,
    uniquely_identifiable: bool,
) -> RefFlags:
    """Derive the flag chain for one citation slot.

    ``intro_ids`` maps each intro citation number to its resolved index
    id (None when unresolved). A slot the model never answered gets
    all-false flags and a missing identity.
    """
    if ref is None or verdict is None:
        return RefFlags(
            paper_id=focal.index_id,
            citation_number=citation_number,
            existing=False,
            cited_in_paper=False,
            cited_in_intro=False,
            pairwise_match=False,
            uniquely_identifiable=uniquely_identifiable,
            identity=MISSING_IDENTITY + str(citation_number),
        )
    existing = verdict.exists
    matched = verdict.matched_index_id
    reference_ids = set(focal.reference_ids)
    intro_id_set = {i for i in intro_ids.values() if i is not None}
    cited_in_paper = existing and matched in reference_ids
    cited_in_intro = cited_in_paper and matched in intro_id_set
    pairwise = cited_in_intro and matched == intro_ids.get(citation_number)
    identity = f"id:{matched}" if existing else f"title:{title_key(ref.title)}"
    return RefFlags(
        paper_id=focal.index_id,
        citation_number=citation_number,
        existing=existing,
        cited_in_paper=cited_in_paper,
        cited_in_intro=cited_in_intro,
        pairwise_match=pairwise,
        uniquely_identifiable=uniquely_identifiable,
        identity=identity,
    )


def summarize_run(flags: list[RefFlags]) -> RunSummary:
    """Aggregate flags into the five headline percentages.

    The pairwise-match-on-unique-slots figure uses its own denominator
    (the count of uniquely identifiable slots); everything else is over
    all slots.
    """
    total = len(flags)
    unique_total = sum(1 for f in flags if f.uniquely_identifiable)
    counts = {
        "total_refs": total,
        "unique_refs": unique_total,
        "existing": sum(1 for f in flags if f.existing),
        "cited_in_paper": sum(1 for f in flags if f.cited_in_paper),
        "cited_in_intro": sum(1 for f in flags if f.cited_in_intro),
        "pm_all": sum(1 for f in flags if f.pairwise_match),
        "pm_unique": sum(1 for f in flags if f.pairwise_match and f.uniquely_identifiable),
    }

    pct = {
        key: Fraction(100 * counts[count], counts[denom]) if counts[denom] else None
        for key, _, count, denom in HEADLINE
    }
    return RunSummary(pct=pct, denominators=(total, unique_total), counts=counts)


def run_overlap(flags_a: list[RefFlags], flags_b: list[RefFlags]) -> Fraction:
    """Percentage of slots where two runs generated the same reference.

    Identity is the matched index id for existing references and the
    normalized title otherwise; slots the model skipped match only other
    skipped slots. Runs must cover the same corpus.
    """
    key = lambda f: (f.paper_id, f.citation_number)  # noqa: E731
    a = {key(f): f.identity for f in flags_a}
    b = {key(f): f.identity for f in flags_b}
    if set(a) != set(b):
        raise ValueError("runs cover different corpora")
    if not a:
        raise ValueError("empty runs have no overlap")
    same = sum(1 for k, ident in a.items() if b[k] == ident)
    return Fraction(100 * same, len(a))


# ---------------------------------------------------------------------------
# Characteristics distributions
# ---------------------------------------------------------------------------


@dataclass
class CharacteristicsRow:
    """One reference's comparable properties."""

    title_chars: int
    year: int | None
    author_count: int | None
    venue: str
    citation_count: int | None = None
    influential_citation_count: int | None = None
    reference_count: int | None = None


@dataclass
class Histogram:
    bins: list[tuple[str, int]]
    unknown: int
    n_known: int
    median: float | None

    def total(self) -> int:
        return sum(count for _, count in self.bins) + self.unknown


def _bin_label_ranges(edges: list[int]) -> list[tuple[str, int | None, int | None]]:
    # open head and tail bins make the ranges total over the integers
    out: list[tuple[str, int | None, int | None]] = [(f"<{edges[0]}", None, edges[0] - 1)]
    for lo, hi in zip(edges, edges[1:]):
        label = str(lo) if hi == lo + 1 else f"{lo}-{hi - 1}"
        out.append((label, lo, hi - 1))
    out.append((f">={edges[-1]}", edges[-1], None))
    return out


# bin edges of the metrics not binned by DEFAULT_COUNT_BIN_EDGES
_BIN_EDGES = {
    "title_chars": list(range(0, 200, 10)),
    "year": list(range(1950, 2031, 5)),
    "author_count": list(range(1, 11)),
}


def _range_bins_for(metric: str) -> list[tuple[str, int | None, int | None]]:
    return _bin_label_ranges(_BIN_EDGES.get(metric, DEFAULT_COUNT_BIN_EDGES))


def _find_bin(value: int, ranges: list[tuple[str, int | None, int | None]]) -> str | None:
    """The label of the range holding ``value``, or None if none does."""
    for label, lo, hi in ranges:
        if (lo is None or value >= lo) and (hi is None or value <= hi):
            return label
    return None


def count_distribution(values: list[int | None], metric: str = "citation_count") -> Histogram:
    """Histogram + median for one list of ``metric`` values (None = unknown)."""
    known = [v for v in values if v is not None]
    unknown = len(values) - len(known)
    if metric == "venue":
        counts = {label: 0 for label in CANONICAL_VENUES}
        for v in known:
            counts[v] = counts.get(v, 0) + 1
        bins = [(label, counts[label]) for label in CANONICAL_VENUES]
        return Histogram(bins=bins, unknown=unknown, n_known=len(known), median=None)
    ranges = _range_bins_for(metric)
    counts = {label: 0 for label, _, _ in ranges}
    for v in known:
        counts[_find_bin(v, ranges)] += 1
    bins = [(label, counts[label]) for label, _, _ in ranges if counts[label]]
    median = statistics.median(known) if known else None
    return Histogram(bins=bins, unknown=unknown, n_known=len(known), median=median)


NUMERIC_METRICS = (
    "title_chars",
    "year",
    "author_count",
    "citation_count",
    "influential_citation_count",
    "reference_count",
)


def characteristics(
    cohorts: dict[str, list[CharacteristicsRow]],
) -> dict[str, dict[str, Histogram]]:
    """Distribution tables for every comparable property of each named
    cohort, in name order; an empty cohort gets no table.

    Medians are computed over known values only; unknowns are tallied,
    never imputed, so every histogram's total equals the cohort size.
    """
    tables: dict[str, dict[str, Histogram]] = {}
    for cohort, members in sorted(cohorts.items()):
        if not members:
            continue
        metrics: dict[str, Histogram] = {}
        for metric in NUMERIC_METRICS:
            values = [getattr(row, metric) for row in members]
            metrics[metric] = count_distribution(values, metric)
        metrics["venue"] = count_distribution([row.venue for row in members], "venue")
        tables[cohort] = metrics
    return tables


# ---------------------------------------------------------------------------
# Bias breakdowns over paired references
# ---------------------------------------------------------------------------


@dataclass
class PairedRefs:
    """An existing generated reference and its slot's ground-truth entry."""

    paper_id: str
    citation_number: int
    generated: CharacteristicsRow
    ground_truth: CharacteristicsRow


@dataclass
class BiasBin:
    bin_label: str
    generated_median: float | None
    ground_truth_median: float | None
    difference: float | None
    n_generated: int
    n_ground_truth: int


@dataclass
class BiasTable:
    facet: str
    metric: str
    bins: list[BiasBin]
    excluded_pairs: int


# each bias facet and the CharacteristicsRow field it bins; subperiods
# bin years by the configured sub-periods, venues by canonical venue
FACETS = {
    "subperiod": "year",
    "title_chars": "title_chars",
    "author_count": "author_count",
    "venue": "venue",
}


def bias_breakdown(
    pairs: list[PairedRefs],
    facet: str,
    metric: str = "citation_count",
    subperiod_bins: list[tuple[str, int | None, int | None]] | None = None,
) -> BiasTable:
    """Per-facet-bin medians of a count metric for both cohorts.

    Each side of a pair is binned by its own facet value; a side whose
    value is unknown or in no bin is left out. Pairs where either side's
    metric is unknown, or where neither side is binned, are excluded from
    the facet entirely and tallied. The difference column is generated
    minus ground truth.
    """
    if facet not in FACETS:
        raise ValueError(f"unknown facet {facet!r}")
    field_name = FACETS[facet]
    if facet == "subperiod":
        bins = subperiod_bins or DEFAULT_SUBPERIOD_BINS
    elif facet == "venue":
        bins = [(label, None, None) for label in CANONICAL_VENUES]
    else:
        bins = _range_bins_for(field_name)
    gen_values: dict[str, list[int]] = {label: [] for label, _, _ in bins}
    gt_values: dict[str, list[int]] = {label: [] for label, _, _ in bins}
    excluded = 0
    for pair in pairs:
        gen_metric = getattr(pair.generated, metric)
        gt_metric = getattr(pair.ground_truth, metric)
        if gen_metric is None or gt_metric is None:
            excluded += 1
            continue
        placed = False
        for row, value, store in (
            (pair.generated, gen_metric, gen_values),
            (pair.ground_truth, gt_metric, gt_values),
        ):
            facet_value = getattr(row, field_name)
            if facet_value is None:
                continue
            label = facet_value if facet == "venue" else _find_bin(facet_value, bins)
            if label in store:
                store[label].append(value)
                placed = True
        if not placed:
            excluded += 1

    out_bins = []
    for label, _, _ in bins:
        gen = gen_values[label]
        gt = gt_values[label]
        gen_median = statistics.median(gen) if gen else None
        gt_median = statistics.median(gt) if gt else None
        difference = (
            gen_median - gt_median if gen_median is not None and gt_median is not None else None
        )
        out_bins.append(
            BiasBin(
                bin_label=label,
                generated_median=gen_median,
                ground_truth_median=gt_median,
                difference=difference,
                n_generated=len(gen),
                n_ground_truth=len(gt),
            )
        )
    return BiasTable(facet=facet, metric=metric, bins=out_bins, excluded_pairs=excluded)


def bias_tables(
    pairs: list[PairedRefs],
    subperiod_bins: list[tuple[str, int | None, int | None]] | None = None,
) -> dict[str, BiasTable]:
    """Each facet's ``bias_breakdown`` by citation count, named after the
    facet, and by influential citation count, named ``<facet>_influential``."""
    return {
        facet + suffix: bias_breakdown(pairs, facet, metric, subperiod_bins=subperiod_bins)
        for facet in FACETS
        for metric, suffix in (("citation_count", ""), ("influential_citation_count", "_influential"))
    }


def cohort_split_by_counterpart(
    slot_rows: list[tuple[RefFlags, CharacteristicsRow]],
) -> dict[str, list[CharacteristicsRow]]:
    """Group ground-truth rows by what happened to their slot's generation.

    Existing and non-existent form a partition; in-paper is the published
    subset of existing and overlaps it by construction, so an in-paper
    slot's row object sits in both lists. The mapping is ready for
    ``characteristics``.
    """
    existing: list[CharacteristicsRow] = []
    in_paper: list[CharacteristicsRow] = []
    nonexistent: list[CharacteristicsRow] = []
    for flags, gt_row in slot_rows:
        if flags.existing:
            existing.append(gt_row)
            if flags.cited_in_paper:
                in_paper.append(gt_row)
        else:
            nonexistent.append(gt_row)
    return {
        "counterpart_of_existing": existing,
        "counterpart_of_in_paper": in_paper,
        "counterpart_of_nonexistent": nonexistent,
    }


# ---------------------------------------------------------------------------
# Formatting and emission
# ---------------------------------------------------------------------------


def format_fraction(value: Fraction | None, places: int) -> str:
    """``places`` decimals, round-half-to-even, computed from the exact
    rational; ``NA`` for None."""
    if value is None:
        return "NA"
    return str(Decimal(round(value * 10**places)).scaleb(-places))


def format_pct(value: Fraction | None) -> str:
    """A percentage to one decimal, as ``format_fraction`` rounds it."""
    return format_fraction(value, 1)


def format_median(value: float | None) -> str:
    """A median of counts, whole or a half: ``135000`` or ``135000.5``."""
    if value is None:
        return "NA"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def write_csv(
    path: Path | str, header: list[str], rows: list[list[str]], manifest_hash: str
) -> None:
    """A CSV file whose first line is ``# manifest_hash=<hash>``."""
    lines = [f"# manifest_hash={manifest_hash}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_csv_quote(cell) for cell in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def run_label(strategy: str, run_index: int) -> str:
    return f"run{run_index}_{strategy}"


def _write_run_table(
    path: Path | str,
    corner: str,
    summaries: dict[tuple[str, int], RunSummary],
    rows: list[tuple[str, str]],
    cell: Callable[[RunSummary, str], str],
    manifest_hash: str,
) -> None:
    """One row per ``(label, key)`` in ``rows``, one column per (run,
    strategy) holding ``cell(summary, key)``; only the header without runs."""
    columns = sorted(summaries, key=lambda k: (k[1], k[0] != "vanilla"))
    header = [corner, *(run_label(s, i) for s, i in columns)]
    body = [[label, *(cell(summaries[c], key) for c in columns)] for label, key in rows]
    write_csv(path, header, body if columns else [], manifest_hash)


def write_summary_csv(
    path: Path | str,
    summaries: dict[tuple[str, int], RunSummary],
    manifest_hash: str,
) -> None:
    """Table of the five headline metrics, one column per (run, strategy)."""
    _write_run_table(
        path, "metric", summaries, [(label, key) for key, label, _, _ in HEADLINE],
        lambda summary, key: format_pct(summary.pct[key]), manifest_hash,
    )


SUMMARY_COUNTS = (
    "total_refs", "unique_refs", "existing", "cited_in_paper", "cited_in_intro",
    "pm_all", "pm_unique",
)


def write_summary_counts_csv(
    path: Path | str,
    summaries: dict[tuple[str, int], RunSummary],
    manifest_hash: str,
) -> None:
    _write_run_table(
        path, "count", summaries, [(key, key) for key in SUMMARY_COUNTS],
        lambda summary, key: str(summary.counts.get(key, 0)), manifest_hash,
    )


def write_overlap_csv(
    path: Path | str,
    overlaps: dict[str, Fraction],
    run_indices: list[int],
    manifest_hash: str,
) -> None:
    """Upper-triangular pairwise overlap matrix between runs, from
    overlaps keyed ``"<i>-<j>"`` with ``i < j``; only the ``run`` header
    without overlaps."""
    shown = run_indices if overlaps else []
    header = ["run", *(f"run{i}" for i in shown[:-1])]
    rows = []
    for j in shown[1:]:
        row = [f"run{j}"]
        for i in shown[:-1]:
            if i < j:
                row.append(format_pct(overlaps.get(f"{i}-{j}")))
            else:
                row.append("")
        rows.append(row)
    write_csv(path, header, rows, manifest_hash)


def write_characteristics_csvs(
    out_dir: Path | str,
    tables: dict[str, dict[str, Histogram]],
    manifest_hash: str,
) -> None:
    for cohort, metrics in sorted(tables.items()):
        rows = []
        for metric, hist in sorted(metrics.items()):
            for label, count in hist.bins:
                rows.append([metric, label, str(count)])
            rows.append([metric, "unknown", str(hist.unknown)])
            rows.append([metric, "median", format_median(hist.median)])
            rows.append([metric, "n_known", str(hist.n_known)])
        path = os.path.join(out_dir, f"{cohort}.csv")
        write_csv(path, ["metric", "bin", "value"], rows, manifest_hash)


def write_bias_csv(path: Path | str, table: BiasTable, manifest_hash: str) -> None:
    header = [
        "bin",
        "generated_median",
        "ground_truth_median",
        "difference",
        "n_generated",
        "n_ground_truth",
    ]
    rows = []
    for b in table.bins:
        rows.append(
            [
                b.bin_label,
                format_median(b.generated_median),
                format_median(b.ground_truth_median),
                format_median(b.difference),
                str(b.n_generated),
                str(b.n_ground_truth),
            ]
        )
    rows.append(["excluded_pairs", str(table.excluded_pairs), "", "", "", ""])
    write_csv(path, header, rows, manifest_hash)
