"""The aggregate stages: analyze, graph and report.

Each reads the artifacts of every paper and run that the per-paper stages
wrote, through the loaders in ``perpaper``, and writes one roll-up: the
analysis, the citation graphs and their metrics, or the report bundle.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING

from . import citegraph, stats
from .clients import atomic_write_text, dump_json, from_json, to_json
from .corpus import EnrichedRecord, PaperRecord, enrich_reference
from .llmgate import ITERATIVE, VANILLA, GeneratedReference
from .perpaper import (
    enriched_for, load_papers, load_record, load_refs, load_verdicts, read_artifact,
)

if TYPE_CHECKING:
    from .pipeline import PipelineContext


def _row(
    ctx: PipelineContext, ref: GeneratedReference, index_id: str | None
) -> stats.CharacteristicsRow:
    """A reference's characteristics row, ground-truth or generated alike;
    its counts come from the index record ``index_id``, if it has one."""
    row = stats.CharacteristicsRow(
        title_chars=len(ref.title),
        year=ref.year,
        author_count=ref.author_count,
        venue=ref.venue.canonical,
    )
    rec = enrich_reference(index_id, ctx.scholar) if index_id is not None else None
    if isinstance(rec, EnrichedRecord):
        row.citation_count = rec.citation_count
        row.influential_citation_count = rec.influential_citation_count
        row.reference_count = rec.reference_count
    return row


def _collect_run(
    ctx: PipelineContext,
    papers: list[PaperRecord],
    strategy: str,
    run_index: int,
    cohorts: dict[str, list[stats.CharacteristicsRow]],
    pairs: list[stats.PairedRefs],
    counterpart: list[tuple[stats.RefFlags, stats.CharacteristicsRow]],
) -> list[stats.RefFlags]:
    """Flags for one run. A vanilla run also appends its characteristics
    rows to the named ``cohorts``, its bias pairs to ``pairs`` and each
    slot's flags and ground-truth row to ``counterpart``; only vanilla
    runs feed them."""
    flags: list[stats.RefFlags] = []
    for paper in papers:
        record = load_record(ctx, paper)
        gt_by_num = {row["citation_number"]: row for row in record["gt_refs"]}
        intro_ids = {num: row["index_id"] for num, row in gt_by_num.items()}
        unique = set(record["unique_numbers"])
        _, refs = load_refs(ctx, strategy, run_index, paper)
        verdicts = load_verdicts(ctx, strategy, run_index, paper)

        for number in record["intro_numbers"]:
            ref = refs.get(number)
            verdict = verdicts.get(number)
            flag = stats.classify_generated(
                ref, verdict, paper, intro_ids, number, number in unique
            )
            flags.append(flag)
            if strategy != VANILLA:
                continue

            gt = gt_by_num.get(number)
            gt_row = None
            if gt is not None:
                gt_row = _row(ctx, from_json(GeneratedReference, gt), gt["index_id"])
                cohorts["ground_truth"].append(gt_row)
                counterpart.append((flag, gt_row))
            if ref is not None and verdict is not None:
                gen_row = _row(ctx, ref, verdict.matched_index_id)
                cohorts["generated_all"].append(gen_row)
                exists = "existing" if verdict.exists else "nonexistent"
                cohorts[f"generated_{exists}"].append(gen_row)
                if verdict.exists and gt_row is not None:
                    pairs.append(stats.PairedRefs(paper.index_id, number, gen_row, gt_row))
    return flags


def stage_analyze(ctx: PipelineContext) -> dict:
    cfg = ctx.config
    papers = load_papers(ctx, prepared=True)
    analysis_dir = ctx.stage_dir("analysis")
    strategies = [VANILLA] + ([ITERATIVE] if cfg.iterative else [])

    run_flags: dict[tuple[str, int], list[stats.RefFlags]] = {}
    cohorts: dict[str, list[stats.CharacteristicsRow]] = {
        name: []
        for name in ("ground_truth", "generated_all", "generated_existing", "generated_nonexistent")
    }
    pairs: list[stats.PairedRefs] = []
    counterpart: list[tuple[stats.RefFlags, stats.CharacteristicsRow]] = []

    summary_payload: dict = {}
    for strategy in strategies if papers else []:
        for run_index in range(1, cfg.vanilla_runs + 1):
            flags = _collect_run(ctx, papers, strategy, run_index, cohorts, pairs, counterpart)
            run_flags[(strategy, run_index)] = flags
            summary_payload[stats.run_label(strategy, run_index)] = {
                "strategy": strategy, "run_index": run_index, **to_json(stats.summarize_run(flags))
            }

    overlap_payload = {
        f"{i}-{j}": to_json(stats.run_overlap(run_flags[(VANILLA, i)], run_flags[(VANILLA, j)]))
        for i, j in combinations(range(1, cfg.vanilla_runs + 1), 2)
        if run_flags.get((VANILLA, i))
    }

    split = stats.cohort_split_by_counterpart(counterpart)
    analysis = {
        "summaries": summary_payload,
        "overlaps": overlap_payload,
        "vanilla_runs": cfg.vanilla_runs,
        "iterative": cfg.iterative,
        "histograms": to_json(stats.characteristics(cohorts)),
        "counterpart_histograms": to_json(stats.characteristics(split)),
        "bias": to_json(stats.bias_tables(pairs, cfg.subperiod_bins)),
    }
    atomic_write_text(os.path.join(analysis_dir, "analysis.json"), dump_json(analysis))
    return {
        "runs_analyzed": len(summary_payload),
        "characteristics_rows": sum(len(rows) for rows in cohorts.values()),
        "bias_pairs": len(pairs),
    }


def stage_graph(ctx: PipelineContext) -> dict:
    cfg = ctx.config
    papers = load_papers(ctx, prepared=True)
    strategy, run_index = cfg.graph_strategy, cfg.graph_run_index
    graphs_dir = ctx.stage_dir("graphs")
    rows = []
    graphs = []
    citation_counts: dict[str, int | None] = {}
    reference_counts: dict[str, int | None] = {}

    for paper in papers:
        record = load_record(ctx, paper)
        intro_ids = sorted(
            {row["index_id"] for row in record["gt_refs"] if row["index_id"] is not None}
        )
        verdicts = load_verdicts(ctx, strategy, run_index, paper)
        generated_ids = sorted(
            {v.matched_index_id for v in verdicts.values() if v.exists and v.matched_index_id}
        )
        adjacency: dict[str, list[str]] = {paper.index_id: list(paper.reference_ids)}
        for node, rec in enriched_for(ctx, sorted({*intro_ids, *generated_ids})).items():
            adjacency[node] = list(rec.outgoing_reference_ids)
            citation_counts[node] = rec.citation_count
            reference_counts[node] = rec.reference_count

        graph = citegraph.build_graph(paper, intro_ids, generated_ids, adjacency)
        citegraph.categorize(graph, paper)
        citegraph.write_graph_files(os.path.join(graphs_dir, ctx.paper_dirname(paper)), graph)
        rows.append(citegraph.metrics_row(graph))
        graphs.append(graph)

    mhash = ctx.manifest_hash
    citegraph.write_graph_metrics_csv(os.path.join(graphs_dir, "graph_metrics.csv"), rows, mhash)
    profiles = citegraph.category_profiles(graphs, citation_counts, reference_counts)
    payload = {
        "manifest_hash": mhash,
        "strategy": strategy,
        "run_index": run_index,
        "profiles": to_json(profiles),
    }
    atomic_write_text(os.path.join(graphs_dir, "category_profiles.json"), dump_json(payload))
    return {"graphs": len(rows)}


def stage_report(ctx: PipelineContext) -> dict:
    analysis_path = os.path.join(ctx.stage_dir("analysis"), "analysis.json")
    analysis = json.loads(read_artifact(ctx, analysis_path))
    report_dir = ctx.stage_dir("report")
    mhash = ctx.manifest_hash

    lines = [
        f"manifest_hash: {mhash}",
        f"model: {ctx.config.model_id}",
        f"vanilla runs: {analysis['vanilla_runs']}"
        + (" (+ iterative)" if analysis["iterative"] else ""),
        "",
        "Headline percentages (see summary.csv):",
    ]
    summaries = {}
    for label, entry in sorted(analysis["summaries"].items()):
        summary = from_json(stats.RunSummary, entry)
        summaries[(entry["strategy"], entry["run_index"])] = summary
        lines.append(f"  {label}: existence {stats.format_pct(summary.pct['existence'])}%")
    stats.write_summary_csv(os.path.join(report_dir, "summary.csv"), summaries, mhash)
    stats.write_summary_counts_csv(
        os.path.join(report_dir, "summary_counts.csv"), summaries, mhash
    )

    overlaps = from_json(dict[str, Fraction], analysis["overlaps"])
    run_indices = list(range(1, analysis["vanilla_runs"] + 1))
    stats.write_overlap_csv(os.path.join(report_dir, "overlap.csv"), overlaps, run_indices, mhash)

    histograms = dict[str, dict[str, stats.Histogram]]
    for key in ("histograms", "counterpart_histograms"):
        tables = from_json(histograms, analysis[key])
        stats.write_characteristics_csvs(os.path.join(report_dir, "characteristics"), tables, mhash)

    for name, table in sorted(from_json(dict[str, stats.BiasTable], analysis["bias"]).items()):
        stats.write_bias_csv(os.path.join(report_dir, "bias", f"{name}.csv"), table, mhash)

    histograms_json = {"manifest_hash": mhash, "histograms": analysis["histograms"]}
    atomic_write_text(os.path.join(report_dir, "histograms.json"), dump_json(histograms_json))
    atomic_write_text(os.path.join(report_dir, "summary.txt"), "\n".join(lines) + "\n")
    return {"files": sum(len(files) for _, _, files in os.walk(report_dir))}
