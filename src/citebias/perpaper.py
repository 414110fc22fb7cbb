"""The per-paper stages: ingest, prepare, generate, verify and iterate.

Each stage works through the corpus one paper (and one run) at a time and
writes that paper's artifacts under the output directory. The loaders of
those artifacts, which the aggregate stages read too, live here with the
stages that write them.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import TYPE_CHECKING

from . import docprep, llmgate
from .clients import atomic_write_text, dump_json, from_json, parallel_map, to_json
from .corpus import (
    EnrichedRecord, PaperRecord, enrich_reference, filter_candidates, harvest_candidates,
    resolve_paper,
)
from .errors import EXCL_DUPLICATE, Exclusion, PipelineError, ProviderRefusal, TableParseError
from .llmgate import (
    ITERATIVE, VANILLA, GeneratedReference, GenerationRun, generate, merge_iterative,
    postprocess_references, render_iterative_prompt, render_vanilla_prompt, template_hashes,
)
from .matcher import MatchVerdict, decide_existence, search_candidates, title_similarity
from .textnorm import title_key

if TYPE_CHECKING:
    from .pipeline import PipelineContext


# ---------------------------------------------------------------------------
# Stage: ingest
# ---------------------------------------------------------------------------


def stage_ingest(ctx: PipelineContext) -> dict:
    """Harvest, filter, resolve, and enrich the corpus."""
    cfg = ctx.config
    stubs = harvest_candidates(ctx.preprint, cfg.window, cfg.category, cfg.venue_keywords)
    kept = filter_candidates(stubs, cfg.blacklist)
    papers: list[PaperRecord] = []
    dropped: list[tuple[str, Exclusion]] = []
    claimed_by: dict[str, str] = {}  # index id -> the preprint that resolved to it
    for stub in kept:
        resolved = resolve_paper(
            stub, ctx.scholar, ctx.venue_table, fuzzy_threshold=cfg.resolve_fuzzy_threshold
        )
        if not isinstance(resolved, Exclusion) and resolved.index_id in claimed_by:
            first = claimed_by[resolved.index_id]
            resolved = Exclusion(EXCL_DUPLICATE, f"{resolved.index_id} already claimed by {first}")
        if isinstance(resolved, Exclusion):
            dropped.append((stub.preprint_id, resolved))
        else:
            claimed_by[resolved.index_id] = stub.preprint_id
            papers.append(resolved)

    all_ids = sorted({rid for paper in papers for rid in paper.reference_ids})
    results = parallel_map(
        lambda rid: enrich_reference(rid, ctx.scholar),
        all_ids,
        max_in_flight=cfg.max_in_flight,
    )
    enrich_missing = sum(1 for r in results if isinstance(r, Exclusion))
    enriched_ok = len(results) - enrich_missing

    out = ctx.stage_dir("corpus")
    atomic_write_text(os.path.join(out, "papers.json"), dump_json(to_json(papers)))
    return {
        "harvested": len(stubs),
        "after_blacklist": len(kept),
        "resolved": len(papers),
        **_write_exclusions(out, dropped),
        "references_enriched": enriched_ok,
        "references_not_found": enrich_missing,
    }


def _write_exclusions(out: str, dropped: list[tuple[str, Exclusion]]) -> dict:
    """Write ``exclusions.json`` under ``out``, one row per dropped paper
    (its preprint id and its exclusion), and return the stage outcomes
    that count them."""
    rows = [{"preprint_id": preprint_id, **to_json(excl)} for preprint_id, excl in dropped]
    atomic_write_text(os.path.join(out, "exclusions.json"), dump_json(rows))
    return {"excluded": len(rows), "excluded_by_code": Counter(row["code"] for row in rows)}


def read_artifact(ctx: PipelineContext, path: str) -> str:
    """Text of an artifact under ``out/``; a missing file is a PipelineError
    that names the stage that writes it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        name = os.path.relpath(path, ctx.out)
        raise PipelineError(f"{name} missing: run the {ctx.writer(path)} stage first") from None


def load_papers(ctx: PipelineContext, prepared: bool = False) -> list[PaperRecord]:
    """Papers as ingested, or (with ``prepared``) the survivors of
    document preparation with their intro numbers filled in."""
    path = os.path.join(ctx.stage_dir("prepared" if prepared else "corpus"), "papers.json")
    return from_json(list[PaperRecord], json.loads(read_artifact(ctx, path)))


# ---------------------------------------------------------------------------
# Stage: prepare
# ---------------------------------------------------------------------------


def enriched_for(ctx: PipelineContext, ids: list[str]) -> dict[str, EnrichedRecord]:
    """The enriched record of each of ``ids`` the index has, in ``ids`` order."""
    out = {}
    for rid in ids:
        rec = enrich_reference(rid, ctx.scholar)
        if not isinstance(rec, Exclusion):
            out[rid] = rec
    return out


def _resolve_gt_title(
    title: str,
    enriched: dict[str, EnrichedRecord],
    keys: dict[str, str],
    title_threshold: float,
) -> tuple[str | None, str]:
    """Match a structured ground-truth title to the focal paper's
    reference ids (exact normalized key first, then best substring ratio).
    ``keys`` maps each id of ``enriched`` to its title's ``title_key``."""
    key = title_key(title)
    exact = [rid for rid, rid_key in sorted(keys.items()) if rid_key == key]
    if exact:
        return exact[0], "exact" if len(exact) == 1 else "exact-first-of-several"
    best_id, best_score = None, 0.0
    for rid, rec in sorted(enriched.items()):
        score = title_similarity(title, rec.title)
        if score > best_score:
            best_id, best_score = rid, score
    if best_id is not None and best_score >= title_threshold:
        return best_id, f"fuzzy:{best_score:.3f}"
    return None, "unmatched"


def stage_prepare(ctx: PipelineContext) -> dict:
    """Document preparation plus ground-truth structuring and resolution."""
    cfg = ctx.config
    papers = load_papers(ctx)
    out = ctx.stage_dir("prepared")
    dropped: list[tuple[str, Exclusion]] = []
    survivors: list[PaperRecord] = []
    gt_failures = 0

    for paper in papers:
        prep = docprep.prepare_source(os.path.join(cfg.sources_dir, paper.preprint_id))
        if isinstance(prep, Exclusion):
            dropped.append((paper.preprint_id, prep))
            continue

        groups = prep.main_content.citation_occurrences
        warnings: list[str] = []
        intro_refs = docprep.select_intro_references(groups, prep.reference_texts, warnings)
        unique_numbers = docprep.uniquely_identifiable_numbers(groups)
        paper.intro_reference_numbers = {num for num, _ in intro_refs}
        if paper.intro_reference_numbers and paper.reference_ids:
            if max(paper.intro_reference_numbers) > len(paper.reference_ids):
                warnings.append(
                    "intro cites beyond the index's reference list "
                    f"({max(paper.intro_reference_numbers)} > {len(paper.reference_ids)})"
                )

        paper_dir = ctx.prepared_dir(paper)
        main_content = prep.main_content.text + "\n"
        atomic_write_text(os.path.join(paper_dir, "main_content.txt"), main_content)
        ref_lines = [f"[{num}] {raw}" for num, raw in intro_refs]
        atomic_write_text(
            os.path.join(paper_dir, "intro_references.txt"),
            "\n".join(ref_lines) + ("\n" if ref_lines else ""),
        )

        # structure the ground-truth list via the postprocessing prompt
        gt_rows: dict[int, dict] = {}
        post_outcome = "ok"
        if intro_refs:
            post_run = GenerationRun(cfg.model_id, VANILLA, 1)
            try:
                table = llmgate.postprocess_references(
                    "\n".join(ref_lines),
                    post_run,
                    ctx.provider,
                    ctx.venue_table,
                    raw_dir=paper_dir,
                    raw_prefix="gt_postprocess",
                )
            except (ProviderRefusal, TableParseError) as exc:
                post_outcome = f"failed:{type(exc).__name__}"
                gt_failures += 1
                table = None
            atomic_write_text(
                os.path.join(paper_dir, "gt_postprocess_transcript.json"),
                dump_json(to_json(post_run.transcript)),
            )
            if table is not None:
                enriched = enriched_for(ctx, paper.reference_ids)
                keys = {rid: title_key(rec.title) for rid, rec in enriched.items()}
                raw_by_num = dict(intro_refs)
                for ref in table.references:
                    num = ref.citation_number
                    if num not in raw_by_num or num in gt_rows:
                        continue
                    index_id, resolution = _resolve_gt_title(
                        ref.title, enriched, keys, cfg.thresholds.title_threshold
                    )
                    gt_rows[num] = {
                        **to_json(ref),
                        "raw_text": raw_by_num[num],
                        "index_id": index_id,
                        "resolution": resolution,
                    }
                for num, raw in intro_refs:
                    if num not in gt_rows:
                        warnings.append(f"postprocess-missing: no structured row for [{num}]")

        record = {
            "preprint_id": paper.preprint_id,
            "index_id": paper.index_id,
            "intro_numbers": sorted(paper.intro_reference_numbers),
            "unique_numbers": sorted(
                unique_numbers & paper.intro_reference_numbers
            ),
            "n_bibliography": len(prep.bibliography),
            "gt_postprocess": post_outcome,
            "gt_refs": [gt_rows[num] for num in sorted(gt_rows)],
            "warnings": warnings,
        }
        atomic_write_text(os.path.join(paper_dir, "record.json"), dump_json(record))
        survivors.append(paper)

    atomic_write_text(os.path.join(out, "papers.json"), dump_json(to_json(survivors)))
    return {
        "prepared": len(survivors),
        **_write_exclusions(out, dropped),
        "gt_postprocess_failures": gt_failures,
    }


def load_record(ctx: PipelineContext, paper: PaperRecord) -> dict:
    return json.loads(read_artifact(ctx, os.path.join(ctx.prepared_dir(paper), "record.json")))


def _main_content(ctx: PipelineContext, paper: PaperRecord) -> str:
    return read_artifact(ctx, os.path.join(ctx.prepared_dir(paper), "main_content.txt"))


# ---------------------------------------------------------------------------
# Stages: generate, verify, iterate
# ---------------------------------------------------------------------------


def _write_run_manifest(ctx: PipelineContext, strategy: str, run_index: int) -> None:
    payload = {
        "model_id": ctx.config.model_id,
        "strategy": strategy,
        "run_index": run_index,
        "sampling_params": ctx.config.sampling_params,
        "template_hashes": template_hashes(),
    }
    path = os.path.join(ctx.run_dir(strategy, run_index), "run_manifest.json")
    atomic_write_text(path, dump_json(payload))


def _each_run_and_paper(ctx: PipelineContext, one, creates: str | None = None) -> list:
    """``one(ctx, paper, run_index)`` for every run and prepared paper, in
    order. A pass that creates the runs of strategy ``creates`` first writes
    each run's ``run_manifest.json``."""
    papers = load_papers(ctx, prepared=True)
    results = []
    for run_index in range(1, ctx.config.vanilla_runs + 1):
        if creates:
            _write_run_manifest(ctx, creates, run_index)
        results += [one(ctx, paper, run_index) for paper in papers]
    return results


def _ask(
    ctx: PipelineContext,
    run: GenerationRun,
    messages: list,
    paper_dir: str,
    intro_numbers: set[int],
) -> tuple[str, dict[int, GeneratedReference], list[dict], list[str]]:
    """One prompting pass for one paper.

    Sends ``messages``, keeps ``response_raw.txt`` and ``transcript.json``
    under ``paper_dir`` whatever the answer, and structures the answer with
    the postprocessing prompt. The first row per cited slot wins; rows for
    uncited slots are quarantined. Returns the ``refs.json`` outcome
    (``ok``, ``refusal`` or ``parse-failure:<why>``), the references by
    slot, the quarantined rows and the anomalies.
    """
    provider = ctx.provider_for(run.strategy, run.run_index)
    try:
        response = generate(run, messages, provider, os.path.join(paper_dir, "response_raw.txt"))
    except ProviderRefusal:
        response = None
    transcript_path = os.path.join(paper_dir, "transcript.json")
    atomic_write_text(transcript_path, dump_json(to_json(run.transcript)))
    if response is None:
        return "refusal", {}, [], []
    post_run = GenerationRun(
        run.model_id, run.strategy, run.run_index, dict(run.sampling_params), parent=run.parent
    )
    try:
        table = postprocess_references(
            response, post_run, provider, ctx.venue_table, raw_dir=paper_dir
        )
    except (TableParseError, ProviderRefusal) as exc:
        return f"parse-failure:{exc}", {}, [], []
    by_slot: dict[int, GeneratedReference] = {}
    quarantined: list[dict] = []
    anomalies: list[str] = []
    for ref in table.references:
        if ref.citation_number not in intro_numbers:
            quarantined.append(
                {"row": ref.raw_text, "reason": f"uncited slot {ref.citation_number}"}
            )
        elif ref.citation_number in by_slot:
            anomalies.append(f"duplicate row for slot {ref.citation_number}; kept the first")
        else:
            by_slot[ref.citation_number] = ref
    return "ok", by_slot, quarantined + table.quarantined, anomalies + table.anomalies


def _write_refs_file(
    paper_dir: str,
    outcome: str,
    by_slot: dict[int, GeneratedReference],
    quarantined: list[dict],
    anomalies: list[str],
) -> None:
    payload = {
        "outcome": outcome,
        "references": to_json([by_slot[n] for n in sorted(by_slot)]),
        "quarantined": quarantined,
        "anomalies": anomalies,
    }
    atomic_write_text(os.path.join(paper_dir, "refs.json"), dump_json(payload))


def load_refs(
    ctx: PipelineContext, strategy: str, run_index: int, paper: PaperRecord
) -> tuple[str, dict[int, GeneratedReference]]:
    """The outcome and the references by slot of one paper's refs.json."""
    path = os.path.join(ctx.paper_run_dir(strategy, run_index, paper), "refs.json")
    payload = json.loads(read_artifact(ctx, path))
    refs = from_json(list[GeneratedReference], payload["references"])
    return payload["outcome"], {ref.citation_number: ref for ref in refs}


def _generate_one(ctx: PipelineContext, paper: PaperRecord, run_index: int) -> str:
    cfg = ctx.config
    paper_dir = ctx.paper_run_dir(VANILLA, run_index, paper)
    run = GenerationRun(cfg.model_id, VANILLA, run_index, dict(cfg.sampling_params))
    messages = render_vanilla_prompt(_main_content(ctx, paper))
    label, *answer = _ask(ctx, run, messages, paper_dir, paper.intro_reference_numbers)
    _write_refs_file(paper_dir, label, *answer)
    return label.split(":")[0]


def stage_generate(ctx: PipelineContext) -> dict:
    outcomes = Counter(_each_run_and_paper(ctx, _generate_one, creates=VANILLA))
    return {"runs": ctx.config.vanilla_runs, "ok": 0, "refusal": 0, "parse-failure": 0, **outcomes}


def _verify_refs(
    ctx: PipelineContext, refs: list[GeneratedReference]
) -> dict[int, MatchVerdict]:
    verdicts: dict[int, MatchVerdict] = {}
    for ref in refs:
        candidates = []  # a blank title is searched for nothing, so it never exists
        if ref.title.strip():
            candidates = search_candidates(
                ctx.scholar, ref.title, ref.authors, et_al=ref.et_al, limit=ctx.config.search_limit
            )
        verdict = decide_existence(candidates, ctx.config.thresholds)
        if verdict.exists:
            # matched records feed characteristics and the citation graphs
            enrich_reference(verdict.matched_index_id, ctx.scholar)
        verdicts[ref.citation_number] = verdict
    return verdicts


def _write_verdicts(
    ctx: PipelineContext,
    strategy: str,
    run_index: int,
    paper: PaperRecord,
    refs_by_slot: dict[int, GeneratedReference],
    verdicts: dict[int, MatchVerdict],
) -> None:
    """One JSON line per slot: its verdict and the generated title."""
    lines = []
    for number in sorted(verdicts):
        ref = refs_by_slot.get(number)
        row = {
            "citation_number": number,
            "generated_title": ref.title if ref else "",
            **to_json(verdicts[number]),
        }
        lines.append(json.dumps(row, sort_keys=True, ensure_ascii=False))
    path = ctx.verdicts_path(strategy, run_index, paper)
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def load_verdicts(
    ctx: PipelineContext, strategy: str, run_index: int, paper: PaperRecord
) -> dict[int, MatchVerdict]:
    text = read_artifact(ctx, ctx.verdicts_path(strategy, run_index, paper))
    rows = [json.loads(line) for line in text.splitlines()]
    return {row["citation_number"]: from_json(MatchVerdict, row) for row in rows}


def _verify_one(
    ctx: PipelineContext, paper: PaperRecord, run_index: int
) -> dict[int, MatchVerdict]:
    _, refs = load_refs(ctx, VANILLA, run_index, paper)
    verdicts = _verify_refs(ctx, list(refs.values()))
    _write_verdicts(ctx, VANILLA, run_index, paper, refs, verdicts)
    return verdicts


def stage_verify(ctx: PipelineContext) -> dict:
    verdicts = [
        verdict
        for by_slot in _each_run_and_paper(ctx, _verify_one)
        for verdict in by_slot.values()
    ]
    return {"checked": len(verdicts), "existing": sum(v.exists for v in verdicts)}


# the iterative anomaly when the pass gave no usable answer
PARENT_KEPT = {
    "refusal": "iterative refusal; parent kept",
    "parse-failure": "iterative parse failed; parent kept",
}


def _iterate_one(ctx: PipelineContext, paper: PaperRecord, run_index: int) -> str:
    """Ask again for the parent vanilla run's non-existent slots and merge
    the answer in. Without a usable answer the parent's references and
    verdicts stay. Returns the stage outcome."""
    cfg = ctx.config
    iter_dir = ctx.paper_run_dir(ITERATIVE, run_index, paper)
    parent_outcome, refs = load_refs(ctx, VANILLA, run_index, paper)
    verdicts = load_verdicts(ctx, VANILLA, run_index, paper)
    intro_numbers = paper.intro_reference_numbers
    existing_slots = {n for n, v in verdicts.items() if v.exists}
    nonexistent = intro_numbers - existing_slots
    quarantined: list[dict] = []

    if not nonexistent:
        outcome, label = "skipped", "no-iteration-needed"
        anomalies = ["all slots verified existing"]
    elif parent_outcome != "ok" and not refs:
        # vanilla never produced a usable response; nothing to build on
        outcome, label, anomalies = "parent-failed", f"parent-{parent_outcome}", []
    else:
        vanilla_dir = ctx.paper_run_dir(VANILLA, run_index, paper)
        transcript = json.loads(read_artifact(ctx, os.path.join(vanilla_dir, "transcript.json")))
        parent_run = GenerationRun(
            cfg.model_id, VANILLA, run_index, dict(cfg.sampling_params),
            transcript=[tuple(item) for item in transcript],
        )
        messages = render_iterative_prompt(parent_run, nonexistent, _main_content(ctx, paper))
        it_run = GenerationRun(
            cfg.model_id, ITERATIVE, run_index, dict(cfg.sampling_params), parent=parent_run
        )
        label, iter_by_slot, quarantined, anomalies = _ask(
            ctx, it_run, messages, iter_dir, intro_numbers
        )
        outcome = label.split(":")[0]
        if outcome != "ok":
            anomalies = [PARENT_KEPT[outcome]]
        else:
            merge = merge_iterative(refs, existing_slots, iter_by_slot, nonexistent)
            replaced = sorted(n for n, ref in merge.merged.items() if iter_by_slot.get(n) is ref)
            verdicts = {**verdicts, **_verify_refs(ctx, [merge.merged[n] for n in replaced])}
            refs = merge.merged
            anomalies += [f"gap: iterative response missing requested slot {n}" for n in merge.gaps]
            anomalies += [f"ignored iterative row for slot {n}" for n in merge.ignored]

    _write_refs_file(iter_dir, label, refs, quarantined, anomalies)
    _write_verdicts(ctx, ITERATIVE, run_index, paper, refs, verdicts)
    return outcome


def stage_iterate(ctx: PipelineContext) -> dict:
    if not ctx.config.iterative:
        return {"enabled": False}
    return {"enabled": True, **Counter(_each_run_and_paper(ctx, _iterate_one, creates=ITERATIVE))}
