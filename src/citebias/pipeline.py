"""Pipeline orchestration: configuration, stages, manifests, reports.

Stages run in the fixed dependency order of ``STAGE_TABLE``, from ingest
to report, which declares each stage once. Each stage reads only files
written by earlier stages (or the disk cache), writes its outputs under
its own subdirectory of the output directory, and records a completion
marker holding the manifest hash; re-runs with the same hash skip
completed stages. The hash covers the run identity (effective config,
template hashes, input digest), which ``manifest.json`` records in full.
Every emitted file carries the manifest hash, which is computed from
deterministic inputs only, so a run against the replay provider is
bit-for-bit reproducible. Set SOURCE_DATE_EPOCH to pin the manifest
timestamp as well.

Per-paper failures (refusals, unparseable responses) are quarantined and
counted; only infrastructure errors abort a run.
"""

from __future__ import annotations

import dataclasses
import fcntl
import functools
import hashlib
import json
import logging
import os
import re
import shutil
import time
import typing
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

import yaml
from importlib import resources

from . import citegraph, docprep, llmgate, matcher, stats
from .clients import (
    CachedScholarClient,
    FixtureIndexClient,
    HttpPreprintClient,
    HttpScholarClient,
    JsonCache,
    TokenBucket,
    atomic_write_text,
    dump_json,
    from_json,
    parallel_map,
    read_tree,
    safe_filename,
    to_json,
)
from .corpus import (
    EnrichedRecord,
    PaperRecord,
    VenueTable,
    enrich_reference,
    filter_candidates,
    harvest_candidates,
    resolve_paper,
)
from .errors import (
    EXCL_AMBIGUOUS,
    AmbiguousMatchError,
    ConfigError,
    Exclusion,
    PipelineError,
    ProviderRefusal,
    TableParseError,
)
from .llmgate import (
    ITERATIVE,
    VANILLA,
    DirectoryMockProvider,
    GeneratedReference,
    GenerationRun,
    OpenAIChatProvider,
    generate,
    merge_iterative,
    postprocess_references,
    render_iterative_prompt,
    render_vanilla_prompt,
    template_hashes,
)
from .matcher import MatchVerdict, Thresholds, decide_existence, search_candidates, title_similarity
from .textnorm import title_key

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _key(key: str, override: bool = False, **default) -> dataclasses.Field:
    """A config field read from the dotted YAML key path ``key``; without a
    ``default`` or ``default_factory`` the schema requires the key."""
    metadata = {"keys": tuple(key.split(".")), "override": override}
    return dataclasses.field(metadata=metadata, **default)


@dataclass(kw_only=True)
class PipelineConfig:
    """Validated pipeline configuration; see data/config.schema.json. Each
    field declares its YAML key path and default, from which ``load_config``
    and ``OVERRIDABLE`` are built."""

    window: tuple[str, str] = _key("corpus.window")
    category: str = _key("corpus.category")
    venue_keywords: list[str] = _key("corpus.venue_keywords")
    blacklist: list[str] = _key("corpus.blacklist", default_factory=list)
    resolve_fuzzy_threshold: float | None = _key("corpus.resolve_fuzzy_threshold", default=None)
    sources_dir: Path = _key("corpus.sources_dir")
    venue_aliases_path: Path | None = _key("corpus.venue_aliases_path", default=None)
    fixture_dir: Path | None = _key("index.fixture_dir", default=None)
    preprint_url: str | None = _key("index.preprint_url", default=None)
    scholar_url: str | None = _key("index.scholar_url", default=None)
    scholar_api_key_env: str = _key("index.scholar_api_key_env", default="")
    rate_limit_per_sec: float = _key("index.rate_limit_per_sec", default=3.0)
    max_in_flight: int = _key("index.max_in_flight", default=1)
    model_id: str = _key("provider.model_id", override=True)
    provider_kind: str = _key("provider.kind")
    provider_base_url: str | None = _key("provider.base_url", default=None)
    provider_api_key_env: str = _key("provider.api_key_env", default="OPENAI_API_KEY")
    sampling_params: dict = _key("provider.sampling_params", default_factory=dict)
    provider_rate_limit: float = _key("provider.rate_limit_per_sec", default=1.0)
    vanilla_runs: int = _key("runs.vanilla", default=1, override=True)
    iterative: bool = _key("runs.iterative", default=False)
    thresholds: Thresholds = _key("matching.thresholds", default_factory=matcher.default_thresholds)
    search_limit: int = _key("matching.search_limit", default=3)
    subperiod_bins: list[tuple[str, int | None, int | None]] | None = _key(
        "analysis.subperiod_bins", default=None
    )
    graph_strategy: str = _key("graph.strategy", default=VANILLA)
    graph_run_index: int = _key("graph.run_index", default=1)
    cache_dir: Path = _key("cache_dir", default=Path("cache"), override=True)
    out_dir: Path = _key("out_dir", default=Path("out"), override=True)
    mock_dir: Path | None = _key("mock_dir", default=None, override=True)
    refresh: bool = _key("refresh", default=False, override=True)


# Where inputs live and how the run treats its cache: the contents of the
# input locations are covered by inputs_digest, and the rest do not change
# outputs, so none of these is part of the run identity.
LOCATION_FIELDS = (
    "sources_dir", "venue_aliases_path", "fixture_dir", "mock_dir",
    "cache_dir", "out_dir", "refresh",
)


def config_schema() -> dict:
    text = resources.files("citebias.data").joinpath("config.schema.json").read_text("utf-8")
    return json.loads(text)


@functools.cache
def _config_validator():
    """A ``jsonschema`` validator of the bundled schema, checked against its
    metaschema once per process. Only a config the built-in check does not
    admit reaches it, so a valid config never imports ``jsonschema``."""
    import jsonschema

    schema = config_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


# The built-in check answers "valid" only where jsonschema finds no error:
# it follows draft 2020-12 for the keywords below, and leaves every config
# to jsonschema if the schema uses another.
_DRAFT_2020_12 = "https://json-schema.org/draft/2020-12/schema"
_CHECKED_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items", "prefixItems",
    "minItems", "maxItems", "minLength", "pattern", "enum", "minimum", "maximum",
    "exclusiveMinimum", "oneOf",
})
# a bool is neither an integer nor a number; an integral float is an integer
_JSON_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()
    ),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}


def _types(schema: dict) -> list:
    types = schema.get("type", [])
    return types if isinstance(types, list) else [types]


def _type_disjoint(branches: list) -> bool:
    """Whether no value can have the types of two branches, so that a
    stricter check of each branch still counts at most jsonschema's one."""
    seen = set()
    for branch in branches:
        kinds = set(_types(branch))
        if "number" in kinds:
            kinds.add("integer")
        if "type" not in branch or kinds & seen:
            return False
        seen |= kinds
    return True


def _checkable(schema) -> bool:
    """Whether ``_admits`` implements every keyword of ``schema``."""
    if not isinstance(schema, dict):
        return False
    subschemas = [
        *schema.get("properties", {}).values(), *schema.get("prefixItems", []),
        *schema.get("oneOf", []), *([schema["items"]] if "items" in schema else []),
    ]
    return (
        set(schema) - {"title", "$schema"} <= _CHECKED_KEYWORDS
        and schema.get("$schema", _DRAFT_2020_12) == _DRAFT_2020_12
        and all(name in _JSON_TYPES for name in _types(schema))
        and schema.get("additionalProperties", False) is False
        and all(isinstance(each, str) for each in schema.get("enum", []))
        and all(_checkable(sub) for sub in subschemas)
        and ("oneOf" not in schema or _type_disjoint(schema["oneOf"]))
    )


def _admits(schema: dict, value) -> bool:
    """Whether ``value`` meets ``schema``, one of the schemas ``_checkable``
    accepts; a value of a type JSON lacks is never admitted."""
    if "type" in schema and not any(_JSON_TYPES[name](value) for name in _types(schema)):
        return False
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        if any(key not in value for key in schema.get("required", [])):
            return False
        if "additionalProperties" in schema and any(key not in properties for key in value):
            return False
        if not all(_admits(sub, value[key]) for key, sub in properties.items() if key in value):
            return False
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0) or len(value) > schema.get("maxItems", len(value)):
            return False
        prefix, rest = schema.get("prefixItems", []), schema.get("items")
        for index, item in enumerate(value):
            sub = prefix[index] if index < len(prefix) else rest
            if sub is not None and not _admits(sub, item):
                return False
    elif isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            return False
        if "pattern" in schema and not re.search(schema["pattern"], value):
            return False
    elif _JSON_TYPES["number"](value):
        if value < schema.get("minimum", value) or value > schema.get("maximum", value):
            return False
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return False
    elif not isinstance(value, bool) and value is not None:
        return False
    if "enum" in schema and not (isinstance(value, str) and value in schema["enum"]):
        return False
    return "oneOf" not in schema or sum(_admits(sub, value) for sub in schema["oneOf"]) == 1


@functools.cache
def _checked_schema() -> dict | None:
    """The bundled schema, parsed once per process, if ``_admits`` covers it."""
    schema = config_schema()
    return schema if _checkable(schema) else None


def _schema_admits(raw) -> bool:
    """Whether the built-in check admits ``raw``; False leaves the verdict
    to jsonschema."""
    schema = _checked_schema()
    return schema is not None and _admits(schema, raw)


def _field_table():
    """(name, key path, default or None, kind) of each field in declaration
    order; the kind is Path, int or dict where load_config converts or checks."""
    hints = typing.get_type_hints(PipelineConfig)
    for f in dataclasses.fields(PipelineConfig):
        types = (hints[f.name], *typing.get_args(hints[f.name]))
        kind = next((tp for tp in (Path, int, dict) if tp in types), None)
        default = None if f.default is dataclasses.MISSING else f.default
        yield f.name, f.metadata["keys"], default, kind


_CONFIG_FIELDS = tuple(_field_table())

# each load_config override and the config key path it sets
OVERRIDABLE = {
    f.name: f.metadata["keys"] for f in dataclasses.fields(PipelineConfig) if f.metadata["override"]
}


def _is_json(value) -> bool:
    """Whether ``value`` survives a strict JSON round trip unchanged."""
    try:
        return json.loads(json.dumps(value, allow_nan=False)) == value
    except (TypeError, ValueError):  # a type JSON lacks, NaN, infinity or a cycle
        return False


# libyaml's parser where PyYAML was built with it; the same safe schema
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: Path | str, overrides: dict | None = None) -> PipelineConfig:
    """Load, validate, and normalize a YAML config file, read with
    libyaml's safe loader when PyYAML has it.

    Each override, named as in ``OVERRIDABLE``, replaces the value at its
    key path before the schema check, so an override is validated like the
    file. The built-in check admits a valid config without importing
    ``jsonschema``; any other config goes to ``jsonschema``, which raises
    its best match as a ``ConfigError`` or, if it finds no error, lets the
    config load. Each ``PipelineConfig`` field then reads its key path,
    and an absent or null key or an empty list takes the field's default.
    Paths, overridden, defaulted or not, resolve against the config file's
    directory.
    """
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    for name, value in (overrides or {}).items():
        *sections, key = OVERRIDABLE[name]
        node = raw
        for section in sections:
            node = node.setdefault(section, {})
        if isinstance(node, dict):  # otherwise the schema check names the section
            node[key] = str(value) if isinstance(value, Path) else value
    if not _schema_admits(raw):
        import jsonschema

        # the error jsonschema.validate would raise
        exc = jsonschema.exceptions.best_match(_config_validator().iter_errors(raw))
        if exc is not None:
            raise ConfigError(f"invalid config: {exc.message} (at {'/'.join(map(str, exc.path))})") from exc

    data = {}
    for name, keys, default, kind in _CONFIG_FIELDS:
        node = raw
        for section in keys[:-1]:
            node = node.get(section, {})
        value = node.get(keys[-1])
        if value is None or value == []:
            if default is None:
                continue  # the dataclass fills in its default
            value = default
        if kind is Path:
            value = path.parent / value  # an absolute value replaces the directory
        elif kind is int:
            value = int(value)
        elif kind is dict and not _is_json(value):
            raise ConfigError(f"invalid config: {'.'.join(keys)} may hold only JSON values")
        data[name] = value
    if "thresholds" in data:
        data["thresholds"] = {**data["thresholds"], "provenance": f"config:{path.name}"}
    cfg = from_json(PipelineConfig, data)
    if cfg.fixture_dir is None and (cfg.preprint_url is None or cfg.scholar_url is None):
        raise ConfigError("index needs either fixture_dir or both service URLs")
    if cfg.provider_kind == "mock" and cfg.mock_dir is None:
        raise ConfigError("mock provider needs mock_dir (or --mock)")
    if cfg.graph_run_index > cfg.vanilla_runs:
        raise ConfigError(f"graph.run_index {cfg.graph_run_index} > runs.vanilla {cfg.vanilla_runs}")
    if cfg.graph_strategy == ITERATIVE and not cfg.iterative:
        raise ConfigError("graph.strategy iterative needs runs.iterative: true")
    return cfg


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------


class PipelineContext:
    """Index clients and shared state for one run."""

    def __init__(
        self,
        config: PipelineConfig,
        manifest_hash: str,
        fixture_files: list[tuple[str, bytes]] | None = None,
    ):
        self.config = config
        self.manifest_hash = manifest_hash
        if config.venue_aliases_path:
            self.venue_table = VenueTable.from_file(config.venue_aliases_path)
        else:
            self.venue_table = VenueTable.default()
        if config.fixture_dir:
            self.preprint = scholar = FixtureIndexClient(config.fixture_dir, fixture_files)
        else:
            limiter = TokenBucket(config.rate_limit_per_sec)
            self.preprint = HttpPreprintClient(config.preprint_url, limiter=limiter)
            scholar = HttpScholarClient(
                config.scholar_url, limiter=limiter, api_key_env=config.scholar_api_key_env
            )
        # every scholar read, search or paper, goes through the disk cache
        self.scholar = CachedScholarClient(
            scholar, JsonCache(config.cache_dir, "scholar", refresh=config.refresh)
        )
        if config.provider_kind == "mock":
            self.provider = DirectoryMockProvider(config.mock_dir)
        else:
            self.provider = OpenAIChatProvider(
                config.provider_base_url or "https://api.openai.com/v1",
                config.model_id,
                api_key_env=config.provider_api_key_env,
                limiter=TokenBucket(config.provider_rate_limit),
            )

    def provider_for(self, strategy: str, run_index: int):
        """Provider bound to one run; replay stores may carry per-run draws."""
        if self.config.provider_kind == "mock":
            return DirectoryMockProvider(self.config.mock_dir, f"{strategy}-{run_index}")
        return self.provider

    # -- paths ----------------------------------------------------------

    @property
    def out(self) -> Path:
        return self.config.out_dir

    def stage_dir(self, stage: str) -> Path:
        return self.out / stage

    def fresh_stage_dir(self, stage: str) -> Path:
        """``stage_dir(stage)`` emptied, for the one stage that writes it,
        so a rerun keeps nothing an earlier run wrote there."""
        path = self.stage_dir(stage)
        if path.exists():
            shutil.rmtree(path)
        return path

    def paper_dirname(self, paper: PaperRecord) -> str:
        return safe_filename(paper.preprint_id)

    def prepared_dir(self, paper: PaperRecord) -> Path:
        return self.stage_dir("prepared") / self.paper_dirname(paper)

    def run_dir(self, strategy: str, run_index: int) -> Path:
        return self.out / "runs" / safe_filename(self.config.model_id) / f"{strategy}-{run_index}"

    def paper_run_dir(self, strategy: str, run_index: int, paper: PaperRecord) -> Path:
        return self.run_dir(strategy, run_index) / self.paper_dirname(paper)

    def verdicts_path(self, strategy: str, run_index: int, paper: PaperRecord) -> Path:
        run = f"{strategy}-{run_index}"
        name = f"{self.paper_dirname(paper)}.jsonl"
        return self.out / "verdicts" / safe_filename(self.config.model_id) / run / name


# ---------------------------------------------------------------------------
# Hashing and manifests
# ---------------------------------------------------------------------------


def inputs_digest(
    config: PipelineConfig, fixture_files: list[tuple[str, bytes]] | None = None
) -> str:
    """Digest of every input tree and file a run depends on, file by file
    in ``read_tree`` order and keyed by POSIX relative path.

    ``fixture_files`` is ``read_tree(config.fixture_dir)`` for a caller
    that has read it already.
    """
    digest = hashlib.sha256()
    roots = (config.sources_dir, config.fixture_dir, config.mock_dir, config.venue_aliases_path)
    for root in roots:
        if root is None:
            continue
        if root == config.fixture_dir and fixture_files is not None:
            files = fixture_files
        else:
            files = read_tree(root)
        for rel, data in files:
            digest.update(rel.encode("utf-8"))
            digest.update(b"\0")
            digest.update(data)
            digest.update(b"\1")
    return digest.hexdigest()


def run_identity(config: PipelineConfig, inputs: str) -> dict:
    """Everything a run's outputs depend on: the effective config without
    its ``LOCATION_FIELDS``, the template hashes and ``inputs`` (an
    ``inputs_digest``). ``manifest.json`` records it in full."""
    effective = to_json(config)
    for name in LOCATION_FIELDS:
        del effective[name]
    return {"config": effective, "template_hashes": template_hashes(), "inputs_digest": inputs}


def manifest_hash(identity: dict) -> str:
    """Digest of a ``run_identity``."""
    return hashlib.sha256(dump_json(identity).encode("utf-8")).hexdigest()


def _now_iso() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(int(epoch) if epoch else None))
    except (ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"SOURCE_DATE_EPOCH={epoch!r} is not a Unix time: {exc}") from None


@contextmanager
def output_lock(out_dir: Path):
    """Single-owner lock on the output directory: ``flock`` on its
    ``.lock`` file, which a second lock fails to take, even in the same
    process. The kernel drops the lock when its holder's process ends.
    The file stays (a waiter could otherwise lock an unlinked inode while
    a new run locks a new file) and is opened for writing, which the
    POSIX locks that emulate ``flock`` over NFS need."""
    out_dir.mkdir(parents=True, exist_ok=True)
    fd = os.open(out_dir / ".lock", os.O_RDWR | os.O_CREAT, 0o666)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise PipelineError(f"output directory {out_dir} is locked by another run") from None
        yield
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Stage: ingest
# ---------------------------------------------------------------------------


def stage_ingest(ctx: PipelineContext) -> dict:
    """Harvest, filter, resolve, and enrich the corpus."""
    cfg = ctx.config
    stubs = harvest_candidates(ctx.preprint, cfg.window, cfg.category, cfg.venue_keywords)
    kept = filter_candidates(stubs, cfg.blacklist)
    papers: list[PaperRecord] = []
    exclusions: list[dict] = []
    seen_index_ids: dict[str, str] = {}
    for stub in kept:
        try:
            resolved = resolve_paper(
                stub,
                ctx.scholar,
                ctx.venue_table,
                fuzzy_threshold=cfg.resolve_fuzzy_threshold,
            )
        except AmbiguousMatchError as exc:
            resolved = Exclusion(EXCL_AMBIGUOUS, str(exc))
        if isinstance(resolved, Exclusion):
            exclusions.append(
                {"preprint_id": stub.preprint_id, "code": resolved.code, "detail": resolved.detail}
            )
        elif resolved.index_id in seen_index_ids:
            exclusions.append(
                {
                    "preprint_id": stub.preprint_id,
                    "code": "duplicate-resolution",
                    "detail": f"{resolved.index_id} already claimed by "
                    f"{seen_index_ids[resolved.index_id]}",
                }
            )
        else:
            seen_index_ids[resolved.index_id] = stub.preprint_id
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
    atomic_write_text(out / "papers.json", dump_json(to_json(papers)))
    atomic_write_text(out / "exclusions.json", dump_json(exclusions))
    by_code = Counter(item["code"] for item in exclusions)
    return {
        "harvested": len(stubs),
        "after_blacklist": len(kept),
        "resolved": len(papers),
        "excluded": len(exclusions),
        "excluded_by_code": by_code,
        "references_enriched": enriched_ok,
        "references_not_found": enrich_missing,
    }


def _read_artifact(ctx: PipelineContext, path: Path, stage: str) -> str:
    """Text of an artifact under ``out/``; a missing file is a PipelineError
    that names ``stage``, the stage that writes it."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        name = path.relative_to(ctx.out).as_posix()
        raise PipelineError(f"{name} missing: run the {stage} stage first") from None


def load_papers(ctx: PipelineContext, prepared: bool = False) -> list[PaperRecord]:
    """Papers as ingested, or (with ``prepared``) the survivors of
    document preparation with their intro numbers filled in."""
    path = ctx.stage_dir("prepared" if prepared else "corpus") / "papers.json"
    text = _read_artifact(ctx, path, "prepare" if prepared else "ingest")
    return from_json(list[PaperRecord], json.loads(text))


# ---------------------------------------------------------------------------
# Stage: prepare
# ---------------------------------------------------------------------------


def _enriched_for(ctx: PipelineContext, ids: list[str]) -> dict[str, EnrichedRecord]:
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
    out = ctx.fresh_stage_dir("prepared")
    excluded: list[dict] = []
    survivors: list[PaperRecord] = []
    quarantined: list[dict] = []

    for paper in papers:
        source_dir = cfg.sources_dir / paper.preprint_id
        prep = docprep.prepare_source(source_dir)
        if isinstance(prep, Exclusion):
            excluded.append(
                {"preprint_id": paper.preprint_id, "code": prep.code, "detail": prep.detail}
            )
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
        atomic_write_text(paper_dir / "main_content.txt", prep.main_content.text + "\n")
        ref_lines = [f"[{num}] {raw}" for num, raw in intro_refs]
        atomic_write_text(
            paper_dir / "intro_references.txt", "\n".join(ref_lines) + ("\n" if ref_lines else "")
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
                quarantined.append({"preprint_id": paper.preprint_id, "reason": str(exc)})
                table = None
            atomic_write_text(
                paper_dir / "gt_postprocess_transcript.json",
                dump_json(to_json(post_run.transcript)),
            )
            if table is not None:
                enriched = _enriched_for(ctx, paper.reference_ids)
                keys = {rid: title_key(rec.title) for rid, rec in enriched.items()}
                raw_by_num = dict(intro_refs)
                for ref in table.references:
                    num = ref.citation_number
                    if num not in raw_by_num or num in gt_rows:
                        continue
                    index_id, resolution = _resolve_gt_title(
                        ref.title, enriched, keys, cfg.thresholds.title_threshold
                    )
                    row = {
                        "citation_number": num,
                        "raw_text": raw_by_num[num],
                        "title": ref.title,
                        "authors": ref.authors,
                        "author_count": ref.author_count,
                        "year": ref.year,
                        "venue": to_json(ref.venue),
                        "index_id": index_id,
                        "resolution": resolution,
                    }
                    if index_id is not None:
                        rec = enriched[index_id]
                        row["citation_count"] = rec.citation_count
                        row["influential_citation_count"] = rec.influential_citation_count
                        row["reference_count"] = rec.reference_count
                    gt_rows[num] = row
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
        atomic_write_text(paper_dir / "record.json", dump_json(record))
        survivors.append(paper)

    atomic_write_text(out / "papers.json", dump_json(to_json(survivors)))
    atomic_write_text(out / "exclusions.json", dump_json(excluded))
    by_code = Counter(item["code"] for item in excluded)
    return {
        "prepared": len(survivors),
        "excluded": len(excluded),
        "excluded_by_code": by_code,
        "gt_postprocess_failures": len(quarantined),
    }


def _load_record(ctx: PipelineContext, paper: PaperRecord) -> dict:
    return json.loads(_read_artifact(ctx, ctx.prepared_dir(paper) / "record.json", "prepare"))


def _main_content(ctx: PipelineContext, paper: PaperRecord) -> str:
    return _read_artifact(ctx, ctx.prepared_dir(paper) / "main_content.txt", "prepare")


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
    atomic_write_text(ctx.run_dir(strategy, run_index) / "run_manifest.json", dump_json(payload))


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
    paper_dir: Path,
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
        response = generate(run, messages, provider, paper_dir / "response_raw.txt")
    except ProviderRefusal:
        response = None
    atomic_write_text(paper_dir / "transcript.json", dump_json(to_json(run.transcript)))
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
    paper_dir: Path,
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
    atomic_write_text(paper_dir / "refs.json", dump_json(payload))


def _load_refs(
    ctx: PipelineContext, strategy: str, run_index: int, paper: PaperRecord
) -> tuple[str, dict[int, GeneratedReference]]:
    """The outcome and the references by slot of one paper's refs.json."""
    path = ctx.paper_run_dir(strategy, run_index, paper) / "refs.json"
    text = _read_artifact(ctx, path, "generate" if strategy == VANILLA else "iterate")
    payload = json.loads(text)
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


def _load_verdicts(
    ctx: PipelineContext, strategy: str, run_index: int, paper: PaperRecord
) -> dict[int, MatchVerdict]:
    path = ctx.verdicts_path(strategy, run_index, paper)
    text = _read_artifact(ctx, path, "verify" if strategy == VANILLA else "iterate")
    rows = [json.loads(line) for line in text.splitlines()]
    return {row["citation_number"]: from_json(MatchVerdict, row) for row in rows}


def _verify_one(
    ctx: PipelineContext, paper: PaperRecord, run_index: int
) -> dict[int, MatchVerdict]:
    _, refs = _load_refs(ctx, VANILLA, run_index, paper)
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
    parent_outcome, refs = _load_refs(ctx, VANILLA, run_index, paper)
    verdicts = _load_verdicts(ctx, VANILLA, run_index, paper)
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
        transcript = json.loads(_read_artifact(ctx, vanilla_dir / "transcript.json", "generate"))
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


# ---------------------------------------------------------------------------
# Stage: analyze
# ---------------------------------------------------------------------------


def _gt_row(gt: dict) -> stats.CharacteristicsRow:
    return stats.CharacteristicsRow(
        title_chars=len(gt["title"]),
        year=gt["year"],
        author_count=gt["author_count"],
        venue=gt["venue"]["canonical"],
        citation_count=gt.get("citation_count"),
        influential_citation_count=gt.get("influential_citation_count"),
        reference_count=gt.get("reference_count"),
    )


def _generated_row(
    ctx: PipelineContext, ref: GeneratedReference, verdict: MatchVerdict
) -> stats.CharacteristicsRow:
    """A generated reference's row; its counts come from the matched record."""
    row = stats.CharacteristicsRow(
        title_chars=len(ref.title),
        year=ref.year,
        author_count=ref.author_count,
        venue=ref.venue.canonical,
    )
    rec = enrich_reference(verdict.matched_index_id, ctx.scholar) if verdict.exists else None
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
        record = _load_record(ctx, paper)
        gt_by_num = {row["citation_number"]: row for row in record["gt_refs"]}
        intro_ids = {num: row["index_id"] for num, row in gt_by_num.items()}
        unique = set(record["unique_numbers"])
        _, refs = _load_refs(ctx, strategy, run_index, paper)
        verdicts = _load_verdicts(ctx, strategy, run_index, paper)

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
            gt_row = _gt_row(gt) if gt is not None else None
            if gt_row is not None:
                cohorts["ground_truth"].append(gt_row)
                counterpart.append((flag, gt_row))
            if ref is not None and verdict is not None:
                gen_row = _generated_row(ctx, ref, verdict)
                cohorts["generated_all"].append(gen_row)
                exists = "existing" if verdict.exists else "nonexistent"
                cohorts[f"generated_{exists}"].append(gen_row)
                if verdict.exists and gt_row is not None:
                    pairs.append(stats.PairedRefs(paper.index_id, number, gen_row, gt_row))
    return flags


def stage_analyze(ctx: PipelineContext) -> dict:
    cfg = ctx.config
    papers = load_papers(ctx, prepared=True)
    analysis_dir = ctx.fresh_stage_dir("analysis")
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
    atomic_write_text(analysis_dir / "analysis.json", dump_json(analysis))
    return {
        "runs_analyzed": len(summary_payload),
        "characteristics_rows": sum(len(rows) for rows in cohorts.values()),
        "bias_pairs": len(pairs),
    }


# ---------------------------------------------------------------------------
# Stage: graph
# ---------------------------------------------------------------------------


def stage_graph(ctx: PipelineContext) -> dict:
    cfg = ctx.config
    papers = load_papers(ctx, prepared=True)
    strategy, run_index = cfg.graph_strategy, cfg.graph_run_index
    graphs_dir = ctx.fresh_stage_dir("graphs")
    rows = []
    graphs = []
    citation_counts: dict[str, int | None] = {}
    reference_counts: dict[str, int | None] = {}

    for paper in papers:
        record = _load_record(ctx, paper)
        intro_ids = sorted(
            {row["index_id"] for row in record["gt_refs"] if row["index_id"] is not None}
        )
        verdicts = _load_verdicts(ctx, strategy, run_index, paper)
        generated_ids = sorted(
            {v.matched_index_id for v in verdicts.values() if v.exists and v.matched_index_id}
        )
        adjacency: dict[str, list[str]] = {paper.index_id: list(paper.reference_ids)}
        for node in {*intro_ids, *generated_ids}:
            rec = enrich_reference(node, ctx.scholar)
            if not isinstance(rec, Exclusion):
                adjacency[node] = list(rec.outgoing_reference_ids)
                citation_counts[node] = rec.citation_count
                reference_counts[node] = rec.reference_count

        graph = citegraph.build_graph(paper, intro_ids, generated_ids, adjacency)
        citegraph.categorize(graph, paper)
        citegraph.write_graph_files(graphs_dir / ctx.paper_dirname(paper), graph)
        rows.append(citegraph.metrics_row(graph))
        graphs.append(graph)

    mhash = ctx.manifest_hash
    citegraph.write_graph_metrics_csv(graphs_dir / "graph_metrics.csv", rows, mhash)
    profiles = citegraph.category_profiles(graphs, citation_counts, reference_counts)
    payload = {
        "manifest_hash": mhash,
        "strategy": strategy,
        "run_index": run_index,
        "profiles": to_json(profiles),
    }
    atomic_write_text(graphs_dir / "category_profiles.json", dump_json(payload))
    return {"graphs": len(rows)}


# ---------------------------------------------------------------------------
# Stage: report
# ---------------------------------------------------------------------------


def stage_report(ctx: PipelineContext) -> dict:
    analysis_path = ctx.stage_dir("analysis") / "analysis.json"
    analysis = json.loads(_read_artifact(ctx, analysis_path, "analyze"))
    report_dir = ctx.fresh_stage_dir("report")
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
    stats.write_summary_csv(report_dir / "summary.csv", summaries, mhash)
    stats.write_summary_counts_csv(report_dir / "summary_counts.csv", summaries, mhash)

    overlaps = from_json(dict[str, Fraction], analysis["overlaps"])
    run_indices = list(range(1, analysis["vanilla_runs"] + 1))
    stats.write_overlap_csv(report_dir / "overlap.csv", overlaps, run_indices, mhash)

    histograms = dict[str, dict[str, stats.Histogram]]
    for key in ("histograms", "counterpart_histograms"):
        tables = from_json(histograms, analysis[key])
        stats.write_characteristics_csvs(report_dir / "characteristics", tables, mhash)

    for name, table in sorted(from_json(dict[str, stats.BiasTable], analysis["bias"]).items()):
        stats.write_bias_csv(report_dir / "bias" / f"{name}.csv", table, mhash)

    histograms_json = {"manifest_hash": mhash, "histograms": analysis["histograms"]}
    atomic_write_text(report_dir / "histograms.json", dump_json(histograms_json))
    atomic_write_text(report_dir / "summary.txt", "\n".join(lines) + "\n")
    return {"files": sum(1 for _ in report_dir.rglob("*") if _.is_file())}


# ---------------------------------------------------------------------------
# Stage driver
# ---------------------------------------------------------------------------


class Stage(NamedTuple):
    """One pipeline stage: its name, its function and its CLI help."""

    name: str
    run: Callable[[PipelineContext], dict]
    help: str


# every stage, in dependency order; the CLI builds its subcommands from it
STAGE_TABLE = (
    Stage("ingest", stage_ingest, "harvest, filter, and resolve the corpus; enrich references"),
    Stage("prepare", stage_prepare, "clean LaTeX sources and build ground-truth intro references"),
    Stage("generate", stage_generate, "run the vanilla prompting passes"),
    Stage("verify", stage_verify, "check generated references against the scholarly index"),
    Stage("iterate", stage_iterate, "re-prompt for non-existent references and merge"),
    Stage("analyze", stage_analyze, "compute summaries, characteristics, and bias tables"),
    Stage("graph", stage_graph, "build per-paper citation graphs and metrics"),
    Stage("report", stage_report, "emit the CSV/JSON report bundle"),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)


def _marker_path(ctx: PipelineContext, stage: str) -> Path:
    return ctx.out / "stages" / f"{stage}.json"


def run_pipeline(config: PipelineConfig, stages: list[str] | None = None) -> dict:
    """Run the requested stages in dependency order and write the manifest.

    Returns the manifest dict. Raises PipelineError on hard failure
    (after writing a manifest that records the failure point).
    """
    requested = stages or STAGES
    for name in requested:
        if name not in STAGES:
            raise ConfigError(f"unknown stage {name!r}")
    created_at = _now_iso()  # a malformed SOURCE_DATE_EPOCH fails before any work

    # one read of the fixture index serves the run identity and the index
    # client, which owns the bytes from here and drops them once parsed
    fixture_files = read_tree(config.fixture_dir) if config.fixture_dir else None
    identity = run_identity(config, inputs_digest(config, fixture_files))
    core = manifest_hash(identity)
    ctx = PipelineContext(config, core, fixture_files)
    del fixture_files
    manifest: dict = {
        **identity,
        "manifest_hash": core,
        "created_at": created_at,
        "model_id": config.model_id,
        "stages": {},
        "failure": None,
    }

    with output_lock(config.out_dir):
        try:
            for stage, run, _ in STAGE_TABLE:
                if stage not in requested:
                    continue
                marker = _marker_path(ctx, stage)
                if marker.is_file() and not config.refresh:
                    try:
                        existing = json.loads(marker.read_text(encoding="utf-8"))
                    except ValueError:
                        existing = None
                    if existing and existing.get("manifest_hash") == core:
                        manifest["stages"][stage] = {
                            "status": "skipped",
                            "outcomes": existing.get("outcomes", {}),
                        }
                        continue
                logger.info("running stage %s", stage)
                marker.unlink(missing_ok=True)  # a stage stopped midway is not done
                outcomes = run(ctx)
                atomic_write_text(
                    marker, dump_json({"manifest_hash": core, "outcomes": outcomes})
                )
                manifest["stages"][stage] = {"status": "ok", "outcomes": outcomes}
        except Exception as exc:
            manifest["failure"] = {"stage": stage, "error": f"{type(exc).__name__}: {exc}"}
            atomic_write_text(config.out_dir / "manifest.json", dump_json(manifest))
            raise
        atomic_write_text(config.out_dir / "manifest.json", dump_json(manifest))
    return manifest
