"""Orchestrator integration: stages, artifacts, reports, and resumability."""

import contextlib
import copy
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from datetime import date
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citebias import cli, errors, pipeline
from citebias import config as config_mod
from citebias.clients import (
    CachedScholarClient, FixtureIndexClient, JsonCache, dump_json, safe_filename,
)
from citebias.config import OVERRIDABLE, PipelineConfig, load_config
from citebias.corpus import enrich_reference
from citebias.errors import ConfigError, PipelineError
from citebias.llmgate import render_vanilla_prompt, store_mock_response
from citebias.pipeline import (
    STAGE_TABLE,
    STAGES,
    inputs_digest,
    manifest_hash,
    output_lock,
    run_identity,
    run_pipeline,
)
from fixtures_pipeline import MODEL_ID, store_plan, workspace_config


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest_hash=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_validation_rejects_bad_shapes(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"corpus": {"window": ["nope"]}}))
    with pytest.raises(ConfigError):
        load_config(path)


# the config schema, kept beside the tests as the reference oracle of the
# config check that PipelineConfig's field declarations make
_CONFIG_SCHEMA = json.loads((Path(__file__).parent / "config.schema.json").read_text("utf-8"))


def test_bundled_config_schema_passes_its_metaschema():
    jsonschema.validators.validator_for(_CONFIG_SCHEMA).check_schema(_CONFIG_SCHEMA)


def test_config_loader_is_libyaml_where_pyyaml_has_it():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert config_mod._YAML_LOADER is expected


def test_config_loader_reads_the_workspace_config_as_the_pure_python_loader(workspace):
    _, config_path = workspace
    text = config_path.read_text(encoding="utf-8")
    assert yaml.load(text, Loader=config_mod._YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


_yaml_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.sampled_from(["yes", "no", "on", "null", "~", "1e3", "0x1f", "2022-03-01", "a: b", "#x"])
)
_yaml_keys = st.text(max_size=8) | st.sampled_from(["corpus", "window", "runs", "vanilla"])
_config_shaped = st.dictionaries(
    _yaml_keys,
    st.recursive(
        _yaml_scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_yaml_keys, inner, max_size=4),
        max_leaves=12,
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(_config_shaped, st.booleans(), st.sampled_from([None, False, True]))
def test_config_loader_reads_dumped_configs_as_the_pure_python_loader(raw, unicode, flow):
    text = yaml.safe_dump(raw, allow_unicode=unicode, default_flow_style=flow)
    assert yaml.load(text, Loader=config_mod._YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


def _schema_keys(schema):
    """Every property name the schema declares, at any depth."""
    if isinstance(schema, dict):
        yield from schema.get("properties", {})
        for value in schema.values():
            yield from _schema_keys(value)
    elif isinstance(schema, list):
        for value in schema:
            yield from _schema_keys(value)


_SCHEMA_KEYS = sorted(set(_schema_keys(_CONFIG_SCHEMA)))
_THRESHOLDS = {"title_threshold": 0.5, "author_threshold": 0.9}
_config_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 12)
    | st.floats(-0.5, 1.5)
    | st.text(max_size=4)
    | st.sampled_from([
        0.0, 1.0, 2.0, 1e300, float("nan"), float("inf"), -float("inf"), "", "mock", "openai",
        "vanilla", "iterative", "2022-03-01", "2022-3-1", date(2022, 3, 1),
        ["2023-10-31", "2022-03-01"],
        _THRESHOLDS, {"thresholds": _THRESHOLDS}, {"thresholds": None, "search_limit": 2},
        ["early", None, 2022], {"subperiod_bins": [["early", None, 2022], ["late", 2023.0, None]]},
    ]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(_SCHEMA_KEYS) | st.text(max_size=4), inner, max_size=3
    ),
    max_leaves=6,
)


def _full_config():
    """The tier-1 config with every optional key set, each section's
    ``oneOf`` on its object branch."""
    raw = workspace_config()
    raw["corpus"].update(resolve_fuzzy_threshold=0.8, venue_aliases_path=None)
    raw["index"].update(
        preprint_url=None, scholar_url=None, scholar_api_key_env="KEY", rate_limit_per_sec=3.0,
        max_in_flight=2,
    )
    raw["provider"].update(
        base_url=None, api_key_env="KEY", sampling_params={"temperature": 0.7}, rate_limit_per_sec=1
    )
    raw["runs"]["vanilla"] = 2
    raw.update(
        matching={"thresholds": dict(_THRESHOLDS), "search_limit": 3},
        analysis={"subperiod_bins": [["early", None, 2022], ["late", 2023, None]]},
        refresh=False,
    )
    return raw


def _leaves(node):
    if isinstance(node, dict):
        node = list(node.values())
    if not isinstance(node, list):
        return [node]
    return [leaf for value in node for leaf in _leaves(value)]


_CONFIG_LEAVES = _leaves(_full_config())


@st.composite
def _mutated_configs(draw):
    """The tier-1 config, bare or with every optional key, with up to three
    values changed, keys dropped or keys added anywhere in its tree."""
    raw = draw(st.sampled_from([workspace_config, _full_config]))()
    for _ in range(draw(st.integers(0, 3))):
        containers, stack = [], [raw]
        while stack:
            node = stack.pop()
            if isinstance(node, (dict, list)):
                containers.append(node)
                stack.extend(node.values() if isinstance(node, dict) else node)
        node = draw(st.sampled_from(containers))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["change", "drop", "add"] if keys else ["add"]))
        if action == "add":
            key = (
                draw(st.sampled_from(_SCHEMA_KEYS) | st.text(max_size=4))
                if isinstance(node, dict) else len(node)
            )
            if isinstance(node, list):
                node.append(None)
        else:
            key = draw(st.sampled_from(keys))
        if action == "drop":
            del node[key]
        else:
            # drawn values share dicts; a leaf of the config often keeps it valid
            node[key] = copy.deepcopy(draw(_config_values | st.sampled_from(_CONFIG_LEAVES)))
    return raw


_DROP = object()


def _admitted(parent, key, value):
    """``value``, null, an empty list and ``value`` as an integral float,
    those the schema admits at ``key`` of ``parent``, and ``_DROP`` where
    the key is optional."""
    validator = jsonschema.Draft202012Validator(parent["properties"][key])
    candidates = [value, None, [], float(value) if type(value) is int else value]
    distinct = {repr(each): each for each in candidates}.values()
    admitted = [each for each in distinct if validator.is_valid(each)]
    return admitted + ([] if key in parent.get("required", []) else [_DROP])


def _key_variants():
    """(key path, values the schema admits there) for each key of the full
    tier-1 config."""
    raw, schema = _full_config(), _CONFIG_SCHEMA
    for name, value in raw.items():
        section = schema["properties"][name]
        if "properties" in section:
            for key, inner in value.items():
                yield (name, key), _admitted(section, key, inner)
        else:
            yield (name,), _admitted(schema, name, value)


_KEY_VARIANTS = list(_key_variants())


@st.composite
def _varied_configs(draw):
    """The full tier-1 config with each key kept, dropped, set to null,
    emptied or written as an integral float, as far as the schema admits
    each on its own."""
    raw = _full_config()
    for (*sections, key), values in _KEY_VARIANTS:
        node = raw[sections[0]] if sections else raw
        value = draw(st.sampled_from(values))
        if value is _DROP:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    return raw


def _edited(edit):
    raw = workspace_config()
    edit(raw)
    return raw


_CONFIG_ORACLE = jsonschema.validators.validator_for(_CONFIG_SCHEMA)(_CONFIG_SCHEMA)


def _without_optional_nulls(raw, schema=_CONFIG_SCHEMA):
    """``raw`` without the nulls at the schema's optional leaf keys, each of
    which load_config reads as the key's absence."""
    if not isinstance(raw, dict):
        return raw
    properties, required = schema.get("properties", {}), schema.get("required", [])
    out = {}
    for key, value in raw.items():
        sub = properties.get(key)
        if sub is not None and "properties" in sub:
            out[key] = _without_optional_nulls(value, sub)
        elif value is not None or sub is None or key in required:
            out[key] = value
    return out


def _has_nan(raw):
    return any(isinstance(leaf, float) and math.isnan(leaf) for leaf in _leaves(raw))


def _oracle_admits(raw):
    """Whether the schema admits ``raw`` with its optional nulls dropped,
    holding no NaN, a window whose first date is not after its second
    (an order the schema cannot express) and, in
    ``provider.sampling_params``, only JSON values."""
    raw = _without_optional_nulls(raw)
    if not _CONFIG_ORACLE.is_valid(raw) or _has_nan(raw):
        return False
    start, end = raw["corpus"]["window"]
    return start <= end and _plain_json(raw["provider"].get("sampling_params", {}))


def _assert_loads_as_the_oracle(tmp_path_factory, raw, overrides):
    """``raw``, written as YAML, loads or fails as ``oracle_load_config``
    has it: the same config, whole and as its run identity, or a
    ``ConfigError`` where the oracle rejects it."""
    path = tmp_path_factory.getbasetemp() / "oracle" / "config.yaml"
    path.parent.mkdir(exist_ok=True)
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    expected = _load_outcome(oracle_load_config, path, overrides)
    assert _load_outcome(load_config, path, dict(overrides)) == expected


@settings(max_examples=500, deadline=None)
@given(_mutated_configs() | _config_shaped)
@example(workspace_config())
@example(_edited(lambda raw: raw["corpus"].update(window=yaml.safe_load("[2022-03-01, 2023-10-31]"))))
@example(_edited(lambda raw: raw["corpus"].update(window=["2023-10-31", "2022-03-01"])))
@example(_edited(lambda raw: raw["corpus"].update(window=["2022-03-01", "2022-03-01"])))
@example(_edited(lambda raw: raw["runs"].update(vanilla=True)))
@example(_edited(lambda raw: raw.update(matching={"search_limit": 2.0})))
@example(_edited(lambda raw: raw.update(matching={"search_limit": 2.5})))
@example(_edited(lambda raw: raw.update(matching={"thresholds": {**_THRESHOLDS, "title_threshold": float("nan")}})))
@example(_edited(lambda raw: raw.update(matching={"thresholds": {**_THRESHOLDS, "author_threshold": float("inf")}})))
@example(_edited(lambda raw: raw.update(matching={"thresholds": None})))
@example(_edited(lambda raw: raw.update(matching={"thresholds": _THRESHOLDS})))
@example(_edited(lambda raw: raw["corpus"].update(resolve_fuzzy_threshold=None)))
@example(_edited(lambda raw: raw["corpus"].update(resolve_fuzzy_threshold=0.8)))
@example(_edited(lambda raw: raw["corpus"].update(resolve_fuzzy_threshold=True)))
@example(_edited(lambda raw: raw.update(analysis={"subperiod_bins": [["early", None, 2022]]})))
@example(_edited(lambda raw: raw.update(analysis={"subperiod_bins": [["early", None]]})))
@example(_edited(lambda raw: raw.update(surprise=1)))
@example(_edited(lambda raw: raw["runs"].update(vanilla=date(2022, 3, 1))))
def test_built_in_config_check_agrees_with_jsonschema(tmp_path_factory, raw):
    # configs of any shape, most of them invalid
    _assert_loads_as_the_oracle(tmp_path_factory, raw, {})


# the key path of each load_config override, written out
_OVERRIDE_PATHS = {
    **{name: (name,) for name in ("cache_dir", "out_dir", "mock_dir", "refresh")},
    "model_id": ("provider", "model_id"),
    "vanilla_runs": ("runs", "vanilla"),
}
_OVERRIDES = {
    "cache_dir": Path("elsewhere/cache"), "out_dir": "/abs/out", "mock_dir": "replay",
    "refresh": True, "model_id": "other-model", "vanilla_runs": 2,
}


def _plain_json(value):
    """Whether ``value`` holds only JSON values, checked type by type."""
    if isinstance(value, dict):
        return all(isinstance(key, str) and _plain_json(item) for key, item in value.items())
    if isinstance(value, list):
        return all(_plain_json(item) for item in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return value is None or isinstance(value, (str, int))


def oracle_load_config(path, overrides):
    """``load_config`` written out field by field, with every config
    checked by ``_oracle_admits``; integer keys go through ``int()`` and
    number keys through ``float()``."""
    from citebias import matcher
    from citebias.llmgate import ITERATIVE, VANILLA
    from citebias.matcher import Thresholds

    raw = yaml.safe_load(path.read_text())
    for name, value in overrides.items():
        *sections, key = _OVERRIDE_PATHS[name]
        node = raw
        for section in sections:
            node = node.setdefault(section, {})
        if isinstance(node, dict):
            node[key] = str(value) if isinstance(value, Path) else value
    if not _oracle_admits(raw):
        raise ConfigError("invalid config")
    raw = _without_optional_nulls(raw)

    base = path.parent

    def respath(value):
        if value is None:
            return None
        p = Path(value)
        return p if p.is_absolute() else (base / p)

    corpus_cfg = raw["corpus"]
    index_cfg = raw.get("index", {})
    provider_cfg = raw["provider"]
    runs_cfg = raw.get("runs", {})
    matching_cfg = raw.get("matching", {})
    analysis_cfg = raw.get("analysis", {})
    graph_cfg = raw.get("graph", {})

    thresholds_cfg = matching_cfg.get("thresholds")
    thresholds = matcher.default_thresholds()
    if thresholds_cfg:
        thresholds = Thresholds(
            title_threshold=float(thresholds_cfg["title_threshold"]),
            author_threshold=float(thresholds_cfg["author_threshold"]),
            provenance="config",
        )

    subperiod = analysis_cfg.get("subperiod_bins")
    subperiod_bins = None
    if subperiod:
        # a bound the schema admits as an integer loads as an int
        subperiod_bins = [(str(b[0]), *(x if x is None else int(x) for x in b[1:])) for b in subperiod]

    sampling_params = dict(provider_cfg.get("sampling_params", {}))
    fuzzy = corpus_cfg.get("resolve_fuzzy_threshold")

    cfg = PipelineConfig(
        window=(corpus_cfg["window"][0], corpus_cfg["window"][1]),
        category=corpus_cfg["category"],
        venue_keywords=list(corpus_cfg["venue_keywords"]),
        blacklist=list(corpus_cfg.get("blacklist", [])),
        resolve_fuzzy_threshold=None if fuzzy is None else float(fuzzy),
        sources_dir=respath(corpus_cfg["sources_dir"]),
        venue_aliases_path=respath(corpus_cfg.get("venue_aliases_path")),
        fixture_dir=respath(index_cfg.get("fixture_dir")),
        preprint_url=index_cfg.get("preprint_url"),
        scholar_url=index_cfg.get("scholar_url"),
        scholar_api_key_env=index_cfg.get("scholar_api_key_env", ""),
        rate_limit_per_sec=float(index_cfg.get("rate_limit_per_sec", 3.0)),
        max_in_flight=int(index_cfg.get("max_in_flight", 1)),
        model_id=provider_cfg["model_id"],
        provider_kind=provider_cfg["kind"],
        provider_base_url=provider_cfg.get("base_url"),
        provider_api_key_env=provider_cfg.get("api_key_env", "OPENAI_API_KEY"),
        sampling_params=sampling_params,
        provider_rate_limit=float(provider_cfg.get("rate_limit_per_sec", 1.0)),
        vanilla_runs=int(runs_cfg.get("vanilla", 1)),
        iterative=runs_cfg.get("iterative", False),
        thresholds=thresholds,
        search_limit=int(matching_cfg.get("search_limit", 3)),
        subperiod_bins=subperiod_bins,
        graph_strategy=graph_cfg.get("strategy", VANILLA),
        graph_run_index=int(graph_cfg.get("run_index", 1)),
        cache_dir=respath(raw.get("cache_dir", "cache")),
        out_dir=respath(raw.get("out_dir", "out")),
        mock_dir=respath(raw.get("mock_dir")),
        refresh=raw.get("refresh", False),
    )
    if cfg.fixture_dir is None and (cfg.preprint_url is None or cfg.scholar_url is None):
        raise ConfigError("index needs either fixture_dir or both service URLs")
    if cfg.provider_kind == "mock" and cfg.mock_dir is None:
        raise ConfigError("mock provider needs mock_dir (or --mock)")
    if cfg.graph_run_index > cfg.vanilla_runs:
        raise ConfigError(f"graph.run_index {cfg.graph_run_index} > runs.vanilla {cfg.vanilla_runs}")
    if cfg.graph_strategy == ITERATIVE and not cfg.iterative:
        raise ConfigError("graph.strategy iterative needs runs.iterative: true")
    return cfg


def _load_outcome(load, *args):
    """The loaded config, whole and as its run identity, or a rejection."""
    try:
        config = load(*args)
    except ConfigError:
        return "rejected"
    return repr(config), manifest_hash(run_identity(config, ""))


@settings(max_examples=300, deadline=None)
@given(_mutated_configs() | _varied_configs(), st.booleans())
@example(workspace_config(), True)
@example(_full_config(), False)
@example(_edited(lambda raw: raw.update(analysis={"subperiod_bins": []})), False)
@example(_edited(lambda raw: raw.update(matching={"thresholds": None})), False)
@example(_edited(lambda raw: raw["runs"].update(vanilla=2.0)), False)
@example(
    _edited(lambda raw: raw["provider"].update(sampling_params={"seed": date(2023, 1, 1)})), True
)
@example(_edited(lambda raw: raw.update(runs=None)), True)
@example(_edited(lambda raw: raw["corpus"].update(window=["2023-10-31", "2022-03-01"])), False)
@example(_edited(lambda raw: raw["corpus"].update(window=["2022-03-01", "2022-03-01"])), True)
def test_load_config_matches_the_field_by_field_oracle(tmp_path_factory, raw, override):
    # the tier-1 config and variants of it, most of them valid
    _assert_loads_as_the_oracle(tmp_path_factory, raw, _OVERRIDES if override else {})


@pytest.mark.parametrize(
    "data",
    [
        b"corpus: [unclosed\n",
        b"a: b\n  c: d\n",
        b"key: \"open\n",
        b"corpus:\n\t- tab\n",
        b"\xff\xfe not utf-8\n",
    ],
)
def test_unreadable_config_is_a_config_error_naming_the_path(tmp_path, data):
    path = tmp_path / "broken.yaml"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=f"^cannot read config {re.escape(str(path))}: "):
        load_config(path)


def test_missing_config_is_a_config_error_naming_the_path(tmp_path):
    path = tmp_path / "absent.yaml"
    with pytest.raises(ConfigError, match=f"^cannot read config {re.escape(str(path))}: "):
        load_config(path)


# each edit of the workspace config and the error it gives, naming the
# offending key by its slash path (the form of jsonschema's messages)
_PINNED_MESSAGES = {
    lambda raw: raw["corpus"].update(window=["nope"]):
        "['nope'] does not fit tuple[str, str] (at corpus/window)",
    lambda raw: raw["runs"].update(vanilla=0): "0 is not at least 1 (at runs/vanilla)",
    lambda raw: raw.update(surprise=1): "unknown key 'surprise' (at surprise)",
    lambda raw: raw["provider"].pop("model_id"):
        "a required key is absent or null (at provider/model_id)",
}


@pytest.mark.parametrize("edit", list(_PINNED_MESSAGES))
def test_config_error_message_is_that_of_jsonschema_validate(workspace, tmp_path, edit):
    _, config_path = workspace
    path = _config_copy(config_path, tmp_path, edit)
    with pytest.raises(ConfigError) as got:
        load_config(path)
    assert str(got.value) == f"invalid config: {_PINNED_MESSAGES[edit]}"


def test_config_requires_index_backing(tmp_path):
    config = {
        "corpus": {
            "window": ["2022-01-01", "2022-12-31"],
            "category": "cs.LG",
            "venue_keywords": ["ICML"],
            "sources_dir": "sources",
        },
        "index": {},
        "provider": {"model_id": "m", "kind": "mock"},
        "mock_dir": "mock",
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_overrides_win(workspace, tmp_path):
    _, config_path = workspace
    config = load_config(config_path, {"out_dir": str(tmp_path / "elsewhere"), "refresh": True})
    assert config.out_dir == tmp_path / "elsewhere"
    assert config.refresh is True


def _config_copy(config_path, tmp_path, edit):
    """A copy of the workspace config with absolute input paths, edited by
    ``edit(raw)``."""
    root = config_path.parent
    raw = yaml.safe_load(config_path.read_text())
    raw["corpus"]["sources_dir"] = str(root / "sources")
    raw["index"]["fixture_dir"] = str(root / "index")
    raw["mock_dir"] = str(root / "mock")
    raw["out_dir"], raw["cache_dir"] = str(tmp_path / "out"), str(tmp_path / "cache")
    edit(raw)
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_graph_run_index_beyond_the_runs_is_a_config_error(workspace, tmp_path):
    _, config_path = workspace
    path = _config_copy(config_path, tmp_path, lambda raw: raw["graph"].update(run_index=2))
    assert load_config(path).graph_run_index == 2
    with pytest.raises(ConfigError, match="graph.run_index 2"):
        load_config(path, {"vanilla_runs": 1})


def test_iterative_graph_without_iterative_runs_is_a_config_error(workspace, tmp_path):
    _, config_path = workspace

    def edit(raw):
        raw["graph"]["strategy"] = "iterative"
        raw["runs"]["iterative"] = False

    with pytest.raises(ConfigError, match="graph.strategy iterative"):
        load_config(_config_copy(config_path, tmp_path, edit))


def test_override_into_a_non_mapping_section_is_a_config_error(workspace, tmp_path):
    _, config_path = workspace
    path = _config_copy(config_path, tmp_path, lambda raw: raw.update(runs=None))
    with pytest.raises(ConfigError, match="at runs"):
        load_config(path, {"vanilla_runs": 2})


def test_config_with_a_docprep_section_is_a_config_error(workspace, tmp_path):
    # the LaTeX compile gate and its only key are gone; a config that still
    # sets it must fail rather than run without the gate it asked for
    _, config_path = workspace
    path = _config_copy(
        config_path, tmp_path, lambda raw: raw.update(docprep={"latex_command": ["pdflatex"]})
    )
    with pytest.raises(ConfigError, match="docprep"):
        load_config(path)


@pytest.mark.parametrize(
    "params",
    [
        {"seed": date(2023, 1, 1)},
        {"stop": ["x", {"after": date(2023, 1, 1)}]},
        {"temperature": float("nan")},
        {1: "one"},
    ],
)
def test_sampling_params_that_json_cannot_hold_are_a_config_error(workspace, tmp_path, params):
    # the schema types sampling_params only as an object; a YAML date in it
    # would load and then fail the manifest hash
    _, config_path = workspace
    path = _config_copy(
        config_path, tmp_path, lambda raw: raw["provider"].update(sampling_params=params)
    )
    with pytest.raises(ConfigError, match="provider.sampling_params"):
        load_config(path)


def test_overridable_keys_are_schema_properties():
    # each field's key path, OVERRIDABLE's among them, is a schema property,
    # each leaf property is one field's key path, and a field has no
    # default exactly where the schema requires its key
    schema = _CONFIG_SCHEMA
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    paths = {name: f.metadata["keys"] for name, f in fields.items()}
    assert OVERRIDABLE == {name: paths[name] for name in OVERRIDABLE}
    for name, keys in paths.items():
        node, required = schema, True
        for key in keys:
            assert key in node["properties"], (name, keys)
            required = required and key in node.get("required", [])
            node = node["properties"][key]
        field = fields[name]
        defaults = (field.default, field.default_factory)
        assert (defaults == (dataclasses.MISSING,) * 2) == required, name

    def leaves(node, path=()):
        for key, sub in node["properties"].items():
            yield from leaves(sub, (*path, key)) if "properties" in sub else [(*path, key)]

    assert sorted(leaves(schema)) == sorted(paths.values())


def test_unknown_stage_rejected(workspace):
    _, config_path = workspace
    config = load_config(config_path)
    with pytest.raises(ConfigError):
        run_pipeline(config, ["transmogrify"])


# ---------------------------------------------------------------------------
# The full fixture run
# ---------------------------------------------------------------------------


def test_all_stages_completed(completed_run):
    _, _, manifest = completed_run
    assert manifest["failure"] is None
    for stage in ("ingest", "prepare", "generate", "verify", "iterate", "analyze", "graph", "report"):
        assert manifest["stages"][stage]["status"] == "ok"


# the live clients and the HTTP stack, process spawning and a JSON Schema
# engine: an offline run loads none of them
OFFLINE_FORBIDDEN = (
    "citebias.live", "requests", "urllib3", "ssl", "http.client", "subprocess", "jsonschema",
    "referencing", "rpds",
)

# run in a fresh interpreter: argv is the config, then the module names
OFFLINE_RUN = """
import json, sys
from citebias.config import load_config
from citebias.pipeline import run_pipeline
manifest = run_pipeline(load_config(sys.argv[1]))
print(json.dumps({
    "statuses": sorted({stage["status"] for stage in manifest["stages"].values()}),
    "loaded": [name for name in sys.argv[2:] if name in sys.modules],
}))
"""


# run in a fresh interpreter: argv is the config, then the module names
REJECTED_LOAD = """
import json, sys
from citebias.config import load_config
from citebias.errors import ConfigError
try:
    load_config(sys.argv[1])
except ConfigError as exc:
    print(json.dumps({
        "error": str(exc), "loaded": [name for name in sys.argv[2:] if name in sys.modules],
    }))
"""


def _fresh_interpreter(script, cwd, *argv, **env):
    """The JSON of the last line ``script`` prints, run with ``argv`` and
    the variables ``env`` in a new interpreter that imports this package
    from source."""
    src = str(Path(pipeline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path, **env}, capture_output=True, text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_offline_run_loads_no_http_stack_and_no_subprocess(workspace, tmp_path):
    root, config_path = workspace
    copy = tmp_path / "offline"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("out", "cache"))
    config = copy / config_path.relative_to(root)
    report = _fresh_interpreter(OFFLINE_RUN, tmp_path, config, *OFFLINE_FORBIDDEN)
    assert report == {"statuses": ["ok"], "loaded": []}


def _tree_sha256(root):
    """sha256 over the relative path and the bytes of each file under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\1")
    return digest.hexdigest()


def test_cold_runs_under_two_hash_seeds_write_the_same_bytes(workspace, tmp_path):
    # str hashes are salted per interpreter, so an output that followed
    # set or dict order would differ between these two runs
    root, config_path = workspace
    digests = []
    for seed in ("1", "2"):
        copy = tmp_path / f"seed{seed}"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns("out", "cache"))
        config = copy / config_path.relative_to(root)
        report = _fresh_interpreter(
            OFFLINE_RUN, tmp_path, config, PYTHONHASHSEED=seed, SOURCE_DATE_EPOCH="1700000000"
        )
        assert report == {"statuses": ["ok"], "loaded": []}
        digests.append((_tree_sha256(copy / "out"), _tree_sha256(copy / "cache")))
    assert digests[0] == digests[1]


def test_rejected_config_loads_no_json_schema_engine(workspace, tmp_path):
    _, config_path = workspace
    path = _config_copy(config_path, tmp_path, lambda raw: raw["runs"].update(vanilla=0))
    report = _fresh_interpreter(REJECTED_LOAD, tmp_path, path, "jsonschema", "referencing", "rpds")
    assert report == {"error": "invalid config: 0 is not at least 1 (at runs/vanilla)", "loaded": []}


def test_live_config_builds_rate_limited_http_clients_without_a_request(
    workspace, tmp_path, monkeypatch
):
    # both indexes share one limiter at index.rate_limit_per_sec, and the
    # chat gateway has its own at provider.rate_limit_per_sec
    import requests

    from citebias.live import HttpPreprintClient, HttpScholarClient, OpenAIChatProvider

    def refuse(*args, **kwargs):
        raise AssertionError("building the clients sent a request")

    monkeypatch.setattr(requests.Session, "request", refuse)
    _, config_path = workspace

    def edit(raw):
        raw["index"] = {
            "preprint_url": "http://preprint.test", "scholar_url": "http://scholar.test",
            "rate_limit_per_sec": 5.0,
        }
        raw["provider"].update(kind="openai", base_url="http://llm.test/v1", rate_limit_per_sec=0.5)

    config = load_config(_config_copy(config_path, tmp_path, edit))
    ctx = pipeline.PipelineContext(config, "0" * 64)
    scholar = ctx.scholar.inner
    assert type(ctx.preprint) is HttpPreprintClient and type(scholar) is HttpScholarClient
    assert (ctx.preprint.base_url, scholar.base_url) == ("http://preprint.test", "http://scholar.test")
    assert ctx.preprint.limiter is scholar.limiter
    assert ctx.preprint.limiter.rate == 5.0
    assert type(ctx.provider) is OpenAIChatProvider
    assert (ctx.provider.base_url, ctx.provider.model) == ("http://llm.test/v1", MODEL_ID)
    assert ctx.provider.limiter is not scholar.limiter
    assert ctx.provider.limiter.rate == 0.5
    assert ctx.provider_for("vanilla", 2) is ctx.provider


def test_full_run_leaves_every_hashed_input_unchanged(workspace, tmp_path):
    # the roots inputs_digest hashes are read-only: a run that wrote into
    # one would change its own identity, and the next run would redo
    # every stage
    from citebias.clients import read_tree

    root, config_path = workspace
    copy = tmp_path / "inputs"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("out", "cache"))
    aliases = resources.files("citebias.data").joinpath("venue_aliases.json").read_bytes()
    (copy / "venue_aliases.json").write_bytes(aliases)
    aliased = _config_copy(
        copy / config_path.relative_to(root),
        tmp_path,
        lambda raw: raw["corpus"].update(venue_aliases_path=str(copy / "venue_aliases.json")),
    )
    config = load_config(aliased)
    roots = (config.sources_dir, config.fixture_dir, config.mock_dir, config.venue_aliases_path)
    before = [read_tree(path) for path in roots]
    assert all(before)
    manifest = run_pipeline(config)
    assert {stage["status"] for stage in manifest["stages"].values()} == {"ok"}
    assert [read_tree(path) for path in roots] == before


def test_full_run_asks_once_for_each_directory_it_makes(workspace, tmp_path, monkeypatch):
    # writers make a parent directory only when a write finds it missing,
    # so no mkdir is spent on a directory that exists
    root, config_path = workspace
    copy = tmp_path / "dirs"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("out", "cache"))
    config = load_config(copy / config_path.relative_to(root))
    before = {dirpath for dirpath, _, _ in os.walk(tmp_path)}
    calls = []
    mkdir = os.mkdir

    def counted_mkdir(path, *args, **kwargs):
        calls.append(os.path.abspath(path))
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", counted_mkdir)
    manifest = run_pipeline(config)
    monkeypatch.undo()
    assert {stage["status"] for stage in manifest["stages"].values()} == {"ok"}
    made = {dirpath for dirpath, _, _ in os.walk(tmp_path)} - before
    assert len(made) > 10
    assert sorted(calls) == sorted(made)


def test_a_run_builds_no_path_with_pathlib(workspace, tmp_path, monkeypatch):
    # pathlib passes each part it parses through sys.intern, so a process
    # that runs many pipelines would add and drop every run's path parts
    # in the intern table, which the table answers by growing; the run's
    # paths are strings instead
    import pathlib

    if not hasattr(pathlib, "sys"):
        pytest.skip("this pathlib does not reach sys.intern through a module-level sys")
    _, config_path = workspace

    def config(name):
        overrides = {"out_dir": str(tmp_path / name / "out"), "cache_dir": str(tmp_path / name)}
        return load_config(config_path, overrides)

    run_pipeline(config("warm-up"))  # first-use reads and imports are done
    second = config("counted")
    callers = []

    class CountingSys:
        def __getattr__(self, name):
            return getattr(sys, name)

        def intern(self, string):
            frame = sys._getframe(1)
            site = None
            while frame is not None:
                module = frame.f_globals.get("__name__", "")
                if site is None and module != "pathlib":
                    site = f"{module}:{frame.f_lineno}"
                if module.startswith("citebias"):
                    callers.append(site)
                    break
                frame = frame.f_back
            return sys.intern(string)

    monkeypatch.setattr(pathlib, "sys", CountingSys())
    manifest = run_pipeline(second)
    monkeypatch.undo()
    assert {stage["status"] for stage in manifest["stages"].values()} == {"ok"}
    assert callers == []


def test_ingest_outcomes(completed_run):
    _, _, manifest = completed_run
    outcomes = manifest["stages"]["ingest"]["outcomes"]
    # 5 of 6 preprint records mention a venue keyword; the workshop decoy
    # is blacklisted; all 4 survivors resolve (one has no source bundle)
    assert outcomes["harvested"] == 5
    assert outcomes["after_blacklist"] == 4
    assert outcomes["resolved"] == 4
    assert outcomes["references_not_found"] == 0


def test_prepare_excludes_missing_sources_with_reason_code(completed_run):
    root, _, manifest = completed_run
    outcomes = manifest["stages"]["prepare"]["outcomes"]
    assert outcomes["prepared"] == 3
    assert outcomes["excluded_by_code"] == {"no-main": 1}
    exclusions = json.loads((root / "out" / "prepared" / "exclusions.json").read_text())
    assert exclusions[0]["preprint_id"] == "2302.44444"


def test_prepare_does_not_mutate_ingest_output(completed_run):
    root, _, _ = completed_run
    corpus = json.loads((root / "out" / "corpus" / "papers.json").read_text())
    prepared = json.loads((root / "out" / "prepared" / "papers.json").read_text())
    assert len(corpus) == 4  # still holds the source-less paper
    assert len(prepared) == 3
    assert all(p["intro_reference_numbers"] == [] for p in corpus)
    assert all(p["intro_reference_numbers"] for p in prepared)


def test_prepared_artifacts_exist(completed_run):
    root, _, _ = completed_run
    prepared = root / "out" / "prepared"
    for paper in ("2203.11111", "2207.22222", "2301.33333"):
        assert (prepared / paper / "main_content.txt").is_file()
        assert (prepared / paper / "intro_references.txt").is_file()
        assert (prepared / paper / "record.json").is_file()
    content = (prepared / "2203.11111" / "main_content.txt").read_text()
    assert "[4-6]" in content
    assert "Strip this figure body" not in content
    assert "Hidden method text" not in content


def test_unresolved_ground_truth_is_recorded_not_dropped(completed_run):
    root, _, _ = completed_run
    record = json.loads(
        (root / "out" / "prepared" / "2301.33333" / "record.json").read_text()
    )
    by_num = {row["citation_number"]: row for row in record["gt_refs"]}
    assert by_num[4]["index_id"] is None
    assert by_num[4]["resolution"] == "unmatched"
    assert by_num[1]["index_id"] == "sc1"


def test_run_manifests_record_parameters(completed_run):
    root, _, _ = completed_run
    for strategy, run_index in (("vanilla", 1), ("vanilla", 2), ("iterative", 1)):
        payload = json.loads(
            (root / "out" / "runs" / MODEL_ID / f"{strategy}-{run_index}" / "run_manifest.json").read_text()
        )
        assert payload["model_id"] == MODEL_ID
        assert payload["strategy"] == strategy
        assert payload["run_index"] == run_index
        assert set(payload["template_hashes"]) == {"vanilla", "postprocess", "iterative"}


def test_raw_responses_persisted(completed_run):
    root, _, _ = completed_run
    run_dir = root / "out" / "runs" / MODEL_ID / "vanilla-1" / "2203.11111"
    assert (run_dir / "response_raw.txt").is_file()
    assert (run_dir / "postprocess_raw.txt").is_file()
    assert (run_dir / "transcript.json").is_file()
    transcript = json.loads((run_dir / "transcript.json").read_text())
    assert [role for role, _ in transcript] == ["system", "user", "assistant"]


def test_quarantined_uncited_slot_row(completed_run):
    root, _, _ = completed_run
    payload = json.loads(
        (root / "out" / "runs" / MODEL_ID / "vanilla-1" / "2301.33333" / "refs.json").read_text()
    )
    assert any("uncited slot 9" in q["reason"] for q in payload["quarantined"])


def test_iterative_gap_and_ignored_rows_logged(completed_run):
    root, _, _ = completed_run
    b_iter = json.loads(
        (root / "out" / "runs" / MODEL_ID / "iterative-1" / "2207.22222" / "refs.json").read_text()
    )
    assert any("gap" in a and "slot 5" in a for a in b_iter["anomalies"])
    c_iter = json.loads(
        (root / "out" / "runs" / MODEL_ID / "iterative-1" / "2301.33333" / "refs.json").read_text()
    )
    assert any("ignored" in a and "slot 1" in a for a in c_iter["anomalies"])


def test_iterative_parse_failure_keeps_parent(completed_run):
    root, _, _ = completed_run
    payload = json.loads(
        (root / "out" / "runs" / MODEL_ID / "iterative-2" / "2301.33333" / "refs.json").read_text()
    )
    assert payload["outcome"].startswith("parse-failure")
    # parent entries carried over unchanged
    vanilla = json.loads(
        (root / "out" / "runs" / MODEL_ID / "vanilla-2" / "2301.33333" / "refs.json").read_text()
    )
    assert payload["references"] == vanilla["references"]


EXPECTED_SUMMARY = {
    "run1_vanilla": ["66.7", "53.3", "40.0", "20.0", "30.0"],
    "run2_vanilla": ["73.3", "40.0", "33.3", "33.3", "40.0"],
    "run1_iterative": ["93.3", "66.7", "53.3", "33.3", "40.0"],
    "run2_iterative": ["86.7", "53.3", "40.0", "33.3", "40.0"],
}


def test_summary_csv_matches_hand_computed_values(completed_run):
    root, _, _ = completed_run
    header, rows = _read_csv(root / "out" / "report" / "summary.csv")
    assert [r[0] for r in rows] == [
        "Existence",
        "Cited in paper",
        "Cited in introduction",
        "PM all",
        "PM unique",
    ]
    assert header == ["metric", "run1_vanilla", "run1_iterative", "run2_vanilla", "run2_iterative"]
    for column, expected in EXPECTED_SUMMARY.items():
        idx = header.index(column)
        assert [row[idx] for row in rows] == expected, column


def test_overlap_csv_value(completed_run):
    root, _, _ = completed_run
    header, rows = _read_csv(root / "out" / "report" / "overlap.csv")
    assert header == ["run", "run1"]
    assert rows == [["run2", "40.0"]]


def test_summary_counts_are_emitted(completed_run):
    root, _, _ = completed_run
    header, rows = _read_csv(root / "out" / "report" / "summary_counts.csv")
    counts = {row[0]: row[1:] for row in rows}
    assert counts["total_refs"] == ["15", "15", "15", "15"]
    assert counts["unique_refs"] == ["10", "10", "10", "10"]
    assert counts["existing"] == ["10", "14", "11", "13"]


def test_graph_stage_artifacts_and_metrics(completed_run):
    root, _, _ = completed_run
    graphs = root / "out" / "graphs"
    for paper in ("2203.11111", "2207.22222", "2301.33333"):
        assert (graphs / paper / "edges.tsv").is_file()
        assert (graphs / paper / "tags.tsv").is_file()
    header, rows = _read_csv(graphs / "graph_metrics.csv")
    by_paper = {row[0]: dict(zip(header, row)) for row in rows}
    a = by_paper["focalA"]
    assert a["boolean_edge_density"] == "1.000000"
    assert a["edge_expansion"] == "2.000000"
    assert a["n_GenInIntro"] == "2"
    assert a["n_GenInPaper"] == "1"
    assert a["n_GenLinked"] == "1"
    assert a["n_GenIsolated"] == "1"
    b = by_paper["focalB"]
    assert b["boolean_edge_density"] == "NA"  # no linked generations in run 1
    tags = dict(
        line.split("\t")
        for line in (graphs / "2203.11111" / "tags.tsv").read_text().splitlines()
    )
    assert tags["l1"] == "GenLinked"
    assert tags["iso1"] == "GenIsolated"
    assert tags["a7"] == "GenInPaper"


def test_bias_and_characteristics_reports_exist(completed_run):
    root, _, _ = completed_run
    report = root / "out" / "report"
    for facet in ("subperiod", "title_chars", "author_count", "venue"):
        assert (report / "bias" / f"{facet}.csv").is_file()
        assert (report / "bias" / f"{facet}_influential.csv").is_file()
    for cohort in (
        "ground_truth",
        "generated_all",
        "generated_existing",
        "generated_nonexistent",
        "counterpart_of_existing",
        "counterpart_of_in_paper",
        "counterpart_of_nonexistent",
    ):
        assert (report / "characteristics" / f"{cohort}.csv").is_file()
    assert (report / "histograms.json").is_file()
    assert (report / "summary.txt").is_file()


def test_bias_direction_favors_generated(completed_run):
    # the fixture plants higher-cited matches than ground truth overall
    root, _, _ = completed_run
    analysis = json.loads((root / "out" / "analysis" / "analysis.json").read_text())
    bins = analysis["bias"]["subperiod"]["bins"]
    diffs = [b["difference"] for b in bins if b["difference"] is not None]
    assert diffs, "no populated subperiod bins"


def test_all_emitted_files_carry_manifest_hash(completed_run):
    root, _, manifest = completed_run
    expected = f"# manifest_hash={manifest['manifest_hash']}"
    report = root / "out" / "report"
    for path in report.rglob("*.csv"):
        assert path.read_text().splitlines()[0] == expected, path
    payload = json.loads((report / "histograms.json").read_text())
    assert payload["manifest_hash"] == manifest["manifest_hash"]


# ---------------------------------------------------------------------------
# Resumability and caching
# ---------------------------------------------------------------------------


def test_rerun_skips_all_stages(completed_run):
    root, config_path, first = completed_run
    os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
    try:
        config = load_config(config_path)
        second = run_pipeline(config)
    finally:
        os.environ.pop("SOURCE_DATE_EPOCH", None)
    assert all(info["status"] == "skipped" for info in second["stages"].values())
    assert second["manifest_hash"] == first["manifest_hash"]


def test_prefix_then_remainder_equals_one_full_run(completed_run, tmp_path):
    root, config_path, _ = completed_run
    out_dir = tmp_path / "resumed"
    os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
    try:
        config = load_config(
            config_path,
            {"out_dir": str(out_dir), "cache_dir": str(tmp_path / "resumed_cache")},
        )
        run_pipeline(config, ["ingest", "prepare", "generate"])
        run_pipeline(config, ["verify", "iterate", "analyze", "graph", "report"])
    finally:
        os.environ.pop("SOURCE_DATE_EPOCH", None)

    def tree(base):
        return {
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file() and p.name != "manifest.json"
        }

    # manifest differs only in which stages each invocation ran; every
    # artifact must be identical to the single full run
    assert tree(out_dir) == tree(root / "out")


def test_rerun_after_a_source_edit_keeps_no_stale_stage_outputs(
    completed_run, tmp_path, monkeypatch
):
    # a full run, then one paper loses its .bib: the rerun must leave the
    # single-owner stage directories as a fresh run on the edited inputs does
    root, config_path, _ = completed_run
    copy = tmp_path / "edited"
    shutil.copytree(root, copy)
    (copy / "sources" / "2207.22222" / "refs.bib").unlink()
    config_copy = copy / config_path.relative_to(root)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    rerun = run_pipeline(load_config(config_copy))
    fresh_out = tmp_path / "fresh"
    overrides = {"out_dir": str(fresh_out), "cache_dir": str(tmp_path / "fresh_cache")}
    fresh = run_pipeline(load_config(config_copy, overrides))
    assert rerun["stages"]["prepare"]["outcomes"]["excluded_by_code"]["no-bib"] == 1

    def tree(base):
        return {str(p.relative_to(base)): p.read_bytes() for p in base.rglob("*") if p.is_file()}

    for stage in ("prepared", "analysis", "graphs", "report"):
        assert tree(copy / "out" / stage) == tree(fresh_out / stage), stage
    assert rerun["stages"]["report"]["outcomes"] == fresh["stages"]["report"]["outcomes"]


class _Crash(BaseException):
    """A run stopped at a write, as by a kill: no handler in the pipeline
    catches it."""


def test_rerun_after_a_run_stopped_at_a_write_gives_the_clean_outputs(
    workspace, tmp_path, monkeypatch
):
    # config H1 runs to the end; H2 (every threshold at 0.999) stops at its
    # k-th rename; H1 run again must give the outputs of a clean H1 run. A
    # marker left over a stage H2 had partly rewritten would make the H1
    # rerun skip that stage
    _, h1_path = workspace
    h2_path = _config_copy(
        h1_path,
        tmp_path,
        lambda raw: raw.setdefault("matching", {}).update(
            thresholds={"title_threshold": 0.999, "author_threshold": 0.999}
        ),
    )
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")

    def run(config_path, root):
        dirs = {"out_dir": str(root / "out"), "cache_dir": str(root / "cache")}
        return run_pipeline(load_config(config_path, dirs))

    def tree(base):
        return {
            str(p.relative_to(base)): p.read_bytes()
            for p in base.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }

    clean = tmp_path / "clean"
    run(h1_path, clean)
    expected = tree(clean / "out")
    replace = os.replace
    renames = crash_at = 0

    def replacing(*args, **kwargs):
        nonlocal renames
        renames += 1
        if renames == crash_at:
            raise _Crash(renames)
        return replace(*args, **kwargs)

    def stopped_at(k, root):
        """H2 stopped at its k-th rename (never, for 0), then H1 again."""
        nonlocal renames, crash_at
        shutil.copytree(clean, root)
        renames, crash_at = 0, k
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", replacing)
            with pytest.raises(_Crash) if k else contextlib.nullcontext():
                run(h2_path, root)
        run(h1_path, root)
        return tree(root / "out")

    assert stopped_at(0, tmp_path / "whole") == expected
    total = renames  # the renames of a whole H2 run
    assert total > 30
    for k in sorted({1 + i * (total - 1) // 29 for i in range(30)}):
        assert stopped_at(k, tmp_path / f"k{k}") == expected, k


def _files(base):
    """Every file under ``base`` by its POSIX path relative to it, with its bytes."""
    return {p.relative_to(base).as_posix(): p.read_bytes() for p in base.rglob("*") if p.is_file()}


def test_every_output_file_lies_under_exactly_one_stage_subtree(completed_run):
    # an artifact no stage declares would survive every rerun; one that two
    # stages declare would be emptied by the second
    root, config_path, _ = completed_run
    out = root / "out"
    owners: dict[str, list[str]] = {}
    for stage in STAGE_TABLE:
        for pattern in stage.writes:
            for tree in out.glob(pattern.format(model=safe_filename(MODEL_ID))):
                for rel in _files(tree):
                    owners.setdefault(f"{tree.relative_to(out).as_posix()}/{rel}", []).append(
                        stage.name
                    )
    driver = {".lock", "manifest.json", *(f"stages/{stage}.json" for stage in STAGES)}
    assert set(_files(out)) - driver == set(owners)
    assert {rel: names for rel, names in owners.items() if len(names) != 1} == {}
    ctx = pipeline.PipelineContext(load_config(config_path), "unused")
    assert {rel: ctx.writer(out / rel) for rel in owners} == {
        rel: names[0] for rel, names in owners.items()
    }


def test_rerun_at_fewer_runs_leaves_the_outputs_of_a_clean_run(
    completed_run, tmp_path, monkeypatch
):
    # the completed run has two vanilla runs and the iterative pass; its
    # second run's trees must not outlive a rerun at one
    root, config_path, _ = completed_run
    out_dir, cache_dir = _copy_run(root, tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    argv = ["--config", str(config_path), "--cache-dir", str(cache_dir)]
    assert cli.main([*argv, "--out-dir", str(out_dir), "all", "--runs", "1"]) == 0
    clean = tmp_path / "clean"
    assert cli.main([*argv, "--out-dir", str(clean), "all", "--runs", "1"]) == 0
    assert (root / "out" / "runs" / MODEL_ID / "vanilla-2").is_dir()
    assert _files(out_dir) == _files(clean)


def test_turning_iterative_off_removes_every_iterative_tree(completed_run, tmp_path):
    root, config_path, _ = completed_run
    out_dir, _ = _copy_run(root, tmp_path)
    assert len(list(out_dir.glob("*/*/iterative-*"))) == 4  # two runs, refs and verdicts
    path = _config_copy(config_path, tmp_path, lambda raw: raw["runs"].update(iterative=False))
    manifest = run_pipeline(load_config(path))
    assert manifest["stages"]["iterate"] == {"status": "ok", "outcomes": {"enabled": False}}
    assert list(out_dir.glob("*/*/iterative-*")) == []


@pytest.mark.parametrize(
    "missing, stage, writer",
    [
        ("corpus/papers.json", "prepare", "ingest"),
        ("prepared/papers.json", "generate", "prepare"),
        ("prepared/2203.11111/record.json", "analyze", "prepare"),
        (f"runs/{MODEL_ID}/vanilla-1/2203.11111/refs.json", "verify", "generate"),
        (f"runs/{MODEL_ID}/vanilla-1/2203.11111/transcript.json", "iterate", "generate"),
        (f"verdicts/{MODEL_ID}/vanilla-1/2203.11111.jsonl", "iterate", "verify"),
        (f"runs/{MODEL_ID}/iterative-2/2203.11111/refs.json", "analyze", "iterate"),
        (f"verdicts/{MODEL_ID}/iterative-1/2203.11111.jsonl", "graph", "iterate"),
        ("analysis/analysis.json", "report", "analyze"),
    ],
)
def test_missing_artifact_names_the_stage_that_writes_it(
    completed_run, tmp_path, missing, stage, writer
):
    root, config_path, _ = completed_run
    out_dir, cache_dir = _copy_run(root, tmp_path)
    overrides = {"out_dir": str(out_dir), "cache_dir": str(cache_dir)}
    if stage == "graph":
        path = _config_copy(
            config_path, tmp_path, lambda raw: raw["graph"].update(strategy="iterative")
        )
        config = load_config(path, overrides)
    else:
        config = load_config(config_path, overrides)
    (out_dir / missing).unlink()
    (out_dir / "stages" / f"{stage}.json").unlink()
    with pytest.raises(PipelineError) as err:
        run_pipeline(config, [stage])
    assert str(err.value) == f"{missing} missing: run the {writer} stage first"


def test_report_stage_runs_without_provider(completed_run, tmp_path):
    # a warm out dir re-emits reports without touching the response store
    root, config_path, _ = completed_run
    out_dir, cache_dir = _copy_run(root, tmp_path)
    empty_mock = tmp_path / "empty_mock"
    empty_mock.mkdir()
    config = load_config(
        config_path,
        {"mock_dir": str(empty_mock), "out_dir": str(out_dir), "cache_dir": str(cache_dir)},
    )
    (out_dir / "stages" / "report.json").unlink()
    manifest = run_pipeline(config, ["report"])
    assert manifest["stages"]["report"]["status"] == "ok"


def test_manifest_written_on_failure(workspace, tmp_path):
    _, config_path = workspace
    empty_mock = tmp_path / "no_responses"
    empty_mock.mkdir()
    out_dir = tmp_path / "failed_out"
    config = load_config(
        config_path,
        {"mock_dir": str(empty_mock), "out_dir": str(out_dir), "cache_dir": str(tmp_path / "cache")},
    )
    with pytest.raises(Exception):
        run_pipeline(config)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["failure"] is not None
    assert manifest["failure"]["stage"] == "prepare"


def test_missing_prepared_artifact_is_pipeline_error(completed_run, tmp_path):
    root, config_path, _ = completed_run
    out_dir, cache_dir = _copy_run(root, tmp_path)
    config = load_config(config_path, {"out_dir": str(out_dir), "cache_dir": str(cache_dir)})
    (out_dir / "prepared" / "2203.11111" / "main_content.txt").unlink()
    (out_dir / "stages" / "generate.json").unlink()
    with pytest.raises(PipelineError, match="run the prepare stage first"):
        run_pipeline(config, ["generate"])
    failure = json.loads((out_dir / "manifest.json").read_text())["failure"]
    assert failure["stage"] == "generate"
    assert "prepared/2203.11111/main_content.txt" in failure["error"]


# holds flock on the file named by argv[1] until killed
HOLD_LOCK = """
import fcntl, os, sys, time
fd = os.open(sys.argv[1], os.O_RDWR | os.O_CREAT)
fcntl.flock(fd, fcntl.LOCK_EX)
print("held", flush=True)
time.sleep(60)
"""


def _ingest_config(config_path, tmp_path):
    return load_config(
        config_path, {"out_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "cache")}
    )


def test_lock_held_by_another_process_blocks_until_it_dies(workspace, tmp_path):
    _, config_path = workspace
    config = _ingest_config(config_path, tmp_path)
    config.out_dir.mkdir(parents=True)
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLD_LOCK, str(config.out_dir / ".lock")],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert holder.stdout.readline() == "held\n"
        with pytest.raises(PipelineError, match="locked"):
            run_pipeline(config, ["ingest"])
    finally:
        holder.kill()
        holder.wait(timeout=10)
        holder.stdout.close()
    # ingest needs no provider; the kernel released the dead holder's lock
    manifest = run_pipeline(config, ["ingest"])
    assert manifest["stages"]["ingest"]["status"] == "ok"


def test_leftover_pid_in_lockfile_does_not_block(workspace, tmp_path):
    _, config_path = workspace
    config = _ingest_config(config_path, tmp_path)
    config.out_dir.mkdir(parents=True)
    # a live process other than this one, as a PID-file lock would read it
    (config.out_dir / ".lock").write_text(str(os.getppid()))
    manifest = run_pipeline(config, ["ingest"])
    assert manifest["stages"]["ingest"]["status"] == "ok"
    assert (config.out_dir / ".lock").is_file()


def test_run_nested_in_the_lock_holder_is_refused(workspace, tmp_path):
    _, config_path = workspace
    config = _ingest_config(config_path, tmp_path)
    with output_lock(config.out_dir):
        with pytest.raises(PipelineError, match="locked"):
            run_pipeline(config, ["ingest"])
    assert not (config.out_dir / "corpus").exists()


def test_corrupt_cache_key_recomputed_on_stage_rerun(workspace, tmp_path):
    _, config_path = workspace
    out_dir = tmp_path / "cache_out"
    cache_dir = tmp_path / "cache_corrupt"
    config = load_config(config_path, {"out_dir": str(out_dir), "cache_dir": str(cache_dir)})
    run_pipeline(config, ["ingest"])
    log = cache_dir / "scholar.jsonl"
    lines = log.read_bytes().splitlines(keepends=True)
    ids = [json.loads(line)["id"] for line in lines]
    assert "a1" in ids and "a2" in ids
    lines[ids.index("a1")] = b"{broken\n"
    log.write_bytes(b"".join(lines))
    before = log.read_bytes()
    (out_dir / "stages" / "ingest.json").unlink()
    run_pipeline(config, ["ingest"])
    # a1 alone is fetched again, as one appended line; every other key,
    # a2 included, is served from the log as it was
    after = log.read_bytes()
    assert after.startswith(before)
    (appended,) = after[len(before) :].splitlines()
    assert json.loads(appended)["id"] == "a1"
    assert json.loads(appended)["status"] == "ok"


class _Unreachable:
    """A scholar index that must not be asked: every read is served from the cache."""

    def search_title(self, query, limit=10):
        raise AssertionError(f"index searched for {query!r}")

    def get_paper(self, index_id):
        raise AssertionError(f"index asked for {index_id!r}")


def _envelopes(log):
    """The envelopes of a cache log, parsed, in a canonical order."""
    lines = log.read_bytes().splitlines()
    return sorted(json.dumps(json.loads(line), sort_keys=True) for line in lines)


def test_cache_kept_across_a_fixture_edit_serves_the_edited_fixture(
    completed_run, tmp_path, monkeypatch
):
    # a fixture run ties its cache entries to its input digest: after an
    # edit, a run that keeps cache/ writes what a cold run writes
    root, config_path, _ = completed_run
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    copy = tmp_path / "edited"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("out", "cache"))
    config_file = copy / config_path.relative_to(root)

    def run(name, cache="cache"):
        overrides = {"out_dir": str(tmp_path / name), "cache_dir": str(tmp_path / cache)}
        return run_pipeline(load_config(config_file, overrides))

    run("first")
    paper = copy / "index" / "scholar" / "papers" / "a1.json"
    record = json.loads(paper.read_text())
    paper.write_text(json.dumps({**record, "citation_count": record["citation_count"] + 1000}))
    warm, cold = run("warm"), run("cold", cache="cold_cache")
    assert warm["manifest_hash"] == cold["manifest_hash"]
    assert _tree_sha256(tmp_path / "warm") == _tree_sha256(tmp_path / "cold")
    # the warm cache serves a1's edited record under the new digest
    cache = JsonCache(tmp_path / "cache", "scholar", source=warm["inputs_digest"])
    a1 = enrich_reference("a1", CachedScholarClient(_Unreachable(), cache))
    assert a1.citation_count == record["citation_count"] + 1000

    # with the inputs unchanged, every scholar read is served from the cache
    lookups = []
    for name in ("search_title", "get_paper"):
        original = getattr(FixtureIndexClient, name)
        monkeypatch.setattr(
            FixtureIndexClient, name,
            lambda self, *args, _name=name, _original=original:
                lookups.append(_name) or _original(self, *args),
        )
    run("again")
    assert lookups == []
    assert _tree_sha256(tmp_path / "again") == _tree_sha256(tmp_path / "warm")


def test_cold_run_leaves_one_cache_file(completed_run):
    root, _, _ = completed_run
    files = [p.relative_to(root / "cache").as_posix() for p in (root / "cache").rglob("*")]
    assert files == ["scholar.jsonl"]


def test_old_per_key_cache_tree_is_ignored_by_a_run(completed_run, tmp_path, monkeypatch):
    # every envelope of the completed run, laid out one file per key as
    # older versions wrote them: a run reads none of them and deletes none
    root, config_path, _ = completed_run
    old_dir = tmp_path / "cache" / "scholar"
    old_dir.mkdir(parents=True)
    for line in (root / "cache" / "scholar.jsonl").read_bytes().splitlines():
        envelope = json.loads(line)
        (old_dir / f"{safe_filename(envelope['id'])}.json").write_text(dump_json(envelope))
    before = {p.name: p.read_bytes() for p in old_dir.iterdir()}
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    overrides = {"out_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "cache")}
    run_pipeline(load_config(config_path, overrides))
    assert {p.name: p.read_bytes() for p in old_dir.iterdir()} == before
    # every key was a miss, fetched and appended to the new log
    log = tmp_path / "cache" / "scholar.jsonl"
    assert _envelopes(log) == _envelopes(root / "cache" / "scholar.jsonl")


def test_threaded_ingest_writes_the_same_outputs_and_cache(completed_run, tmp_path, monkeypatch):
    # four enrichment threads share one cache: the same out/ bytes (the
    # run identity aside, which holds max_in_flight) and the same envelopes
    root, config_path, serial = completed_run
    path = _config_copy(config_path, tmp_path, lambda raw: raw["index"].update(max_in_flight=4))
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    threaded = run_pipeline(load_config(path))

    def tree(base, mhash):
        return {
            p.relative_to(base).as_posix(): p.read_bytes().replace(mhash.encode(), b"<hash>")
            for p in sorted(base.rglob("*"))
            if p.is_file() and p.name != "manifest.json"
        }

    assert threaded["manifest_hash"] != serial["manifest_hash"]
    out = tree(tmp_path / "out", threaded["manifest_hash"])
    assert out == tree(root / "out", serial["manifest_hash"])
    log = tmp_path / "cache" / "scholar.jsonl"
    assert _envelopes(log) == _envelopes(root / "cache" / "scholar.jsonl")


def test_integral_floats_for_integer_keys_load_and_run_as_ints(
    completed_run, tmp_path, monkeypatch
):
    # the schema counts 2.0 as an integer; loaded as an int, it runs the
    # tier-1 run, its manifest and every other out/ byte included
    root, config_path, expected = completed_run

    def edit(raw):
        raw["runs"]["vanilla"] = float(raw["runs"]["vanilla"])
        raw["graph"]["run_index"] = 1.0
        raw["index"]["max_in_flight"] = 1.0
        raw["matching"] = {"search_limit": 3.0}

    config = load_config(_config_copy(config_path, tmp_path, edit))
    ints = (config.vanilla_runs, config.graph_run_index, config.max_in_flight, config.search_limit)
    assert [type(value) for value in ints] == [int] * 4
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    assert run_pipeline(config) == expected

    def tree(base):  # later tests rewrite the shared run's manifest.json
        files = (p for p in base.rglob("*") if p.is_file() and p.name != "manifest.json")
        return {p.relative_to(base): p.read_bytes() for p in files}

    assert tree(tmp_path / "out") == tree(root / "out")


def test_integral_float_subperiod_bounds_load_as_ints(workspace, tmp_path):
    # the schema admits 2023.0 as an integer bound, so both spellings of one
    # bin set load as one config with one run identity
    _, config_path = workspace
    loaded = []
    for late in (2023, 2023.0):

        def edit(raw, late=late):
            raw["analysis"] = {"subperiod_bins": [["early", None, 2022], ["late", late, None]]}

        config = load_config(_config_copy(config_path, tmp_path, edit))
        loaded.append((repr(config), manifest_hash(run_identity(config, inputs_digest(config)))))
    assert config.subperiod_bins == [("early", None, 2022), ("late", 2023, None)]
    assert type(config.subperiod_bins[1][1]) is int
    assert loaded[1] == loaded[0]


# a key path whose value is a float, and an edit that sets it on the
# workspace config
_FLOAT_KEYS = {
    "index.rate_limit_per_sec": lambda raw, v: raw["index"].update(rate_limit_per_sec=v),
    "provider.rate_limit_per_sec": lambda raw, v: raw["provider"].update(rate_limit_per_sec=v),
    "corpus.resolve_fuzzy_threshold": lambda raw, v: raw["corpus"].update(resolve_fuzzy_threshold=v),
    "matching.thresholds.title_threshold": lambda raw, v: raw.update(
        matching={"thresholds": {"title_threshold": v, "author_threshold": 0.5}}
    ),
    "matching.thresholds.author_threshold": lambda raw, v: raw.update(
        matching={"thresholds": {"title_threshold": 0.5, "author_threshold": v}}
    ),
}


@pytest.mark.parametrize("key", list(_FLOAT_KEYS))
def test_integer_spelling_of_a_float_key_loads_as_the_float(workspace, tmp_path, key):
    # 1 and 1.0 are one config with one run identity
    _, config_path = workspace
    loaded = []
    for value in (1, 1.0):
        path = _config_copy(config_path, tmp_path, lambda raw: _FLOAT_KEYS[key](raw, value))
        config = load_config(path)
        loaded.append((repr(config), manifest_hash(run_identity(config, ""))))
    assert "=1.0" in loaded[0][0]
    assert loaded[0] == loaded[1]


@pytest.mark.parametrize("key", list(_FLOAT_KEYS))
def test_nan_for_a_bounded_number_is_a_config_error(workspace, tmp_path, key):
    # NaN passes jsonschema's minimum and maximum; a threshold of NaN would
    # judge every candidate non-existent
    _, config_path = workspace
    path = _config_copy(config_path, tmp_path, lambda raw: _FLOAT_KEYS[key](raw, float("nan")))
    at = "/".join(key.split(".")[:2])
    with pytest.raises(ConfigError, match=f"^invalid config: .*nan.* \\(at {at}\\)$"):
        load_config(path)


def test_integer_beyond_the_float_range_at_a_float_key_is_a_config_error(workspace, tmp_path):
    _, config_path = workspace
    path = _config_copy(
        config_path, tmp_path, lambda raw: raw["index"].update(rate_limit_per_sec=10**400)
    )
    with pytest.raises(ConfigError, match=r"^invalid config: .* \(at index/rate_limit_per_sec\)$"):
        load_config(path)


@pytest.mark.parametrize("key", ["index.rate_limit_per_sec", "provider.rate_limit_per_sec"])
def test_infinite_rate_limit_loads(workspace, tmp_path, key):
    _, config_path = workspace
    path = _config_copy(config_path, tmp_path, lambda raw: _FLOAT_KEYS[key](raw, float("inf")))
    config = load_config(path)
    assert math.inf in (config.rate_limit_per_sec, config.provider_rate_limit)


def test_null_for_an_optional_key_takes_its_default(workspace, tmp_path):
    _, config_path = workspace

    def edit(raw):
        raw["runs"]["vanilla"] = None
        raw["index"].update(rate_limit_per_sec=None, max_in_flight=None)
        raw["graph"]["strategy"] = None

    config = load_config(_config_copy(config_path, tmp_path, edit))
    assert (config.vanilla_runs, config.rate_limit_per_sec, config.max_in_flight) == (1, 3.0, 1)
    assert config.graph_strategy == "vanilla"


# ---------------------------------------------------------------------------
# Run identity
# ---------------------------------------------------------------------------


def _ingest_hash(config_path, tmp_path, name, overrides=None):
    """The manifest hash of an ingest-only run into its own output directory."""
    config = load_config(
        config_path,
        {"out_dir": str(tmp_path / name), "cache_dir": str(tmp_path / "cache"), **(overrides or {})},
    )
    return run_pipeline(config, ["ingest"])["manifest_hash"]


def _copy_run(root, tmp_path):
    """A private copy of the completed run's output and cache directories."""
    out_dir, cache_dir = tmp_path / "out", tmp_path / "cache"
    shutil.copytree(root / "out", out_dir)
    shutil.copytree(root / "cache", cache_dir)
    return out_dir, cache_dir


def test_model_and_runs_overrides_change_manifest_hash(workspace, tmp_path):
    _, config_path = workspace
    hashes = [
        _ingest_hash(config_path, tmp_path, name, overrides)
        for name, overrides in (
            ("base", {}),
            ("model", {"model_id": "other-model"}),
            ("runs", {"vanilla_runs": 1}),
        )
    ]
    assert len(set(hashes)) == 3


def test_config_file_name_does_not_enter_the_manifest_hash(workspace, tmp_path):
    # two copies of one config with its own thresholds, saved under two names
    _, config_path = workspace
    edited = _config_copy(
        config_path, tmp_path, lambda raw: raw.update(matching={"thresholds": _THRESHOLDS})
    )
    hashes = set()
    for name in ("a.yaml", "b.yaml"):
        config = load_config(shutil.copy(edited, tmp_path / name))
        assert (config.thresholds.as_tuple(), config.thresholds.provenance) == ((0.5, 0.9), "config")
        hashes.add(manifest_hash(run_identity(config, inputs_digest(config))))
    assert len(hashes) == 1


def test_model_override_reruns_generation_and_reports(completed_run, tmp_path):
    root, config_path, _ = completed_run
    out_dir, cache_dir = _copy_run(root, tmp_path)
    config = load_config(
        config_path,
        {"out_dir": str(out_dir), "cache_dir": str(cache_dir), "model_id": "other-model"},
    )
    manifest = run_pipeline(config)
    for stage in STAGES[STAGES.index("generate"):]:
        assert manifest["stages"][stage]["status"] == "ok", stage
    assert manifest["config"]["model_id"] == "other-model"
    summary = (out_dir / "report" / "summary.txt").read_text().splitlines()
    assert "model: other-model" in summary
    assert (out_dir / "runs" / "other-model" / "vanilla-2" / "2203.11111" / "refs.json").is_file()


def test_cli_runs_flag_is_recorded_in_manifest(completed_run, tmp_path):
    root, config_path, _ = completed_run
    out_dir, cache_dir = _copy_run(root, tmp_path)
    argv = ["--config", str(config_path), "--out-dir", str(out_dir), "--cache-dir", str(cache_dir)]
    assert cli.main([*argv, "generate", "--runs", "1"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["vanilla_runs"] == 1
    assert manifest["stages"]["generate"] == {
        "status": "ok",
        "outcomes": {"runs": 1, "ok": 3, "refusal": 0, "parse-failure": 0},
    }


def test_venue_alias_edit_changes_manifest_hash(workspace, tmp_path):
    root, config_path = workspace
    aliases = tmp_path / "venue_aliases.json"
    table = json.loads(resources.files("citebias.data").joinpath("venue_aliases.json").read_text())
    aliases.write_text(json.dumps(table))
    raw = yaml.safe_load(config_path.read_text())
    raw["corpus"]["venue_aliases_path"] = str(aliases)
    raw["corpus"]["sources_dir"] = str(root / "sources")
    raw["index"]["fixture_dir"] = str(root / "index")
    raw["mock_dir"] = str(root / "mock")
    aliased = tmp_path / "aliased.yaml"
    aliased.write_text(yaml.safe_dump(raw))

    before = _ingest_hash(aliased, tmp_path, "before")
    assert _ingest_hash(aliased, tmp_path, "same") == before
    table["NeurIPS"]["keywords"].append("neuralips")
    aliases.write_text(json.dumps(table))
    assert _ingest_hash(aliased, tmp_path, "after") != before


def test_manifest_alone_recomputes_manifest_hash(completed_run):
    root, _, _ = completed_run
    manifest = json.loads((root / "out" / "manifest.json").read_text())
    identity = {key: manifest[key] for key in ("config", "template_hashes", "inputs_digest")}
    assert manifest_hash(identity) == manifest["manifest_hash"]
    markers = sorted((root / "out" / "stages").glob("*.json"))
    assert [marker.stem for marker in markers] == sorted(STAGES)
    for marker in markers:
        assert json.loads(marker.read_text())["manifest_hash"] == manifest["manifest_hash"]


def test_ambiguous_title_is_excluded_not_fatal(workspace, tmp_path):
    root, config_path = workspace
    copy = tmp_path / "ambiguous"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("out", "cache"))
    papers = copy / "index" / "scholar" / "papers"
    duplicate = {**json.loads((papers / "focalA.json").read_text()), "index_id": "focalA_copy"}
    (papers / "focalA_copy.json").write_text(json.dumps(duplicate))

    manifest = run_pipeline(load_config(copy / config_path.relative_to(root)), ["ingest"])
    outcomes = manifest["stages"]["ingest"]["outcomes"]
    assert outcomes["excluded_by_code"] == {"index-ambiguous": 1}
    assert outcomes["resolved"] == 3
    [excluded] = json.loads((copy / "out" / "corpus" / "exclusions.json").read_text())
    assert excluded["preprint_id"] == "2203.11111"
    assert excluded["code"] == "index-ambiguous"
    assert excluded["detail"] == (
        "title 'Adaptive Widget Learning' matches 2 index records: focalA, focalA_copy"
    )


def test_blank_preprint_title_is_excluded_not_fatal(workspace, tmp_path):
    root, config_path = workspace
    copy = tmp_path / "blank"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("out", "cache"))
    records_path = copy / "index" / "preprint" / "records.json"
    records = json.loads(records_path.read_text())
    assert records[0]["preprint_id"] == "2203.11111"
    records[0]["title"] = "  "
    records_path.write_text(json.dumps(records))

    manifest = run_pipeline(load_config(copy / config_path.relative_to(root)), ["ingest"])
    outcomes = manifest["stages"]["ingest"]["outcomes"]
    assert outcomes["resolved"] == 3
    assert outcomes["excluded_by_code"] == {"index-not-found": 1}
    [excluded] = json.loads((copy / "out" / "corpus" / "exclusions.json").read_text())
    assert excluded == {"preprint_id": "2203.11111", "code": "index-not-found", "detail": "blank title"}


def test_second_preprint_resolving_to_a_claimed_record_is_a_duplicate(completed_run, tmp_path):
    root, config_path, _ = completed_run
    copy = tmp_path / "duplicate"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("out", "cache"))
    records_path = copy / "index" / "preprint" / "records.json"
    records = json.loads(records_path.read_text())
    [first] = [rec for rec in records if rec["preprint_id"] == "2203.11111"]
    records.append({**first, "preprint_id": "2204.55555", "posted_date": "2022-04-01"})
    records_path.write_text(json.dumps(records))

    manifest = run_pipeline(load_config(copy / config_path.relative_to(root)), ["ingest"])
    outcomes = manifest["stages"]["ingest"]["outcomes"]
    assert outcomes["resolved"] == 4
    assert outcomes["excluded_by_code"] == {"duplicate-resolution": 1}
    [excluded] = json.loads((copy / "out" / "corpus" / "exclusions.json").read_text())
    assert excluded == {
        "preprint_id": "2204.55555",
        "code": "duplicate-resolution",
        "detail": "focalA already claimed by 2203.11111",
    }

    # every code in an exclusions file is one of the declared EXCL_* codes
    declared = {value for name, value in vars(errors).items() if name.startswith("EXCL_")}
    paths = [copy / "out" / "corpus" / "exclusions.json"]
    paths += [root / "out" / stage / "exclusions.json" for stage in ("corpus", "prepared")]
    codes = {row["code"] for path in paths for row in json.loads(path.read_text())}
    assert codes == {"duplicate-resolution", "no-main"} and codes <= declared


def test_malformed_bib_excludes_its_paper_not_the_run(workspace, tmp_path):
    root, config_path = workspace
    copy = tmp_path / "malformed"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("out", "cache"))
    with (copy / "sources" / "2207.22222" / "refs.bib").open("a") as bib:
        bib.write("\n@article{broken, title={Unclosed\n")

    manifest = run_pipeline(load_config(copy / config_path.relative_to(root)))
    assert manifest["failure"] is None
    prepare = manifest["stages"]["prepare"]["outcomes"]
    assert prepare["excluded_by_code"] == {"no-main": 1, "compile-error": 1}
    [excluded] = [
        item
        for item in json.loads((copy / "out" / "prepared" / "exclusions.json").read_text())
        if item["code"] == "compile-error"
    ]
    assert excluded["preprint_id"] == "2207.22222"
    for paper in ("2203.11111", "2301.33333"):
        assert (copy / "out" / "prepared" / paper / "record.json").is_file()
        assert (copy / "out" / "verdicts" / MODEL_ID / "vanilla-1" / f"{paper}.jsonl").is_file()
    assert (copy / "out" / "report" / "summary.csv").is_file()


# ---------------------------------------------------------------------------
# Rarer stage branches
# ---------------------------------------------------------------------------


def _workspace_copy(completed_run, tmp_path):
    """A copy of the completed run's workspace without its outputs and
    cache, and the path of its config."""
    root, config_path, _ = completed_run
    copy = tmp_path / "copy"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("out", "cache"))
    return copy, copy / config_path.relative_to(root)


def _gt_postprocess(root, paper):
    """The messages and the answer of a paper's ground-truth postprocess call."""
    path = root / "out" / "prepared" / paper / "gt_postprocess_transcript.json"
    transcript = json.loads(path.read_text())
    return [tuple(message) for message in transcript[:-1]], transcript[-1][1]


def test_ground_truth_postprocess_refusal_keeps_the_paper_without_rows(completed_run, tmp_path):
    root, _, first = completed_run
    copy, config = _workspace_copy(completed_run, tmp_path)
    messages, _ = _gt_postprocess(root, "2207.22222")
    store_mock_response(copy / "mock", messages, "")

    manifest = run_pipeline(load_config(config), ["ingest", "prepare"])
    assert manifest["stages"]["prepare"]["outcomes"] == {
        **first["stages"]["prepare"]["outcomes"], "gt_postprocess_failures": 1,
    }
    prepared = copy / "out" / "prepared"
    record = json.loads((prepared / "2207.22222" / "record.json").read_text())
    assert record["gt_postprocess"] == "failed:ProviderRefusal"
    assert record["gt_refs"] == []
    papers = json.loads((prepared / "papers.json").read_text())
    assert "2207.22222" in [paper["preprint_id"] for paper in papers]


def test_near_miss_ground_truth_title_resolves_fuzzily(completed_run, tmp_path):
    root = completed_run[0]
    copy, config = _workspace_copy(completed_run, tmp_path)
    messages, answer = _gt_postprocess(root, "2203.11111")
    exact = "| Foundations of Adaptive Widgets |"
    assert exact in answer
    store_mock_response(
        copy / "mock", messages, answer.replace(exact, "| Fundations of Adaptive Widgets |")
    )

    run_pipeline(load_config(config), ["ingest", "prepare"])
    record = json.loads((copy / "out" / "prepared" / "2203.11111" / "record.json").read_text())
    resolutions = {row["citation_number"]: row["resolution"] for row in record["gt_refs"]}
    assert resolutions == {1: "fuzzy:0.967", **dict.fromkeys(range(2, 7), "exact")}
    assert record["gt_refs"][0]["index_id"] == "a1"


def test_iteration_is_skipped_when_every_slot_exists(completed_run, tmp_path):
    root = completed_run[0]
    copy, config = _workspace_copy(completed_run, tmp_path)
    paper, run_index = "2301.33333", 2
    content = (root / "out" / "prepared" / paper / "main_content.txt").read_text()
    plan = {1: ("id", "sc1"), 2: ("id", "l1"), 3: ("id", "sc3"), 4: ("id", "iso1")}
    store_plan(copy / "mock", render_vanilla_prompt(content), plan, f"vanilla-{run_index}")

    manifest = run_pipeline(load_config(config), list(STAGES[:5]))
    assert manifest["stages"]["iterate"]["outcomes"]["skipped"] == 1
    runs = copy / "out" / "runs" / MODEL_ID
    vanilla = json.loads((runs / f"vanilla-{run_index}" / paper / "refs.json").read_text())
    iterative = json.loads((runs / f"iterative-{run_index}" / paper / "refs.json").read_text())
    assert iterative == {
        "outcome": "no-iteration-needed",
        "references": vanilla["references"],
        "quarantined": [],
        "anomalies": ["all slots verified existing"],
    }
    verdicts = copy / "out" / "verdicts" / MODEL_ID
    copied = (verdicts / f"iterative-{run_index}" / f"{paper}.jsonl").read_text()
    assert copied == (verdicts / f"vanilla-{run_index}" / f"{paper}.jsonl").read_text()
    assert [json.loads(line)["exists"] for line in copied.splitlines()] == [True] * 4


def test_stage_marker_that_is_not_json_reruns_its_stage(completed_run, tmp_path):
    root, config_path, first = completed_run
    out_dir, cache_dir = _copy_run(root, tmp_path)
    config = load_config(config_path, {"out_dir": str(out_dir), "cache_dir": str(cache_dir)})
    marker = out_dir / "stages" / "report.json"
    marker.write_text('{"manifest_hash": "')  # a marker torn mid-write

    manifest = run_pipeline(config)
    statuses = {stage: info["status"] for stage, info in manifest["stages"].items()}
    assert statuses == {**dict.fromkeys(STAGES, "skipped"), "report": "ok"}
    assert manifest["stages"]["report"]["outcomes"] == first["stages"]["report"]["outcomes"]
    assert json.loads(marker.read_text())["manifest_hash"] == manifest["manifest_hash"]


@pytest.mark.parametrize("text", ["[1]", "1", '"done"', "null"])
def test_stage_marker_that_is_not_a_json_object_reruns_its_stage(workspace, tmp_path, text):
    # JSON that holds no object holds no manifest hash either: the stage
    # is not done, as for a marker that is not JSON at all
    _, config_path = workspace
    overrides = {"out_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "cache")}
    config = load_config(config_path, overrides)
    run_pipeline(config, ["ingest"])
    marker = tmp_path / "out" / "stages" / "ingest.json"
    marker.write_text(text)

    manifest = run_pipeline(config, ["ingest"])
    assert manifest["stages"]["ingest"]["status"] == "ok"
    assert json.loads(marker.read_text())["manifest_hash"] == manifest["manifest_hash"]


# ---------------------------------------------------------------------------
# Refusals
# ---------------------------------------------------------------------------

# (paper, run) whose vanilla, and whose iterative, prompt is answered empty
VANILLA_REFUSAL = ("2207.22222", 1)
ITERATIVE_REFUSAL = ("2203.11111", 1)


@pytest.fixture(scope="module")
def refusal_run(completed_run, tmp_path_factory):
    """A full run on a copy of the workspace whose replay store refuses one
    vanilla and one iterative prompt; returns its output dir and manifest."""
    root, config_path, _ = completed_run
    copy = tmp_path_factory.mktemp("refusals")
    shutil.copytree(root, copy, dirs_exist_ok=True, ignore=shutil.ignore_patterns("out", "cache"))
    runs = root / "out" / "runs" / MODEL_ID

    paper, run_index = VANILLA_REFUSAL
    content = (root / "out" / "prepared" / paper / "main_content.txt").read_text()
    store_mock_response(copy / "mock", render_vanilla_prompt(content), "", f"vanilla-{run_index}")

    paper, run_index = ITERATIVE_REFUSAL
    transcript = json.loads((runs / f"iterative-{run_index}" / paper / "transcript.json").read_text())
    messages = [tuple(message) for message in transcript[:-1]]
    store_mock_response(copy / "mock", messages, "", f"iterative-{run_index}")

    manifest = run_pipeline(load_config(copy / config_path.relative_to(root)))
    return copy / "out", manifest


def test_vanilla_refusal_is_recorded_and_iterate_skips_it(refusal_run):
    out_dir, manifest = refusal_run
    paper, run_index = VANILLA_REFUSAL
    runs = out_dir / "runs" / MODEL_ID
    vanilla_dir = runs / f"vanilla-{run_index}" / paper
    refs = json.loads((vanilla_dir / "refs.json").read_text())
    assert refs == {"outcome": "refusal", "references": [], "quarantined": [], "anomalies": []}
    transcript = json.loads((vanilla_dir / "transcript.json").read_text())
    assert transcript[-1] == ["assistant", ""]
    assert manifest["stages"]["generate"]["outcomes"] == {
        "runs": 2, "ok": 5, "refusal": 1, "parse-failure": 0,
    }
    assert manifest["stages"]["iterate"]["outcomes"]["parent-failed"] == 1
    iterative = json.loads((runs / f"iterative-{run_index}" / paper / "refs.json").read_text())
    assert iterative["outcome"] == "parent-refusal"
    assert iterative["references"] == []


def test_iterative_refusal_keeps_parent_refs_verdicts_and_transcript(refusal_run):
    out_dir, manifest = refusal_run
    paper, run_index = ITERATIVE_REFUSAL
    runs = out_dir / "runs" / MODEL_ID
    iterative = json.loads((runs / f"iterative-{run_index}" / paper / "refs.json").read_text())
    vanilla = json.loads((runs / f"vanilla-{run_index}" / paper / "refs.json").read_text())
    assert iterative["outcome"] == "refusal"
    assert iterative["references"] == vanilla["references"]
    assert iterative["anomalies"] == ["iterative refusal; parent kept"]
    verdicts = out_dir / "verdicts" / MODEL_ID
    assert (verdicts / f"iterative-{run_index}" / f"{paper}.jsonl").read_bytes() == (
        verdicts / f"vanilla-{run_index}" / f"{paper}.jsonl"
    ).read_bytes()
    assert manifest["stages"]["iterate"]["outcomes"]["refusal"] == 1
    transcript = json.loads((runs / f"iterative-{run_index}" / paper / "transcript.json").read_text())
    assert transcript[-1] == ["assistant", ""]


# ---------------------------------------------------------------------------
# Empty corpus
# ---------------------------------------------------------------------------


def test_empty_corpus_emits_header_only_reports(workspace, tmp_path):
    root, config_path = workspace
    raw = yaml.safe_load(config_path.read_text())
    raw["corpus"]["window"] = ["2010-01-01", "2010-01-02"]
    raw["out_dir"] = str(tmp_path / "empty_out")
    raw["cache_dir"] = str(tmp_path / "empty_cache")
    empty_config = tmp_path / "empty.yaml"
    empty_config.write_text(yaml.safe_dump(raw))
    config = load_config(empty_config)
    # resolve relative dirs against the original workspace
    config.sources_dir = root / "sources"
    config.fixture_dir = root / "index"
    config.mock_dir = root / "mock"
    manifest = run_pipeline(config)
    assert manifest["failure"] is None
    report = tmp_path / "empty_out" / "report"
    summary_lines = (report / "summary.csv").read_text().splitlines()
    assert summary_lines[1] == "metric"
    assert len(summary_lines) == 2
    overlap_lines = (report / "overlap.csv").read_text().splitlines()
    assert overlap_lines[1] == "run"
    assert len(overlap_lines) == 2


# ---------------------------------------------------------------------------
# Artifact codec
# ---------------------------------------------------------------------------


def _random_artifacts(rng):
    """One seeded instance of every dataclass the stages write to disk."""
    from fractions import Fraction

    from citebias.corpus import PaperRecord, Venue
    from citebias.llmgate import GeneratedReference
    from citebias.matcher import MatchCandidate, MatchVerdict
    from citebias.stats import HEADLINE, BiasBin, BiasTable, Histogram, RunSummary

    def maybe(value):
        return value if rng.random() < 0.7 else None

    def text():
        return "".join(rng.choice("abcé xyz") for _ in range(rng.randint(0, 12)))

    def pct():
        return maybe(Fraction(rng.randint(0, 300), rng.randint(1, 97)))

    venue = Venue(rng.choice(["NeurIPS", "Others"]), text())
    candidate = MatchCandidate(text(), rng.random(), rng.random())
    return [
        (PaperRecord, PaperRecord(
            text(), text(), text(), venue, rng.randint(1990, 2024), "2022-03-05",
            [text() for _ in range(rng.randint(0, 3))],
            [text() for _ in range(rng.randint(0, 3))],
            set(rng.sample(range(1, 40), rng.randint(0, 5))),
        )),
        (GeneratedReference, GeneratedReference(
            rng.randint(1, 40), text(), text(), [text()], maybe(rng.randint(1, 9)),
            maybe(rng.randint(1990, 2024)), venue, rng.choice(["vanilla", "iterative"]),
            rng.random() < 0.5, rng.random() < 0.5,
        )),
        (MatchVerdict, MatchVerdict(True, candidate.index_id, candidate, (rng.random(), 0.5))),
        (MatchVerdict, MatchVerdict(False, None, None, (0.9, rng.random()))),
        (RunSummary, RunSummary(
            {key: pct() for key, *_ in HEADLINE}, (rng.randint(0, 9), 0),
            {"total_refs": rng.randint(0, 9)},
        )),
        (Histogram, Histogram(
            [(text(), rng.randint(0, 9)) for _ in range(rng.randint(0, 4))],
            rng.randint(0, 9), rng.randint(0, 9),
            rng.choice([None, rng.randint(0, 99), rng.random() * 100]),
        )),
        (BiasTable, BiasTable(
            rng.choice(["venue", "subperiod"]), "citation_count",
            [BiasBin(text(), maybe(rng.random()), maybe(2.5), maybe(-1.0), rng.randint(0, 9), 3)
             for _ in range(rng.randint(0, 3))],
            rng.randint(0, 9),
        )),
    ]


def test_codec_round_trips_stage_artifacts():
    import random

    from citebias.clients import dump_json, from_json, to_json

    for seed in range(200):
        for cls, value in _random_artifacts(random.Random(seed)):
            data = json.loads(dump_json(to_json(value)))
            assert from_json(cls, data) == value, (seed, cls.__name__)


def test_codec_missing_field_takes_default():
    from citebias.clients import from_json
    from citebias.llmgate import GeneratedReference

    row = {  # a refs.json row written before et_al existed
        "citation_number": 3, "raw_text": "| 3 | A |", "title": "T", "authors": ["A"],
        "author_count": 1, "year": 2020, "venue": {"canonical": "ICML", "raw": "ICML"},
        "source_strategy": "vanilla", "range_derived": False,
    }
    ref = from_json(GeneratedReference, row)
    assert ref.et_al is False
    assert ref.venue.canonical == "ICML" and ref.authors == ["A"]


def oracle_to_json(obj):
    """The reflective encoder: each value's kind tested where it is met."""
    import dataclasses
    from fractions import Fraction

    if dataclasses.is_dataclass(obj):
        return {f.name: oracle_to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, (set, frozenset)):
        return sorted(oracle_to_json(item) for item in obj)
    if isinstance(obj, (list, tuple)):
        return [oracle_to_json(item) for item in obj]
    if isinstance(obj, dict):
        return {key: oracle_to_json(value) for key, value in obj.items()}
    return obj


def oracle_from_json(tp, data):
    """The reflective decoder: the declared type inspected for every value."""
    import dataclasses
    import types
    import typing
    from fractions import Fraction

    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        if data is None:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return oracle_from_json(inner, data)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return tp(
            **{
                f.name: oracle_from_json(hints[f.name], data[f.name])
                for f in dataclasses.fields(tp)
                if f.name in data
            }
        )
    if tp is Fraction:
        return Fraction(*data)
    if origin in (list, set):
        return origin(oracle_from_json(args[0], item) for item in data)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(oracle_from_json(args[0], item) for item in data)
        return tuple(oracle_from_json(arg, item) for arg, item in zip(args, data))
    if origin is dict:
        return {key: oracle_from_json(args[1], value) for key, value in data.items()}
    return data


def assert_same(actual, expected, where="value"):
    """Equal, with the same type and key order at every level."""
    import dataclasses

    assert type(actual) is type(expected), (where, type(actual), type(expected))
    if dataclasses.is_dataclass(expected):
        for f in dataclasses.fields(expected):
            assert_same(getattr(actual, f.name), getattr(expected, f.name), f"{where}.{f.name}")
    elif isinstance(expected, dict):
        assert list(actual) == list(expected), where
        for key in expected:
            assert_same(actual[key], expected[key], f"{where}[{key!r}]")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), where
        for i, (item, wanted) in enumerate(zip(actual, expected)):
            assert_same(item, wanted, f"{where}[{i}]")
    else:
        assert actual == expected, where


def _codec_cases(workspace):
    """(declared type, value) for every stage artifact of seeds 0-199 and
    for a loaded config, also with subperiod bins set."""
    import dataclasses
    import random

    _, config_path = workspace
    config = load_config(config_path)
    bins = [("<2019", None, 2018), ("2019-2020", 2019, 2020), (">2020", 2021, None)]
    binned = dataclasses.replace(config, subperiod_bins=bins)
    cases = [(type(config), config), (type(config), binned)]
    for seed in range(200):
        cases.extend(_random_artifacts(random.Random(seed)))
    return cases


def test_encoder_matches_reflective_oracle(workspace):
    # run_identity hashes to_json(config), so the JSON text must agree too
    from citebias.clients import to_json

    for cls, value in _codec_cases(workspace):
        encoded, expected = to_json(value), oracle_to_json(value)
        assert_same(encoded, expected, cls.__name__)
        assert json.dumps(encoded, default=str) == json.dumps(expected, default=str)


def test_decoder_matches_reflective_oracle(workspace):
    from citebias.clients import from_json

    for cls, value in _codec_cases(workspace):
        data = json.loads(json.dumps(oracle_to_json(value), default=str))
        decoded = from_json(cls, data)
        assert_same(decoded, oracle_from_json(cls, data), cls.__name__)
        assert json.loads(json.dumps(oracle_to_json(value), default=str)) == data  # not mutated


def test_decoder_returns_new_containers():
    from citebias.clients import from_json
    from citebias.corpus import PaperRecord

    data = ["a", "b"]
    assert from_json(list[str], data) == data
    assert from_json(list[str], data) is not data
    assert from_json(tuple[str, ...], data) == ("a", "b")
    row = {
        "preprint_id": "2203.01234", "index_id": "p1", "title": "T",
        "venue": {"canonical": "ICML", "raw": "ICML"}, "year": 2022, "posted_date": "2022-03-05",
        "authors": data, "intro_reference_numbers": [3, 1],
    }
    record = from_json(PaperRecord, row)
    assert record.authors == data and record.authors is not data
    assert record.reference_ids == [] and record.intro_reference_numbers == {1, 3}


# ---------------------------------------------------------------------------
# Input digest and the fixture read
# ---------------------------------------------------------------------------


def oracle_digest_tree(digest, root):
    """One input root into the digest by ``rglob`` and ``sorted(Path)``."""
    if root is None or not root.exists():
        return
    paths = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
    for path in paths:
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\1")


def oracle_inputs_digest(config):
    digest = hashlib.sha256()
    for root in (config.sources_dir, config.fixture_dir, config.mock_dir, config.venue_aliases_path):
        oracle_digest_tree(digest, root)
    return digest.hexdigest()


# names that order differently as strings and as path parts ("a-b" and
# "a.b" sort before "a/b" as strings, after it as parts), dotfiles, spaces
# and non-ASCII
PATH_PARTS = ["a", "b", "a-b", "a.b", "a b", "ab", ".hidden", "B", "\u00e9"]
tree_files = st.lists(
    st.tuples(st.lists(st.sampled_from(PATH_PARTS), min_size=1, max_size=3), st.binary(max_size=6)),
    max_size=10,
)


def _write_tree(root, files):
    """Write ``files`` (parts, bytes) under ``root``, skipping any that
    would need a file where a directory is or the reverse."""
    root.mkdir()
    for parts, data in files:
        path = root.joinpath(*parts)
        if any(parent.is_file() for parent in path.parents) or path.is_dir():
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


@settings(deadline=None, max_examples=60)
@given(sources=tree_files, index=tree_files, link_at=st.sampled_from(PATH_PARTS))
@example(
    sources=[(["a-b"], b"1"), (["a", "b"], b"2"), (["a.b"], b"3"), (["a", "c", "d"], b"4")],
    index=[([".x"], b""), (["a", "a-b"], b"5"), (["a", "a", "b"], b"6")],
    link_at="a b",
)
def test_inputs_digest_matches_rglob_sort(sources, index, link_at):
    from citebias.clients import read_tree

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_tree(tmp / "sources", sources)
        _write_tree(tmp / "index", index)
        # a symlinked file is read through, a symlinked directory is not
        # entered, and a dangling link is no file
        links = tmp / "sources" / "links" / link_at
        links.mkdir(parents=True)
        (links / "file").symlink_to(tmp / "aliases.json")
        (links / "dir").symlink_to(tmp / "index", target_is_directory=True)
        (links / "dangling").symlink_to(tmp / "missing")
        (tmp / "aliases.json").write_text('{"NeurIPS": {}}')
        config = SimpleNamespace(
            sources_dir=tmp / "sources",
            fixture_dir=tmp / "index",
            mock_dir=tmp / "no-such-store",
            venue_aliases_path=tmp / "aliases.json",
        )
        expected = oracle_inputs_digest(config)
        assert inputs_digest(config) == expected
        assert inputs_digest(config, read_tree(config.fixture_dir)) == expected


def test_full_run_reads_each_fixture_file_once(workspace, tmp_path, monkeypatch):
    # the run identity and the index client share one read of the tree;
    # read_tree opens each file with os.open relative to its directory's
    # descriptor, and a read through the built-in open would be counted
    # too
    from collections import Counter

    _, config_path = workspace
    config = load_config(
        config_path, {"out_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "cache")}
    )
    index = config.fixture_dir.resolve()
    opened = _count_opens(monkeypatch, index)
    manifest = run_pipeline(config)
    assert manifest["stages"]["ingest"]["status"] == "ok"
    files = [p.relative_to(index).as_posix() for p in index.rglob("*") if p.is_file()]
    assert len(files) > 1
    assert opened == Counter(files)


def test_full_run_reads_each_template_at_most_once(workspace, tmp_path, monkeypatch):
    # the prompts and the recorded template hashes come from one read of
    # each template per process
    from collections import Counter

    from citebias import llmgate

    _, config_path = workspace
    config = load_config(
        config_path, {"out_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "cache")}
    )
    templates = Path(llmgate.__file__).resolve().with_name("templates")
    llmgate.template_text.cache_clear()
    llmgate._template_hashes.cache_clear()
    opened = _count_opens(monkeypatch, templates)
    manifest = run_pipeline(config)
    assert {stage["status"] for stage in manifest["stages"].values()} == {"ok"}
    assert opened == Counter({"vanilla.txt": 1, "postprocess.txt": 1, "iterative.txt": 1})


def _count_opens(monkeypatch, root):
    """A Counter of the files under ``root`` that ``os.open``, ``io.open``
    or the built-in ``open`` opens from now on, by path relative to root.
    A descriptor-relative open resolves through ``/proc/self/fd``;
    directories are opened to be listed, not read, so only files count."""
    import builtins
    import io
    from collections import Counter

    opened = Counter()

    def counting(original):
        def opener(file, *args, dir_fd=None, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                base = Path.cwd() if dir_fd is None else Path(os.readlink(f"/proc/self/fd/{dir_fd}"))
                path = (base / file).resolve()
                if root in path.parents and not path.is_dir():
                    opened[path.relative_to(root).as_posix()] += 1
            if dir_fd is not None:
                kwargs["dir_fd"] = dir_fd
            return original(file, *args, **kwargs)

        return opener

    monkeypatch.setattr(os, "open", counting(os.open))
    monkeypatch.setattr(io, "open", counting(io.open))
    monkeypatch.setattr(builtins, "open", counting(builtins.open))
    return opened


# ---------------------------------------------------------------------------
# Stage reruns
# ---------------------------------------------------------------------------


def test_verify_rerun_leaves_run_manifests_untouched(completed_run, tmp_path):
    # only generate and iterate create runs, so only they write run manifests
    root, config_path, _ = completed_run
    out_dir, cache_dir = _copy_run(root, tmp_path)
    config = load_config(config_path, {"out_dir": str(out_dir), "cache_dir": str(cache_dir)})

    def stamps():
        files = (p for p in (out_dir / "runs").rglob("*") if p.is_file())
        return {str(p): p.stat().st_mtime_ns for p in files}

    before = stamps()
    (out_dir / "stages" / "verify.json").unlink()
    manifest = run_pipeline(config, ["verify"])
    assert manifest["stages"]["verify"]["status"] == "ok"
    assert stamps() == before


def test_analyze_rerun_enriches_only_vanilla_matches(completed_run, tmp_path, monkeypatch):
    # iterative runs feed only the run summaries, so analyze looks up the
    # matched record of each existing vanilla reference and the resolved
    # record of each ground-truth slot once per vanilla run, and nothing else
    from citebias import aggregate

    root, config_path, first = completed_run
    out_dir, cache_dir = _copy_run(root, tmp_path)
    config = load_config(config_path, {"out_dir": str(out_dir), "cache_dir": str(cache_dir)})
    calls = []
    original = aggregate.enrich_reference

    def counted(index_id, client):
        calls.append(index_id)
        return original(index_id, client)

    monkeypatch.setattr(aggregate, "enrich_reference", counted)
    (out_dir / "stages" / "analyze.json").unlink()
    manifest = run_pipeline(config, ["analyze"])
    assert manifest["stages"]["analyze"] == first["stages"]["analyze"]

    matched = [
        json.loads(line)["matched_index_id"]
        for path in (out_dir / "verdicts" / MODEL_ID).glob("vanilla-*/*.jsonl")
        for line in path.read_text().splitlines()
    ]
    resolved = [
        row["index_id"]
        for path in (out_dir / "prepared").glob("*/record.json")
        for row in json.loads(path.read_text())["gt_refs"]
    ]
    expected = [i for i in matched if i] + [i for i in resolved if i] * config.vanilla_runs
    assert sorted(calls) == sorted(expected)
    assert len(calls) == first["stages"]["verify"]["outcomes"]["existing"] + 28 == 49


# ---------------------------------------------------------------------------
# CLI and the stage table
# ---------------------------------------------------------------------------


def test_cli_all_takes_model_and_runs(completed_run, tmp_path):
    root, config_path, _ = completed_run
    out_dir, cache_dir = _copy_run(root, tmp_path)
    argv = ["--config", str(config_path), "--out-dir", str(out_dir), "--cache-dir", str(cache_dir)]
    assert cli.main([*argv, "all", "--model", "other-model", "--runs", "1"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["model_id"] == "other-model"
    assert manifest["config"]["vanilla_runs"] == 1
    assert {stage: info["status"] for stage, info in manifest["stages"].items()} == dict.fromkeys(
        STAGES, "ok"
    )
    assert (out_dir / "verdicts" / "other-model").is_dir()


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--runs", "0"], 1),
        (["--runs", "-1"], 1),
        (["--model", ""], 1),
        (["--runs", "1"], 0),
        ([], 0),
    ],
)
def test_cli_overrides_are_validated_like_the_file(
    workspace, tmp_path, monkeypatch, capsys, flags, code
):
    _, config_path = workspace
    path = _config_copy(config_path, tmp_path, lambda raw: raw.update(refresh=True))
    seen = []

    def recording_run(config, stages):
        seen.append(config)
        return run_pipeline(config, stages)

    monkeypatch.setattr(cli, "run_pipeline", recording_run)
    assert cli.main(["--config", str(path), "ingest", *flags]) == code
    if code:
        assert "invalid config" in capsys.readouterr().err
        assert not seen
    else:
        # refresh: true in the file holds without --refresh
        [config] = seen
        assert config.refresh is True
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["stages"]["ingest"]["status"] == "ok"


@pytest.mark.parametrize("epoch", ["2023-11-14", "99999999999999999"])
def test_malformed_source_date_epoch_is_an_error_naming_it(
    workspace, tmp_path, monkeypatch, capsys, epoch
):
    _, config_path = workspace
    path = _config_copy(config_path, tmp_path, lambda raw: None)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    assert cli.main(["--config", str(path), "all"]) == 1
    assert f"error: SOURCE_DATE_EPOCH={epoch!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # it failed before taking the output lock


def test_cli_calibrate_writes_the_bundled_thresholds(tmp_path, capsys):
    # the bundled defaults are what calibrate selects on the bundled pairs
    path = tmp_path / "thresholds.json"
    assert cli.main(["calibrate", "--write-thresholds", str(path)]) == 0
    bundled = resources.files("citebias.data").joinpath("default_thresholds.json")
    assert path.read_bytes() == bundled.read_bytes()
    assert f"wrote {path}" in capsys.readouterr().out


def test_cli_pipeline_command_without_config_exits_2(capsys):
    assert cli.main(["ingest"]) == 2
    assert "error: --config is required" in capsys.readouterr().err


@pytest.mark.parametrize("data", [None, b"\xff\xfe"], ids=["missing", "not-utf8"])
def test_cli_unreadable_config_exits_1(tmp_path, capsys, data):
    path = tmp_path / "config.yaml"
    if data is not None:
        path.write_bytes(data)
    assert cli.main(["--config", str(path), "all"]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read config {path}")


def test_cli_reversed_window_is_a_config_error(workspace, tmp_path, capsys):
    _, config_path = workspace
    path = _config_copy(
        config_path, tmp_path, lambda raw: raw["corpus"].update(window=["2023-10-31", "2022-03-01"])
    )
    assert cli.main(["--config", str(path), "ingest"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ")
    assert err.rstrip("\n").endswith(" (at corpus/window)")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_prints_the_same_outcomes_for_a_stage_run_and_skipped(
    completed_run, tmp_path, capsys
):
    root, config_path, _ = completed_run
    _, cache_dir = _copy_run(root, tmp_path)
    argv = ["--config", str(config_path), "--cache-dir", str(cache_dir)]
    argv += ["--out-dir", str(tmp_path / "fresh"), "all"]
    assert cli.main(argv) == 0
    ran = capsys.readouterr().out.splitlines()
    assert cli.main(argv) == 0
    skipped = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in ran] == [f"{stage}:" for stage in STAGES]
    assert [line.replace(": ok ", ": skipped ", 1) for line in ran] == skipped
    assert 'prepare: ok {"excluded": 1, "excluded_by_code": {"no-main": 1},' in ran[1]


@pytest.mark.parametrize(
    "edit",
    [
        lambda rec: {**rec, "posted_date": 20220301},
        lambda rec: {**rec, "title": None},
        lambda rec: {**rec, "preprint_id": 2203.11111},
        lambda rec: "not a record",
    ],
    ids=["int-date", "null-title", "float-id", "not-an-object"],
)
def test_malformed_preprint_record_is_an_error_naming_it(workspace, tmp_path, capsys, edit):
    root, config_path = workspace
    index = tmp_path / "index"
    shutil.copytree(root / "index", index)
    records_path = index / "preprint" / "records.json"
    records = json.loads(records_path.read_text())
    records[0] = edit(records[0])
    records_path.write_text(json.dumps(records))
    path = _config_copy(
        config_path, tmp_path, lambda raw: raw["index"].update(fixture_dir=str(index))
    )
    assert cli.main(["--config", str(path), "all"]) == 1
    err = capsys.readouterr().err
    assert "error: malformed preprint record" in err
    assert repr(records[0]) in err


def test_fixture_index_without_preprint_records_is_an_error(workspace, tmp_path, capsys):
    # a misspelled index.fixture_dir, say: ingest's listing names the file
    root, config_path = workspace
    index = tmp_path / "index"
    shutil.copytree(root / "index", index)
    (index / "preprint" / "records.json").unlink()
    path = _config_copy(
        config_path, tmp_path, lambda raw: raw["index"].update(fixture_dir=str(index))
    )
    assert cli.main(["--config", str(path), "all"]) == 1
    err = capsys.readouterr().err
    assert f"error: {index / 'preprint' / 'records.json'}: no such file" in err


def test_replay_entry_that_is_not_utf8_is_an_error_naming_it(workspace, tmp_path, capsys):
    root, config_path = workspace
    mock = tmp_path / "mock"
    shutil.copytree(root / "mock", mock)
    for entry in mock.rglob("*.txt"):
        entry.write_bytes(b"\xff\xfe" + entry.read_bytes())
    path = _config_copy(config_path, tmp_path, lambda raw: raw.update(mock_dir=str(mock)))
    assert cli.main(["--config", str(path), "all"]) == 1
    err = capsys.readouterr().err
    assert re.search(rf"error: replay entry {re.escape(str(mock))}/\S+\.txt is not UTF-8", err)


@pytest.mark.parametrize("command", [*STAGES, "all"])
def test_every_pipeline_command_parses_model_and_runs(command):
    args = cli.build_parser().parse_args([command, "--model", "gpt-4o", "--runs", "5"])
    assert (args.command, args.model_id, args.vanilla_runs) == (command, "gpt-4o", 5)


def test_readme_stage_table_lists_stages_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    start = next(i for i, line in enumerate(lines) if line.replace(" ", "").startswith("|stage|"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip())
    assert tuple(rows) == STAGES
