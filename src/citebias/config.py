"""Pipeline configuration: ``PipelineConfig``, its schema check and ``load_config``.

Each ``PipelineConfig`` field declares its dotted YAML key path and its
default once; ``load_config`` and ``OVERRIDABLE`` are built from those
declarations. A valid config is admitted by a built-in check of the
bundled schema (``data/config.schema.json``); only a config that check
does not admit imports ``jsonschema``, whose verdict is final.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from . import matcher
from .clients import from_json
from .errors import ConfigError
from .llmgate import ITERATIVE, VANILLA
from .matcher import Thresholds


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


def _parts(tp) -> set:
    """``tp`` and every type nested in its arguments."""
    return {tp}.union(*map(_parts, typing.get_args(tp)))


def _ints(value):
    """``value`` with each float in it, in nested lists or not, as an int."""
    if isinstance(value, list):
        return [_ints(item) for item in value]
    return int(value) if isinstance(value, float) else value


def _field_table():
    """(name, key path, default or None, kind) of each field in declaration
    order; the kind is Path, int or dict where load_config converts or checks,
    int where the type names int at any depth (an integral float is one)."""
    hints = typing.get_type_hints(PipelineConfig)
    for f in dataclasses.fields(PipelineConfig):
        types = _parts(hints[f.name])
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
            value = _ints(value)
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
