"""Pipeline configuration: ``PipelineConfig``, its config check and ``load_config``.

Each ``PipelineConfig`` field declares its dotted YAML key path, its
default and its constraint once: the field's type, plus an optional
``check`` for bounds, patterns and choices. ``load_config`` and
``OVERRIDABLE`` are built from those declarations.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import matcher
from .errors import ConfigError
from .llmgate import ITERATIVE, VANILLA
from .matcher import Thresholds


def _key(key: str, override: bool = False, check: tuple | None = None, **default):
    """A config field read from the dotted YAML key path ``key``; without a
    ``default`` or ``default_factory`` the key is required. ``check`` is a
    (description, test) pair that a value of the field's type must pass."""
    metadata = {"keys": tuple(key.split(".")), "override": override, "check": check}
    return dataclasses.field(metadata=metadata, **default)


def _one_of(*choices: str) -> tuple:
    return " or ".join(choices), set(choices).__contains__


# NaN fails each bound, since every comparison with it is false
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_ABOVE_0 = ("above 0", lambda v: v > 0)
_UNIT = ("0 to 1", lambda v: 0 <= v <= 1)
_NON_EMPTY = ("non-empty", len)
_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_DATES = ("two YYYY-MM-DD dates, the first not after the second",
          lambda v: all(map(_DATE.search, v)) and v[0] <= v[1])


@dataclass(kw_only=True)
class PipelineConfig:
    """Validated pipeline configuration. Each field declares its YAML key
    path, its default and its constraint (its type and ``check``), from
    which ``load_config`` and ``OVERRIDABLE`` are built."""

    window: tuple[str, str] = _key("corpus.window", check=_DATES)
    category: str = _key("corpus.category", check=_NON_EMPTY)
    venue_keywords: list[str] = _key("corpus.venue_keywords", check=_NON_EMPTY)
    blacklist: list[str] = _key("corpus.blacklist", default_factory=list)
    resolve_fuzzy_threshold: float | None = _key(
        "corpus.resolve_fuzzy_threshold", default=None, check=_UNIT
    )
    sources_dir: Path = _key("corpus.sources_dir")
    venue_aliases_path: Path | None = _key("corpus.venue_aliases_path", default=None)
    fixture_dir: Path | None = _key("index.fixture_dir", default=None)
    preprint_url: str | None = _key("index.preprint_url", default=None)
    scholar_url: str | None = _key("index.scholar_url", default=None)
    scholar_api_key_env: str = _key("index.scholar_api_key_env", default="")
    rate_limit_per_sec: float = _key("index.rate_limit_per_sec", default=3.0, check=_ABOVE_0)
    max_in_flight: int = _key("index.max_in_flight", default=1, check=_AT_LEAST_1)
    model_id: str = _key("provider.model_id", override=True, check=_NON_EMPTY)
    provider_kind: str = _key("provider.kind", check=_one_of("mock", "openai"))
    provider_base_url: str | None = _key("provider.base_url", default=None)
    provider_api_key_env: str = _key("provider.api_key_env", default="OPENAI_API_KEY")
    sampling_params: dict = _key("provider.sampling_params", default_factory=dict)
    provider_rate_limit: float = _key("provider.rate_limit_per_sec", default=1.0, check=_ABOVE_0)
    vanilla_runs: int = _key("runs.vanilla", default=1, override=True, check=_AT_LEAST_1)
    iterative: bool = _key("runs.iterative", default=False)
    thresholds: Thresholds = _key(
        "matching.thresholds", default_factory=matcher.default_thresholds,
        check=("0 to 1 each", lambda t: all(0 <= v <= 1 for v in t.as_tuple())),
    )
    search_limit: int = _key(
        "matching.search_limit", default=3, check=("1 to 10", lambda v: 1 <= v <= 10)
    )
    subperiod_bins: list[tuple[str, int | None, int | None]] | None = _key(
        "analysis.subperiod_bins", default=None
    )
    graph_strategy: str = _key("graph.strategy", default=VANILLA, check=_one_of(VANILLA, ITERATIVE))
    graph_run_index: int = _key("graph.run_index", default=1, check=_AT_LEAST_1)
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


def _required(f: dataclasses.Field) -> bool:
    return f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING


@functools.cache
def _required_fields(cls) -> tuple:
    """(name, type) of each field of dataclass ``cls`` that has no default."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls) if _required(f))


_MISFIT = object()


def _fit(tp, value, base: Path):
    """``value`` as a value of the annotation ``tp``, or ``_MISFIT``. A
    number fits int if it is whole and float if it is not a bool, a list
    fits a list or tuple type item by item, a dict fits ``dict`` if it
    holds only JSON values, and a mapping of exactly a dataclass's
    required fields fits that dataclass. A Path resolves against
    ``base``; an absolute one replaces it."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        return None if value is None else _fit(args[0], value, base)
    if isinstance(value, bool) or tp is bool:
        return value if tp is bool and isinstance(value, bool) else _MISFIT
    if tp is int:
        whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        return int(value) if whole else _MISFIT
    if tp is float:
        try:
            return float(value) if isinstance(value, (int, float)) else _MISFIT
        except OverflowError:  # an int beyond the float range
            return _MISFIT
    if tp is str:
        return value if isinstance(value, str) else _MISFIT
    if tp is Path:  # a default is a Path already
        return base / value if isinstance(value, (str, Path)) else _MISFIT
    if origin in (list, tuple):
        if not isinstance(value, list) or origin is tuple and len(value) != len(args):
            return _MISFIT
        item_types = args * len(value) if origin is list else args
        items = [_fit(item_tp, item, base) for item_tp, item in zip(item_types, value)]
        return _MISFIT if any(item is _MISFIT for item in items) else origin(items)
    if tp is dict:
        return value if isinstance(value, dict) and _is_json(value) else _MISFIT
    fields = _required_fields(tp)
    if not isinstance(value, dict) or set(value) != {name for name, _ in fields}:
        return _MISFIT
    items = {name: _fit(field_tp, value[name], base) for name, field_tp in fields}
    return _MISFIT if any(item is _MISFIT for item in items.values()) else tp(**items)


def _is_json(value) -> bool:
    """Whether ``value`` survives a strict JSON round trip unchanged."""
    try:
        return json.loads(json.dumps(value, allow_nan=False)) == value
    except (TypeError, ValueError):  # a type JSON lacks, NaN, infinity or a cycle
        return False


def _field_table():
    """(name, key path, type, annotation text, check, required, default or
    None) of each field, in declaration order."""
    hints = typing.get_type_hints(PipelineConfig)
    for f in dataclasses.fields(PipelineConfig):
        default = None if f.default is dataclasses.MISSING else f.default
        keys, check = f.metadata["keys"], f.metadata["check"]
        yield f.name, keys, hints[f.name], f.type, check, _required(f), default


_CONFIG_FIELDS = tuple(_field_table())

# the keys declared in each section, by section path; () is the root
_SECTIONS: dict[tuple, set] = {}
for _keys in (keys for _, keys, *_ in _CONFIG_FIELDS):
    for _depth in range(len(_keys)):
        _SECTIONS.setdefault(_keys[:_depth], set()).add(_keys[_depth])

# each load_config override and the config key path it sets
OVERRIDABLE = {
    f.name: f.metadata["keys"] for f in dataclasses.fields(PipelineConfig) if f.metadata["override"]
}


def _invalid(reason: str, keys) -> ConfigError:
    return ConfigError(f"invalid config: {reason} (at {'/'.join(map(str, keys))})")


def _check_sections(node: dict, path: tuple = ()) -> None:
    """Raise for the first key ``_SECTIONS`` does not declare, or section
    that is not a mapping, in ``node`` and the sections under it."""
    for key, value in node.items():
        keys = (*path, key)
        if key not in _SECTIONS[path]:
            raise _invalid(f"unknown key {key!r}", keys)
        if keys in _SECTIONS:
            if not isinstance(value, dict):
                raise _invalid(f"{value!r} is not a mapping", keys)
            _check_sections(value, keys)


# libyaml's parser where PyYAML was built with it; the same safe schema
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: Path | str, overrides: dict | None = None) -> PipelineConfig:
    """Load, check and normalize a YAML config file, read with libyaml's
    safe loader when PyYAML has it.

    Each override, named as in ``OVERRIDABLE``, replaces the value at its
    key path before the config check, so an override is checked like the
    file. The check rejects an unknown key and a section that is not a
    mapping, then walks the fields in declaration order: a required key
    must be set, and an optional one that is absent, null or an empty
    list takes the field's default. Each value must fit the field's type,
    which also converts it (a whole float to int, an int to float, a
    string to a Path against the config file's directory), and then pass
    the field's ``check``. The first failure is a ``ConfigError``.
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
        if isinstance(node, dict):  # otherwise the config check names the section
            node[key] = str(value) if isinstance(value, Path) else value
    _check_sections(raw)

    data = {}
    for name, keys, tp, annotation, check, required, default in _CONFIG_FIELDS:
        node = raw
        for section in keys[:-1]:
            node = node.get(section, {})
        value = node.get(keys[-1])
        if value is None:
            if required:
                raise _invalid("a required key is absent or null", keys)
            if default is None:
                continue  # the dataclass fills in its default
            value = default
        fitted = _fit(tp, value, path.parent)
        if fitted is _MISFIT:
            raise _invalid(f"{value!r} does not fit {annotation}", keys)
        if fitted == [] and not required:
            continue
        if check is not None and not check[1](fitted):
            raise _invalid(f"{value!r} is not {check[0]}", keys)
        data[name] = fitted
    cfg = PipelineConfig(**data)
    if cfg.fixture_dir is None and (cfg.preprint_url is None or cfg.scholar_url is None):
        raise ConfigError("index needs either fixture_dir or both service URLs")
    if cfg.provider_kind == "mock" and cfg.mock_dir is None:
        raise ConfigError("mock provider needs mock_dir (or --mock)")
    if cfg.graph_run_index > cfg.vanilla_runs:
        raise ConfigError(f"graph.run_index {cfg.graph_run_index} > runs.vanilla {cfg.vanilla_runs}")
    if cfg.graph_strategy == ITERATIVE and not cfg.iterative:
        raise ConfigError("graph.strategy iterative needs runs.iterative: true")
    return cfg
