"""In-memory span tracing of citebias layers, patched in from outside.

``Tracer.install()`` wraps the public functions each layer exposes,
wherever they are defined and wherever a citebias module imported them
by name, plus the methods of the fixture index, the disk cache and the
replay provider on their classes. ``Tracer.uninstall()`` restores every
original object. Nothing under ``src/`` changes.

A span records (name, start, end, parent). Spans stay in memory until
``write`` is called at the end of a run. Self time is a span's duration
minus the durations of its direct children. Functions called tens of
thousands of times in one run (text normalization) are counted, not
spanned.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

# (module, attribute, span name) for plain functions
FUNCTIONS = (
    ("citebias.pipeline", "inputs_digest", "pipeline.inputs_digest"),
    ("citebias.matcher", "title_similarity", "matcher.title_similarity"),
    ("citebias.matcher", "author_similarity", "matcher.author_similarity"),
    ("citebias.matcher", "search_candidates", "matcher.search_candidates"),
    ("citebias.matcher", "decide_existence", "matcher.decide_existence"),
    ("citebias.clients", "atomic_write_text", "clients.atomic_write"),
    ("citebias.docprep", "prepare_source", "docprep.prepare_source"),
    ("citebias.llmgate", "parse_reference_table", "llmgate.parse_reference_table"),
    ("citebias.llmgate", "postprocess_references", "llmgate.postprocess_references"),
    ("citebias.corpus", "resolve_paper", "corpus.resolve_paper"),
    ("citebias.corpus", "enrich_reference", "corpus.enrich_reference"),
    ("citebias.stats", "bias_breakdown", "stats.bias_breakdown"),
    ("citebias.stats", "characteristics", "stats.characteristics"),
    ("citebias.citegraph", "build_graph", "citegraph.build_graph"),
    ("citebias.citegraph", "metrics_row", "citegraph.metrics"),
)
# (module, class, method, span name)
METHODS = (
    ("citebias.clients", "FixtureIndexClient", "search_title", "clients.search_title"),
    ("citebias.clients", "FixtureIndexClient", "get_paper", "clients.get_paper"),
    ("citebias.clients", "JsonCache", "load", "clients.cache.load"),
    ("citebias.clients", "JsonCache", "store", "clients.cache.store"),
    ("citebias.clients", "JsonCache", "store_not_found", "clients.cache.store"),
    ("citebias.llmgate", "DirectoryMockProvider", "send", "llmgate.send"),
)
COUNTED = (
    ("citebias.textnorm", "normalize", "textnorm.normalize"),
    ("citebias.textnorm", "tokens", "textnorm.tokens"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        """``fn`` wrapped in a span; ``observe(args, result)`` adds counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- observers ---------------------------------------------------------

    def _observe(self, name: str):
        counts = self.counts
        if name == "clients.atomic_write":
            return lambda args, _r: counts.update({name + ".bytes": len(args[1].encode("utf-8"))})
        if name == "clients.cache.load":
            return lambda _a, r: counts.update({name + ".hits": r is not None})
        if name == "matcher.search_candidates":
            return lambda _a, r: counts.update({name + ".candidates": len(r)})
        if name == "matcher.decide_existence":
            return lambda _a, r: counts.update({name + ".exists": bool(r.exists)})
        return None

    def _index_load(self, load):
        """Span only the call of ``_load_papers`` that reads the directory."""
        loading = self.span("clients.index_load", load)

        def traced(client):
            return load(client) if client._papers is not None else loading(client)

        traced.__wrapped__ = load
        return traced

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapped) -> None:
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("citebias") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self.span(name, original, self._observe(name)))
        for mod_name, attr, name in COUNTED:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self.counted(name, original))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.span(name, original, self._observe(name)))
        cls = sys.modules["citebias.clients"].FixtureIndexClient
        self._restore.append((cls, "_load_papers", cls.__dict__["_load_papers"]))
        cls._load_papers = self._index_load(cls.__dict__["_load_papers"])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
            entry["durations"].append(end - start)
        return out


def pmax(durations: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9, p99, p90 and p50 that has
    at least ten samples beyond it; p50 when there are fewer than 20."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct, num, den in ((99.9, 999, 1000), (99.0, 99, 100), (90.0, 9, 10)):
        rank = -(-n * num // den)  # ceil(n * pct / 100), in integers
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, median(ordered) if ordered else 0.0
