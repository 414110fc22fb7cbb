"""citebias benchmark: end-to-end and per-layer timing of ``run_pipeline``.

    python3 bench/run.py --workload cold-corpus --seed 1 --seconds 55 --trace 0

Builds the seeded workspace of the named workload (``bench/workspace.py``,
in a child process, untimed), then calls ``run_pipeline`` on it over and
over, one call at a time, until ``--seconds`` have passed. Before each
call it resets ``out/`` (and ``cache/`` for the cold workloads) and times
the set-up a run pays before any stage works: ``load_config`` plus the
first full load of the fixture index. After each call it checks the
outputs against the workspace plan: every verdict file, every stage's
outcome counts, and the digest of the ``out/`` tree, which must be the
same on every repetition.

``--trace 0`` reports the end-to-end metrics: mean wall time of a call,
verified references per second, median set-up time and the process's
peak resident memory. ``--trace 1`` repeats three calls in turn: an untraced
full call, a traced full call with the layers wrapped from outside
(``bench/spans.py``), which gives the per-layer metrics, and a traced
stage-by-stage run, one ``run_pipeline(config, [stage])`` call per stage,
which gives the stage times. It reports their medians and the tracing
overhead, split into the cost of the wrappers and the cost of running
stage by stage, and writes the spans of the last traced full call to
``bench/.work/traces/<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of ``BENCHMARK.json``. The lines before it print
every metric with its unit, ``failed_ratio`` and the name of every
failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from statistics import median

from spans import Tracer, pmax
from workspace import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC_PATH = HERE.parent / "BENCHMARK.json"
WORK = HERE / ".work"
EPOCH = "1700000000"
MIN_REPS = 3
BUILD_TIMEOUT_S = 150


def tree_digest(root: Path, skip: tuple[str, ...] = ()) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel in skip:
            continue
        digest.update(rel.encode("utf-8") + b"\0" + path.read_bytes() + b"\1")
    return digest.hexdigest()


class Checks:
    """Compares one run's outputs with the workspace plan.

    ``failed`` counts each reference whose verdict differs from the plan
    and each other failed check once.
    """

    def __init__(self, plan: dict):
        self.plan = plan
        self.failures: Counter = Counter()
        for failure in plan["build_check_failures"]:
            self.fail(f"build-check {failure}")

    def fail(self, name: str, count: int = 1) -> None:
        self.failures[name] += count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def verdicts(self, out: Path) -> None:
        base = out / "verdicts" / "mock-model"
        for run, papers in self.plan["verdicts"].items():
            for paper, expected in papers.items():
                path = base / run / f"{paper}.jsonl"
                got: dict[str, str | None] = {}
                if path.is_file():
                    for line in path.read_text(encoding="utf-8").splitlines():
                        row = json.loads(line)
                        got[str(row["citation_number"])] = (
                            row["matched_index_id"] if row["exists"] else None
                        )
                wrong = sum(1 for n, v in expected.items() if n not in got or got[n] != v)
                wrong += len(set(got) - set(expected))
                if wrong:
                    self.fail(f"verdicts:{run}/{paper}", wrong)

    def outcomes(self, stage: str, manifest: dict) -> None:
        expected = self.plan["outcomes"].get(stage)
        got = manifest["stages"].get(stage, {})
        if got.get("status") != "ok" or (expected is not None and got.get("outcomes") != expected):
            self.fail(f"outcomes:{stage}")

    def same_tree(self, digest: str, reference: str) -> None:
        if digest != reference:
            self.fail("out-tree-digest")


def reset(ws: Path, warm: bool) -> None:
    shutil.rmtree(ws / "out", ignore_errors=True)
    if not warm:
        shutil.rmtree(ws / "cache", ignore_errors=True)


def timed_setup(ws: Path, plan: dict):
    """The set-up a run pays before any stage: config plus index load."""
    from citebias.clients import FixtureIndexClient
    from citebias.pipeline import load_config

    start = time.perf_counter()
    config = load_config(ws / "config.yaml")
    FixtureIndexClient(config.fixture_dir).get_paper(plan["focal_index_id"])
    return time.perf_counter() - start, config


def full_call(ws: Path, plan: dict, checks: Checks, digests: list[str], tracer=None):
    """One full ``run_pipeline`` call with its checks, under ``tracer`` if
    given; returns (setup_s, wall_s). The first call's ``out/`` digest is
    the reference for every later one."""
    from citebias.pipeline import STAGES, run_pipeline

    reset(ws, plan["warm"])
    setup, config = timed_setup(ws, plan)
    manifest = None
    with tracer or nullcontext():
        start = time.perf_counter()
        try:
            manifest = run_pipeline(config)
        except Exception as exc:  # a failed run is counted, and the next one tried
            checks.fail(f"exception:{type(exc).__name__}")
        wall = time.perf_counter() - start
    if manifest is not None:
        for stage in STAGES:
            checks.outcomes(stage, manifest)
    checks.verdicts(ws / "out")
    digests.append(tree_digest(ws / "out"))
    checks.same_tree(digests[-1], digests[0])
    return setup, wall


def split_call(ws: Path, plan: dict, checks: Checks, reference: str) -> dict[str, float]:
    """The stages as separate ``run_pipeline(config, [stage])`` calls, in
    order, with the layers wrapped; returns the time of each stage."""
    from citebias.pipeline import STAGES, load_config, run_pipeline

    reset(ws, plan["warm"])
    config = load_config(ws / "config.yaml")
    stage_s = dict.fromkeys(STAGES, 0.0)
    with Tracer():
        for stage in STAGES:
            start = time.perf_counter()
            try:
                manifest = run_pipeline(config, [stage])
            except Exception as exc:
                checks.fail(f"exception:{stage}:{type(exc).__name__}")
                break
            finally:
                stage_s[stage] = time.perf_counter() - start
            checks.outcomes(stage, manifest)
    checks.verdicts(ws / "out")
    # a stage-by-stage run rewrites manifest.json with only its last stage
    checks.same_tree(tree_digest(ws / "out", skip=("manifest.json",)), reference)
    return stage_s


def layer_metrics(tracer, stage_s: dict[str, float]) -> dict[str, float]:
    spans = tracer.summary()
    counts = tracer.counts
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    m: dict[str, float] = {}

    def layer(name: str, *stats: str) -> None:
        s = spans.get(name, empty)
        for stat in stats:
            if stat in ("calls", "self_s"):
                m[f"{name}.{stat}"] = s[stat]
            else:  # p50_<unit> / pmax_<unit>
                scale = 1e6 if stat.endswith("_us") else 1e3
                durations = s["durations"]
                if stat.startswith("p50"):
                    m[f"{name}.{stat}"] = median(durations) * scale if durations else 0.0
                else:
                    pct, value = pmax(durations) if durations else (50.0, 0.0)
                    m[f"{name}.{stat}"] = value * scale
                    m[f"{name}.pmax_pct"] = pct

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for stage, seconds in stage_s.items():
        m[f"pipeline.stage.{stage}_s"] = seconds
    layer("pipeline.inputs_digest", "calls", "self_s")
    layer("matcher.title_similarity", "calls", "self_s", "p50_us", "pmax_us")
    layer("matcher.author_similarity", "calls", "self_s")
    layer("matcher.search_candidates", "calls", "self_s")
    m["matcher.candidates_per_search"] = ratio(
        counts["matcher.search_candidates.candidates"], spans.get("matcher.search_candidates", empty)["calls"]
    )
    m["matcher.exists_ratio"] = ratio(
        counts["matcher.decide_existence.exists"], spans.get("matcher.decide_existence", empty)["calls"]
    )
    layer("clients.search_title", "calls", "self_s", "p50_us", "pmax_us")
    layer("clients.get_paper", "calls")
    m["clients.index_load_s"] = spans.get("clients.index_load", empty)["total_s"]
    layer("clients.cache.load", "calls", "self_s")
    m["clients.cache.hit_ratio"] = ratio(
        counts["clients.cache.load.hits"], spans.get("clients.cache.load", empty)["calls"]
    )
    layer("clients.cache.store", "calls", "self_s")
    layer("clients.atomic_write", "calls", "self_s")
    m["clients.atomic_write.bytes"] = counts["clients.atomic_write.bytes"]
    layer("docprep.prepare_source", "calls", "self_s", "p50_ms", "pmax_ms")
    layer("llmgate.send", "calls", "self_s")
    layer("llmgate.parse_reference_table", "calls", "self_s")
    post = spans.get("llmgate.postprocess_references", empty)["calls"]
    parses = spans.get("llmgate.parse_reference_table", empty)["calls"]
    m["llmgate.reask_ratio"] = ratio(parses - post, post)
    layer("corpus.resolve_paper", "calls", "self_s")
    layer("corpus.enrich_reference", "calls", "self_s")
    layer("stats.bias_breakdown", "calls", "self_s")
    layer("stats.characteristics", "self_s")
    layer("citegraph.build_graph", "calls", "self_s")
    layer("citegraph.metrics", "self_s")
    m["textnorm.normalize.calls"] = counts["textnorm.normalize"]
    m["textnorm.tokens.calls"] = counts["textnorm.tokens"]
    return m


def time_left(start: float, seconds: float, walls: list[float]) -> bool:
    """Whether one more call of median length still ends within ``seconds``."""
    return time.perf_counter() - start + median(walls) <= seconds


def measure(ws: Path, plan: dict, seconds: float, checks: Checks) -> tuple[dict, int]:
    """Untraced repetitions; end-to-end metrics and the repetition count.

    ``wall_s`` is the mean call, the time spent in ``run_pipeline`` over
    the calls made, not their median: the host's speed changes in phases
    that last many calls, and the mean moves in proportion to the share of
    the run each phase takes, where the median jumps from one phase's
    speed to the other's as that share crosses one half.
    """
    setups: list[float] = []
    walls: list[float] = []
    digests: list[str] = []
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time_left(start, seconds, walls):
        setup, wall = full_call(ws, plan, checks, digests)
        setups.append(setup)
        walls.append(wall)
    wall = sum(walls) / len(walls)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": wall,
        "refs_per_s": plan["verified_refs"] / wall,
        "setup_s": median(setups),
        "peak_rss_mb": peak_kib / 1024,
    }, len(walls)


def measure_traced(ws: Path, plan: dict, seconds: float, checks: Checks, trace_path: Path):
    """Untraced full, traced full and traced stage-by-stage calls in turn;
    per-layer metrics (medians) and the number of ``run_pipeline`` runs."""
    digests: list[str] = []
    per_rep: list[dict[str, float]] = []
    rep_s: list[float] = []
    start = time.perf_counter()
    while not per_rep or time_left(start, seconds, rep_s):
        rep_start = time.perf_counter()
        _setup, untraced = full_call(ws, plan, checks, digests)
        tracer = Tracer()
        _setup, traced = full_call(ws, plan, checks, digests, tracer)
        stage_s = split_call(ws, plan, checks, tree_digest(ws / "out", skip=("manifest.json",)))
        metrics = layer_metrics(tracer, stage_s)
        split = sum(stage_s.values())
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.traced_wall_s"] = traced
        metrics["trace.stage_sum_s"] = split
        metrics["trace.overhead_s"] = split - untraced
        metrics["trace.wrapper_overhead_s"] = traced - untraced
        metrics["trace.split_overhead_s"] = split - traced
        per_rep.append(metrics)
        rep_s.append(time.perf_counter() - rep_start)
    tracer.write(trace_path)
    names = per_rep[0].keys()
    return {name: median(rep[name] for rep in per_rep) for name in names}, 3 * len(per_rep)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="citebias benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = parser.parse_args(argv)
    if not (SRC / "citebias").is_dir():
        print(f"citebias sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    import citebias.pipeline  # noqa: F401  (imported before anything is timed)

    name = f"{args.workload}-{args.seed}"
    ws = WORK / name
    build = [sys.executable, str(HERE / "workspace.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(ws)] + (["--tiny"] if args.tiny else [])
    subprocess.run(build, check=True, timeout=BUILD_TIMEOUT_S)
    plan = json.loads((ws / "plan.json").read_text(encoding="utf-8"))
    os.environ["SOURCE_DATE_EPOCH"] = EPOCH
    checks = Checks(plan)
    try:
        if args.trace:
            values, runs = measure_traced(ws, plan, args.seconds, checks, WORK / "traces" / f"{name}.jsonl")
        else:
            values, runs = measure(ws, plan, args.seconds, checks)
    finally:
        shutil.rmtree(ws, ignore_errors=True)
    if set(values) != {m["name"] for m in spec}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in spec})}")

    attempted = plan["verified_refs"] * runs
    print(f"{args.workload} seed {args.seed}: {runs} run_pipeline runs, "
          f"{plan['verified_refs']} references each")
    for m in spec:
        print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<40} {checks.failed / attempted:>14.6g} ratio")
    for failure, count in sorted(checks.failures.items()):
        print(f"  FAILED {failure}: {count}")
    result = {
        "correct": checks.failed == 0,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
