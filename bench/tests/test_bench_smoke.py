"""Smoke test of the benchmark at tiny scale.

Run from the repository root with ``python3 -m pytest bench/tests``; the
repository's own test suite does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))
from workspace import WORKLOADS as BUILT  # noqa: E402

sys.path.remove(str(BENCH))
# every workload bench/run.py knows, also warm-corpus, which BENCHMARK.json
# does not list (see bench/README.md)
WORKLOADS = sorted(BUILT)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def results():
    """The printed lines of a tiny run of every workload, untraced and traced."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                        "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stdout + proc.stderr
            out[workload, trace] = proc.stdout.strip().splitlines()
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_is_correct_and_prints_every_metric(results, workload, trace):
    lines = results[workload, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.split()[:2] == ["failed_ratio", "0"] for line in lines)

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _layer(results, workload: str) -> dict[str, float]:
    metrics = json.loads(results[workload, 1][-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def test_every_layer_metric_is_nonzero_on_some_workload(results):
    layers = [_layer(results, w) for w in WORKLOADS]
    assert [m["name"] for m in SPEC["per_layer"] if not any(lay[m["name"]] for lay in layers)] == []


def test_layer_predictions_at_tiny_scale(results):
    warm, cold = _layer(results, "warm-corpus"), _layer(results, "cold-corpus")
    assert warm["clients.search_title.calls"] == 0
    assert cold["clients.search_title.calls"] > 0
    assert cold["llmgate.reask_ratio"] > 0
    assert cold["pipeline.inputs_digest.calls"] == 4  # as in one full run
    for lay in (warm, cold):
        stages = sum(v for k, v in lay.items() if k.startswith("pipeline.stage."))
        assert stages == pytest.approx(lay["trace.stage_sum_s"])
        assert lay["trace.stage_sum_s"] == pytest.approx(
            lay["trace.untraced_wall_s"] + lay["trace.overhead_s"])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_patched_object():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import citebias.pipeline as pipeline
        from citebias import clients, matcher
        from spans import Tracer

        originals = (pipeline.search_candidates, matcher.title_similarity,
                     clients.FixtureIndexClient.search_title, clients.JsonCache.load)
        with Tracer():
            assert pipeline.search_candidates is not originals[0]
            assert matcher.title_similarity is not originals[1]
            assert clients.FixtureIndexClient.search_title is not originals[2]
        assert (pipeline.search_candidates, matcher.title_similarity,
                clients.FixtureIndexClient.search_title, clients.JsonCache.load) == originals
    finally:
        del sys.path[:2]


@pytest.mark.parametrize("n, pct", [(19, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
                                    (1000, 99.0), (10000, 99.9)])
def test_pmax_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    sys.path.insert(0, str(BENCH))
    try:
        from spans import pmax
    finally:
        sys.path.remove(str(BENCH))
    got_pct, value = pmax([float(i) for i in range(n)])
    assert got_pct == pct
    beyond = sum(1 for i in range(n) if i > value)
    assert beyond >= 10 or n < 20
