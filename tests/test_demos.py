"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import citebias

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(citebias.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
