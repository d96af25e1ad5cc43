"""Every demo script runs to completion against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import magiclab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script):
    paths = [str(Path(magiclab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, cwd=ROOT
    )


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    out = _run(script)
    assert out.returncode == 0, out.stderr
    if script.stem == "02_ccz_and_extent":
        assert "xi = 1.77777778" in out.stdout
