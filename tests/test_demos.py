"""The narrative demos run to completion, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))

#: Lines a demo must print, by demo name.
EXPECTED = {
    "03_extremal_sets_and_worst_vertices": [
        "CRT worst vertex: 354, distance from 0: 5",
        "CRT worst vertex (variant II): 4005, distance from 0: 5",
    ],
}


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    for line in EXPECTED.get(path.stem, []):
        assert line in proc.stdout
