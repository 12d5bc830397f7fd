"""Each demo script prints exactly its recorded output.

The demos are deterministic; a golden file under ``tests/golden/`` holds
the stdout of ``demos/<name>.py`` as ``<name>.txt``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert {d.stem for d in DEMOS} == {g.stem for g in (ROOT / "tests" / "golden").glob("*.txt")}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_text()
