"""Smoke test: every narrative demo script and the README quick start run to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with src/ first on PYTHONPATH and check it exits 0 cleanly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    return proc


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    run_python(str(demo))


def test_readme_quick_start_runs():
    # The python block under "Library quick start", exactly as a reader copies it.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "CompiledModel" in code
    assert run_python("-c", code).stdout
