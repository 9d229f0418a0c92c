"""Smoke tests for the scripts under ``scripts/``.

Each script runs in a fresh ``python -B`` subprocess with the package on
``PYTHONPATH``, the way a reader of the README would run it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-B", str(REPO / "scripts" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_reproduce_worked_examples():
    proc = run_script("reproduce_worked_examples.py")
    assert proc.returncode == 0, proc.stderr
    assert "HS eigenvalues (lex alpha order): [3, 0, 3, 0, -3, 0, 0, -3, 0]" in proc.stdout


def test_run_verification_sweeps():
    proc = run_script("run_verification_sweeps.py")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines
    for payload in lines:
        assert payload["counterexamples"] == []
        assert payload["hs_integral_count"] == payload["enumerated_total"]
