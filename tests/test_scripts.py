"""Smoke tests for the scripts under ``scripts/``.

Each smoke test runs a script in a fresh ``python -B`` subprocess with the
package on ``PYTHONPATH``, the way a reader of the README would run it.  A
test that plants a fault runs the script in this process instead, so that
``monkeypatch`` reaches the library function the script imports.
"""

from __future__ import annotations

import dataclasses
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import mixedcayley

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


def test_run_verification_sweeps_exits_2_when_the_counts_differ(monkeypatch, capsys):
    """An enumeration total one above the exhaustive sweep's count on Z_9
    is a falsified theorem, not a pass."""
    enumerate_hs_integral = mixedcayley.enumerate_hs_integral

    def off_by_one(group, budget=None):
        stream = enumerate_hs_integral(group, budget)
        return dataclasses.replace(stream, total=stream.total + 1)

    monkeypatch.setattr(mixedcayley, "enumerate_hs_integral", off_by_one)
    script = REPO / "scripts" / "run_verification_sweeps.py"
    monkeypatch.setattr(sys, "argv", [str(script), "9"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["exhaustive"] is True and payload["counterexamples"] == []
    assert payload["enumerated_total"] == payload["hs_integral_count"] + 1 == 17
    assert err == "9: the sweep found 16 HS-integral sets, the enumeration 17\n"
