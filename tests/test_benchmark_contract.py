"""The benchmark's traced run pins call counts of public functions.

``bench/tracer.self_test`` checks them against hand-derived values on two
tiny CLI commands; a change that moves one would make every traced
benchmark run report incorrect outputs.  It runs in a subprocess because
the tracer monkeypatches the package's namespaces, and with ``-B`` so no
bytecode is written next to the benchmark's sources.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SELF_TEST = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import mixedcayley
import mixedcayley.cli as cli
from tracer import Tracer, self_test
tracer = Tracer()
tracer.install(mixedcayley)
print(json.dumps(self_test(tracer, cli)))
"""


def test_tracer_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SELF_TEST, str(REPO / "src"), str(REPO / "bench")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
