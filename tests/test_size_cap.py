"""Time, memory and output of ``classify`` near the group-size cap.

The command runs as ``python -B -m mixedcayley`` in a fresh subprocess
with the package on ``PYTHONPATH``.  Its stdout is hashed as it streams,
so the test holds only one chunk at a time, and the child reports its own
peak RSS on stderr: the parent's ``RUSAGE_CHILDREN`` would also count
every earlier child of the pytest process.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CHILD = """
import resource, runpy, sys
sys.argv[0] = "mixedcayley"
code = 0
try:
    runpy.run_module("mixedcayley", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
sys.stderr.write(f"peak_rss_kb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}\\n")
sys.exit(code)
"""

# stdout of the command below, recorded from the zero-padded, whole-document
# implementation it replaced; that one peaked at about 1.06 GB
Z2048_ARGV = ("classify", "--group", "2048", "--set", "1,2,3,5,7,11,13,17")
Z2048_BYTES = 126_603_112
Z2048_SHA256 = "d05518b63c80e73722e23135253ce02f369b2b6d696fd33f7075a06b2d04457a"
MAX_RSS_MB = 400
MAX_WALL_S = 60


def test_classify_at_2048_streams_identical_output_in_bounded_memory():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-B", "-c", CHILD, *Z2048_ARGV],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        digest, size = hashlib.sha256(), 0
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            size += len(chunk)
        stderr = proc.stderr.read().decode()
        proc.wait(timeout=MAX_WALL_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    assert proc.returncode == 0, stderr
    assert size == Z2048_BYTES
    assert digest.hexdigest() == Z2048_SHA256
    report = re.fullmatch(r"peak_rss_kb (\d+)\n", stderr)
    assert report, f"expected one peak_rss_kb line on stderr, got {stderr!r}"
    peak_mb = int(report[1]) / 1024  # Linux reports ru_maxrss in KiB
    assert peak_mb < MAX_RSS_MB, f"peak RSS {peak_mb:.0f} MB"
    assert wall < MAX_WALL_S, f"took {wall:.1f} s"
