"""Time, memory and output of ``classify`` near the group-size cap.

The command runs as ``python -B -m mixedcayley`` in a fresh subprocess
with the package on ``PYTHONPATH``.  Its stdout is hashed as it streams,
so the test holds only one chunk at a time, and the child reports its own
peak RSS on stderr: the parent's ``RUSAGE_CHILDREN`` would also count
every earlier child of the pytest process.  The child reads its peak from
``VmHWM`` in ``/proc/self/status``, not from its own ``ru_maxrss``: Linux
carries the high-water mark of the process that started the child across
``exec`` into ``ru_maxrss``, so that would report at least the pytest
process's own peak.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CHILD = """
import runpy, sys
sys.argv[0] = "mixedcayley"
code = 0
try:
    runpy.run_module("mixedcayley", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
with open("/proc/self/status") as status:
    peak_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
sys.stderr.write(f"peak_rss_kb {peak_kb}\\n")
sys.exit(code)
"""

SET = ("--set", "1,2,3,5,7,11,13,17")


def _run_classify(
    group: str, max_wall_s: float, args: tuple[str, ...] = SET
) -> tuple[int, int, str, float, float | None, str]:
    """(exit code, stdout bytes, stdout sha256, wall seconds, peak RSS in MB
    or None, stderr) of one ``classify`` child; one killed after four times
    ``max_wall_s`` still reports, so a hang cannot stall the suite."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-B", "-c", CHILD, "classify", "--group", group, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    watchdog = threading.Timer(4 * max_wall_s, proc.kill)
    watchdog.start()
    try:
        digest, size = hashlib.sha256(), 0
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            size += len(chunk)
        stderr = proc.stderr.read().decode()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    report = re.search(r"^peak_rss_kb (\d+)$", stderr, re.MULTILINE)
    peak_mb = int(report[1]) / 1024 if report else None  # VmHWM is in KiB
    return proc.returncode, size, digest.hexdigest(), wall, peak_mb, stderr


def _check_classify(
    group: str,
    want_bytes: int,
    want_sha256: str,
    max_wall_s: float,
    max_rss_mb: float,
    args: tuple[str, ...] = SET,
) -> None:
    code, size, sha256, wall, peak_mb, stderr = _run_classify(group, max_wall_s, args)
    # every failure names the whole run, so an intermittent one explains itself
    rss = "unknown" if peak_mb is None else f"{peak_mb:.0f} MB"
    run = (
        f"classify on Z_{group} {' '.join(args)[:40]}: exit {code}, {size} bytes, sha256 {sha256[:12]}, "
        f"{wall:.1f} s, peak RSS {rss}; stderr {stderr!r}"
    )
    assert code == 0, run
    assert size == want_bytes, run
    assert sha256 == want_sha256, run
    assert re.fullmatch(r"peak_rss_kb \d+\n", stderr), f"expected one peak_rss_kb line on stderr; {run}"
    assert peak_mb < max_rss_mb, f"peak RSS over {max_rss_mb} MB; {run}"
    assert wall < max_wall_s, f"took over {max_wall_s} s; {run}"


def test_classify_at_2048_streams_identical_output_in_bounded_memory():
    # stdout recorded from the zero-padded, whole-document implementation
    # this streaming one replaced; that one peaked at about 1.06 GB
    _check_classify(
        "2048",
        126_603_112,
        "d05518b63c80e73722e23135253ce02f369b2b6d696fd33f7075a06b2d04457a",
        max_wall_s=60,
        max_rss_mb=400,
    )


def test_classify_at_the_size_cap_in_10_s_and_450_mb():
    # stdout recorded from the tree that held all four spectra at once and
    # peaked at 532 MB; the cap group must finish in 10 s under 450 MB
    _check_classify(
        "4096",
        504_874_934,
        "9ed2e121ce9a63a80360c0baae2633e4c80e8e5cfa135064562d74b677254089",
        max_wall_s=10,
        max_rss_mb=450,
    )


def test_classify_dot_streams_in_the_memory_of_json():
    # the 683 members 1, 4, 7, ..., 2047, all symmetric: 23.7 MB of DOT, one
    # line per vertex and undirected edge.  stdout recorded from the tree that
    # built the whole DOT text before writing it and peaked at 199 MB; the
    # JSON report of the same set peaks near 85 MB
    _check_classify(
        "2048",
        23_744_075,
        "60475d2b0b252429a39ecfddd45728ff5e168e8e000d5860e3bd24e72102cf0a",
        max_wall_s=60,
        max_rss_mb=120,
        args=("--set", ",".join(map(str, range(1, 2048, 3))), "--format", "dot"),
    )
