#!/usr/bin/env python3
"""End-to-end benchmark of mixedcayley on three seeded workloads.

Run from the repository root (the package is imported from ./src):

    python3 bench/run.py --workload classify_cyclic --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Load model: one client in a closed loop.  Each op is issued only after
the previous one returned, from this one process, with no threads or
worker pools; ``verify`` keeps its default ``--jobs 1``.  Ops come from a
fixed list made from ``--seed`` and cycle through the workload's group
mix in a fixed order; the program sees only the generated argv or sets.
Each workload runs in a fresh process, so lru_cache tables and peak RSS
belong to that workload (``--workload all`` starts one process per
workload).

Workloads:

classify_cyclic    CLI ``classify`` (JSON) on Z_243 and Z_256, whose root
                   orders 486 and 768 use the cyclotomic power table, and
                   Z_251, whose root order 1506 is above the table limit
                   and takes the polynomial-remainder fallback.  The
                   user's "decide one graph" latency: canonical reduction
                   in ``cyclo`` and serialization in ``cli``.
verify_sweep       CLI ``verify`` sweeps: exhaustive on Z_9, 3x3 and Z_10,
                   sampled at --budget 256 with a per-op seed on Z_12,
                   2x6, Z_15, Z_18, Z_20 and Z_24.  Thousands of tiny
                   subsets put the time in per-subset work
                   (``integrality``, ``atoms``, ``cayley`` character sums,
                   ``groups``); 3x3 and 2x6 are all-integral groups, the
                   sampled cyclic ones almost never integral.
oracle_crosscheck  library calls on Z_16, 3x3x3, Z_36 and 6x6: dense
                   matrices, the numeric Hermitian oracle and the exact HS
                   spectrum, compared within 1e-9.  Nearly all time is the
                   oracle; no serialization, negligible reduction.

Untraced runs (--trace 0) report the end-to-end metrics: set-up time
(import plus one cold warm-up op per catalogue group, median over this
process and two fresh ones), ops per second and median and tail latency
of the timed phase, peak RSS of the process.  Times are scaled to a
reference host speed measured by a probe loop (see REF_PROBE_S); the raw
times are printed beside them.  Traced runs (--trace 1) check the
tracer against hand-derived call counts, time a fixed op list untraced
and then traced, and report per-layer calls, times and counters (see
tracer.py).  Every op's output is checked outside the timed interval; a
failed check, a nonzero exit or an exception counts as a failed op.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it restate
the metrics for a reader, with sample counts and percentiles.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
sys.path.insert(0, str(HERE))

SETUP_SAMPLES = 3  # set-up is timed in this process and in two fresh ones

# The reference host (a shared 2-core VM) drifts between speed states about
# 1.45x apart for minutes at a time, which moves every time in a run alike
# and makes raw medians of runs minutes apart differ by 30%.  So each run
# times a fixed pure-Python loop, the probe, before every op and before
# set-up, and scales its times by REF_PROBE_S / (median probe time): times
# are reported in seconds at the host speed where the probe takes
# REF_PROBE_S, about this host's fast state.  Raw times are printed beside.
REF_PROBE_S = 0.004
SETUP_PROBES = 15
ORACLE_TOL = 1e-9
FFT_TOL = 1e-6
SAMPLED_BUDGET = 256
LISTED_CYCLES = 64  # mix cycles in each generated op list, more than a run uses
EXHAUSTIVE = {"9", "3x3", "10"}  # verify groups swept in full (2^8 or 2^9 subsets)


@dataclass(frozen=True)
class Op:
    group: str
    members: tuple = ()  # connection set (classify, oracle)
    budget: int | None = None  # verify: None keeps the CLI default (exhaustive here)
    seed: int = 0  # verify sampling seed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: tuple[str, ...]  # group specs, one op each per cycle, in this order
    tail_pct: int  # highest percentile with >= 10 samples beyond it at the usual op count
    trace_cycles: int  # mix cycles timed in a traced run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify_cyclic",
            "CLI classify on Z_243, Z_256 (power table) and Z_251 (N=1506, "
            "polynomial fallback): one-graph latency in cyclo reduction and cli JSON",
            mix=("243", "256", "251"),
            tail_pct=75,
            trace_cycles=6,
        ),
        Workload(
            "verify_sweep",
            "CLI verify, exhaustive on Z_9, 3x3, Z_10 and sampled (256) on Z_12, 2x6, "
            "Z_15, Z_18, Z_20, Z_24: per-subset work in integrality, atoms, cayley, groups",
            mix=("9", "18", "3x3", "20", "12", "24", "2x6", "15", "10"),
            tail_pct=90,
            trace_cycles=3,
        ),
        Workload(
            "oracle_crosscheck",
            "library build_matrices, numeric oracle and exact HS spectrum on Z_16, "
            "3x3x3, Z_36, 6x6: the Jacobi oracle, no serialization",
            mix=("6x6", "16", "36", "3x3x3", "6x6", "36", "3x3x3", "6x6"),
            tail_pct=85,
            trace_cycles=4,
        ),
    )
}

# classify set sizes per group, one per mix cycle in turn.  The median
# falls in the middle of the Z_256 ops and the p75 tail in the middle of
# the faster half of the Z_251 ops, away from the gaps between clusters.
CLASSIFY_SIZES = {"243": (4, 8, 12), "256": (4, 8, 12), "251": (3, 5)}


# ---------------------------------------------------------------- inputs


def _classify_set(rng: random.Random, n: int, size: int) -> tuple:
    """A mixed set: size // 4 symmetric pairs, the rest skew members."""
    pairs, singles = size // 4, size - 2 * (size // 4)
    chosen: set[int] = set()
    while len(chosen) < 2 * pairs:
        s = rng.randrange(1, n)
        if 2 * s % n and s not in chosen:
            chosen |= {s, n - s}
    while len(chosen) < 2 * pairs + singles:
        s = rng.randrange(1, n)
        if s not in chosen and n - s not in chosen:
            chosen.add(s)
    return tuple((s,) for s in sorted(chosen))


def make_ops(workload: Workload, seed: int) -> list[Op]:
    """The workload's op list: the mix, cycled, with seeded inputs."""
    rng = random.Random(f"{workload.name}:{seed}")
    ops: list[Op] = []
    for cycle in range(LISTED_CYCLES):
        for spec in workload.mix:
            if workload.name == "classify_cyclic":
                sizes = CLASSIFY_SIZES[spec]
                ops.append(Op(spec, _classify_set(rng, int(spec), sizes[cycle % len(sizes)])))
            elif workload.name == "verify_sweep":
                if spec in EXHAUSTIVE:
                    ops.append(Op(spec))
                else:
                    ops.append(Op(spec, budget=SAMPLED_BUDGET, seed=rng.randrange(2**31)))
            else:
                nonzero = _elements(spec)[1:]
                members = rng.sample(nonzero, (len(nonzero) + 1) // 4)
                ops.append(Op(spec, tuple(sorted(members))))
    return ops


def _elements(spec: str) -> list[tuple[int, ...]]:
    """Group elements in lexicographic order, without the library."""
    elems: list[tuple[int, ...]] = [()]
    for m in (int(x) for x in spec.split("x")):
        elems = [e + (c,) for e in elems for c in range(m)]
    return elems


def _set_spec(members: tuple) -> str:
    if all(len(x) == 1 for x in members):
        return ",".join(str(x[0]) for x in members)
    return ",".join("(" + ",".join(map(str, x)) + ")" for x in members)


# ---------------------------------------------------------------- ops


class Program:
    """The package under test, imported from the checkout's src."""

    def __init__(self):
        if not (SRC / "mixedcayley" / "__init__.py").is_file():
            raise SystemExit(f"error: no mixedcayley package under {SRC}")
        sys.path.insert(0, str(SRC))
        self.mc = importlib.import_module("mixedcayley")
        self.cli = importlib.import_module("mixedcayley.cli")
        if Path(self.mc.__file__).resolve().parent != SRC / "mixedcayley":
            raise SystemExit(f"error: imported mixedcayley from {self.mc.__file__}")

    def run(self, workload: str, op: Op):
        if workload == "oracle_crosscheck":
            mc = self.mc
            group = mc.parse_group(op.group)
            cs = mc.make_connection_set(group, op.members)
            numeric = mc.numeric_hermitian_eigenvalues(mc.build_matrices(cs))
            return numeric, mc.exact_spectrum(cs, "hs")
        if workload == "classify_cyclic":
            argv = ["classify", "--group", op.group, "--set", _set_spec(op.members)]
        else:
            argv = ["verify", "--group", op.group]
            if op.budget is not None:
                argv += ["--budget", str(op.budget), "--seed", str(op.seed)]
        out, err = io.StringIO(), io.StringIO()
        rc = self.cli.run(argv, stdout=out, stderr=err)
        return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _totient(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


class Checker:
    """Output checks that do not rely on the package's own arithmetic."""

    def __init__(self, program: Program):
        import numpy as np

        self.np = np
        self.program = program
        self._hs_totals: dict[str, int] = {}

    def check(self, workload: str, op: Op, result) -> None:
        getattr(self, "_" + workload)(op, result)

    def _spectra(self, spec: str, members: tuple):
        """HS and adjacency eigenvalues by FFT of the weighted indicator."""
        np = self.np
        shape = tuple(int(m) for m in spec.split("x"))
        w6 = complex(0.5, math.sqrt(3.0) / 2.0)
        hs = np.zeros(shape, dtype=complex)
        adj = np.zeros(shape, dtype=complex)
        mset = set(members)
        for s in members:
            neg = tuple((-c) % m for c, m in zip(s, shape))
            adj[s] = 1
            if neg in mset:
                hs[s] += 1
            else:
                hs[s] += w6
                hs[neg] += w6.conjugate()
        size = math.prod(shape)
        return np.fft.ifftn(hs) * size, np.fft.ifftn(adj) * size

    def _evaluate(self, values: list[dict]) -> tuple:
        """Exact coefficient vectors evaluated numerically as sum c_j w_N^j,
        with each vector's coefficient mass sum |c_j|."""
        np = self.np
        order = values[0]["order"]
        phi = _totient(order)
        _require(all(v["order"] == order for v in values), "mixed cyclotomic orders")
        _require(all(len(v["coeffs"]) == phi for v in values), "coefficients not phi(N) long")
        coeffs = np.array(
            [[float(Fraction(c)) if "/" in c else float(c) for c in v["coeffs"]] for v in values]
        )
        powers = np.exp(2j * np.pi * np.arange(phi) / order)
        return coeffs @ powers, np.abs(coeffs).sum(axis=1)

    def _classify_cyclic(self, op: Op, result) -> None:
        rc, out, err = result
        _require(rc == 0, f"classify exit {rc}: {err.strip()}")
        doc = json.loads(out)
        _require(doc["consistent"] is True, "classify reported inconsistent routes")
        _require(doc["group"] == op.group, "group echoed wrongly")
        _require(doc["set"] == _set_spec(op.members), "set echoed wrongly")
        np = self.np
        expected_hs, expected_adj = self._spectra(op.group, op.members)
        n = math.prod(expected_hs.shape)
        for key, expected in (("hs_spectrum", expected_hs), ("a_spectrum", expected_adj)):
            entries = doc[key]
            _require(len(entries) == n, f"{key} has {len(entries)} entries, expected {n}")
            _require(
                len({tuple(e["alpha"]) for e in entries}) == n, f"{key} repeats a character"
            )
            want = np.array([expected[tuple(e["alpha"])] for e in entries])
            approx = np.array([complex(e["value"]["approx"].replace("i", "j")) for e in entries])
            exact, mass = self._evaluate([e["value"] for e in entries])
            _require(bool(np.all(np.abs(approx - want) <= FFT_TOL)), f"{key} approx values off")
            _require(
                bool(np.all(np.abs(exact - want) <= FFT_TOL * (1.0 + mass))),
                f"{key} exact coefficients off",
            )
        if doc["hs_integral"]:
            vals = expected_hs.ravel()
            _require(
                bool(np.all(np.abs(vals - np.round(vals.real)) <= FFT_TOL)),
                "HS-integral verdict on a non-integral spectrum",
            )

    def _verify_sweep(self, op: Op, result) -> None:
        rc, out, err = result
        _require(rc == 0, f"verify exit {rc}: {err.strip()}")
        doc = json.loads(out)
        _require(doc["counterexamples"] == [], "verify found counterexamples")
        order = math.prod(int(m) for m in op.group.split("x"))
        total = 2 ** (order - 1)
        exhaustive = op.budget is None
        want = total if exhaustive else min(total, op.budget)
        _require(doc["subsets_tested"] == want, f"tested {doc['subsets_tested']}, expected {want}")
        _require(want > 0, "vacuous sweep")
        hs_total = self._hs_total(op.group)
        if exhaustive:
            _require(
                doc["hs_integral_count"] == hs_total,
                f"{doc['hs_integral_count']} HS-integral sets, enumeration gives {hs_total}",
            )
        elif hs_total == total:
            _require(doc["hs_integral_count"] == want, "all-integral group lost a set")
        else:
            _require(0 <= doc["hs_integral_count"] <= want, "HS-integral count out of range")

    def _hs_total(self, spec: str) -> int:
        if spec not in self._hs_totals:
            mc = self.program.mc
            self._hs_totals[spec] = mc.enumerate_hs_integral(mc.parse_group(spec)).total
        return self._hs_totals[spec]

    def _oracle_crosscheck(self, op: Op, result) -> None:
        numeric, exact = result
        values = [z.to_complex() for z in exact.values()]
        n = math.prod(int(m) for m in op.group.split("x"))
        _require(len(numeric) == len(values) == n, "spectrum size differs from group order")
        _require(all(abs(v.imag) <= ORACLE_TOL for v in values), "HS eigenvalue not real")
        worst = max(abs(a - b) for a, b in zip(sorted(numeric), sorted(v.real for v in values)))
        _require(worst <= ORACLE_TOL, f"oracle and exact spectrum differ by {worst:.3e}")


# ---------------------------------------------------------------- phases


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the host speed probe."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(30000):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - t0


def setup(workload: Workload, ops: list[Op]) -> tuple[Program, list, float, float]:
    """Import the package and run one cold op per catalogue group.

    Returns the program, the warm-up ops with their results (checked by
    the caller, outside the timing), and the set-up time in raw and in
    probe-scaled seconds.
    """
    scale = REF_PROBE_S / statistics.median(probe() for _ in range(SETUP_PROBES))
    t0 = time.perf_counter()
    program = Program()
    warm = []
    for spec in dict.fromkeys(workload.mix):
        op = next(o for o in ops if o.group == spec)
        warm.append((op, program.run(workload.name, op)))
    seconds = time.perf_counter() - t0
    return program, warm, seconds, seconds * scale


def fresh_setup_seconds(workload: Workload, seed: int) -> tuple[float, float]:
    """Raw and scaled set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=os.getcwd(),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    raw, scaled = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


class Phase:
    """Closed-loop timing of ops, each checked outside its timed interval."""

    def __init__(self, program: Program, checker: Checker, workload: Workload, tracer=None):
        self.program, self.checker, self.workload, self.tracer = program, checker, workload, tracer
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def one(self, op: Op) -> None:
        self.probes.append(probe())
        try:
            if self.tracer:
                self.tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = self.program.run(self.workload.name, op)
            finally:
                self.latencies.append(time.perf_counter() - t0)
                if self.tracer:
                    self.tracer.enabled = False
            self.checker.check(self.workload.name, op, result)
        except CheckFailed as exc:
            self._fail(op, str(exc))
        except Exception:  # an op that raises is a failed op, the run goes on
            self._fail(op, traceback.format_exc())

    def _fail(self, op: Op, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.group} {_set_spec(op.members) or op.seed}: {message}")

    def for_seconds(self, ops: list[Op], seconds: float) -> None:
        i = 0
        while True:
            self.one(ops[i % len(ops)])
            i += 1
            if self.busy >= seconds:
                return

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def scale(self) -> float:
        """Factor from raw seconds to seconds at the reference host speed."""
        return REF_PROBE_S / statistics.median(self.probes)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def sloc(module: str) -> int:
    """Source lines of one module: non-blank lines that are not comments."""
    text = (SRC / "mixedcayley" / f"{module}.py").read_text(encoding="utf-8")
    return sum(1 for line in text.splitlines() if line.strip() and not line.strip().startswith("#"))


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def check_warm_up(checker: Checker, workload: Workload, warm: list) -> list[str]:
    errors = []
    for op, result in warm:
        try:
            checker.check(workload.name, op, result)
        except CheckFailed as exc:
            errors.append(f"warm-up {op.group}: {exc}")
    return errors


def run_untraced(workload: Workload, seed: int, seconds: float) -> tuple[dict, list[str]]:
    ops = make_ops(workload, seed)
    program, warm, *setup_s = setup(workload, ops)
    checker = Checker(program)
    phase = Phase(program, checker, workload)
    errors = check_warm_up(checker, workload, warm)
    phase.for_seconds(ops, seconds)
    setups = [setup_s] + [fresh_setup_seconds(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    n = len(phase.latencies)
    raw = {
        "setup_s": statistics.median(raw for raw, _ in setups),
        "ops_per_s": n / phase.busy,
        "latency_p50_s": statistics.median(phase.latencies),
        "latency_tail_s": percentile(phase.latencies, workload.tail_pct),
    }
    beyond = sum(1 for x in phase.latencies if x > raw["latency_tail_s"])
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "ops_per_s": (raw["ops_per_s"] / phase.scale, "1/s"),
        "latency_p50_s": (raw["latency_p50_s"] * phase.scale, "s"),
        "latency_tail_s": (raw["latency_tail_s"] * phase.scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, raw "
        + ", ".join(f"{raw:.3f}" for raw, _ in setups),
        "ops_per_s": f"{n} ops in {phase.busy:.3f} s busy",
        "latency_p50_s": f"n={n}",
        "latency_tail_s": f"p{workload.tail_pct}, n={n}, {beyond} beyond",
    }
    attempted = n
    lines = [
        f"workload {workload.name}  seed {seed}  closed loop, 1 client  host {json.dumps(host_info())}",
        f"  host speed: median probe {statistics.median(phase.probes) * 1e3:.3f} ms, "
        f"reference {REF_PROBE_S * 1e3:.3f} ms, times scaled by {phase.scale:.4f}",
    ]
    for key, (value, unit) in metrics.items():
        extra = f"  (raw {raw[key]:.4f}; {notes[key]})" if key in raw else ""
        lines.append(f"  {key:<15} {value:.4f} {unit}{extra}")
    lines.append(f"  failed_ratio    {phase.failed / max(attempted, 1):.4f}  ({phase.failed}/{attempted})")
    return _result(errors + phase.errors, attempted, phase.failed, metrics), lines


def run_traced(workload: Workload, seed: int) -> tuple[dict, list[str]]:
    from tracer import MODULES, Tracer, self_test

    ops = make_ops(workload, seed)[: workload.trace_cycles * len(workload.mix)]
    program, warm, *_ = setup(workload, ops)
    checker = Checker(program)
    errors = check_warm_up(checker, workload, warm)
    plain = Phase(program, checker, workload)
    for op in ops:
        plain.one(op)
    tracer = Tracer()
    tracer.install(program.mc)
    errors += self_test(tracer, program.cli)
    traced = Phase(program, checker, workload, tracer)
    for op in ops:
        traced.one(op)
    metrics = tracer.layer_metrics()
    for module in MODULES:
        metrics[f"{module}.sloc"] = (sloc(module), "lines")
    metrics["trace.overhead_s"] = (traced.busy - plain.busy, "s")
    attempted = len(plain.latencies) + len(traced.latencies)
    failed = plain.failed + traced.failed
    lines = [
        f"workload {workload.name}  seed {seed}  traced, {len(ops)} ops untraced then traced",
        f"  untraced {plain.busy:.3f} s  traced {traced.busy:.3f} s  "
        f"self-test {'ok' if not errors else 'FAILED'}",
    ]
    lines += [f"  {k:<45} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append("  call graph: " + json.dumps(tracer.call_graph()[:25]))
    return _result(errors + plain.errors + traced.errors, attempted, failed, metrics), lines


def _result(errors: list[str], attempted: int, failed: int, metrics: dict) -> dict:
    for e in errors:
        print(f"check: {e}", file=sys.stderr)
    return {
        "correct": not errors and failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=os.getcwd())
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        workload = WORKLOADS[args.workload]
        if args.setup_only:
            print(*setup(workload, make_ops(workload, args.seed))[2:])
            return 0
        if args.trace:
            result, lines = run_traced(workload, args.seed)
        else:
            result, lines = run_untraced(workload, args.seed, args.seconds)
        print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
