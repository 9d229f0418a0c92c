"""Call tracer for the benchmark's traced runs.

The tracer wraps public mixedcayley functions from the benchmark's own
process: a function is replaced in every module namespace that binds it
(``reduce_root_counts`` lives in ``cyclo``, ``cayley``, ``integrality`` and
the package), and a method is replaced on its class.  It aggregates, and
keeps nothing per call, so memory stays bounded however many calls a run
makes:

- per function: call count and inclusive time (outermost call only, so a
  recursive function is not counted twice);
- per module: self time, i.e. span time minus the time of the traced
  spans it called;
- per (caller, callee) edge: call count and time, the call graph;
- work counters fed by hooks: root-of-unity terms summed, subsets tested
  and CLI output size.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

MODULES = ("groups", "cyclo", "atoms", "cayley", "integrality", "cli")


def _terms(counts, args, kwargs, result):
    # reduce_root_counts(order, counts): the number of roots of unity summed
    counts["cyclo.reduce_root_counts.terms"] += sum(map(abs, args[1]))


def _subsets(counts, args, kwargs, result):
    counts["integrality.subsets_tested"] += result.subsets_tested


def _output(counts, args, kwargs, result):
    stdout = kwargs.get("stdout")
    if stdout is not None:
        counts["cli.output_bytes"] += len(stdout.getvalue())  # JSON output is ASCII


# (module, attribute path in that module, metric prefix, work-counter hook)
TARGETS = (
    ("groups", "parse_group", "groups.parse_group", None),
    ("groups", "GroupSpec.character_exponent", "groups.character_exponent", None),
    ("cyclo", "reduce_root_counts", "cyclo.reduce_root_counts", _terms),
    ("cyclo", "CycloNum.reduce", "cyclo.CycloNum.reduce", None),
    ("cyclo", "as_integer", "cyclo.as_integer", None),
    ("cyclo", "as_eisenstein", "cyclo.as_eisenstein", None),
    ("cyclo", "cyclotomic_poly", "cyclo.cyclotomic_poly", None),
    ("atoms", "in_boolean_algebra", "atoms.in_boolean_algebra", None),
    ("atoms", "in_skew_family", "atoms.in_skew_family", None),
    ("cayley", "make_connection_set", "cayley.make_connection_set", None),
    ("cayley", "exact_spectrum", "cayley.exact_spectrum", None),
    ("cayley", "build_matrices", "cayley.build_matrices", None),
    ("cayley", "numeric_hermitian_eigenvalues", "cayley.numeric_hermitian_eigenvalues", None),
    ("integrality", "classify", "integrality.classify", None),
    ("integrality", "verify_theorems", "integrality.verify_theorems", _subsets),
    ("integrality", "certificate", "integrality.certificate", None),
    ("cli", "run", "cli.run", _output),
)

COUNTERS = {
    "cyclo.reduce_root_counts.terms": "count",
    "integrality.subsets_tested": "count",
    "cli.output_bytes": "bytes",
}

ROOT = "op"  # caller name of spans opened directly by a benchmark op


class Tracer:
    """Aggregating span recorder; records only while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: defaultdict = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._depth: Counter = Counter()

    def reset(self) -> None:
        for table in (self.calls, self.inclusive, self.self_s, self.edges, self.counts):
            table.clear()

    def _wrap(self, module: str, name: str, fn, hook):
        stack, depth = self._stack, self._depth
        calls, inclusive, self_s, edges, counts = (
            self.calls, self.inclusive, self.self_s, self.edges, self.counts
        )
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            entered = perf_counter()
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                if not depth[name]:
                    inclusive[name] += dt
                self_s[module] += dt - frame[1]
                edge = edges[(parent[0] if parent else ROOT, name)]
                edge[0] += 1
                edge[1] += dt
            if hook:
                hook(counts, args, kwargs, result)
            if parent:
                # the whole wrapper, bookkeeping and hook included, is the
                # caller's child time, so tracing cost stays out of self times
                parent[1] += perf_counter() - entered
            return result

        return traced

    def install(self, package) -> None:
        """Replace every target in all of the package's namespaces."""
        prefix = package.__name__
        namespaces = [
            m for n, m in sys.modules.items() if n == prefix or n.startswith(prefix + ".")
        ]
        for module, path, name, hook in TARGETS:
            owner = sys.modules[f"{prefix}.{module}"]
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            traced = self._wrap(module, name, original, hook)
            if cls_name:
                setattr(owner, attr, traced)
                continue
            bound = 0
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, traced)
                        bound += 1
            if not bound:
                raise RuntimeError(f"trace target {prefix}.{module}.{path} is bound nowhere")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit): <fn>.calls, <fn>.s, <module>.self_s, counters."""
        out: dict[str, tuple[float, str]] = {}
        for _, _, name, _ in TARGETS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.inclusive[name], "s")
        for module in MODULES:
            out[f"{module}.self_s"] = (self.self_s[module], "s")
        for key, unit in COUNTERS.items():
            out[key] = (self.counts[key], unit)
        return out

    def call_graph(self) -> list[dict]:
        return [
            {"caller": caller, "callee": callee, "calls": n, "s": round(s, 6)}
            for (caller, callee), (n, s) in sorted(
                self.edges.items(), key=lambda kv: -kv[1][1]
            )
        ]


def _self_test_expectations(n: int, sym: int, skew: int) -> dict[str, dict[str, int]]:
    """Call counts derived by hand for the two self-test commands.

    ``classify`` on Z_n with a set of ``sym`` symmetric and ``skew`` skew
    members builds three exact spectra (simple part, skew part,
    adjacency) of n eigenvalues each, and calls character_exponent once
    per symmetric member, twice per skew member and once per member for
    every alpha.

    Exhaustive ``verify`` on Z_9 walks all 2^8 = 256 subsets of the
    nonzero elements, three spectra each, so a subset S costs
    9 * (2|S| + |skew part|) character exponents.  Over all subsets,
    Sum |S| = 8 * 2^7, and each of the 8 elements is a skew member in the
    2^6 subsets that hold it but not its negation.  The certificate pass
    visits the 8 elements of order 3 or 9 against 9 characters, with 3
    reductions each.  A skew class has 3 members at order 9 and 1 at
    order 3, an atom 6 and 2: 6 * (2*3 + 6) + 2 * (2*1 + 2) = 80 character
    exponents per character.
    """
    size = sym + skew
    return {
        "classify": {
            "cli.run": 1,
            "groups.parse_group": 1,
            "integrality.classify": 1,
            "cayley.make_connection_set": 1,
            "cayley.exact_spectrum": 3,
            "cyclo.reduce_root_counts": 3 * n,
            "groups.character_exponent": n * (sym + 2 * skew + size),
            "atoms.in_boolean_algebra": 2,
            "atoms.in_skew_family": 2,
        },
        "verify": {
            "cli.run": 1,
            "groups.parse_group": 1,
            "integrality.verify_theorems": 1,
            "cayley.make_connection_set": 256,
            "cayley.exact_spectrum": 3 * 256,
            "cyclo.reduce_root_counts": 3 * 256 * 9 + 3 * 8 * 9,
            "integrality.certificate": 8 * 9,
            "groups.character_exponent": 9 * (2 * 8 * 2**7 + 8 * 2**6) + 9 * 80,
            "atoms.in_boolean_algebra": 256,
            "atoms.in_skew_family": 256,
        },
    }


def self_test(tracer: Tracer, cli) -> list[str]:
    """Run two tiny CLI commands twice under the tracer; list any mismatch.

    The counts must equal the hand-derived ones, and every count the
    tracer records must repeat exactly between the two repetitions.  An
    untraced pass first fills the package's caches, which would otherwise
    make the first repetition call more.
    """
    from io import StringIO

    n, members = 7, "1,6,2"  # {1, 6} symmetric, {2} skew
    commands = {
        "classify": ["classify", "--group", str(n), "--set", members],
        "verify": ["verify", "--group", "9"],
    }
    expected = _self_test_expectations(n, sym=2, skew=1)
    errors: list[str] = []
    seen: dict[str, list[dict]] = {}
    was_enabled = tracer.enabled
    try:
        for rep in range(3):
            for label, argv in commands.items():
                tracer.reset()
                tracer.enabled = rep > 0
                rc = cli.run(argv, stdout=StringIO(), stderr=StringIO())
                tracer.enabled = False
                if rc != 0:
                    errors.append(f"self-test {label}: exit code {rc}")
                if rep > 0:
                    seen.setdefault(label, []).append(dict(tracer.calls))
    finally:
        tracer.enabled = was_enabled
        tracer.reset()
    for label, runs in seen.items():
        if runs[0] != runs[1]:
            errors.append(f"self-test {label}: call counts differ between repetitions")
        for name, want in expected[label].items():
            got = runs[0].get(name, 0)
            if got != want:
                errors.append(f"self-test {label}: {name} called {got} times, expected {want}")
    return errors
