"""Command-line front end: classify, spectrum, atoms, enumerate, verify.

Exit codes: 0 on success, 1 on malformed input, 2 when an exact
consistency check fails (a verdict disagreement or a sweep
counterexample), so CI can tell bad input from a falsified invariant.
The console script exits 141 (128 + SIGPIPE) when the reader of its
stdout closes the pipe early.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterator
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import lru_cache
from itertools import compress
from typing import IO

from .atoms import AtomDecomposition, atom_splits
from .cayley import SPECTRUM_KINDS, _terms, exact_spectrum, make_connection_set, to_dot
from .cyclo import CycloNum
from .groups import Element, GroupSpec, parse_group
from .integrality import (
    ClassificationReport,
    ConsistencyError,
    VerificationReport,
    _require_work,
    classify,
    enumerate_hs_integral,
    verify_theorems,
)


class SetSpecError(ValueError):
    """Malformed connection-set string; carries the failing position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"set spec error at position {position}: {message}")
        self.position = position


# a token is a signed run of decimal digits or any one character other than
# whitespace; re's \d and \s match exactly what int() and str.isspace accept
_TOKEN = re.compile(r"[+-]?\d+|\S")


def _integer(text: str, at: int) -> int:
    if not text[-1:].isdecimal():  # only an integer token ends in a digit
        raise SetSpecError(at, "expected an integer")
    return int(text)


def parse_set(spec: str, group: GroupSpec, reduce_coords: bool = True) -> frozenset[Element]:
    """Parse "1,5" or "(0,1),(2,0)" into a reduced, deduplicated element set.

    The grammar is ``element ("," element)*``, or nothing, where an element
    is an integer or ``"(" integer ("," integer)* ")"``; whitespace between
    tokens is skipped.  Bare integers are accepted only for single-factor
    groups.  With ``reduce_coords`` off, out-of-range coordinates are
    rejected instead of being reduced.  The identity element is always
    rejected.
    """
    k = len(group.moduli)
    tokens = iter([(m[0], m.start()) for m in _TOKEN.finditer(spec)] + [("", len(spec))])
    elements: set[Element] = set()
    text, at = next(tokens)
    while text:
        if text == "(":
            coords = [_integer(*next(tokens))]
            while (token := next(tokens))[0] == ",":
                coords.append(_integer(*next(tokens)))
            if token[0] != ")":
                raise SetSpecError(token[1], "expected ',' or ')' inside element tuple")
            if len(coords) != k:
                raise SetSpecError(at, f"element has {len(coords)} coordinates, group needs {k}")
        else:
            coords = [_integer(text, at)]
            if k != 1:
                raise SetSpecError(at, f"bare integers need a cyclic group, this one has {k} factors")
        if not reduce_coords:
            for c, m in zip(coords, group.moduli):
                if not 0 <= c < m:
                    raise SetSpecError(at, f"coordinate {c} out of range [0, {m})")
        x = group.element(coords)
        if x == group.zero:
            raise SetSpecError(at, "the identity element cannot be a member")
        elements.add(x)
        text, after = next(tokens)
        if text == ",":
            text, at = next(tokens)
            if not text:
                raise SetSpecError(at, "trailing comma")
        elif text:
            raise SetSpecError(after, "expected ',' between elements")
    return frozenset(elements)


def format_element(x: Element, group: GroupSpec) -> str:
    if len(group.moduli) == 1:
        return str(x[0])
    return "(" + ",".join(str(c) for c in x) + ")"


def format_set(members, group: GroupSpec) -> str:
    return ",".join(format_element(x, group) for x in sorted(members))


def _approx_text(z: CycloNum) -> str:
    """A value as "<re>+<im>i" with 12 decimal places."""
    approx = z.to_complex()
    re = approx.real + 0.0
    im = approx.imag + 0.0
    return f"{re:.12f}{im:+.12f}i"


@lru_cache(maxsize=None)
def _coeff_template(phi: int) -> tuple[list[str], tuple[int, ...]]:
    """The quoted coefficients of a zero value with phi slots, and the slots."""
    return ['"0"'] * phi, tuple(range(phi))


def _entry_text(alpha: Element, z: CycloNum, newline: str) -> str:
    """``{"alpha": [...], "value": {"order", "coeffs", "approx"}}`` as
    ``json.dumps(..., indent=2)`` writes it after ``newline``.

    Each coefficient is an int, written as its quoted decimal digits; a
    copy of the zero template gets only the nonzero slots.
    """
    cs = z.coeffs
    template, slots = _coeff_template(len(cs))
    coeffs = template.copy()
    for j in compress(slots, cs):
        coeffs[j] = f'"{cs[j]}"'
    i1 = newline + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    return (
        f'{{{i1}"alpha": [{i2}{("," + i2).join(map(str, alpha))}{i1}],'
        f'{i1}"value": {{{i2}"order": {z.order},{i2}"coeffs": [{i3}{("," + i3).join(coeffs)}{i2}],'
        f'{i2}"approx": "{_approx_text(z)}"{i1}}}{newline}}}'
    )


def _class_json(rep: Element, cls: frozenset[Element]) -> dict:
    return {"rep": list(rep), "members": [list(x) for x in sorted(cls)]}


def decomposition_to_json(dec: AtomDecomposition | None) -> list[dict] | None:
    if dec is None:
        return None
    return [_class_json(rep, cls) for rep, cls in zip(dec.representatives, dec.classes)]


def classification_to_json(report: ClassificationReport) -> dict:
    """The classify document; each spectrum is an iterator of its
    ``(alpha, value)`` pairs, which ``_emit_json`` renders one at a time."""
    g = report.group
    return {
        "group": g.spec_string(),
        "set": format_set(report.connection_set.members, g),
        "hs_integral": report.hs_verdict_spectral,
        "eisenstein_integral": report.eisenstein_verdict_spectral,
        "sym_atoms": decomposition_to_json(report.sym_decomposition),
        "skew_classes": decomposition_to_json(report.skew_decomposition),
        "hs_spectrum": iter(report.hs_spectrum.items()),
        "a_spectrum": iter(report.a_spectrum.items()),
        "consistent": report.consistency,
    }


def verification_to_json(report: VerificationReport) -> dict:
    return {
        "group": report.group.spec_string(),
        "subsets_tested": report.subsets_tested,
        "hs_integral_count": report.hs_integral_count,
        "counterexamples": list(report.counterexamples),
        "seed": report.seed,
        "exhaustive": report.exhaustive,
        "budget": report.budget,
    }


@contextmanager
def _opened(out_path: str | None, stream: IO[str]):
    """The ``--out`` file opened for writing, or ``stream`` without one."""
    if out_path is None:
        yield stream
        return
    try:
        fh = open(out_path, "w", encoding="utf-8")
    except OSError as exc:  # an unwritable path is bad input, not a crash
        raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    with fh:
        yield fh


def _emit(text: str, out_path: str | None, stream: IO[str]) -> None:
    with _opened(out_path, stream) as fh:
        fh.write(text)


def _emit_json(doc: dict[str, object], out_path: str | None, stream: IO[str]) -> None:
    """Write ``doc`` as ``json.dumps(doc, indent=2)`` and a newline.  A value
    that is an iterator of ``(alpha, value)`` pairs is a spectrum, written one
    entry at a time as it is made."""
    with _opened(out_path, stream) as fh:
        sep = "{"
        for key, value in doc.items():
            fh.write(f"{sep}\n  {json.dumps(key)}: ")
            if isinstance(value, Iterator):
                entry_sep = "["
                for alpha, z in value:
                    fh.write(entry_sep + "\n    " + _entry_text(alpha, z, "\n    "))
                    entry_sep = ","
                fh.write("[]" if entry_sep == "[" else "\n  ]")
            else:
                # JSON escapes every newline inside a string, so this only indents
                fh.write(json.dumps(value, indent=2).replace("\n", "\n  "))
            sep = ","
        fh.write("{}\n" if sep == "{" else "\n}\n")


def _classification_text(report: ClassificationReport) -> str:
    g = report.group
    lines = [
        f"group {g.spec_string()}  set {{{format_set(report.connection_set.members, g)}}}",
        f"  symmetric part: {{{format_set(report.connection_set.sym_part, g)}}}",
        f"  skew part:      {{{format_set(report.connection_set.skew_part, g)}}}",
        f"  HS-integral (characterization): {report.hs_verdict_characterization}",
        f"  HS-integral (exact spectrum):   {report.hs_verdict_spectral}",
        f"  Eisenstein integral:            {report.eisenstein_verdict_spectral}",
        f"  consistent: {report.consistency}",
    ]
    return "\n".join(lines) + "\n"


def _run_classify(args, stdout: IO[str]) -> int:
    group = parse_group(args.group)
    members = parse_set(args.set or "", group, reduce_coords=not args.no_reduce)
    report = classify(group, members)
    if args.format == "dot":
        _emit(to_dot(report.connection_set), args.out, stdout)
    elif args.format == "text":
        _emit(_classification_text(report), args.out, stdout)
    else:
        _emit_json(classification_to_json(report), args.out, stdout)
    return 0 if report.consistency else 2


def _run_spectrum(args, stdout: IO[str]) -> int:
    group = parse_group(args.group)
    members = parse_set(args.set or "", group, reduce_coords=not args.no_reduce)
    cs = make_connection_set(group, members)
    _require_work(group, group.order * len(_terms(cs, args.kind)), "spectrum", "set")
    spectrum = exact_spectrum(cs, args.kind)
    if args.format == "text":
        with _opened(args.out, stdout) as fh:
            for alpha, value in spectrum.items():
                fh.write(f"{format_element(alpha, group)}  {_approx_text(value)}\n")
    else:
        payload = {
            "group": group.spec_string(),
            "set": format_set(members, group),
            "kind": args.kind,
            "entries": iter(spectrum.items()),
        }
        _emit_json(payload, args.out, stdout)
    return 0


def _run_atoms(args, stdout: IO[str]) -> int:
    group = parse_group(args.group)
    splits = atom_splits(group)
    if args.format == "text":
        lines = []
        for atom, classes in splits:
            lines.append(f"atom [{format_element(min(atom), group)}] = {{{format_set(atom, group)}}}")
            lines += [
                f"  skew class <<{format_element(min(c), group)}>> = {{{format_set(c, group)}}}"
                for c in classes
            ]
        _emit("\n".join(lines) + "\n", args.out, stdout)
        return 0
    listing = []
    for atom, classes in splits:
        rep = min(atom)
        entry = {**_class_json(rep, atom), "order": group.order_of(rep)}
        if classes:
            entry["skew_classes"] = [_class_json(min(c), c) for c in classes]
        listing.append(entry)
    _emit_json({"group": group.spec_string(), "atoms": listing}, args.out, stdout)
    return 0


def _run_enumerate(args, stdout: IO[str]) -> int:
    group = parse_group(args.group)
    stream = enumerate_hs_integral(group, budget=args.budget)
    emitted = 0
    # the empty set is always HS-integral, so at least one line is written
    with _opened(args.out, stdout) as fh:
        for cs in stream.sets:
            payload = {
                "spec": format_set(cs.members, group),
                "members": [list(x) for x in sorted(cs.members)],
            }
            fh.write(json.dumps(payload, separators=(",", ":")) + "\n")
            emitted += 1
        if stream.truncated:
            marker = {"truncated": True, "emitted": emitted, "total": stream.total}
            fh.write(json.dumps(marker, separators=(",", ":")) + "\n")
    return 0


def _run_verify(args, stdout: IO[str]) -> int:
    group = parse_group(args.group)
    report = verify_theorems(group, budget=args.budget, seed=args.seed, jobs=args.jobs)
    _emit_json(verification_to_json(report), args.out, stdout)
    return 0 if not report.counterexamples else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedcayley",
        description="Exact spectra and integrality classification of mixed Cayley graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_set: bool):
        p.add_argument("--group", required=True, help="group spec, e.g. 12 or 3x3")
        if with_set:
            p.add_argument("--set", default="", help="connection set, e.g. '(0,1),(2,0)' or '1,5'")
            p.add_argument(
                "--no-reduce",
                action="store_true",
                help="reject out-of-range coordinates instead of reducing them",
            )
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("classify", help="run all integrality routes on one set")
    add_common(p, with_set=True)
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")

    p = sub.add_parser("spectrum", help="exact eigenvalues of one matrix kind")
    add_common(p, with_set=True)
    p.add_argument("--kind", choices=SPECTRUM_KINDS, default="hs")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("atoms", help="list atoms and skew classes of a group")
    add_common(p, with_set=False)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("enumerate", help="stream all HS-integral connection sets")
    add_common(p, with_set=False)
    p.add_argument("--budget", type=int, default=None, help="cap on emitted sets")

    p = sub.add_parser("verify", help="sweep subsets and check route agreement")
    add_common(p, with_set=False)
    p.add_argument("--budget", type=int, default=4096, help="max subsets to test")
    p.add_argument("--seed", type=int, default=0, help="sampling seed when not exhaustive")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the sweep, at most the CPU count")

    return parser


_HANDLERS = {
    "classify": _run_classify,
    "spectrum": _run_spectrum,
    "atoms": _run_atoms,
    "enumerate": _run_enumerate,
    "verify": _run_verify,
}


def run(argv=None, stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        # argparse writes usage, errors and --help to sys.stdout/sys.stderr
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args, stdout)
    except ValueError as exc:
        stderr.write(f"error: {exc}\n")
        return 1
    except ConsistencyError as exc:
        stderr.write(f"consistency violation: {exc}\n")
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point stdout at devnull
        # so the flush at exit cannot raise again, and exit 128 + SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)
