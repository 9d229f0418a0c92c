"""Integrality classification of mixed Cayley graphs.

Three independent routes are computed for every input and must agree:
the set-theoretic characterization (symmetric part a union of atoms,
skew part a union of skew classes), the exact HS spectrum (every
eigenvalue a rational integer), and the exact adjacency spectrum (every
eigenvalue an Eisenstein integer).  Disagreement means a bug or a broken
theorem and is surfaced loudly, never papered over.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import islice, product
from math import prod
from typing import Iterator, NamedTuple, Sequence

from .atoms import (
    AtomDecomposition,
    atom_of,
    atom_splits,
    eclass_of,
    in_boolean_algebra,
    in_skew_family,
)
from .cayley import (
    ConnectionSet,
    character_sum,
    exact_spectrum,
    make_connection_set,
)
from .cyclo import CycloNum, _reduction_plan, as_eisenstein, as_integer, reduce_root_counts
from .groups import Element, GroupSpec, make_group


class ConsistencyError(RuntimeError):
    """An exact identity that must always hold failed; do not trust results."""


class CertificateValues(NamedTuple):
    """The exact certificate sums of one skew class and character, all integers.

    ``hs_sum`` is the sixth-root weighted sum over the skew class of x,
    ``atom_sum`` the plain character sum over the atom of x, and
    ``imbalance`` the i*sqrt(3)-weighted forward/backward difference over
    the skew class.  They satisfy 2*hs_sum = atom_sum + imbalance and 3
    divides the imbalance, so atom_sum has the parity of imbalance/3.
    """

    hs_sum: int
    atom_sum: int
    imbalance: int


def atom_character_sum(group: GroupSpec, x: Element, alpha: Element) -> CycloNum:
    """Character sum over the atom of x (an adjacency eigenvalue of that atom).

    ``x`` and ``alpha`` must be reduced elements of the group.
    """
    group.require_element(alpha)
    return character_sum(group, alpha, [(s, 0) for s in atom_of(group, x)])


def certificate(group: GroupSpec, x: Element, alpha: Element) -> CertificateValues:
    """Compute and validate the certificate sums for x and alpha.

    Raises ConsistencyError if any of the always-true integrality or
    divisibility facts fails, since that would falsify the machinery every
    verdict rests on.
    """
    eclass = eclass_of(group, x)  # ValueError unless x is in the group and 3 divides its order
    group.require_element(alpha)
    n = group.root_order
    up, down = n // 6, 5 * n // 6  # the exponents of w6 and w6^5
    exponent = group.character_exponent
    # one pass over the skew class fills both count vectors:
    # hs = w6*psi(s) + w6^5*psi(-s), and the imbalance is
    # i*sqrt(3)*(psi(s) - psi(-s)) with i*sqrt(3) = w6 - w6^5
    hs = [0] * n
    imb = [0] * n
    for s in eclass:
        e = exponent(alpha, s)
        f = exponent(alpha, group.neg(s))
        forward, backward = (e + up) % n, (f + down) % n
        hs[forward] += 1
        hs[backward] += 1
        imb[forward] += 1
        imb[backward] += 1
        imb[(e + down) % n] -= 1
        imb[(f + up) % n] -= 1
    hs_sum = reduce_root_counts(n, hs)
    imbalance = reduce_root_counts(n, imb)
    atom_sum = atom_character_sum(group, x, alpha)

    z = as_integer(hs_sum)
    c = as_integer(atom_sum)
    t = as_integer(imbalance)
    if z is None or c is None or t is None:
        raise ConsistencyError(
            f"certificate sums not all integral for x={x}, alpha={alpha}: "
            f"hs={hs_sum!r} atom={atom_sum!r} imbalance={imbalance!r}"
        )
    if 2 * z != c + t:
        raise ConsistencyError(
            f"certificate identity 2Z = C + T failed for x={x}, alpha={alpha}"
        )
    if t % 3 != 0:
        raise ConsistencyError(
            f"imbalance {t} not divisible by 3 for x={x}, alpha={alpha}"
        )
    return CertificateValues(z, c, t)


# Reduction terms one classify, spectrum or verify may cost.  At this bound
# the slowest accepted verifies measured take under 60 s on a 2-core VM.
_WORK_CAP = 400_000_000


def _require_work(group: GroupSpec, exponents: int, command: str, smaller: str) -> None:
    """Raise ValueError when forming ``exponents`` character exponents costs
    more than ``_WORK_CAP`` reduction terms."""
    # An exponent costs the terms of its row in the reduction's power table,
    # plus about 20 terms' worth for forming it.  Rows average 1.3 terms on
    # Z_256 (N = 768) but 353 on Z_715 (N = 4290).
    rows, _, _ = _reduction_plan(group.root_order)
    work = exponents * (20 * len(rows) + sum(map(len, rows))) // len(rows)
    if work > _WORK_CAP:
        raise ValueError(f"{work} reduction terms exceed the {command} bound of {_WORK_CAP}; use a smaller {smaller}")


@dataclass(frozen=True)
class ClassificationReport:
    """Verdicts, decompositions and exact spectra for one connection set."""

    group: GroupSpec
    connection_set: ConnectionSet
    sym_decomposition: AtomDecomposition | None
    skew_decomposition: AtomDecomposition | None
    hs_verdict_characterization: bool
    hs_verdict_spectral: bool
    eisenstein_verdict_spectral: bool
    hs_spectrum: dict[Element, CycloNum]
    a_spectrum: dict[Element, CycloNum]
    consistency: bool


@dataclass(frozen=True)
class _SubsetFlags:
    hs_char: bool
    hs_spectral: bool
    eisenstein: bool
    sym_integral: bool
    skew_hs_integral: bool

    def consistent(self) -> bool:
        return self.hs_char == self.hs_spectral == self.eisenstein

    def split_consistent(self) -> bool:
        return self.hs_spectral == (self.sym_integral and self.skew_hs_integral)


def _subset_flags(
    cs: ConnectionSet, keep_hs: bool = False
) -> tuple[_SubsetFlags, dict[Element, CycloNum] | None, dict[Element, CycloNum]]:
    """Route verdicts for one set, with its HS spectrum and adjacency spectrum.

    Both characterization tests always run, so each costs one call per set.
    The HS spectrum is the sum of the simple and skew parts, formed after
    their own flags: each HS value takes the place of its two parts, so no
    more than two spectra are held at once.  With ``keep_hs`` it is summed
    at every alpha and returned, otherwise the sum stops at the first
    non-integral alpha and None is returned in its place.
    """
    g = cs.group
    simple = exact_spectrum(cs, "simple_part")
    skew = exact_spectrum(cs, "skew_part")
    sym_integral = all(as_integer(v) is not None for v in simple.values())
    skew_hs_integral = all(as_integer(v) is not None for v in skew.values())
    hs_values = (simple.pop(a) + skew.pop(a) for a in g.elements)
    hs = None
    if keep_hs:
        hs = dict(zip(g.elements, hs_values))
        hs_values = hs.values()
    hs_spectral = all(as_integer(v) is not None for v in hs_values)
    del simple, skew
    adjacency = exact_spectrum(cs, "adjacency")
    sym_ok = in_boolean_algebra(g, cs.sym_part) is not None
    skew_ok = in_skew_family(g, cs.skew_part) is not None
    flags = _SubsetFlags(
        hs_char=sym_ok and skew_ok,
        hs_spectral=hs_spectral,
        eisenstein=all(as_eisenstein(v) is not None for v in adjacency.values()),
        sym_integral=sym_integral,
        skew_hs_integral=skew_hs_integral,
    )
    return flags, hs, adjacency


def classify(group: GroupSpec, members) -> ClassificationReport:
    """Run all three integrality routes on one connection set, or raise
    ValueError before any of them when its cost would pass ``_WORK_CAP``."""
    cs = make_connection_set(group, members)
    # three spectra of n eigenvalues: the simple part counts each symmetric
    # member once, the skew part each skew member twice, adjacency each member once
    terms = len(cs.sym_part) + 2 * len(cs.skew_part) + len(cs.members)
    _require_work(group, group.order * terms, "classify", "set")
    flags, hs, adjacency = _subset_flags(cs, keep_hs=True)
    return ClassificationReport(
        group=group,
        connection_set=cs,
        sym_decomposition=in_boolean_algebra(group, cs.sym_part),
        skew_decomposition=in_skew_family(group, cs.skew_part),
        hs_verdict_characterization=flags.hs_char,
        hs_verdict_spectral=flags.hs_spectral,
        eisenstein_verdict_spectral=flags.eisenstein,
        hs_spectrum=hs,
        a_spectrum=adjacency,
        consistency=flags.consistent(),
    )


@dataclass(frozen=True)
class EnumerationStream:
    """Lazy stream of HS-integral connection sets with a truncation marker."""

    group: GroupSpec
    total: int
    truncated: bool
    sets: Iterator[ConnectionSet]


def _atom_choices(group: GroupSpec) -> list[list[frozenset[Element]]]:
    """Per nonzero atom: skip it, take it whole, or take one of its skew classes."""
    return [
        [frozenset(), atom, *classes]
        for atom, classes in atom_splits(group)
        if group.zero not in atom
    ]


def enumerate_hs_integral(
    group: GroupSpec, budget: int | None = None
) -> EnumerationStream:
    """Generate exactly the HS-integral connection sets, constructively.

    Every HS-integral set picks, within each atom, either nothing, the
    whole atom, or (when the atom order is divisible by 3) one of its two
    skew classes; the stream walks those choices in a fixed order, so runs
    are reproducible.  ``budget`` caps the number of emitted sets, with
    the overflow flagged rather than silently dropped.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"enumeration budget must be >= 0, got {budget}")
    choices = _atom_choices(group)
    total = prod(map(len, choices))
    sets = (
        make_connection_set(group, frozenset().union(*picks))
        for picks in islice(product(*choices), budget)
    )
    return EnumerationStream(
        group=group,
        total=total,
        truncated=budget is not None and total > budget,
        sets=sets,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an exhaustive or sampled sweep over connection sets.

    ``budget`` is the cap the sweep was given (None for none); the sweep
    is ``exhaustive`` when every subset fit under it.
    """

    group: GroupSpec
    subsets_tested: int
    hs_integral_count: int
    counterexamples: tuple[dict, ...]
    seed: int
    exhaustive: bool
    budget: int | None


def _check_masks(
    moduli: tuple[int, ...], masks: Sequence[int]
) -> tuple[int, list[dict]]:
    """Worker: classify each masked subset, return HS count and failures."""
    group = make_group(moduli)
    nonzero = tuple(x for x in group.elements if x != group.zero)
    hs_count = 0
    bad: list[dict] = []
    for mask in masks:
        members = frozenset(x for i, x in enumerate(nonzero) if mask >> i & 1)
        flags, _, _ = _subset_flags(make_connection_set(group, members))
        if flags.hs_spectral:
            hs_count += 1
        if not (flags.consistent() and flags.split_consistent()):
            bad.append(
                {
                    "kind": "subset",
                    "set": [list(x) for x in sorted(members)],
                    "hs_characterization": flags.hs_char,
                    "hs_spectral": flags.hs_spectral,
                    "eisenstein_spectral": flags.eisenstein,
                    "sym_part_integral": flags.sym_integral,
                    "skew_part_hs_integral": flags.skew_hs_integral,
                }
            )
    return hs_count, bad


def _certificate_counterexamples(group: GroupSpec) -> list[dict]:
    bad: list[dict] = []
    for x in sorted(group.gamma3()):
        for alpha in group.elements:
            try:
                certificate(group, x, alpha)
            except ConsistencyError as exc:
                bad.append(
                    {"kind": "certificate", "x": list(x), "alpha": list(alpha), "error": str(exc)}
                )
    return bad


def verify_theorems(
    group: GroupSpec,
    budget: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> VerificationReport:
    """Sweep connection sets and check that all integrality routes agree.

    Checks per subset: characterization == HS spectral == Eisenstein
    spectral, and HS spectral == (symmetric part integral and skew part
    HS-integral).  On top of the sweep, every certificate identity is
    checked once per group.  Exhaustive when 2^(n-1) fits in the budget,
    otherwise a seeded uniform sample of ``budget`` subsets.  A verify
    whose estimated cost passes ``_WORK_CAP`` reduction terms is refused
    with ValueError before it starts.  ``jobs`` worker processes share the
    sweep, at most ``os.cpu_count()`` of them.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"verification budget must be >= 1, got {budget}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    n = group.order
    total = 1 << (n - 1)
    exhaustive = budget is None or total <= budget
    tested = total if exhaustive else budget
    # A subset costs at most 3n(n-1) character exponents: three spectra of n
    # eigenvalues, each member counted at most three times.  The certificate
    # pass costs 2|A| exponents for each of the n|A| pairs (x, alpha) of an
    # atom A that splits into skew classes, plus about 20 per pair for the
    # certificate itself.
    certificates = sum(len(atom) * (len(atom) + 10) for atom, classes in atom_splits(group) if classes)
    _require_work(group, n * (3 * (n - 1) * tested + 2 * certificates), "verify", "budget")
    if exhaustive:
        masks: Sequence[int] = range(total)
    else:
        # distinct draws, kept in the order they were first drawn
        rng = random.Random(seed)
        drawn: dict[int, None] = {}
        while len(drawn) < budget:
            drawn[rng.getrandbits(n - 1)] = None
        masks = list(drawn)

    # the pool starts all its workers at once, so never ask for more than the CPUs
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1 and len(masks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = (len(masks) + jobs - 1) // jobs
        chunks = [masks[i : i + chunk] for i in range(0, len(masks), chunk)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(_check_masks, [group.moduli] * len(chunks), chunks)
            )
    else:
        results = [_check_masks(group.moduli, masks)]

    hs_count = sum(r[0] for r in results)
    counterexamples: list[dict] = []
    for _, bad in results:
        counterexamples.extend(bad)
    counterexamples.extend(_certificate_counterexamples(group))
    return VerificationReport(
        group=group,
        subsets_tested=len(masks),
        hs_integral_count=hs_count,
        counterexamples=tuple(counterexamples),
        seed=seed,
        exhaustive=exhaustive,
        budget=budget,
    )
