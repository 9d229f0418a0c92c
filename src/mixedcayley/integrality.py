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
from fractions import Fraction
from itertools import islice, product
from math import prod
from typing import Iterable, Iterator

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
    ExactSpectrum,
    character_sum,
    exact_spectrum,
    make_connection_set,
)
from .cyclo import CycloNum, as_eisenstein, as_integer, root
from .groups import Element, GroupSpec, make_group

_THIRD = Fraction(1, 3)


class ConsistencyError(RuntimeError):
    """An exact identity that must always hold failed; do not trust results."""


@dataclass(frozen=True)
class CertificateValues:
    """Exact certificate sums attached to one skew class and character.

    ``hs_sum`` is the sixth-root weighted sum over the skew class of x,
    ``atom_sum`` the plain character sum over the atom of x, and
    ``imbalance`` the i*sqrt(3)-weighted forward/backward difference over
    the skew class.  They satisfy 2*hs_sum = atom_sum + imbalance, all
    three are integers, 3 divides the imbalance, and atom_sum has the
    parity of imbalance/3.
    """

    x: Element
    alpha: Element
    hs_sum: CycloNum
    atom_sum: CycloNum
    imbalance: CycloNum
    imbalance_div3: int | None
    parity_ok: bool


def atom_character_sum(group: GroupSpec, x: Element, alpha: Element) -> CycloNum:
    """Character sum over the atom of x (an adjacency eigenvalue of that atom)."""
    return character_sum(group, alpha, [(s, 0) for s in atom_of(group, x)])


def certificate(group: GroupSpec, x: Element, alpha: Element) -> CertificateValues:
    """Compute and validate the certificate sums for x and alpha.

    Raises ConsistencyError if any of the always-true integrality or
    divisibility facts fails, since that would falsify the machinery every
    verdict rests on.
    """
    eclass = eclass_of(group, x)  # ValueError unless x is in the group and 3 divides its order
    n = group.root_order
    forward = character_sum(group, alpha, [(s, 0) for s in eclass])
    backward = character_sum(group, alpha, [(group.neg(s), 0) for s in eclass])
    atom_sum = atom_character_sum(group, x, alpha)
    w6, w6_5 = root(n, n // 6), root(n, 5 * n // 6)
    hs_sum = (w6 * forward + w6_5 * backward).reduce()
    # i*sqrt(3) = w6 - w6^5 applied to psi(s) - psi(-s)
    imbalance = ((w6 - w6_5) * (forward - backward)).reduce()

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
    if not (2 * hs_sum - atom_sum - imbalance).is_zero():
        raise ConsistencyError(
            f"exact certificate identity failed for x={x}, alpha={alpha}"
        )
    if t % 3 != 0:
        raise ConsistencyError(
            f"imbalance {t} not divisible by 3 for x={x}, alpha={alpha}"
        )
    return CertificateValues(
        x=x,
        alpha=alpha,
        hs_sum=hs_sum,
        atom_sum=atom_sum,
        imbalance=imbalance,
        imbalance_div3=t // 3,
        parity_ok=(c - t // 3) % 2 == 0,
    )


def eisenstein_components(cs: ConnectionSet, alpha: Element) -> tuple[CycloNum, CycloNum]:
    """The real pair (f, g) whose integrality decides Eisenstein integrality.

    f is the symmetric-part character sum; g weights the skew part with
    (1 + w6^5)/3 forward and (1 + w6)/3 backward.  The adjacency
    eigenvalue equals f + g + w3*(g(alpha) - g(-alpha)).
    """
    g = cs.group
    q6 = g.root_order // 6
    f_val = character_sum(g, alpha, [(s, 0) for s in cs.sym_part])
    g_terms = []
    for s in cs.skew_part:
        g_terms += [(s, 0), (s, 5 * q6), (g.neg(s), 0), (g.neg(s), q6)]
    g_val = (character_sum(g, alpha, g_terms) * _THIRD).reduce()
    return f_val, g_val


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
    hs_spectrum: ExactSpectrum
    a_spectrum: ExactSpectrum
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
    cs: ConnectionSet,
    simple: ExactSpectrum,
    skew: ExactSpectrum,
    adjacency: ExactSpectrum,
    hs_values: Iterable[CycloNum],
) -> _SubsetFlags:
    """Route verdicts for one set; ``hs_values`` yields simple + skew per character."""
    g = cs.group
    sym_ok = in_boolean_algebra(g, cs.sym_part) is not None
    skew_ok = in_skew_family(g, cs.skew_part) is not None
    sym_integral = all(as_integer(v) is not None for v in simple.entries.values())
    skew_integral = all(as_integer(v) is not None for v in skew.entries.values())
    hs_spectral = all(as_integer(v) is not None for v in hs_values)
    eis = all(as_eisenstein(v) is not None for v in adjacency.entries.values())
    return _SubsetFlags(
        hs_char=sym_ok and skew_ok,
        hs_spectral=hs_spectral,
        eisenstein=eis,
        sym_integral=sym_integral,
        skew_hs_integral=skew_integral,
    )


def classify(group: GroupSpec, members) -> ClassificationReport:
    """Run all three integrality routes on one connection set."""
    cs = make_connection_set(group, members)
    simple = exact_spectrum(cs, "simple_part")
    skew = exact_spectrum(cs, "skew_part")
    adjacency = exact_spectrum(cs, "adjacency")
    hs = ExactSpectrum(
        kind="hs",
        entries={
            a: simple.entries[a] + skew.entries[a] for a in group.elements
        },
    )
    flags = _subset_flags(cs, simple, skew, adjacency, hs.entries.values())
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
    """Outcome of an exhaustive or sampled sweep over connection sets."""

    group: GroupSpec
    subsets_tested: int
    hs_integral_count: int
    counterexamples: tuple[dict, ...]
    seed: int
    exhaustive: bool


def _format_members(members) -> list[list[int]]:
    return [list(x) for x in sorted(members)]


def _subset_from_mask(nonzero: tuple[Element, ...], mask: int) -> frozenset[Element]:
    return frozenset(x for i, x in enumerate(nonzero) if mask >> i & 1)


def _check_masks(
    moduli: tuple[int, ...], masks: list[int]
) -> tuple[int, list[dict]]:
    """Worker: classify each masked subset, return HS count and failures."""
    group = make_group(moduli)
    nonzero = tuple(x for x in group.elements if x != group.zero)
    hs_count = 0
    bad: list[dict] = []
    for mask in masks:
        members = _subset_from_mask(nonzero, mask)
        cs = make_connection_set(group, members)
        simple = exact_spectrum(cs, "simple_part")
        skew = exact_spectrum(cs, "skew_part")
        adjacency = exact_spectrum(cs, "adjacency")
        # a generator, so the sum stops at the first non-integral character
        hs_values = (simple.entries[a] + skew.entries[a] for a in group.elements)
        flags = _subset_flags(cs, simple, skew, adjacency, hs_values)
        if flags.hs_spectral:
            hs_count += 1
        if not (flags.consistent() and flags.split_consistent()):
            bad.append(
                {
                    "kind": "subset",
                    "set": _format_members(members),
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
                cert = certificate(group, x, alpha)
            except ConsistencyError as exc:
                bad.append(
                    {"kind": "certificate", "x": list(x), "alpha": list(alpha), "error": str(exc)}
                )
                continue
            if not cert.parity_ok:
                bad.append(
                    {
                        "kind": "certificate",
                        "x": list(x),
                        "alpha": list(alpha),
                        "error": "atom sum and imbalance/3 have different parity",
                    }
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
    otherwise a seeded uniform sample of ``budget`` subsets.  ``jobs`` worker
    processes share the sweep, at most ``os.cpu_count()`` of them.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"verification budget must be >= 1, got {budget}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    nonzero = tuple(x for x in group.elements if x != group.zero)
    total = 1 << len(nonzero)
    exhaustive = budget is None or total <= budget
    if exhaustive:
        masks = list(range(total))
    else:
        rng = random.Random(seed)
        seen: set[int] = set()
        masks = []
        while len(masks) < budget:
            m = rng.getrandbits(len(nonzero)) if nonzero else 0
            if m not in seen:
                seen.add(m)
                masks.append(m)

    # the pool starts all its workers at once, so never ask for more than the CPUs
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1 and len(masks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, (len(masks) + jobs - 1) // jobs)
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
    )
