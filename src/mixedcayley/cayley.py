"""Mixed Cayley graphs: matrices, exact spectra, and a numeric oracle.

The connection set splits canonically into a symmetric part (undirected
edges) and a skew part (directed arcs).  Spectra are computed exactly as
character sums over the group, never from the matrix; the dense matrices
and the LAPACK eigensolver exist only as an independent numeric
cross-check of those closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cyclo import CycloNum, reduce_root_counts
from .groups import Element, GroupSpec

SPECTRUM_KINDS = ("hs", "adjacency", "simple_part", "skew_part")

_W6 = complex(0.5, math.sqrt(3.0) / 2.0)

_ENTRY_VALUES = {"0": 0j, "1": 1 + 0j, "w6": _W6, "w6^5": _W6.conjugate()}

MAX_ORACLE_SIZE = 128


class NumericOracleError(RuntimeError):
    """The LAPACK eigensolver behind the numeric oracle failed."""


@dataclass(frozen=True)
class ConnectionSet:
    """A subset S of the group without 0, split into its two parts.

    ``skew_part`` holds the members whose negation is outside S,
    ``sym_part`` the rest; the parts partition ``members``.
    """

    group: GroupSpec
    members: frozenset[Element]
    sym_part: frozenset[Element]
    skew_part: frozenset[Element]

    def is_symmetric(self) -> bool:
        return not self.skew_part

    def is_skew_symmetric(self) -> bool:
        return not self.sym_part


def make_connection_set(group: GroupSpec, members: Iterable) -> ConnectionSet:
    """Validate members and compute the canonical symmetric/skew split."""
    norm = frozenset(group.element(x) for x in members)
    if group.zero in norm:
        raise ValueError("connection set must not contain the identity element")
    skew = frozenset(s for s in norm if group.neg(s) not in norm)
    return ConnectionSet(
        group=group, members=norm, sym_part=norm - skew, skew_part=skew
    )


@dataclass(frozen=True)
class MixedGraphMatrices:
    """Dense 0/1 adjacency and coded second-kind Hermitian matrices.

    Hermitian entries are the strings "0", "1", "w6", "w6^5"; rows and
    columns follow the group's lexicographic element order.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    hermitian2: tuple[tuple[str, ...], ...]


def build_matrices(cs: ConnectionSet) -> MixedGraphMatrices:
    g = cs.group
    elems = g.elements
    adj = []
    herm = []
    for u in elems:
        arow = []
        hrow = []
        for v in elems:
            d = g.add(v, g.neg(u))
            arow.append(1 if d in cs.members else 0)
            if d in cs.sym_part:
                hrow.append("1")
            elif d in cs.skew_part:
                hrow.append("w6")
            elif g.neg(d) in cs.skew_part:
                hrow.append("w6^5")
            else:
                hrow.append("0")
        adj.append(tuple(arow))
        herm.append(tuple(hrow))
    return MixedGraphMatrices(n=g.order, adjacency=tuple(adj), hermitian2=tuple(herm))


def matrices_to_json(m: MixedGraphMatrices) -> dict:
    return {
        "n": m.n,
        "adjacency": [list(row) for row in m.adjacency],
        "hermitian2": [list(row) for row in m.hermitian2],
    }


def _root_counts(cs: ConnectionSet, alpha: Element, kind: str) -> list[int]:
    """Multiplicity vector of w_N^e terms for one eigenvalue sum."""
    g = cs.group
    n = g.root_order
    q6 = n // 6
    counts = [0] * n
    if kind in ("hs", "simple_part"):
        for s in cs.sym_part:
            counts[g.character_exponent(alpha, s)] += 1
    if kind in ("hs", "skew_part"):
        for s in cs.skew_part:
            counts[(q6 + g.character_exponent(alpha, s)) % n] += 1
            counts[(5 * q6 + g.character_exponent(alpha, g.neg(s))) % n] += 1
    if kind == "adjacency":
        for s in cs.members:
            counts[g.character_exponent(alpha, s)] += 1
    return counts


def hs_eigenvalue(cs: ConnectionSet, alpha: Element) -> CycloNum:
    """Exact HS eigenvalue: the symmetric-part character sum plus the
    sixth-root weighted skew-part sum."""
    return reduce_root_counts(cs.group.root_order, _root_counts(cs, alpha, "hs"))


def hs_eigenvalue_components(cs: ConnectionSet, alpha: Element) -> tuple[CycloNum, CycloNum]:
    """The (symmetric, skew) summands of the HS eigenvalue, separately."""
    n = cs.group.root_order
    return (
        reduce_root_counts(n, _root_counts(cs, alpha, "simple_part")),
        reduce_root_counts(n, _root_counts(cs, alpha, "skew_part")),
    )


def a_eigenvalue(cs: ConnectionSet, alpha: Element) -> CycloNum:
    """Exact (0,1)-adjacency eigenvalue: the plain character sum over S."""
    return reduce_root_counts(
        cs.group.root_order, _root_counts(cs, alpha, "adjacency")
    )


@dataclass(frozen=True)
class ExactSpectrum:
    """Map from character index alpha to an exact eigenvalue."""

    kind: str
    entries: dict[Element, CycloNum]

    def values(self) -> list[CycloNum]:
        return list(self.entries.values())

    def complex_values(self) -> list[complex]:
        return [z.to_complex() for z in self.entries.values()]


def exact_spectrum(cs: ConnectionSet, kind: str = "hs") -> ExactSpectrum:
    """All eigenvalues of the requested matrix, indexed by alpha in lex order."""
    if kind not in SPECTRUM_KINDS:
        raise ValueError(f"unknown spectrum kind {kind!r}, expected one of {SPECTRUM_KINDS}")
    n = cs.group.root_order
    entries = {
        alpha: reduce_root_counts(n, _root_counts(cs, alpha, kind))
        for alpha in cs.group.elements
    }
    return ExactSpectrum(kind=kind, entries=entries)


def hermitian_complex(m: MixedGraphMatrices) -> np.ndarray:
    return np.array(
        [[_ENTRY_VALUES[e] for e in row] for row in m.hermitian2], dtype=complex
    )


def numeric_hermitian_eigenvalues(m: MixedGraphMatrices) -> list[float]:
    """Eigenvalues of the complex Hermitian matrix, ascending, from LAPACK."""
    if m.n > MAX_ORACLE_SIZE:
        raise ValueError(f"numeric oracle capped at n <= {MAX_ORACLE_SIZE}, got {m.n}")
    try:
        return [float(v) for v in np.linalg.eigvalsh(hermitian_complex(m))]
    except np.linalg.LinAlgError as exc:
        raise NumericOracleError(f"eigvalsh failed: {exc}") from exc


def element_label(x: Element) -> str:
    return "(" + ",".join(str(c) for c in x) + ")"


def to_dot(cs: ConnectionSet, name: str = "cayley") -> str:
    """DOT export: undirected edges for the symmetric part, arcs for the skew."""
    g = cs.group
    lines = [f"digraph {name} {{"]
    for x in g.elements:
        lines.append(f'  "{element_label(x)}";')
    for u in g.elements:
        for s in sorted(cs.sym_part):
            v = g.add(u, s)
            if u < v:
                lines.append(f'  "{element_label(u)}" -> "{element_label(v)}" [dir=none];')
        for s in sorted(cs.skew_part):
            v = g.add(u, s)
            lines.append(f'  "{element_label(u)}" -> "{element_label(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
