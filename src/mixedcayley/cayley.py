"""Mixed Cayley graphs: matrices, exact spectra, and a numeric oracle.

The connection set splits canonically into a symmetric part (undirected
edges) and a skew part (directed arcs).  Spectra are computed exactly as
character sums over the group, never from the matrix; the dense matrices
and the LAPACK eigensolver exist only as an independent numeric
cross-check of those closed forms.  numpy serves only that cross-check,
so it is imported when the oracle first runs, not with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from .cyclo import CycloNum, reduce_root_counts
from .groups import Element, GroupSpec

if TYPE_CHECKING:
    import numpy as np

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


def character_sum(
    group: GroupSpec, alpha: Element, terms: Iterable[tuple[Element, int]]
) -> CycloNum:
    """Exact sum of w_N^shift * psi_alpha(x) over the (x, shift) terms, N = root_order."""
    n = group.root_order
    # looked up per call, so tracing still sees every call; each call reads the
    # group's exponent table (see groups)
    exponent = group.character_exponent
    counts = [0] * n
    for x, shift in terms:
        # an exponent lies in [0, n) already; only a shifted one can wrap
        if shift:
            counts[(shift + exponent(alpha, x)) % n] += 1
        else:
            counts[exponent(alpha, x)] += 1
    return reduce_root_counts(n, counts)


def _terms(cs: ConnectionSet, kind: str) -> list[tuple[Element, int]]:
    """(member, shift) terms of one spectrum: psi(s) for a symmetric member,
    the arc pair w6*psi(s) + w6^5*psi(-s) for a skew one, all plain for adjacency."""
    if kind == "adjacency":
        return [(s, 0) for s in cs.members]
    g = cs.group
    q6 = g.root_order // 6
    terms = []
    if kind in ("hs", "simple_part"):
        terms += [(s, 0) for s in cs.sym_part]
    if kind in ("hs", "skew_part"):
        for s in cs.skew_part:
            terms += [(s, q6), (g.neg(s), 5 * q6)]
    return terms


def hs_eigenvalue(cs: ConnectionSet, alpha: Element) -> CycloNum:
    """Exact HS eigenvalue: the symmetric-part character sum plus the
    sixth-root weighted skew-part sum.  ``alpha`` must be a reduced element."""
    cs.group.require_element(alpha)
    return character_sum(cs.group, alpha, _terms(cs, "hs"))


def a_eigenvalue(cs: ConnectionSet, alpha: Element) -> CycloNum:
    """Exact (0,1)-adjacency eigenvalue: the plain character sum over S.
    ``alpha`` must be a reduced element."""
    cs.group.require_element(alpha)
    return character_sum(cs.group, alpha, _terms(cs, "adjacency"))


def exact_spectrum(cs: ConnectionSet, kind: str = "hs") -> dict[Element, CycloNum]:
    """All eigenvalues of the requested matrix, keyed by alpha in lex order."""
    if kind not in SPECTRUM_KINDS:
        raise ValueError(f"unknown spectrum kind {kind!r}, expected one of {SPECTRUM_KINDS}")
    terms = _terms(cs, kind)
    return {alpha: character_sum(cs.group, alpha, terms) for alpha in cs.group.elements}


def hermitian_complex(m: MixedGraphMatrices) -> np.ndarray:
    import numpy as np

    return np.array(
        [[_ENTRY_VALUES[e] for e in row] for row in m.hermitian2], dtype=complex
    )


def numeric_hermitian_eigenvalues(m: MixedGraphMatrices) -> list[float]:
    """Eigenvalues of the complex Hermitian matrix, ascending, from LAPACK."""
    if m.n > MAX_ORACLE_SIZE:
        raise ValueError(f"numeric oracle capped at n <= {MAX_ORACLE_SIZE}, got {m.n}")
    import numpy as np

    try:
        return [float(v) for v in np.linalg.eigvalsh(hermitian_complex(m))]
    except np.linalg.LinAlgError as exc:
        raise NumericOracleError(f"eigvalsh failed: {exc}") from exc


def element_label(x: Element) -> str:
    return "(" + ",".join(str(c) for c in x) + ")"


def to_dot(cs: ConnectionSet) -> Iterator[str]:
    """DOT export, one line at a time, each ending in a newline: undirected
    edges for the symmetric part, arcs for the skew."""
    g = cs.group
    label = {x: element_label(x) for x in g.elements}
    yield "digraph cayley {\n"
    for x in g.elements:
        yield f'  "{label[x]}";\n'
    sym, skew = sorted(cs.sym_part), sorted(cs.skew_part)
    for u in g.elements:
        for s in sym:
            v = g.add(u, s)
            if u < v:
                yield f'  "{label[u]}" -> "{label[v]}" [dir=none];\n'
        for s in skew:
            yield f'  "{label[u]}" -> "{label[g.add(u, s)]}";\n'
    yield "}\n"
