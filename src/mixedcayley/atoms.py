"""Atoms of the subgroup Boolean algebra and their skew refinements.

The atom of x is the set of generators of the cyclic subgroup <x>; when
the order of x is divisible by 3 the atom splits into two skew classes,
distinguished by the residue mod 3 of the generator multiplier.  A
symmetric set is a union of atoms iff it is closed under the generator
relation; a skew-symmetric set built from whole skew classes is exactly
the kind whose weighted character sums stay integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .groups import Element, GroupSpec


def g_units(m: int) -> frozenset[int]:
    """Multipliers coprime to m: {k : 1 <= k <= m-1, gcd(k, m) = 1}."""
    if m < 2:
        raise ValueError(f"unit class needs modulus >= 2, got {m}")
    return frozenset(k for k in range(1, m) if gcd(k, m) == 1)


def g_units_mod3(m: int, r: int) -> frozenset[int]:
    """Units of Z_m lying in residue class r mod 3 (requires 3 | m)."""
    if m % 3 != 0:
        raise ValueError(f"modulus must be divisible by 3, got {m}")
    if r not in (1, 2):
        raise ValueError(f"residue must be 1 or 2, got {r}")
    return frozenset(k for k in g_units(m) if k % 3 == r)


def divisors_not3(g: int) -> frozenset[int]:
    """Divisors of g that are not multiples of 3."""
    if g < 1:
        raise ValueError(f"need a positive integer, got {g}")
    return frozenset(k for k in range(1, g + 1) if g % k == 0 and k % 3 != 0)


def divisors_mod3(g: int, r: int) -> frozenset[int]:
    """Divisors of g congruent to r mod 3."""
    if r not in (1, 2):
        raise ValueError(f"residue must be 1 or 2, got {r}")
    return frozenset(k for k in divisors_not3(g) if k % 3 == r)


@lru_cache(maxsize=None)
def _class_index(
    group: GroupSpec,
) -> tuple[dict[Element, frozenset[Element]], dict[Element, frozenset[Element]]]:
    """Maps element -> atom and, where 3 divides its order, element -> skew class.

    Each class is built once and shared by all of its members.
    """
    atoms: dict[Element, frozenset[Element]] = {group.zero: frozenset({group.zero})}
    eclasses: dict[Element, frozenset[Element]] = {}
    for x in group.elements:
        if x in atoms:
            continue
        m = group.order_of(x)
        atom = frozenset(group.scale(k, x) for k in g_units(m))
        atoms.update(dict.fromkeys(atom, atom))
        if m % 3 == 0:
            # k*x for k = 1 mod 3 is x's class; k = 2 mod 3 gives the class of -x
            for r in (1, 2):
                cls = frozenset(group.scale(k, x) for k in g_units_mod3(m, r))
                eclasses.update(dict.fromkeys(cls, cls))
    return atoms, eclasses


def atom_of(group: GroupSpec, x: Element) -> frozenset[Element]:
    """Generators of <x>: the multiples k*x with k a unit mod ord(x).

    ``x`` must be a reduced element of the group.
    """
    return _class_index(group)[0][x]


def eclass_of(group: GroupSpec, x: Element) -> frozenset[Element]:
    """The skew class {k*x : gcd(k, ord(x)) = 1, k = 1 mod 3}.

    ``x`` must be a reduced element of the group.
    """
    cls = _class_index(group)[1].get(x)
    if cls is None:
        raise ValueError(f"element {x} has order {group.order_of(x)}, not divisible by 3")
    return cls


def atom_partition(group: GroupSpec) -> list[frozenset[Element]]:
    """All atoms, ordered by their lexicographically smallest member."""
    seen: set[Element] = set()
    atoms: list[frozenset[Element]] = []
    for x in group.elements:
        if x in seen:
            continue
        a = atom_of(group, x)
        atoms.append(a)
        seen |= a
    return atoms


@dataclass(frozen=True)
class AtomDecomposition:
    """A set written as a disjoint union of atoms or of skew classes.

    ``representatives[i]`` is the lexicographically smallest member of
    ``classes[i]``; classes are listed in representative order.
    """

    kind: str  # "boolean_atoms" or "skew_classes"
    representatives: tuple[Element, ...]
    classes: tuple[frozenset[Element], ...]

    def union(self) -> frozenset[Element]:
        return frozenset().union(*self.classes) if self.classes else frozenset()


def _decompose(members, pieces_of, kind: str) -> AtomDecomposition | None:
    """Greedy closure: peel off the class of the smallest remaining element."""
    members = frozenset(members)
    remaining = set(members)
    reps: list[Element] = []
    classes: list[frozenset[Element]] = []
    while remaining:
        x = min(remaining)
        piece = pieces_of(x)
        if not piece <= members:
            return None
        reps.append(min(piece))
        classes.append(piece)
        remaining -= piece
    pairs = sorted(zip(reps, classes))
    return AtomDecomposition(
        kind=kind,
        representatives=tuple(r for r, _ in pairs),
        classes=tuple(c for _, c in pairs),
    )


def in_boolean_algebra(group: GroupSpec, members) -> AtomDecomposition | None:
    """Decompose a set into whole atoms, or None if some atom is cut."""
    return _decompose(members, _class_index(group)[0].__getitem__, "boolean_atoms")


def in_skew_family(group: GroupSpec, members) -> AtomDecomposition | None:
    """Decompose a skew-symmetric set into whole skew classes.

    Requires every member to have order divisible by 3 and the set to be
    disjoint from its negation; in particular, when no element has order
    divisible by 3 only the empty set passes.
    """
    members = frozenset(members)
    if not members:
        return AtomDecomposition(kind="skew_classes", representatives=(), classes=())
    eclasses = _class_index(group)[1]
    for x in members:
        if x not in eclasses:
            return None
        if group.neg(x) in members:
            return None
    return _decompose(members, eclasses.__getitem__, "skew_classes")
