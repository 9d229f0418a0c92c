"""Atoms of the subgroup Boolean algebra and their skew refinements.

The atom of x is the set of generators of the cyclic subgroup <x>; when
the order of x is divisible by 3 the atom splits into two skew classes,
distinguished by the residue mod 3 of the generator multiplier.  A
symmetric set is a union of atoms iff it is closed under the generator
relation; a skew-symmetric set built from whole skew classes is exactly
the kind whose weighted character sums stay integral.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd
from typing import NamedTuple

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


Split = tuple[frozenset[Element], tuple[frozenset[Element], ...]]


class _ClassIndex(NamedTuple):
    splits: tuple[Split, ...]
    atom: dict[Element, frozenset[Element]]
    eclass: dict[Element, frozenset[Element]]


@lru_cache(maxsize=None)
def _class_index(group: GroupSpec) -> _ClassIndex:
    """The group's atoms with their skew classes, and the element -> class maps.

    One lexicographic walk: each new x is the least member of its atom, and
    its k = 1 (mod 3) class holds x, so atoms and skew classes both come out
    in order of least member.  Each class is one frozenset shared by its
    members.
    """
    atoms = {group.zero: frozenset({group.zero})}
    splits: list[Split] = [(atoms[group.zero], ())]
    eclasses: dict[Element, frozenset[Element]] = {}
    for x in group.elements:
        if x in atoms:
            continue
        m = group.order_of(x)
        atom = frozenset(group.scale(k, x) for k in g_units(m))
        atoms.update(dict.fromkeys(atom, atom))
        residues = (1, 2) if m % 3 == 0 else ()
        classes = tuple(frozenset(group.scale(k, x) for k in g_units_mod3(m, r)) for r in residues)
        for cls in classes:
            eclasses.update(dict.fromkeys(cls, cls))
        splits.append((atom, classes))
    return _ClassIndex(tuple(splits), atoms, eclasses)


def atom_splits(group: GroupSpec) -> tuple[Split, ...]:
    """Every atom with its skew classes (none, or two), in order of least member."""
    return _class_index(group).splits


# The index finds an element by equality, so it also finds (1.0,), which equals
# and hashes like (1,).  So every lookup below reads its members through
# _int_members, after which no lookup in the atom index can miss.


def _int_members(group: GroupSpec, members) -> frozenset[Element]:
    """The members as a frozenset, or ValueError naming one that is not a
    reduced element, an unhashable one included.  Unless every coordinate is
    an int and every member a key of the atom index, each member is checked
    with ``group.require_element``, which accepts a bool or numpy integer."""
    if isinstance(members, Iterator):  # the slow path below reads the members again
        members = tuple(members)
    try:
        found = frozenset(members)
        if {*map(type, chain.from_iterable(found))} <= {int} and _class_index(group).atom.keys() >= found:
            return found
    except TypeError:  # an unhashable member, or one that is no sequence
        pass
    for x in members:
        group.require_element(x)
    return frozenset(members)


def atom_of(group: GroupSpec, x: Element) -> frozenset[Element]:
    """Generators of <x>: the multiples k*x with k a unit mod ord(x), for a reduced element x."""
    _int_members(group, (x,))
    return _class_index(group).atom[x]


def eclass_of(group: GroupSpec, x: Element) -> frozenset[Element]:
    """The skew class {k*x : gcd(k, ord(x)) = 1, k = 1 mod 3} of a reduced element x."""
    _int_members(group, (x,))
    cls = _class_index(group).eclass.get(x)
    if cls is None:
        raise ValueError(f"element {x} has order {group.order_of(x)}, not divisible by 3")
    return cls


@dataclass(frozen=True)
class AtomDecomposition:
    """A set written as a disjoint union of atoms or of skew classes.

    ``representatives[i]`` is the lexicographically smallest member of
    ``classes[i]``; classes are listed in representative order.
    """

    representatives: tuple[Element, ...]
    classes: tuple[frozenset[Element], ...]


def _decompose(members: frozenset[Element], class_of) -> AtomDecomposition | None:
    """The distinct classes of the members, or None if one is not a subset."""
    classes = {class_of[x] for x in members}
    if not all(cls <= members for cls in classes):
        return None
    ordered = sorted(classes, key=min)
    return AtomDecomposition(representatives=tuple(map(min, ordered)), classes=tuple(ordered))


def in_boolean_algebra(group: GroupSpec, members) -> AtomDecomposition | None:
    """Decompose a set into whole atoms, or None if some atom is cut."""
    return _decompose(_int_members(group, members), _class_index(group).atom)


def in_skew_family(group: GroupSpec, members) -> AtomDecomposition | None:
    """Decompose a skew-symmetric set into whole skew classes.

    Requires every member to have order divisible by 3 and the set to be
    disjoint from its negation; in particular, when no element has order
    divisible by 3 only the empty set passes.
    """
    members = _int_members(group, members)
    eclasses = _class_index(group).eclass
    if any(x not in eclasses or group.neg(x) in members for x in members):
        return None
    return _decompose(members, eclasses)
