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
from itertools import chain

# g_units and g_units_mod3 are re-exported: they are part of this module's API
from .groups import Element, GroupSpec, Split, g_units, g_units_mod3

# The atoms and skew classes are the group's own index, GroupSpec._classes,
# built in groups; each function below reads it once per call.


def atom_splits(group: GroupSpec) -> tuple[Split, ...]:
    """Every atom with its skew classes (none, or two), in order of least member."""
    return group._classes.splits


# The index finds an element by equality, so it also finds (1.0,), which equals
# and hashes like (1,).  So every lookup below reads its members through
# _int_members, after which no lookup in the atom index can miss.


def _int_members(group: GroupSpec, atoms: dict, members) -> frozenset[Element]:
    """The members as a frozenset, or ValueError naming one that is not a
    reduced element, an unhashable one included.  Unless every coordinate is
    an int and every member a key of the group's atom map ``atoms``, each
    member is checked with ``group.require_element``, which accepts a bool
    or numpy integer."""
    if isinstance(members, Iterator):  # the slow path below reads the members again
        members = tuple(members)
    try:
        found = frozenset(members)
        if {*map(type, chain.from_iterable(found))} <= {int} and atoms.keys() >= found:
            return found
    except TypeError:  # an unhashable member, or one that is no sequence
        pass
    for x in members:
        group.require_element(x)
    return frozenset(members)


def atom_of(group: GroupSpec, x: Element) -> frozenset[Element]:
    """Generators of <x>: the multiples k*x with k a unit mod ord(x), for a reduced element x."""
    atoms = group._classes.atom
    _int_members(group, atoms, (x,))
    return atoms[x]


def eclass_of(group: GroupSpec, x: Element) -> frozenset[Element]:
    """The skew class {k*x : gcd(k, ord(x)) = 1, k = 1 mod 3} of a reduced element x."""
    index = group._classes
    _int_members(group, index.atom, (x,))
    cls = index.eclass.get(x)
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
    atoms = group._classes.atom
    return _decompose(_int_members(group, atoms, members), atoms)


def in_skew_family(group: GroupSpec, members) -> AtomDecomposition | None:
    """Decompose a skew-symmetric set into whole skew classes.

    Requires every member to have order divisible by 3 and the set to be
    disjoint from its negation; in particular, when no element has order
    divisible by 3 only the empty set passes.
    """
    index = group._classes
    members = _int_members(group, index.atom, members)
    if any(x not in index.eclass or group.neg(x) in members for x in members):
        return None
    return _decompose(members, index.eclass)
