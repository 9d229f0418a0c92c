"""Atoms, skew classes, and membership decompositions."""

from __future__ import annotations

import random
import re
from math import gcd

import pytest

from mixedcayley import (
    a_eigenvalue,
    atom_character_sum,
    atom_of,
    atom_splits,
    certificate,
    eclass_of,
    g_units,
    g_units_mod3,
    hs_eigenvalue,
    in_boolean_algebra,
    in_skew_family,
    make_connection_set,
    make_group,
)


def test_g_units_examples():
    assert g_units(12) == {1, 5, 7, 11}
    assert g_units(3) == {1, 2}
    assert g_units(9) == {1, 2, 4, 5, 7, 8}
    with pytest.raises(ValueError):
        g_units(1)


def test_g_units_mod3_examples():
    assert g_units_mod3(12, 1) == {1, 7}
    assert g_units_mod3(12, 2) == {5, 11}
    assert g_units_mod3(9, 1) == {1, 4, 7}
    for m in (3, 6, 9, 12, 18, 27):
        assert g_units_mod3(m, 1) | g_units_mod3(m, 2) == g_units(m)
        assert not g_units_mod3(m, 1) & g_units_mod3(m, 2)
    with pytest.raises(ValueError):
        g_units_mod3(10, 1)
    with pytest.raises(ValueError):
        g_units_mod3(9, 0)


def test_atom_of_examples():
    g = make_group([12])
    assert atom_of(g, (1,)) == {(1,), (5,), (7,), (11,)}
    g = make_group([9])
    assert atom_of(g, (3,)) == {(3,), (6,)}
    g = make_group([3, 3])
    assert atom_of(g, (1, 0)) == {(1, 0), (2, 0)}
    assert atom_of(g, g.zero) == {g.zero}


def test_atom_is_generator_class():
    # oracle: [x] = { y : <y> = <x> } by direct subgroup comparison
    for mods in ([12], [9], [2, 6], [3, 3]):
        g = make_group(mods)

        def subgroup(x):
            return frozenset(g.scale(k, x) for k in range(g.order_of(x)))

        for x in g.elements:
            expected = frozenset(y for y in g.elements if subgroup(y) == subgroup(x))
            assert atom_of(g, x) == expected


def test_eclass_examples():
    g = make_group([9])
    assert eclass_of(g, (1,)) == {(1,), (4,), (7,)}
    g = make_group([3, 3])
    assert eclass_of(g, (0, 1)) == {(0, 1)}
    g = make_group([12])
    assert eclass_of(g, (5,)) == {(5,), (11,)}
    assert eclass_of(g, (7,)) == {(1,), (7,)}
    with pytest.raises(ValueError):
        eclass_of(make_group([4]), (1,))


def test_atom_and_eclass_match_generator_sets():
    for mods in ([1], [2], [12], [36], [3, 3], [2, 6], [3, 3, 3]):
        g = make_group(mods)
        for x in g.elements:
            m = g.order_of(x)
            units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
            assert atom_of(g, x) == frozenset(g.scale(k, x) for k in units)
            if m % 3 == 0:
                assert eclass_of(g, x) == frozenset(g.scale(k, x) for k in units if k % 3 == 1)
            else:  # the identity included
                with pytest.raises(ValueError, match="not divisible by 3"):
                    eclass_of(g, x)


def test_index_matches_generator_sets_in_order_of_least_member():
    for mods in ([1], [12], [36], [3, 3], [2, 6], [3, 3, 3], [2, 2, 9]):
        g = make_group(mods)
        expected = {}
        for x in g.elements:
            m = g.order_of(x)
            units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
            atom = frozenset(g.scale(k, x) for k in units)
            classes = []
            if m % 3 == 0:
                classes = [frozenset(g.scale(k, x) for k in units if k % 3 == r) for r in (1, 2)]
            expected[atom] = tuple(sorted(classes, key=min))
        ordered = sorted(expected.items(), key=lambda pair: min(pair[0]))
        assert list(atom_splits(g)) == ordered


# (1.0,) and (3.0,) equal and hash like elements, so the index finds them;
# each set below lists x first, so that it is kept over the element it equals
@pytest.mark.parametrize("x", [(10,), (1, 2), (), (1.5,), (1.0,), (3.0,)])
def test_foreign_element_raises_value_error_naming_it(x):
    g = make_group([9])
    cs = make_connection_set(g, {(1,), (3,)})
    lookups = [
        lambda: atom_of(g, x),
        lambda: eclass_of(g, x),
        lambda: in_boolean_algebra(g, {x}),
        lambda: in_boolean_algebra(g, {x, (3,), (6,)}),
        lambda: in_skew_family(g, {x}),
        lambda: in_skew_family(g, {x, (1,), (4,), (7,)}),
        lambda: in_skew_family(g, {x, (6,)}),
        lambda: certificate(g, x, (1,)),
        # x as a character index alpha
        lambda: hs_eigenvalue(cs, x),
        lambda: a_eigenvalue(cs, x),
        lambda: atom_character_sum(g, (1,), x),
        lambda: certificate(g, (1,), x),
    ]
    for lookup in lookups:
        with pytest.raises(ValueError, match=rf"^{re.escape(str(x))} is not a reduced element"):
            lookup()


def test_atoms_partition_group():
    for mods in ([12], [9], [2, 6], [3, 3], [2, 2, 2]):
        g = make_group(mods)
        atoms = [atom for atom, _ in atom_splits(g)]
        assert sum(len(a) for a in atoms) == g.order
        assert frozenset().union(*atoms) == set(g.elements)
        for x in g.elements:
            assert sum(1 for a in atoms if x in a) == 1


def test_atom_splits_into_skew_classes():
    for mods in ([9], [12], [18], [3, 9]):
        g = make_group(mods)
        for x in sorted(g.gamma3()):
            plus = eclass_of(g, x)
            minus = eclass_of(g, g.neg(x))
            assert not plus & minus
            assert plus | minus == atom_of(g, x)
            assert {g.neg(y) for y in plus} == minus


def test_m_class_decomposes_into_classes():
    """M_r(x) = {k*x : 1 <= k <= ord(x), k = r (mod 3)} is a union of skew classes."""
    for mods in ([9], [12], [18], [3, 9]):
        g = make_group(mods)
        for x in sorted(g.gamma3()):
            m = g.order_of(x)
            m1, m2 = ({g.scale(k, x) for k in range(1, m + 1) if k % 3 == r} for r in (1, 2))
            # the divisors h of ord(x)/3 with h = 1, and with h = 2 (mod 3)
            gg = m // 3
            d1, d2 = ([h for h in range(1, gg + 1) if gg % h == 0 and h % 3 == r] for r in (1, 2))
            from_classes_1 = frozenset().union(
                *(eclass_of(g, g.scale(h, x)) for h in d1),
                *(eclass_of(g, g.neg(g.scale(h, x))) for h in d2),
            )
            from_classes_2 = frozenset().union(
                *(eclass_of(g, g.neg(g.scale(h, x))) for h in d1),
                *(eclass_of(g, g.scale(h, x)) for h in d2),
            )
            assert m1 == from_classes_1
            assert m2 == from_classes_2
            from_atoms = frozenset().union(*(atom_of(g, g.scale(h, x)) for h in d1 + d2))
            assert m1 | m2 == from_atoms


def test_in_boolean_algebra_examples():
    g = make_group([3, 3])
    dec = in_boolean_algebra(g, {(1, 0), (2, 0)})
    assert dec is not None and len(dec.classes) == 1
    assert dec.representatives == ((1, 0),)
    assert in_boolean_algebra(make_group([12]), {(1,), (5,)}) is None
    dec = in_boolean_algebra(g, set())
    assert dec is not None and dec.classes == ()


def test_in_boolean_algebra_iff_closed():
    rng = random.Random(4821)
    for mods in ([9], [12], [2, 6]):
        g = make_group(mods)
        nonzero = [x for x in g.elements if x != g.zero]
        for _ in range(60):
            members = frozenset(x for x in nonzero if rng.random() < 0.4)
            closed = all(atom_of(g, x) <= members for x in members)
            symmetric = {g.neg(x) for x in members} == members
            dec = in_boolean_algebra(g, members)
            assert (dec is not None) == closed
            if dec is not None:
                assert symmetric
                assert frozenset().union(*dec.classes) == members
                assert sum(len(c) for c in dec.classes) == len(members)
                for rep, cls in zip(dec.representatives, dec.classes):
                    assert rep == min(cls)
                    assert cls == atom_of(g, rep)


def test_in_skew_family_examples():
    g = make_group([9])
    dec = in_skew_family(g, {(1,), (4,), (7,)})
    assert dec is not None and len(dec.classes) == 1
    assert in_skew_family(g, {(1,), (4,), (7,), (2,), (5,), (8,)}) is None
    assert in_skew_family(make_group([4]), {(1,)}) is None
    assert in_skew_family(make_group([4]), set()) is not None


def test_skew_membership_implies_boolean_of_union():
    rng = random.Random(977)
    for mods in ([9], [12], [3, 3]):
        g = make_group(mods)
        nonzero = [x for x in g.elements if x != g.zero]
        for _ in range(80):
            members = frozenset(x for x in nonzero if rng.random() < 0.35)
            dec = in_skew_family(g, members)
            if dec is None:
                continue
            assert frozenset().union(*dec.classes) == members
            for rep, cls in zip(dec.representatives, dec.classes):
                assert cls == eclass_of(g, rep)
            union = members | {g.neg(x) for x in members}
            assert in_boolean_algebra(g, union) is not None
