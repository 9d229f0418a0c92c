"""Group construction, element arithmetic, orders, and characters."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcayley import make_connection_set, make_group, parse_group
from mixedcayley.groups import DEFAULT_SIZE_CAP, GroupSpec


def brute_order(g, x):
    """Independent order oracle: add x to itself until the identity."""
    acc = x
    k = 1
    while acc != g.zero:
        acc = g.add(acc, x)
        k += 1
    return k


@st.composite
def group_with_elements(draw, count=1):
    mods = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    g = make_group(mods)
    xs = tuple(draw(st.sampled_from(g.elements)) for _ in range(count))
    return (g,) + xs


def test_make_group_examples():
    g = make_group([3, 3])
    assert (g.exponent, g.root_order) == (3, 6)
    g = make_group([12])
    assert (g.exponent, g.root_order) == (12, 12)
    g = make_group([2, 4])
    assert (g.exponent, g.root_order) == (4, 12)


def test_make_group_rejects_bad_input():
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([0])
    with pytest.raises(ValueError):
        make_group([3, -1])
    with pytest.raises(ValueError):
        make_group([64, 65])  # 4160 > DEFAULT_SIZE_CAP
    assert make_group([64, 64]).order == DEFAULT_SIZE_CAP


def test_group_spec_is_built_from_its_moduli_alone():
    with pytest.raises(TypeError):
        GroupSpec((9,), 9, 9, 9)  # the derived fields are not arguments
    g = GroupSpec((9,))
    assert g == make_group([9]) and hash(g) == hash(make_group([9]))
    assert (g.order, g.exponent, g.root_order) == (9, 9, 18)
    assert repr(g) == "GroupSpec(moduli=(9,), order=9, exponent=9, root_order=18)"
    for moduli in [(), (0,), (4097,), (9.5,)]:
        with pytest.raises((TypeError, ValueError)) as direct:
            GroupSpec(moduli)
        with pytest.raises(direct.type) as via_make_group:
            make_group(moduli)
        assert str(via_make_group.value) == str(direct.value)


def test_parse_group():
    assert parse_group("3x3").moduli == (3, 3)
    assert parse_group("12").moduli == (12,)
    assert parse_group(" 2X6 ").moduli == (2, 6)
    with pytest.raises(ValueError):
        parse_group("3x")
    with pytest.raises(ValueError):
        parse_group("abc")


def test_elements_lexicographic():
    g = make_group([2, 3])
    assert g.elements == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))


def test_element_reduction_and_arity():
    g = make_group([3, 3])
    assert g.element((4, -1)) == (1, 2)
    with pytest.raises(ValueError):
        g.element((1,))


def test_non_integral_inputs_raise_type_error():
    with pytest.raises(TypeError):
        make_group([6.9])
    g = make_group([7])
    with pytest.raises(TypeError):
        g.element((2.5,))
    with pytest.raises(TypeError):
        make_connection_set(g, [(2.5,), (3.9,)])
    # integer types other than int still pass, as plain ints
    assert make_group([np.int64(7)]) == g
    x = g.element((np.int64(9),))
    assert x == (2,) and type(x[0]) is int


def test_order_of_examples():
    assert make_group([12]).order_of((5,)) == 12
    assert make_group([3, 3]).order_of((0, 1)) == 3
    assert make_group([6]).order_of((3,)) == 2


@given(group_with_elements())
def test_order_matches_brute_force(gx):
    g, x = gx
    assert g.order_of(x) == brute_order(g, x)


@given(group_with_elements())
def test_neg_is_involution(gx):
    g, x = gx
    assert g.neg(g.neg(x)) == x
    assert g.add(x, g.neg(x)) == g.zero


def test_gamma3_examples():
    g = make_group([6])
    by_oracle = {x for x in g.elements if brute_order(g, x) % 3 == 0}
    assert g.gamma3() == by_oracle == {(1,), (2,), (4,), (5,)}
    assert make_group([4]).gamma3() == frozenset()
    g = make_group([3, 3])
    assert g.gamma3() == {x for x in g.elements if x != g.zero}


def m_class(g, x, r):
    """The multiples M_r(x) = {k*x : 1 <= k <= ord(x), k = r (mod 3)}."""
    return {g.scale(k, x) for k in range(1, g.order_of(x) + 1) if k % 3 == r}


def test_m_class_examples():
    g = make_group([9])
    assert m_class(g, (1,), 1) == {(1,), (4,), (7,)}
    assert m_class(g, (1,), 0) == {(3,), (6,), (0,)}


def test_m_class_negation_and_partition():
    for mods in ([9], [12], [3, 3], [2, 6]):
        g = make_group(mods)
        for x in sorted(g.gamma3()):
            m0, m1, m2 = (m_class(g, x, r) for r in (0, 1, 2))
            assert {g.neg(y) for y in m1} == m2
            subgroup = {g.scale(k, x) for k in range(g.order_of(x))}
            assert m0 | m1 | m2 == subgroup
            assert not (m0 & m1) and not (m0 & m2) and not (m1 & m2)


def test_m_class_translation_invariance():
    for mods in ([9], [18], [3, 3]):
        g = make_group(mods)
        for x in sorted(g.gamma3()):
            m0, m1, m2 = (m_class(g, x, r) for r in (0, 1, 2))
            for a in m0:
                assert {g.add(a, y) for y in m1} == m1
                assert {g.add(a, y) for y in m2} == m2


def test_character_exponent_examples():
    g = make_group([3, 3])
    assert g.character_exponent((2, 1), (0, 1)) == 2  # psi = w6^2 = w3
    assert g.character_exponent(g.zero, (1, 2)) == 0
    g = make_group([12])
    assert g.character_exponent((1,), (6,)) == 6  # psi = -1


@given(group_with_elements(count=3))
def test_character_is_homomorphism(gxs):
    g, alpha, x, y = gxs
    n = g.root_order
    assert g.character_exponent(alpha, g.add(x, y)) == (
        g.character_exponent(alpha, x) + g.character_exponent(alpha, y)
    ) % n


@given(group_with_elements(count=2))
def test_character_symmetry_and_order(gxs):
    g, alpha, x = gxs
    assert g.character_exponent(alpha, x) == g.character_exponent(x, alpha)
    assert g.order_of(x) * g.character_exponent(alpha, x) % g.root_order == 0


@given(group_with_elements(count=2))
@settings(max_examples=300)
def test_character_exponent_matches_literal_sum(gxs):
    g, alpha, x = gxs
    N = g.root_order
    expected = sum((N // n) * a * c for a, c, n in zip(alpha, x, g.moduli)) % N
    assert g.character_exponent(alpha, x) == expected
