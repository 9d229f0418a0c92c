"""Group construction, element arithmetic, orders, and characters."""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcayley import atom_splits, classify, make_connection_set, make_group, parse_group
from mixedcayley.cli import run
from mixedcayley.groups import DEFAULT_SIZE_CAP, GroupSpec

REPO = Path(__file__).resolve().parent.parent


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


def test_parse_group_reads_decimal_digits_only():
    """Each factor is decimal digits, so int()'s underscores and signs are refused."""
    accepted = {"3X3": (3, 3), " 12 ": (12,), "3 x 3": (3, 3), "\u0663x\u0663": (3, 3)}
    for spec, moduli in accepted.items():
        assert parse_group(spec).moduli == moduli
    for spec in ("1_2", "+12", "1__2", "-12", "3x+3", "3x", ""):
        with pytest.raises(ValueError, match="^bad group spec"):
            parse_group(spec)
        out, err = io.StringIO(), io.StringIO()
        assert run(["atoms", "--group", spec], stdout=out, stderr=err) == 1
        assert err.getvalue().startswith("error: bad group spec") and not out.getvalue()


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


@pytest.mark.parametrize("mods", [*([n] for n in range(1, 37)), [3, 3], [2, 6], [3, 3, 3], [6, 6]])
def test_gamma3_is_the_union_of_the_skew_classes(mods):
    g = make_group(mods)
    skew_classes = [cls for _, classes in atom_splits(g) for cls in classes]
    assert g.gamma3() == {x for x in g.elements if g.order_of(x) % 3 == 0}
    assert g.gamma3() == frozenset().union(*skew_classes)


# Every group-reading entry point runs on one Z_9, which is then dropped.
DROPPED_GROUP_CHILD = """
import gc, weakref
from mixedcayley import *

g = make_group([9])
classify(g, {(1,), (3,), (6,)})
verify_theorems(g, budget=16)
atom_of(g, (3,))
eclass_of(g, (1,))
certificate(g, (1,), (2,))
assert enumerate_hs_integral(g).total == 16
ref = weakref.ref(g)
del g
gc.collect()
assert ref() is None, "the group outlived its last reference"
"""


def test_no_table_outlives_its_group():
    """Every per-group table is an attribute of its group, so a dropped group
    is freed.  The check runs in a fresh process: there a cache keyed by
    groups would hold this very Z_9, not an equal one an earlier test made."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", DROPPED_GROUP_CHILD],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


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


def literal_exponent(g, alpha, x):
    """sum_j (N/n_j) alpha_j x_j mod N, written out with no table and no _lift."""
    N = g.root_order
    return sum((N // n) * a * c for a, c, n in zip(alpha, x, g.moduli)) % N


@given(group_with_elements(count=2))
@settings(max_examples=300)
def test_character_exponent_matches_literal_sum(gxs):
    g, alpha, x = gxs
    assert g.character_exponent(alpha, x) == literal_exponent(g, alpha, x)


# -- the exponent table behind character_exponent


TABLE_GROUPS_ALL_PAIRS = ([12], [3, 4], [2, 6], [2, 2, 9], [3, 3, 3], [4, 4, 4], [36])
TABLE_GROUPS_SAMPLED = ([4096], [2, 2048])


def table_pairs(g):
    """Every (alpha, x) of a small group; 2,000 seeded pairs of a large one."""
    if g.order <= 64:
        return [(a, x) for a in g.elements for x in g.elements]
    rng = random.Random(g.order)
    return [(rng.choice(g.elements), rng.choice(g.elements)) for _ in range(2000)]


def table_mismatches(g):
    """(alpha, x) pairs where the table misses the literal sum or the symmetry."""
    return [
        (a, x)
        for a, x in table_pairs(g)
        if not g.character_exponent(a, x) == g.character_exponent(x, a) == literal_exponent(g, a, x)
    ]


@pytest.mark.parametrize("moduli", TABLE_GROUPS_ALL_PAIRS + TABLE_GROUPS_SAMPLED)
def test_exponent_table_matches_literal_sum(moduli):
    g = make_group(moduli)
    assert table_mismatches(g) == []


@pytest.mark.parametrize("moduli", [[12], [2, 2, 9], [4, 4, 4], [36]])
def test_exponent_table_check_catches_a_wrong_lift(monkeypatch, moduli):
    def lift_off_by_one(self):
        lift = tuple(self.root_order // n for n in self.moduli)
        return lift[:-1] + (lift[-1] + 1,)

    monkeypatch.setattr(GroupSpec, "_lift", property(lift_off_by_one))
    assert table_mismatches(make_group(moduli))


FOREIGN_ON_Z12 = [(12,), (13,), (-1,), (1, 2), (), (1.5,), [1], "a"]


@pytest.mark.parametrize("foreign", FOREIGN_ON_Z12, ids=repr)
def test_character_exponent_refuses_a_non_element_in_either_position(foreign):
    fresh, built = make_group([12]), make_group([12])
    for x in built.elements:
        built.character_exponent(x, x)  # every column exists
    message = f"{foreign} is not a reduced element of group 12"
    for g in (fresh, built):
        with pytest.raises(ValueError) as exc:
            g.character_exponent(foreign, (1,))
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            g.character_exponent((1,), foreign)
        assert str(exc.value) == message
    assert len(fresh._columns) <= 1  # a foreign x built no column


def test_character_exponent_reads_keys_equal_to_an_element_whatever_the_cache():
    # (1.0,), (True,) and (np.int64(1),) equal the key (1,) of the element
    # index, so they are read as (1,), before or after its column exists
    for equal in [(1.0,), (True,), (np.int64(1),)]:
        fresh = make_group([12])
        values = [fresh.character_exponent(equal, (5,)), fresh.character_exponent((5,), equal)]
        assert list(fresh._columns) == [(5,), (1,)]
        assert all(type(c) is int for key in fresh._columns for c in key)  # canonical keys
        built = make_group([12])
        built.character_exponent((5,), (1,))
        built.character_exponent((1,), (5,))
        values += [built.character_exponent(equal, (5,)), built.character_exponent((5,), equal)]
        assert values == [5] * 4 and all(type(v) is int for v in values)


def test_classify_at_2048_builds_only_the_columns_it_reads():
    g = make_group([2048])
    members = {(s,) for s in (1, 2, 3, 5, 7, 11, 13, 17)}
    classify(g, members)
    # the members and their negations, not the 2048 x 2048 table
    assert set(g._columns) == members | {g.neg(s) for s in members}
    assert len(g._columns) <= 16
