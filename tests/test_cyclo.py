"""Exact cyclotomic arithmetic: reduction, membership tests, factor split."""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from math import lcm, tau
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcayley import (
    CycloNum,
    as_eisenstein,
    as_integer,
    cyclotomic_poly,
    g_units_mod3,
    reduce_root_counts,
    root,
    totient,
)


# -- independent polynomial oracle (division over Fractions, constant term first)

def oracle_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def oracle_divmod(a, b):
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b and b[-1] == 0:
        b.pop()
    terms = [(i, c) for i, c in enumerate(b) if c]  # a zero term subtracts nothing
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while True:
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        t = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] += t
        for i, c in terms:
            a[shift + i] -= t * c
    return q, a


def conj(z):
    """Complex conjugate, the reference way: the coefficient of w^j moves to w^(N-j)."""
    cs = z.coeffs + (0,) * (z.order - len(z.coeffs))
    return CycloNum(z.order, cs[:1] + cs[:0:-1])


def phi3_factors(m):
    """Phi_m's two factors over Q(w3), constant term first: prod (x - w_m^a)
    over the units a = 1 (mod 3) of Z_m, then over those with a = 2."""
    factors = []
    for r in (1, 2):
        f = [1]
        for a in sorted(g_units_mod3(m, r)):
            f = [u - root(m, a) * v for u, v in zip([0, *f], [*f, 0])]
        factors.append(f)
    return factors


def test_root_examples():
    assert root(6, 0) == 1
    assert root(6, 3) == -1
    assert root(6, 1) + root(6, 5) == 1
    with pytest.raises(ValueError):
        root(0, 1)


def test_ring_op_examples():
    assert conj(root(6, 1)) == root(6, 5)
    assert root(12, 5) * root(12, 7) == 1
    assert root(3, 1) + root(3, 2) == -1


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)


def test_cyclotomic_poly_against_division_oracle():
    # Phi_6 = (x^6 - 1) / ((x - 1)(x + 1)(x^2 + x + 1))
    divisor = oracle_mul(oracle_mul([-1, 1], [1, 1]), [1, 1, 1])
    q, r = oracle_divmod([-1, 0, 0, 0, 0, 0, 1], divisor)
    assert all(c == 0 for c in r)
    assert tuple(q) == cyclotomic_poly(6) == (1, -1, 1)

    # Phi_12 via the same recursive-division oracle
    divisor = [1]
    for d in (1, 2, 3, 4, 6):
        divisor = oracle_mul(divisor, list(cyclotomic_poly(d)))
    q, r = oracle_divmod([-1] + [0] * 11 + [1], divisor)
    assert all(c == 0 for c in r)
    assert tuple(q) == cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_poly_shape():
    for m in range(1, 40):
        p = cyclotomic_poly(m)
        assert p[-1] == 1  # monic
        assert len(p) - 1 == totient(m)
        assert all(isinstance(c, int) for c in p)


def test_cyclotomic_poly_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in list(range(1, 400)) + [1506, 1536, 8190]:
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
        assert cyclotomic_poly(m) == tuple(int(c) for c in reversed(expected)), m


def test_reduce_examples():
    z = root(6, 3)
    assert z.coeffs[0] == -1 and all(c == 0 for c in z.coeffs[1:])
    assert root(4, 2) == -1
    # w9^8 reduced via Phi_9 = x^6 + x^3 + 1
    q, r = oracle_divmod([0] * 8 + [1], [1, 0, 0, 1, 0, 0, 1])
    assert root(9, 8).coeffs == tuple(r) + (0,) * (totient(9) - len(r))
    assert root(9, 8).coeffs == (0, 0, -1, 0, 0, -1)


# 486 and 768 are radical-power orders, 1506 is squarefree, 1536 = 2^9 * 3
@pytest.mark.parametrize("order", [486, 768, 1506, 1536])
def test_reduce_large_orders_against_division_oracle(order):
    rng = random.Random(order)
    modulus = list(cyclotomic_poly(order))
    for _ in range(5):
        counts = [0] * order
        for j in rng.sample(range(order), 8):
            counts[j] = rng.randint(-10, 10)
        _, r = oracle_divmod(counts, modulus)
        expected = tuple(r) + (0,) * (totient(order) - len(r))
        z = reduce_root_counts(order, counts)
        assert len(z.coeffs) == totient(order)
        assert z.coeffs == expected
        triple = CycloNum(order, tuple(3 * c for c in counts))
        assert triple.coeffs == tuple(3 * c for c in expected)
        direct = sum(c * cmath.exp(1j * tau * j / order) for j, c in enumerate(counts))
        assert abs(direct - z.to_complex()) < 1e-9


# exponents below totient(order) take the identity-slot path of the
# reduction, the rest the power-table rows; 8190 = 3 * rad(8190), and the
# test above covers 486, 768 and 1506
@pytest.mark.parametrize("order", [*range(1, 61), 8190])
def test_reduce_root_counts_against_division_oracle(order):
    rng = random.Random(order)
    modulus = list(cyclotomic_poly(order))
    phi = totient(order)
    for _ in range(1 if order == 8190 else 3):
        counts = [0] * order
        for j in rng.sample(range(order), min(order, 8)):
            counts[j] = rng.randint(-10, 10)
        _, r = oracle_divmod(counts, modulus)
        assert reduce_root_counts(order, counts).coeffs == tuple(r) + (0,) * (phi - len(r))


def test_as_integer_examples():
    assert as_integer(root(6, 1) + root(6, 5)) == 1
    assert as_integer(root(3, 1)) is None
    z = 2 * root(6, 1) * root(3, 1) + 2 * root(6, 5) * root(3, 2)
    assert as_integer(z) == -4


def test_constructor_refuses_non_integer_coefficients():
    """A value lives in Z[w_N]: every coefficient is read as an int, so no
    float or Fraction can reach a verdict."""
    for order, coeffs in (
        (3, (0.5, 1.0)),
        (1, (Fraction(1, 2),)),
        (6, (1, 2, 3, 4, 5, 6.5)),
        (1, (Fraction(4, 2),)),
        (2, (2.0,)),
        (3, ("1", 0)),
    ):
        with pytest.raises(TypeError):
            CycloNum(order, coeffs)
    w3 = root(3, 1)
    for bad in (Fraction(1, 2), 0.5):
        for op in (lambda: w3 + bad, lambda: bad - w3, lambda: w3 * bad, lambda: bad * w3):
            with pytest.raises(TypeError):
                op()
    for z in (
        CycloNum(1, (True,)),
        CycloNum(1, (np.int64(1),)),
        CycloNum(6, (np.int64(7), True, 0, 0, 0, np.int64(-2))),
        CycloNum(3, (np.int64(2), False)),
    ):
        assert all(type(c) is int for c in z.coeffs)
    for z in (CycloNum(1, (True,)), CycloNum(9, (np.int64(7),)), root(6, 1) + root(6, 5)):
        assert type(as_integer(z)) is int
    assert as_integer(CycloNum(1, (True,))) == 1
    pair = as_eisenstein(CycloNum(6, (np.int64(5), True)))  # 5 + w6 = 6 + w3
    assert pair == (6, 1) and all(type(v) is int for v in pair)


def test_reduce_root_counts_reads_every_nonzero_count_as_an_int():
    """The count vector of a character sum is not validated as a whole, but
    every nonzero count is read as an int on its way into a coefficient."""
    for order, counts in (
        (3, [0.5, 0, 0]),
        (3, [0, 0, 2.0]),  # the power-table path, past totient(3)
        (6, [0, Fraction(1, 2), 0, 0, 0, 0]),
        (2, ["1", 0]),
    ):
        with pytest.raises(TypeError):
            reduce_root_counts(order, counts)
    for order, counts in (
        (3, [True, False, True]),
        (6, [np.int64(4), 0, np.int64(-1), True, 0, np.int64(3)]),
        (768, np.array([0] * 700 + [5] * 68, dtype=np.int64)),
    ):
        z = reduce_root_counts(order, counts)
        assert all(type(c) is int for c in z.coeffs)
        assert z.coeffs == reduce_root_counts(order, [int(c) for c in counts]).coeffs
    with pytest.raises(ValueError):
        reduce_root_counts(3, [1, 0, 0, 0])
    assert reduce_root_counts(6, [0, 7]) == 7 * root(6, 1)  # a short vector


def test_as_eisenstein_examples():
    assert as_eisenstein(root(3, 1)) == (0, 1)
    assert as_eisenstein(root(6, 1)) == (1, 1)
    # numeric confirmation of w6 = 1 + w3
    w3 = cmath.exp(1j * tau / 3)
    assert abs((1 + w3) - cmath.exp(1j * tau / 6)) < 1e-12
    assert as_eisenstein(root(12, 1)) is None


def test_as_integer_implies_eisenstein():
    for z in (root(6, 1) + root(6, 5), CycloNum(9, (7,)), root(5, 1) * root(5, 4)):
        n = as_integer(z)
        if n is not None:
            assert as_eisenstein(z) == (n, 0)


def test_phi3_factors_small():
    f1, f2 = phi3_factors(3)
    assert len(f1) == len(f2) == 2
    assert f1[1] == 1 and f2[1] == 1
    assert f1[0] == -root(3, 1) and f2[0] == -root(3, 2)

    f1, f2 = phi3_factors(6)
    assert f1[0] == -root(6, 1) and f2[0] == -root(6, 5)


def test_phi3_factors_product_is_cyclotomic():
    for m in (3, 6, 9, 12, 15, 21):
        f1, f2 = phi3_factors(m)
        assert len(f1) == len(f2) == totient(m) // 2 + 1
        assert f1[-1] == 1 and f2[-1] == 1  # monic
        product = oracle_mul(f1, f2)
        expected = cyclotomic_poly(m)
        assert len(product) == len(expected)
        assert all(p == e for p, e in zip(product, expected))


def test_phi3_factor_coefficients_are_eisenstein():
    for m in (3, 6, 9, 12):
        for factor in phi3_factors(m):
            for coeff in factor:
                assert as_eisenstein(coeff) is not None


@st.composite
def raw_vectors(draw, orders=None):
    """(N, a sparse, unreduced vector of N coefficients)."""
    order = draw(st.sampled_from(orders) if orders else st.integers(1, 36))
    support = draw(
        st.lists(st.integers(0, order - 1), min_size=0, max_size=4, unique=True)
    )
    coeffs = [0] * order
    for j in support:
        coeffs[j] = draw(st.integers(-10, 10))
    return order, tuple(coeffs)


def cyclo_numbers(orders=None):
    return raw_vectors(orders).map(lambda v: CycloNum(*v))


@given(raw_vectors(), raw_vectors())
@settings(max_examples=60, deadline=None)
def test_reduce_respects_multiplication(x, y):
    """Reducing the raw product of two unreduced vectors gives the product
    of their reductions: the reduction is a ring homomorphism."""
    (xo, xs), (yo, ys) = x, y
    n = lcm(xo, yo)
    raw = [0] * n
    for i, c in enumerate(xs):
        for j, d in enumerate(ys):
            raw[(i * (n // xo) + j * (n // yo)) % n] += c * d
    assert CycloNum(n, tuple(raw)) == CycloNum(xo, xs) * CycloNum(yo, ys)


@given(cyclo_numbers())
def test_reduce_idempotent(z):
    assert z.reduce() is z
    assert CycloNum(z.order, z.coeffs).coeffs == z.coeffs


@given(cyclo_numbers())
def test_conj_involution_and_norm_real(z):
    assert conj(conj(z)) == z
    norm = z * conj(z)
    assert norm == conj(norm)
    assert abs(norm.to_complex().imag) < 1e-9


# third operand's order divides 36 so three-way lcms stay small
@given(cyclo_numbers(), cyclo_numbers(), cyclo_numbers(orders=(1, 2, 3, 4, 6, 9, 12, 18, 36)))
@settings(max_examples=40, deadline=None)
def test_field_axioms_spot_checks(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a - b) + b == a


@given(cyclo_numbers())
def test_conj_fixes_exactly_the_reals(z):
    fixed = not any((z - conj(z)).coeffs)
    assert fixed == (abs(z.to_complex().imag) < 1e-9)


def test_numerical_consistency_of_reduction():
    rng = random.Random(91125)
    for _ in range(1000):
        order = rng.randint(1, 36)
        coeffs = tuple(rng.randint(-10, 10) for _ in range(order))
        z = CycloNum(order, coeffs)
        direct = sum(
            c * cmath.exp(1j * tau * j / order) for j, c in enumerate(coeffs)
        )
        assert abs(direct - z.to_complex()) < 1e-9


def reference_as_eisenstein(z):
    """Fraction-only solve: b from the pivot slot of w_3, a from slot 0."""
    n = lcm(z.order, 3)
    c = [Fraction(v) for v in z.lift(n).coeffs]
    r3 = [Fraction(v) for v in root(n, n // 3).coeffs]
    pivot = next(k for k in range(1, len(r3)) if r3[k] != 0)
    b = c[pivot] / r3[pivot]
    a = c[0] - b * r3[0]
    if any(c[k] != b * r3[k] + (a if k == 0 else 0) for k in range(len(c))):
        return None
    if a.denominator != 1 or b.denominator != 1:
        return None
    return int(a), int(b)


small_ints = st.integers(-50, 50)


@st.composite
def eisenstein_candidates(draw):
    """a + b*w_3 in a random ring, sometimes off in one coefficient."""
    order = 3 * draw(st.integers(1, 12))
    z = (draw(small_ints) + draw(small_ints) * root(3, 1)).lift(order)
    # sum_j w^j = 0 for order > 1, which the constructor must reduce away
    z = z + draw(st.integers(-3, 3)) * CycloNum(order, (1,) * order)
    if draw(st.booleans()):
        slot = draw(st.integers(0, order - 1))
        delta = draw(st.sampled_from([1, -1, 2]))
        z = z + root(order, slot) * delta
    return z


@given(st.one_of(eisenstein_candidates(), cyclo_numbers()))
@settings(max_examples=300, deadline=None)
def test_as_eisenstein_matches_fraction_reference(z):
    assert as_eisenstein(z) == reference_as_eisenstein(z)


def test_as_eisenstein_fraction_coefficients():
    """A Fraction never becomes a coefficient, even one equal to an integer."""
    w3 = root(3, 1)
    with pytest.raises(TypeError):
        Fraction(1, 2) + w3
    with pytest.raises(TypeError):
        2 + w3 * Fraction(1, 2)
    with pytest.raises(TypeError):
        CycloNum(6, (Fraction(5, 5), 0, 0, 0, 0, 0))
    assert as_eisenstein((3 + 2 * w3) * 2) == (6, 4)
    assert as_eisenstein(CycloNum(6, (1, 0, 0, 0, 0, 0))) == (1, 0)


@given(cyclo_numbers())
def test_to_complex_sums_the_same_terms_in_the_same_order(z):
    z = z * 3 + root(z.order, 0)
    n = z.order
    direct = sum(
        (complex(c) * cmath.exp(1j * tau * j / n) for j, c in enumerate(z.coeffs) if c != 0),
        complex(0),
    )
    assert z.to_complex() == direct  # bit-identical, not just close


def test_mixed_order_lifting():
    assert root(3, 1) == root(6, 2)
    assert root(2, 1) == root(6, 3) == -1
    z = root(4, 1) + root(6, 1)
    assert z.order == 12
    assert as_integer(root(4, 1) * root(4, 3)) == 1


# -- compact input: a vector with its trailing zeros cut must make exactly
# the value of the same vector padded to length N

COMPACT_ORDERS = list(range(1, 37)) + [486, 1506]


def _trimmed(coeffs):
    end = max((j + 1 for j, c in enumerate(coeffs) if c), default=0)
    return coeffs[:end]


@st.composite
def twin_pairs(draw):
    """Two values, each as (trimmed, padded); the second order divides the first."""
    order = draw(st.sampled_from(COMPACT_ORDERS))
    twins = []
    for n in (order, draw(st.sampled_from([d for d in range(1, order + 1) if order % d == 0]))):
        coeffs = [0] * n
        for j in draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True)):
            coeffs[j] = draw(small_ints)
        twins.append((CycloNum(n, _trimmed(tuple(coeffs))), CycloNum(n, tuple(coeffs))))
    return twins


def _same(u, v):
    """Equal canonical forms of totient(N) coefficients, and bit-identical
    floats: the twins hold the same terms, so they sum them in the same order."""
    assert u.order == v.order
    phi = totient(u.order)
    assert len(u.coeffs) == len(v.coeffs) == phi
    assert u.coeffs == v.coeffs
    assert u.to_complex() == v.to_complex()


@given(twin_pairs())
@settings(max_examples=200, deadline=None)
def test_compact_and_padded_values_agree(twins):
    (a, a_pad), (b, b_pad) = twins
    _same(a, a_pad)
    assert a.reduce() is a
    for x, y in ((a, b), (a, b_pad), (a_pad, b)):
        _same(x + y, a_pad + b_pad)
        _same(x - y, a_pad - b_pad)
        _same(x * y, a_pad * b_pad)
        assert (x == y) == (a_pad == b_pad)
    _same(b.lift(a.order), b_pad.lift(a.order))
    _same(a.lift(2 * a.order), a_pad.lift(2 * a.order))
    assert a == a_pad
    assert any(a.coeffs) == any(a_pad.coeffs)
    assert as_integer(a) == as_integer(a_pad)
    assert as_eisenstein(a) == as_eisenstein(a_pad)


def test_coefficient_vector_longer_than_order_is_rejected():
    with pytest.raises(ValueError):
        CycloNum(3, (1, 0, 0, 0))
    assert not any(CycloNum(3, ()).coeffs)
    assert CycloNum(3, (5,)).coeffs == (5, 0)
    assert CycloNum(3, (0, 0, 1)).coeffs == (-1, -1)  # w^2 = -1 - w


@pytest.mark.parametrize("inexact", [0.5, 1j, "w"], ids=["float", "complex", "str"])
def test_inexact_operands_raise_type_error(inexact):
    z = root(6, 1)
    for op in (
        lambda: z + inexact,
        lambda: inexact + z,
        lambda: z - inexact,
        lambda: inexact - z,
        lambda: z * inexact,
        lambda: inexact * z,
    ):
        with pytest.raises(TypeError):
            op()


def _assert_canonical(z):
    """Exactly totient(N) coefficients in a tuple, which the validating
    constructor accepts and keeps as they are."""
    assert type(z) is CycloNum and type(z.coeffs) is tuple
    assert len(z.coeffs) == totient(z.order)
    assert CycloNum(z.order, z.coeffs).coeffs == z.coeffs


@st.composite
def count_vectors(draw, order):
    """A possibly unreduced, mostly zero vector of at most ``order`` counts."""
    counts = [0] * draw(st.integers(0, order))
    if counts:
        for j in draw(st.lists(st.integers(0, len(counts) - 1), max_size=8)):
            counts[j] += draw(st.integers(-3, 3))
    return counts


ORDERS = st.one_of(st.integers(1, 36), st.sampled_from((486, 768, 1506)))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_values_built_without_validation_pass_its_checks(data):
    """Every way of making a value, the unvalidated paths included, leaves
    exactly its canonical coefficients."""
    order = data.draw(ORDERS)
    counts, same = data.draw(count_vectors(order)), data.draw(count_vectors(order))
    z, w = CycloNum(order, tuple(counts)), CycloNum(order, tuple(same))
    # a second order that needs a lift to the lcm, kept small past 36
    small = [d for d in range(1, 37) if order <= 36 or order % d == 0]
    other = data.draw(st.sampled_from(small))
    u = CycloNum(other, tuple(data.draw(count_vectors(other))))
    j = data.draw(st.integers(-2 * order, 2 * order))
    total = z + w  # same order: the path that skips lcm and lift
    made = (z, u, root(order, j), z.lift(3 * order), total, z + u, z - u, z * u)
    for v in (*made, -z, z * -2, reduce_root_counts(order, counts)):
        _assert_canonical(v)
    assert total.coeffs == tuple(map(add, z.coeffs, w.coeffs))
