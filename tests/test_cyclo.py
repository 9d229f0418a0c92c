"""Exact cyclotomic arithmetic: reduction, membership tests, factor split."""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from math import lcm, tau

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedcayley import (
    CycloNum,
    as_eisenstein,
    as_integer,
    as_rational,
    cyclotomic_poly,
    phi3_factors,
    reduce_root_counts,
    root,
    totient,
)
from mixedcayley.cyclo import cyclo_poly_mul, poly_to_cyclo


# -- independent polynomial oracle (lists of Fractions, constant term first)

def oracle_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
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


def test_root_examples():
    assert root(6, 0) == 1
    assert root(6, 3) == -1
    assert root(6, 1) + root(6, 5) == 1
    with pytest.raises(ValueError):
        root(0, 1)


def test_ring_op_examples():
    assert root(6, 1).conj() == root(6, 5)
    assert root(12, 5) * root(12, 7) == 1
    assert root(3, 1) + root(3, 2) == -1


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1).coeffs == (-1, 1)
    assert cyclotomic_poly(2).coeffs == (1, 1)
    assert cyclotomic_poly(3).coeffs == (1, 1, 1)


def test_cyclotomic_poly_against_division_oracle():
    # Phi_6 = (x^6 - 1) / ((x - 1)(x + 1)(x^2 + x + 1))
    divisor = oracle_mul(oracle_mul([-1, 1], [1, 1]), [1, 1, 1])
    q, r = oracle_divmod([-1, 0, 0, 0, 0, 0, 1], divisor)
    assert all(c == 0 for c in r)
    assert tuple(q) == cyclotomic_poly(6).coeffs == (1, -1, 1)

    # Phi_12 via the same recursive-division oracle
    divisor = [1]
    for d in (1, 2, 3, 4, 6):
        divisor = oracle_mul(divisor, list(cyclotomic_poly(d).coeffs))
    q, r = oracle_divmod([-1] + [0] * 11 + [1], divisor)
    assert all(c == 0 for c in r)
    assert tuple(q) == cyclotomic_poly(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_poly_shape():
    for m in range(1, 40):
        p = cyclotomic_poly(m)
        assert p.is_monic()
        assert p.degree == totient(m)
        assert all(isinstance(c, int) for c in p.coeffs)


def test_cyclotomic_poly_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in list(range(1, 400)) + [1506, 1536, 8190]:
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
        assert cyclotomic_poly(m).coeffs == tuple(int(c) for c in reversed(expected)), m


def test_reduce_examples():
    z = root(6, 3).reduce()
    assert z.coeffs[0] == -1 and all(c == 0 for c in z.coeffs[1:])
    assert root(4, 2) == -1
    # w9^8 reduced via Phi_9 = x^6 + x^3 + 1
    q, r = oracle_divmod([0] * 8 + [1], [1, 0, 0, 1, 0, 0, 1])
    expected = CycloNum(9, tuple(r) + (0,) * (9 - len(r)))
    assert root(9, 8) == expected
    assert root(9, 8).canonical_coeffs() == (0, 0, -1, 0, 0, -1)


# 486 and 768 are radical-power orders, 1506 is squarefree, 1536 = 2^9 * 3
@pytest.mark.parametrize("order", [486, 768, 1506, 1536])
def test_reduce_large_orders_against_division_oracle(order):
    rng = random.Random(order)
    modulus = list(cyclotomic_poly(order).coeffs)
    for _ in range(5):
        counts = [0] * order
        for j in rng.sample(range(order), 8):
            counts[j] = rng.randint(-10, 10)
        _, r = oracle_divmod(counts, modulus)
        expected = tuple(r) + (0,) * (totient(order) - len(r))
        z = reduce_root_counts(order, counts)
        assert len(z.coeffs) == totient(order)
        assert z.coeffs == expected
        third = CycloNum(order, tuple(Fraction(c, 3) for c in counts)).reduce()
        assert third.coeffs == tuple(c / 3 for c in expected)
        direct = sum(c * cmath.exp(1j * tau * j / order) for j, c in enumerate(counts))
        assert abs(direct - z.to_complex()) < 1e-9


# exponents below totient(order) take the identity-slot path of the
# reduction, the rest the power-table rows; 8190 = 3 * rad(8190), and the
# test above covers 486, 768 and 1506
@pytest.mark.parametrize("order", [*range(1, 61), 8190])
def test_reduce_root_counts_against_division_oracle(order):
    rng = random.Random(order)
    modulus = list(cyclotomic_poly(order).coeffs)
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


def test_as_rational_distinguishes():
    half = CycloNum.from_rational(Fraction(1, 2), 6)
    assert as_integer(half) is None
    assert as_rational(half) == Fraction(1, 2)
    assert as_rational(root(3, 1)) is None


def test_as_eisenstein_examples():
    assert as_eisenstein(root(3, 1)) == (0, 1)
    assert as_eisenstein(root(6, 1)) == (1, 1)
    # numeric confirmation of w6 = 1 + w3
    w3 = cmath.exp(1j * tau / 3)
    assert abs((1 + w3) - cmath.exp(1j * tau / 6)) < 1e-12
    assert as_eisenstein(root(12, 1)) is None


def test_as_integer_implies_eisenstein():
    for z in (root(6, 1) + root(6, 5), CycloNum.from_rational(7, 9), root(5, 1) * root(5, 4)):
        n = as_integer(z)
        if n is not None:
            assert as_eisenstein(z) == (n, 0)


def test_phi3_factors_small():
    f1, f2 = phi3_factors(3, 3)
    assert len(f1) == len(f2) == 2
    assert f1[1] == 1 and f2[1] == 1
    assert f1[0] == -root(3, 1) and f2[0] == -root(3, 2)

    f1, f2 = phi3_factors(6, 6)
    assert f1[0] == -root(6, 1) and f2[0] == -root(6, 5)


def test_phi3_factors_product_is_cyclotomic():
    for m in (3, 6, 9, 12, 15, 21):
        f1, f2 = phi3_factors(m, m)
        assert len(f1) == len(f2) == totient(m) // 2 + 1
        assert f1[-1] == 1 and f2[-1] == 1  # monic
        product = cyclo_poly_mul(f1, f2)
        expected = poly_to_cyclo(cyclotomic_poly(m), m)
        assert len(product) == len(expected)
        assert all(p == e for p, e in zip(product, expected))


def test_phi3_factor_coefficients_are_eisenstein():
    for m in (3, 6, 9, 12):
        for factor in phi3_factors(m, m):
            for coeff in factor:
                assert as_eisenstein(coeff) is not None


def test_phi3_factors_rejects_bad_input():
    with pytest.raises(ValueError):
        phi3_factors(4, 12)
    with pytest.raises(ValueError):
        phi3_factors(6, 9)


@st.composite
def cyclo_numbers(draw, orders=None):
    order = draw(st.sampled_from(orders) if orders else st.integers(1, 36))
    support = draw(
        st.lists(st.integers(0, order - 1), min_size=0, max_size=4, unique=True)
    )
    coeffs = [0] * order
    for j in support:
        coeffs[j] = draw(st.integers(-10, 10))
    return CycloNum(order, tuple(coeffs))


@given(cyclo_numbers(), cyclo_numbers())
@settings(max_examples=60, deadline=None)
def test_reduce_respects_multiplication(z, w):
    assert (z * w).reduce() == z.reduce() * w.reduce()


@given(cyclo_numbers())
def test_reduce_idempotent(z):
    r = z.reduce()
    assert r.reduce().coeffs == r.coeffs


@given(cyclo_numbers())
def test_conj_involution_and_norm_real(z):
    assert z.conj().conj() == z
    norm = z * z.conj()
    assert norm == norm.conj()
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
    fixed = (z - z.conj()).is_zero()
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
        assert abs(direct - z.reduce().to_complex()) < 1e-9


def reference_as_eisenstein(z):
    """Fraction-only solve: b from the pivot slot of w_3, a from slot 0."""
    n = lcm(z.order, 3)
    c = [Fraction(v) for v in z.lift(n).canonical_coeffs()]
    r3 = [Fraction(v) for v in root(n, n // 3).canonical_coeffs()]
    pivot = next(k for k in range(1, len(r3)) if r3[k] != 0)
    b = c[pivot] / r3[pivot]
    a = c[0] - b * r3[0]
    if any(c[k] != b * r3[k] + (a if k == 0 else 0) for k in range(len(c))):
        return None
    if a.denominator != 1 or b.denominator != 1:
        return None
    return int(a), int(b)


rationals = st.one_of(
    st.integers(-50, 50),
    st.fractions(max_denominator=6).filter(lambda f: abs(f) <= 50),
)


@st.composite
def eisenstein_candidates(draw):
    """a + b*w_3 in a random field, unreduced, sometimes off by one coefficient."""
    order = 3 * draw(st.integers(1, 12))
    z = (draw(rationals) + draw(rationals) * root(3, 1)).lift(order)
    # sum_j w^j = 0 for order > 1, so this keeps the value and breaks canonical form
    z = z + draw(st.integers(-3, 3)) * CycloNum(order, (1,) * order)
    if draw(st.booleans()):
        slot = draw(st.integers(0, order - 1))
        delta = draw(st.sampled_from([1, -1, Fraction(1, 2)]))
        z = z + root(order, slot) * delta
    return z


@given(st.one_of(eisenstein_candidates(), cyclo_numbers()))
@settings(max_examples=300, deadline=None)
def test_as_eisenstein_matches_fraction_reference(z):
    assert as_eisenstein(z) == reference_as_eisenstein(z)


def test_as_eisenstein_fraction_coefficients():
    w3 = root(3, 1)
    assert as_eisenstein(Fraction(1, 2) + w3) is None
    assert as_eisenstein(2 + w3 * Fraction(1, 2)) is None
    assert as_eisenstein((3 + 2 * w3) * Fraction(4, 2)) == (6, 4)
    assert as_eisenstein(CycloNum(6, (Fraction(5, 5), 0, 0, 0, 0, 0))) == (1, 0)


@given(cyclo_numbers())
def test_to_complex_sums_the_same_terms_in_the_same_order(z):
    z = z * Fraction(1, 3) + root(z.order, 0)
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


# -- compact layout: a value with its trailing zeros cut must behave exactly
# like the same value padded to length N

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
            coeffs[j] = draw(rationals)
        padded = CycloNum(n, tuple(coeffs))
        twins.append((CycloNum(n, _trimmed(padded.coeffs)), padded))
    return twins


def _same(u, v):
    """Equal canonical forms of totient(N) coefficients, and bit-identical
    floats: the twins hold the same terms, so they sum them in the same order."""
    assert u.order == v.order
    phi = totient(u.order)
    assert len(u.reduce().coeffs) == len(v.reduce().coeffs) == phi
    assert u.canonical_coeffs() == v.canonical_coeffs()
    assert u.reduce().coeffs == v.reduce().coeffs
    assert u.to_complex() == v.to_complex()


@given(twin_pairs())
@settings(max_examples=200, deadline=None)
def test_compact_and_padded_values_agree(twins):
    (a, a_pad), (b, b_pad) = twins
    _same(a, a_pad)
    reduced = a.reduce()
    assert reduced.reduce() is reduced
    for x, y in ((a, b), (a, b_pad), (a_pad, b)):
        _same(x + y, a_pad + b_pad)
        _same(x - y, a_pad - b_pad)
        _same(x * y, a_pad * b_pad)
        assert (x == y) == (a_pad == b_pad)
    _same(a.conj(), a_pad.conj())
    _same(b.lift(a.order), b_pad.lift(a.order))
    _same(a.lift(2 * a.order), a_pad.lift(2 * a.order))
    assert a == a_pad and a.reduce() == a_pad
    assert a.is_zero() == a_pad.is_zero()
    assert as_integer(a) == as_integer(a_pad)
    assert as_eisenstein(a) == as_eisenstein(a_pad)


def test_coefficient_vector_longer_than_order_is_rejected():
    with pytest.raises(ValueError):
        CycloNum(3, (1, 0, 0, 0))
    assert CycloNum(3, ()).is_zero()
    assert CycloNum(3, (5,)).reduce().coeffs == (5, 0)
