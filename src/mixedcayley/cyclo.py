"""Exact arithmetic in the cyclotomic field Q(w_N).

A CycloNum holds exact rational coefficients over the power basis
1, w, ..., w^{N-1}, where w = exp(2*pi*i/N); the vector may stop early,
and missing trailing slots are zero.  Canonical forms are polynomial
remainders modulo the N-th cyclotomic polynomial and keep exactly
totient(N) coefficients, so equality,
integer membership and Eisenstein membership are coefficient inspections;
no floating point ever enters a verdict.  Mixed-order operands are lifted
to the lcm of their orders by scaling exponents.

Coefficients may be Python ints or Fractions; both are exact rationals
and interoperate freely.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import lcm, prod, tau

from .atoms import g_units_mod3

Rational = int | Fraction


def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


@lru_cache(maxsize=None)
def _radical(n: int) -> int:
    return prod(_prime_factors(n))


@lru_cache(maxsize=None)
def totient(m: int) -> int:
    if m < 1:
        raise ValueError(f"totient needs a positive integer, got {m}")
    for p in _prime_factors(m):
        m = m // p * (p - 1)
    return m


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of x^i; trailing zeros are trimmed so
    the zero polynomial has an empty tuple.
    """

    coeffs: tuple[Rational, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1


def _times_binomial(a: list[int], d: int) -> list[int]:
    """a(x) * (x^d - 1)."""
    out = [0] * d + a
    for i, c in enumerate(a):
        out[i] -= c
    return out


def _over_binomial(a: list[int], d: int) -> list[int]:
    """a(x) / (x^d - 1), which must divide exactly."""
    a = list(a)
    for i in range(len(a) - 1, d - 1, -1):
        a[i - d] += a[i]
    if any(a[:d]):
        raise ArithmeticError(f"division by x^{d} - 1 left a remainder")
    return a[d:]


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> Poly:
    """The m-th cyclotomic polynomial, built as Phi_r(x^(m/r)) with r = rad(m).

    For squarefree r, Phi_r = prod over d | r of (x^d - 1)^mu(r/d), so it
    takes only multiplications and exact divisions by binomials.
    """
    if m < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {m}")
    primes = _prime_factors(m)
    signed = [(1, 1)]  # (d, mu(d)) for every divisor d of r
    for p in primes:
        signed += [(d * p, -mu) for d, mu in signed]
    mu_r = (-1) ** len(primes)  # mu(r/d) = mu(r) * mu(d) since r is squarefree
    poly = [1]
    for d, mu in signed:
        if mu == mu_r:
            poly = _times_binomial(poly, d)
    for d, mu in signed:
        if mu != mu_r:
            poly = _over_binomial(poly, d)
    k = m // _radical(m)
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return Poly(tuple(out))


@lru_cache(maxsize=None)
def _power_rows(r: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row q = the nonzero (i, c) terms of y^q modulo Phi_r(y), for q < r."""
    phi = totient(r)
    low = [(i, c) for i, c in enumerate(cyclotomic_poly(r).coeffs[:phi]) if c]
    rows = []
    row = {0: 1}
    for _ in range(r):
        rows.append(tuple(row.items()))
        lead = row.pop(phi - 1, 0)
        row = {i + 1: c for i, c in row.items()}
        if lead:  # y^phi = -(low terms of Phi_r)
            for i, c in low:
                v = row.get(i, 0) - lead * c
                if v:
                    row[i] = v
                else:
                    del row[i]
    return tuple(rows)


@lru_cache(maxsize=None)
def _reduction_plan(order: int) -> tuple[int, tuple, int]:
    """(k, power rows of r, totient(order)) with r = rad(order) and k = order / r."""
    r = _radical(order)
    return order // r, _power_rows(r), totient(order)


def _reduce(order: int, coeffs) -> CycloNum:
    """Canonical form of sum_j coeffs[j] * w_order^j.

    With r = rad(order) and k = order / r, Phi_order(x) = Phi_r(x^k), so
    x^(q*k + t) reduces to row q of the r-th power table with every
    exponent i moved to i*k + t.  Those land below totient(r) * k =
    totient(order), which is already canonical.  Row q < totient(r) is
    y^q itself, so an exponent j < totient(order) is its own slot.
    """
    k, rows, phi = _reduction_plan(order)
    out: list[Rational] = [0] * phi
    for j in compress(range(len(coeffs)), coeffs):
        if j < phi:
            out[j] += coeffs[j]
            continue
        c = coeffs[j]
        q, t = divmod(j, k)
        for i, d in rows[q]:
            out[i * k + t] += c * d
    return CycloNum(order, tuple(out))


@lru_cache(maxsize=None)
def _unit_roots(order: int) -> tuple[complex, ...]:
    """Floating-point w_order^j for j < order."""
    return tuple(cmath.exp(1j * tau * j / order) for j in range(order))


@dataclass(frozen=True, eq=False)
class CycloNum:
    """An exact element of Q(w_N): value = sum_j coeffs[j] * w_N^j.

    ``coeffs`` has at most N entries; slots past its end are zero.  A
    reduced value has exactly totient(N) of them.
    """

    order: int
    coeffs: tuple[Rational, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"cyclotomic order must be >= 1, got {self.order}")
        if len(self.coeffs) > self.order:
            raise ValueError(
                f"coefficient vector has length {len(self.coeffs)}, more than {self.order}"
            )

    @staticmethod
    def zero(order: int = 1) -> CycloNum:
        return CycloNum(order, ())

    @staticmethod
    def from_rational(value: Rational, order: int = 1) -> CycloNum:
        return CycloNum(order, (value,))

    def lift(self, order: int) -> CycloNum:
        """Re-express in a larger field; the target order must be a multiple."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot lift order {self.order} to {order}")
        step = order // self.order
        out: list[Rational] = [0] * ((len(self.coeffs) - 1) * step + 1)  # [] when empty
        out[::step] = self.coeffs
        return CycloNum(order, tuple(out))

    def _common(self, other: CycloNum) -> tuple[CycloNum, CycloNum]:
        n = lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def __add__(self, other) -> CycloNum:
        if not isinstance(other, CycloNum):
            other = CycloNum.from_rational(other)
        a, b = self._common(other)
        x, y = a.coeffs, b.coeffs
        if len(x) < len(y):
            x, y = y, x
        return CycloNum(a.order, tuple(map(operator.add, x, y)) + x[len(y):])

    __radd__ = __add__

    def __neg__(self) -> CycloNum:
        return CycloNum(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> CycloNum:
        return self + (-other)

    def __rsub__(self, other) -> CycloNum:
        return (-self) + other

    def __mul__(self, other) -> CycloNum:
        if isinstance(other, (int, Fraction)):
            return CycloNum(self.order, tuple(c * other for c in self.coeffs))
        a, b = self._common(other)
        n = a.order
        out: list[Rational] = [0] * min(n, len(a.coeffs) + len(b.coeffs) - 1)
        for i, c in enumerate(a.coeffs):
            if c == 0:
                continue
            for j, d in enumerate(b.coeffs):
                if d != 0:
                    out[(i + j) % n] += c * d
        return CycloNum(n, tuple(out))

    __rmul__ = __mul__

    def conj(self) -> CycloNum:
        """Complex conjugate: exponent j maps to N - j."""
        n = self.order
        out: list[Rational] = [0] * n
        for j, c in enumerate(self.coeffs):
            if c != 0:
                out[(n - j) % n] += c
        return CycloNum(n, tuple(out))

    def reduce(self) -> CycloNum:
        """Canonical form: the remainder modulo Phi_N, totient(N) coefficients."""
        phi = totient(self.order)
        cs = self.coeffs
        if len(cs) == phi:
            return self
        if any(cs[phi:]):
            return _reduce(self.order, cs)
        return CycloNum(self.order, cs[:phi] + (0,) * (phi - len(cs)))

    def canonical_coeffs(self) -> tuple[Rational, ...]:
        """The totient(N) coefficients of the reduced form."""
        return self.reduce().coeffs

    def is_zero(self) -> bool:
        return not any(self.canonical_coeffs())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._common(other)
        return a.canonical_coeffs() == b.canonical_coeffs()

    def to_complex(self) -> complex:
        roots = _unit_roots(self.order)
        cs = self.coeffs
        return sum(
            [complex(cs[j]) * roots[j] for j in compress(range(len(cs)), cs)],
            complex(0),
        )

    def __repr__(self) -> str:
        terms = [
            f"{c}*w^{j}" if j else f"{c}"
            for j, c in enumerate(self.reduce().coeffs)
            if c != 0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"CycloNum(order={self.order}, {body})"


def root(order: int, j: int) -> CycloNum:
    """The root of unity w_order^j."""
    if order < 1:
        raise ValueError(f"root order must be >= 1, got {order}")
    return CycloNum(order, (0,) * (j % order) + (1,))


def reduce_root_counts(order: int, counts) -> CycloNum:
    """Reduced sum of roots of unity with integer multiplicities.

    ``counts[j]`` is the (possibly negative) multiplicity of w_order^j.
    This is the hot path for character sums.
    """
    return _reduce(order, counts)


def _as_int(v: Rational) -> int | None:
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else None
    return v


def as_integer(z: CycloNum) -> int | None:
    """The rational integer equal to z, or None if z is not one."""
    c = z.canonical_coeffs()
    if any(c[1:]):
        return None
    return _as_int(c[0])


def as_rational(z: CycloNum) -> Fraction | None:
    """The rational number equal to z, or None (distinguishes 1/2 from w)."""
    c = z.canonical_coeffs()
    if any(v != 0 for v in c[1:]):
        return None
    return Fraction(c[0])


@lru_cache(maxsize=None)
def _w3_row(order: int) -> tuple[tuple[int, ...], int]:
    """Canonical coefficients of w_3 in Q(w_order) and their first nonzero slot above 0."""
    r3 = root(order, order // 3).canonical_coeffs()
    pivot = next((k for k in range(1, len(r3)) if r3[k] != 0), None)
    if pivot is None:
        raise ArithmeticError("w_3 reduced to a rational number; broken reduction")
    return r3, pivot


def as_eisenstein(z: CycloNum) -> tuple[int, int] | None:
    """Integers (a, b) with z = a + b*w_3, or None if no such pair exists.

    Lifts z into a field containing w_3.  Over the canonical basis the
    pivot slot of w_3 fixes b and the constant slot then fixes a; both
    must be integers, and z must equal a + b*w_3 in every other slot.
    """
    n = lcm(z.order, 3)
    c = z.lift(n).canonical_coeffs()
    r3, pivot = _w3_row(n)
    cp = _as_int(c[pivot])
    if cp is None:
        return None
    b, rem = divmod(cp, r3[pivot])
    if rem:
        return None
    a = _as_int(c[0] - b * r3[0])
    if a is None or c[1:] != tuple(map(b.__mul__, r3[1:])):
        return None
    return a, b


def poly_to_cyclo(p: Poly, order: int) -> tuple[CycloNum, ...]:
    """View a rational polynomial as one with constant CycloNum coefficients."""
    return tuple(CycloNum.from_rational(c, order) for c in p.coeffs)


def cyclo_poly_mul(p, q) -> tuple[CycloNum, ...]:
    """Product of two polynomials with CycloNum coefficients."""
    if not p or not q:
        return ()
    order = lcm(p[0].order, q[0].order)
    out = [CycloNum.zero(order) for _ in range(len(p) + len(q) - 1)]
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] = out[i + j] + c * d
    return tuple(out)


def _poly_from_root_exponents(exponents, order: int) -> tuple[CycloNum, ...]:
    """Expand prod (x - w_order^e) for e in exponents; constant term first."""
    coeffs: list[CycloNum] = [CycloNum.from_rational(1, order)]
    for e in exponents:
        r = root(order, e)
        nxt = [CycloNum.zero(order) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * r
        coeffs = nxt
    return tuple(c.reduce() for c in coeffs)


def phi3_factors(m: int, order: int) -> tuple[tuple[CycloNum, ...], tuple[CycloNum, ...]]:
    """Split Phi_m over Q(w_3) into its two conjugate monic factors.

    The first factor has the primitive m-th roots with multiplier 1 mod 3
    as its zeros, the second those with multiplier 2 mod 3.  Both are
    returned as coefficient tuples (constant term first) over Q(w_order);
    the order must be a multiple of m.
    """
    if m % 3 != 0:
        raise ValueError(f"factor split needs 3 | m, got m={m}")
    if order % m != 0:
        raise ValueError(f"order {order} does not contain the {m}-th roots")
    step = order // m
    f1 = _poly_from_root_exponents(
        [a * step for a in sorted(g_units_mod3(m, 1))], order
    )
    f2 = _poly_from_root_exponents(
        [a * step for a in sorted(g_units_mod3(m, 2))], order
    )
    return f1, f2
