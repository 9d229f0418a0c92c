"""Exact arithmetic in the ring of cyclotomic integers Z[w_N].

Every value the routes compute is a sum of roots of unity with integer
multiplicities, so a CycloNum holds integer coefficients over the power
basis 1, w, ..., w^{N-1}, where w = exp(2*pi*i/N), always in canonical
form: the polynomial remainder modulo the N-th cyclotomic polynomial,
exactly totient(N) coefficients.  That polynomial is monic, so the
remainder of an integer vector is an integer vector.  Equality, integer
membership and Eisenstein membership are coefficient inspections; no
floating point ever enters a verdict.  Mixed-order operands are lifted
to the lcm of their orders by scaling exponents.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import lcm, prod, tau


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
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """The m-th cyclotomic polynomial's coefficients, constant term first,
    built as Phi_r(x^(m/r)) with r = rad(m).

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
    return tuple(out)


@lru_cache(maxsize=None)
def _power_rows(r: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row q = the nonzero (i, c) terms of y^q modulo Phi_r(y), for q < r."""
    phi = totient(r)
    low = [(i, c) for i, c in enumerate(cyclotomic_poly(r)[:phi]) if c]
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
def _reduction_plan(order: int) -> tuple[int, tuple, int, tuple[int, ...]]:
    """(k, power rows of r, totient(order), the slots 0..order-1) with
    r = rad(order) and k = order / r.

    The slots are kept as a tuple so that a scan over them makes no int.
    """
    r = _radical(order)
    return order // r, _power_rows(r), totient(order), tuple(range(order))


def _reduce(order: int, coeffs) -> CycloNum:
    """Canonical form of sum_j coeffs[j] * w_order^j, for a vector of at most
    ``order`` entries; each nonzero one is read with ``operator.index``.

    With r = rad(order) and k = order / r, Phi_order(x) = Phi_r(x^k), so
    x^(q*k + t) reduces to row q of the r-th power table with every
    exponent i moved to i*k + t.  Those land below totient(r) * k =
    totient(order), which is already canonical.  Row q < totient(r) is
    y^q itself, so an exponent j < totient(order) is its own slot.
    """
    k, rows, phi, slots = _reduction_plan(order)
    index = operator.index
    out: list[int] = [0] * phi
    for j in compress(slots, coeffs):
        c = index(coeffs[j])
        if j < phi:
            out[j] += c
            continue
        q, t = divmod(j, k)
        for i, d in rows[q]:
            out[i * k + t] += c * d
    return _cyclo(order, tuple(out))


@lru_cache(maxsize=None)
def _unit_roots(order: int) -> tuple[complex, ...]:
    """Floating-point w_order^j for j < order."""
    return tuple(cmath.exp(1j * tau * j / order) for j in range(order))


@dataclass(frozen=True, eq=False, slots=True)
class CycloNum:
    """An exact element of Z[w_N]: value = sum_j coeffs[j] * w_N^j.

    ``coeffs`` always holds exactly the totient(N) canonical coefficients,
    each an int: the constructor reads every entry of a vector of at most
    N with ``operator.index`` (so a float, rational or str is a TypeError),
    takes slots past its end as zero, and reduces it.  Arithmetic takes
    CycloNum and int operands; anything else is a TypeError.
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"cyclotomic order must be >= 1, got {self.order}")
        if len(self.coeffs) > self.order:
            raise ValueError(
                f"coefficient vector has length {len(self.coeffs)}, more than {self.order}"
            )
        coeffs = tuple(map(operator.index, self.coeffs))
        if len(coeffs) != totient(self.order):
            coeffs = _reduce(self.order, coeffs).coeffs
        _set_coeffs(self, coeffs)

    def lift(self, order: int) -> CycloNum:
        """Re-express in a larger ring; the target order must be a multiple."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot lift order {self.order} to {order}")
        step = order // self.order
        out: list[int] = [0] * ((len(self.coeffs) - 1) * step + 1)
        out[::step] = self.coeffs
        return _reduce(order, out)

    def _common(self, other: CycloNum) -> tuple[CycloNum, CycloNum]:
        n = lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def __add__(self, other) -> CycloNum:
        if other.__class__ is CycloNum and other.order == self.order:
            a, b = self, other
        elif isinstance(other, int):
            a, b = self._common(CycloNum(1, (other,)))
        elif isinstance(other, CycloNum):
            a, b = self._common(other)
        else:
            return NotImplemented
        return _cyclo(a.order, tuple(map(operator.add, a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> CycloNum:
        return _cyclo(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> CycloNum:
        if not isinstance(other, (CycloNum, int)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> CycloNum:
        if not isinstance(other, (CycloNum, int)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other) -> CycloNum:
        if isinstance(other, int):
            return _cyclo(self.order, tuple(c * other for c in self.coeffs))
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._common(other)
        n = a.order
        out: list[int] = [0] * min(n, len(a.coeffs) + len(b.coeffs) - 1)
        for i, c in enumerate(a.coeffs):
            if c == 0:
                continue
            for j, d in enumerate(b.coeffs):
                if d != 0:
                    out[(i + j) % n] += c * d
        return _reduce(n, out)

    __rmul__ = __mul__

    def reduce(self) -> CycloNum:
        """The canonical form, which every value already is: ``self``."""
        return self

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycloNum(1, (other,))
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

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
            for j, c in enumerate(self.coeffs)
            if c != 0
        ]
        body = " + ".join(terms) if terms else "0"
        return f"CycloNum(order={self.order}, {body})"


_new_object = object.__new__
_set_order = CycloNum.order.__set__
_set_coeffs = CycloNum.coeffs.__set__


def _cyclo(order: int, coeffs: tuple[int, ...]) -> CycloNum:
    """CycloNum(order, coeffs) without ``__post_init__``, for a vector that
    is canonical by construction: order >= 1 and totient(order) slots."""
    z = _new_object(CycloNum)
    _set_order(z, order)
    _set_coeffs(z, coeffs)
    return z


def root(order: int, j: int) -> CycloNum:
    """The root of unity w_order^j."""
    if order < 1:
        raise ValueError(f"root order must be >= 1, got {order}")
    return CycloNum(order, (0,) * (j % order) + (1,))


def reduce_root_counts(order: int, counts) -> CycloNum:
    """Reduced sum of roots of unity with integer multiplicities.

    ``counts[j]`` is the (possibly negative) integer multiplicity of
    w_order^j, for at most ``order`` slots.  Each nonzero count is read
    with ``operator.index``, so a float is a TypeError and a bool or numpy
    integer becomes an int.
    """
    if len(counts) > order:
        raise ValueError(f"count vector has length {len(counts)}, more than {order}")
    return _reduce(order, counts)


def as_integer(z: CycloNum) -> int | None:
    """The rational integer equal to z, or None if z is not one."""
    c = z.coeffs
    if any(c[1:]):
        return None
    return c[0]


@lru_cache(maxsize=None)
def _w3_row(order: int) -> tuple[tuple[int, ...], int]:
    """Canonical coefficients of w_3 in Z[w_order] and their first nonzero slot above 0."""
    r3 = root(order, order // 3).coeffs
    pivot = next((k for k in range(1, len(r3)) if r3[k] != 0), None)
    if pivot is None:
        raise ArithmeticError("w_3 reduced to a rational number; broken reduction")
    return r3, pivot


def as_eisenstein(z: CycloNum) -> tuple[int, int] | None:
    """Integers (a, b) with z = a + b*w_3, or None if no such pair exists.

    Lifts z into a ring containing w_3.  Over the canonical basis the
    pivot slot of w_3 fixes b, which must divide exactly, and the constant
    slot then fixes a; z must equal a + b*w_3 in every other slot.
    """
    n = lcm(z.order, 3)
    c = z.lift(n).coeffs
    r3, pivot = _w3_row(n)
    b, rem = divmod(c[pivot], r3[pivot])
    if rem or c[1:] != tuple(map(b.__mul__, r3[1:])):
        return None
    return c[0] - b * r3[0], b
