"""Finite abelian groups presented as products of cyclic factors.

A group Z_{n_1} x ... x Z_{n_k} is described by its ordered list of
moduli; elements are plain tuples of reduced coordinates.  Every root of
unity produced by a character lives in one common cyclotomic order
N = lcm(6, exponent), so sums involving the sixth roots of unity stay in
a single field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul

Element = tuple[int, ...]

DEFAULT_SIZE_CAP = 4096


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group Z_{n_1} x ... x Z_{n_k}.

    Instances are immutable values; build them with :func:`make_group` or
    :func:`parse_group`, which validate the moduli and fill in the derived
    fields.  ``root_order`` is lcm(6, exponent): the one cyclotomic order
    large enough for every character value and its sixth-root weights.
    """

    moduli: tuple[int, ...]
    order: int
    exponent: int
    root_order: int

    @property
    def zero(self) -> Element:
        return (0,) * len(self.moduli)

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic coordinate order."""
        elems: list[Element] = [()]
        for n in self.moduli:
            elems = [e + (c,) for e in elems for c in range(n)]
        return tuple(elems)

    def element(self, coords) -> Element:
        """Reduce external coordinates modulo the respective factor orders."""
        coords = tuple(coords)
        if len(coords) != len(self.moduli):
            raise ValueError(
                f"element {coords} has {len(coords)} coordinates, expected {len(self.moduli)}"
            )
        return tuple(int(c) % n for c, n in zip(coords, self.moduli))

    def contains(self, x: Element) -> bool:
        return len(x) == len(self.moduli) and all(
            0 <= c < n for c, n in zip(x, self.moduli)
        )

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.moduli))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % n for a, n in zip(x, self.moduli))

    def scale(self, k: int, x: Element) -> Element:
        """The k-fold sum of x with itself (k may be negative)."""
        return tuple((k * a) % n for a, n in zip(x, self.moduli))

    def order_of(self, x: Element) -> int:
        """Least m >= 1 with m*x = 0: lcm over j of n_j / gcd(n_j, x_j)."""
        return lcm(*(n // gcd(n, c) for c, n in zip(x, self.moduli))) if x else 1

    @cached_property
    def _gamma3(self) -> frozenset[Element]:
        return frozenset(x for x in self.elements if self.order_of(x) % 3 == 0)

    def gamma3(self) -> frozenset[Element]:
        """Elements whose order is divisible by 3."""
        return self._gamma3

    def m_class(self, x: Element, r: int) -> frozenset[Element]:
        """The multiples {k*x : 1 <= k <= ord(x), k = r (mod 3)}."""
        if r not in (0, 1, 2):
            raise ValueError(f"residue must be 0, 1 or 2, got {r}")
        m = self.order_of(x)
        if m % 3 != 0:
            raise ValueError(f"element {x} has order {m}, not divisible by 3")
        return frozenset(self.scale(k, x) for k in range(1, m + 1) if k % 3 == r)

    @cached_property
    def _lift(self) -> tuple[int, ...]:
        """The factors N/n_j that lift each coordinate's root to order N."""
        return tuple(self.root_order // n for n in self.moduli)

    def character_exponent(self, alpha: Element, x: Element) -> int:
        """Exponent e with psi_alpha(x) = w_N^e, N = root_order.

        The character value is prod_j w_{n_j}^{alpha_j x_j}; each factor is
        lifted to order N by scaling its exponent by N/n_j.
        """
        return sum(map(mul, map(mul, alpha, x), self._lift)) % self.root_order

    def spec_string(self) -> str:
        return "x".join(str(n) for n in self.moduli)


def make_group(moduli, size_cap: int = DEFAULT_SIZE_CAP) -> GroupSpec:
    """Build a validated GroupSpec from a list of cyclic factor orders."""
    moduli = tuple(int(n) for n in moduli)
    if not moduli:
        raise ValueError("group needs at least one cyclic factor")
    for n in moduli:
        if n < 1:
            raise ValueError(f"cyclic factor order must be >= 1, got {n}")
    order = prod(moduli)
    if order > size_cap:
        raise ValueError(f"group order {order} exceeds size cap {size_cap}")
    exponent = lcm(*moduli)
    return GroupSpec(
        moduli=moduli, order=order, exponent=exponent, root_order=lcm(6, exponent)
    )


def parse_group(spec: str, size_cap: int = DEFAULT_SIZE_CAP) -> GroupSpec:
    """Parse a group string like "12" or "3x3" into a GroupSpec."""
    parts = spec.strip().lower().split("x")
    try:
        moduli = [int(p) for p in parts]
    except ValueError:
        raise ValueError(
            f"bad group spec {spec!r}: expected integers joined by 'x', e.g. '3x3'"
        ) from None
    return make_group(moduli, size_cap=size_cap)
