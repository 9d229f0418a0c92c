"""Finite abelian groups presented as products of cyclic factors.

A group Z_{n_1} x ... x Z_{n_k} is described by its ordered list of
moduli; elements are plain tuples of reduced coordinates.  Every root of
unity produced by a character lives in one common cyclotomic order
N = lcm(6, exponent), so sums involving the sixth roots of unity stay in
a single field.

Character exponents come from one table per group.  Its column for an
element x holds the exponent of psi_alpha(x) for every alpha, in the order
of ``elements``; a column is built the first time x is asked for, so a
graph that reads only its 2|S| members and their negations never builds
the other n - 2|S| columns.  Each entry is an unsigned 16-bit int
(``array("H")``, 2 bytes): N <= 6 * DEFAULT_SIZE_CAP = 24576 < 2^16, so
every exponent in [0, N) fits exactly.

The atoms and skew classes are the other table, ``_classes``; both die with the group.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm, prod
from operator import index, mod
from typing import NamedTuple

Element = tuple[int, ...]

DEFAULT_SIZE_CAP = 4096


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


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group Z_{n_1} x ... x Z_{n_k}.

    Built from its moduli alone: at least one integer >= 1, with a product
    of at most ``DEFAULT_SIZE_CAP``.  ``root_order`` is lcm(6, exponent):
    the one cyclotomic order large enough for every character value and
    its sixth-root weights.
    """

    moduli: tuple[int, ...]
    order: int = field(init=False)
    exponent: int = field(init=False)
    root_order: int = field(init=False)

    def __post_init__(self) -> None:
        moduli = tuple(map(index, self.moduli))
        if not moduli:
            raise ValueError("group needs at least one cyclic factor")
        for n in moduli:
            if n < 1:
                raise ValueError(f"cyclic factor order must be >= 1, got {n}")
        order = prod(moduli)
        if order > DEFAULT_SIZE_CAP:
            raise ValueError(f"group order {order} exceeds size cap {DEFAULT_SIZE_CAP}")
        exponent = lcm(*moduli)
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "root_order", lcm(6, exponent))

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
        """Reduce external integer coordinates modulo the respective factor orders."""
        coords = tuple(coords)
        if len(coords) != len(self.moduli):
            raise ValueError(
                f"element {coords} has {len(coords)} coordinates, expected {len(self.moduli)}"
            )
        return tuple(map(mod, map(index, coords), self.moduli))

    def require_element(self, x) -> None:
        """Raise ValueError naming x unless it is a reduced element of the group:
        a tuple with one reduced int coordinate per factor.  A float
        coordinate, a list, bytes or a range is foreign."""
        try:
            if isinstance(x, tuple) and len(x) == len(self.moduli):
                if all(0 <= index(c) < n for c, n in zip(x, self.moduli)):
                    return
        except TypeError:  # a coordinate that is no integer
            pass
        raise self._foreign(x)

    def _foreign(self, x) -> ValueError:
        return ValueError(f"{x} is not a reduced element of group {self.spec_string()}")

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
    def _classes(self) -> _ClassIndex:
        """The atoms with their skew classes, and the element -> class maps, from
        one lexicographic walk: each new x is the least member of its atom and
        of its k = 1 (mod 3) class, so both come out in order of least member.
        Each class is one frozenset shared by its members."""
        atoms = {self.zero: frozenset({self.zero})}
        splits: list[Split] = [(atoms[self.zero], ())]
        eclasses: dict[Element, frozenset[Element]] = {}
        for x in self.elements:
            if x in atoms:
                continue
            m = self.order_of(x)
            atom = frozenset(self.scale(k, x) for k in g_units(m))
            atoms.update(dict.fromkeys(atom, atom))
            residues = (1, 2) if m % 3 == 0 else ()
            classes = tuple(frozenset(self.scale(k, x) for k in g_units_mod3(m, r)) for r in residues)
            for cls in classes:
                eclasses.update(dict.fromkeys(cls, cls))
            splits.append((atom, classes))
        return _ClassIndex(tuple(splits), atoms, eclasses)

    def gamma3(self) -> frozenset[Element]:
        """Elements whose order is divisible by 3: the members of the skew classes."""
        return frozenset(self._classes.eclass)

    @cached_property
    def _lift(self) -> tuple[int, ...]:
        """The factors N/n_j that lift each coordinate's root to order N."""
        return tuple(self.root_order // n for n in self.moduli)

    @cached_property
    def _index(self) -> dict[Element, int]:
        """Position of each element in ``elements``: the table's row index."""
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def _columns(self) -> _Columns:
        return _Columns(self)

    def character_exponent(self, alpha: Element, x: Element) -> int:
        """Exponent e with psi_alpha(x) = w_N^e, N = root_order.

        The character value is prod_j w_{n_j}^{alpha_j x_j}; each factor is
        lifted to order N by scaling its exponent by N/n_j.  The value is
        read from the group's exponent table.  Both arguments must be
        elements: a tuple equal to one of ``elements``, anything else
        raises ValueError naming it.
        """
        try:
            return self._columns[x][self._index[alpha]]
        except (KeyError, TypeError):  # TypeError: an unhashable argument
            for y in (alpha, x):
                try:
                    self._index[y]
                except (KeyError, TypeError):
                    raise self._foreign(y) from None
            raise

    def spec_string(self) -> str:
        return "x".join(str(n) for n in self.moduli)


class _Columns(dict):
    """One group's exponent table: the column of each element x read so far."""

    def __init__(self, group: GroupSpec) -> None:
        super().__init__()
        self._elements = group.elements
        self._index = group._index
        self._factors = tuple(zip(group._lift, group.moduli))
        self._order = group.root_order

    def __missing__(self, x) -> array:
        # build from the canonical element, so an equal key such as (1.0,)
        # gets the int column of (1,); a foreign x raises KeyError here
        x = self._elements[self._index[x]]
        n = self._order
        # sum_j lift_j x_j alpha_j, one factor at a time in the nesting
        # order of ``elements``: about 3x faster than a sum per alpha
        column = [0]
        for c, (lift, m) in zip(x, self._factors):
            step = lift * c
            column = [(e + k * step) % n for e in column for k in range(m)]
        column = self[x] = array("H", column)
        return column


def make_group(moduli) -> GroupSpec:
    """Build a validated GroupSpec from an iterable of integer cyclic factor orders."""
    return GroupSpec(moduli)


def parse_group(spec: str) -> GroupSpec:
    """Parse a group string like "12" or "3x3", factors of decimal digits, into a GroupSpec."""
    parts = spec.lower().split("x")
    try:
        if not all(p.strip().isdecimal() for p in parts):
            raise ValueError
        moduli = [int(p) for p in parts]
    except ValueError:
        raise ValueError(
            f"bad group spec {spec!r}: expected integers joined by 'x', e.g. '3x3'"
        ) from None
    return make_group(moduli)
