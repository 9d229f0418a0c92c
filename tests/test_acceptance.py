"""Acceptance suite: the binding exit criteria, one test per criterion.

Every check runs at its stated tolerance (exact where exact arithmetic is
required, 1e-9 for the numeric oracle) and prints one PASS/FAIL line;
run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from mixedcayley import (
    as_eisenstein,
    as_integer,
    atom_character_sum,
    build_matrices,
    certificate,
    classify,
    cyclotomic_poly,
    enumerate_hs_integral,
    exact_spectrum,
    g_units_mod3,
    make_connection_set,
    make_group,
    numeric_hermitian_eigenvalues,
    root,
    verify_theorems,
)


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_criterion_1_oriented_golden_example():
    with criterion("criterion 1: oriented golden example on 3x3", 1.0):
        g = make_group([3, 3])
        report = classify(g, {(0, 1), (2, 0)})
        values = [as_integer(v) for v in report.hs_spectrum.values()]
        assert values == [2, -1, 2, 2, -1, 2, -1, -4, -1]
        assert report.hs_verdict_characterization
        assert report.hs_verdict_spectral
        assert report.consistency


def test_criterion_2_mixed_golden_example():
    with criterion("criterion 2: mixed golden example on 3x3", 1.0):
        g = make_group([3, 3])
        report = classify(g, {(0, 1), (1, 0), (2, 0)})
        values = [as_integer(v) for v in report.hs_spectrum.values()]
        assert sorted(values, reverse=True) == [3, 3, 0, 0, 0, 0, 0, -3, -3]
        assert report.hs_verdict_characterization and report.hs_verdict_spectral


def test_criterion_3_eisenstein_golden_example():
    with criterion("criterion 3: Eisenstein golden example on 3x3", 1.0):
        g = make_group([3, 3])
        report = classify(g, {(0, 1), (1, 0), (2, 0)})
        spectrum = report.a_spectrum
        w3 = root(3, 1)
        assert spectrum[(0, 1)] == 2 + w3
        assert spectrum[(0, 2)] == 1 - w3
        assert spectrum[(1, 1)] == -1 + w3
        assert spectrum[(1, 2)] == -2 - w3
        expected_pairs = [
            (3, 0), (2, 1), (1, -1),
            (0, 0), (-1, 1), (-2, -1),
            (0, 0), (-1, 1), (-2, -1),
        ]
        assert [as_eisenstein(v) for v in spectrum.values()] == expected_pairs
        assert report.eisenstein_verdict_spectral


def test_criterion_4_theorem_sweeps():
    with criterion("criterion 4: exhaustive theorem sweeps", 300.0):
        expected = {
            (6,): 32,
            (9,): 256,
            (3, 3): 256,
            (12,): 2048,
            (2, 6): 2048,
        }
        for moduli, subsets in expected.items():
            report = verify_theorems(make_group(moduli))
            assert report.exhaustive
            assert report.subsets_tested == subsets, moduli
            assert report.counterexamples == (), moduli


def test_criterion_5_enumeration_counts():
    with criterion("criterion 5: constructive enumeration counts", 30.0):
        for moduli, count in (((9,), 16), ((3, 3), 256), ((4,), 4)):
            g = make_group(moduli)
            stream = enumerate_hs_integral(g)
            sets = {cs.members for cs in stream.sets}
            assert stream.total == count and len(sets) == count, moduli
        # cross-validate against the exhaustive sweeps
        assert verify_theorems(make_group([9])).hs_integral_count == 16
        assert verify_theorems(make_group([3, 3])).hs_integral_count == 256
        g4 = make_group([4])
        nonzero = [x for x in g4.elements if x != g4.zero]
        spectral = {
            frozenset(x for i, x in enumerate(nonzero) if mask >> i & 1)
            for mask in range(1 << len(nonzero))
            if classify(
                g4, frozenset(x for i, x in enumerate(nonzero) if mask >> i & 1)
            ).hs_verdict_spectral
        }
        assert spectral == {cs.members for cs in enumerate_hs_integral(g4).sets}


def _split_order(n: int) -> tuple[int, int]:
    t = 0
    while n % 3 == 0:
        n //= 3
        t += 1
    return t, n


def test_criterion_6_certificate_suite():
    with criterion("criterion 6: certificate identities", 60.0):
        for moduli in ((9,), (12,), (18,), (3, 9)):
            g = make_group(moduli)
            for x in sorted(g.gamma3()):
                order = g.order_of(x)
                t, m = _split_order(order)
                for alpha in g.elements:
                    z, c, tv = certificate(g, x, alpha)  # validates Z,T in Z and 3|T
                    assert 2 * z == c + tv
                    assert (c - tv // 3) % 2 == 0
                    if t == 1:
                        c3 = as_integer(
                            atom_character_sum(g, g.scale(3, x), alpha)
                        )
                        if g.character_exponent(alpha, g.scale(m, x)) == 0:
                            assert tv == 0
                        else:
                            assert tv in (3 * c3, -3 * c3)
                    elif g.character_exponent(alpha, g.scale(order // 3, x)) != 0:
                        assert tv == 0


# every product is at most 36
_ORACLE_CATALOG = (
    (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,), (12,),
    (13,), (14,), (15,), (16,), (18,), (20,), (21,), (24,), (27,), (28,),
    (30,), (32,), (33,), (35,), (36,),
    (2, 2), (2, 4), (2, 6), (2, 8), (2, 10), (2, 12), (2, 14), (2, 16),
    (2, 18), (3, 3), (3, 6), (3, 9), (3, 12), (4, 4), (4, 6), (4, 8),
    (5, 5), (6, 6),
    (2, 2, 2), (2, 2, 4), (2, 2, 6), (2, 2, 8), (2, 2, 9), (2, 4, 4),
    (2, 3, 6), (3, 3, 3), (3, 3, 4),
    (2, 2, 2, 2), (2, 2, 2, 4),
)


def test_criterion_7_oracle_agreement():
    with criterion("criterion 7: numeric oracle agreement (200 sets)", 120.0):
        rng = random.Random(20240903)
        for _ in range(200):
            g = make_group(rng.choice(_ORACLE_CATALOG))
            nonzero = [x for x in g.elements if x != g.zero]
            mask = rng.getrandbits(len(nonzero))
            members = frozenset(x for i, x in enumerate(nonzero) if mask >> i & 1)
            cs = make_connection_set(g, members)
            exact = []
            for v in exact_spectrum(cs, "hs").values():
                c = v.to_complex()
                assert abs(c.imag) < 1e-9
                exact.append(c.real)
            exact.sort()
            numeric = numeric_hermitian_eigenvalues(build_matrices(cs))
            assert len(numeric) == len(exact)
            assert all(abs(a - b) < 1e-9 for a, b in zip(exact, numeric))


def _factor_over_q_w3(m: int, r: int) -> list:
    """prod (x - w_m^a) over the units a = r (mod 3) of Z_m, constant term first."""
    f = [1]
    for a in sorted(g_units_mod3(m, r)):
        f = [u - root(m, a) * v for u, v in zip([0, *f], [*f, 0])]
    return f


def test_criterion_8_cyclotomic_factor_split():
    with criterion("criterion 8: factor split of Phi_m up to 60", 30.0):
        for m in range(3, 61, 3):
            f1, f2 = _factor_over_q_w3(m, 1), _factor_over_q_w3(m, 2)
            product = [0] * (len(f1) + len(f2) - 1)
            for i, c in enumerate(f1):
                for j, d in enumerate(f2):
                    product[i + j] = product[i + j] + c * d
            expected = cyclotomic_poly(m)
            assert len(product) == len(expected), m
            assert all(p == e for p, e in zip(product, expected)), m
