"""Classification engine: certificates, verdict agreement, enumeration."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from mixedcayley import (
    CycloNum,
    as_integer,
    atom_character_sum,
    atom_of,
    a_eigenvalue,
    certificate,
    classify,
    eclass_of,
    eisenstein_components,
    enumerate_hs_integral,
    make_connection_set,
    make_group,
    root,
    verify_theorems,
)

# all abelian groups of order <= 12, one presentation per isomorphism class
SMALL_GROUPS = (
    [1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2],
    [9], [3, 3], [10], [11], [12], [2, 6],
)


def test_certificate_worked_example():
    g = make_group([3, 3])
    cert = certificate(g, (0, 1), (2, 1))
    assert as_integer(cert.hs_sum) == -2
    assert as_integer(cert.atom_sum) == -1
    assert as_integer(cert.imbalance) == -3
    assert cert.imbalance_div3 == -1
    assert cert.parity_ok  # both odd


def test_certificate_trivial_character():
    for mods, x in (([9], (1,)), ([3, 3], (0, 1)), ([12], (4,))):
        g = make_group(mods)
        cert = certificate(g, x, g.zero)
        cls = eclass_of(g, x)
        assert as_integer(cert.hs_sum) == len(cls)
        assert as_integer(cert.atom_sum) == 2 * len(cls)
        assert as_integer(cert.imbalance) == 0
        assert cert.parity_ok


def test_certificate_rejects_wrong_order():
    g = make_group([4])
    with pytest.raises(ValueError):
        certificate(g, (1,), (0,))


def split_order(n: int) -> tuple[int, int]:
    """n = 3^t * m with 3 not dividing m."""
    t = 0
    while n % 3 == 0:
        n //= 3
        t += 1
    return t, n


def check_case_law(g, x, alpha):
    """Independent check of the imbalance against the atom sum of 3x."""
    cert = certificate(g, x, alpha)
    t_val = as_integer(cert.imbalance)
    order = g.order_of(x)
    t, m = split_order(order)
    if t == 1:
        c3 = as_integer(atom_character_sum(g, g.scale(3, x), alpha))
        assert c3 is not None
        if g.character_exponent(alpha, g.scale(m, x)) == 0:
            assert t_val == 0
        else:
            assert t_val in (3 * c3, -3 * c3)
    else:
        if g.character_exponent(alpha, g.scale(order // 3, x)) != 0:
            assert t_val == 0


def test_case_law_over_z9():
    g = make_group([9])
    for x in sorted(g.gamma3()):
        for alpha in g.elements:
            check_case_law(g, x, alpha)


def test_certificate_identity_and_parity_small():
    for mods in ([9], [12]):
        g = make_group(mods)
        for x in sorted(g.gamma3()):
            for alpha in g.elements:
                cert = certificate(g, x, alpha)
                z = as_integer(cert.hs_sum)
                c = as_integer(cert.atom_sum)
                t = as_integer(cert.imbalance)
                assert 2 * z == c + t
                assert t % 3 == 0
                assert cert.parity_ok


def test_certificate_matches_term_by_term_sums():
    for mods in ([3, 3], [9], [12]):
        g = make_group(mods)
        n = g.root_order
        q6 = n // 6

        def psi(alpha, s, shift=0):
            return root(n, shift + g.character_exponent(alpha, s))

        for x in sorted(g.gamma3()):
            eclass = sorted(eclass_of(g, x))
            atom = sorted(atom_of(g, x))
            for alpha in g.elements:
                hs = imbalance = atom_sum = CycloNum.zero(n)
                for s in eclass:
                    t = g.neg(s)
                    hs = hs + psi(alpha, s, q6) + psi(alpha, t, 5 * q6)
                    imbalance = (
                        imbalance
                        + psi(alpha, s, q6) - psi(alpha, s, 5 * q6)
                        - psi(alpha, t, q6) + psi(alpha, t, 5 * q6)
                    )
                for s in atom:
                    atom_sum = atom_sum + psi(alpha, s)
                cert = certificate(g, x, alpha)
                assert cert.hs_sum == hs
                assert cert.atom_sum == atom_sum
                assert cert.imbalance == imbalance


def test_classify_examples():
    g = make_group([3, 3])
    r = classify(g, {(0, 1), (1, 0), (2, 0)})
    assert r.hs_verdict_characterization and r.hs_verdict_spectral
    assert r.eisenstein_verdict_spectral and r.consistency
    values = [as_integer(v) for v in r.hs_spectrum.entries.values()]
    assert sorted(values) == [-3, -3, 0, 0, 0, 0, 0, 3, 3]
    assert 3 in values and -3 in values and 0 in values

    r = classify(make_group([4]), {(1,)})
    assert not r.hs_verdict_characterization
    assert not r.hs_verdict_spectral
    assert not r.eisenstein_verdict_spectral
    assert r.consistency

    r = classify(make_group([12]), {(1,), (5,)})
    assert not r.hs_verdict_characterization
    assert not r.hs_verdict_spectral
    assert r.consistency


def test_classify_rejects_identity():
    with pytest.raises(ValueError):
        classify(make_group([5]), {(0,)})


def test_oriented_without_order3_elements_only_empty():
    for mods in ([4], [5], [2, 2]):
        g = make_group(mods)
        nonzero = [x for x in g.elements if x != g.zero]
        for size in range(len(nonzero) + 1):
            for comb in combinations(nonzero, size):
                cs = make_connection_set(g, comb)
                if not cs.is_skew_symmetric() or not comb:
                    continue
                assert not classify(g, comb).hs_verdict_spectral


def test_enumerate_counts():
    assert enumerate_hs_integral(make_group([9])).total == 16
    assert len(list(enumerate_hs_integral(make_group([9])).sets)) == 16
    assert enumerate_hs_integral(make_group([3, 3])).total == 256
    stream = enumerate_hs_integral(make_group([4]))
    sets = [cs.members for cs in stream.sets]
    assert sets == [
        frozenset(),
        frozenset({(2,)}),
        frozenset({(1,), (3,)}),
        frozenset({(1,), (2,), (3,)}),
    ]


def test_enumerate_budget_truncation():
    stream = enumerate_hs_integral(make_group([9]), budget=5)
    assert stream.truncated and stream.total == 16
    assert len(list(stream.sets)) == 5
    stream = enumerate_hs_integral(make_group([9]), budget=16)
    assert not stream.truncated
    assert len(list(stream.sets)) == 16


def test_enumerate_is_deterministic_and_unique():
    g = make_group([12])
    first = [cs.members for cs in enumerate_hs_integral(g).sets]
    second = [cs.members for cs in enumerate_hs_integral(g).sets]
    assert first == second
    assert len(first) == len(set(first))


def test_enumerate_matches_spectral_filter_small_groups():
    for mods in SMALL_GROUPS:
        g = make_group(mods)
        enumerated = {cs.members for cs in enumerate_hs_integral(g).sets}
        nonzero = [x for x in g.elements if x != g.zero]
        spectral = set()
        for mask in range(1 << len(nonzero)):
            members = frozenset(x for i, x in enumerate(nonzero) if mask >> i & 1)
            if classify(g, members).hs_verdict_spectral:
                spectral.add(members)
        assert enumerated == spectral, f"mismatch on {mods}"


def test_eisenstein_components_examples():
    g = make_group([3, 3])
    cs = make_connection_set(g, {(0, 1), (1, 0), (2, 0)})
    f, gv = eisenstein_components(cs, g.zero)
    assert f == 2 and gv == 1

    sym = make_connection_set(make_group([12]), {(1,), (11,)})
    for alpha in sym.group.elements:
        f, gv = eisenstein_components(sym, alpha)
        assert gv.is_zero()
        assert f == a_eigenvalue(sym, alpha)


def test_eisenstein_components_real_and_identity():
    rng = random.Random(55)
    for mods in ([9], [12], [3, 3]):
        g = make_group(mods)
        w3 = root(g.root_order, g.root_order // 3)
        nonzero = [x for x in g.elements if x != g.zero]
        for _ in range(15):
            members = frozenset(x for x in nonzero if rng.random() < 0.5)
            cs = make_connection_set(g, members)
            for alpha in g.elements:
                f, gv = eisenstein_components(cs, alpha)
                assert f == f.conj() and gv == gv.conj()
                _, gneg = eisenstein_components(cs, g.neg(alpha))
                lhs = a_eigenvalue(cs, alpha)
                assert lhs == f + gv + w3 * (gv - gneg)


def test_oriented_integral_sets_have_integer_components():
    g = make_group([9])
    for cs in enumerate_hs_integral(g).sets:
        if not cs.is_skew_symmetric() or not cs.members:
            continue
        for alpha in g.elements:
            f, gv = eisenstein_components(cs, alpha)
            assert f.is_zero()
            assert as_integer(gv) is not None


def test_verify_exhaustive_z6():
    report = verify_theorems(make_group([6]))
    assert report.subsets_tested == 32
    assert report.exhaustive
    assert not report.counterexamples


def test_verify_counts_match_enumeration():
    g = make_group([9])
    report = verify_theorems(g)
    assert report.subsets_tested == 256
    assert report.hs_integral_count == enumerate_hs_integral(g).total == 16


def test_verify_sampled_is_deterministic():
    g = make_group([2, 2, 3])
    a = verify_theorems(g, budget=100, seed=7)
    b = verify_theorems(g, budget=100, seed=7)
    assert not a.exhaustive and a.subsets_tested == 100
    assert (a.subsets_tested, a.hs_integral_count) == (b.subsets_tested, b.hs_integral_count)
    c = verify_theorems(g, budget=100, seed=8)
    assert not c.counterexamples


def test_verify_parallel_matches_serial():
    g = make_group([12])
    serial = verify_theorems(g, budget=64, seed=3, jobs=1)
    parallel = verify_theorems(g, budget=64, seed=3, jobs=2)
    assert serial.hs_integral_count == parallel.hs_integral_count
    assert serial.subsets_tested == parallel.subsets_tested
    assert serial.counterexamples == parallel.counterexamples
