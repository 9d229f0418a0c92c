"""Connection sets, matrices, exact spectra, and the numeric oracle."""

from __future__ import annotations

import random
import time
from functools import reduce

import numpy as np
import pytest

from mixedcayley import (
    NumericOracleError,
    as_integer,
    build_matrices,
    exact_spectrum,
    hs_eigenvalue,
    hs_eigenvalue_components,
    a_eigenvalue,
    make_connection_set,
    make_group,
    matrices_to_json,
    numeric_hermitian_eigenvalues,
    root,
    to_dot,
)
from mixedcayley.cayley import MixedGraphMatrices


def test_connection_set_split_examples():
    g = make_group([3, 3])
    cs = make_connection_set(g, {(0, 1), (2, 0)})
    assert cs.skew_part == {(0, 1), (2, 0)} and not cs.sym_part
    cs = make_connection_set(g, {(0, 1), (1, 0), (2, 0)})
    assert cs.skew_part == {(0, 1)}
    assert cs.sym_part == {(1, 0), (2, 0)}
    cs = make_connection_set(g, set())
    assert not cs.members and not cs.sym_part and not cs.skew_part


def test_connection_set_rejects_identity():
    g = make_group([5])
    with pytest.raises(ValueError):
        make_connection_set(g, {(0,)})


def test_split_parts_partition():
    rng = random.Random(31)
    for mods in ([8], [2, 6], [3, 3]):
        g = make_group(mods)
        nonzero = [x for x in g.elements if x != g.zero]
        for _ in range(40):
            members = frozenset(x for x in nonzero if rng.random() < 0.5)
            cs = make_connection_set(g, members)
            assert cs.sym_part | cs.skew_part == members
            assert not cs.sym_part & cs.skew_part
            assert {g.neg(x) for x in cs.sym_part} == cs.sym_part
            assert not {g.neg(x) for x in cs.skew_part} & cs.skew_part


def test_build_matrices_z3_oriented():
    g = make_group([3])
    m = build_matrices(make_connection_set(g, {(1,)}))
    assert m.hermitian2 == (
        ("0", "w6", "w6^5"),
        ("w6^5", "0", "w6"),
        ("w6", "w6^5", "0"),
    )
    assert m.adjacency == ((0, 1, 0), (0, 0, 1), (1, 0, 0))


def test_build_matrices_symmetric_matches_adjacency():
    g = make_group([3])
    m = build_matrices(make_connection_set(g, {(1,), (2,)}))
    for i in range(3):
        for j in range(3):
            assert m.hermitian2[i][j] == str(m.adjacency[i][j])


def test_build_matrices_empty_and_hermitian_coding():
    g = make_group([2, 2])
    m = build_matrices(make_connection_set(g, set()))
    assert all(e == "0" for row in m.hermitian2 for e in row)
    conj = {"0": "0", "1": "1", "w6": "w6^5", "w6^5": "w6"}
    g = make_group([9])
    m = build_matrices(make_connection_set(g, {(1,), (2,), (7,)}))
    for i in range(m.n):
        for j in range(m.n):
            assert m.hermitian2[i][j] == conj[m.hermitian2[j][i]]


def test_matrices_json_entries():
    g = make_group([3])
    payload = matrices_to_json(build_matrices(make_connection_set(g, {(1,)})))
    assert payload["n"] == 3
    assert set(e for row in payload["hermitian2"] for e in row) <= {"0", "1", "w6", "w6^5"}


def test_hs_eigenvalue_examples():
    g = make_group([3, 3])
    cs = make_connection_set(g, {(0, 1), (2, 0)})
    assert hs_eigenvalue(cs, (2, 1)) == -4
    cs = make_connection_set(g, {(0, 1), (1, 0), (2, 0)})
    assert hs_eigenvalue(cs, (0, 0)) == 3
    assert hs_eigenvalue(cs, g.zero) == len(cs.sym_part) + len(cs.skew_part)


def test_a_eigenvalue_examples():
    g = make_group([3, 3])
    cs = make_connection_set(g, {(0, 1), (1, 0), (2, 0)})
    assert a_eigenvalue(cs, (0, 1)) == 2 + root(3, 1)
    assert a_eigenvalue(cs, (0, 2)) == 1 - root(3, 1)
    assert a_eigenvalue(cs, g.zero) == 3


def test_exact_spectrum_examples():
    g = make_group([3, 3])
    cs = make_connection_set(g, {(0, 1), (2, 0)})
    values = [as_integer(v) for v in exact_spectrum(cs, "hs").entries.values()]
    assert values == [2, -1, 2, 2, -1, 2, -1, -4, -1]

    g3 = make_group([3])
    cs3 = make_connection_set(g3, {(1,)})
    assert [as_integer(v) for v in exact_spectrum(cs3, "hs").entries.values()] == [1, -2, 1]

    empty = make_connection_set(g, set())
    assert all(v == 0 for v in exact_spectrum(empty, "hs").entries.values())

    with pytest.raises(ValueError):
        exact_spectrum(cs, "nonsense")


def test_component_split_and_symmetry():
    rng = random.Random(7)
    for mods in ([12], [3, 3], [2, 6]):
        g = make_group(mods)
        nonzero = [x for x in g.elements if x != g.zero]
        for _ in range(25):
            members = frozenset(x for x in nonzero if rng.random() < 0.5)
            cs = make_connection_set(g, members)
            for alpha in g.elements:
                lam, mu = hs_eigenvalue_components(cs, alpha)
                assert lam + mu == hs_eigenvalue(cs, alpha)
                # simple-part eigenvalues are even in alpha
                lam_neg, _ = hs_eigenvalue_components(cs, g.neg(alpha))
                assert lam == lam_neg
                assert mu == mu.conj()
                gamma = hs_eigenvalue(cs, alpha)
                assert gamma == gamma.conj()


def test_per_alpha_helpers_match_exact_spectrum():
    rng = random.Random(11)
    for mods in ([3, 3], [12], [2, 6]):
        g = make_group(mods)
        nonzero = [x for x in g.elements if x != g.zero]
        for _ in range(10):
            cs = make_connection_set(g, [x for x in nonzero if rng.random() < 0.5])
            spectra = {
                kind: exact_spectrum(cs, kind).entries
                for kind in ("hs", "adjacency", "simple_part", "skew_part")
            }
            for alpha in g.elements:
                lam, mu = hs_eigenvalue_components(cs, alpha)
                assert hs_eigenvalue(cs, alpha).coeffs == spectra["hs"][alpha].coeffs
                assert a_eigenvalue(cs, alpha).coeffs == spectra["adjacency"][alpha].coeffs
                assert lam.coeffs == spectra["simple_part"][alpha].coeffs
                assert mu.coeffs == spectra["skew_part"][alpha].coeffs


def test_spectrum_trace_is_zero():
    rng = random.Random(8)
    for mods in ([9], [2, 6]):
        g = make_group(mods)
        nonzero = [x for x in g.elements if x != g.zero]
        for _ in range(20):
            members = frozenset(x for x in nonzero if rng.random() < 0.5)
            cs = make_connection_set(g, members)
            for kind in ("hs", "adjacency", "simple_part", "skew_part"):
                total = reduce(
                    lambda a, b: a + b, exact_spectrum(cs, kind).entries.values()
                )
                assert total.is_zero()


def test_symmetric_set_hs_equals_adjacency():
    g = make_group([12])
    cs = make_connection_set(g, {(1,), (11,), (6,)})
    hs = exact_spectrum(cs, "hs")
    adj = exact_spectrum(cs, "adjacency")
    for alpha in g.elements:
        assert hs.entries[alpha] == adj.entries[alpha]


def test_numeric_oracle_examples():
    g = make_group([3])
    m = build_matrices(make_connection_set(g, {(1,)}))
    vals = numeric_hermitian_eigenvalues(m)
    assert vals == pytest.approx([-2.0, 1.0, 1.0], abs=1e-9)

    empty = build_matrices(make_connection_set(make_group([4]), set()))
    assert numeric_hermitian_eigenvalues(empty) == pytest.approx([0.0] * 4, abs=1e-12)

    g = make_group([3, 3])
    m = build_matrices(make_connection_set(g, {(0, 1), (2, 0)}))
    vals = numeric_hermitian_eigenvalues(m)
    assert vals == pytest.approx([-4, -1, -1, -1, -1, 2, 2, 2, 2], abs=1e-9)


def test_numeric_oracle_size_cap():
    fake = MixedGraphMatrices(n=129, adjacency=(), hermitian2=())
    with pytest.raises(ValueError):
        numeric_hermitian_eigenvalues(fake)


def test_numeric_oracle_wraps_lapack_failure(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    g = make_group([3])
    with pytest.raises(NumericOracleError):
        numeric_hermitian_eigenvalues(build_matrices(make_connection_set(g, {(1,)})))


def test_exact_spectrum_large_cyclic_is_fast():
    g = make_group([1024])
    cs = make_connection_set(g, {(x,) for x in (1, 3, 100, 511, 700, 900, 1000, 1023)})
    start = time.perf_counter()
    spectrum = exact_spectrum(cs, "hs")
    assert time.perf_counter() - start < 2.0
    assert len(spectrum.entries) == 1024


def test_oracle_agrees_with_exact_spectrum():
    rng = random.Random(99)
    for mods in ([7], [9], [12], [3, 3], [2, 8]):
        g = make_group(mods)
        nonzero = [x for x in g.elements if x != g.zero]
        members = frozenset(x for x in nonzero if rng.random() < 0.5)
        cs = make_connection_set(g, members)
        exact = []
        for v in exact_spectrum(cs, "hs").entries.values():
            c = v.to_complex()
            assert abs(c.imag) < 1e-9
            exact.append(c.real)
        exact.sort()
        numeric = numeric_hermitian_eigenvalues(build_matrices(cs))
        assert numeric == pytest.approx(exact, abs=1e-9)


def test_dot_export():
    g = make_group([3, 3])
    cs = make_connection_set(g, {(0, 1), (1, 0), (2, 0)})
    dot = to_dot(cs)
    assert dot.startswith("digraph cayley {")
    # undirected pair (0,0)--(1,0) appears once, as an edge without direction
    assert dot.count('"(0,0)" -> "(1,0)" [dir=none];') == 1
    assert '"(1,0)" -> "(0,0)"' not in dot
    # directed arc from the skew member
    assert '"(0,0)" -> "(0,1)";' in dot
    assert '"(0,1)" -> "(0,0)"' not in dot
    lines = dot.splitlines()
    n_undirected = sum(1 for l in lines if "dir=none" in l)
    n_arcs = sum(1 for l in lines if "->" in l and "dir=none" not in l)
    assert n_undirected == 9 * 2 // 2  # |sym| * n / 2
    assert n_arcs == 9  # |skew| * n
