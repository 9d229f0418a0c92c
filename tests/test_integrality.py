"""Classification engine: certificates, verdict agreement, enumeration."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

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
    enumerate_hs_integral,
    make_connection_set,
    make_group,
    root,
    verify_theorems,
)
from mixedcayley.cayley import character_sum
from mixedcayley.integrality import _subset_flags

SRC = Path(__file__).resolve().parent.parent / "src"

# all abelian groups of order <= 12, one presentation per isomorphism class
SMALL_GROUPS = (
    [1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2],
    [9], [3, 3], [10], [11], [12], [2, 6],
)


def test_certificate_worked_example():
    g = make_group([3, 3])
    z, c, t = certificate(g, (0, 1), (2, 1))
    assert (z, c, t) == (-2, -1, -3)
    assert (c - t // 3) % 2 == 0  # both odd


def test_certificate_trivial_character():
    for mods, x in (([9], (1,)), ([3, 3], (0, 1)), ([12], (4,))):
        g = make_group(mods)
        z, c, t = certificate(g, x, g.zero)
        cls = eclass_of(g, x)
        assert (z, c, t) == (len(cls), 2 * len(cls), 0)
        assert (c - t // 3) % 2 == 0


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
    t_val = certificate(g, x, alpha).imbalance
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
                z, c, t = certificate(g, x, alpha)
                assert 2 * z == c + t
                assert t % 3 == 0
                assert (c - t // 3) % 2 == 0


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
                hs = imbalance = atom_sum = CycloNum(n, ())
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
                assert cert == (as_integer(hs), as_integer(atom_sum), as_integer(imbalance))
                assert all(type(v) is int for v in cert)


@pytest.mark.parametrize("moduli", [[3, 3, 3], [36]])
def test_certificate_reduces_three_vectors_from_2c_plus_a_exponents(monkeypatch, moduli):
    """Each certificate(g, x, alpha) reduces exactly three count vectors and
    reads 2|C| + |A| character exponents, C the skew class and A the atom of x."""
    from mixedcayley import cayley, cyclo, integrality
    from mixedcayley.groups import GroupSpec

    calls = {"reduce": 0, "exponent": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    for module in (cyclo, cayley, integrality):  # every module that binds it
        if hasattr(module, "reduce_root_counts"):
            monkeypatch.setattr(module, "reduce_root_counts", counted("reduce", module.reduce_root_counts))
    monkeypatch.setattr(GroupSpec, "character_exponent", counted("exponent", GroupSpec.character_exponent))
    g = make_group(moduli)
    for x in sorted(g.gamma3()):
        want = {"reduce": 3, "exponent": 2 * len(eclass_of(g, x)) + len(atom_of(g, x))}
        for alpha in g.elements:
            calls.update(reduce=0, exponent=0)
            certificate(g, x, alpha)
            assert calls == want, (x, alpha)


def test_classify_examples():
    g = make_group([3, 3])
    r = classify(g, {(0, 1), (1, 0), (2, 0)})
    assert r.hs_verdict_characterization and r.hs_verdict_spectral
    assert r.eisenstein_verdict_spectral and r.consistency
    values = [as_integer(v) for v in r.hs_spectrum.values()]
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
                if cs.sym_part or not comb:
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


def conj(z):
    """Complex conjugate, the reference way: the coefficient of w^j moves to w^(N-j)."""
    cs = z.coeffs + (0,) * (z.order - len(z.coeffs))
    return CycloNum(z.order, cs[:1] + cs[:0:-1])


def eisenstein_components(cs, alpha):
    """The real pair (f, 3g) whose integrality, with 3 | 3g, decides
    Eisenstein integrality.

    f is the symmetric-part character sum; 3g weights the skew part with
    1 + w6^5 forward and 1 + w6 backward.  Three times the adjacency
    eigenvalue equals 3f + 3g + w3*(3g(alpha) - 3g(-alpha)).
    """
    g = cs.group
    q6 = g.root_order // 6
    f = character_sum(g, alpha, [(s, 0) for s in cs.sym_part])
    terms = []
    for s in cs.skew_part:
        terms += [(s, 0), (s, 5 * q6), (g.neg(s), 0), (g.neg(s), q6)]
    return f, character_sum(g, alpha, terms)


def test_eisenstein_components_examples():
    g = make_group([3, 3])
    cs = make_connection_set(g, {(0, 1), (1, 0), (2, 0)})
    f, g3 = eisenstein_components(cs, g.zero)
    assert f == 2 and g3 == 3

    sym = make_connection_set(make_group([12]), {(1,), (11,)})
    for alpha in sym.group.elements:
        f, g3 = eisenstein_components(sym, alpha)
        assert not any(g3.coeffs)
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
                f, g3 = eisenstein_components(cs, alpha)
                assert f == conj(f) and g3 == conj(g3)
                _, g3neg = eisenstein_components(cs, g.neg(alpha))
                lhs = a_eigenvalue(cs, alpha)
                assert 3 * lhs == 3 * f + g3 + w3 * (g3 - g3neg)


def test_oriented_integral_sets_have_integer_components():
    g = make_group([9])
    for cs in enumerate_hs_integral(g).sets:
        if cs.sym_part or not cs.members:
            continue
        for alpha in g.elements:
            f, g3 = eisenstein_components(cs, alpha)
            assert not any(f.coeffs)
            assert as_integer(g3) is not None and as_integer(g3) % 3 == 0


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


def test_sweep_sums_the_hs_spectrum_only_up_to_its_first_non_integral_alpha(monkeypatch):
    g = make_group([9])
    cs = make_connection_set(g, {(1,)})  # HS eigenvalue 1 at alpha = 0, not an integer at (1,)
    sums = []
    add = CycloNum.__add__
    monkeypatch.setattr(CycloNum, "__add__", lambda a, b: sums.append(1) or add(a, b))
    flags, hs, _ = _subset_flags(cs)
    assert hs is None and not flags.hs_spectral and len(sums) == 2
    sums.clear()
    kept, hs, _ = _subset_flags(cs, keep_hs=True)
    assert kept == flags and len(hs) == len(sums) == 9


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


def test_exhaustive_sweep_holds_no_list_of_masks(monkeypatch):
    """With the per-subset and certificate checks stubbed, an exhaustive
    sweep of Z_15 (16384 subsets) allocates almost nothing: its masks come
    from a range.  A list of them would take about 600 KB."""
    import tracemalloc

    import mixedcayley.integrality as integrality

    swept = []
    monkeypatch.setattr(integrality, "_check_masks", lambda moduli, masks: swept.append(len(masks)) or (0, []))
    monkeypatch.setattr(integrality, "_certificate_counterexamples", lambda group: [])
    g = make_group([15])
    verify_theorems(g, budget=2**14)  # warm the per-group caches first
    tracemalloc.start()
    try:
        report = verify_theorems(g, budget=2**14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.exhaustive and report.subsets_tested == swept[-1] == 2**14
    assert peak < 64 * 1024


# Run with the address space capped at 512 MiB, so that a sweep that builds
# its masks fails fast with MemoryError instead of filling the machine.
OVER_THE_CAP = """
import resource
from mixedcayley import make_group, verify_theorems
from mixedcayley.cli import run

resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
sweeps = {
    "exhaustive": lambda: verify_theorems(make_group([40])),
    "sampled": lambda: verify_theorems(make_group([64]), budget=1 << 40),
}
for name, sweep in sweeps.items():
    try:
        sweep()
    except ValueError as exc:
        print(name, exc)
print("cli", run(["verify", "--group", "40", "--budget", str(1 << 40)]))
"""

WORK_CAP = 400_000_000


def test_verify_refuses_a_sweep_over_the_cap():
    proc = subprocess.run(
        [sys.executable, "-c", OVER_THE_CAP],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    over = f"reduction terms exceed the verify bound of {WORK_CAP}; use a smaller budget"
    # no element of Z_40 or Z_64 has order divisible by 3, so there is no
    # certificate pass, and a subset costs at most 3n(n-1) exponents.  Each
    # exponent is charged 20 plus the mean row of the power table of
    # rad(N): 72 terms in 30 rows for N = 120, 8 in 6 for N = 192.
    z40 = (40 * 3 * 39 << 39) * (20 * 30 + 72) // 30
    z64 = (64 * 3 * 63 << 40) * (20 * 6 + 8) // 6
    assert proc.stdout.splitlines() == [
        f"exhaustive {z40} {over}",
        f"sampled {z64} {over}",
        "cli 1",
    ]
    assert proc.stderr == f"error: {z40} {over}\n"
    # a budget past the cap is fine when the exhaustive total is under it
    assert verify_theorems(make_group([9]), budget=1 << 40).subsets_tested == 256


PAST_THE_BOUND = """
from mixedcayley import make_group, verify_theorems
try:
    verify_theorems(make_group([4095]), budget=1)
except ValueError as exc:
    print(exc)
"""


def python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )


def test_verify_refuses_work_past_the_bound_within_seconds():
    """Z_4095 with budget 1 costs ~3*10^10 character exponents, nearly all in
    the certificate pass, so it must be refused before that pass starts."""
    over = f"6004289377332 reduction terms exceed the verify bound of {WORK_CAP}; use a smaller budget"
    library = python("-c", PAST_THE_BOUND)
    assert (library.returncode, library.stdout) == (0, over + "\n"), library.stderr
    cli = python("-m", "mixedcayley", "verify", "--group", "4095", "--budget", "1")
    assert (cli.returncode, cli.stdout, cli.stderr) == (1, "", f"error: {over}\n")
    # a certificate-heavy run and a default-budget sweep stay accepted
    for args, tested in ((["63", "--budget", "1"], 1), (["16"], 4096)):
        under = python("-m", "mixedcayley", "verify", "--group", *args)
        assert under.returncode == 0, under.stderr
        assert json.loads(under.stdout)["subsets_tested"] == tested


ODD_RESIDUES_1001 = ",".join(map(str, range(1, 1001, 2)))

CLASSIFY_PAST_THE_BOUND = """
from mixedcayley import classify, make_group
try:
    classify(make_group([1001]), [(s,) for s in range(1, 1001, 2)])
except ValueError as exc:
    print(exc)
"""


def test_classify_and_spectrum_refuse_work_past_the_bound_within_seconds():
    """The 500 odd residues of Z_1001 are all skew members.  classify forms
    1001 * (2*500 + 500) character exponents and ``spectrum --kind hs``
    1001 * (2*500).  N = 6006 is squarefree, and the 6006 rows of its power
    table hold 2637052 terms, so each exponent is charged (20*6006 +
    2637052) // 6006 terms, about 459.  Without the bound, this classify
    runs for over a minute."""
    over = f"689293000 reduction terms exceed the classify bound of {WORK_CAP}; use a smaller set"
    library = python("-c", CLASSIFY_PAST_THE_BOUND)
    assert (library.returncode, library.stdout) == (0, over + "\n"), library.stderr
    cli = python("-m", "mixedcayley", "classify", "--group", "1001", "--set", ODD_RESIDUES_1001)
    assert (cli.returncode, cli.stdout, cli.stderr) == (1, "", f"error: {over}\n")
    spectrum = python("-m", "mixedcayley", "spectrum", "--kind", "hs", "--group", "1001", "--set", ODD_RESIDUES_1001)
    over = f"459528666 reduction terms exceed the spectrum bound of {WORK_CAP}; use a smaller set"
    assert (spectrum.returncode, spectrum.stdout, spectrum.stderr) == (1, "", f"error: {over}\n")
    # the 8-member set on Z_2048 (about 10^6 terms) stays accepted: the
    # test in test_size_cap requires exit 0 and its exact output bytes
