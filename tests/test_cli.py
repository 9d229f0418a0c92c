"""Command-line parsing, report serialization, exit codes, round-trips."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedcayley import enumerate_hs_integral, make_group, parse_group
import mixedcayley.cli as cli_mod
from mixedcayley.cli import (
    SetSpecError,
    _approx_text,
    _emit_json,
    _entry_text,
    classification_to_json,
    format_set,
    parse_set,
    run,
)
from mixedcayley.cyclo import CycloNum, root, totient
from mixedcayley.integrality import classify


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_set_bare_integers():
    g = make_group([12])
    assert parse_set("1,5", g) == {(1,), (5,)}
    assert parse_set(" 1 , 5 ", g) == {(1,), (5,)}
    assert parse_set("13", g) == {(1,)}  # reduced mod 12


def test_parse_set_tuples():
    g = make_group([3, 3])
    assert parse_set("(0,1),(2,0)", g) == {(0, 1), (2, 0)}
    assert parse_set("", g) == frozenset()
    assert parse_set("  ", g) == frozenset()


def test_parse_set_rejects_identity():
    g = make_group([5])
    with pytest.raises(SetSpecError):
        parse_set("0", g)
    g = make_group([3, 3])
    with pytest.raises(SetSpecError):
        parse_set("(3,3)", g)  # reduces to the identity


def test_parse_set_error_positions():
    g = make_group([3, 3])
    with pytest.raises(SetSpecError) as exc:
        parse_set("(0,1),(1)", g)
    assert exc.value.position == 6
    with pytest.raises(SetSpecError) as exc:
        parse_set("(0,1)x", g)
    assert exc.value.position == 5
    with pytest.raises(SetSpecError):
        parse_set("(0,1),", g)  # trailing comma
    with pytest.raises(SetSpecError):
        parse_set("1,2", g)  # bare integers need a cyclic group
    g5 = make_group([5])
    with pytest.raises(SetSpecError, match="expected an integer") as exc:
        parse_set("1, ²", g5)  # str.isdigit passes '²', int() does not
    assert exc.value.position == 3
    assert parse_set("\u0663", g5) == {(3,)}  # an Arabic-Indic digit int() reads


# recorded from the character-scanning parser this grammar replaced, except
# "1²": that parser read "1²" as one integer and failed at 0, while '²' is
# not a decimal digit, so the tokens are "1" and "²"
MALFORMED_SPECS = [
    ("12", "(1,2", True, 4, "expected ',' or ')' inside element tuple"),
    ("3x3", "()", True, 1, "expected an integer"),
    ("3x3", "((1))", True, 1, "expected an integer"),
    ("12", "+", True, 0, "expected an integer"),
    ("12", "1 2", True, 2, "expected ',' between elements"),
    ("12", "1-2", True, 1, "expected ',' between elements"),
    ("12", "1,5,", True, 4, "trailing comma"),
    ("12", " 1 ,  ", True, 6, "trailing comma"),
    ("12", "1, ,2", True, 3, "expected an integer"),
    ("3x3", "(1 2)", True, 3, "expected ',' or ')' inside element tuple"),
    ("3x3", "(1,2,0)", True, 0, "element has 3 coordinates, group needs 2"),
    ("3x3", "1", True, 0, "bare integers need a cyclic group, this one has 2 factors"),
    ("12", "13", False, 0, "coordinate 13 out of range [0, 12)"),
    ("3x3", "(1,-4)", False, 0, "coordinate -4 out of range [0, 3)"),
    ("3x3", "(0,1),(3,3)", True, 6, "the identity element cannot be a member"),
    ("12", "\u0663,x", True, 2, "expected an integer"),
    ("12", "1²", True, 1, "expected ',' between elements"),
]


@pytest.mark.parametrize("group, spec, reduce_coords, position, message", MALFORMED_SPECS)
def test_parse_set_rejects_malformed_specs(group, spec, reduce_coords, position, message):
    with pytest.raises(SetSpecError) as exc:
        parse_set(spec, parse_group(group), reduce_coords=reduce_coords)
    assert exc.value.position == position
    assert str(exc.value) == f"set spec error at position {position}: {message}"


def test_parse_set_strict_range():
    g = make_group([12])
    assert parse_set("13", g, reduce_coords=True) == {(1,)}
    with pytest.raises(SetSpecError):
        parse_set("13", g, reduce_coords=False)


def test_format_set_round_trip():
    g = make_group([3, 3])
    members = parse_set("(0,1),(2,0),(1,2)", g)
    assert parse_set(format_set(members, g), g) == members
    g = make_group([12])
    members = parse_set("1,5,11", g)
    assert format_set(members, g) == "1,5,11"


def entry_json(alpha, z) -> dict:
    """The spectrum entry that ``_entry_text`` renders, as a plain JSON value."""
    value = {"order": z.order, "coeffs": list(map(str, z.coeffs)), "approx": _approx_text(z)}
    return {"alpha": list(alpha), "value": value}


# a spectrum entry sits at depth 2 of the classify and spectrum documents
DEPTH_2 = "\n    "


def test_entry_text_format():
    payload = json.loads(_entry_text((0, 1), root(3, 1), DEPTH_2))
    assert payload["alpha"] == [0, 1]
    assert payload["value"]["order"] == 3
    assert payload["value"]["coeffs"] == ["0", "1"]
    assert payload["value"]["approx"] == "-0.500000000000+0.866025403784i"


def test_entry_text_writes_integers_as_decimal_digits():
    payload = json.loads(_entry_text((1,), CycloNum(3, (1, -4, 2)), DEPTH_2))  # w^2 = -1 - w
    assert payload["value"]["coeffs"] == ["-1", "-6"]
    payload = json.loads(_entry_text((1,), CycloNum(2, (-(10**30), 0)), DEPTH_2))
    assert payload["value"]["coeffs"] == ["-" + "1" + "0" * 30]


coefficients = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(10**40), 10**40),
)


@st.composite
def entry_values(draw):
    """Values at the benchmark's root orders, reduced or not: zero-heavy ones
    with a block and a few scattered slots set, or dense ones with every
    slot drawn."""
    order = draw(st.sampled_from((1, 6, 486, 768, 1506)))
    phi = totient(order)
    length = draw(st.one_of(st.sampled_from((0, phi, order)), st.integers(0, order)))
    if draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        bound = draw(st.sampled_from((9, 10**40)))
        return CycloNum(order, tuple(rng.randint(-bound, bound) for _ in range(length)))
    coeffs = [0] * length
    if length:
        start = draw(st.integers(0, length - 1))
        block = draw(st.lists(coefficients, max_size=min(24, length - start)))
        coeffs[start:start + len(block)] = block
        for j in draw(st.lists(st.integers(0, length - 1), max_size=6)):
            coeffs[j] = draw(coefficients)
    return CycloNum(order, tuple(coeffs))


alphas = st.lists(st.integers(0, 4095), min_size=1, max_size=3).map(tuple)


@given(alphas, entry_values())
@settings(max_examples=80, deadline=None)
def test_entry_text_matches_json_dumps_at_depth_2(alpha, z):
    """The rendered entry is the text json.dumps(indent=2) gives it at depth
    2, where every line after the first is indented four more spaces."""
    expected = json.dumps(entry_json(alpha, z), indent=2)
    assert _entry_text(alpha, z, DEPTH_2) == expected.replace("\n", DEPTH_2)
    assert _entry_text(alpha, z, "\n") == expected


def test_classification_json_schema():
    g = parse_group("3x3")
    report = classify(g, parse_set("(0,1),(1,0),(2,0)", g))
    payload = classification_to_json(report)
    assert set(payload) == {
        "group",
        "set",
        "hs_integral",
        "eisenstein_integral",
        "sym_atoms",
        "skew_classes",
        "hs_spectrum",
        "a_spectrum",
        "consistent",
    }
    assert payload["hs_integral"] is True
    assert payload["consistent"] is True
    assert len(list(payload["hs_spectrum"])) == 9


def test_cli_classify_json_and_exit_code():
    code, out, err = run_cli(
        "classify", "--group", "3x3", "--set", "(0,1),(1,0),(2,0)"
    )
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["hs_integral"] is True and payload["eisenstein_integral"] is True


def test_cli_classify_dot_and_text():
    code, out, _ = run_cli(
        "classify", "--group", "3x3", "--set", "(0,1)", "--format", "dot"
    )
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run_cli(
        "classify", "--group", "4", "--set", "1", "--format", "text"
    )
    assert code == 0 and "HS-integral (exact spectrum):   False" in out


def test_cli_input_errors_exit_1():
    code, _, err = run_cli("classify", "--group", "3y3", "--set", "1")
    assert code == 1 and "error" in err
    code, _, err = run_cli("classify", "--group", "5", "--set", "0")
    assert code == 1 and "position" in err
    code, _, err = run_cli("spectrum", "--group", "12", "--set", "13", "--no-reduce")
    assert code == 1


def test_run_sends_argparse_output_to_the_given_streams(capsys):
    code, out, err = run_cli("classify", "--group", "7", "--bogus")
    assert code == 1 and out == ""
    assert err.startswith("usage: mixedcayley ")
    assert "unrecognized arguments: --bogus" in err
    code, out, err = run_cli()
    assert code == 1 and out == ""
    assert "the following arguments are required: command" in err
    code, out, err = run_cli("--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: mixedcayley ") and "classify" in out
    assert capsys.readouterr() == ("", "")


def test_console_prints_argparse_output_to_the_process_streams():
    """``main()`` keeps its streams and exit codes for a usage error and --help."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli_mod.__file__).resolve().parents[1]))

    def console(*argv):
        return subprocess.run(
            [sys.executable, "-B", "-m", "mixedcayley", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    bad = console("classify", "--group", "7", "--bogus")
    assert bad.returncode == 1 and bad.stdout == ""
    assert "unrecognized arguments: --bogus" in bad.stderr
    helped = console("--help")
    assert helped.returncode == 0 and helped.stderr == ""
    assert helped.stdout.startswith("usage: mixedcayley ")


def test_cli_spectrum_json():
    code, out, _ = run_cli(
        "spectrum", "--group", "3x3", "--set", "(0,1),(1,0),(2,0)",
        "--kind", "adjacency",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "adjacency"
    assert len(payload["entries"]) == 9
    first = payload["entries"][0]
    assert first["alpha"] == [0, 0]
    assert first["value"]["approx"].startswith("3.0")


def test_cli_enumerate_round_trip():
    code, out, _ = run_cli("enumerate", "--group", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    g = parse_group("9")
    seen = set()
    for line in lines:
        payload = json.loads(line)
        members = parse_set(payload["spec"], g) if payload["spec"] else frozenset()
        assert members == frozenset(tuple(x) for x in payload["members"])
        seen.add(members)
    assert len(seen) == 16


def test_cli_enumerate_truncation_marker():
    code, out, _ = run_cli("enumerate", "--group", "9", "--budget", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    marker = json.loads(lines[-1])
    assert marker == {"truncated": True, "emitted": 3, "total": 16}


def test_cli_verify_schema_and_determinism():
    code, out1, _ = run_cli("verify", "--group", "9")
    assert code == 0
    payload = json.loads(out1)
    assert set(payload) == {
        "group", "subsets_tested", "hs_integral_count", "counterexamples", "seed",
        "exhaustive", "budget",
    }
    assert payload["subsets_tested"] == 256
    assert payload["hs_integral_count"] == 16
    assert payload["counterexamples"] == []
    _, out2, _ = run_cli("verify", "--group", "9")
    assert out1 == out2


def test_cli_verify_rejects_the_removed_jobs_flag():
    """A script still passing ``--jobs`` fails loudly instead of sweeping."""
    code, out, err = run_cli("verify", "--group", "9", "--jobs", "2")
    assert code == 1 and out == ""
    assert err.startswith("usage: mixedcayley ")
    assert "unrecognized arguments: --jobs 2" in err


@pytest.mark.parametrize(
    "argv, exhaustive, budget, tested",
    [
        (("verify", "--group", "9"), True, 4096, 256),
        (("verify", "--group", "12", "--budget", "8"), False, 8, 8),
    ],
    ids=["exhaustive", "sampled"],
)
def test_cli_verify_says_whether_it_sampled(argv, exhaustive, budget, tested):
    code, out, _ = run_cli(*argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["exhaustive"] is exhaustive
    assert payload["budget"] == budget
    assert payload["subsets_tested"] == tested


# the ids keep each case's name from when the two deleted --jobs cases were argv2 and argv3
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("verify", "--group", "9", "--budget", "0"), id="argv0"),
        pytest.param(("verify", "--group", "9", "--budget", "-1"), id="argv1"),
        pytest.param(("enumerate", "--group", "9", "--budget", "-1"), id="argv4"),
    ],
)
def test_cli_rejects_vacuous_and_invalid_inputs(argv):
    code, out, err = run_cli(*argv)
    assert code == 1 and not out
    assert err.startswith("error: ")


def test_cli_atoms_listing():
    code, out, _ = run_cli("atoms", "--group", "12")
    assert code == 0
    payload = json.loads(out)
    reps = [tuple(e["rep"]) for e in payload["atoms"]]
    assert reps == [(0,), (1,), (2,), (3,), (4,), (6,)]
    by_rep = {tuple(e["rep"]): e for e in payload["atoms"]}
    assert [tuple(x) for x in by_rep[(1,)]["members"]] == [(1,), (5,), (7,), (11,)]
    assert "skew_classes" in by_rep[(1,)]
    assert "skew_classes" not in by_rep[(3,)]


def test_cli_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        "classify", "--group", "4", "--set", "2", "--out", str(target)
    )
    assert code == 0 and not out
    payload = json.loads(target.read_text())
    assert payload["hs_integral"] is True


@pytest.mark.parametrize("where", ["directory", "missing_parent", "empty"])
def test_cli_unwritable_out_exits_1(tmp_path, where):
    # only a missing --out means stdout; "" is what an unset shell variable gives
    target = {
        "directory": tmp_path,
        "missing_parent": tmp_path / "missing" / "report.json",
        "empty": "",
    }[where]
    code, out, err = run_cli(
        "classify", "--group", "4", "--set", "2", "--out", str(target)
    )
    assert code == 1
    assert err.startswith(f"error: cannot write {target}: ")
    assert not out


def test_cli_write_error_on_stdout_is_not_bad_input():
    class BrokenStream(io.StringIO):
        def write(self, text):
            raise BrokenPipeError("stdout closed")

    with pytest.raises(BrokenPipeError):
        run(
            ["classify", "--group", "4", "--set", "2"],
            stdout=BrokenStream(),
            stderr=io.StringIO(),
        )


def test_console_exits_141_in_silence_when_the_reader_closes_early():
    """``mixedcayley classify ... | head -c 20``: no traceback, not exit 1."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli_mod.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mixedcayley", "classify", "--group", "256", "--set", "1,2,3,5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()  # the JSON is far longer than a pipe buffer
        stderr = proc.stderr.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 141
    assert stderr == b""


def test_cli_exit_2_on_inconsistency(monkeypatch):
    import dataclasses

    import mixedcayley.cli as cli_mod

    real_classify = cli_mod.classify

    def broken_classify(group, members):
        report = real_classify(group, members)
        return dataclasses.replace(report, consistency=False)

    monkeypatch.setattr(cli_mod, "classify", broken_classify)
    code, out, _ = run_cli("classify", "--group", "4", "--set", "2")
    assert code == 2
    assert json.loads(out)["consistent"] is False


def test_verify_subset_counterexample_records(monkeypatch):
    """With the skew-family test broken, each of the 16 HS-integral sets of
    Z_9 is a counterexample, reported in mask order with every route flag."""
    import mixedcayley.integrality as integrality

    monkeypatch.setattr(integrality, "in_skew_family", lambda group, members: None)
    code, out, _ = run_cli("verify", "--group", "9")
    assert code == 2
    payload = json.loads(out)
    assert payload["hs_integral_count"] == 16
    records = payload["counterexamples"]
    assert len(records) == 16
    assert records[0] == {
        "kind": "subset",
        "set": [],
        "hs_characterization": False,
        "hs_spectral": True,
        "eisenstein_spectral": True,
        "sym_part_integral": True,
        "skew_part_hs_integral": True,
    }
    for record in records:
        assert list(record) == [
            "kind", "set", "hs_characterization", "hs_spectral",
            "eisenstein_spectral", "sym_part_integral", "skew_part_hs_integral",
        ]
        assert list(record.values())[2:] == [False, True, True, True, True]
    # bit i of a mask is the element i + 1 of Z_9
    masks = [sum(1 << (x - 1) for [x] in record["set"]) for record in records]
    assert masks == sorted(masks)
    hs_sets = {frozenset(cs.members) for cs in enumerate_hs_integral(make_group([9])).sets}
    assert {frozenset(tuple(x) for x in record["set"]) for record in records} == hs_sets


def test_classify_fails_on_every_set_verify_records(monkeypatch):
    """A split fault: simple-part values gain w3 and skew-part values lose it,
    so every HS value is kept and only the check that the HS verdict is that
    of the two parts sees the fault.  classify and verify judge a set by the
    same predicate, so the set {3, 6} fails both."""
    import mixedcayley.integrality as integrality

    real_spectrum = integrality.exact_spectrum
    shifts = {"simple_part": 1, "skew_part": -1}

    def split_fault(cs, kind):
        spectrum = real_spectrum(cs, kind)
        n = cs.group.root_order
        shift = shifts.get(kind, 0) * root(n, n // 3)
        return {alpha: value + shift for alpha, value in spectrum.items()}

    monkeypatch.setattr(integrality, "exact_spectrum", split_fault)
    code, out, _ = run_cli("classify", "--group", "9", "--set", "3,6")
    assert code == 2
    payload = json.loads(out)
    assert payload["hs_integral"] is True and payload["consistent"] is False
    code, out, _ = run_cli("classify", "--group", "9", "--set", "3,6", "--format", "text")
    assert code == 2 and "  consistent: False\n" in out
    code, out, _ = run_cli("verify", "--group", "9")
    assert code == 2
    records = json.loads(out)["counterexamples"]
    assert {"kind": "subset", "set": [[3], [6]], "hs_characterization": True, "hs_spectral": True,
            "eisenstein_spectral": True, "sym_part_integral": False,
            "skew_part_hs_integral": False} in records
    # every set verify records is one classify fails on
    for record in records:
        spec = ",".join(str(x) for [x] in record["set"])
        assert run_cli("classify", "--group", "9", "--set", spec)[0] == 2, spec


def test_verify_certificate_counterexample_record(monkeypatch):
    import mixedcayley.integrality as integrality

    real_certificate = integrality.certificate

    def broken_certificate(group, x, alpha):
        if (x, alpha) == ((1,), (2,)):
            raise integrality.ConsistencyError("planted failure")
        return real_certificate(group, x, alpha)

    monkeypatch.setattr(integrality, "certificate", broken_certificate)
    code, out, _ = run_cli("verify", "--group", "9")
    assert code == 2
    assert json.loads(out)["counterexamples"] == [
        {"kind": "certificate", "x": [1], "alpha": [2], "error": "planted failure"}
    ]


# sha256 of stdout for commands covering every JSON writer and both
# spectrum formats; output is byte-stable, so any changed byte fails here
GOLDEN_STDOUT = [
    (("classify", "--group", "243", "--set", "35,47,125,208"),
     "fec1b2faca9915e7689b21a8b2f0e199d69b0479a31c48951b7a1dcc91a14dc8"),
    (("classify", "--group", "256", "--set", "22,60,69,96,162,187,196,200"),
     "2c12c4098ac58e83fe3b019cf2a80406258c6a20ac185f58ebe8c74eabd8eae8"),
    (("classify", "--group", "251", "--set", "8,46,146,243,245"),
     "9b23125619cb856361e18dbead3f9d8bdffc5a4cf4389878093cbc552db23fb1"),
    (("classify", "--group", "3x3", "--set", "(0,1),(2,0)"),
     "502810106bafb2a4a5cf066238676c6f7d50e32f9d215f78a8a8ff714c3070ee"),
    (("classify", "--group", "3x3", "--set", "(0,1),(1,0),(2,0)"),
     "628b1a21357919bba1253ba0fc22e36fcd95bef1e6fc3c44dc033096368c05d9"),
    (("spectrum", "--group", "3x3", "--set", "(0,1),(1,0),(2,0)", "--kind", "adjacency"),
     "820b2b88dddf5eeaf3b09b6af2bf5901bb93183764d3de7fe59a72b40fac23e4"),
    (("classify", "--group", "36", "--set", "6,10,16,26,27,29"),
     "00abfabe82e2576720b8930bf1862c5e5e5966913ffa5670dcb81d2e06454a24"),
    (("classify", "--group", "2x2x9", "--set", "(0,0,1),(0,0,8),(1,0,3),(0,1,6),(1,1,2)"),
     "4395fb35c7fd158aa7272433304ca06b6f3e6d7a63679439107be3c41cace653"),
    (("spectrum", "--group", "1024", "--set", "180,329,450,574,676,764,844,910"),
     "8dae6d3b7e06a4e6524b8198f719054cebfbc845cfde8c1a6b371814ecb22ea8"),
    (("spectrum", "--group", "1024", "--set", "180,329,450,574,676,764,844,910",
      "--format", "text"),
     "ae380c2da56e675acd1935c18630d8d46c1440354d0490a8858a4c71437b53df"),
    (("verify", "--group", "2x6"),
     "92b11fe310b34947ad52accd48510d57f4adb79f9b0a1c87e703e245fe6775d4"),
    (("atoms", "--group", "12"),
     "7efbc56c082ecc8ff673ac7965b84e6991b7b593cb48a47a6dfcfba99dcea7b5"),
    (("enumerate", "--group", "2x2x2x2", "--budget", "50"),
     "7507c14aa2ac8159cb60df75033243721deb5e7e47134e65910224a0df90ce96"),
    (("enumerate", "--group", "2x2x2x2", "--budget", "0"),
     "c28e9b6892b9fbc0d1a38ea5425ea09584a6ce324c413c32bb920d017c41a918"),
    # groups with skew classes, so the per-atom choice and class order is pinned
    (("enumerate", "--group", "9"),
     "7c07514a5a607d18bb9317757562ccd9020d52b2892f4c62688ad2919f685638"),
    (("enumerate", "--group", "3x3", "--budget", "40"),
     "15eb325b745d71a8071c1755bac811794c08e787aa1372d468ddd8cafded92e8"),
    (("atoms", "--group", "3x3x3", "--format", "text"),
     "97d174e91466c5afd178527b163f2b3f3f8fff0cd702a808e83205f45fc9c726"),
    # a sampled sweep: 64 of the 2048 subsets of Z_12, drawn with seed 3
    (("verify", "--group", "12", "--budget", "64", "--seed", "3"),
     "7e0337441384c2b490fdf837cd19d8de8f40102422ce3e96cf7460a70b34d4a3"),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN_STDOUT, ids=[" ".join(a[:3]) for a, _ in GOLDEN_STDOUT]
)
def test_cli_stdout_matches_golden_digest(argv, digest):
    code, out, err = run_cli(*argv)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of classify's DOT and text output, which no JSON digest covers
GOLDEN_DOT_AND_TEXT = [
    (("classify", "--group", "3x3", "--set", "(0,1),(1,0),(2,0)", "--format", "dot"),
     "ad117ead76f6b2956f62173e19806dbe24bec99a20bea9791919b3a46e5417aa"),
    (("classify", "--group", "9", "--set", "1,3,8", "--format", "dot"),
     "948c8bbc2193c3a0861e4a77f9bf96378baaf5c068b273bd363a319e5d81d2bc"),
    # members given out of order, both parts with more than one member
    (("classify", "--group", "64", "--set", "63,20,9,5,1", "--format", "dot"),
     "e2aebb4a2240d60b732a5862a1baea66b76aebba2d1aa08806b8126210dd5e5b"),
    (("classify", "--group", "3x3", "--set", "(0,1),(1,0),(2,0)", "--format", "text"),
     "502aa6b1e798f4413816f317b17c3358b9a3f35c3464a5b197c3e5f724a2b392"),
    (("classify", "--group", "36", "--set", "6,10,16,26,27,29", "--format", "text"),
     "0d2e76616e81c3a99799de676c21e2935b33ab06ffbd561087af28c22d19863b"),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN_DOT_AND_TEXT, ids=[f"{a[2]} {a[-1]}" for a, _ in GOLDEN_DOT_AND_TEXT]
)
def test_classify_dot_and_text_match_golden_digest(argv, digest):
    code, out, err = run_cli(*argv)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


json_text = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
        st.characters(),
    ),
    max_size=12,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | json_text,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(json_text, inner, max_size=5),
    max_leaves=30,
)


class Pairs(list):
    """The ``(alpha, value)`` pairs of one spectrum in a drawn document."""


spectra = st.lists(st.tuples(alphas, entry_values()), max_size=3).map(Pairs)
documents = st.dictionaries(json_text, st.one_of(json_values, spectra), max_size=5)


def emitted_lazily(doc):
    """Write ``doc`` with every spectrum a one-shot iterator.  Returns the
    writes, the document json.dumps should match (every spectrum a list of
    entries), and for each drawn entry the writes made while it was current
    together with its expected text."""
    stream = RecordingStream()
    drawn = []

    def lazy(pairs):
        for alpha, z in pairs:
            before = len(stream.writes)
            yield alpha, z
            drawn.append((stream.writes[before:], _entry_text(alpha, z, DEPTH_2)))

    lazy_doc = {k: lazy(v) if isinstance(v, Pairs) else v for k, v in doc.items()}
    eager = {k: [entry_json(*p) for p in v] if isinstance(v, Pairs) else v for k, v in doc.items()}
    _emit_json(lazy_doc, None, stream)
    return stream.writes, eager, drawn


@given(documents)
@example({})
@example({"entries": Pairs()})
@settings(max_examples=150, deadline=None)
def test_dump_json_matches_json_dumps_indent_2(doc):
    """A document whose spectra are one-shot iterators is written as the text
    json.dumps(indent=2) makes of it with every spectrum a list of entries."""
    writes, eager, _ = emitted_lazily(doc)
    assert "".join(writes) == json.dumps(eager, indent=2) + "\n"


@given(documents)
@settings(max_examples=150, deadline=None)
def test_streamed_json_matches_dump_json(doc):
    """Every spectrum entry is drawn once and arrives in its own write, made
    before the next entry is drawn."""
    _, _, drawn = emitted_lazily(doc)
    assert len(drawn) == sum(len(v) for v in doc.values() if isinstance(v, Pairs))
    for writes, text in drawn:
        assert len(writes) == 1 and writes[0].endswith(text)


def test_emit_json_edge_cases():
    for doc in (
        {},
        {"entries": Pairs()},
        {"a": {}, "b": [], "c": [[]], "d": ()},
        {"multi\nline": "a\nb\r\u2028", "big": -(2**100)},
    ):
        writes, eager, _ = emitted_lazily(doc)
        assert "".join(writes) == json.dumps(eager, indent=2) + "\n"
    # only a top-level iterator is a spectrum; the rest is json.dumps's to refuse
    for bad in ({"a": {1, 2}}, {"a": [iter(())]}, {"a": {"b": iter(())}}):
        with pytest.raises(TypeError):
            _emit_json(bad, None, io.StringIO())


# -- streamed output: classify and spectrum write one alpha entry at a
# time, spectrum text one line per alpha, enumerate one line per set

STREAMED = [
    ("classify", "--group", "251", "--set", "8,46,146,243,245"),
    ("spectrum", "--group", "251", "--set", "8,46,146,243,245", "--kind", "adjacency"),
    ("classify", "--group", "2x2x9", "--set", "(0,0,1),(0,0,8),(1,0,3),(0,1,6),(1,1,2)"),
    ("spectrum", "--group", "2x2x9", "--set", "(0,0,1),(0,0,8),(1,0,3),(0,1,6),(1,1,2)"),
    ("spectrum", "--group", "251", "--set", "8,46,146,243,245", "--format", "text"),
    ("enumerate", "--group", "2x2x2x2", "--budget", "50"),
    ("enumerate", "--group", "2x2x2x2", "--budget", "0"),
]


def _streamed_id(argv):
    """The command and group, plus the option that tells a case apart from
    an earlier one with the same command and group."""
    base = " ".join(argv[:3])
    if "--format" in argv:
        return base + " --format " + argv[argv.index("--format") + 1]
    if "--budget" in argv:
        return base + " --budget " + argv[argv.index("--budget") + 1]
    return base


@pytest.mark.parametrize("argv", STREAMED, ids=[_streamed_id(a) for a in STREAMED])
def test_out_file_gets_the_same_bytes_as_stdout(argv, tmp_path):
    target = tmp_path / "out.json"
    code, out, err = run_cli(*argv)
    assert code == 0 and not err
    code, empty, err = run_cli(*argv, "--out", str(target))
    assert code == 0 and not empty and not err
    assert target.read_bytes() == out.encode()


class RecordingStream:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_classify_json_reaches_the_stream_in_several_writes():
    argv, digest = GOLDEN_STDOUT[0]
    assert argv[:3] == ("classify", "--group", "243")
    stream = RecordingStream()
    assert run(list(argv), stdout=stream, stderr=io.StringIO()) == 0
    assert len(stream.writes) > 1
    assert hashlib.sha256("".join(stream.writes).encode()).hexdigest() == digest


LINE_STREAMED = [
    ("spectrum", "--group", "1024", "--set", "180,329,450,574,676,764,844,910",
     "--format", "text"),
    ("enumerate", "--group", "2x2x2x2", "--budget", "50"),
]


@pytest.mark.parametrize("argv", LINE_STREAMED, ids=[a[0] for a in LINE_STREAMED])
def test_line_output_reaches_the_stream_in_several_writes(argv):
    digest = dict(GOLDEN_STDOUT)[argv]
    stream = RecordingStream()
    assert run(list(argv), stdout=stream, stderr=io.StringIO()) == 0
    assert len(stream.writes) > 1
    assert hashlib.sha256("".join(stream.writes).encode()).hexdigest() == digest
