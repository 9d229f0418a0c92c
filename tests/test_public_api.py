"""The public surface: the README's library example and CLI examples
run, every name in ``mixedcayley.__all__`` resolves and is used by
the package, its scripts, its benchmark or that example, and only the
numeric oracle loads numpy."""

from __future__ import annotations

import ast
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mixedcayley
from mixedcayley.cli import run

REPO = Path(__file__).resolve().parent.parent


def library_example() -> str:
    """The Python block under the README's ``## Library`` heading."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def cli_examples() -> list[str]:
    """The ``mixedcayley`` command lines of the sh block under ``## CLI``."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("mixedcayley ")]
    assert lines, "the README CLI block has no mixedcayley command"
    return lines


def used_names() -> set[str]:
    """Names read, attributes read and names imported in the package
    modules other than ``__init__.py``, in ``scripts`` and in ``bench``."""
    package = REPO / "src" / "mixedcayley"
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += [*(REPO / "scripts").glob("*.py"), *(REPO / "bench").glob("*.py")]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_readme_library_example_runs():
    exec(compile(library_example(), "README.md", "exec"), {})


@pytest.mark.parametrize("line", cli_examples())
def test_readme_cli_example_runs(line):
    out, err = io.StringIO(), io.StringIO()
    assert run(shlex.split(line)[1:], stdout=out, stderr=err) == 0, err.getvalue()
    assert out.getvalue() and not err.getvalue()


def test_every_export_resolves():
    missing = [name for name in mixedcayley.__all__ if not hasattr(mixedcayley, name)]
    assert missing == []


def test_every_export_has_a_use():
    used = used_names() | set(re.findall(r"\w+", library_example()))
    assert [name for name in mixedcayley.__all__ if name not in used] == []


NUMPY_GUARD_CHILD = """
import io, json, sys
import mixedcayley, mixedcayley.cli
from mixedcayley import (
    build_matrices, certificate, classify, make_connection_set, make_group,
    numeric_hermitian_eigenvalues, verify_theorems,
)
codes = {}
for argv in (
    ["classify", "--group", "7", "--set", "1,6,2"],
    ["classify", "--group", "7", "--set", "1,6,2", "--format", "text"],
    ["classify", "--group", "7", "--set", "1,6,2", "--format", "dot"],
    ["spectrum", "--group", "3x3", "--set", "(0,1),(2,0)"],
    ["atoms", "--group", "12"],
    ["enumerate", "--group", "9"],
    ["verify", "--group", "9"],
):
    codes[" ".join(argv)] = mixedcayley.cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())
g = make_group([9])
classify(g, {(1,), (3,)})
verify_theorems(g, budget=64)
certificate(g, (3,), (1,))
before = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
z3 = make_connection_set(make_group([3]), {(1,)})
values = numeric_hermitian_eigenvalues(build_matrices(z3))
print(json.dumps({"codes": codes, "before": before, "values": values, "after": "numpy" in sys.modules}))
"""


def test_only_the_numeric_oracle_loads_numpy():
    """Import, every subcommand and the exact library routes run without
    numpy; the first oracle call loads it and gives the Z_3 {1} spectrum."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", NUMPY_GUARD_CHILD],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert set(report["codes"].values()) == {0}, report["codes"]
    assert report["before"] == []
    assert report["values"] == pytest.approx([-2.0, 1.0, 1.0], abs=1e-9)
    assert report["after"]
