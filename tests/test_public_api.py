"""The public surface: the README's library example and CLI examples
run, and every name in ``mixedcayley.__all__`` resolves and is used by
the package, its scripts, its benchmark or that example."""

from __future__ import annotations

import ast
import io
import re
import shlex
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
