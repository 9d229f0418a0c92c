"""The public surface: the README's library example runs, and every name
in ``mixedcayley.__all__`` resolves and is used by the package, its
scripts, its benchmark or that example."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import mixedcayley

REPO = Path(__file__).resolve().parent.parent


def library_example() -> str:
    """The Python block under the README's ``## Library`` heading."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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


def test_every_export_resolves():
    missing = [name for name in mixedcayley.__all__ if not hasattr(mixedcayley, name)]
    assert missing == []


def test_every_export_has_a_use():
    used = used_names() | set(re.findall(r"\w+", library_example()))
    assert [name for name in mixedcayley.__all__ if name not in used] == []
