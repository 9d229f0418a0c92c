#!/usr/bin/env python3
"""Reproduce the three worked 3x3 examples and print their reports.

Runs the oriented set {(0,1),(2,0)}, the mixed set {(0,1),(1,0),(2,0)},
and the Eisenstein view of the latter's adjacency spectrum.
"""

from __future__ import annotations

import sys

from mixedcayley import as_eisenstein, as_integer, classify, make_group
from mixedcayley.cli import format_element, format_set, run


def show(title: str, members) -> None:
    g = make_group([3, 3])
    report = classify(g, members)
    print(f"== {title} ==")
    code = run(["classify", "--group", "3x3", "--set", format_set(members, g)])
    if code:
        sys.exit(code)
    hs = [as_integer(v) for v in report.hs_spectrum.values()]
    print("HS eigenvalues (lex alpha order):", hs)
    print("adjacency eigenvalues as a + b*w3:")
    for alpha, value in report.a_spectrum.items():
        print(f"  alpha={format_element(alpha, g)}  (a,b)={as_eisenstein(value)}")
    print()


def main() -> None:
    show("oriented set {(0,1),(2,0)}", {(0, 1), (2, 0)})
    show("mixed set {(0,1),(1,0),(2,0)}", {(0, 1), (1, 0), (2, 0)})


if __name__ == "__main__":
    main()
