#!/usr/bin/env python3
"""Exhaustive verification sweeps over a configurable list of groups.

Prints one JSON line per group and exits 2 if any sweep finds a
counterexample to the integrality equivalences, or if an exhaustive
sweep's ``hs_integral_count`` differs from ``enumerated_total``, the
number of sets the constructive enumeration gives.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from mixedcayley import enumerate_hs_integral, parse_group, verify_theorems
from mixedcayley.cli import verification_to_json

DEFAULT_GROUPS = ["6", "9", "3x3", "12", "2x6"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("groups", nargs="*", default=DEFAULT_GROUPS)
    parser.add_argument("--budget", type=int, default=None, help="sample size cap")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    failed = False
    for spec in args.groups:
        group = parse_group(spec)
        start = time.perf_counter()
        report = verify_theorems(group, budget=args.budget, seed=args.seed)
        payload = verification_to_json(report)
        payload["enumerated_total"] = enumerate_hs_integral(group).total
        payload["seconds"] = round(time.perf_counter() - start, 3)
        print(json.dumps(payload))
        miscounted = report.exhaustive and report.hs_integral_count != payload["enumerated_total"]
        if miscounted:
            print(f"{spec}: the sweep found {report.hs_integral_count} HS-integral sets, "
                  f"the enumeration {payload['enumerated_total']}", file=sys.stderr)
        if report.counterexamples or miscounted:
            failed = True
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
