#!/usr/bin/env python3
"""Survey twisted Whitehead patterns P(a,b) and certify one family.

First prints a small (a, b) grid of double-branched-cover data: the
cover is always cyclic of order |4ab - 1|, the axis lifts generate, and
the self-linking of the generator determines the character values the
obstruction sum feeds on.  Then picks one pattern and runs the full
linear-independence certification for a geometric family of multiples
of the mirror trefoil, timing each stage.

Example:
    python3 scripts/demo_whitehead.py --grid 3 --a 1 --b 1 --count 3
"""

import argparse
import json
import sys
import time

import knotcert as kc
from knotcert.cli import report_error
from knotcert.knots import parse_knot


def survey(grid):
    print(f"P(a,b) covers for 1 <= |a|,|b| <= {grid}:")
    print(f"  {'a':>3} {'b':>3} {'order':>6} {'v1':>4} {'lk(g,g)':>8}")
    for a in range(-grid, grid + 1):
        for b in range(-grid, grid + 1):
            if a == 0 or b == 0:
                continue
            pc = kc.whitehead_cover(a, b)
            assert pc.group.order == abs(4 * a * b - 1)
            assert pc.winding_number == 0
            print(f"  {a:>3} {b:>3} {pc.group.order:>6} "
                  f"{pc.v1_class[0]:>4} {str(pc.linking_matrix[0][0]):>8}")
    print()


def certify_family(a, b, count, budget, per_side_cap, mode):
    pattern = kc.whitehead_cover(a, b)
    n = pattern.group.order
    multiples = [1]
    while len(multiples) < count:
        # keep sigma_{j/n} ranges disjoint between consecutive members
        multiples.append(multiples[-1] * (n - 1) + 1)
    family = [parse_knot(f"{m}*mirror(torus(2,3))") for m in multiples]
    print(f"certifying P({a},{b}) (cover Z_{n}) on multiples {multiples}, "
          f"mode {mode}, budget {budget}, per-side cap {per_side_cap}")

    t0 = time.perf_counter()
    cert = kc.certify_independence(
        pattern, kc.CGProfile.zero(), family,
        budget=budget, mode=mode, per_side_cap=per_side_cap,
    )
    t_cert = time.perf_counter() - t0
    data = cert.to_json_dict()
    print(f"  certified in {t_cert:.2f}s: {len(data['combos'])} combinations "
          f"obstructed, selection {data['selection']['indices']}")

    t0 = time.perf_counter()
    ok, problems = kc.verify_certificate(json.loads(json.dumps(data)))
    t_ver = time.perf_counter() - t0
    print(f"  re-verified in {t_ver:.2f}s: {'ok' if ok else problems}")
    return data, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=2,
                    help="survey |a|,|b| up to this bound")
    ap.add_argument("--a", type=int, default=1)
    ap.add_argument("--b", type=int, default=1)
    ap.add_argument("--count", type=int, default=3, help="family size")
    ap.add_argument("--budget", type=int, default=6)
    ap.add_argument("--per-side-cap", type=int, default=3)
    ap.add_argument("--mode", choices=("ordering", "exhaustive"),
                    default="exhaustive")
    ap.add_argument("--output", help="write the certificate JSON here")
    args = ap.parse_args()

    try:
        survey(args.grid)
        data, ok = certify_family(args.a, args.b, args.count, args.budget,
                                  args.per_side_cap, args.mode)
    except (kc.KnotcertError, MemoryError) as ex:
        # the CLI's error: line and exit code (2 hypothesis, 3 budget)
        return report_error(ex)
    if not ok:
        return 1
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(data, fh, sort_keys=True, indent=2)
        print(f"  certificate written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
