"""The univariate spot check against the former block-rank route and
against ``is_observable``.

    python tools/prop3_crosscheck.py [--ops N]

For every ``observable`` code among the first N seed-0 ``small-mix``
benchmark ops (default: the benchmark's whole pool), and every degree
bound that ``check_prop3_bound`` admits for the code's prime, compares
``convres.observability.prop3_spot_check`` with two routes of
``tests/helpers.py``: ``reference_block_rank_spot_check``, the code's
reduced Groebner basis ranked modulo every monic irreducible of a
product sieve, and ``observability_route``: for n = 1, S^q/C is torsion
free exactly when Delta is a unit, so an observable code passes at every
bound and any other fails at every bound from the degree of its
witness's multiplier on.  Prints the number of (code, bound) pairs, of
observable and other codes the second route decides, and every
disagreement; the exit status is 1 when there is one.  The whole pool
takes a few minutes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _path in ("src", "tests", "bench", "tools"):
    sys.path.insert(0, str(ROOT / _path))

import workloads  # noqa: E402
from convres.cli import parse_input  # noqa: E402
from convres.errors import InputError  # noqa: E402
from convres.observability import check_prop3_bound, prop3_spot_check  # noqa: E402
from helpers import observability_route, reference_block_rank_spot_check  # noqa: E402
from report_digest import POOL_SIZE  # noqa: E402


def admissible_bounds(p: int) -> range:
    """The degree bounds ``check_prop3_bound`` admits over F_p."""
    bound = 1
    try:
        while True:
            check_prop3_bound(p, 1, bound)
            bound += 1
    except InputError:
        return range(1, bound)


def crosscheck(ops: int):
    """(pairs, observable, torsion, disagreements) over the observable codes
    of the first ``ops`` seed-0 small-mix ops: the (code, bound) pairs
    compared with the block ranks, the observable and the other codes that
    ``observability_route`` decides at some bound, and each disagreement
    as (route, op index, bound, spot check verdict)."""
    pairs, decided, disagreements = 0, [0, 0], []
    for index, (cmd, _, text) in enumerate(workloads.generate("small-mix", 0, ops)):
        if cmd != "observable":
            continue
        code = parse_input(text).code
        bounds = admissible_bounds(code.ring.p)
        for bound in bounds:
            verdict = prop3_spot_check(code, bound)
            pairs += 1
            if verdict != reference_block_rank_spot_check(code, bound):
                disagreements.append(("block ranks", index, bound, verdict))
        observable, checked, wrong = observability_route(code, bounds)
        decided[observable] += bool(checked)
        disagreements += [("observability", index, bound, not observable) for bound in wrong]
    return pairs, decided[True], decided[False], disagreements


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", type=int, default=POOL_SIZE["small-mix"],
                        help="how many of the pool's first ops to read")
    args = parser.parse_args(argv)
    pairs, observable, torsion, disagreements = crosscheck(args.ops)
    for route, index, bound, verdict in disagreements:
        print(f"op {index} bound {bound}: spot check {verdict}, {route} {not verdict}")
    print(f"{pairs} (code, bound) pairs against the block ranks; {observable} observable "
          f"and {torsion} other codes against observability; {len(disagreements)} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
