"""Output checks for benchmark ops, run outside the timed region.

Every check goes through a route independent of the code under test:
the degree-truncated linear algebra of ``convres.oracle`` and plain
arithmetic written here.  The engine's own verdicts
(``check_resolution``, ``check_reduced``, ...) are never consulted.

The oracle spans generator shifts up to a degree cap, so at any cap it
sees a subspace of the true degree slice and can only undercount.  Its
default cap (``d + 2 * max generator degree``, raised while the
dimension moves) stops too early on a few codes.  Where it falls short
of a claimed value, the check asks again with a larger cap and records
a note, so that shortfall shows without failing a right answer.
"""

from __future__ import annotations

from math import comb

import numpy as np

# Largest d at which Hilbert values and kernels are compared with the oracle.
HILBERT_CHECK_D = {"resolve-n3": 4, "oracle-n2": 0, "small-mix": 3}
PD_WINDOW = range(7)


def hilbert_from_table(table, n: int, d: int) -> int:
    """dim C_{<=d} from a degree table by the alternating binomial sum."""
    total = 0
    for level, degrees in enumerate(table):
        sign = 1 if level % 2 == 0 else -1
        total += sign * sum(comb(d - a + n, n) for a in degrees if d >= a)
    return total


def _large_cap(code, d: int) -> int:
    return d + 4 * max(1, max(code.generators.column_degrees()))


def _code_dims(code, top: int, claimed):
    """Oracle dims of the code slices for d <= top, and a note or None."""
    from convres import oracle

    dims = [oracle.hilbert_oracle(code, d) for d in range(top + 1)]
    if dims == claimed:
        return dims, None
    larger = [oracle.truncated_code_space(code, d, _large_cap(code, d)).dimension
              for d in range(top + 1)]
    if larger != dims:
        return larger, f"hilbert_oracle undercounts at its default cap: {dims} < {larger}"
    return dims, None


def _rank(vectors, p: int) -> int:
    """Rank over F_p of sparse vectors given as ``{key: coefficient}``."""
    from convres.oracle import rref_mod_p

    keys = sorted({k for v in vectors for k in v})
    if not keys:
        return 0
    index = {k: i for i, k in enumerate(keys)}
    mat = np.zeros((len(vectors), len(keys)), dtype=np.int64)
    for r, v in enumerate(vectors):
        for k, c in v.items():
            mat[r, index[k]] = c
    return len(rref_mod_p(mat, p)[1])


def _sparse(elem) -> dict:
    return {(pos, e): c for pos, f in enumerate(elem) for e, c in f.terms}


def _in_code(code, elem) -> bool:
    """Membership by rank in the oracle's degree slice, at a large cap."""
    from convres.oracle import truncated_code_space

    d = max(int(f.degree) for f in elem if not f.is_zero)
    basis = [_sparse(b) for b in truncated_code_space(code, d, _large_cap(code, d)).basis]
    return _rank(basis + [_sparse(elem)], code.ring.p) == _rank(basis, code.ring.p)


def check_op(workload: str, cmd: str, options: dict, text: str, report: dict):
    """Check one report; returns (reason it is wrong or None, note or None)."""
    from convres import oracle
    from convres.algebra import PolyMatrix, parse_poly
    from convres.cli import parse_input

    doc = parse_input(text)
    top = HILBERT_CHECK_D[workload]
    if cmd in ("resolve", "hilbert"):
        if cmd == "resolve":
            table = report["degree_table"]
            wanted = options["hilbert_max"]
            if wanted is not None and report["hilbert"] != [
                    hilbert_from_table(table, doc.n, d) for d in range(wanted + 1)]:
                return "hilbert list disagrees with the degree table", None
            claimed = [hilbert_from_table(table, doc.n, d) for d in range(top + 1)]
        else:
            claimed = report["values"][:top + 1]
        truth, note = _code_dims(doc.code, top, claimed)
        return (None if claimed == truth else f"hilbert {claimed} != oracle {truth}"), note
    if cmd == "check":
        truth = all(oracle.truncated_exactness(doc.complex, d) for d in PD_WINDOW)
        return (None if report["pd"] == truth else f"pd {report['pd']} != oracle {truth}"), None
    if cmd == "oracle-verify":
        return (None if report["all"] is True else "oracle-verify disagrees"), None
    if cmd == "observable":
        ring, code = doc.ring, doc.code
        if not report["observable"]:
            elem = tuple(parse_poly(s, ring) for s in report["witness"]["element"])
            mult = parse_poly(report["witness"]["multiplier"], ring)
            if mult.is_zero or _in_code(code, elem):
                return "witness is not a torsion element outside the code", None
            if not _in_code(code, tuple(f * mult for f in elem)):
                return "witness multiple is not in the code", None
            return None, None
        rows = [[parse_poly(s, ring) for s in row] for row in report["parity_check"]]
        if rows:
            parity = PolyMatrix.from_rows(ring, rows)
            if not (parity @ code.generators).is_zero:
                return "parity check does not annihilate the code", None
            h = max(int(f.degree) for row in rows for f in row if not f.is_zero)
            kernel = [len(oracle.truncated_kernel(parity, (0,) * parity.nrows,
                                                  (h,) * code.q, d + h))
                      for d in range(top + 1)]
        else:
            kernel = [code.q * comb(d + doc.n, doc.n) for d in range(top + 1)]
        # The code lies in ker H, so equal slice dimensions mean equal slices.
        truth, note = _code_dims(code, top, kernel)
        return (None if kernel == truth else f"kernel of the parity check {kernel} "
                f"!= code {truth}"), note
    return f"no check for command {cmd!r}", None
