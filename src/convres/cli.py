"""Command line front end.

Input documents are JSON with explicit fields; polynomials are strings
in the documented grammar (`2*D1^3*D2 + 1`).

    {"p": 2, "n": 2, "kind": "code", "matrix": [["D1", "D2"]]}
    {"p": 2, "n": 2, "kind": "complex", "matrices": [[["D1", "D2"]], [["D2"], ["D1"]]]}

Reports are JSON on stdout, byte-identical across runs for identical
inputs.  Exit status: 0 on success, 1 when a checked property is false
and --strict was given, 2 on input errors and on failed internal checks
(``InvariantError``), which print no report.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import CodePresentation, PolyMatrix, Ring, is_prime, parse_poly
from .complexes import (
    PolyComplex,
    check_minimal,
    check_reduced,
    check_resolution,
    code_hilbert_values,
    minimal_resolution,
    minimality_witness,
    pd_failure_witness,
    validate_complex,
)
from .errors import ConvresError, InputError, PolyParseError
from .groebner import _LIMIT as MAX_TERM_DEGREE
from .invariants import forney_table, hilbert_values, memory, rate
from .observability import check_prop3_bound, is_observable, prop3_spot_check
from .oracle import engine_resolution, hilbert_oracle, truncated_exactness


# Largest number of variables n.  Building a module order sums one
# shifted int per variable, and those ints grow with n, so its cost is
# quadratic in n: `resolve` on [["D1"]] takes 0.4 s of wall time at
# n = 1,000, 2.8 s at n = 10,000 and 22 s at n = 30,000 (2-core VM).
MAX_N = 1_000


class InputDocument:
    """A parsed and validated input file."""

    __slots__ = ("p", "n", "kind", "ring", "code", "complex")

    def __init__(self, p, n, kind, ring, code, complex_):
        self.p = p
        self.n = n
        self.kind = kind
        self.ring = ring
        self.code = code
        self.complex = complex_


def _parse_matrix(ring: Ring, rows, where: str) -> PolyMatrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise InputError("matrix must be a non-empty list of rows", where)
    width = len(rows[0])
    if width == 0:
        raise InputError("matrix rows must be non-empty", where)
    grid = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError(f"row {i} has {len(row)} entries, expected {width}",
                             f"{where}[{i}]")
        out = []
        for j, text in enumerate(row):
            if not isinstance(text, str):
                raise InputError("matrix entries must be polynomial strings",
                                 f"{where}[{i}][{j}]")
            try:
                out.append(parse_poly(text, ring))
            except PolyParseError as exc:
                raise InputError(f"bad polynomial {text!r}: {exc}",
                                 f"{where}[{i}][{j}]") from None
            if out[-1].degree > MAX_TERM_DEGREE:
                raise InputError(f"degree {out[-1].degree} exceeds the engine's limit "
                                 f"of {MAX_TERM_DEGREE}", f"{where}[{i}][{j}]")
        grid.append(out)
    mat = PolyMatrix.from_rows(ring, grid)
    for j in range(mat.ncols):
        if all(mat.entry(i, j).is_zero for i in range(mat.nrows)):
            raise InputError(f"zero column {j}", where)
    return mat


def parse_input(text) -> InputDocument:
    """Parse a JSON document (text, or bytes in UTF-8) into a validated code or complex."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as exc:
        raise InputError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}", f"line {exc.lineno} column {exc.colno}")
    except RecursionError:
        raise InputError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    for field in ("p", "n", "kind"):
        if field not in doc:
            raise InputError(f"missing field {field!r}")
    p, n, kind = doc["p"], doc["n"], doc["kind"]
    # JSON true and false are ints to Python; the range test comes before
    # the trial division, which a huge p would keep running.
    if not (type(p) is int and p < 2**31 and is_prime(p)):
        raise InputError("p must be prime (and below 2^31)", "p")
    if not (type(n) is int and 1 <= n <= MAX_N):
        raise InputError(f"n must be an integer from 1 to {MAX_N}", "n")
    if kind not in ("code", "complex"):
        raise InputError("kind must be 'code' or 'complex'", "kind")
    ring = Ring(p, n)
    if kind == "code":
        if "matrix" not in doc:
            raise InputError("a code document needs a 'matrix' field", "matrix")
        mat = _parse_matrix(ring, doc["matrix"], "matrix")
        code = CodePresentation(ring, mat)
        return InputDocument(p, n, kind, ring, code, None)
    if "matrices" not in doc:
        raise InputError("a complex document needs a 'matrices' field", "matrices")
    if not isinstance(doc["matrices"], list) or not doc["matrices"]:
        raise InputError("'matrices' must be a non-empty list", "matrices")
    mats = [_parse_matrix(ring, rows, f"matrices[{k}]")
            for k, rows in enumerate(doc["matrices"])]
    try:
        cx = validate_complex(mats)
    except ConvresError as exc:
        raise InputError(f"matrices do not form a complex: {exc}", "matrices") from None
    return InputDocument(p, n, kind, ring, None, cx)


def _complex_document(doc: InputDocument, cx: PolyComplex) -> dict:
    return {
        "p": doc.p,
        "n": doc.n,
        "kind": "complex",
        "matrices": [m.to_strings() for m in cx.matrices],
    }


def _require_kind(doc: InputDocument, kind: str, cmd: str):
    if doc.kind != kind:
        raise InputError(f"command {cmd!r} needs a {kind!r} document, got {doc.kind!r}")


MAX_D = 10_000  # largest --max-d and --hilbert-max; a report lists a value per degree


def run_command(cmd: str, doc: InputDocument, options) -> tuple[dict, int]:
    """Dispatch a command; returns (report, exit_status)."""
    for name in ("max_d", "hilbert_max"):
        value = getattr(options, name, None)
        if value is not None and not 0 <= value <= MAX_D:
            bound = "non-negative" if value < 0 else f"at most {MAX_D}"
            raise InputError(f"--{name.replace('_', '-')} must be {bound}, got {value}")
    if cmd == "resolve":
        _require_kind(doc, "code", cmd)
        report = minimal_resolution(doc.code)
        cx, table = report.complex, report.degree_table
        out = {
            "command": "resolve",
            "p": doc.p,
            "n": doc.n,
            "q": cx.q,
            "l": len(table),
            "sizes": {"q": cx.q, "p": list(cx.sizes)},
            "degree_table": [list(level) for level in table],
            "forney_table": [list(level) for level in forney_table(table)],
            "memory": memory(table),
            "rate": {"tuple": list(rate(table)), "q": cx.q},
            # minimal_resolution returns only what it has proved to be a
            # minimal reduced resolution, and raises otherwise, so every
            # verdict here is true.
            "checks": {
                "resolution": True,
                "reduced": True,
                "pd": True,
                "minimal": True,
            },
            "complex_document": _complex_document(doc, cx),
        }
        if options.hilbert_max is not None:
            out["hilbert"] = hilbert_values(table, doc.n, options.hilbert_max)
        return out, 0

    if cmd == "hilbert":
        _require_kind(doc, "code", cmd)
        d_max = options.max_d
        if options.oracle:
            values = [hilbert_oracle(doc.code, d) for d in range(d_max + 1)]
        else:
            values = code_hilbert_values(doc.code, d_max)
        return {"command": "hilbert", "max_d": d_max, "oracle": bool(options.oracle),
                "values": values}, 0

    if cmd == "check":
        _require_kind(doc, "complex", cmd)
        prop = options.property
        cx = doc.complex
        out = {"command": "check", "property": prop}
        # The verdict and the witness read the packed leading part kept on ``cx``.
        if prop == "resolution":
            result = check_resolution(cx)
        elif prop == "minimal":
            result = check_minimal(cx)
            if not result:
                out["scalar_entry"] = list(minimality_witness(cx))
        else:
            # "pd" and "reduced" are one property by the paper's main theorem.
            result = check_reduced(cx)
            if prop == "pd" and not result:
                witness = pd_failure_witness(cx)
                if witness is not None:
                    out["witness_column"] = [str(f) for f in witness]
        out[prop] = result
        out["result"] = result
        status = 1 if (options.strict and not result) else 0
        return out, status

    if cmd == "observable":
        _require_kind(doc, "code", cmd)
        if options.prop3_bound is not None:
            check_prop3_bound(doc.p, doc.n, options.prop3_bound)
        rep = is_observable(doc.code)
        out = {"command": "observable", "observable": rep.observable}
        if rep.observable:
            out["parity_check"] = rep.parity_check.to_strings()
        else:
            out["witness"] = {
                "element": [str(f) for f in rep.witness.element],
                "multiplier": str(rep.witness.multiplier),
            }
        if options.prop3_bound is not None:
            out["prop3"] = prop3_spot_check(doc.code, options.prop3_bound)
        status = 1 if (options.strict and not rep.observable) else 0
        return out, status

    if cmd == "oracle-verify":
        d_max = options.max_d
        if doc.kind == "complex":
            per_d = {d: truncated_exactness(doc.complex, d) for d in range(d_max + 1)}
            verdict = check_reduced(doc.complex)
            return {"command": "oracle-verify", "kind": "complex",
                    "truncated_exactness": [per_d[d] for d in range(d_max + 1)],
                    "pd": verdict,
                    "agreement": all(per_d.values()) == verdict}, 0
        # The resolution whose values the oracle's counts run to: one per op.
        formula = hilbert_values(engine_resolution(doc.code).degree_table, doc.n, d_max)
        per_d = [hilbert_oracle(doc.code, d) == formula[d] for d in range(d_max + 1)]
        return {"command": "oracle-verify", "kind": "code",
                "hilbert_agreement": per_d, "all": all(per_d)}, 0

    raise InputError(f"unknown command {cmd!r}")


def _render(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="convres",
        description="Minimal reduced polynomial resolutions and invariants of "
                    "multidimensional convolutional codes over prime fields.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE", default=None,
                        help="also write the report to FILE")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("resolve", parents=[common],
                        help="minimal reduced resolution of a code")
    sp.add_argument("file")
    sp.add_argument("--hilbert-max", type=int, dest="hilbert_max", default=None,
                    metavar="D", help="include Hilbert values for 0..D")

    sp = sub.add_parser("hilbert", parents=[common],
                        help="Hilbert function values of a code")
    sp.add_argument("file")
    sp.add_argument("--max-d", type=int, dest="max_d", required=True, metavar="D")
    sp.add_argument("--oracle", action="store_true",
                    help="count by truncated linear algebra up to the engine's values (runs both)")

    sp = sub.add_parser("check", parents=[common],
                        help="structural checks of a complex")
    sp.add_argument("property", choices=["pd", "reduced", "minimal", "resolution"])
    sp.add_argument("file")
    sp.add_argument("--strict", action="store_true",
                    help="exit with status 1 when the property is false")

    sp = sub.add_parser("observable", parents=[common],
                        help="observability of a code")
    sp.add_argument("file")
    sp.add_argument("--prop3-bound", type=int, dest="prop3_bound", default=None,
                    metavar="B", help="also run the univariate irreducible check")
    sp.add_argument("--strict", action="store_true",
                    help="exit with status 1 when not observable")

    sp = sub.add_parser("oracle-verify", parents=[common],
                        help="cross-check against the oracle")
    sp.add_argument("file")
    sp.add_argument("--max-d", type=int, dest="max_d", required=True, metavar="D")

    args = parser.parse_args(argv)

    # The --out file is written first, so a report reaches stdout only
    # when the whole command has succeeded.
    try:
        with open(args.file, "rb") as fh:
            doc = parse_input(fh.read())
        report, status = run_command(args.command, doc, args)
        text = _render(report)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (OSError, ConvresError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
