"""Seeded input documents for the benchmark workloads.

Pure Python on purpose: nothing here imports ``convres``, and every
polynomial string is written here, so one seed gives byte-identical
documents on every commit and generating them costs the same whatever
the engine does.  Exact complexes come from closed forms (Koszul
complexes and damaged variants), never from the engine's syzygies.

An op is ``(command, options, text)``: a CLI command name, the options
it takes (the argparse destinations of ``convres.cli``), and the JSON
document.  Within one workload no document text repeats, because the
oracle caches echelon forms per code and a repeat would be timed warm,
which a one-shot CLI process never is.
"""

from __future__ import annotations

import functools
import json
import random

WORKLOADS = ("resolve-n3", "oracle-n2", "small-mix")

# The n = 3 code from ROADMAP whose resolution did not finish within
# minutes when this benchmark was added; its rows are those of the 2x4
# generator matrix with the four ROADMAP columns.
CANARY = {
    "p": 101, "n": 3, "kind": "code",
    "matrix": [
        ["73*D1^2 + 23*D1", "93*D2^2 + 77*D2", "65", "62*D1 + 96"],
        ["81", "11*D1*D2 + 88*D2^2 + 63*D3", "85*D3 + 7",
         "91*D2^2 + 73*D2*D3 + 44*D3"],
    ],
}


def canary_op():
    return "resolve", {"hilbert_max": None}, document_text(CANARY)


def document_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def poly_text(terms: dict, p: int) -> str:
    """Canonical text of ``{exponents: coefficient}``; "0" when empty.

    Terms go by descending total degree, then descending exponents, so
    equal polynomials always get equal text.
    """
    parts = []
    for exps in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[exps] % p
        if not c:
            continue
        factors = [] if c == 1 and any(exps) else [str(c)]
        for slot, k in enumerate(exps):
            if k:
                factors.append(f"D{slot + 1}" if k == 1 else f"D{slot + 1}^{k}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


@functools.lru_cache(maxsize=None)
def _monomials(n: int, max_deg: int) -> tuple:
    if n == 0:
        return ((),)
    return tuple((k,) + rest for k in range(max_deg + 1)
                 for rest in _monomials(n - 1, max_deg - k))


def _random_terms(rng, n: int, p: int, max_deg: int) -> dict:
    """1 to 3 terms of degree <= max_deg with nonzero coefficients."""
    monos = _monomials(n, max_deg)
    return {e: rng.randrange(1, p) for e in rng.sample(monos, rng.randint(1, min(3, len(monos))))}


def _dense_terms(rng, monos, p: int) -> dict:
    return {e: rng.randrange(1, p) for e in monos}


def _neg(terms: dict, p: int) -> dict:
    return {e: (-c) % p for e, c in terms.items()}


def _shift(terms: dict, slot: int) -> dict:
    return {tuple(k + (i == slot) for i, k in enumerate(e)): c for e, c in terms.items()}


def _code(p, n, columns):
    """Code document from columns given as lists of term dicts."""
    q = len(columns[0])
    rows = [[poly_text(col[i], p) for col in columns] for i in range(q)]
    return {"p": p, "n": n, "kind": "code", "matrix": rows}


def _random_code(rng, p, n, q, ncols, max_deg):
    columns = []
    while len(columns) < ncols:
        col = [_random_terms(rng, n, p, max_deg) if rng.random() < 0.8 else {}
               for _ in range(q)]
        if any(col):
            columns.append(col)
    return _code(p, n, columns)


def _koszul_complex(rng, p, n):
    """Koszul complex of f, g (or of f, g, h), optionally damaged.

    ``[f g]`` then ``[[g], [-f]]`` is a complex for any f and g.  The
    damage keeps it a complex but usually breaks exactness: a syzygy
    column multiplied by a variable, or a trailing matrix dropped.
    """
    f, g = (_random_terms(rng, n, p, 2) for _ in range(2))
    style = rng.randrange(4)
    if style == 3:
        h = _random_terms(rng, n, p, 2)
        g1 = [[f, g, h]]
        g2 = [[g, h, {}], [_neg(f, p), {}, h], [{}, _neg(f, p), _neg(g, p)]]
        mats = [g1, g2]
        if rng.random() < 0.5:
            mats.append([[h], [_neg(g, p)], [f]])
    else:
        second = [[g], [_neg(f, p)]]
        if style == 1:
            slot = rng.randrange(n)
            second = [[_shift(g, slot)], [_shift(_neg(f, p), slot)]]
        mats = [[[f, g]], second] if style != 2 else [[[f, g]]]
    matrices = [[[poly_text(t, p) for t in row] for row in m] for m in mats]
    return {"p": p, "n": n, "kind": "complex", "matrices": matrices}


def _resolve_n3(rng):
    """A generic code over F_101, n = 3: a 3x5 matrix of linear forms.

    Generic coefficients give the same Betti numbers for almost every
    draw, so the cost per op hardly depends on the seed.
    """
    linear = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    columns = [[_dense_terms(rng, linear, 101) for _ in range(3)] for _ in range(5)]
    return "resolve", {"hilbert_max": None}, _code(101, 3, columns)


def _oracle_n2(rng):
    """A generic code over F_101, n = 2, q = 2, three columns of degree <= 2."""
    monos = _monomials(2, 2)
    columns = [[_dense_terms(rng, monos, 101) for _ in range(2)] for _ in range(3)]
    return "oracle-verify", {"max_d": 8}, _code(101, 2, columns)


def _small_mix(rng):
    kind = rng.randrange(4)
    if kind == 0:
        p, n = rng.choice((2, 3, 5, 101)), rng.randint(1, 2)
        return "check", {"property": "pd", "strict": False}, _koszul_complex(rng, p, n)
    if kind == 1:
        # The irreducible sieve is exponential in the bound; p <= 5 keeps it tiny.
        p = rng.choice((2, 3, 5))
        doc = _random_code(rng, p, 1, rng.randint(1, 3), rng.randint(1, 3), 2)
        return "observable", {"prop3_bound": 3, "strict": False}, doc
    p, n = rng.choice((2, 3, 5, 101)), rng.randint(1, 2)
    doc = _random_code(rng, p, n, rng.randint(1, 3), rng.randint(1, 3), 2)
    if kind == 2:
        return "resolve", {"hilbert_max": 6}, doc
    return "hilbert", {"max_d": 6, "oracle": False}, doc


_DRAW = {"resolve-n3": _resolve_n3, "oracle-n2": _oracle_n2, "small-mix": _small_mix}


def generate(workload: str, seed: int, count: int) -> list:
    """``count`` ops of a workload, distinct by document text."""
    draw = _DRAW[workload]
    rng = random.Random(f"{workload}:{seed}")
    seen = {document_text(CANARY)}
    ops = []
    while len(ops) < count:
        cmd, options, doc = draw(rng)
        text = document_text(doc)
        if text in seen:
            continue
        seen.add(text)
        ops.append((cmd, options, text))
    return ops
