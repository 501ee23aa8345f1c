"""Observability: torsion-freeness of S^q/C and parity-check extraction.

A code is observable when it is the full kernel of some polynomial
matrix H (a parity check / syndrome former).  The decision procedure:
H is the left kernel of the generator matrix, K the kernel of H, both
Schreyer syzygies on packed columns over S.  The code lies in K by
construction, so it is observable exactly when every generator of K
reduces to zero against a Groebner basis of the code; the first one
that does not is a torsion element of S^q/C.  Only H and the witness
are unpacked, for the report.

The reduction-modulo-irreducibles criterion is implemented as a
univariate spot check only, and it builds no resolution.  For n = 1
the minimal reduced resolution of a code of rank r is exact modulo an
irreducible lam exactly when its G_1 keeps rank r over the field
F_p[x]/(lam), that is when lam does not divide Delta, the gcd of the
r x r minors (Buchsbaum and Eisenbud, "What makes a complex exact?",
J. Algebra 25, 1973).  The irreducibles of degree <= B are the factors
of x^(p^k) - x for B/2 < k <= B, so the check is one gcd with
x^(p^k) - x per such k, read off a Smith form of the code's own
generator matrix.  An entry of degree p^k or more is first folded
modulo x^(p^k) - x, so a huge degree costs no dense storage.
When a Smith form is too short to show r, r is read off the leads of
one Groebner basis of the code over S, the completion ``is_observable``
runs too; there is no second exact-algebra engine.  A bound with more
than ``MAX_PROP3_CANDIDATES`` monic candidates is refused before any
work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CodePresentation, ModElem, Poly, PolyMatrix
from .errors import DomainError, InputError, InvariantError, UnsupportedDimensionError
from .groebner import (
    _C,
    _MASK,
    ModuleOrder,
    _addmul,
    _buchberger,
    _from_flat,
    _reduce_flat,
    _syzygies_flat,
    _to_flat,
)


# Largest number of monic candidates, sum of p^k for k = 1..B, that the
# spot check admits.  It bounds the dense work: every entry of the
# Smith form taken modulo x^(p^k) - x has degree below p^k <= 4096, and
# is held as an int64 array of at most 4,096 coefficients.  The
# small-mix benchmark reaches 155 (p = 5, B = 3); the tests go up to the
# limit.
MAX_PROP3_CANDIDATES = 4096


@dataclass(frozen=True)
class TorsionWitness:
    """An element outside the code with a nonzero multiple inside it."""

    element: ModElem
    multiplier: Poly


@dataclass(frozen=True)
class ObservabilityReport:
    observable: bool
    parity_check: PolyMatrix | None
    witness: TorsionWitness | None


def _kernel(vecs, order: ModuleOrder, out: ModuleOrder) -> list:
    """Generators of {y : sum_j y_j vecs[j] = 0}, packed by ``out``.

    ``vecs`` are packed by ``order`` and ``out`` is the zero-twist order
    on S^len(vecs); zero vectors are allowed.  The syzygies of the
    nonzero vectors (``_syzygies_flat``, twisted by their degrees) come
    first, moved to the vectors' positions, then a unit for each zero
    vector.
    """
    live = [j for j, vec in enumerate(vecs) if vec]
    syz_order = ModuleOrder(order.ring, tuple(max(vecs[j]) >> order._weight_at for j in live))
    syz, _ = _syzygies_flat([vecs[j] for j in live], order, syz_order)
    moved = [{out.pack((live[pos], exps)): c for t, c in flat.items()
              for pos, exps in [syz_order.unpack(t)]} for flat in syz]
    one = (0,) * order.ring.nvars
    return moved + [{out.pack((j, one)): 1} for j, vec in enumerate(vecs) if not vec]


def _transpose(rows, order: ModuleOrder, t_order: ModuleOrder) -> list:
    """The columns of the matrix whose rows are packed by ``order``, packed by ``t_order``."""
    cols = [{} for _ in range(order.rank)]
    for i, row in enumerate(rows):
        for t, c in row.items():
            j, exps = order.unpack(t)
            cols[j][t_order.pack((i, exps))] = c
    return cols


def _torsion_multiplier(elem: dict, cols, order: ModuleOrder) -> Poly:
    """A nonzero s with s * elem in the span of ``cols``, all packed by ``order``.

    The multipliers form the first coordinates of the syzygies of
    [elem | cols] (``_kernel``); a nonzero one exists whenever elem is
    torsion modulo the span.  Only those coordinates are unpacked, and
    the least by (degree, terms) is taken.
    """
    out = ModuleOrder(order.ring, (0,) * (len(cols) + 1))
    firsts = (Poly.from_dict(order.ring, {out.unpack(t)[1]: c
                                          for t, c in flat.items() if t & _MASK == _C})
              for flat in _kernel([elem] + cols, order, out))
    candidates = [f for f in firsts if f]
    if not candidates:
        raise DomainError("element is not torsion modulo the code")
    return min(candidates, key=lambda f: (f.degree, f.terms))


def is_observable(code: CodePresentation) -> ObservabilityReport:
    """Decide observability; emit a parity check or a torsion witness.

    H is the left kernel of the generators and K the kernel of H
    (``_kernel``), packed by the zero-twist order on S^q.  The code lies
    in K, so it is K exactly when every generator of K reduces to zero
    against a Groebner basis of the code; the first that does not is the
    witness, with its multiplier checked to bring it into the code.
    """
    ring, gens = code.ring, code.generators
    order = ModuleOrder(ring, (0,) * code.q)
    row_order = ModuleOrder(ring, (0,) * gens.ncols)
    parity = _kernel([_to_flat(row, row_order) for row in gens.entries], row_order, order)
    col_order = ModuleOrder(ring, (0,) * len(parity))
    kernel = _kernel(_transpose(parity, order, col_order), col_order, order)
    cols = [_to_flat(col, order) for col in gens.columns()]
    basis = _buchberger(cols, order).items
    for g in kernel:
        if _reduce_flat(g, basis, order):
            s = _torsion_multiplier(g, cols, order)
            multiple: dict = {}
            for exps, c in s.terms:
                _addmul(multiple, g, c, order.shift(exps), ring.p)
            if _reduce_flat(multiple, basis, order):
                raise InvariantError("torsion multiple of the witness is outside the code")
            return ObservabilityReport(False, None, TorsionWitness(_from_flat(order, g), s))
    rows = tuple(_from_flat(order, h) for h in parity)
    return ObservabilityReport(True, PolyMatrix(ring, len(rows), code.q, rows), None)


# -- univariate spot check -----------------------------------------------
# The Smith form works on entries folded below x^n, n <= 4096, as int64
# coefficient arrays, lowest degree first with no trailing zero (0 is
# empty).  Every coefficient of a product or of a division in progress
# is a sum of at most 4,096 terms below p^2 < 2^24, far inside int64.
# The rank of the code, when a Smith form is too short to show it, comes
# from the Groebner engine over S (``_rank``), with no elimination of
# its own.

def _rank(code: CodePresentation) -> int:
    """Rank of the code over F_p(x), for n = 1: the number of distinct
    lead positions of a Groebner basis of its columns under the
    zero-twist order (``_buchberger``).

    Over the PID F_p[x] every monomial submodule of S^q is a sum of
    x^(a_i) S e_i, one per position i of its leads, so the lead-term
    module has dim <= d growing like d times the number of positions.
    Under a degree-compatible order the code and its lead-term module
    have the same dim <= d, which grows like d times the rank.
    """
    order = ModuleOrder(code.ring, (0,) * code.q)
    cols = [_to_flat(col, order) for col in code.generators.columns()]
    return len({it.pos for it in _buchberger(cols, order).items})


def _trim(a: np.ndarray) -> np.ndarray:
    if not len(a) or a[-1]:
        return a
    nonzero = np.flatnonzero(a)
    return a[:nonzero[-1] + 1] if nonzero.size else a[:0]


def _fold(f: dict, n: int, p: int) -> np.ndarray:
    """f modulo x^n - x, by x^e = x^(1 + (e - 1) mod (n - 1)) for e >= 1."""
    out = np.zeros(min(n, max(f, default=-1) + 1), np.int64)
    for e, c in f.items():
        out[e if e < n else 1 + (e - 1) % (n - 1)] += c
    return _trim(out % p)


def _submul(f: np.ndarray, q: np.ndarray, g: np.ndarray, n: int, p: int) -> np.ndarray:
    """f - q * g modulo x^n - x, for f, q and g of degree below n."""
    prod = np.convolve(q, g) if len(g) else g
    out = np.zeros(max(len(f), len(prod)), np.int64)
    out[:len(f)] = f
    out[:len(prod)] -= prod
    if len(out) > n:
        out[1:len(out) - n + 1] += out[n:]
        out = out[:n]
    return _trim(out % p)


def _divmod(a: np.ndarray, b: np.ndarray, p: int):
    """Quotient and remainder of a by a nonzero b, in len(a) - deg b steps."""
    m, inv = len(b) - 1, pow(int(b[-1]), p - 2, p)
    if not m:
        return a * inv % p, a[:0]
    a, quo = a.copy(), np.zeros(max(len(a) - m, 0), np.int64)
    for s in range(len(quo) - 1, -1, -1):
        if c := int(a[s + m]) * inv % p:
            quo[s] = c
            a[s:s + m + 1] -= c * b
    return _trim(quo), _trim(a[:m] % p)


def _smith_diagonal(rows: list, n: int, p: int) -> list:
    """Nonzero diagonal d_1, d_2, ... of a Smith form of [rows | (x^n - x) I].

    Unimodular row and column steps over F_p[x] on the matrix ``rows``,
    whose entries are kept folded modulo x^n - x (column steps with the
    implicit block): each pivot is an entry of least degree, its column
    and row are divided by it, and a nonzero remainder becomes the next
    pivot; a row with an entry that the pivot does not divide is added
    to the pivot's row.  Every later entry lies in the ideal
    (d_i, x^n - x), so gcd(d_i, x^n - x) divides gcd(d_j, x^n - x) for
    i < j.
    """
    rows, diag = [list(row) for row in rows], []
    while True:
        cells = [(len(f), i, j) for i, row in enumerate(rows) for j, f in enumerate(row) if len(f)]
        if not cells:
            return diag
        _, i, j = min(cells)
        top, piv = rows[i], rows[i][j]
        for k, row in enumerate(rows):
            if k != i and len(row[j]):
                quo = _divmod(row[j], piv, p)[0]
                rows[k] = [_submul(f, quo, g, n, p) for f, g in zip(row, top)]
        if any(len(row[j]) for row in rows if row is not top):
            continue
        top[:] = [f if c == j else _divmod(f, piv, p)[1] for c, f in enumerate(top)]
        if any(len(f) for c, f in enumerate(top) if c != j):
            continue
        rest = [row for row in rows if row is not top]
        bad = next((row for row in rest if any(len(_divmod(f, piv, p)[1]) for f in row)), None)
        if bad is None:
            diag.append(piv)
            rows = [row[:j] + row[j + 1:] for row in rest]
        else:
            top[:] = [piv if c == j else _divmod(f, piv, p)[1] for c, f in enumerate(bad)]


def _prime_to(d: np.ndarray, n: int, p: int) -> bool:
    """Whether gcd(d, x^n - x) = 1 for a nonzero d of degree below n, by
    Euclid from (x^n - x) mod d, whose division takes n - deg d steps."""
    x_n = np.zeros(n + 1, np.int64)
    x_n[[1, n]] = p - 1, 1
    a, b = d, _divmod(x_n, d, p)[1]
    while len(b):
        a, b = b, _divmod(a, b, p)[1]
    return len(a) == 1


def check_prop3_bound(p: int, n: int, degree_bound: int):
    """Refuse a spot check before any work is done for it.

    n other than 1 raises ``UnsupportedDimensionError``; a bound below 1,
    or one with more than ``MAX_PROP3_CANDIDATES`` candidates, raises
    ``InputError``.
    """
    if n != 1:
        raise UnsupportedDimensionError(
            "the irreducible-reduction check is implemented for n = 1 only")
    if degree_bound < 1:
        raise InputError(f"the degree bound must be at least 1, got {degree_bound}",
                         "--prop3-bound")
    candidates, power = 0, 1
    for _ in range(degree_bound):
        power *= p
        candidates += power
        if candidates > MAX_PROP3_CANDIDATES:
            raise InputError(
                f"degree bound {degree_bound} over F_{p} needs more than "
                f"{MAX_PROP3_CANDIDATES} candidate polynomials", "--prop3-bound")


def prop3_spot_check(code: CodePresentation, degree_bound: int) -> bool:
    """Exactness of the code's resolution modulo every irreducible up to the bound.

    Univariate only, and ``check_prop3_bound`` refuses the rest first.
    For n = 1 the code is free of some rank r and its minimal reduced
    resolution is 0 -> S^r -> S^q, with G_1 a basis of the code.  By
    Cauchy-Binet the ideal of r x r minors of the generator matrix
    depends only on its column span, and unimodular steps keep it, so it
    is G_1's ideal (Delta).  G_1 keeps rank r modulo a monic irreducible
    lam exactly when lam does not divide Delta.  A lam of degree e
    divides x^(p^k) - x exactly when e divides k, and every e <=
    degree_bound has a multiple k with degree_bound / 2 < k <=
    degree_bound, so those k cover every lam up to the bound.

    For each k the entries are folded modulo x^(p^k) - x, which keeps
    the ideal of minors modulo x^(p^k) - x, and d_1 | d_2 | ... is the
    diagonal of a Smith form of [folded | (x^(p^k) - x) I]
    (``_smith_diagonal``).  Its rank modulo lam | x^(p^k) - x counts the
    d_i prime to lam, so G_1 keeps rank r modulo every such lam exactly
    when there are r of them and gcd(d_r, x^(p^k) - x) = 1.  There are
    at most r, and r is at most min(q, columns), so ``_rank`` is asked
    only when there are fewer than that, and at most once.  Returns
    whether the test holds for every such k.
    """
    ring = code.ring
    check_prop3_bound(ring.p, ring.n, degree_bound)
    p = ring.p
    sparse = [[{e: c for (e,), c in f.terms} for f in row] for row in code.generators.entries]
    full, rank = min(len(sparse), len(sparse[0])), None
    for k in range(degree_bound // 2 + 1, degree_bound + 1):
        n = p ** k
        diag = _smith_diagonal([[_fold(f, n, p) for f in row] for row in sparse], n, p)
        if len(diag) < full:
            rank = rank or _rank(code)
            if len(diag) < rank:
                return False
        if not _prime_to(diag[-1], n, p):
            return False
    return True
