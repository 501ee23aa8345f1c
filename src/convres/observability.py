"""Observability: torsion-freeness of S^q/C and parity-check extraction.

A code is observable when it is the full kernel of some polynomial
matrix H (a parity check / syndrome former).  The decision procedure is
the double-kernel route: H is the left kernel of the generator matrix,
K the kernel of H; the code is observable exactly when it equals K, and
any generator of K outside the code is a torsion element of S^q/C.

The reduction-modulo-irreducibles criterion is implemented as a
univariate spot check only: for n = 1 the quotient by an irreducible is
a field and exactness becomes finite linear algebra.  Enumerating the
irreducibles is exponential in the degree bound, so a bound whose
candidate count exceeds ``MAX_PROP3_CANDIDATES`` is refused before any
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import CodePresentation, ModElem, Poly, PolyMatrix, vec_mul_poly
from .complexes import PolyComplex
from .errors import DomainError, InputError, InvariantError, UnsupportedDimensionError
from .groebner import (
    SubmodulePresentation,
    left_kernel,
    matrix_kernel,
    membership,
    module_equal,
    syzygy_basis,
)


# Largest number of monic candidates, sum of p^k for k = 1..B, that the
# spot check sieves.  At this count the sieve takes up to about 0.6 s
# (p = 61, B = 2; 2-core x86 VM, Python 3.11), against 2.7 s for p = 101,
# B = 2 (10302 candidates).  The tests and the small-mix benchmark reach
# at most 155 (p = 5, B = 3).
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


def _torsion_multiplier(code: CodePresentation, elem: ModElem) -> Poly:
    """A nonzero s with s * elem inside the code.

    The multipliers form the first coordinates of the syzygies of the
    matrix [elem | generators]; a nonzero one exists whenever elem is
    torsion modulo the code.
    """
    ring = code.ring
    cols = [elem] + code.generators.columns()
    stacked = PolyMatrix.from_columns(ring, code.q, cols)
    syz = syzygy_basis(stacked)
    candidates = [syz.entry(0, j) for j in range(syz.ncols) if not syz.entry(0, j).is_zero]
    if not candidates:
        raise DomainError("element is not torsion modulo the code")
    candidates.sort(key=lambda f: (f.degree, f.terms))
    return candidates[0]


def is_observable(code: CodePresentation) -> ObservabilityReport:
    """Decide observability; emit a parity check or a torsion witness."""
    ring = code.ring
    q = code.q
    parity = left_kernel(code.generators)
    if parity.nrows == 0:
        kernel_cols = PolyMatrix.identity(ring, q).columns()
    else:
        kernel_cols = matrix_kernel(parity).columns()
    if not kernel_cols:
        raise InvariantError("the kernel of the left kernel must contain the code")
    kernel_pres = SubmodulePresentation(ring, q, tuple(kernel_cols))
    code_pres = SubmodulePresentation.from_matrix(code.generators)
    if module_equal(code_pres, kernel_pres):
        return ObservabilityReport(True, parity, None)
    for g in kernel_cols:
        if not membership(g, code_pres):
            s = _torsion_multiplier(code, g)
            if not membership(vec_mul_poly(g, s), code_pres):
                raise InvariantError("torsion multiple of the witness is outside the code")
            return ObservabilityReport(False, None, TorsionWitness(g, s))
    raise InvariantError("kernel differs from the code but has no outside generator")


# -- univariate spot check -----------------------------------------------

def _coeffs(f: Poly) -> list:
    """Ascending coefficient list of a univariate polynomial."""
    if f.is_zero:
        return []
    out = [0] * (int(f.degree) + 1)
    for e, c in f.terms:
        out[e[0]] = c
    return out


def _poly_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_sub(a: list, b: list, p: int) -> list:
    width = max(len(a), len(b))
    a = a + [0] * (width - len(a))
    b = b + [0] * (width - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def _poly_divmod(a: list, b: list, p: int):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = (a[-1] * inv) % p
        q[k] = c
        for i, x in enumerate(b):
            a[i + k] = (a[i + k] - c * x) % p
        _poly_trim(a)
        if not a:
            break
    return _poly_trim(q), a


def _field_inv(a: list, lam: list, p: int) -> list:
    """Inverse in F_p[x]/(lam) by the extended Euclidean algorithm."""
    r0, r1 = list(lam), list(a)
    t0, t1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1, p), p)
    if len(r0) != 1:
        raise InvariantError("element not invertible: the modulus is reducible")
    c = pow(r0[0], p - 2, p)
    return _poly_trim([(x * c) % p for x in t0])


def monic_irreducibles(p: int, max_deg: int):
    """All monic irreducible polynomials of degree 1..max_deg over F_p.

    Exhaustive sieve by trial division; exponential in max_deg, intended
    for tiny degrees.
    """
    found = []
    for deg in range(1, max_deg + 1):
        for tail in product(range(p), repeat=deg):
            cand = list(tail) + [1]
            divisible = False
            for g in found:
                if (len(g) - 1) * 2 > deg:
                    break
                if not _poly_divmod(cand, g, p)[1]:
                    divisible = True
                    break
            if not divisible:
                found.append(cand)
    return found


def _rank_mod_lambda(mat: PolyMatrix, lam: list, p: int) -> int:
    """Rank of the matrix over the field F_p[x]/(lam)."""

    def red(coeffs):
        return _poly_divmod(coeffs, lam, p)[1]

    grid = [[red(_coeffs(mat.entry(i, j))) for j in range(mat.ncols)]
            for i in range(mat.nrows)]
    rank = 0
    rows = list(range(mat.nrows))
    for col in range(mat.ncols):
        pivot = next((r for r in rows if grid[r][col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = _field_inv(grid[pivot][col], lam, p)
        prow = [red(_poly_mul(e, inv, p)) for e in grid[pivot]]
        for r in rows:
            f = grid[r][col]
            if f:
                for c in range(mat.ncols):
                    grid[r][c] = _poly_sub(grid[r][c], red(_poly_mul(f, prow[c], p)), p)
        rank += 1
    return rank


def prop3_spot_check(cx: PolyComplex, degree_bound: int) -> bool:
    """Exactness of the complex modulo every irreducible up to the bound.

    Univariate only: each quotient is a finite field and exactness of
    the reduced sequence of free modules is decided by rank counting.
    Returns the conjunction over all monic irreducibles of degree
    <= degree_bound.  A bound below 1, or one with more than
    ``MAX_PROP3_CANDIDATES`` candidates, raises ``InputError``.
    """
    if cx.ring.n != 1:
        raise UnsupportedDimensionError(
            "the irreducible-reduction check is implemented for n = 1 only")
    p = cx.ring.p
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
    sizes = cx.sizes
    for lam in monic_irreducibles(p, degree_bound):
        ranks = [_rank_mod_lambda(mat, lam, p) for mat in cx.matrices]
        if ranks[-1] != sizes[-1]:
            return False
        for k in range(cx.length - 1):
            if ranks[k] + ranks[k + 1] != sizes[k]:
                return False
    return True
