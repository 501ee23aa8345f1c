"""Observability: torsion-freeness of S^q/C and parity-check extraction.

A code is observable when it is the full kernel of some polynomial
matrix H (a parity check / syndrome former).  The decision procedure is
the double-kernel route: H is the left kernel of the generator matrix,
K the kernel of H; the code is observable exactly when it equals K, and
any generator of K outside the code is a torsion element of S^q/C.

The reduction-modulo-irreducibles criterion is implemented as a
univariate spot check only: for n = 1 the quotient by an irreducible
lam is a field, and exactness becomes rank counting.  A matrix over
F_p[x]/(lam) is ranked over F_p, with each entry replaced by its block
in the companion matrix of lam, by ``oracle.rref_mod_p``; entries are
read sparsely by exponent, so a huge degree costs only squarings.  The
irreducibles come from a product sieve.  Their number is exponential in
the degree bound, so a bound whose candidate count exceeds
``MAX_PROP3_CANDIDATES`` is refused before any work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CodePresentation, ModElem, Poly, PolyMatrix, vec_is_zero, vec_mul_poly
from .complexes import PolyComplex
from .errors import DomainError, InputError, InvariantError, UnsupportedDimensionError
from .groebner import (
    SubmodulePresentation,
    groebner_basis,
    left_kernel,
    matrix_kernel,
    normal_form,
    syzygy_basis,
)
from .oracle import rref_mod_p


# Largest number of monic candidates, sum of p^k for k = 1..B, that the
# spot check sieves.  Within it the product sieve takes at most about
# 5 ms (p = 2, B = 11; 2-core Xeon VM, Python 3.11, numpy), and a whole
# check of a 2 x 1 complex at most about 0.1 s (p = 2, B = 11 and p = 61,
# B = 2), one block rank per irreducible.  It also keeps p <= 4093 < 2^12,
# which the int64 ranks rely on.  The tests and the small-mix benchmark
# reach at most 155 (p = 5, B = 3).
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
    # Both presentations have the zero twist, so their default orders are
    # the shared order of ``module_equal``: equal reduced bases, equal modules.
    code_basis = groebner_basis(SubmodulePresentation.from_matrix(code.generators))
    kernel_pres = SubmodulePresentation(ring, q, tuple(kernel_cols))
    if code_basis.elements == groebner_basis(kernel_pres).elements:
        return ObservabilityReport(True, parity, None)
    for g in kernel_cols:
        if not vec_is_zero(normal_form(g, code_basis)):
            s = _torsion_multiplier(code, g)
            if not vec_is_zero(normal_form(vec_mul_poly(g, s), code_basis)):
                raise InvariantError("torsion multiple of the witness is outside the code")
            return ObservabilityReport(False, None, TorsionWitness(g, s))
    raise InvariantError("kernel differs from the code but has no outside generator")


# -- univariate spot check -----------------------------------------------

def _monics(p: int, k: int) -> np.ndarray:
    """Ascending coefficient rows of all monic polynomials of degree k.

    Row m has the base-p digits of m, most significant first, as its
    coefficients 0..k-1: the order of ``itertools.product(range(p),
    repeat=k)``.
    """
    tails = np.indices((p,) * k).reshape(k, -1).T
    return np.hstack([tails, np.ones((len(tails), 1), dtype=tails.dtype)])


def monic_irreducibles(p: int, max_deg: int):
    """All monic irreducible polynomials of degree 1..max_deg over F_p.

    Ascending coefficient lists, by degree and then in the row order of
    ``_monics``.  A product sieve: for each split i <= k/2 every product
    of monics of degrees i and k - i is marked reducible.  Exponential in
    max_deg, intended for tiny degrees.
    """
    found = []
    for k in range(1, max_deg + 1):
        place = p ** np.arange(k - 1, -1, -1)
        reducible = np.zeros(p ** k, dtype=bool)
        for i in range(1, k // 2 + 1):
            a, b = _monics(p, i), _monics(p, k - i)
            prod = np.zeros((len(a), len(b), k + 1), dtype=np.int64)
            for s in range(i + 1):
                prod[:, :, s:s + k - i + 1] += a[:, None, s, None] * b[None]
            reducible[(prod[:, :, :k] % p) @ place] = True
        found.extend(_monics(p, k)[~reducible].tolist())
    return found


def _matpow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m^e mod p by square-and-multiply."""
    out = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m % p
        e >>= 1
        if e:
            m = m @ m % p
    return out


def _ranks_modulo(matrices, irreducibles, p: int):
    """Per irreducible lam, the ranks of univariate matrices over F_p[x]/(lam).

    Restriction of scalars: with C the companion matrix of lam and
    k = deg lam, each entry f becomes the k x k block f(C), which is
    multiplication by f on the field, and the F_p-rank of the block
    matrix is k times the rank over the field.  The coefficients are
    laid out over the distinct exponents of all entries only, and C^e is
    reached by square-and-multiply from the previous exponent.
    """
    # int64 is exact: MAX_PROP3_CANDIDATES keeps p <= 4093 < 2^12, so a
    # product of two residues is below 2^24 and a sum of fewer than 2^39
    # of them (matrix products, the einsum over exponents) is below 2^63.
    exps = sorted({e for mat in matrices for row in mat.entries
                   for f in row for (e,), _ in f.terms})
    slot = {e: t for t, e in enumerate(exps)}
    cubes = []
    for mat in matrices:
        cube = np.zeros((len(exps), mat.nrows, mat.ncols), dtype=np.int64)
        for i, row in enumerate(mat.entries):
            for j, f in enumerate(row):
                for (e,), c in f.terms:
                    cube[slot[e], i, j] = c
        cubes.append(cube)
    for lam in irreducibles:
        k = len(lam) - 1
        companion = np.eye(k, k, -1, dtype=np.int64)
        companion[:, -1] = np.negative(lam[:k]) % p
        powers = np.empty((len(exps), k, k), dtype=np.int64)
        acc, prev = np.eye(k, dtype=np.int64), 0
        for t, e in enumerate(exps):
            acc = acc @ _matpow(companion, e - prev, p) % p
            powers[t], prev = acc, e
        ranks = []
        for cube in cubes:
            _, rows, cols = cube.shape
            blocks = np.einsum("tij,tab->iajb", cube, powers).reshape(rows * k, cols * k)
            ranks.append(len(rref_mod_p(blocks, p)[1]) // k)
        yield ranks


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


def prop3_spot_check(cx: PolyComplex, degree_bound: int) -> bool:
    """Exactness of the complex modulo every irreducible up to the bound.

    Univariate only: each quotient is a finite field and exactness of
    the reduced sequence of free modules is decided by rank counting.
    Returns the conjunction over all monic irreducibles of degree
    <= degree_bound.  ``check_prop3_bound`` refuses the rest first.
    """
    p = cx.ring.p
    check_prop3_bound(p, cx.ring.n, degree_bound)
    sizes = cx.sizes
    for ranks in _ranks_modulo(cx.matrices, monic_irreducibles(p, degree_bound), p):
        if ranks[-1] != sizes[-1]:
            return False
        for k in range(cx.length - 1):
            if ranks[k] + ranks[k + 1] != sizes[k]:
                return False
    return True
