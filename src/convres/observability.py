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
univariate spot check only, and it builds no resolution.  For n = 1 the
code is free and its reduced Groebner basis under the zero-twist order
is column reduced, so by Forney's minimal-basis theorem it is the G_1 of
the code's minimal reduced resolution up to a unimodular factor; the
quotient by an irreducible lam is a field, and exactness becomes full
column rank of that basis.  A matrix over F_p[x]/(lam) is ranked over
F_p, with each entry replaced by its block in the companion matrix of
lam, by ``oracle.rref_mod_p``; entries are read sparsely by exponent, so
a huge degree costs only squarings.  The irreducibles come from a
product sieve.  Their number is exponential in the degree bound, so a
bound whose candidate count exceeds ``MAX_PROP3_CANDIDATES`` is refused
before any work.
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
    _interreduce,
    _reduce_flat,
    _syzygies_flat,
    _to_flat,
)
from .oracle import rref_mod_p


# Largest number of monic candidates, sum of p^k for k = 1..B, that the
# spot check sieves.  Within it the product sieve takes 5-8 ms (p = 2,
# B = 11), and a whole check of a 2 x 1 code of degree 3 0.06-0.14 s
# (p = 2, B = 11 and p = 61, B = 2), one block rank per irreducible
# (best of 7 and of 3 runs; shared 2-core x86 VM, Python 3.11.7,
# numpy 2.4).  It also keeps p <= 4093 < 2^12, which the int64 ranks
# rely on.  The small-mix benchmark reaches 155 (p = 5, B = 3); the
# tests go up to the limit.
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
    basis = _buchberger(cols, order)
    for g in kernel:
        if _reduce_flat(g, basis, order)[0]:
            s = _torsion_multiplier(g, cols, order)
            multiple: dict = {}
            for exps, c in s.terms:
                _addmul(multiple, g, c, order.shift(exps), ring.p)
            if _reduce_flat(multiple, basis, order)[0]:
                raise InvariantError("torsion multiple of the witness is outside the code")
            return ObservabilityReport(False, None, TorsionWitness(_from_flat(order, g), s))
    rows = tuple(_from_flat(order, h) for h in parity)
    return ObservabilityReport(True, PolyMatrix(ring, len(rows), code.q, rows), None)


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


def _ranks_modulo(mat: PolyMatrix, irreducibles, p: int):
    """Per irreducible lam, the rank of a univariate matrix over F_p[x]/(lam).

    Restriction of scalars: with C the companion matrix of lam and
    k = deg lam, each entry f becomes the k x k block f(C), which is
    multiplication by f on the field, and the F_p-rank of the block
    matrix is k times the rank over the field.  The coefficients are
    laid out over the distinct exponents of the entries only, and C^e is
    reached by square-and-multiply from the previous exponent.
    """
    # int64 is exact: MAX_PROP3_CANDIDATES keeps p <= 4093 < 2^12, so a
    # product of two residues is below 2^24 and a sum of fewer than 2^39
    # of them (matrix products, the einsum over exponents) is below 2^63.
    exps = sorted({e for row in mat.entries for f in row for (e,), _ in f.terms})
    slot = {e: t for t, e in enumerate(exps)}
    cube = np.zeros((len(exps), mat.nrows, mat.ncols), dtype=np.int64)
    for i, row in enumerate(mat.entries):
        for j, f in enumerate(row):
            for (e,), c in f.terms:
                cube[slot[e], i, j] = c
    for lam in irreducibles:
        k = len(lam) - 1
        companion = np.eye(k, k, -1, dtype=np.int64)
        companion[:, -1] = np.negative(lam[:k]) % p
        powers = np.empty((len(exps), k, k), dtype=np.int64)
        acc, prev = np.eye(k, dtype=np.int64), 0
        for t, e in enumerate(exps):
            acc = acc @ _matpow(companion, e - prev, p) % p
            powers[t], prev = acc, e
        blocks = np.einsum("tij,tab->iajb", cube, powers).reshape(mat.nrows * k, mat.ncols * k)
        yield len(rref_mod_p(blocks, p)[1]) // k


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
    For n = 1 the code is free, and the minimal reduced resolution has
    length 1, so it is exact modulo a monic irreducible lam exactly when
    its G_1 keeps full column rank over F_p[x]/(lam).  G_1 is not built:
    the reduced Groebner basis of the code under the zero-twist order
    (``_buchberger``, ``_interreduce``) has its leads at distinct
    positions, or ``InvariantError`` is raised.  At zero twist each column's lead sits
    at the smallest position that carries its top degree, so the
    top-degree coefficients on the lead rows are triangular with a unit
    diagonal: the basis is column reduced, a minimal basis with the
    degrees of G_1 (Forney, SIAM J. Control 13, 1975).  Two bases of the
    code differ by a unimodular factor, so their ranks modulo every lam
    agree.  Returns whether the basis has full rank modulo every monic
    irreducible of degree <= degree_bound.
    """
    ring = code.ring
    check_prop3_bound(ring.p, ring.n, degree_bound)
    order = ModuleOrder(ring, (0,) * code.q)
    basis = _interreduce(_buchberger([_to_flat(col, order) for col in code.generators.columns()],
                                     order), order)
    if len({it.pos for it in basis}) != len(basis):
        raise InvariantError("leads of the reduced basis of a univariate code share a position")
    mat = PolyMatrix.from_columns(ring, code.q, [_from_flat(order, it.flat) for it in basis])
    return all(rank == len(basis)
               for rank in _ranks_modulo(mat, monic_irreducibles(ring.p, degree_bound), ring.p))
