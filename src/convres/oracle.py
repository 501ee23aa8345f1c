"""Brute-force verification by degree-truncated linear algebra.

Everything here is deliberately independent of the Groebner engine:
spaces of bounded-degree module elements are laid out over explicit
monomial bases and handled with dense row reduction modulo p.  This is
the second route against which the exact machinery is checked: Hilbert
values, exactness of degree slices, kernels of truncated maps, and the
memory recursion.

Codeword dimensions come from one reduced echelon form per code
(``_CodeEchelon``).  The shifts x^e * g of the generators are added one
block per degree cap, in increasing cap order, over columns ordered by
descending degree, so a row's pivot is its top-degree term and the
echelon after the block of cap c is the echelon of every shift of
degree <= c.  The dimension of the degree-<= d slice at cap c is then
the number of pivots of degree <= d present at cap c.

No dense matrix above ``MAX_CELLS`` entries is built: its size is
computed from binomials first, and a larger one raises ``InputError``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add

import numpy as np

from .algebra import CodePresentation, ModElem, Poly, PolyMatrix, Ring, check_twist
from .errors import InputError, InvariantError, StructuralError

# Largest dense matrix (rows x columns) the oracle handles; a code's
# echelon counts as its full matrix of generator shifts at the cap.
MAX_CELLS = 2 ** 24

# _matmul_mod splits its right factor into 16-bit limbs and its inner
# dimension into chunks of 2^15, so for p < 2^31 every partial sum stays
# below 2^31 * 2^16 * 2^15 = 2^62.
_LIMB_BITS = 16
_CHUNK = 2 ** 15


def _check_cells(rows: int, cols: int):
    """Raise InputError when a rows x cols matrix is over the size limit."""
    if max(rows, 1) * cols > MAX_CELLS:
        raise InputError(f"the oracle would need a {rows} x {cols} matrix, "
                         f"above its limit of {MAX_CELLS} entries")


def rref_mod_p(mat: np.ndarray, p: int):
    """Reduced row echelon form over F_p; returns (rref, pivot_columns)."""
    m = mat.astype(np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + nz[0]
        if k != r:
            m[[r, k]] = m[[k, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        touched = np.nonzero(col)[0]
        if touched.size:
            m[touched] = (m[touched] - np.outer(col[touched], m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for entries in [0, p) with p < 2^31, exact in int64."""
    lo = b & ((1 << _LIMB_BITS) - 1)
    hi = b >> _LIMB_BITS
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], _CHUNK):
        part = a[:, s:s + _CHUNK]
        high = (part @ hi[s:s + _CHUNK]) % p
        out = (out + (part @ lo[s:s + _CHUNK]) % p + (high << _LIMB_BITS) % p) % p
    return out


def nullspace_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : mat @ x = 0} as rows, from the RREF free columns."""
    rref, pivots = rref_mod_p(mat, p)
    cols = mat.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-rref[:, free].T) % p
    return basis


def _compositions(n: int, k: int) -> list:
    """Exponent vectors of n entries summing to k, in ascending order."""
    if n == 1:
        return [(k,)]
    return [(a,) + rest for a in range(k + 1) for rest in _compositions(n - 1, k - a)]


def monomials_up_to(n: int, d: int):
    """All exponent vectors in n variables of total degree <= d, sorted."""
    return sorted(e for k in range(d + 1) for e in _compositions(n, k))


@dataclass(frozen=True)
class _SliceBasis:
    """Monomial basis of {f in S^rank : deg_twist(f) <= d}."""

    ring: Ring
    rank: int
    twist: tuple
    d: int
    index: dict
    monos: tuple

    @classmethod
    def build(cls, ring: Ring, rank: int, twist, d: int):
        twist = check_twist(twist, rank)
        _check_cells(1, sum(comb(d - t + ring.n, ring.n) for t in twist if t <= d))
        monos = []
        for pos in range(rank):
            for e in monomials_up_to(ring.n, d - twist[pos]):
                monos.append((pos, e))
        index = {t: i for i, t in enumerate(monos)}
        return cls(ring, rank, twist, d, index, tuple(monos))

    @property
    def dim(self):
        return len(self.monos)

    def vector(self, elem: ModElem) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        for pos, poly in enumerate(elem):
            for e, c in poly.terms:
                v[self.index[(pos, e)]] = c
        return v

    def element(self, row: np.ndarray) -> ModElem:
        p = self.ring.p
        per_pos = [dict() for _ in range(self.rank)]
        for i in np.nonzero(row % p)[0]:
            pos, e = self.monos[i]
            per_pos[pos][e] = int(row[i]) % p
        return tuple(Poly.from_dict(self.ring, d) for d in per_pos)


@dataclass(frozen=True)
class TruncatedSpace:
    """RREF basis of a degree slice of a submodule of S^rank."""

    ring: Ring
    rank: int
    twist: tuple
    d: int
    basis: tuple
    dimension: int
    cap_used: int
    stabilized: bool

    def __eq__(self, other):
        return (isinstance(other, TruncatedSpace) and self.ring == other.ring
                and self.rank == other.rank and self.twist == other.twist
                and self.d == other.d and self.basis == other.basis)


def _generator_terms(code: CodePresentation) -> list:
    """(terms, degree) of every generator column, terms as (pos, exps, coeff)."""
    mat = code.generators
    return [([(pos, e, c) for pos, f in enumerate(col) for e, c in f.terms], deg)
            for col, deg in zip(mat.columns(), mat.column_degrees())]


def _shift_count(gens: list, n: int, cap: int) -> int:
    """Number of generator shifts of degree <= cap."""
    return sum(comb(cap - deg + n, n) for _, deg in gens if deg <= cap)


def _shift_rows(gens: list, n: int, lo: int, hi: int, column: dict, width: int) -> np.ndarray:
    """Dense rows of the shifts x^e * g with lo <= deg g + |e| <= hi.

    ``column`` maps (pos, exps) to a column index below ``width``.
    """
    rows, cols, vals = [], [], []
    r = 0
    for terms, deg in gens:
        for k in range(max(lo - deg, 0), hi - deg + 1):
            for e in _compositions(n, k):
                for pos, exps, c in terms:
                    rows.append(r)
                    cols.append(column[(pos, tuple(map(add, exps, e)))])
                    vals.append(c)
                r += 1
    out = np.zeros((r, width), dtype=np.int64)
    out[rows, cols] = vals
    return out


class _CodeEchelon:
    """Reduced echelon form of the generator shifts of one code, grown by cap.

    Columns are numbered as they are added, one degree at a time, so read
    from the highest number down they list the degrees from the top,
    with (pos, exps) ascending within a degree: the column order of a
    from-scratch echelon at the current cap.  Every pivot keeps its
    degree and the cap whose block added it; pivots are never removed,
    because each block is reduced against the existing rows first.
    A lock serializes growth and counting, since echelons are shared, and
    an exception while growing empties the echelon.
    """

    def __init__(self, code: CodePresentation):
        self.p, self.n, self.q = code.ring.p, code.ring.n, code.q
        self.gens = _generator_terms(code)
        self._lock = threading.Lock()
        self._clear()

    def _clear(self):
        self.cap = -1
        self.column: dict = {}
        self.col_deg = np.zeros(0, dtype=np.int64)
        self.rows = np.zeros((0, 0), dtype=np.int64)
        self.pivots = np.zeros(0, dtype=np.int64)
        self.pivot_deg = np.zeros(0, dtype=np.int64)
        self.pivot_cap = np.zeros(0, dtype=np.int64)

    def dim(self, cap: int, d: int) -> int:
        """dim of the degree-<= d part of the span of the shifts of degree <= cap."""
        with self._lock:
            if cap > self.cap:
                _check_cells(_shift_count(self.gens, self.n, cap),
                             self.q * comb(cap + self.n, self.n))
                try:
                    for c in range(self.cap + 1, cap + 1):
                        self._add_block(c)
                except BaseException:
                    # A block cut short (a timeout, an interrupt) would
                    # leave later counts wrong; start again next time.
                    self._clear()
                    raise
            return int(np.count_nonzero((self.pivot_cap <= cap) & (self.pivot_deg <= d)))

    def _add_block(self, c: int):
        p = self.p
        base = len(self.col_deg)
        fresh = [(pos, e) for pos in range(self.q) for e in _compositions(self.n, c)]
        for i, key in enumerate(fresh):
            self.column[key] = base + len(fresh) - 1 - i
        width = base + len(fresh)
        self.col_deg = np.concatenate([self.col_deg, np.full(len(fresh), c)])
        self.rows = np.hstack([self.rows, np.zeros((len(self.rows), len(fresh)), np.int64)])
        self.cap = c
        block = _shift_rows(self.gens, self.n, c, c, self.column, width)
        if not block.shape[0]:
            return
        # Reduce the block against the pivots and echelonize what is left,
        # on the free columns in descending degree.
        is_pivot = np.zeros(width, dtype=bool)
        is_pivot[self.pivots] = True
        free = np.nonzero(~is_pivot)[0][::-1]
        rest = (block[:, free]
                - _matmul_mod(block[:, self.pivots], self.rows[:, free], p)) % p
        rest = rest[rest.any(axis=1)]
        if not rest.shape[0]:
            return
        reduced, cols = rref_mod_p(rest, p)
        new = free[cols]
        self.rows[:, free] = (self.rows[:, free]
                              - _matmul_mod(self.rows[:, new], reduced, p)) % p
        added = np.zeros((len(new), width), dtype=np.int64)
        added[:, free] = reduced
        self.rows = np.vstack([self.rows, added])
        self.pivots = np.concatenate([self.pivots, new])
        self.pivot_deg = np.concatenate([self.pivot_deg, self.col_deg[new]])
        self.pivot_cap = np.concatenate([self.pivot_cap, np.full(len(new), c)])


@lru_cache(maxsize=4)
def _echelon(code: CodePresentation) -> _CodeEchelon:
    """The shared, growing echelon of a code.

    Callers ask about one code at a time, for ascending d, so a few
    live echelons are enough; each grows only to the largest cap asked.
    """
    return _CodeEchelon(code)


def _stable_dim(code: CodePresentation, d: int, cap: int = None):
    """(dimension, cap_used, stabilized) for the codewords of degree <= d.

    Shifts are truncated at a cap, by default d + 2 * max generator
    degree, raised by one until three consecutive caps give the same
    dimension; ``cap_used`` is the first of the three.  After 13 caps
    without that, ``stabilized`` is False and ``cap_used`` the last cap.
    """
    echelon = _echelon(code)
    maxdeg = max(1, max(deg for _, deg in echelon.gens))
    c = max(cap if cap is not None else d + 2 * maxdeg, d)
    dims = []
    while True:
        dims.append(echelon.dim(c, d))
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            return dims[-1], c - 2, True
        if len(dims) > 12:
            return dims[-1], c, False
        c += 1


def _slice_basis(code: CodePresentation, d: int, cap: int) -> tuple:
    """RREF basis, in ``_SliceBasis`` order, of the degree-<= d part of
    the span of the shifts of degree <= cap.

    One echelon: the columns of degree in (d, cap] come first, so the
    rows pivoting in the slice columns after them span the slice, and
    are already reduced in the slice's own column order.
    """
    ring, q, n = code.ring, code.q, code.ring.n
    gens = _generator_terms(code)
    _check_cells(_shift_count(gens, n, cap), q * comb(cap + n, n))
    small = _SliceBasis.build(ring, q, (0,) * q, d)
    high = [(pos, e) for k in range(d + 1, cap + 1) for pos in range(q)
            for e in _compositions(n, k)]
    column = {key: i for i, key in enumerate(high)}
    column.update((key, len(high) + i) for key, i in small.index.items())
    rows = _shift_rows(gens, n, 0, cap, column, len(high) + small.dim)
    reduced, pivots = rref_mod_p(rows, ring.p)
    return tuple(small.element(reduced[r, len(high):])
                 for r, c in enumerate(pivots) if c >= len(high))


def truncated_code_space(code: CodePresentation, d: int, cap: int = None) -> TruncatedSpace:
    """Macaulay-style basis of the codewords of degree <= d.

    ``dimension``, ``cap_used`` and ``stabilized`` follow the cap rule of
    ``_stable_dim`` (``cap`` sets the first cap tried).  The basis comes
    from one echelon of the generator shifts at ``cap_used`` and must
    have the incremental echelon's dimension.
    """
    ring = code.ring
    if d < 0:
        return TruncatedSpace(ring, code.q, (0,) * code.q, d, (), 0, cap or 0, True)
    dimension, cap_used, stabilized = _stable_dim(code, d, cap)
    basis = _slice_basis(code, d, cap_used)
    if len(basis) != dimension:
        raise InvariantError(f"oracle slice at d={d}, cap {cap_used}: basis of "
                             f"{len(basis)} elements, incremental dimension {dimension}")
    return TruncatedSpace(ring, code.q, (0,) * code.q, d, basis, dimension,
                          cap_used, stabilized)


def hilbert_oracle(code: CodePresentation, d: int) -> int:
    """dim of the space of codewords of degree <= d, by brute force.

    A count read from the code's incremental echelon under the cap rule
    of ``_stable_dim``; no basis is built.
    """
    return _stable_dim(code, d)[0] if d >= 0 else 0


def _truncated_map(mat: PolyMatrix, src: _SliceBasis, dst: _SliceBasis) -> np.ndarray:
    """Matrix of the F_p-linear map between two degree slices."""
    _check_cells(dst.dim, src.dim)
    out = np.zeros((dst.dim, src.dim), dtype=np.int64)
    for j, (pos, e) in enumerate(src.monos):
        col = tuple(mat.entry(i, pos).mul_term(1, e) for i in range(mat.nrows))
        out[:, j] = dst.vector(col)
    return out


def truncated_exactness(cx, d: int) -> bool:
    """Exactness of the degree-<= d slice of the filtered chain of a complex.

    Checks injectivity of the last map, rank complementarity at every
    inner level, and surjectivity of the first map onto the truncated
    span of its image columns (the ``hilbert_oracle`` count).
    """
    ring = cx.ring
    p = ring.p
    from .complexes import column_degree_table
    table = ((0,) * cx.q,) + column_degree_table(cx)
    slices = [_SliceBasis.build(ring, len(tw), tw, d) for tw in table]
    maps = [_truncated_map(cx.matrices[k], slices[k + 1], slices[k])
            for k in range(cx.length)]
    ranks = [len(rref_mod_p(m, p)[1]) for m in maps]
    if ranks[-1] != slices[-1].dim:
        return False
    for k in range(cx.length - 1):
        if ranks[k] + ranks[k + 1] != slices[k + 1].dim:
            return False
    return ranks[0] == hilbert_oracle(CodePresentation(ring, cx.matrices[0]), d)


def truncated_kernel(mat: PolyMatrix, row_twist, col_twist, d: int):
    """Basis of the kernel of the degree-<= d slice of the map."""
    ring = mat.ring
    src = _SliceBasis.build(ring, mat.ncols, check_twist(col_twist, mat.ncols), d)
    dst = _SliceBasis.build(ring, mat.nrows, check_twist(row_twist, mat.nrows), d)
    m = _truncated_map(mat, src, dst)
    rows = nullspace_mod_p(m, ring.p)
    return [src.element(rows[r]) for r in range(rows.shape[0])]


def memory_recovery_check(code: CodePresentation, m: int, d_max: int) -> bool:
    """Whether the degree-<= m slice regenerates all slices up to d_max.

    Starting from the oracle basis of the degree-<= m slice, each next
    candidate slice is the span of the previous one and its products
    with the variables; the check succeeds when every candidate matches
    the oracle slice exactly.
    """
    ring = code.ring
    p = ring.p
    if d_max <= m:
        raise StructuralError("d_max must exceed the starting degree")
    current = list(truncated_code_space(code, m).basis)
    for d in range(m + 1, d_max + 1):
        basis = _SliceBasis.build(ring, code.q, (0,) * code.q, d)
        _check_cells(len(current) * (ring.n + 1), basis.dim)
        rows = []
        for elem in current:
            rows.append(basis.vector(elem))
            for slot in range(ring.n):
                shift = tuple(1 if t == slot else 0 for t in range(ring.n))
                rows.append(basis.vector(tuple(f.mul_term(1, shift) for f in elem)))
        if rows:
            rref, _ = rref_mod_p(np.array(rows, dtype=np.int64), p)
            candidate = [basis.element(rref[r]) for r in range(rref.shape[0])]
        else:
            candidate = []
        truth = list(truncated_code_space(code, d).basis)
        if candidate != truth:
            return False
        current = candidate
    return True
