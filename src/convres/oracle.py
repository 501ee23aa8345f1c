"""Brute-force verification by degree-truncated linear algebra.

Every count and basis here is computed without the Groebner engine,
over explicit monomial bases by dense row reduction modulo p: the second
route against which Hilbert values, exactness of degree slices and
kernels of truncated maps are checked.

One term order serves every slice, map and echelon: ``_keys`` ranks the
terms of S^q by degree, then position, then exponents, so a degree-<= d
slice is a prefix and every basis is in RREF in that order.  Every row
is keyed by ``_shift_keys``, the generators a code's columns or a map's,
and every matrix is reduced by ``rref_mod_p``: one broadcast rank-1
update per pivot, over the rows that carry the pivot column or over the
whole matrix when they are most of it, with entries reduced modulo p
lazily, as far as int64 allows.

Codeword dimensions come from one reduced echelon form per code
(``_CodeEchelon``), kept on its free columns only, the rows being the
identity on their pivots.  A request past its cap keys the generator
shifts x^e * g of every new cap in one pass and adds them one block per
cap, from the lowest up; callers ask for their largest degree first, so
that one growth builds every cap their later requests read.  The count
D(c, d) of the codewords of degree <= d spanned by the shifts of degree
<= c never exceeds F(d) = dim C_{<=d} and never falls as c rises, but
no cap where it reaches F(d) is known in advance.  So the count stops
by a target, F(d) by the Hilbert formula on the engine's minimal
resolution (``engine_resolution``).  From the first cap tried (at
least d) the cap rises by one until D(c, d) reaches the target, and
then by maxdeg more, the largest generator degree (at least 1); the
count there is the answer.  Hence:

* D = F(d): the oracle has exhibited F(d) independent codewords of degree <= d.
* An overcounting engine never agrees.  A target above q * C(d + n, n)
  raises ``InputError`` at once; any other is never reached, so the cap
  rises until ``MAX_CELLS`` raises ``InputError``.
* An undercounting engine shows as D > F(d) only when the codewords it
  misses are spanned by the time the margin of maxdeg caps is counted.
  A codeword that first appears later is missed by the oracle as well:
  agreement rules out overcounting, not undercounting.

``MAX_CELLS`` is the only ceiling: no dense matrix above it is built,
its size being computed from binomials first.  A code too large at the
first cap tried plus the margin is refused before the target is taken.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .algebra import CodePresentation, ModElem, Poly, PolyMatrix, Ring, check_twist
from .errors import DomainError, InputError, InvariantError
from .invariants import hilbert_formula

# Largest dense matrix (rows x columns) the oracle handles; a code's
# echelon counts as its full matrix of generator shifts at the cap.
MAX_CELLS = 2 ** 24

# _matmul_mod takes one int64 product, one limb over one chunk, when
# (p - 1)^2 * inner < 2^63.  Otherwise it splits its right factor into
# limbs of _LIMB_BITS bits and its inner dimension into chunks of _CHUNK,
# so for p < 2^31 every partial sum stays below 2^31 * 2^16 * 2^15 = 2^62.
_LIMB_BITS = 16
_CHUNK = 2 ** 15


def _check_cells(rows: int, cols: int):
    """Raise InputError when a rows x cols matrix is over the size limit."""
    if max(rows, 1) * cols > MAX_CELLS:
        raise InputError(f"the oracle would need a {rows} x {cols} matrix, "
                         f"above its limit of {MAX_CELLS} entries")


def rref_mod_p(mat: np.ndarray, p: int):
    """Reduced row echelon form over F_p; returns (rref, pivot_columns).

    Each pivot is one broadcast rank-1 update: with the pivot row made
    monic, row i loses m[i, c] times it and the pivot row loses
    m[r, c] - 1 times it, which leaves that monic row.  The update runs
    over the whole matrix when more than half the rows carry the pivot
    column and over those rows otherwise.  Entries are reduced modulo p
    lazily: only the pivot column and row are reduced before an update,
    so each update subtracts products below (p - 1)^2, and the whole
    matrix is reduced after every ``every`` updates, which keeps it
    within int64.
    """
    m = mat.astype(np.int64) % p
    rows, cols = m.shape
    every = (2 ** 63 - 1) // (p - 1) ** 2
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        col = m[:, c] % p
        a = col.item(r)
        if not a:
            nz = col[r:].nonzero()[0]
            if not nz.size:
                continue
            k = r + nz.item(0)
            m[[r, k]], col[[r, k]] = m[[k, r]], col[[k, r]]
            a = col.item(r)
        row = m[r] % p
        if a != 1:
            row = row * pow(a, p - 2, p) % p
        col[r] = a - 1
        touched = col.nonzero()[0]
        if 2 * len(touched) > rows:
            m -= col[:, None] * row
        else:
            m[touched] -= col[touched, None] * row
        pivots.append(c)
        if not len(pivots) % every:
            m %= p
    return m[:len(pivots)] % p, pivots


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for entries in [0, p) with p < 2^31, exact in int64."""
    inner, width = a.shape[1], (p - 1).bit_length()
    one = (p - 1) ** 2 * inner < 2 ** 63
    bits, chunk = (width, max(inner, 1)) if one else (_LIMB_BITS, _CHUNK)
    out = None
    for s in range(0, max(inner, 1), chunk):
        part, right = a[:, s:s + chunk], b[s:s + chunk]
        for shift in range(0, width, bits):
            limb = right if bits == width else (right >> shift) & ((1 << bits) - 1)
            term = (part @ limb) % p
            out = term if out is None else (out + (term << shift)) % p
    return out


def nullspace_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : mat @ x = 0} as rows, from the RREF free columns."""
    rref, pivots = rref_mod_p(mat, p)
    free = np.setdiff1d(np.arange(mat.shape[1]), pivots)
    basis = np.eye(mat.shape[1], dtype=np.int64)[free]
    basis[:, pivots] = (-rref[:, free].T) % p
    return basis


def _compositions(n: int, k: int) -> list:
    """Exponent vectors of n entries summing to k, in ascending order."""
    if n == 1:
        return [(k,)]
    return [(a,) + rest for a in range(k + 1) for rest in _compositions(n - 1, k - a)]


def _slice(n: int, twist: tuple, d: int):
    """The terms (pos, e) with |e| + twist[pos] <= d, in ``_keys`` order,
    and an array mapping each ``_keys`` value below q * C(d + n, n) to
    the index of its term in that list, or -1 for a term outside it."""
    q = len(twist)
    _check_cells(1, q * comb(max(d + n, 0), n))
    keyed = [(pos, e) for k in range(d + 1) for pos in range(q) for e in _compositions(n, k)]
    inside = np.array([sum(e) + twist[pos] <= d for pos, e in keyed], dtype=bool)
    column = np.where(inside, np.cumsum(inside) - 1, -1)
    return [t for t, keep in zip(keyed, inside) if keep], column


def _element(ring: Ring, rank: int, terms: list, row: np.ndarray) -> ModElem:
    """The element of S^rank with coefficient row[i] on the term terms[i]."""
    per_pos = [dict() for _ in range(rank)]
    for i in np.nonzero(row % ring.p)[0]:
        pos, e = terms[i]
        per_pos[pos][e] = int(row[i])
    return tuple(Poly.from_dict(ring, t) for t in per_pos)


@dataclass(frozen=True)
class TruncatedSpace:
    """RREF basis of a degree slice of a code, its dimension and the cap
    at which it was counted."""

    basis: tuple
    dimension: int
    cap_used: int


def _generator_terms(columns, degrees) -> tuple:
    """The columns as generators of the given degrees, in arrays: position,
    exponents and coefficient of every term, column by column, then each
    column's number of terms and degree; a zero column has no terms."""
    n = columns[0][0].ring.n if columns else 0
    terms = [(pos, *e, c) for col in columns for pos, f in enumerate(col) for e, c in f.terms]
    arr = np.array(terms, dtype=np.int64).reshape(len(terms), n + 2)
    counts = np.array([sum(len(f.terms) for f in col) for col in columns], dtype=np.int64)
    return arr[:, 0], arr[:, 1:-1], arr[:, -1], counts, np.array(degrees, dtype=np.int64)


@lru_cache(maxsize=32)
def _binomials(n: int, bits: int) -> np.ndarray:
    """C(r + m, m) at [r, m] for r < 2^bits and m = 0..n; read only.

    Callers pass the bit length of the largest r they read, so one table
    serves every r up to twice that and few tables are ever built.
    """
    table = np.array([[comb(r + m, m) for m in range(n + 1)] for r in range(1 << bits)], np.int64)
    table.flags.writeable = False
    return table


def _keys(pos, exps: np.ndarray, q: int) -> np.ndarray:
    """Index of each term (pos, exps) when the terms of S^q are ordered by
    degree, then position, then exponent vector as in ``_compositions``."""
    n = exps.shape[-1]
    deg = exps.sum(axis=-1)
    binom = _binomials(n, int(deg.max(initial=0)).bit_length())
    key = q * (binom[deg, n] - binom[deg, n - 1]) + pos * binom[deg, n - 1]
    rest = deg
    for i in range(n - 1):
        # Vectors of sum ``rest`` in n - i entries with a smaller first entry.
        key += binom[rest, n - 1 - i] - binom[rest - exps[..., i], n - 1 - i]
        rest = rest - exps[..., i]
    return key


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i], ..., starts[i] + lengths[i] - 1, one after another."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


@lru_cache(maxsize=32)
def _exponent_table(n: int, lo: int, hi: int) -> np.ndarray:
    """Exponent vectors of degree lo..hi, by degree, then as ``_compositions``; read only."""
    exps = [e for k in range(lo, hi + 1) for e in _compositions(n, k)]
    table = np.array(exps, dtype=np.int64).reshape(len(exps), n)
    table.flags.writeable = False
    return table


def _shift_keys(gens: tuple, q: int, lo: int, hi: int):
    """The shifts x^e * g with lo <= deg g + |e| <= hi, by g, then by e in
    ``_compositions`` order of each degree: the degree of each shift, and
    the row, ``_keys`` value and coefficient of each of their terms.  The
    terms of all rows are keyed at once."""
    pos, exps, coeffs, counts, degs = gens
    first, last = np.maximum(lo - degs, 0), hi - degs    # shift degrees per generator
    low = int(first[first <= last].min(initial=hi + 1))
    table = _exponent_table(exps.shape[1], low, int(last.max(initial=-1)))
    deg = table.sum(axis=1)
    start = np.searchsorted(deg, first)
    shifts = np.maximum(np.searchsorted(deg, last, side="right") - start, 0)
    row_gen, row_exp = np.repeat(np.arange(len(degs)), shifts), _runs(start, shifts)
    size = counts[row_gen]    # row r holds the terms of generator row_gen[r]
    entry_row = np.repeat(np.arange(len(row_gen)), size)
    entry_term = _runs((np.cumsum(counts) - counts)[row_gen], size)
    keys = _keys(pos[entry_term], table[row_exp[entry_row]] + exps[entry_term], q)
    return degs[row_gen] + deg[row_exp], entry_row, keys, coeffs[entry_term]


def _scatter(rows: int, entry_row, keys, coeffs, column: np.ndarray, width: int) -> np.ndarray:
    """Dense rows of width ``width`` from keyed terms, ``column`` mapping
    the ``_keys`` of S^q to column indices."""
    block = np.zeros((rows, width), dtype=np.int64)
    block[entry_row, column[keys]] = coeffs
    return block


def _shift_rows(gens: tuple, q: int, lo: int, hi: int, column: np.ndarray,
                width: int) -> np.ndarray:
    """Dense rows of the shifts of ``_shift_keys``, in its order; ``column``
    maps the ``_keys`` of S^q to column indices below ``width``.  Slices
    and truncated maps take their rows from here; the echelon keys every
    new cap of a request in one pass (``_cap_blocks``) and scatters one
    cap's block at a time."""
    deg, *terms = _shift_keys(gens, q, lo, hi)
    return _scatter(len(deg), *terms, column, width)


def _cap_blocks(gens: tuple, q: int, lo: int, hi: int):
    """The shifts of degree lo..hi keyed in one ``_shift_keys`` pass and cut
    by degree: for each cap c from lo to hi, c and (rows, entry_row, keys,
    coeffs) of the shifts of degree c, in their ``_shift_keys`` order at
    lo = hi = c, which a stable sort by degree keeps."""
    deg, entry_row, keys, coeffs = _shift_keys(gens, q, lo, hi)
    row = np.argsort(np.argsort(deg, kind="stable"))[entry_row]    # each term's row by degree
    terms = np.argsort(row, kind="stable")
    row_at = np.searchsorted(np.sort(deg), np.arange(lo, hi + 2))
    term_at = np.searchsorted(row[terms], row_at)
    for c, a, b, s, t in zip(range(lo, hi + 1), row_at, row_at[1:], term_at, term_at[1:]):
        at = terms[s:t]
        yield c, (b - a, row[at] - a, keys[at], coeffs[at])


class _CodeEchelon:
    """Reduced echelon form of the generator shifts of one code, grown by cap.

    The columns are the terms of S^q by ``_keys``, each block adding the
    terms of its degree.  The rows are the identity on their pivots, so
    only their free columns are kept: ``rows[i]`` is row i on ``free``,
    the columns that are no pivot, from the highest key down, and row i
    pivots at ``pivots[i]``, keeping its degree (``pivot_deg``, read off
    the key) and the cap whose block added it (``pivot_cap``).  A request
    past the cap keys the shifts of every new cap in one pass
    (``_cap_blocks``) and adds one block per cap, from the lowest up.
    Each block's shifts are laid out in (pivot | free) column order and
    reduced against the rows with one exact product modulo p; what is
    left is row reduced on the free columns (``rref_mod_p``), and a
    boolean mask drops the new pivots' columns from ``free`` and
    ``rows``.  The rows are zero on the block's fresh columns, so they
    lose their entries on the new pivots by a second product only when
    a pivot lands on a column that was free before.  Pivots are never
    removed.  The result is the RREF of all the shifts with the columns
    from the highest key down, whatever caps each request grew.  A lock
    serializes growth and counting, since echelons are shared, and an
    exception while growing empties the echelon.
    """

    def __init__(self, code: CodePresentation):
        self.p, self.n, self.q = code.ring.p, code.ring.n, code.q
        self.degrees = code.generators.column_degrees()
        self.gens = _generator_terms(code.generators.columns(), self.degrees)
        self._lock = threading.Lock()
        self._clear()

    def _clear(self):
        self.cap = -1
        empty = np.zeros(0, dtype=np.int64)
        self.free = self.pivots = self.pivot_deg = self.pivot_cap = empty
        self.rows = np.zeros((0, 0), dtype=np.int64)

    def check(self, cap: int):
        """Raise InputError when the shifts of degree <= cap are too many."""
        shifts = sum(comb(cap - deg + self.n, self.n) for deg in self.degrees if deg <= cap)
        _check_cells(shifts, self.q * comb(cap + self.n, self.n))

    def dim(self, cap: int, d: int) -> int:
        """dim of the degree-<= d part of the span of the shifts of degree <= cap."""
        with self._lock:
            if cap > self.cap:
                self.check(cap)
                try:
                    for c, keyed in _cap_blocks(self.gens, self.q, self.cap + 1, cap):
                        self._add_block(c, keyed)
                except BaseException:
                    # A block cut short (a timeout, an interrupt) would
                    # leave later counts wrong; start again next time.
                    self._clear()
                    raise
            return int(np.count_nonzero((self.pivot_cap <= cap) & (self.pivot_deg <= d)))

    def _add_block(self, c: int, keyed: tuple):
        p, q, n, rank = self.p, self.q, self.n, len(self.pivots)
        width, fresh = q * comb(c + n, n), q * comb(c + n - 1, n - 1)
        self.free = np.concatenate([np.arange(width - 1, width - fresh - 1, -1), self.free])
        self.rows = np.concatenate([np.zeros((rank, fresh), dtype=np.int64), self.rows], axis=1)
        self.cap = c
        if not keyed[0]:
            return    # no shift has degree c
        # The block in (pivot | free) column order, reduced against the
        # rows; what is left is echelonized on the free columns.
        block = _scatter(*keyed, np.argsort(np.concatenate([self.pivots, self.free])), width)
        rest = (block[:, rank:] - _matmul_mod(block[:, :rank], self.rows, p)) % p
        rest = rest[rest.any(axis=1)]
        if not rest.shape[0]:
            return
        reduced, cols = rref_mod_p(rest, p)
        new = self.free[cols]
        keep = np.ones(len(self.free), dtype=bool)
        keep[cols] = False
        if cols[-1] >= fresh:    # else the rows are zero on every new pivot
            self.rows = (self.rows - _matmul_mod(self.rows[:, cols], reduced, p)) % p
        self.rows, self.free = np.vstack([self.rows, reduced])[:, keep], self.free[keep]
        self.pivots = np.concatenate([self.pivots, new])
        # Key k has degree d when q * C(d - 1 + n, n) <= k < q * C(d + n, n).
        degree = np.searchsorted(q * _binomials(n, c.bit_length())[:, n], new, side="right")
        self.pivot_deg = np.concatenate([self.pivot_deg, degree])
        self.pivot_cap = np.concatenate([self.pivot_cap, np.full(len(new), c)])


@lru_cache(maxsize=4)
def _echelon(code: CodePresentation) -> _CodeEchelon:
    """The shared, growing echelon of a code.

    Callers ask about one code at a time, for their largest d first, so
    a few live echelons are enough; each grows only to the largest cap
    asked.
    """
    return _CodeEchelon(code)


@lru_cache(maxsize=4)
def engine_resolution(code: CodePresentation):
    """The engine's minimal resolution of a code, cached.

    The oracle's counts run to its Hilbert values; a caller comparing
    the oracle with them takes the resolution from here, so one
    resolution serves both.
    """
    from .complexes import minimal_resolution
    return minimal_resolution(code)


def _target(code: CodePresentation, d: int) -> int:
    """The engine's F(d): the Hilbert formula on ``engine_resolution``."""
    return hilbert_formula(engine_resolution(code).degree_table, code.ring.n, d)


def _count(code: CodePresentation, d: int, cap: int = None):
    """(D(c, d), c) where c is maxdeg caps past the first cap >= max(cap, d),
    ``cap`` defaulting to d, at which D(c, d) reaches the engine's F(d).

    The echelon grows to the first cap tried plus the margin in one
    request, since the answer's cap is never lower; caps past it are
    grown one at a time as the count climbs."""
    echelon = _echelon(code)
    n = code.ring.n
    margin = max(1, *echelon.degrees)
    c = d if cap is None else max(cap, d)
    echelon.check(c + margin)
    target = _target(code, d)
    if target > code.q * comb(d + n, n):
        raise InputError(f"claimed F({d}) = {target} exceeds the "
                         f"{code.q * comb(d + n, n)} monomial vectors of degree <= {d}")
    echelon.dim(c + margin, d)
    while echelon.dim(c, d) < target:
        c += 1
    return echelon.dim(c + margin, d), c + margin


def _slice_basis(code: CodePresentation, d: int, cap: int) -> tuple:
    """RREF basis, in ``_keys`` order, of the degree-<= d part of the
    span of the shifts of degree <= cap.

    One echelon: the columns of degree in (d, cap] come first, so the
    rows pivoting in the slice columns after them span the slice, and
    are already reduced in the slice's own column order.
    """
    ring, q, n = code.ring, code.q, code.ring.n
    echelon = _echelon(code)
    echelon.check(cap)
    terms, _ = _slice(n, (0,) * q, d)
    # The slice's keys are the prefix below len(terms); the keys above come first.
    total = q * comb(cap + n, n)
    high = total - len(terms)
    rows = _shift_rows(echelon.gens, q, 0, cap, np.roll(np.arange(total), -high), total)
    reduced, pivots = rref_mod_p(rows, ring.p)
    return tuple(_element(ring, q, terms, reduced[r, high:])
                 for r, c in enumerate(pivots) if c >= high)


def truncated_code_space(code: CodePresentation, d: int, cap: int = None) -> TruncatedSpace:
    """Macaulay-style basis of the codewords of degree <= d.

    ``dimension`` and ``cap_used`` are the count D(c, d) and its cap c
    by the stop rule of the module docstring, ``cap`` setting the first
    cap tried.  The basis comes from one from-scratch echelon of the
    shifts at ``cap_used`` and must have the incremental echelon's
    dimension.
    """
    if d < 0:
        return TruncatedSpace((), 0, cap or 0)
    dimension, cap_used = _count(code, d, cap)
    basis = _slice_basis(code, d, cap_used)
    if len(basis) != dimension:
        raise InvariantError(f"oracle slice at d={d}, cap {cap_used}: basis of "
                             f"{len(basis)} elements, incremental dimension {dimension}")
    return TruncatedSpace(basis, dimension, cap_used)


def hilbert_oracle(code: CodePresentation, d: int) -> int:
    """dim of the space of codewords of degree <= d, by brute force.

    The count D(c, d) by the stop rule of the module docstring, read
    from the code's incremental echelon; no basis is built.
    """
    return _count(code, d)[0] if d >= 0 else 0


def _truncated_map(mat: PolyMatrix, row_twist, col_twist, d: int) -> np.ndarray:
    """The degree-<= d slice of the map, transposed: its rows are the
    ``_shift_rows`` x^e * column j, |e| + col_twist[j] <= d, of the
    columns as generators of their twist, its columns the target slice
    in ``_keys`` order.  Zero columns are allowed; a column above its
    twisted degree raises DomainError."""
    n = mat.ring.n
    row_twist = check_twist(row_twist, mat.nrows)
    col_twist = check_twist(col_twist, mat.ncols)
    terms, column = _slice(n, row_twist, d)
    gens = pos, exps, _, counts, degs = _generator_terms(mat.columns(), col_twist)
    over = exps.sum(axis=1) + np.array(row_twist, dtype=np.int64)[pos] > np.repeat(degs, counts)
    if over.any():
        j = int(np.repeat(np.arange(len(counts)), counts)[over][0])
        raise DomainError(f"column {j} of the map exceeds its twisted degree {col_twist[j]}")
    _check_cells(sum(comb(d - t + n, n) for t in col_twist if t <= d), len(terms))
    return _shift_rows(gens, mat.nrows, 0, d, column, len(terms))


def truncated_exactness(cx, d: int) -> bool:
    """Exactness of the degree-<= d slice of the filtered chain of a complex.

    Checks injectivity of the last map, rank complementarity at every
    inner level, and surjectivity of the first map onto the truncated
    span of its image columns (the ``hilbert_oracle`` count).  That
    count runs to the engine's F(d) for the code of the first map, so
    the level-1 comparison can refute the predictable degree property
    there, but cannot prove it independently of the engine.
    """
    ring = cx.ring
    p = ring.p
    from .complexes import column_degree_table
    table = ((0,) * cx.q,) + column_degree_table(cx)
    maps = [_truncated_map(cx.matrices[k], table[k], table[k + 1], d)
            for k in range(cx.length)]
    ranks = [len(rref_mod_p(m, p)[1]) for m in maps]
    if ranks[-1] != maps[-1].shape[0]:
        return False
    for k in range(cx.length - 1):
        if ranks[k] + ranks[k + 1] != maps[k].shape[0]:
            return False
    return ranks[0] == hilbert_oracle(CodePresentation(ring, cx.matrices[0]), d)


def truncated_kernel(mat: PolyMatrix, row_twist, col_twist, d: int):
    """Basis of the kernel of the degree-<= d slice of the map.

    The null space of the transposed ``_truncated_map``: each basis
    vector lists its coefficients on the source terms in the map's row
    order, by column, then by degree in ``_compositions`` order.
    """
    ring = mat.ring
    rows = _truncated_map(mat, row_twist, col_twist, d)
    terms = [(j, e) for j, t in enumerate(col_twist)
             for k in range(d - t + 1) for e in _compositions(ring.n, k)]
    return [_element(ring, mat.ncols, terms, v) for v in nullspace_mod_p(rows.T, ring.p)]
