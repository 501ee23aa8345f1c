"""The oracle's elimination kernels against pure-Python references.

Every reference route of the other oracle tests reduces with
``rref_mod_p`` itself; here ``rref_mod_p`` (rows and pivot list) and
``_matmul_mod`` meet a list-based Gauss-Jordan and a schoolbook product
from ``helpers``, over F_p for p in {2, 3, 101, 2^31 - 1}, on empty and
one-row matrices, zero columns, and repeated and dependent rows, and
``_matmul_mod`` on both sides of its one-product bound
(p - 1)^2 * inner < 2^63.  ``rref_mod_p`` also meets the reference on
blocks up to 30 x 40 that reach both branches of its update: dense ones
with zero diagonal entries, which force row swaps, and tall sparse
shift-like ones; and on entries p - 1 at p = 2^31 - 1, where its lazy
reduction runs closest to the int64 bound.  The incremental echelon
(``_CodeEchelon``) is compared whole with a from-scratch Gauss-Jordan
of the shifts at every cap, an echelon grown in one request with one
grown cap by cap, and each cap's block cut from the one keying pass
with the loop reference; the cached tables are read only.
"""

import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convres import oracle

from helpers import (
    acceptance_corpus,
    generator_term_lists,
    random_code,
    reference_matmul,
    reference_rref,
    reference_shift_rows,
)

checked = settings(derandomize=True, deadline=None, max_examples=300)
PRIMES = (2, 3, 101, 2**31 - 1)


def entries(p):
    return st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))


@st.composite
def matrices(draw, max_rows=6, max_cols=7):
    """(p, matrix): rows 0..max_rows and columns 0..max_cols of entries in
    [0, p), with some columns zeroed, then a repeated row and a linear
    combination of two rows appended at random places."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    m = [[draw(entries(p)) for _ in range(cols)] for _ in range(rows)]
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)) if cols else ():
        for row in m:
            row[j] = 0
    if m and draw(st.booleans()):
        m.insert(draw(st.integers(0, len(m))), list(draw(st.sampled_from(m))))
    if len(m) > 1 and draw(st.booleans()):
        i, k = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
        a, b = draw(entries(p)), draw(entries(p))
        m.insert(draw(st.integers(0, len(m))),
                 [(a * x + b * y) % p for x, y in zip(m[i], m[k])])
    return p, np.array(m, dtype=np.int64).reshape(len(m), cols)


@checked
@given(matrices())
def test_rref_mod_p_equals_gauss_jordan(case):
    p, m = case
    got, pivots = oracle.rref_mod_p(m, p)
    want, want_pivots = reference_rref(m.tolist(), p)
    assert pivots == want_pivots
    assert got.shape == (len(want), m.shape[1])
    assert got.tolist() == want


@checked
@given(matrices(), st.data())
def test_matmul_mod_equals_the_schoolbook_product(case, data):
    p, a = case
    b = np.array(data.draw(st.lists(st.lists(entries(p), min_size=3, max_size=3),
                                    min_size=a.shape[1], max_size=a.shape[1])),
                 dtype=np.int64).reshape(a.shape[1], 3)
    got = oracle._matmul_mod(a, b, p)
    assert got.shape == (a.shape[0], 3)
    assert got.tolist() == reference_matmul(a, b, p)


def test_matmul_mod_is_exact_on_both_sides_of_the_one_product_bound():
    # All entries p - 1, so the partial sums are as large as they get.
    # At p = 2^31 - 1 one product holds for inner 1 and 2, limbs from 3;
    # at p = 101 one product holds far past the 2^15 chunk.
    rng = np.random.default_rng(63)
    for p, inner in ((2**31 - 1, 1), (2**31 - 1, 2), (2**31 - 1, 3), (101, 2**15 + 3)):
        one = (p - 1) ** 2 * inner < 2**63
        assert one == (inner < 3 or p == 101)
        for a, b in ((np.full((2, inner), p - 1), np.full((inner, 3), p - 1)),
                     (rng.integers(0, p, size=(2, inner)), rng.integers(0, p, size=(inner, 3)))):
            a, b = a.astype(np.int64), b.astype(np.int64)
            assert oracle._matmul_mod(a, b, p).tolist() == reference_matmul(a, b, p)


@st.composite
def dense_blocks(draw):
    """(p, matrix): 3..30 rows and 2..40 columns, every entry of the first
    column nonzero except on the diagonal, so the first pivot updates the
    whole matrix; some diagonal entries zeroed, so pivots need row swaps,
    and some rows below the first replaced by combinations of two others
    that keep the first column nonzero."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(3, 30)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(0, p, size=(rows, cols))
    m[:, 0] = rng.integers(1, p, size=rows)
    for i in draw(st.sets(st.integers(0, min(rows, cols) - 1), min_size=1)):
        m[i, i] = 0
    for _ in range(draw(st.integers(0, 3))):
        i, j, k = rng.integers(1, rows, size=3)
        combination = (rng.integers(0, p) * m[j] + rng.integers(0, p) * m[k]) % p
        if combination[0]:
            m[i] = combination
    return p, m


@st.composite
def shift_blocks(draw):
    """(p, matrix): one or two short generator rows, each shifted along
    up to 40 columns, stacked in a random order into 7..30 rows; a column
    holds at most three nonzeros per generator, so updates touch only the
    rows that carry the pivot column."""
    p = draw(st.sampled_from(PRIMES))
    cols = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        gen = rng.integers(0, p, size=draw(st.integers(1, 3)))
        gen[0] = gen[-1] = rng.integers(1, p)
        for shift in range(cols - len(gen) + 1):
            row = np.zeros(cols, dtype=np.int64)
            row[shift:shift + len(gen)] = gen
            rows.append(row)
    order = rng.permutation(len(rows))[:draw(st.integers(7, 30))]
    return p, np.array(rows)[order]


def assert_rref_matches_the_reference(p, m):
    got, pivots = oracle.rref_mod_p(m, p)
    want, want_pivots = reference_rref(m.tolist(), p)
    assert pivots == want_pivots
    assert got.tolist() == want


@checked
@given(dense_blocks())
def test_rref_mod_p_on_dense_blocks_with_row_swaps(case):
    p, m = case
    assert 2 * np.count_nonzero(m[:, 0]) > m.shape[0]    # the whole-matrix branch
    assert_rref_matches_the_reference(p, m)


@checked
@given(shift_blocks())
def test_rref_mod_p_on_tall_sparse_shift_rows(case):
    p, m = case
    first = np.flatnonzero(m.any(axis=0))[0]
    assert 2 * np.count_nonzero(m[:, first]) <= m.shape[0]    # the touched-rows branch
    assert_rref_matches_the_reference(p, m)


def test_rref_mod_p_with_every_entry_p_minus_1_at_the_largest_prime():
    # Every product the update subtracts is (p - 1)^2 or near it, and only
    # two such updates fit in int64 before the matrix is reduced again.
    p = 2**31 - 1
    ones = np.full((12, 14), p - 1, dtype=np.int64)
    full_rank = ones.copy()
    full_rank[np.arange(12), np.arange(12)] = p - 2    # -(J + I): determinant 13
    for m in (ones, full_rank):
        assert_rref_matches_the_reference(p, m)
    assert len(oracle.rref_mod_p(full_rank, p)[1]) == 12


# Largest shift matrix (rows x columns) the echelon comparison reduces in
# pure Python.  It admits 807 of the 924 (code, cap) pairs of the corpus
# at caps 0..10 and keeps the test to a few seconds; the n = 3 codes stop
# at lower caps.
ECHELON_CELLS = 40_000


def shift_cells(c, cap):
    """Entries of the dense matrix of the shifts of degree <= cap."""
    n = c.ring.n
    shifts = sum(comb(cap - deg + n, n) for deg in c.generators.column_degrees() if deg <= cap)
    return shifts * c.q * comb(cap + n, n)


def reference_echelon(c, cap):
    """The RREF by ``reference_rref`` of the shifts of degree <= cap, with
    the columns by ``_keys`` from the highest down: {pivot key: row on the
    other columns}, and the other keys in that order."""
    n, q = c.ring.n, c.q
    terms = oracle._slice(n, (0,) * q, cap)[0][::-1]
    shifts = reference_shift_rows(generator_term_lists(c), n, 0, cap,
                                  {t: i for i, t in enumerate(terms)}, len(terms))
    rows, pivots = reference_rref(shifts.tolist(), c.ring.p)
    free = [i for i in range(len(terms)) if i not in set(pivots)]
    top = len(terms) - 1
    return ({top - i: [row[j] for j in free] for i, row in zip(pivots, rows)},
            [top - j for j in free])


def test_code_echelon_equals_the_from_scratch_reference_at_every_cap():
    for c in acceptance_corpus():
        n, q = c.ring.n, c.q
        echelon, first_cap = oracle._CodeEchelon(c), {}
        for cap in range(11):
            if shift_cells(c, cap) > ECHELON_CELLS:
                break
            echelon.dim(cap, cap)
            rows, free = reference_echelon(c, cap)
            new = sorted(set(rows) - set(first_cap), reverse=True)
            first_cap.update((key, cap) for key in new)
            # Each block appends its pivots from the highest key down.
            assert echelon.pivots.tolist() == list(first_cap)
            assert echelon.pivot_cap.tolist() == list(first_cap.values())
            assert echelon.pivot_deg.tolist() == [
                next(d for d in range(cap + 1) if key < q * comb(d + n, n)) for key in first_cap]
            assert echelon.free.tolist() == free
            assert echelon.rows.tolist() == [rows[key] for key in first_cap]


def echelon_state(echelon):
    return {name: getattr(echelon, name).tolist()
            for name in ("pivots", "pivot_cap", "pivot_deg", "free", "rows")}


def test_one_request_grows_the_echelon_that_cap_by_cap_requests_grow():
    rng = random.Random(37)
    drawn = [random_code(rng, p=p, n=rng.randint(1, 2)) for p in (2, 101, 2**31 - 1)
             for _ in range(8)]
    for c in acceptance_corpus() + drawn:
        n, q = c.ring.n, c.q
        top = max(cap for cap in range(11) if shift_cells(c, cap) <= ECHELON_CELLS)
        by_cap, in_one, in_two = (oracle._CodeEchelon(c) for _ in range(3))
        for cap in range(top + 1):
            by_cap.dim(cap, 0)
        in_one.dim(top, 0)
        in_two.dim(top // 2, 0)
        in_two.dim(top, 0)
        assert in_one.cap == in_two.cap == by_cap.cap == top
        assert echelon_state(in_one) == echelon_state(in_two) == echelon_state(by_cap)
        # Each cap's block, cut from one keying pass, is the loop reference's
        # shifts of that degree, row for row; key k is column k.
        terms = oracle._slice(n, (0,) * q, top)[0]
        index = {t: i for i, t in enumerate(terms)}
        blocks = list(oracle._cap_blocks(in_one.gens, q, 0, top))
        assert [cap for cap, _ in blocks] == list(range(top + 1))
        for cap, block in blocks:
            got = oracle._scatter(*block, np.arange(len(terms)), len(terms))
            want = reference_shift_rows(generator_term_lists(c), n, cap, cap, index, len(terms))
            assert got.shape == want.shape and np.array_equal(got, want)


def test_cached_tables_are_read_only():
    for table in (oracle._exponent_table(2, 0, 3), oracle._binomials(2, 2)):
        with pytest.raises(ValueError):
            table[0, 0] = 1
