"""The oracle's elimination kernels against pure-Python references.

Every reference route of the other oracle tests reduces with
``rref_mod_p`` itself; here ``rref_mod_p`` (rows and pivot list) and
``_matmul_mod`` meet a list-based Gauss-Jordan and a schoolbook product
from ``helpers``, over F_p for p in {2, 3, 101, 2^31 - 1}, on empty and
one-row matrices, zero columns, and repeated and dependent rows, and
``_matmul_mod`` on both sides of its one-product bound
(p - 1)^2 * inner < 2^63.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from convres import oracle

from helpers import reference_matmul, reference_rref

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
