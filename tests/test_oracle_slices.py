"""The oracle's slices and maps in ``_keys`` order against the former
``_SliceBasis`` routes kept in ``helpers``.

* The slice helper lists its terms in ``_keys`` order and maps every
  key of degree <= d to its index, or -1 outside a twisted slice.
* ``truncated_exactness`` and kernel spans (compared as RREF in one
  common order) equal the former routes.
* A map that raises a column's twisted degree raises ``DomainError``.
"""

import random
from math import comb

import numpy as np
import pytest

from convres import PolyMatrix, Ring
from convres.errors import DomainError
from convres.oracle import (
    _keys,
    _slice,
    engine_resolution,
    truncated_exactness,
    truncated_kernel,
)

from helpers import (
    acceptance_corpus,
    mat,
    random_complex,
    random_poly,
    reference_slice_terms,
    reference_truncated_exactness,
    reference_truncated_kernel,
    span_rref,
)


def key_of(terms, n, q):
    pos = np.array([pos for pos, _ in terms], dtype=np.int64)
    exps = np.array([e for _, e in terms], dtype=np.int64).reshape(len(terms), n)
    return _keys(pos, exps, q)


def test_slice_terms_are_in_key_order():
    rng = random.Random(5)
    for n in (1, 2, 3):
        for q in (1, 2, 3):
            for d in range(5):
                full, identity = _slice(n, (0,) * q, d)
                assert len(full) == len(identity) == q * comb(d + n, n)
                assert np.array_equal(key_of(full, n, q), np.arange(len(full)))
                assert np.array_equal(identity, np.arange(len(full)))
                twist = tuple(rng.randint(0, 3) for _ in range(q))
                terms, column = _slice(n, twist, d)
                assert sorted(terms) == sorted(reference_slice_terms(n, twist, d))
                inside = key_of(terms, n, q)
                assert np.array_equal(column[inside], np.arange(len(terms)))
                assert np.count_nonzero(column >= 0) == len(terms)
                assert (column[np.setdiff1d(np.arange(len(column)), inside)] == -1).all()


def test_truncated_exactness_equals_the_former_route():
    rng = random.Random(53)
    for _ in range(25):
        cx = random_complex(rng)
        for d in range(7):
            assert truncated_exactness(cx, d) == reference_truncated_exactness(cx, d)
    for c in acceptance_corpus():
        cx = engine_resolution(c).complex
        for d in range(3 if c.ring.n < 3 else 2):
            assert truncated_exactness(cx, d) == reference_truncated_exactness(cx, d)


def assert_same_kernel(g, row_twist, col_twist, d):
    terms = reference_slice_terms(g.ring.n, col_twist, d)
    got = truncated_kernel(g, row_twist, col_twist, d)
    want = reference_truncated_kernel(g, row_twist, col_twist, d)
    assert len(got) == len(want)
    assert np.array_equal(span_rref(got, terms, g.ring.p), span_rref(want, terms, g.ring.p))


def test_kernel_spans_equal_the_former_route():
    # The matrices of test_syzygy_completeness_against_truncated_kernels.
    rng = random.Random(29)
    for _ in range(8):
        ring = Ring(rng.choice([2, 5]), rng.randint(1, 2))
        q, t = rng.randint(1, 2), rng.randint(2, 3)
        while True:
            g = PolyMatrix.from_rows(ring, [[random_poly(rng, ring, 2)
                                             for _ in range(t)] for _ in range(q)])
            if not g.has_zero_column():
                break
        for d in range(5):
            assert_same_kernel(g, (0,) * q, g.column_degrees(), d)
    # A zero column, as in the parity checks of observable codes.
    g = mat(Ring(3, 2), [["D1", "0", "D2"], ["D2^2", "0", "1"]])
    for d in range(5):
        assert_same_kernel(g, (0, 0), (2, 2, 2), d + 2)
        assert_same_kernel(g, (0, 1), (3, 0, 2), d)


def test_a_map_above_its_twisted_degree_raises_domain_error():
    ring = Ring(2, 1)
    with pytest.raises(DomainError, match="column 0"):
        truncated_kernel(mat(ring, [["D1^2"]]), (0,), (0,), 2)
    with pytest.raises(DomainError, match="column 1"):
        truncated_kernel(mat(ring, [["D1", "D1"]]), (1,), (2, 1), 4)
