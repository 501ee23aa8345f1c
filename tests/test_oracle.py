import random

import numpy as np
import pytest

from convres import Ring
from convres.complexes import minimal_resolution, validate_complex
from convres.errors import StructuralError
from convres.invariants import hilbert_formula
from convres import oracle
from convres.oracle import (
    hilbert_oracle,
    nullspace_mod_p,
    rref_mod_p,
    truncated_code_space,
    truncated_exactness,
    truncated_kernel,
)

from helpers import (
    code,
    combine,
    koszul_code,
    koszul_complex,
    mat,
    random_code,
    reference_memory_recovery_check,
)


def test_rref_and_nullspace():
    m = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    rref, pivots = rref_mod_p(m, 5)
    assert pivots == [0, 1]
    ns = nullspace_mod_p(m, 5)
    assert ns.shape[0] == 1
    assert not ((m @ ns.T) % 5).any()


def test_truncated_code_space_dimensions():
    c = koszul_code()
    space = truncated_code_space(c, 1)
    assert space.dimension == 2
    assert truncated_code_space(c, 0).dimension == 0
    report = minimal_resolution(c)
    for d in range(4):
        assert truncated_code_space(c, d).dimension == hilbert_formula(
            report.degree_table, c.ring.n, d)


def test_truncated_code_space_full_module():
    from math import comb
    r = Ring(3, 2)
    c = code(r, [["1"]])
    for d in range(4):
        assert truncated_code_space(c, d).dimension == comb(d + 2, 2)


def test_hilbert_oracle_koszul_values():
    c = koszul_code()
    assert [hilbert_oracle(c, d) for d in range(5)] == [0, 2, 5, 9, 14]


def test_raising_cap_never_changes_dimensions():
    rng = random.Random(71)
    for _ in range(4):
        c = random_code(rng, n=rng.randint(1, 2))
        for d in range(0, 4):
            base = truncated_code_space(c, d)
            more = truncated_code_space(c, d, cap=base.cap_used + 2)
            assert more.dimension == base.dimension


def test_truncated_exactness_examples():
    assert truncated_exactness(koszul_complex(), 3)
    r = Ring(2, 1)
    bad = validate_complex([mat(r, [["D1 + 1", "D1"], ["D1", "D1"]])])
    assert not truncated_exactness(bad, 1)
    ident = validate_complex([mat(Ring(2, 2), [["1", "0"], ["0", "1"]])])
    for d in range(5):
        assert truncated_exactness(ident, d)


def test_truncated_kernel_matches_koszul_relation():
    r = Ring(2, 2)
    g = mat(r, [["D1", "D2"]])
    vecs = truncated_kernel(g, (0,), (1, 1), 2)
    assert len(vecs) == 1
    d1, d2 = g.entry(0, 0), g.entry(0, 1)
    y = vecs[0]
    assert combine(d1 * y[0], d2 * y[1]).is_zero


def test_memory_recovery():
    c = koszul_code()
    assert reference_memory_recovery_check(c, 1, 4)
    assert not reference_memory_recovery_check(c, 0, 3)
    r = Ring(2, 2)
    free = code(r, [["D1"], ["D2"]])
    assert reference_memory_recovery_check(free, 1, 4)
    with pytest.raises(StructuralError):
        reference_memory_recovery_check(c, 3, 3)


def test_monomial_enumeration_edges():
    terms, column = oracle._slice(2, (0, 0, 0), -1)
    assert terms == [] and column.size == 0
    terms, column = oracle._slice(1, (0, 0), 0)
    assert terms == [(0, (0,)), (1, (0,))] and list(column) == [0, 1]
