"""Hilbert numerators of monomial ideals and lead-term modules.

``monomial_hilbert_numerator`` is checked against brute-force counts of
standard monomials and against closed forms on powers of the maximal
ideal that defeat a naive split; the numerator of the image of G_1^L,
from the leads of one completion (``_lead_numerator``), is checked
against ``hilbert_formula`` over the degree table, and so are the values
``hilbert`` prints, read from the leads of the code's own completion
over S (``code_hilbert_values``).
"""

import time
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convres import Ring
from convres.complexes import code_hilbert_values, minimal_resolution
from convres.errors import DomainError
from convres.groebner import (
    ModuleOrder,
    _buchberger,
    _flat_degree,
    _lead_numerator,
    monomial_hilbert_numerator,
)
from convres.invariants import hilbert_values

from helpers import acceptance_corpus, codes, mat, pack, unpacked_lift

checked = settings(derandomize=True, deadline=None, max_examples=60)


def series(numerator, n, d_max):
    """Coefficients of t^0..t^d_max in numerator / (1 - t)^n."""
    return [sum(c * comb(d - k + n - 1, n - 1) for k, c in numerator.items() if k <= d)
            for d in range(d_max + 1)]


def standard_monomial_counts(gens, n, d_max):
    """Monomials of each degree <= d_max outside the ideal, by enumeration."""
    counts = [0] * (d_max + 1)
    for e in product(range(d_max + 1), repeat=n):
        if sum(e) <= d_max and not any(all(a <= b for a, b in zip(g, e)) for g in gens):
            counts[sum(e)] += 1
    return counts


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=8))
    return n, gens


@checked
@given(monomial_ideals())
def test_monomial_numerator_counts_standard_monomials(ideal):
    n, gens = ideal
    assert series(monomial_hilbert_numerator(gens, n), n, 8) == \
        standard_monomial_counts(gens, n, 8)


def test_monomial_numerator_small_cases():
    assert monomial_hilbert_numerator([], 2) == {0: 1}
    assert monomial_hilbert_numerator([(0, 0)], 2) == {}
    assert monomial_hilbert_numerator([(1, 0), (0, 1)], 2) == {0: 1, 1: -2, 2: 1}
    # (x^2, xy): 1 - 2t^2 + t^3, with a redundant generator x^2 y
    assert monomial_hilbert_numerator([(2, 0), (1, 1), (2, 1)], 2) == {0: 1, 2: -2, 3: 1}
    with pytest.raises(DomainError):
        monomial_hilbert_numerator([(1, 0)], 3)
    with pytest.raises(DomainError):
        monomial_hilbert_numerator([(1, -1)], 2)


def maximal_ideal_power_numerator(n, N):
    """sum_{e < N} C(e + n - 1, n - 1) t^e (1 - t)^n, the numerator of S/m^N."""
    out = {}
    for e in range(N):
        c = comb(e + n - 1, n - 1)
        for j in range(n + 1):
            out[e + j] = out.get(e + j, 0) + c * comb(n, j) * (-1) ** j
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("n, N", [(2, 1500), (3, 40)])
def test_powers_of_the_maximal_ideal_are_fast_and_exact(n, N):
    gens = [e for e in product(range(N + 1), repeat=n) if sum(e) == N]
    start = time.monotonic()
    numerator = monomial_hilbert_numerator(gens, n)
    elapsed = time.monotonic() - start
    assert numerator == maximal_ideal_power_numerator(n, N)
    assert elapsed < 2.0, f"(D1..D{n})^{N} took {elapsed:.2f} s"


def test_huge_exponents_stay_sparse():
    assert monomial_hilbert_numerator([(2**40, 0), (0, 3)], 2) == \
        {0: 1, 3: -1, 2**40: -1, 2**40 + 3: 1}


def numerator_of_span(m, twist=None):
    """The numerator of the span of a matrix's columns under ``twist``,
    from the leads of one completion."""
    order = ModuleOrder(m.ring, twist or (0,) * m.nrows)
    items = _buchberger(pack(m.columns(), order), order).items
    return _lead_numerator(((it.pos, it.exps) for it in items), order.twist, m.ring.nvars)


def test_hilbert_numerator_of_a_module():
    r = Ring(101, 2)
    # (D1, D2) in S(-0): the ideal m, numerator 1 - (1 - t)^2 = 2t - t^2
    assert numerator_of_span(mat(r, [["D1", "D2"]])) == {1: 2, 2: -1}
    # the free module S(-1) + S(-3) inside itself
    assert numerator_of_span(mat(r, [["1", "0"], ["0", "1"]]), (1, 3)) == {1: 1, 3: 1}


def test_hilbert_numerator_rejects_inhomogeneous_generators():
    # The degree reader refuses a column without one twisted degree.
    r = Ring(101, 2)
    for m, twist in ((mat(r, [["D1 + 1"]]), (0,)), (mat(r, [["D1"], ["D2"]]), (0, 1))):
        order = ModuleOrder(r, twist)
        with pytest.raises(DomainError):
            _flat_degree(pack(m.columns(), order)[0], order)


# -- a second route to hilbert_formula --------------------------------------

def assert_lead_image_matches_the_formula(c):
    """dim C_{<=d} read from HS(im G_1^L) equals the alternating binomial sum."""
    report = minimal_resolution(c)
    g1 = unpacked_lift(report.complex)[1][0]
    numerator = numerator_of_span(g1)
    per_degree = series(numerator, c.ring.n, 6)
    cumulative = [sum(per_degree[:d + 1]) for d in range(7)]
    assert cumulative == hilbert_values(report.degree_table, c.ring.n, 6), \
        c.generators.to_strings()


def test_lead_image_hilbert_series_matches_the_formula_on_the_acceptance_corpus():
    for c in acceptance_corpus():
        assert_lead_image_matches_the_formula(c)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(codes())
def test_lead_image_hilbert_series_matches_the_formula(c):
    assert_lead_image_matches_the_formula(c)


def assert_leads_route_matches_the_formula(c):
    """``code_hilbert_values`` equals the formula on the resolution's table, d <= 8."""
    want = hilbert_values(minimal_resolution(c).degree_table, c.ring.n, 8)
    assert code_hilbert_values(c, 8) == want, c.generators.to_strings()


def test_code_hilbert_values_match_the_resolution_on_the_acceptance_corpus():
    for c in acceptance_corpus():
        assert_leads_route_matches_the_formula(c)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(codes())
def test_code_hilbert_values_match_the_resolution(c):
    assert_leads_route_matches_the_formula(c)
