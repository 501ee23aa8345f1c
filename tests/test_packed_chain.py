"""The packed syzygy chain of ``minimal_resolution`` against its ``Poly`` route.

``_syzygy_chain`` keeps every level as packed columns from the lifted
basis to the report and sets D0 = 1 by dropping a digit; the reference
in ``tests/helpers.py`` packs and unpacks at every public call and
dehomogenizes entry by entry.  Both must give the same complex, the
same strings and the same degree table.
"""

import random

import pytest
from hypothesis import given, settings

from convres import Ring
from convres.complexes import _syzygy_chain, column_degree_table, minimal_resolution
from convres.errors import DomainError
from convres.groebner import ModuleOrder, _flat_degree, _to_flat

from helpers import P, acceptance_corpus, codes, linear_code, reference_minimal_resolution


def _assert_same_resolution(code):
    report = minimal_resolution(code)
    reference, twists = reference_minimal_resolution(code)
    assert ([m.to_strings() for m in report.complex.matrices]
            == [m.to_strings() for m in reference.matrices]), code.generators
    assert report.degree_table == twists == column_degree_table(reference)


def test_packed_chain_matches_the_poly_route_on_the_acceptance_corpus():
    for code in acceptance_corpus():
        _assert_same_resolution(code)


def test_packed_chain_matches_the_poly_route_on_linear_codes():
    rng = random.Random(15)
    for _ in range(20):
        _assert_same_resolution(linear_code(rng))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(codes())
def test_packed_chain_matches_the_poly_route_on_sampled_codes(code):
    _assert_same_resolution(code)


def test_degree_reader_rejects_a_column_with_two_weights():
    t = Ring(101, 2, homog=True)
    order = ModuleOrder(t, (0, 0))
    mixed = _to_flat((P("D1", t), P("D2^2", t)), order)
    with pytest.raises(DomainError, match="not homogeneous"):
        _flat_degree(mixed, order)
    with pytest.raises(DomainError, match="not homogeneous"):
        _syzygy_chain([mixed], order, 3)
    # The same column is homogeneous once the first row is twisted by 1.
    shifted = ModuleOrder(t, (1, 0))
    assert _flat_degree(_to_flat((P("D1", t), P("D2^2", t)), shifted), shifted) == 2
