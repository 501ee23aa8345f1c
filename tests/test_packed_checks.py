"""``check_resolution`` and ``is_observable`` on packed columns against the
``Poly`` routes they replaced.

``check_resolution`` runs one tracked completion per level and reduces
the syzygies of each level against the Groebner basis of the next
level's image; its reference (``reference_check_resolution``) computes
the syzygies of every level and compares reduced bases of image and
kernel.  ``is_observable`` reduces the generators of ker H against a
Groebner basis of the code; its reference (``reference_is_observable``)
compares the reduced bases of the code and of ker H, both kernels taken
the former way, with zero columns and transposes of ``Poly`` matrices.
Verdicts must be equal on both routes' syzygies, and the parity check
and the witness on the packed core's own syzygies, which the report
prints.
"""

from hypothesis import given, settings

from convres.complexes import check_resolution, minimal_resolution, validate_complex
from convres.observability import is_observable

from helpers import (
    acceptance_corpus,
    benchmark_complexes,
    benchmark_documents,
    codes,
    complexes,
    core_syzygies,
    probe_corpus,
    reference_check_resolution,
    reference_is_observable,
    resolution_without_minimalization,
)

checked = settings(derandomize=True, deadline=None, max_examples=60)


def _assert_resolution_verdicts_agree(cases):
    verdicts = [check_resolution(cx) for cx in cases]
    assert verdicts == [reference_check_resolution(cx) for cx in cases]
    return verdicts


def _assert_observability_agrees(code):
    rep = is_observable(code)
    assert rep == reference_is_observable(code, route=core_syzygies), code.generators
    assert rep.observable == reference_is_observable(code).observable, code.generators
    return rep.observable


def test_check_resolution_equals_the_poly_route_on_the_probe_corpus():
    assert set(_assert_resolution_verdicts_agree(probe_corpus())) == {True, False}


def test_check_resolution_equals_the_poly_route_on_damaged_koszul_complexes():
    cases = benchmark_complexes(3000)
    assert len(cases) > 700
    assert set(_assert_resolution_verdicts_agree(cases)) == {True, False}


def test_check_resolution_equals_the_poly_route_on_the_acceptance_corpus():
    cases = []
    for c in acceptance_corpus():
        cases += [validate_complex([c.generators]), minimal_resolution(c).complex,
                  resolution_without_minimalization(c).complex]
    assert set(_assert_resolution_verdicts_agree(cases)) == {True, False}


@checked
@given(complexes())
def test_check_resolution_equals_the_poly_route_on_drawn_complexes(cx):
    assert check_resolution(cx) == reference_check_resolution(cx)


def test_observability_equals_the_poly_route_on_benchmark_codes():
    docs = benchmark_documents("observable", 3000)
    assert len(docs) > 600
    assert {_assert_observability_agrees(doc.code) for doc in docs} == {True, False}


def test_observability_equals_the_poly_route_on_the_acceptance_corpus():
    verdicts = {_assert_observability_agrees(c) for c in acceptance_corpus()}
    assert verdicts == {True, False}


@checked
@given(codes())
def test_observability_equals_the_poly_route_on_drawn_codes(code):
    _assert_observability_agrees(code)
