"""The packed syzygy chain of ``minimal_resolution`` against its ``Poly`` route.

``_lifted_code`` homogenizes the code's reduced basis on packed terms;
its reference unpacks the basis to ``Poly`` and homogenizes entry by
entry.  ``_syzygy_chain`` keeps every level as packed columns from the
lifted basis to the report and sets D0 = 1 by dropping a digit; the reference
in ``tests/helpers.py`` packs and unpacks at every public call and
dehomogenizes entry by entry.  Both must give the same complex, the
same strings and the same degree table.

Each level is one tracked completion (``_minimal_level``), so one
``minimal_resolution`` runs one completion per level and one over S.
The two-pass route it replaced (minimal generators by one run, their
syzygies by a second) may give other matrices, but the same degree and
Forney tables, and both complexes pass every check.

The exactness proof reads the Hilbert numerators of G^L off the leads
the chain's own runs left; the fresh route (a criteria-free
Hilbert numerator of each level of G^L of the report) is its reference.  A chain
broken on purpose must fail the checks with ``InvariantError``, and so must a
report whose degree table or minimality verdict disagrees with the chain.
"""

import random
import re

import pytest
from hypothesis import given, settings

from convres import Ring, complexes, groebner
from convres.algebra import CodePresentation
from convres.cli import main
from convres.complexes import (
    _lifted_code,
    _syzygy_chain,
    check_minimal,
    check_reduced,
    check_resolution,
    column_degree_table,
    minimal_resolution,
)
from convres.errors import DomainError, InvariantError
from convres.groebner import (
    ModuleOrder,
    _buchberger,
    _flat_degree,
    _from_flat,
    _interreduce,
    _lead_numerator,
    _to_flat,
)
from convres.invariants import forney_table

from helpers import (
    P,
    _graded_pipeline,
    acceptance_corpus,
    codes,
    homogenize,
    linear_code,
    pack,
    packed_chain,
    reference_hilbert_numerator,
    reference_minimal_resolution,
    two_pass_resolution,
    unpacked_lift,
)

# Seeded small-mix benchmark codes (p, n, rows) whose level-2 numerators
# from the chain's leads disagreed with the fresh route while the D0
# digit was packed below the degree digit.
D0_BELOW_DEGREE = [
    (5, 2, [["3*D1^2 + 3*D2^2 + 4", "0", "D1*D2"],
            ["2*D1*D2 + D2 + 4", "D1^2 + 4*D1*D2 + 2*D2", "0"]]),
    (101, 2, [["56*D1^2 + 65*D2^2 + 74*D1", "86", "0"],
              ["55*D2^2", "21*D1*D2 + 100*D1 + 24*D2", "86*D1^2"]]),
    (2, 2, [["D2^2 + D1", "D2^2 + 1", "D2^2 + D2"],
            ["D1 + D2", "D1^2 + D1*D2 + D2", "D1^2 + D1*D2 + D2^2"]]),
    (3, 2, [["D1 + D2", "2*D1*D2", "D1^2 + 2*D1*D2 + D1"], ["0", "0", "0"],
            ["D1 + 2*D2", "D1*D2 + 2*D2", "2*D2"]]),
    (101, 2, [["58*D2", "10*D1*D2 + 48*D1 + 51", "67*D2"],
              ["72*D1^2 + 71*D2^2 + 67", "46*D1^2 + 44*D2 + 32", "0"]]),
    (3, 2, [["2*D1*D2 + D2^2 + 2*D1", "0", "2*D1*D2 + D2^2 + 2"],
            ["D1^2 + D1 + 2", "D2^2 + D1 + 2", "2*D2"]]),
    (2, 2, [["D1*D2 + D2^2 + D2", "D1^2 + D2^2", "0"],
            ["D1^2 + D1", "D1^2", "D1*D2 + D2^2"]]),
    (101, 2, [["0", "24*D1^2 + 20*D2 + 54", "71*D1*D2"],
              ["14*D1", "14*D1^2 + 58*D1*D2 + 6*D2", "77*D1^2 + 35*D2"]]),
]


def _assert_same_lift(code):
    order = ModuleOrder(code.ring.homogeneous_companion(), (0,) * code.q)
    assert _lifted_code(code, order) == [_to_flat(g, order) for g in _graded_pipeline(code)]


def test_packed_lift_matches_the_poly_lift_on_the_acceptance_corpus():
    for code in acceptance_corpus():
        _assert_same_lift(code)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(codes())
def test_packed_lift_matches_the_poly_lift_on_sampled_codes(code):
    _assert_same_lift(code)


def test_packed_lift_keeps_a_twist():
    # Under a twist the D0 exponent of a term is the element's weight
    # minus the term's weight.
    code = CodePresentation.from_strings(p=7, n=2, rows=[["D1^2 + D2", "D1"], ["D2", "1"]])
    t = code.ring.homogeneous_companion()
    order = ModuleOrder(t, (1, 0))
    s_order = ModuleOrder(code.ring, (1, 0))
    lifted = []
    for g in _interreduce(_buchberger([_to_flat(c, s_order) for c in code.generators.columns()],
                                      s_order).items, s_order):
        col = _from_flat(s_order, g.flat)
        d = max(f.degree + a for f, a in zip(col, (1, 0)) if f)
        lifted.append(_to_flat(tuple(homogenize(f, d - a) for f, a in zip(col, (1, 0))), order))
    assert _lifted_code(code, order) == lifted


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


# -- one completion per level against the two-pass route ----------------------

def test_one_completion_per_level_and_one_over_s(monkeypatch):
    made = []

    class Counted(groebner._Completion):
        def __init__(self, order, *args, **kwargs):
            made.append(order.ring.homog)
            super().__init__(order, *args, **kwargs)

    monkeypatch.setattr(groebner, "_Completion", Counted)
    for code in [KOSZUL_3] + acceptance_corpus():
        made.clear()
        length = minimal_resolution(code).complex.length
        assert made == [False] + [True] * length, code.generators


def _assert_two_pass_agrees(code):
    report = minimal_resolution(code)
    two_pass, twists = two_pass_resolution(code)
    assert report.degree_table == twists == column_degree_table(two_pass), code.generators
    assert forney_table(report.degree_table) == tuple(tuple(sorted(level)) for level in twists)
    for cx in (report.complex, two_pass):
        assert check_resolution(cx) and check_reduced(cx) and check_minimal(cx), cx.matrices


def test_one_run_per_level_matches_the_two_pass_route_on_the_acceptance_corpus():
    for code in acceptance_corpus():
        _assert_two_pass_agrees(code)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(codes())
def test_one_run_per_level_matches_the_two_pass_route_on_sampled_codes(code):
    _assert_two_pass_agrees(code)


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


# -- the exactness proof from the chain's own leads ---------------------------

def _assert_chain_numerators_are_fresh(code):
    levels, orders, leads = packed_chain(code)
    chain = [_lead_numerator(lv, order.twist, code.ring.nvars)
             for lv, order in zip(leads, orders)]
    report = minimal_resolution(code)
    table = ((0,) * code.q,) + report.degree_table
    orders = [ModuleOrder(code.ring, twist) for twist in table]
    fresh = [reference_hilbert_numerator(pack(m.columns(), order), order)
             for m, order in zip(unpacked_lift(report.complex)[1], orders)]
    assert chain == fresh, code.generators


def test_chain_numerators_match_the_fresh_route_on_the_acceptance_corpus():
    for code in acceptance_corpus():
        _assert_chain_numerators_are_fresh(code)


def test_chain_numerators_match_the_fresh_route_on_linear_codes():
    rng = random.Random(15)
    for _ in range(20):
        _assert_chain_numerators_are_fresh(linear_code(rng))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(codes())
def test_chain_numerators_match_the_fresh_route_on_sampled_codes(code):
    _assert_chain_numerators_are_fresh(code)


@pytest.mark.parametrize("p, n, rows", D0_BELOW_DEGREE)
def test_chain_numerators_match_where_d0_packed_below_the_degree_failed(p, n, rows):
    _assert_chain_numerators_are_fresh(CodePresentation.from_strings(p=p, n=n, rows=rows))


KOSZUL_3 = CodePresentation.from_strings(p=101, n=3, rows=[["D1", "D2", "D3"]])


def _drop_syzygy_column(level):
    real, calls = complexes._minimal_level, []

    def pruned(gens, order):
        calls.append(None)
        out = real(gens, order)
        return real(out[0][:-1], order) if len(calls) == level else out
    return "_minimal_level", pruned


def _drop_item(gens, order, real=complexes._minimal_level):
    kept, syz_order, syz, items = real(gens, order)
    return kept, syz_order, syz, items[1:]


def _chain_with(change):
    def mutated(gens, order, max_levels, real=complexes._syzygy_chain):
        levels, orders, leads = real(gens, order, max_levels)
        change(levels, leads)
        return levels, orders, leads
    return "_syzygy_chain", mutated


def _bump_coefficient(level):
    def change(levels, leads):
        col = levels[level - 1][0]
        t = max(col)
        col[t] = col[t] % 100 + 1
    return _chain_with(change)


def _shifted_table(cx, real=complexes.column_degree_table):
    first, *rest = real(cx)
    return ((first[0] + 1,) + first[1:], *rest)


def _scalar_found(levels, orders):
    return (2, 0, 0)


# Each builds a fresh (name in complexes, replacement) pair; the
# message names the check that must catch it.
NOT_EXACT, NOT_ZERO = "leading part complex is not exact", "G_1 G_2 is not zero"
MUTATIONS = {
    "syzygy column dropped at level 2": (lambda: _drop_syzygy_column(2), NOT_EXACT),
    "syzygy column dropped at level 3": (lambda: _drop_syzygy_column(3), NOT_EXACT),
    "completion item dropped": (lambda: ("_minimal_level", _drop_item), NOT_EXACT),
    "lead dropped": (lambda: _chain_with(lambda levels, leads: leads[1].pop(0)), NOT_EXACT),
    "coefficient changed at level 1": (lambda: _bump_coefficient(1), NOT_ZERO),
    "coefficient changed at level 2": (lambda: _bump_coefficient(2), NOT_ZERO),
    "degree table shifted": (lambda: ("column_degree_table", _shifted_table),
                             "degree table drifted from the graded twists"),
    "scalar entry reported": (lambda: ("_scalar_entry", _scalar_found),
                              "construction must yield a minimal reduced resolution$"),
}


@pytest.mark.parametrize("mutation, message", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_a_broken_chain_raises_invariant_error(mutation, message, monkeypatch):
    assert minimal_resolution(KOSZUL_3).complex.sizes == (3, 3, 1)
    monkeypatch.setattr(complexes, *mutation())
    with pytest.raises(InvariantError, match=message):
        minimal_resolution(KOSZUL_3)


@pytest.mark.parametrize("mutation, message", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_a_broken_chain_exits_2_without_a_report(mutation, message, monkeypatch, tmp_path,
                                                 capsys):
    path = tmp_path / "code.json"
    path.write_text('{"p": 101, "n": 3, "kind": "code", "matrix": [["D1", "D2", "D3"]]}')
    monkeypatch.setattr(complexes, *mutation())
    assert main(["resolve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and re.search(message, err)
