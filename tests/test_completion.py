"""The resumable completion against the criteria-free references.

Every completion skips pairs by the Gebauer-Moeller criteria,
``_minimal_level`` resumes one tracked completion up to the current
degree to pick minimal generators and then takes their syzygies from
it, and ``_syzygies_flat`` takes only the syzygies its tracked
completion's pairs left.  The route to the minimal resolution is walked
one level at a time on packed columns, and at each level the packed
core and the routes of ``tests/helpers.py`` (which reduce every pair)
get the same input.  Reduced bases and Hilbert numerators must be equal.
A level must keep as many columns of each degree as the reference's
minimal generators, their span and the completion of it must be the
reference's, and its syzygies, which may be another generating set,
must each be a syzygy of the kept columns and together span the
reference's module of them.  The Forney tables of the two routes must
be equal.  In every tracked completion on the route, each item must be
its expression applied to the inputs and each syzygy left must vanish
on them.
"""

import random

import pytest
from hypothesis import given, settings

from convres import groebner
from convres.algebra import CodePresentation
from convres.groebner import (
    ModuleOrder,
    _addmul,
    _buchberger,
    _flat_degree,
    _interreduce,
    _lead_numerator,
    _minimal_level,
    _MASK,
)

import helpers
from helpers import (
    CANARY_ROWS,
    acceptance_corpus,
    codes,
    core_syzygies,
    pack,
    random_code,
    reduced_basis,
    reference_buchberger,
    reference_groebner_basis,
    reference_hilbert_numerator,
    reference_minimal_generators,
    reference_syzygy_basis,
)


def core_hilbert_numerator(gens_flat, order):
    """The numerator from the leads of one completion (``_lead_numerator``)."""
    return _lead_numerator(((it.pos, it.exps) for it in _buchberger(gens_flat, order).items),
                           order.twist, order.ring.nvars)


def reference_level(gens_flat, order):
    """A level of the two-pass route on the references: the minimal
    generators of the candidates (``reference_minimal_generators``), the
    order of their degrees, their syzygies (``reference_syzygy_basis``)
    and their criteria-free completion, as ``_minimal_level`` returns."""
    kept = [gens_flat[k] for k in reference_minimal_generators(gens_flat, order)]
    syz_order = ModuleOrder(order.ring, tuple(_flat_degree(c, order) for c in kept))
    return (kept, syz_order, reference_syzygy_basis(kept, order, syz_order),
            reference_buchberger(kept, order))


ENGINE = (reduced_basis, core_hilbert_numerator, _minimal_level, core_syzygies)
REFERENCE = (reference_groebner_basis, reference_hilbert_numerator,
             reference_level, reference_syzygy_basis)
TWIN = dict(zip(ENGINE, REFERENCE))


def _route(code, routines):
    """Every call on the way to the minimal resolution of ``code``.

    The reduced basis and the syzygies of the code over S, then over T
    the reduced basis and Hilbert numerator of the lifted code and,
    level by level, the minimal generators of the candidates and their
    syzygies, the next level's candidates, with their Hilbert
    numerator, all on packed columns.  Returns the calls as (routine,
    arguments, result) and the Forney table.
    """
    calls = []

    def call(routine, *args):
        calls.append((routine, args, routine(*args)))
        return calls[-1][2]

    basis, hilbert, level, syzygies = routines
    order = ModuleOrder(code.ring, (0,) * code.q)
    gens = pack(code.generators.columns(), order)
    call(basis, gens, order)
    call(syzygies, gens, order, ModuleOrder(code.ring, code.generators.column_degrees()))
    order = ModuleOrder(code.ring.homogeneous_companion(), (0,) * code.q)
    cols = pack(helpers._graded_pipeline(code), order)
    call(basis, cols, order)
    call(hilbert, cols, order)
    twists = []
    for _ in range(code.ring.n + 1):
        _, syz_order, syz, _ = call(level, cols, order)
        twists.append(syz_order.twist)
        if not syz:
            break
        order, cols = syz_order, syz
        call(hilbert, cols, order)
    return calls, tuple(tuple(sorted(t)) for t in twists)


def _times(syz, cols, syz_order, order):
    """The packed product of the columns with one syzygy of theirs."""
    units = {syz_order.pack((j, (0,) * order.ring.nvars)) & _MASK: (j, syz_order.pack(
        (j, (0,) * order.ring.nvars))) for j in range(len(cols))}
    out: dict = {}
    for t, c in syz.items():
        j, unit = units[t & _MASK]
        _addmul(out, cols[j], c, t - unit, order.ring.p)
    return out


def _assert_same_kernel(args, ours, theirs):
    cols, order, syz_order = args
    assert not any(_times(s, cols, syz_order, order) for s in ours), cols
    assert bool(ours) == bool(theirs), cols
    if ours:
        assert reduced_basis(ours, syz_order) == reduced_basis(theirs, syz_order), cols


def _assert_same_level(args, ours, theirs):
    order = args[1]
    kept, syz_order, syz, items = ours
    # As many kept columns of each degree, the same span, and the items
    # complete it.
    assert syz_order.twist == theirs[1].twist, args[0]
    assert [it.flat for it in _interreduce(items, order)] == reference_groebner_basis(
        theirs[0], order), args[0]
    _assert_same_kernel((kept, order, syz_order), syz,
                        reference_syzygy_basis(kept, order, syz_order))


def _assert_agrees(code):
    calls, forney = _route(code, ENGINE)
    for routine, args, ours in calls:
        theirs = TWIN[routine](*args)
        if routine is core_syzygies:
            _assert_same_kernel(args, ours, theirs)
        elif routine is _minimal_level:
            _assert_same_level(args, ours, theirs)
        else:
            assert ours == theirs, code.generators
    assert forney == _route(code, REFERENCE)[1], code.generators


def test_engine_agrees_with_the_references_on_the_acceptance_corpus():
    for c in acceptance_corpus():
        _assert_agrees(c)


def test_engine_agrees_with_the_references_on_seeded_codes():
    rng = random.Random(1010)
    for _ in range(40):
        _assert_agrees(random_code(rng, max_cols=4))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(codes())
def test_engine_agrees_with_the_references_on_drawn_codes(c):
    _assert_agrees(c)


def _counting_reductions(monkeypatch, targets):
    """Count the calls of the divisions ``targets`` names as (module, name)."""
    count = [0]
    for module, name in targets:
        def counted(*args, real=getattr(module, name), **kwargs):
            count[0] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return count


def test_criteria_skip_pairs_on_the_canary(monkeypatch):
    # The references divide by ``reference_division`` where they track
    # quotients and by the engine's ``_reduce_flat`` elsewhere.
    count = _counting_reductions(monkeypatch, ((groebner, "_reduce_flat"),
                                               (helpers, "_reduce_flat"),
                                               (helpers, "reference_division")))
    canary = CodePresentation.from_strings(p=101, n=3, rows=CANARY_ROWS)
    _, forney = _route(canary, ENGINE)
    engine, count[0] = count[0], 0
    _, reference_forney = _route(canary, REFERENCE)
    assert forney == reference_forney
    assert 0 < engine < count[0], (engine, count[0])
    _assert_agrees(canary)


def test_tracked_and_untracked_completions_take_the_same_pairs(monkeypatch):
    count = _counting_reductions(monkeypatch, ((groebner, "_reduce_flat"),))

    def complete(gens, order, expr_order):
        count[0] = 0
        items = groebner._buchberger(gens, order, expr_order).items
        return count[0], [it.flat for it in items]

    canary = CodePresentation.from_strings(p=101, n=3, rows=CANARY_ROWS)
    kernels = 0
    for code in [canary] + acceptance_corpus()[:20]:
        for routine, args, result in _route(code, ENGINE)[0]:
            if routine is core_syzygies:
                gens, order, syz_order = args
            elif routine is _minimal_level:
                (gens, syz_order), order = result[:2], args[1]
            else:
                continue
            tracked = complete(gens, order, syz_order)
            assert tracked == complete(gens, order, None), gens
            kernels += 1
    assert kernels > 20


def _tracked_runs(code):
    """Every tracked completion on the way to the minimal resolution of
    ``code`` (``_route``), each with its inputs and the orders that pack
    the inputs and their expressions."""
    completions = []

    def spy(completion, real=groebner._schreyer):
        completions.append(completion)
        return real(completion)

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_schreyer", spy)
        for routine, args, result in _route(code, ENGINE)[0]:
            if routine is core_syzygies:
                runs.append(args)
            elif routine is _minimal_level:
                runs.append((result[0], args[1], result[1]))
    assert len(runs) == len(completions), code.generators
    return list(zip(runs, completions))


def _assert_expressions_hold(code):
    """Each item of a tracked run is its expression applied to the
    inputs, and each syzygy the run left applied to them is zero.
    Returns the numbers of items and of syzygies checked."""
    items = syzygies = 0
    for (inputs, order, expr_order), completion in _tracked_runs(code):
        for it in completion.items:
            assert _times(it.expr, inputs, expr_order, order) == it.flat, code.generators
        for syz in completion.syzygies.values():
            assert syz and not _times(syz, inputs, expr_order, order), code.generators
        items += len(completion.items)
        syzygies += len(completion.syzygies)
    return items, syzygies


def test_tracked_expressions_hold_on_the_acceptance_corpus():
    counts = [_assert_expressions_hold(c) for c in acceptance_corpus()]
    assert min(map(sum, zip(*counts))) > 0, counts


@settings(derandomize=True, deadline=None, max_examples=60)
@given(codes())
def test_tracked_expressions_hold_on_drawn_codes(c):
    _assert_expressions_hold(c)
