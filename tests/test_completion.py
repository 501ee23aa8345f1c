"""The resumable completion against the criteria-free references.

Every completion skips pairs by the Gebauer-Moeller criteria,
``minimal_generators`` runs one completion up to the current degree, and
``syzygy_basis`` pulls back only the relations its tracked completion
left.  The route to the minimal resolution is walked one level at a
time, and at each level the engine and the routes of ``tests/helpers.py``
(which reduce every pair) get the same input.  Reduced bases, Hilbert
numerators and minimal generators must be equal.  The syzygies may be
another generating set: each must be a syzygy, and together they must
span the reference's module.  The Forney tables of the two routes must
be equal.
"""

import random

from hypothesis import given, settings

from convres import groebner
from convres.algebra import CodePresentation
from convres.groebner import (
    ModuleOrder,
    SubmodulePresentation,
    _to_flat,
    groebner_basis,
    hilbert_numerator,
    minimal_generators,
    module_equal,
    syzygy_basis,
)

import helpers
from helpers import (
    CANARY_ROWS,
    acceptance_corpus,
    codes,
    graded_column_degrees,
    random_code,
    reference_groebner_basis,
    reference_hilbert_numerator,
    reference_minimal_generators,
    reference_syzygy_basis,
)

ENGINE = (groebner_basis, hilbert_numerator, minimal_generators, syzygy_basis)
REFERENCE = (reference_groebner_basis, reference_hilbert_numerator,
             reference_minimal_generators, reference_syzygy_basis)
TWIN = dict(zip(ENGINE, REFERENCE))


def _route(code, routines):
    """Every call on the way to the minimal resolution of ``code``.

    The reduced basis and the syzygies of the code over S, then over T
    the reduced basis, Hilbert numerator and minimal generators of the
    lifted code and, level by level, the syzygies of the last matrix,
    their Hilbert numerator and their minimal generators.  Returns the
    calls as (routine, arguments, result) and the Forney table.
    """
    calls = []

    def call(routine, *args):
        calls.append((routine, args, routine(*args)))
        return calls[-1][2]

    basis, hilbert, mingens, syzygies = routines
    call(basis, SubmodulePresentation.from_matrix(code.generators))
    call(syzygies, code.generators, None)
    lifted = SubmodulePresentation(code.ring.homogeneous_companion(), code.q,
                                   tuple(helpers._graded_pipeline(code)))
    call(basis, lifted)
    call(hilbert, lifted)
    mat = call(mingens, lifted)
    twists = [lifted.twist]
    for _ in range(code.ring.n + 1):
        twists.append(graded_column_degrees(mat, twists[-1]))
        syz = call(syzygies, mat, twists[-2])
        if syz.ncols == 0:
            break
        pres = SubmodulePresentation.from_matrix(syz, twists[-1])
        call(hilbert, pres)
        mat = call(mingens, pres)
    return calls, tuple(tuple(sorted(t)) for t in twists[1:])


def _assert_same_kernel(matrix, ours, theirs):
    assert (matrix @ ours).is_zero, matrix
    assert (ours.ncols == 0) == (theirs.ncols == 0), matrix
    if ours.ncols:
        assert module_equal(SubmodulePresentation.from_matrix(ours),
                            SubmodulePresentation.from_matrix(theirs)), matrix


def _assert_agrees(code):
    calls, forney = _route(code, ENGINE)
    for routine, args, ours in calls:
        theirs = TWIN[routine](*args)
        if routine is syzygy_basis:
            _assert_same_kernel(args[0], ours, theirs)
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


def _counting_reductions(monkeypatch, modules):
    """Count ``_reduce_flat`` calls made through ``modules``."""
    count = [0]
    real = groebner._reduce_flat

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "_reduce_flat", counted)
    return count


def test_criteria_skip_pairs_on_the_canary(monkeypatch):
    count = _counting_reductions(monkeypatch, (groebner, helpers))
    canary = CodePresentation.from_strings(p=101, n=3, rows=CANARY_ROWS)
    _, forney = _route(canary, ENGINE)
    engine, count[0] = count[0], 0
    _, reference_forney = _route(canary, REFERENCE)
    assert forney == reference_forney
    assert 0 < engine < count[0], (engine, count[0])
    _assert_agrees(canary)


def test_tracked_and_untracked_completions_take_the_same_pairs(monkeypatch):
    count = _counting_reductions(monkeypatch, (groebner,))

    def complete(gens, order, expr_order):
        count[0] = 0
        items = groebner._buchberger(gens, order, expr_order)
        return count[0], [(it.flat, sorted(it.relations)) for it in items]

    canary = CodePresentation.from_strings(p=101, n=3, rows=CANARY_ROWS)
    kernels = 0
    for code in [canary] + acceptance_corpus()[:20]:
        for routine, args, _ in _route(code, ENGINE)[0]:
            if routine is not syzygy_basis:
                continue
            matrix, twist = args
            order = ModuleOrder(matrix.ring, twist or (0,) * matrix.nrows)
            gens = [_to_flat(col, order) for col in matrix.columns()]
            tracked = complete(gens, order, ModuleOrder(matrix.ring, matrix.column_degrees(twist)))
            assert tracked == complete(gens, order, None), matrix
            kernels += 1
    assert kernels > 20
