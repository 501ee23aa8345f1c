"""The resumable completion against the criteria-free references.

``groebner_basis``, ``hilbert_numerator`` and ``minimal_generators``
skip pairs by the Gebauer-Moeller criteria, ``minimal_generators`` runs
one completion up to the current degree, and ``syzygy_basis`` keeps the
relations of the pairs its completion reduced to zero.  None of this may
change a result: each is compared, column for column, with the routes of
``tests/helpers.py`` that reduce every pair and re-reduce every pair.
"""

import random

from hypothesis import given, settings

from convres import groebner
from convres.algebra import CodePresentation
from convres.complexes import _graded_pipeline
from convres.groebner import (
    SubmodulePresentation,
    groebner_basis,
    hilbert_numerator,
    minimal_generators,
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


def _route(code, routines):
    """Every engine result on the way to the minimal resolution of ``code``.

    The reduced basis and the syzygies of the code over S, then over T
    the Hilbert numerator and minimal generators of the lifted code and,
    level by level, the syzygies of the last matrix, their Hilbert
    numerator and their minimal generators.
    """
    basis, hilbert, mingens, syzygies = routines
    pres = SubmodulePresentation.from_matrix(code.generators)
    out = [basis(pres), syzygies(code.generators).entries]
    lifted = SubmodulePresentation(code.ring.homogeneous_companion(), code.q,
                                   tuple(_graded_pipeline(code)))
    out.append(basis(lifted))
    out.append(hilbert(lifted))
    mat = mingens(lifted)
    twists = [lifted.twist]
    for _ in range(code.ring.n + 1):
        out.append(mat.entries)
        twists.append(graded_column_degrees(mat, twists[-1]))
        syz = syzygies(mat, row_twist=twists[-2])
        out.append(syz.entries)
        if syz.ncols == 0:
            break
        pres = SubmodulePresentation.from_matrix(syz, twists[-1])
        out.append(hilbert(pres))
        mat = mingens(pres)
    return out


def _assert_agrees(code):
    engine, reference = _route(code, ENGINE), _route(code, REFERENCE)
    assert len(engine) == len(reference), code.generators
    for ours, theirs in zip(engine, reference):
        assert ours == theirs, code.generators


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


def test_criteria_skip_pairs_on_the_canary(monkeypatch):
    calls = {"engine": 0, "reference": 0}
    side = ["engine"]
    real = groebner._reduce_flat

    def counted(*args, **kwargs):
        calls[side[0]] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce_flat", counted)
    monkeypatch.setattr(helpers, "_reduce_flat", counted)
    canary = CodePresentation.from_strings(p=101, n=3, rows=CANARY_ROWS)
    engine = _route(canary, ENGINE)
    side[0] = "reference"
    reference = _route(canary, REFERENCE)
    assert engine == reference
    assert 0 < calls["engine"] < calls["reference"], calls
