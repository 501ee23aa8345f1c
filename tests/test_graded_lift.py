"""The packed leading part of a given complex and the graded checks that
read it, against the ``Poly`` route.

``complexes._leading_part`` keeps the top-weight terms of every column
of a complex packed over S, which is G^L; ``check_reduced``,
``check_minimal``, ``minimality_witness`` and ``pd_failure_witness``
read it, and the tests unpack it (``unpacked_lift``).  The reference in
``tests/helpers.py`` builds G^L entry by entry as ``Poly``, proves
exactness by one fresh criteria-free Hilbert numerator per level, takes
the witness from the syzygies over S and scans the ``Poly`` entries for
scalars.  Verdicts, witnesses and G^L must be equal on the probe
corpus, the benchmark's damaged Koszul complexes and the acceptance
corpus, and G^L must be the lift of the complex into T
(``packed_lift``) at D0 = 0.
"""

import json

import pytest

from convres.cli import main
from convres.complexes import (
    _leading_part,
    check_minimal,
    check_reduced,
    minimal_resolution,
    minimality_witness,
    pd_failure_witness,
    validate_complex,
)
from convres.errors import PreconditionError
from convres.groebner import _lift_flat

from helpers import (
    _d0_free,
    acceptance_corpus,
    benchmark_complexes,
    check_graded_resolution,
    packed_lift,
    probe_corpus,
    reference_homogenize_complex,
    reference_leading_term_complex,
    reference_minimality_witness,
    reference_pd_failure_witness,
    unpacked_lift,
)


def _assert_routes_agree(cx):
    """Both routes on one complex; returns (reduced, scalar entry, witness)."""
    lead = reference_leading_term_complex(cx)
    high, low = unpacked_lift(cx)
    assert low == lead.matrices, cx
    assert high == reference_homogenize_complex(cx).matrices, cx
    # G^L is G^H at D0 = 0: lifted into T it is the D0-free part of G^H.
    for cols, order, lead_cols, s_order in zip(*packed_lift(cx), *_leading_part(cx)):
        assert ([_d0_free(flat, order) for flat in cols]
                == [_lift_flat(flat, s_order, order) for flat in lead_cols]), cx
    reduced = check_graded_resolution(lead)
    scalar = reference_minimality_witness(lead)
    witness = reference_pd_failure_witness(lead)
    assert check_reduced(cx) == reduced, cx
    assert minimality_witness(cx) == scalar, cx
    assert pd_failure_witness(cx) == witness, cx
    if reduced:
        assert check_minimal(cx) == (scalar is None), cx
    else:
        with pytest.raises(PreconditionError):
            check_minimal(cx)
    return reduced, scalar, witness


def _assert_corpus_agrees(cases):
    seen = [_assert_routes_agree(cx) for cx in cases]
    # Each corpus reaches both verdicts, scalars and witnesses.
    assert {reduced for reduced, _, _ in seen} == {True, False}
    assert any(scalar for _, scalar, _ in seen) and any(w for _, _, w in seen)
    return seen


def test_graded_checks_equal_the_poly_route_on_the_probe_corpus():
    seen = _assert_corpus_agrees(probe_corpus())
    # Some complex has several scalars in a level, where the row-major
    # first one is not the column-major first one.
    assert any(scalar and scalar[1] > 0 for _, scalar, _ in seen)


def test_graded_checks_equal_the_poly_route_on_damaged_koszul_complexes():
    cases = benchmark_complexes(1200)
    assert len(cases) > 250
    _assert_corpus_agrees(cases)


def test_graded_checks_equal_the_poly_route_on_the_acceptance_corpus():
    for c in acceptance_corpus():
        # One matrix: reduced exactly when G_1^L is injective.
        reduced, scalar, witness = _assert_routes_agree(validate_complex([c.generators]))
        assert scalar is None and reduced == (witness is None)
        reduced, scalar, _ = _assert_routes_agree(minimal_resolution(c).complex)
        assert reduced and scalar is None


def test_witnesses_reach_the_report(tmp_path, capsys):
    # The CLI prints the witnesses the reference finds, on the first
    # failing complexes of the probe corpus.
    shown = {"pd": 0, "minimal": 0}
    for cx in probe_corpus():
        lead = reference_leading_term_complex(cx)
        reduced = check_graded_resolution(lead)
        witness = reference_pd_failure_witness(lead)
        scalar = reference_minimality_witness(lead)
        prop = "pd" if not reduced and witness else "minimal" if reduced and scalar else None
        if prop is None or shown[prop] >= 5:
            continue
        shown[prop] += 1
        path = tmp_path / "cx.json"
        path.write_text(json.dumps({"p": cx.ring.p, "n": cx.ring.n, "kind": "complex",
                                    "matrices": [m.to_strings() for m in cx.matrices]}))
        assert main(["check", prop, str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        if prop == "pd":
            assert out["witness_column"] == [str(f) for f in witness]
        else:
            assert out["scalar_entry"] == list(scalar)
    assert shown == {"pd": 5, "minimal": 5}
