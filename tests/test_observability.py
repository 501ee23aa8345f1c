import random

import pytest

from convres import Ring, observability
from convres.algebra import CodePresentation, PolyMatrix, vec_mul_poly
from convres.complexes import minimal_resolution, validate_complex
from convres.cli import main
from convres.errors import InputError, InvariantError, UnsupportedDimensionError
from convres.groebner import (
    SubmodulePresentation,
    matrix_kernel,
    membership,
    module_equal,
)
from convres.observability import (
    MAX_PROP3_CANDIDATES,
    is_observable,
    monic_irreducibles,
    prop3_spot_check,
)

from helpers import code, koszul_code, mat, random_code


def test_ideal_code_is_not_observable():
    rep = is_observable(koszul_code())
    assert not rep.observable
    assert rep.parity_check is None
    w = rep.witness
    r = Ring(2, 2)
    pres = SubmodulePresentation.from_matrix(koszul_code().generators)
    assert not membership(w.element, pres)
    assert not w.multiplier.is_zero
    assert membership(vec_mul_poly(w.element, w.multiplier), pres)


def test_free_column_is_observable():
    r = Ring(2, 2)
    c = code(r, [["D1"], ["D2"]])
    rep = is_observable(c)
    assert rep.observable
    h = rep.parity_check
    assert h.nrows >= 1
    # ker H equals the code (not just row-space identity)
    kernel = matrix_kernel(h)
    assert module_equal(SubmodulePresentation.from_matrix(kernel),
                        SubmodulePresentation.from_matrix(c.generators))


def test_full_module_is_observable_with_empty_parity_check():
    r = Ring(3, 2)
    rep = is_observable(code(r, [["1", "0"], ["0", "1"]]))
    assert rep.observable
    assert rep.parity_check.nrows == 0


def test_double_kernel_is_always_observable():
    rng = random.Random(73)
    from convres.groebner import left_kernel
    for _ in range(6):
        c = random_code(rng, n=rng.randint(1, 2))
        h = left_kernel(c.generators)
        if h.nrows == 0:
            closure = PolyMatrix.identity(c.ring, c.q)
        else:
            closure = matrix_kernel(h)
        closed = CodePresentation(c.ring, closure)
        assert is_observable(closed).observable


def test_prop3_spot_check_examples():
    r = Ring(2, 1)
    cx = validate_complex([mat(r, [["D1"], ["1"]])])
    assert prop3_spot_check(cx, 2)
    cx2 = validate_complex([mat(r, [["D1"], ["D1"]])])
    assert not prop3_spot_check(cx2, 1)
    cx3 = validate_complex([PolyMatrix.identity(r, 2)])
    assert prop3_spot_check(cx3, 3)


def test_prop3_rejects_multivariate_input():
    r = Ring(2, 2)
    cx = validate_complex([mat(r, [["D1", "D2"]])])
    with pytest.raises(UnsupportedDimensionError):
        prop3_spot_check(cx, 2)


def test_prop3_bound_limits():
    r = Ring(2, 1)
    cx = validate_complex([mat(r, [["D1"], ["1"]])])
    # 2 + 4 + ... + 2^11 = 4094 candidates fit, 2^12 more do not
    assert MAX_PROP3_CANDIDATES == 4096
    assert prop3_spot_check(cx, 11)
    for bound in (12, 0, -3):
        with pytest.raises(InputError):
            prop3_spot_check(cx, bound)


def test_monic_irreducibles_over_f2():
    polys = monic_irreducibles(2, 3)
    # x, x+1, x^2+x+1, and the two irreducible cubics
    assert polys == [[0, 1], [1, 1], [1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]
    assert len(monic_irreducibles(3, 2)) == 3 + 3


def test_observability_agrees_with_univariate_spot_check():
    rng = random.Random(79)
    hits = {True: 0, False: 0}
    for _ in range(12):
        c = random_code(rng, p=rng.choice([2, 3, 5]), n=1)
        verdict = is_observable(c).observable
        rep = minimal_resolution(c)
        bound = max(int(f.degree) for row in c.generators.entries
                    for f in row if not f.is_zero) + 1
        assert prop3_spot_check(rep.complex, bound) == verdict
        hits[verdict] += 1
    assert hits[True] and hits[False]


# -- result guards ---------------------------------------------------------

def test_failed_torsion_membership_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(observability, "membership", lambda elem, module: False)
    with pytest.raises(InvariantError, match="torsion multiple"):
        is_observable(koszul_code())


def test_failed_torsion_membership_exits_2_without_a_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(observability, "membership", lambda elem, module: False)
    path = tmp_path / "code.json"
    path.write_text('{"p": 2, "n": 2, "kind": "code", "matrix": [["D1", "D2"]]}')
    assert main(["observable", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "torsion multiple" in err
