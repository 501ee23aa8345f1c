import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from convres import Ring, observability
from convres.algebra import CodePresentation, Poly, PolyMatrix, is_prime
from convres.complexes import minimal_resolution, validate_complex
from convres.cli import main
from convres.errors import InputError, InvariantError, UnsupportedDimensionError
from convres.groebner import ModuleOrder, _buchberger, _reduce_flat
from convres.observability import (
    MAX_PROP3_CANDIDATES,
    _ranks_modulo,
    is_observable,
    monic_irreducibles,
    prop3_spot_check,
)

from helpers import (
    code,
    koszul_code,
    mat,
    pack,
    random_code,
    random_poly,
    reference_groebner_basis,
    reference_matrix_kernel,
    reference_monic_irreducibles,
    reference_prop3_spot_check,
    reference_rank_mod_lambda,
)


def in_code(c, elem):
    order = ModuleOrder(c.ring, (0,) * c.q)
    basis = _buchberger(pack(c.generators.columns(), order), order)
    return not _reduce_flat(pack([elem], order)[0], basis, order)[0]


def same_span(ring, a, b):
    order = ModuleOrder(ring, (0,) * len(a[0]))
    return reference_groebner_basis(pack(a, order), order) == \
        reference_groebner_basis(pack(b, order), order)


def test_ideal_code_is_not_observable():
    rep = is_observable(koszul_code())
    assert not rep.observable
    assert rep.parity_check is None
    w = rep.witness
    assert not in_code(koszul_code(), w.element)
    assert not w.multiplier.is_zero
    assert in_code(koszul_code(), tuple(f * w.multiplier for f in w.element))


def test_free_column_is_observable():
    r = Ring(2, 2)
    c = code(r, [["D1"], ["D2"]])
    rep = is_observable(c)
    assert rep.observable
    h = rep.parity_check
    assert h.nrows >= 1
    # ker H equals the code (not just row-space identity)
    assert same_span(r, reference_matrix_kernel(h), c.generators.columns())


def test_full_module_is_observable_with_empty_parity_check():
    r = Ring(3, 2)
    rep = is_observable(code(r, [["1", "0"], ["0", "1"]]))
    assert rep.observable
    assert rep.parity_check.nrows == 0


def test_double_kernel_is_always_observable():
    rng = random.Random(73)
    for _ in range(6):
        c = random_code(rng, n=rng.randint(1, 2))
        rows = reference_matrix_kernel(PolyMatrix.from_rows(c.ring, zip(*c.generators.entries)))
        h = PolyMatrix(c.ring, len(rows), c.q, tuple(rows))
        closure = PolyMatrix.from_columns(c.ring, c.q, reference_matrix_kernel(h))
        closed = CodePresentation(c.ring, closure)
        assert is_observable(closed).observable


def test_prop3_spot_check_examples():
    r = Ring(2, 1)
    cx = validate_complex([mat(r, [["D1"], ["1"]])])
    assert prop3_spot_check(cx, 2)
    cx2 = validate_complex([mat(r, [["D1"], ["D1"]])])
    assert not prop3_spot_check(cx2, 1)
    cx3 = validate_complex([mat(r, [["1", "0"], ["0", "1"]])])
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


# -- differential checks against the former list-based spot check ---------

def _largest_bound(p):
    bound, candidates, power = 0, 0, 1
    while candidates + power * p <= MAX_PROP3_CANDIDATES:
        power *= p
        candidates += power
        bound += 1
    return bound


def test_product_sieve_equals_trial_division_sieve():
    cases = [(p, _largest_bound(p)) for p in range(2, 14) if is_prime(p)]
    for p, bound in cases + [(61, 2), (4093, 1)]:
        assert monic_irreducibles(p, bound) == reference_monic_irreducibles(p, bound), p


def _assert_ranks_match(mats, lams, p):
    want = [[reference_rank_mod_lambda(m, lam, p) for m in mats] for lam in lams]
    assert list(_ranks_modulo(mats, lams, p)) == want


def test_block_ranks_equal_field_ranks_on_seeded_matrices():
    rng = random.Random(97)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        r = Ring(p, 1)
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = PolyMatrix.from_rows(r, [[random_poly(rng, r, 3) for _ in range(cols)]
                                     for _ in range(rows)])
        _assert_ranks_match([m], monic_irreducibles(p, 3)[:12], p)


def test_block_ranks_with_sparse_exponents_and_large_coefficients():
    rng = random.Random(101)
    for p, lams in ((3, monic_irreducibles(3, 3)), (4093, monic_irreducibles(4093, 1)[-6:])):
        r = Ring(p, 1)
        for _ in range(15):
            def entry():
                return Poly.from_dict(r, {(rng.randint(1990, 2010),): rng.randrange(p - 9, p)
                                          for _ in range(rng.randint(0, 3))})
            m = PolyMatrix.from_rows(r, [[entry() for _ in range(2)] for _ in range(2)])
            _assert_ranks_match([m], lams, p)


def test_prop3_verdicts_equal_the_former_check_on_length_two_complexes():
    # G_1 = (f h, g h), G_2 = (g, -f)^T: exact modulo lam unless lam divides
    # h (G_1 vanishes, the inner rank condition fails) or gcd(f, g).
    rng = random.Random(103)
    verdicts = set()
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        r = Ring(p, 1)
        f, g, h = (random_poly(rng, r, 2, nonzero=True) for _ in range(3))
        cx = validate_complex([PolyMatrix.from_rows(r, [[f * h, g * h]]),
                               PolyMatrix.from_rows(r, [[g], [-f]])])
        for bound in (1, 2):
            verdict = prop3_spot_check(cx, bound)
            assert verdict == reference_prop3_spot_check(cx, bound)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    r = Ring(3, 1)
    inner = validate_complex([mat(r, [["D1 + 1", "D1^2 + D1"]]), mat(r, [["D1"], ["-1"]])])
    assert not prop3_spot_check(inner, 1)
    assert not reference_prop3_spot_check(inner, 1)
    assert list(_ranks_modulo(inner.matrices, [[1, 1]], 3)) == [[0, 1]]


def test_huge_exponent_is_checked_sparsely_under_a_memory_limit(tmp_path):
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"p": 3, "n": 1, "kind": "code",
                               "matrix": [["D1^100000000 + D1"]]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "convres.cli", "observable", "--prop3-bound", "2", str(doc)],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit_memory)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["prop3"] is False


# -- result guards ---------------------------------------------------------

def _nothing_reduces(f, items, order):
    return f, None


def test_failed_torsion_membership_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(observability, "_reduce_flat", _nothing_reduces)
    with pytest.raises(InvariantError, match="torsion multiple"):
        is_observable(koszul_code())


def test_failed_torsion_membership_exits_2_without_a_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(observability, "_reduce_flat", _nothing_reduces)
    path = tmp_path / "code.json"
    path.write_text('{"p": 2, "n": 2, "kind": "code", "matrix": [["D1", "D2"]]}')
    assert main(["observable", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "torsion multiple" in err
