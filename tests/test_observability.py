import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convres import Ring, cli, complexes, groebner, observability
from convres.algebra import CodePresentation, Poly, PolyMatrix, is_prime
from convres.complexes import check_reduced, minimal_resolution, validate_complex
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
    acceptance_corpus,
    benchmark_documents,
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


def _spot_check_both_ways(c, bound):
    """The verdict on the code, asserted equal to the field ranks of its resolution."""
    verdict = prop3_spot_check(c, bound)
    assert verdict == reference_prop3_spot_check(minimal_resolution(c).complex, bound), \
        (c.generators, bound)
    return verdict


def test_prop3_spot_check_examples():
    r = Ring(2, 1)
    assert _spot_check_both_ways(code(r, [["D1"], ["1"]]), 2)
    assert not _spot_check_both_ways(code(r, [["D1"], ["D1"]]), 1)
    assert _spot_check_both_ways(code(r, [["1", "0"], ["0", "1"]]), 3)


def test_prop3_rejects_multivariate_input():
    with pytest.raises(UnsupportedDimensionError):
        prop3_spot_check(code(Ring(2, 2), [["D1", "D2"]]), 2)


def test_prop3_bound_limits():
    c = code(Ring(2, 1), [["D1"], ["1"]])
    # 2 + 4 + ... + 2^11 = 4094 candidates fit, 2^12 more do not
    assert MAX_PROP3_CANDIDATES == 4096
    assert prop3_spot_check(c, 11)
    for bound in (12, 0, -3):
        with pytest.raises(InputError):
            prop3_spot_check(c, bound)


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
        bound = max(int(f.degree) for row in c.generators.entries
                    for f in row if not f.is_zero) + 1
        assert _spot_check_both_ways(c, bound) == verdict
        hits[verdict] += 1
    assert hits[True] and hits[False]


def test_spot_check_equals_the_resolution_route_on_benchmark_codes():
    docs = benchmark_documents("observable", 300)
    assert len(docs) > 50 and {doc.p for doc in docs} == {2, 3, 5}
    verdicts = set()
    for doc in docs:
        resolution = minimal_resolution(doc.code).complex
        for bound in range(1, _largest_bound(doc.p) + 1):
            verdict = prop3_spot_check(doc.code, bound)
            assert verdict == reference_prop3_spot_check(resolution, bound), (doc.code, bound)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@st.composite
def univariate_codes(draw):
    """Codes over F_p[D1], p in {2, 3, 5, 101}, q and columns <= 3, entries
    of degree <= 3 with at most three terms, and an admissible bound <= 3."""
    ring = Ring(draw(st.sampled_from([2, 3, 5, 101])), 1)
    q, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    poly = st.dictionaries(st.tuples(st.integers(0, 3)), st.integers(1, ring.p - 1), max_size=3)
    rows = [[Poly.from_dict(ring, draw(poly)) for _ in range(t)] for _ in range(q)]
    generators = PolyMatrix.from_rows(ring, rows)
    assume(not generators.has_zero_column())
    c = CodePresentation(ring, generators)
    return c, draw(st.integers(1, min(3, _largest_bound(ring.p))))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(univariate_codes())
def test_spot_check_equals_the_resolution_route_on_drawn_codes(drawn):
    _spot_check_both_ways(*drawn)


# -- observability against the spot check, n = 1 ----------------------------

def _assert_observability_decides_the_spot_check(c, bounds):
    """``is_observable`` against ``prop3_spot_check`` at each of ``bounds``, n = 1.

    Over F_p[x] a torsion-free quotient is free, so an observable code is
    a direct summand of S^q and stays one modulo every irreducible: the
    check holds at every bound.  Otherwise let g be the witness and
    (C : g) = (s0); s0 divides the multiplier, and for each irreducible
    factor lam of s0, (s0 / lam) g lies outside C while lam times it lies
    inside, which drops the rank modulo lam.  So the check fails at every
    bound from the multiplier's degree on.  Returns the verdict.
    """
    rep = is_observable(c)
    for bound in bounds:
        if rep.observable:
            assert prop3_spot_check(c, bound), (c.generators, bound)
        elif bound >= rep.witness.multiplier.degree:
            assert not prop3_spot_check(c, bound), (c.generators, bound)
    return rep.observable


def test_observability_decides_the_spot_check_on_the_acceptance_codes():
    univariate = [c for c in acceptance_corpus() if c.ring.n == 1]
    assert univariate
    for c in univariate:
        _assert_observability_decides_the_spot_check(c, range(1, _largest_bound(c.ring.p) + 1))


def test_observability_decides_the_spot_check_on_benchmark_codes():
    docs = benchmark_documents("observable", 300)
    assert len(docs) > 50
    verdicts = {_assert_observability_decides_the_spot_check(
        doc.code, range(1, _largest_bound(doc.p) + 1)) for doc in docs}
    assert verdicts == {True, False}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(univariate_codes())
def test_observability_decides_the_spot_check_on_drawn_codes(drawn):
    c, bound = drawn
    _assert_observability_decides_the_spot_check(c, [bound])


def test_ranked_basis_is_column_reduced_with_the_degrees_of_g1(monkeypatch):
    ranked, real = [], observability._ranks_modulo

    def spy(m, lams, p):
        ranked.append(m)
        return real(m, lams, p)
    monkeypatch.setattr(observability, "_ranks_modulo", spy)
    codes = [doc.code for doc in benchmark_documents("observable", 300)]
    rng = random.Random(107)
    codes += [random_code(rng, p=rng.choice([2, 3, 5, 101]), n=1, max_deg=3) for _ in range(40)]
    for c in codes:
        prop3_spot_check(c, 1)
        basis = ranked.pop()
        table = minimal_resolution(c).degree_table
        assert sorted(basis.column_degrees((0,) * c.q)) == sorted(table[0]), c.generators
        assert check_reduced(validate_complex([basis]))


# -- the spot check builds no resolution -------------------------------------

SPOT_CHECK_DOCS = [
    '{"p": 2, "n": 1, "kind": "code", "matrix": [["D1"], ["D1"]]}',
    '{"p": 3, "n": 1, "kind": "code", "matrix": [["D1^2 + 1", "D1"], ["D1", "2"]]}',
    '{"p": 5, "n": 1, "kind": "code", "matrix": [["D1^3 + D1", "D1^2"], ["D1", "1"], ["0", "D1"]]}',
]


def _raise(*args):
    raise AssertionError("the spot check must not resolve or lift the code")


def test_observable_runs_no_resolution_and_two_completions_over_s(monkeypatch, tmp_path,
                                                                    capsys):
    path = tmp_path / "code.json"
    expected = []
    for text in SPOT_CHECK_DOCS:
        path.write_text(text)
        assert main(["observable", "--prop3-bound", "2", str(path)]) == 0
        expected.append(capsys.readouterr().out)
    for module, name in ((cli, "minimal_resolution"), (complexes, "minimal_resolution"),
                         (complexes, "_lift_flat"), (groebner, "_lift_flat")):
        monkeypatch.setattr(module, name, _raise)
    runs, real = [], observability._buchberger

    def counted(gens, order, *rest):
        runs.append((gens, order))
        return real(gens, order, *rest)
    monkeypatch.setattr(observability, "_buchberger", counted)
    for text, want in zip(SPOT_CHECK_DOCS, expected):
        path.write_text(text)
        runs.clear()
        assert main(["observable", "--prop3-bound", "2", str(path)]) == 0
        assert capsys.readouterr().out == want
        # is_observable's completion of the code, then the spot check's.
        assert len(runs) == 2 and runs[0] == runs[1]


def _leads_share_a_position(items, order, real=observability._interreduce):
    return real(items, order) * 2


def test_reduced_basis_with_shared_lead_positions_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(observability, "_interreduce", _leads_share_a_position)
    with pytest.raises(InvariantError, match="share a position"):
        prop3_spot_check(code(Ring(2, 1), [["D1"], ["1"]]), 2)


def test_reduced_basis_with_shared_lead_positions_exits_2_without_a_report(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(observability, "_interreduce", _leads_share_a_position)
    path = tmp_path / "code.json"
    path.write_text(SPOT_CHECK_DOCS[1])
    assert main(["observable", "--prop3-bound", "2", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "share a position" in err


# -- the sieve and the block ranks against list-based references ---------

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


def _assert_ranks_match(m, lams, p):
    assert list(_ranks_modulo(m, lams, p)) == [reference_rank_mod_lambda(m, lam, p)
                                               for lam in lams]


def test_block_ranks_equal_field_ranks_on_seeded_matrices():
    rng = random.Random(97)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        r = Ring(p, 1)
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = PolyMatrix.from_rows(r, [[random_poly(rng, r, 3) for _ in range(cols)]
                                     for _ in range(rows)])
        _assert_ranks_match(m, monic_irreducibles(p, 3)[:12], p)


def test_block_ranks_with_sparse_exponents_and_large_coefficients():
    rng = random.Random(101)
    for p, lams in ((3, monic_irreducibles(3, 3)), (4093, monic_irreducibles(4093, 1)[-6:])):
        r = Ring(p, 1)
        for _ in range(15):
            def entry():
                return Poly.from_dict(r, {(rng.randint(1990, 2010),): rng.randrange(p - 9, p)
                                          for _ in range(rng.randint(0, 3))})
            m = PolyMatrix.from_rows(r, [[entry() for _ in range(2)] for _ in range(2)])
            _assert_ranks_match(m, lams, p)


def test_block_rank_drops_where_lam_divides_the_entries():
    r = Ring(3, 1)
    assert list(_ranks_modulo(mat(r, [["D1 + 1", "D1^2 + D1"]]), [[1, 1], [0, 1]], 3)) == [0, 1]
    assert list(_ranks_modulo(mat(r, [["D1"], ["-1"]]), [[1, 1], [0, 1]], 3)) == [1, 1]


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
