import importlib.util
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convres import Ring, cli, complexes, groebner, observability
from convres.algebra import CodePresentation, Poly, PolyMatrix, is_prime
from convres.complexes import check_reduced, minimal_resolution, validate_complex
from convres.cli import main, parse_input
from convres.errors import InputError, InvariantError, UnsupportedDimensionError
from convres.groebner import ModuleOrder, _buchberger, _reduce_flat
from convres.observability import (
    MAX_PROP3_CANDIDATES,
    _fold,
    _rank,
    _smith_diagonal,
    is_observable,
    prop3_spot_check,
)

import helpers
from helpers import (
    acceptance_corpus,
    benchmark_documents,
    code,
    koszul_code,
    mat,
    pack,
    random_code,
    random_poly,
    reference_block_rank_spot_check,
    reference_groebner_basis,
    reference_matrix_kernel,
    reference_monic_irreducibles,
    reference_product_sieve,
    reference_prop3_spot_check,
    reference_rank_mod_lambda,
    reference_ranks_modulo,
    reference_reduced_basis,
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
    polys = reference_product_sieve(2, 3)
    # x, x+1, x^2+x+1, and the two irreducible cubics
    assert polys == [[0, 1], [1, 1], [1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]
    assert len(reference_product_sieve(3, 2)) == 3 + 3


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


def test_ranked_basis_is_column_reduced_with_the_degrees_of_g1():
    codes = [doc.code for doc in benchmark_documents("observable", 300)]
    rng = random.Random(107)
    codes += [random_code(rng, p=rng.choice([2, 3, 5, 101]), n=1, max_deg=3) for _ in range(40)]
    for c in codes:
        basis = reference_reduced_basis(c)
        table = minimal_resolution(c).degree_table
        assert sorted(basis.column_degrees((0,) * c.q)) == sorted(table[0]), c.generators
        assert check_reduced(validate_complex([basis]))


# -- the Smith-form route against the block-rank route and against Delta ---

# A modulus x^n - x with n above every degree met here, so that
# ``_smith_diagonal`` folds nothing and gives a Smith form over F_p[x].
NO_FOLD = 2 ** 40


def _sparse(c):
    return [[{e: v for (e,), v in f.terms} for f in row] for row in c.generators.entries]


def _unfolded_smith(rows, p):
    """``_smith_diagonal`` over F_p[x] of sparse ``rows``, as sparse dicts."""
    arrays = [[_fold(f, NO_FOLD, p) for f in row] for row in rows]
    return [{e: int(v) for e, v in enumerate(d) if v} for d in _smith_diagonal(arrays, NO_FOLD, p)]


def _monic_product(ring, polys):
    out = Poly.const(ring, 1)
    for f in polys:
        out = out * Poly.from_dict(ring, {(e,): v for e, v in f.items()})
    return out.scale(pow(out.terms[0][1], ring.p - 2, ring.p))


def test_spot_check_equals_the_block_rank_route_on_benchmark_codes():
    """``tools/prop3_crosscheck.py`` on the observable codes of the first
    300 seed-0 small-mix ops; the tool runs the whole pool."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "prop3_crosscheck.py"
    spec = importlib.util.spec_from_file_location("prop3_crosscheck", tool)
    crosscheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(crosscheck)
    pairs, disagreements = crosscheck.crosscheck(300)
    assert pairs > 400 and disagreements == []


def _irreducible_pool(p):
    """Monic irreducibles of degree 1..3 as sparse dicts; over F_101 the
    linear ones and x^2 - 2 (2 is not a square modulo 101)."""
    if p == 101:
        return [{0: -a % p, 1: 1} for a in range(p)] + [{0: 99, 2: 1}]
    return [{e: c for e, c in enumerate(lam) if c} for lam in reference_monic_irreducibles(p, 3)]


def _elementary(steps, ring, size, degree):
    """A unimodular size x size matrix: a product of elementary ``steps``,
    each adding a multiple of degree <= ``degree`` of one row to another."""
    rows = [[Poly.const(ring, int(i == j)) for j in range(size)] for i in range(size)]
    for i, j, coeffs in steps:
        if i % size != j % size:
            m = Poly.from_dict(ring, {(e,): c for e, c in enumerate(coeffs[:degree + 1])})
            rows[i % size] = [f + m * g for f, g in zip(rows[i % size], rows[j % size])]
    return PolyMatrix.from_rows(ring, rows)


@st.composite
def diagonal_codes(draw):
    """Codes U [D 0; 0 0] V over F_p[D1], p in {2, 3, 5, 101}, with U and V
    unimodular and D diagonal of rank r <= 3, its entries products of drawn
    irreducibles (repeats allowed), and up to one extra row and column, so
    the rank may lie below q and below the column count.  Returns the code,
    a bound, r, the diagonal and whether no drawn factor has degree <= the
    bound."""
    p = draw(st.sampled_from([2, 3, 5, 101]))
    ring = Ring(p, 1)
    bound = draw(st.integers(1, min(3, _largest_bound(p))))
    pool = _irreducible_pool(p)
    r = draw(st.integers(1, 3))
    factors = [draw(st.lists(st.sampled_from(pool), max_size=3)) for _ in range(r)]
    q, t = r + draw(st.integers(0, 1)), r + draw(st.integers(0, 1))
    diagonal = [_monic_product(ring, fs) for fs in factors]
    core = [[diagonal[i] if i == j and i < r else Poly.zero(ring) for j in range(t)]
            for i in range(q)]
    steps = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                               st.lists(st.integers(0, p - 1), min_size=2, max_size=2)),
                     max_size=4)
    u, v = _elementary(draw(steps), ring, q, 1), _elementary(draw(steps), ring, t, 1)
    generators = u @ PolyMatrix.from_rows(ring, core) @ v
    assume(not generators.has_zero_column())
    verdict = all(max(f) > bound for fs in factors for f in fs)
    return CodePresentation(ring, generators), bound, r, diagonal, verdict


@settings(derandomize=True, deadline=None, max_examples=60)
@given(diagonal_codes())
def test_spot_check_reads_delta_of_drawn_diagonal_codes(drawn):
    c, bound, r, diagonal, verdict = drawn
    sparse = _sparse(c)
    smith = _unfolded_smith(sparse, c.ring.p)
    assert _rank(sparse, c.ring.p) == len(smith) == r
    assert _monic_product(c.ring, smith) == _monic_product(
        c.ring, [{e: v for (e,), v in f.terms} for f in diagonal])
    assert prop3_spot_check(c, bound) == verdict, (c.generators, bound)
    assert reference_block_rank_spot_check(c, bound) == verdict, (c.generators, bound)


def test_spot_check_on_repeated_factors_and_factors_of_degree_the_bound():
    r = Ring(2, 1)
    # (x^2 + x + 1)^2 fails at bound 2 and passes at bound 1; so does its
    # product with x^3 + x + 1, which is irreducible of degree 3.
    square = "D1^4 + D1^2 + 1"
    for rows in ([[square]], [["D1^2 + D1 + 1", "0"], ["0", "D1^2 + D1 + 1"]],
                 [["D1^7 + D1^4 + D1^2 + D1 + 1"], ["0"]]):
        c = code(r, rows)
        assert prop3_spot_check(c, 1) and not prop3_spot_check(c, 2), rows
        assert not prop3_spot_check(c, 3), rows
    # x^3 + x + 1 alone passes every bound below 3 and fails at 3.
    c = code(r, [["D1^3 + D1 + 1", "D1^4 + D1^2 + D1"], ["0", "0"]])
    assert [prop3_spot_check(c, b) for b in (1, 2, 3)] == [True, True, False]


def test_rank_and_smith_form_ignore_zero_columns_and_rows():
    p = 3
    zero = {}
    rows = [[{1: 1, 0: 1}, zero, {2: 1, 1: 1}], [zero, zero, zero], [{0: 2}, zero, {1: 2}]]
    # Column 3 is x times column 1, so the rank is 1 and Delta = gcd(x + 1, 2) = 1.
    smith = _unfolded_smith(rows, p)
    assert _rank(rows, p) == len(smith) == 1 and max(smith[0]) == 0


def _assert_observable_exactly_when_delta_is_constant(c):
    """Over the PID F_p[x] the quotient S^q/C is torsion free exactly when
    every invariant factor of the generators is a unit."""
    constant = all(max(d) == 0 for d in _unfolded_smith(_sparse(c), c.ring.p))
    assert is_observable(c).observable == constant, c.generators
    return constant


def test_observable_exactly_when_delta_is_constant_on_corpus_and_benchmark_codes():
    codes = [c for c in acceptance_corpus() if c.ring.n == 1]
    codes += [doc.code for doc in benchmark_documents("observable", 300)]
    assert {_assert_observable_exactly_when_delta_is_constant(c) for c in codes} == {True, False}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(univariate_codes())
def test_observable_exactly_when_delta_is_constant_on_drawn_codes(drawn):
    _assert_observable_exactly_when_delta_is_constant(drawn[0])


# -- the spot check builds no resolution -------------------------------------

SPOT_CHECK_DOCS = [
    '{"p": 2, "n": 1, "kind": "code", "matrix": [["D1"], ["D1"]]}',
    '{"p": 3, "n": 1, "kind": "code", "matrix": [["D1^2 + 1", "D1"], ["D1", "2"]]}',
    '{"p": 5, "n": 1, "kind": "code", "matrix": [["D1^3 + D1", "D1^2"], ["D1", "1"], ["0", "D1"]]}',
]


def _raise(*args):
    raise AssertionError("the spot check must not resolve or lift the code")


def test_observable_runs_no_resolution_and_one_completion_over_s(monkeypatch, tmp_path,
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
        # is_observable's completion of the code; the spot check runs none.
        assert len(runs) == 1


def _leads_share_a_position(items, order, real=helpers._interreduce):
    return real(items, order) * 2


def test_reduced_basis_with_shared_lead_positions_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(helpers, "_interreduce", _leads_share_a_position)
    with pytest.raises(InvariantError, match="share a position"):
        reference_reduced_basis(code(Ring(2, 1), [["D1"], ["1"]]))


# -- the former sieve and block ranks against list-based references ------

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
        assert reference_product_sieve(p, bound) == reference_monic_irreducibles(p, bound), p


def _assert_ranks_match(m, lams, p):
    assert list(reference_ranks_modulo(m, lams, p)) == [reference_rank_mod_lambda(m, lam, p)
                                                        for lam in lams]


def test_block_ranks_equal_field_ranks_on_seeded_matrices():
    rng = random.Random(97)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        r = Ring(p, 1)
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = PolyMatrix.from_rows(r, [[random_poly(rng, r, 3) for _ in range(cols)]
                                     for _ in range(rows)])
        _assert_ranks_match(m, reference_product_sieve(p, 3)[:12], p)


def test_block_ranks_with_sparse_exponents_and_large_coefficients():
    rng = random.Random(101)
    for p, lams in ((3, reference_product_sieve(3, 3)),
                    (4093, reference_product_sieve(4093, 1)[-6:])):
        r = Ring(p, 1)
        for _ in range(15):
            def entry():
                return Poly.from_dict(r, {(rng.randint(1990, 2010),): rng.randrange(p - 9, p)
                                          for _ in range(rng.randint(0, 3))})
            m = PolyMatrix.from_rows(r, [[entry() for _ in range(2)] for _ in range(2)])
            _assert_ranks_match(m, lams, p)


def test_block_rank_drops_where_lam_divides_the_entries():
    r = Ring(3, 1)
    lams = [[1, 1], [0, 1]]
    assert list(reference_ranks_modulo(mat(r, [["D1 + 1", "D1^2 + D1"]]), lams, 3)) == [0, 1]
    assert list(reference_ranks_modulo(mat(r, [["D1"], ["-1"]]), lams, 3)) == [1, 1]


# Every entry of DENSE_DOC is below x^4093, so nothing folds and the Smith
# form runs dense Euclid near degree 4,000; its determinant has no root in
# F_4093 (``test_bound_one_verdicts_over_f_4093_are_common_roots_of_the_maximal_minors``).
DENSE_DOC = {"p": 4093, "n": 1, "kind": "code",
             "matrix": [["D1^2428 + 2230*D1^975 + 535", "D1^3752 + 2474*D1^1516 + 1942"],
                        ["D1^2563 + 269*D1^2380 + 2481", "D1^3723 + 3431*D1^54 + 1922"]]}

# Documents whose entries are of huge degree or fold densely, each with a
# degree bound and the spot check's verdict.  Each runs the spot check
# alone within SPOT_CHECK_SECONDS, interpreter start included, and the
# first also the command line; the second exceeds the weight limit of
# ``is_observable``'s syzygies.
HUGE_DOCS = [
    ({"p": 3, "n": 1, "kind": "code", "matrix": [["D1^100000000 + D1"]]}, 2, False),
    ({"p": 4093, "n": 1, "kind": "code",
      "matrix": [["D1^1073741823 + 3*D1^1000000 + 7"], ["D1^2000000 + 1"]]}, 1, True),
    ({"p": 2, "n": 1, "kind": "code", "matrix": [["D1^1073741823 + D1 + 1"]]}, 11, True),
    (DENSE_DOC, 1, True),
]
SPOT_CHECK_SECONDS = 5

SPOT_CHECK_ONLY = ("import sys; from convres.cli import parse_input; "
                   "from convres.observability import prop3_spot_check; "
                   "print(prop3_spot_check(parse_input(open(sys.argv[1]).read()).code, "
                   "int(sys.argv[2])))")


def test_huge_exponent_is_checked_sparsely_under_a_memory_limit(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    def run(*args):
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=60, env=env, preexec_fn=limit_memory)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    for number, (document, bound, verdict) in enumerate(HUGE_DOCS):
        doc = tmp_path / f"huge{number}.json"
        doc.write_text(json.dumps(document))
        start = time.perf_counter()
        assert run("-c", SPOT_CHECK_ONLY, str(doc), str(bound)) == f"{verdict}\n", document
        assert time.perf_counter() - start < SPOT_CHECK_SECONDS, document
    doc = tmp_path / "huge0.json"
    out = run("-m", "convres.cli", "observable", "--prop3-bound", "2", str(doc))
    assert json.loads(out)["prop3"] is False


def _full(degree):
    """Every coefficient p - 1 = 4092 from D1^0 to D1^degree."""
    return " + ".join(f"4092*D1^{e}" for e in range(degree + 1))


# Codes over F_4093 whose int64 Smith form meets the largest coefficients:
# DENSE_DOC, a column whose huge-degree entry is divided by a quadratic
# (a quotient of about 4,000 terms), and a 2 x 2 code of full entries.
DENSE_MATRICES = [
    DENSE_DOC["matrix"],
    [[_full(4000)], [_full(2)]],
    [[_full(4000), _full(3999)], [_full(2000), "4092*D1^3 + 1"]],
]


@pytest.mark.parametrize("matrix", DENSE_MATRICES, ids=["dense", "tall", "full"])
def test_bound_one_verdicts_over_f_4093_are_common_roots_of_the_maximal_minors(matrix):
    """At B = 1 the spot check is true exactly when the maximal minors have
    no common root in F_p; every entry is evaluated at every point."""
    c = parse_input(json.dumps({"p": 4093, "n": 1, "kind": "code", "matrix": matrix})).code
    p, t = c.ring.p, np.arange(c.ring.p, dtype=np.int64)
    values = []
    for row in _sparse(c):
        values.append([])
        for f in row:
            v = np.zeros(p, np.int64)
            for e in range(max(f), -1, -1):
                v = (v * t + f.get(e, 0)) % p
            values[-1].append(v)
    if len(values[0]) == 2:
        (a, b), (d, e) = values
        minors = [a * e - b * d]
    else:
        minors = [row[0] for row in values]
    root_free = not np.any(np.all([m % p == 0 for m in minors], axis=0))
    assert prop3_spot_check(c, 1) == root_free
    assert root_free or matrix is not DENSE_DOC["matrix"]


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
