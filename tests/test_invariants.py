import random
from math import comb
from types import SimpleNamespace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convres import Poly, PolyMatrix, Ring
from convres.algebra import CodePresentation
from convres.cli import run_command
from convres.complexes import minimal_resolution
from convres.invariants import forney_table, hilbert_formula, hilbert_values, memory, rate
from convres.oracle import hilbert_oracle

from helpers import benchmark_documents, code, codes, combine, koszul_code, random_code


def test_hilbert_formula_koszul_values():
    table = ((1, 1), (2,))
    assert hilbert_formula(table, 2, 2) == 5
    assert hilbert_formula(table, 2, 0) == 0
    assert [hilbert_formula(table, 2, d) for d in range(5)] == [0, 2, 5, 9, 14]


def test_hilbert_formula_full_space():
    # l = 1 with zero degrees: q * C(d+n, n)
    from math import comb
    for q in (1, 3):
        table = ((0,) * q,)
        for n in (1, 2, 3):
            for d in range(-2, 6):
                assert hilbert_formula(table, n, d) == q * (comb(d + n, n) if d >= 0 else 0)


def test_hilbert_formula_matches_oracle_on_random_codes():
    rng = random.Random(61)
    for _ in range(5):
        c = random_code(rng, n=rng.randint(1, 2))
        rep = minimal_resolution(c)
        for d in range(0, 6):
            assert hilbert_formula(rep.degree_table, c.ring.n, d) == hilbert_oracle(c, d)


def test_hilbert_is_monotone_and_eventually_polynomial():
    rng = random.Random(67)
    for _ in range(4):
        c = random_code(rng, n=rng.randint(1, 2))
        rep = minimal_resolution(c)
        n = c.ring.n
        top = max(max(level) for level in rep.degree_table)
        values = [hilbert_formula(rep.degree_table, n, d) for d in range(top + n + 6)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        # (n+1)-st finite differences vanish beyond the largest table entry
        diffs = values
        for _ in range(n + 1):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert all(x == 0 for x in diffs[top + 1:])


def _table(c):
    return minimal_resolution(c).degree_table


def test_forney_table_examples():
    assert forney_table(_table(koszul_code())) == ((1, 1), (2,))
    r = Ring(2, 2)
    assert forney_table(_table(code(r, [["D1"], ["D2"]]))) == ((1,),)
    assert forney_table(_table(code(r, [["1", "0"], ["0", "1"]]))) == ((0, 0),)
    assert forney_table(((2, 1), (3,))) == ((1, 2), (3,))


def test_forney_levels_are_sorted():
    r = Ring(101, 2)
    for level in forney_table(_table(code(r, [["D1^2", "D2"]]))):
        assert tuple(sorted(level)) == level


def test_memory():
    assert memory(_table(koszul_code())) == 1
    r = Ring(2, 2)
    assert memory(_table(code(r, [["1", "0"], ["0", "1"]]))) == 0
    # a single generator of degree 4 as its own resolution
    r1 = Ring(101, 1)
    assert memory(_table(code(r1, [["2*D1^3 + D1 + 1"], ["D1^2 - 5"], ["3*D1^4 + 7*D1"]]))) == 4


def test_rate_and_dimension():
    """The rate lists the level sizes, last level first; its length is l."""
    rep = minimal_resolution(koszul_code())
    assert rate(rep.degree_table) == (1, 2) and rep.complex.q == 1
    assert len(rep.degree_table) == rep.complex.length == 2
    r = Ring(2, 2)
    table = _table(code(r, [["D1"], ["D2"]]))
    assert rate(table) == (1,) and len(table) == 1
    assert rate(_table(code(r, [["1", "0"], ["0", "1"]]))) == (2,)


def test_hilbert_values_helper():
    assert hilbert_values(_table(koszul_code()), 2, 4) == [0, 2, 5, 9, 14]
    assert hilbert_values(((1, 1), (2,)), 2, 0) == [0]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(codes(), st.data())
def test_tables_survive_unimodular_column_operations(c, data):
    """Permuting the generator columns, or adding to one column a
    polynomial multiple of another, keeps the module, so the degree and
    Forney tables stay; the length l stays within 1..n."""
    rep = minimal_resolution(c)
    assert 1 <= rep.complex.length <= c.ring.n
    cols = c.generators.columns()
    perm = data.draw(st.permutations(range(len(cols))))
    cols = [cols[k] for k in perm]
    if len(cols) > 1:
        j, k = data.draw(st.lists(st.integers(0, len(cols) - 1), min_size=2, max_size=2,
                                  unique=True))
        exps = st.tuples(*[st.integers(0, 2)] * c.ring.n)
        h = Poly.from_dict(c.ring, data.draw(
            st.dictionaries(exps, st.integers(1, c.ring.p - 1), max_size=3)))
        cols[j] = tuple(combine(a, h * b) for a, b in zip(cols[j], cols[k]))
        assume(any(not f.is_zero for f in cols[j]))
    moved = minimal_resolution(
        CodePresentation(c.ring, PolyMatrix.from_columns(c.ring, c.q, cols)))
    assert moved.degree_table == rep.degree_table
    assert forney_table(moved.degree_table) == forney_table(rep.degree_table)
    assert 1 <= moved.complex.length <= c.ring.n


def test_resolve_reports_agree_with_their_degree_tables():
    """Every invariant of a ``resolve`` report, on the benchmark's codes,
    read off the report's own degree table by hand."""
    docs = benchmark_documents("resolve", 300)
    assert len(docs) > 50
    for doc in docs:
        out, status = run_command("resolve", doc, SimpleNamespace(hilbert_max=6))
        table, sizes = out["degree_table"], out["sizes"]
        assert status == 0
        assert out["forney_table"] == [sorted(level) for level in table]
        assert out["memory"] == max(table[0])
        assert out["rate"] == {"tuple": sizes["p"][::-1], "q": sizes["q"]}
        assert sizes["p"] == [len(level) for level in table]
        assert out["l"] == len(table)
        assert all(out["checks"].values()) and len(out["checks"]) == 4
        assert out["hilbert"] == [
            sum((-1) ** k * comb(d - a + doc.n, doc.n)
                for k, level in enumerate(table) for a in level if a <= d)
            for d in range(7)]
