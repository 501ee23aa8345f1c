import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convres import NEG_INF, Poly, PolyMatrix, PolyParseError, Ring, parse_poly, twisted_degree
from convres.errors import DomainError, StructuralError

from helpers import (
    P,
    combine,
    dehomogenize,
    homogeneous_part,
    homogenize,
    is_homogeneous,
    reference_parse_poly,
    set_d0_zero,
)


@st.composite
def matrix_pairs(draw):
    """Matrices A and B over F_p[D1..Dn] such that A @ B is defined,
    p in {2, 3, 101, 2^31 - 1} and n <= 3, with zero entries."""
    ring = Ring(draw(st.sampled_from([2, 3, 101, 2**31 - 1])), draw(st.integers(1, 3)))
    coeffs = st.dictionaries(st.tuples(*[st.integers(0, 3)] * ring.n),
                             st.integers(0, ring.p - 1), max_size=3)
    rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(3))

    def matrix(nrows, ncols):
        return PolyMatrix.from_rows(ring, [[Poly.from_dict(ring, draw(coeffs))
                                            for _ in range(ncols)] for _ in range(nrows)])
    return matrix(rows, inner), matrix(inner, cols)


def _naive_sum_of_products(ring, pairs):
    """sum f * g over ``pairs``, one term product at a time, on a dict."""
    acc = {}
    for f, g in pairs:
        for e1, c1 in f.terms:
            for e2, c2 in g.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = (acc.get(e, 0) + c1 * c2) % ring.p
    return Poly.from_dict(ring, acc)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(matrix_pairs())
def test_products_agree_with_a_naive_dict_product(pair):
    a, b = pair
    ring = a.ring
    product = a @ b
    assert (product.nrows, product.ncols) == (a.nrows, b.ncols)
    for i in range(a.nrows):
        for j in range(b.ncols):
            pairs = list(zip(a.entries[i], b.column(j)))
            for f, g in pairs:
                assert f * g == _naive_sum_of_products(ring, [(f, g)])
            assert product.entry(i, j) == _naive_sum_of_products(ring, pairs)


def test_product_of_variables():
    r = Ring(5, 2)
    assert P("D1", r) * P("D2", r) == P("D1*D2", r)


def test_schoolbook_square_mod_two():
    r = Ring(2, 2)
    f = P("D1 + D2", r)
    assert f * f == P("D1^2 + D2^2", r)


def test_canonical_form_is_order_independent():
    rng = random.Random(7)
    r = Ring(3, 2)
    for _ in range(50):
        items = [(tuple(rng.randrange(4) for _ in range(2)), rng.randrange(3))
                 for _ in range(6)]
        acc = {}
        for e, c in items:
            acc[e] = acc.get(e, 0) + c
        direct = Poly.from_dict(r, acc)
        total = P("0", r)
        rng.shuffle(items)
        for e, c in items:
            total = combine(total, Poly.from_dict(r, {e: c}))
        assert total == direct


def test_total_degree():
    r = Ring(101, 2)
    assert P("2*D1^3*D2 + 1", r).degree == 4
    assert P("0", r).degree is NEG_INF
    assert P("D1^2 + D2^5", r).degree == 5


def test_twisted_degree_by_hand():
    r = Ring(101, 1)
    f = (P("1", r), P("D1", r))
    assert twisted_degree(f, (4, 2)) == 4
    assert twisted_degree((P("0", r), P("0", r)), (4, 2)) is NEG_INF
    # zero twist is the plain column degree
    g = (P("D1^3", r), P("D1", r))
    assert twisted_degree(g, (0, 0)) == 3


def test_twisted_degree_rank_mismatch():
    r = Ring(2, 1)
    with pytest.raises(StructuralError):
        twisted_degree((P("0", r),), (0, 0))


def test_homogenize_depends_on_the_degree():
    r = Ring(101, 2)
    f = P("2*D1^3*D2 + 1", r)
    t = r.homogeneous_companion()
    assert homogenize(f, 4) == P("2*D1^3*D2 + D0^4", t)
    assert homogenize(f, 5) == P("2*D0*D1^3*D2 + D0^5", t)
    assert homogenize(P("0", r), 3).is_zero


def test_homogenize_rejects_too_small_degree():
    r = Ring(101, 2)
    with pytest.raises(DomainError):
        homogenize(P("2*D1^3*D2 + 1", r), 3)


def test_dehomogenize():
    t = Ring(101, 2, homog=True)
    assert dehomogenize(P("2*D0*D1^3*D2 + D0^5", t)) == P("2*D1^3*D2 + 1", Ring(101, 2))
    assert dehomogenize(P("D0^4", t)) == P("1", Ring(101, 2))


def test_homogenize_round_trip():
    rng = random.Random(11)
    r = Ring(7, 2)
    for _ in range(40):
        coeffs = {tuple(rng.randrange(3) for _ in range(2)): rng.randrange(7)
                  for _ in range(4)}
        f = Poly.from_dict(r, coeffs)
        d = (int(f.degree) if not f.is_zero else 0) + rng.randrange(3)
        assert dehomogenize(homogenize(f, d)) == f


def test_homogenization_bijects_onto_the_degree_slice():
    # For homogeneous h of degree d in T, homogenize(dehomogenize(h), d) = h.
    rng = random.Random(13)
    t = Ring(5, 2, homog=True)
    for _ in range(40):
        d = rng.randrange(1, 5)
        coeffs = {}
        for _ in range(4):
            e1 = rng.randrange(d + 1)
            e2 = rng.randrange(d + 1 - e1)
            coeffs[(d - e1 - e2, e1, e2)] = rng.randrange(5)
        h = Poly.from_dict(t, coeffs)
        if h.is_zero:
            continue
        assert is_homogeneous(h) and h.degree == d
        assert homogenize(dehomogenize(h), d) == h


def test_homogeneous_part():
    r = Ring(101, 1)
    assert homogeneous_part(P("D1^2 - 10", r), 2) == P("D1^2", r)
    assert homogeneous_part(P("D1^2 - 5", r), 1).is_zero
    assert homogeneous_part(P("D1^2 + D1", r), -1).is_zero


def test_set_d0_zero():
    t = Ring(101, 1, homog=True)
    assert set_d0_zero(P("2*D0*D1^3 + D1^4", t)) == P("D1^4", t)
    assert set_d0_zero(P("D0^4", t)).is_zero
    assert set_d0_zero(P("D1*D0^0", t)) == P("D1", t)


def test_low_degree_space_dimensions_match_binomials():
    # dim S_{<=d} = C(d+n, n), checked by the oracle's slice enumeration.
    from convres.oracle import _slice
    for n in (1, 2, 3):
        for d in range(0, 9):
            assert len(_slice(n, (0,), d)[0]) == comb(d + n, n)
        assert len(_slice(n, (0,), -1)[0]) == 0


def test_grevlex_order_in_t_keeps_d0_smallest():
    t = Ring(7, 1, homog=True)
    f = P("D1^2 + D0*D1 + D0^2", t)
    assert [e for e, _ in f.terms] == [(0, 2), (1, 1), (2, 0)]


def test_ring_validation():
    with pytest.raises(DomainError):
        Ring(4, 1)
    with pytest.raises(DomainError):
        Ring(2, 0)
    with pytest.raises(DomainError):
        Ring(1, 1)


def test_arith_rejects_ring_mismatch():
    with pytest.raises(StructuralError):
        P("D1", Ring(2, 1)) * P("D1", Ring(3, 1))
    with pytest.raises(StructuralError):
        P("D1", Ring(2, 1)) * P("D1", Ring(2, 2))


def test_column_degrees_reject_zero_columns():
    r = Ring(2, 2)
    m = PolyMatrix.from_rows(r, [[P("D1", r), P("0", r)]])
    with pytest.raises(DomainError):
        m.column_degrees()


def test_parse_grammar():
    r = Ring(101, 2)
    assert parse_poly("2*D1^3*D2 + 1", r) == Poly.from_dict(r, {(3, 1): 2, (0, 0): 1})
    assert parse_poly("-D1 - 7", r) == Poly.from_dict(r, {(1, 0): 100, (0, 0): 94})
    assert parse_poly(" 0 ", r).is_zero
    assert parse_poly("102", r) == Poly.from_dict(r, {(0, 0): 1})
    assert parse_poly("3*2", r) == Poly.from_dict(r, {(0, 0): 6})


def test_parse_errors_carry_positions():
    r = Ring(5, 1)
    with pytest.raises(PolyParseError) as info:
        parse_poly("D1 + D9", r)
    assert info.value.position == 5
    with pytest.raises(PolyParseError):
        parse_poly("D1 +", r)
    with pytest.raises(PolyParseError):
        parse_poly("", r)
    with pytest.raises(PolyParseError):
        parse_poly("x + 1", r)
    with pytest.raises(PolyParseError):
        parse_poly("D0", r)  # D0 only over T


def test_str_parse_round_trip():
    rng = random.Random(3)
    for ring in (Ring(2, 2), Ring(101, 3), Ring(3, 1, homog=True)):
        for _ in range(30):
            coeffs = {tuple(rng.randrange(3) for _ in range(ring.nvars)):
                      rng.randrange(ring.p) for _ in range(4)}
            f = Poly.from_dict(ring, coeffs)
            assert parse_poly(str(f), ring) == f


def test_large_power_parses_quickly_into_one_monomial():
    r = Ring(101, 3)
    start = time.monotonic()
    f = parse_poly("D1^100000", r)
    assert time.monotonic() - start < 0.05
    assert f == Poly.from_dict(r, {(100000, 0, 0): 1})
    assert parse_poly("-2*D3^0*D2^3", r) == Poly.from_dict(r, {(0, 3, 0): -2})


def parse_outcome(parse, text, ring):
    """The parsed polynomial, or the error's text and position."""
    try:
        return parse(text, ring)
    except PolyParseError as exc:
        return str(exc), exc.position


PARSE_RINGS = (Ring(5, 2), Ring(5, 2, homog=True), Ring(2, 1))
TOKENS = ("D0", "D1", "D2", "D3", "D", "0", "1", "2", "4", "13", "+", "-", "*", "^", " ", "x")


def test_parse_poly_equals_the_reference_on_edge_cases():
    cases = ["D1*D1^2", "D1^2*3*D1*4", "2*3*D2", "--+-D1", "-+-2*D1 - -D2", "D1^0",
             "D1^0*D2^0 + 4", "D1 - D1", "D1 + 4*D1", "2*D1*D2 + 3*D2*D1", "0*D1 + 0",
             "D1 +", "*D1", "D1^", "D1 D2", "D", "D9", "", "  ", "D1^D2", "3 4", "D1^-1",
             "D0*D1^3 + D0^2", "+", "D1 ^ 2 * D2", "D12", "x",
             "\u0663*D1", "D\u0661^\u0662", "D1\u00a0+\u20031"]
    for ring in PARSE_RINGS:
        for text in cases:
            assert (parse_outcome(parse_poly, text, ring)
                    == parse_outcome(reference_parse_poly, text, ring)), (text, ring)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(st.sampled_from(TOKENS), max_size=12), st.sampled_from(PARSE_RINGS))
def test_parse_poly_equals_the_reference_on_token_strings(tokens, ring):
    text = "".join(tokens)
    assert parse_outcome(parse_poly, text, ring) == parse_outcome(reference_parse_poly, text, ring)


@st.composite
def well_formed(draw):
    factor = st.one_of(st.integers(0, 12).map(str),
                       st.tuples(st.sampled_from(("D1", "D2")), st.integers(0, 3)).map(
                           lambda t: t[0] if t[1] == 1 else f"{t[0]}^{t[1]}"))
    terms = draw(st.lists(st.tuples(st.text("+-", max_size=3),
                                    st.lists(factor, min_size=1, max_size=4)),
                          min_size=1, max_size=6))
    text = ""
    for i, (signs, factors) in enumerate(terms):
        lead = signs if i == 0 else (signs or "+")
        text += f" {lead} " + "*".join(factors)
    return text


@settings(derandomize=True, deadline=None, max_examples=300)
@given(well_formed())
def test_parse_poly_equals_the_reference_on_well_formed_polynomials(text):
    for ring in PARSE_RINGS[:2]:
        want = reference_parse_poly(text, ring)
        assert parse_poly(text, ring) == want
