"""Second ways to check the Groebner engine.

* Properties of the packed-integer term encoding (hypothesis).
* Guards: oversized terms raise DomainError, failed self-checks raise
  InvariantError (never a bare assert, which ``python -O`` drops).
* Differential test for ideals against sympy's Groebner bases.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convres import Poly, Ring
from convres.cli import main
from convres.errors import DomainError, InvariantError
from convres import groebner
from convres.groebner import ModuleOrder, _monic, _syzygies_flat

from helpers import (
    benchmark_documents,
    codes,
    division_syzygies,
    mat,
    mul_monomial,
    order_key,
    pack,
    random_poly,
    reduced_basis,
    same_span,
    unpack,
)

LIMIT = groebner._LIMIT
checked = settings(derandomize=True, deadline=None, max_examples=200)

# Small exponents make ties and near-ties likely; large ones exercise
# every bit of a digit.  Four of them plus a twist stay below LIMIT,
# and so does the product of two such terms.
small_or_large = st.one_of(st.integers(0, 3), st.integers(0, 2**26))


@st.composite
def orders(draw):
    ring = Ring(draw(st.sampled_from([2, 3, 5, 101])), draw(st.integers(1, 3)),
                homog=draw(st.booleans()))
    rank = draw(st.integers(1, 3))
    twist = tuple(draw(small_or_large) for _ in range(rank))
    return ModuleOrder(ring, twist)


def terms(order, exps=small_or_large):
    return st.tuples(st.integers(0, order.rank - 1),
                     st.tuples(*[exps] * order.ring.nvars))


def monomials(order):
    return st.tuples(*[small_or_large] * order.ring.nvars)


@checked
@given(st.data())
def test_packed_order_is_module_order(data):
    order = data.draw(orders())
    ts = data.draw(st.lists(terms(order), min_size=2, max_size=8))
    a, b = ts[0], ts[1]
    assert (order.pack(a) < order.pack(b)) == (order_key(order, a) < order_key(order, b))
    assert (order.pack(a) == order.pack(b)) == (a == b)
    assert sorted(ts, key=order.pack) == sorted(ts, key=lambda t: order_key(order, t))


def test_packed_order_is_module_order_over_t_with_unequal_twists():
    # Equal weights at positions of unequal twist, where the degree and
    # the D0 exponent disagree: D0*D1 at position 0 against D1 at 1, and
    # D0*D2^2 at position 0 against D1 at 1.  The D0-divisible term has
    # the higher degree, yet the D0-free one leads, by pack and by key.
    for twist, a, b in (((0, 1), (0, (1, 1)), (1, (0, 1))),
                        ((0, 2), (0, (1, 0, 2)), (1, (0, 1, 0)))):
        order = ModuleOrder(Ring(101, len(a[1]) - 1, homog=True), twist)
        assert order.pack(b) > order.pack(a)
        assert order_key(order, b) > order_key(order, a)
    order = ModuleOrder(Ring(101, 1, homog=True), (0, 1))
    ts = [(pos, (e0, e1)) for pos in (0, 1) for e0 in range(3) for e1 in range(3)]
    assert sorted(ts, key=order.pack) == sorted(ts, key=lambda t: order_key(order, t))


@checked
@given(st.data())
def test_pack_unpack_round_trip(data):
    order = data.draw(orders())
    term = data.draw(terms(order))
    assert order.unpack(order.pack(term)) == term


@checked
@given(st.data())
def test_shift_is_monomial_multiplication(data):
    order = data.draw(orders())
    pos, exps = data.draw(terms(order))
    m = data.draw(monomials(order))
    product = (pos, tuple(a + b for a, b in zip(exps, m)))
    assert order.pack((pos, exps)) + order.shift(m) == order.pack(product)


@checked
@given(st.data())
def test_divides_matches_exponent_comparison(data):
    order = data.draw(orders())
    small = st.integers(0, 3)
    (pa, ea), (pb, eb) = data.draw(terms(order, small)), data.draw(terms(order, small))
    expected = pa == pb and all(x <= y for x, y in zip(ea, eb))
    assert order.divides(order.pack((pa, ea)), order.pack((pb, eb))) == expected


@checked
@given(st.data())
def test_weight_beyond_limit_raises(data):
    order = data.draw(orders())
    pos, exps = data.draw(terms(order))
    slot = data.draw(st.integers(0, order.ring.nvars - 1))
    base = sum(exps) - exps[slot] + order.twist[pos]
    at_limit = exps[:slot] + (LIMIT - base,) + exps[slot + 1:]
    assert order.unpack(order.pack((pos, at_limit))) == (pos, at_limit)
    big = data.draw(st.integers(LIMIT - base + 1, 2**70))
    with pytest.raises(DomainError):
        order.pack((pos, exps[:slot] + (big,) + exps[slot + 1:]))


def test_oversized_exponent_raises_instead_of_wrapping():
    r = Ring(5, 2)
    huge = Poly.from_dict(r, {(2**31, 0): 1})
    with pytest.raises(DomainError):
        pack([(huge,)], ModuleOrder(r, (0,)))
    with pytest.raises(DomainError):
        ModuleOrder(r, (0,)).pack((0, (1, -1)))
    with pytest.raises(DomainError):
        ModuleOrder(r, (2**31,)).pack((0, (0, 0)))


def test_spair_beyond_limit_raises():
    # Both generators are in range; their lcm is not.
    r = Ring(5, 2)
    half = (LIMIT + 1) // 2
    gens = [(Poly.from_dict(r, {(half, 0): 1}),), (Poly.from_dict(r, {(0, half): 1}),)]
    order = ModuleOrder(r, (0,))
    with pytest.raises(DomainError):
        reduced_basis(pack(gens, order), order)
    # The one check of an lcm's weight: ``_Completion.add`` makes it as it
    # queues the pair, so it raises before ``run`` reduces anything.
    completion = groebner._Completion(order)
    first, second = pack(gens, order)
    completion.add(first)
    with pytest.raises(DomainError, match=f"term weight {2 * half} exceeds the supported {LIMIT}"):
        completion.add(second)
    assert completion._heap == []


# -- self-checks raise InvariantError ------------------------------------

def _schreyer_after(damage, real=groebner._schreyer):
    """``_schreyer`` that first applies ``damage`` to the completion of a
    level over T, the call ``_minimal_level`` makes on the resolve path."""
    def run(completion):
        if completion.order.ring.homog:
            damage(completion)
        return real(completion)
    return run


def test_failed_self_check_exits_2_without_a_report(tmp_path, capsys, monkeypatch):
    # A level whose run left no syzygy: [D1 D2] loses its Koszul syzygy
    # and the exactness check of the constructed complex fails.
    monkeypatch.setattr(groebner, "_schreyer",
                        _schreyer_after(lambda completion: completion.syzygies.clear()))
    path = tmp_path / "code.json"
    path.write_text('{"p": 2, "n": 2, "kind": "code", "matrix": [["D1", "D2"]]}')
    assert main(["resolve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not exact" in err


def _lead_terms_only(completion):
    """Each syzygy the run left cut down to its leading term, which no
    longer vanishes on the inputs."""
    for key, flat in completion.syzygies.items():
        lead = max(flat)
        completion.syzygies[key] = {lead: flat[lead]}


def test_wrong_syzygy_exits_2_without_a_report(tmp_path, capsys, monkeypatch):
    # The Koszul syzygy of [D1 D2] without its second term: the product
    # check of the constructed complex fails before any report is made.
    monkeypatch.setattr(groebner, "_schreyer", _schreyer_after(_lead_terms_only))
    path = tmp_path / "code.json"
    path.write_text('{"p": 2, "n": 2, "kind": "code", "matrix": [["D1", "D2"]]}')
    assert main(["resolve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "G_1 G_2 is not zero" in err


def test_changed_lead_raises_invariant_error():
    order = ModuleOrder(Ring(5, 1), (0,))
    big, small = order.pack((0, (2,))), order.pack((0, (1,)))
    # An item whose recorded lead is not its largest term.
    item = groebner._GBItem({big: 1, small: 1}, small, order)
    with pytest.raises(InvariantError):
        groebner._interreduce([item], order)


# -- the pair relations are all the syzygies ------------------------------
# ``_syzygies_flat`` once appended the columns of (I - A B) to the pulled
# back pair relations (``division_syzygies`` of ``tests/helpers.py``).

def _lead_divides_a_later_lead(columns, order):
    """Whether an earlier column's lead divides a later one's, the only
    case in which a column of (I - A B) is nonzero."""
    leads = [max(col) for col in columns]
    return any(order.divides(leads[i], leads[j]) for j in range(len(leads)) for i in range(j))


def _pair_relations_span_the_division_syzygies(columns, order):
    """Asserts that the syzygies of nonzero packed columns span what the
    pair relations and the columns of (I - A B) span; returns whether a
    column of (I - A B) is none of the syzygies."""
    syz_order = ModuleOrder(order.ring, tuple(max(col) >> order._weight_at for col in columns))
    syz = _syzygies_flat(columns, order, syz_order)[0]
    reference = division_syzygies(columns, order, syz_order)
    assert same_span(syz, reference, syz_order), columns
    return any(_monic(col, order.ring.p)[0] not in syz for col in reference)


def test_pair_relations_span_the_division_syzygies_of_equal_columns():
    # Item 1's lead divides item 0's, so item 2 pairs with item 1 only;
    # dividing column 2 by the items leaves e_2 - e_0, no pair relation.
    r = Ring(101, 2)
    order = ModuleOrder(r, (0,))
    columns = pack(mat(r, [["D1", "D1", "D1"]]).columns(), order)
    assert _lead_divides_a_later_lead(columns, order)
    assert _pair_relations_span_the_division_syzygies(columns, order)


def test_pair_relations_span_the_division_syzygies_of_benchmark_parity_checks():
    # The left kernel that ``is_observable`` takes of each seed-0
    # small-mix code.  While the columns of (I - A B) were appended, 59
    # parity checks carried one as a third row.
    new_rows = 0
    for doc in benchmark_documents("observable", 18000):
        gens = doc.code.generators
        order = ModuleOrder(doc.code.ring, (0,) * gens.ncols)
        rows = [row for row in pack(gens.entries, order) if row]
        if rows and _lead_divides_a_later_lead(rows, order):
            new_rows += _pair_relations_span_the_division_syzygies(rows, order)
    assert new_rows >= 59


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_pair_relations_span_the_division_syzygies_of_drawn_codes(data):
    # A drawn code's columns, then a monomial multiple of one of them.
    c = data.draw(codes())
    columns = list(c.generators.columns())
    exps = data.draw(st.tuples(*[st.integers(0, 1)] * c.ring.n))
    coeff = data.draw(st.integers(1, c.ring.p - 1))
    columns.append(tuple(mul_monomial(f, exps, coeff) for f in data.draw(st.sampled_from(columns))))
    order = ModuleOrder(c.ring, (0,) * c.q)
    packed = pack(columns, order)
    assert _lead_divides_a_later_lead(packed, order)
    _pair_relations_span_the_division_syzygies(packed, order)


# -- differential test against sympy -------------------------------------

def _to_sympy(sympy, f, symbols):
    return sum(c * sympy.Mul(*[s**e for s, e in zip(symbols, exps)])
               for exps, c in f.terms)


def _sympy_basis(sympy, polys, ring):
    symbols = sympy.symbols(" ".join(f"D{i + 1}" for i in range(ring.n)), seq=True)
    basis = sympy.groebner([_to_sympy(sympy, f, symbols) for f in polys], *symbols,
                           modulus=ring.p, order="grevlex")
    out = set()
    for g in basis.polys:
        # Monic on the grevlex leading term; terms() is in lex order.
        inv = pow(int(g.LC(order="grevlex")) % ring.p, ring.p - 2, ring.p)
        out.add(Poly.from_dict(ring, {e: int(c) * inv for e, c in g.terms()}))
    return out


def test_ideal_bases_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    compared = 0
    while compared < 60:
        ring = Ring(rng.choice([2, 3, 101]), rng.randint(1, 3))
        polys = [f for f in (random_poly(rng, ring, 3) for _ in range(rng.randint(1, 4)))
                 if not f.is_zero]
        if not polys:
            continue
        order = ModuleOrder(ring, (0,))
        ours = unpack(reduced_basis(pack([(f,) for f in polys], order), order), order)
        assert {g[0] for g in ours} == _sympy_basis(sympy, polys, ring), polys
        compared += 1
