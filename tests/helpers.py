"""Shared fixtures: tiny constructors, seeded generators, slice oracles,
the adapter between ``Poly`` columns and the packed core, the reference
resolution routes, the criteria-free Groebner routes, the former
resolution and observability checks, the list-based univariate spot
check, the former block-rank spot check and the entrywise homogeneity
helpers that only tests use."""

import functools
import heapq
import random
import sys
from itertools import product
from operator import add
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from convres import (
    CodePresentation,
    Poly,
    PolyComplex,
    PolyMatrix,
    Ring,
    parse_poly,
    validate_complex,
)
from convres.algebra import (
    NEG_INF,
    check_twist,
    twisted_degree,
    vec_is_zero,
)
from convres.complexes import (
    _exact_by_numerators,
    _leading_part,
    _lifted_code,
    _packed_levels,
    _syzygy_chain,
    check_reduced,
    check_resolution,
    column_degree_table,
    minimal_resolution,
    minimality_witness,
)
from convres.errors import DomainError, InvariantError, PolyParseError, StructuralError
from convres.groebner import (
    _C,
    _MASK,
    ModuleOrder,
    _Completion,
    _GBItem,
    _addmul,
    _buchberger,
    _check_weight,
    _flat_degree,
    _from_flat,
    _interreduce,
    _lift_flat,
    _minimal_level,
    _monic,
    _reduce_flat,
    _schreyer,
    _syzygies_flat,
    _to_flat,
    monomial_hilbert_numerator,
)
from convres.observability import (
    ObservabilityReport,
    TorsionWitness,
    is_observable,
    prop3_spot_check,
)
from convres.invariants import hilbert_formula
from convres.oracle import (
    _compositions,
    nullspace_mod_p,
    rref_mod_p,
    truncated_code_space,
)


def ring2():
    return Ring(2, 2)


def P(text, ring):
    return parse_poly(text, ring)


def combine(f, g, c=1):
    """f + c * g: the one additive operation on ``Poly`` that tests use."""
    acc = dict(f.terms)
    for e, v in g.terms:
        acc[e] = acc.get(e, 0) + c * v
    return Poly.from_dict(f.ring, acc)


def mat(ring, rows):
    return PolyMatrix.from_rows(ring, [[parse_poly(s, ring) for s in row]
                                       for row in rows])


def code(ring, rows):
    return CodePresentation(ring, mat(ring, rows))


def koszul_code():
    return code(ring2(), [["D1", "D2"]])


def koszul_complex():
    r = ring2()
    return validate_complex([mat(r, [["D1", "D2"]]), mat(r, [["D2"], ["D1"]])])


def paper_matrix():
    """The 3x2 univariate golden matrix over F_101."""
    r = Ring(101, 1)
    return mat(r, [["2*D1^3 + D1 + 1", "D1^2 - 10"],
                   ["D1^2 - 5", "D1 + 4"],
                   ["3*D1^4 + 7*D1", "D1^2 + 1"]])


# -- the adapter between Poly columns and the packed core ---------------------
# Tests hand ``Poly`` data to the packed core (``_syzygies_flat``,
# ``_buchberger``, ``_minimal_level``, ...) through ``pack`` and read its
# results back through ``unpack``; nothing else converts.

def pack(columns, order):
    """``Poly`` columns as packed dicts under ``order``."""
    return [_to_flat(col, order) for col in columns]


def unpack(flats, order, ring=None):
    """Packed columns as tuples of ``Poly``: over ``order.ring``, or
    over S at D0 = 1 when ``ring`` is S (see ``_from_flat``)."""
    return [_from_flat(order, flat, ring) for flat in flats]


def order_key(order, term):
    """The term (position, exponents) as a tuple in the order of ``order``,
    the reference ``ModuleOrder.pack`` is tested against: weight, then
    over T the smaller D0 exponent, then grevlex, then smaller position."""
    pos, exps = term
    deg, tail = order.ring.mono_key(exps)
    return (deg + order.twist[pos],) + (-exps[0],) * order.ring.homog + (deg, tail, -pos)


def core_syzygies(gens_flat, order, syz_order):
    """The packed core's syzygies of packed columns (``_syzygies_flat``)."""
    return _syzygies_flat(gens_flat, order, syz_order)[0]


def poly_syzygies(matrix, row_twist=None, route=core_syzygies):
    """The syzygies of a ``Poly`` matrix by a packed route, as ``Poly`` columns.

    The columns are packed by the order of ``row_twist`` (zero by
    default) and the syzygies by the order of the column degrees.
    """
    ring = matrix.ring
    order = ModuleOrder(ring, row_twist or (0,) * matrix.nrows)
    syz_order = ModuleOrder(ring, matrix.column_degrees(row_twist))
    return unpack(route(pack(matrix.columns(), order), order, syz_order), syz_order)


def reduced_basis(gens_flat, order):
    """The packed core's reduced Groebner basis of packed columns, as packed columns."""
    return [it.flat for it in _interreduce(_buchberger(gens_flat, order).items, order)]


def same_span(a_flat, b_flat, order):
    """Whether two lists of packed columns span one module (equal reduced bases)."""
    return reduced_basis(a_flat, order) == reduced_basis(b_flat, order)


def mul_monomial(f, exps, coeff=1):
    """coeff * D^exps * f."""
    return Poly.from_dict(f.ring, {tuple(map(add, e, exps)): c * coeff for e, c in f.terms})


def scalar_value(f):
    """The value of a nonzero scalar polynomial, else None."""
    return f.terms[0][1] if len(f.terms) == 1 and not any(f.terms[0][0]) else None


def packed_lift(cx):
    """G^H of a complex as packed columns over T, with the order over T of
    each level: every column of ``_packed_levels`` homogenized in its
    twisted degree (``_lift_flat``)."""
    levels, s_orders = _packed_levels(cx)
    t_ring = cx.ring.homogeneous_companion()
    orders = [ModuleOrder(t_ring, order.twist) for order in s_orders]
    return ([[_lift_flat(flat, s_order, order) for flat in cols]
             for cols, s_order, order in zip(levels, s_orders, orders)], orders)


def _d0_free(flat, order):
    """The terms of ``flat``, packed by ``order`` over T, free of D0: its value at D0 = 0."""
    at = order._at[0]
    return {t: c for t, c in flat.items() if (t >> at) & _MASK == _C}


def unpacked_lift(cx):
    """The matrices of G^H over T (``packed_lift``) and of G^L over S as
    the checks of a given complex read it (``_leading_part``)."""
    levels, orders = packed_lift(cx)
    high = tuple(PolyMatrix.from_columns(order.ring, order.rank, unpack(cols, order))
                 for cols, order in zip(levels, orders))
    levels, orders = _leading_part(cx)
    low = tuple(PolyMatrix.from_columns(cx.ring, order.rank, unpack(cols, order))
                for cols, order in zip(levels, orders))
    return high, low


# -- seeded random generators -------------------------------------------

def random_poly(rng, ring, max_deg, nonzero=False):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * ring.nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exps[rng.randrange(ring.nvars)] += 1
        coeffs[tuple(exps)] = coeffs.get(tuple(exps), 0) + rng.randrange(ring.p)
    f = Poly.from_dict(ring, coeffs)
    if nonzero and f.is_zero:
        return P(str(1 + rng.randrange(ring.p - 1)), ring)
    return f


def random_code(rng, p=None, n=None, q=None, max_cols=3, max_deg=2):
    p = p if p is not None else rng.choice([2, 3, 101])
    n = n if n is not None else rng.randint(1, 3)
    q = q if q is not None else rng.randint(1, 3)
    ring = Ring(p, n)
    t = rng.randint(1, max_cols)
    while True:
        rows = [[random_poly(rng, ring, max_deg) for _ in range(t)] for _ in range(q)]
        m = PolyMatrix.from_rows(ring, rows)
        if not m.has_zero_column():
            return CodePresentation(ring, m)


@st.composite
def codes(draw):
    """A hypothesis strategy: small codes with p in {2, 3, 101}, n, q and
    columns <= 3, entries of degree <= 2 with at most three terms."""
    ring = Ring(draw(st.sampled_from([2, 3, 101])), draw(st.integers(1, 3)))
    q, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * ring.n).filter(lambda e: sum(e) <= 2)
    poly = st.dictionaries(exps, st.integers(1, ring.p - 1), max_size=3)
    rows = [[Poly.from_dict(ring, draw(poly)) for _ in range(t)] for _ in range(q)]
    generators = PolyMatrix.from_rows(ring, rows)
    assume(not generators.has_zero_column())
    return CodePresentation(ring, generators)


def linear_code(rng):
    """A generic 3x5 code of linear forms over F_101 with n = 3."""
    r = Ring(101, 3)
    rows = [[Poly.from_dict(r, {e: rng.randrange(1, 101)
                                for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))})
             for _ in range(5)] for _ in range(3)]
    return CodePresentation(r, PolyMatrix.from_rows(r, rows))


# The 2x4 code over F_101 with n = 3 whose resolution took minutes when
# syzygy modules were pruned only after the next level was computed.
CANARY_ROWS = [
    ["73*D1^2 + 23*D1", "93*D2^2 + 77*D2", "65", "62*D1 + 96"],
    ["81", "11*D1*D2 + 88*D2^2 + 63*D3", "85*D3 + 7", "91*D2^2 + 73*D2*D3 + 44*D3"],
]


def acceptance_corpus():
    """The Koszul code, the seeded codes of acceptance criteria 3, 6, 7
    and 9, and 20 seeded generic linear codes with n = 3."""
    codes = [koszul_code()]
    rng = random.Random(101)  # acceptance criterion 3
    codes += [random_code(rng) for _ in range(12)]
    rng = random.Random(66)   # acceptance criterion 6
    codes += [random_code(rng, n=2), random_code(rng, n=1), random_code(rng, n=2)]
    rng = random.Random(77)   # acceptance criterion 7
    codes += [random_code(rng, n=rng.randint(1, 2)) for _ in range(10)]
    rng = random.Random(99)   # acceptance criterion 9
    codes += [random_code(rng) for _ in range(40)]
    rng = random.Random(303)
    codes += [linear_code(rng) for _ in range(20)]
    return codes


def random_complex(rng):
    """A random valid complex: products vanish, no zero columns.

    Mix of single matrices, genuine syzygy pairs, and pairs damaged by
    scaling or dropping syzygy columns (still a complex, often inexact).
    """
    p = rng.choice([2, 3, 101])
    n = rng.randint(1, 2)
    ring = Ring(p, n)
    q = rng.randint(1, 3)
    t = rng.randint(1, 3)
    while True:
        rows = [[random_poly(rng, ring, 2) for _ in range(t)] for _ in range(q)]
        g1 = PolyMatrix.from_rows(ring, rows)
        if not g1.has_zero_column():
            break
    style = rng.random()
    if style < 0.4:
        return validate_complex([g1])
    order = ModuleOrder(ring, (0,) * q)
    syz_order = ModuleOrder(ring, g1.column_degrees())
    syz, _ = _syzygies_flat(pack(g1.columns(), order), order, syz_order)
    if not syz:
        return validate_complex([g1])
    cols = unpack(syz, syz_order)
    if style < 0.7:
        cols = cols[:3]
    else:
        cols = cols[:3]
        k = rng.randrange(len(cols))
        slot = rng.randrange(ring.nvars)
        shift = tuple(1 if i == slot else 0 for i in range(ring.nvars))
        cols[k] = tuple(Poly.from_dict(ring, {tuple(map(add, e, shift)): c for e, c in f.terms})
                        for f in cols[k])
        if len(cols) > 1 and rng.random() < 0.5:
            cols.pop(rng.randrange(len(cols)))
    g2 = PolyMatrix.from_columns(ring, g1.ncols, cols)
    return validate_complex([g1, g2])


@functools.cache
def probe_corpus() -> tuple:
    """The Koszul complex, 200 seeded random complexes (damaged ones
    included) and the unpruned resolutions of the acceptance corpus."""
    rng = random.Random(2024)
    cases = [koszul_complex()] + [random_complex(rng) for _ in range(200)]
    cases += [resolution_without_minimalization(c).complex for c in acceptance_corpus()]
    return tuple(cases)


def benchmark_documents(command: str, ops: int) -> list:
    """The parsed documents of the ``command`` ops among the first ``ops``
    seed-0 small-mix benchmark ops."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    from convres.cli import parse_input
    return [parse_input(text) for cmd, _, text in workloads.generate("small-mix", 0, ops)
            if cmd == command]


def benchmark_complexes(ops: int) -> list:
    """The complexes of the ``check`` ops among the first ``ops`` seed-0
    small-mix benchmark ops: Koszul complexes, many of them damaged."""
    return [doc.complex for doc in benchmark_documents("check", ops)]


@st.composite
def complexes(draw):
    """A hypothesis strategy: a code of ``codes`` alone, or followed by
    up to three of its syzygies, one of them multiplied by a variable or
    dropped on some draws (still a complex, often inexact)."""
    c = draw(codes())
    syz = poly_syzygies(c.generators)
    if not syz or draw(st.booleans()):
        return validate_complex([c.generators])
    cols = syz[:3]
    damage = draw(st.sampled_from(["none", "shift", "drop"]))
    if damage == "shift":
        k = draw(st.integers(0, len(cols) - 1))
        slot = draw(st.integers(0, c.ring.n - 1))
        cols[k] = tuple(mul_monomial(f, tuple(int(i == slot) for i in range(c.ring.n)))
                        for f in cols[k])
    elif damage == "drop" and len(cols) > 1:
        cols.pop(draw(st.integers(0, len(cols) - 1)))
    return validate_complex([c.generators,
                             PolyMatrix.from_columns(c.ring, c.generators.ncols, cols)])


# -- graded slice oracle over T -------------------------------------------

def _exact_degree_monomials(nvars, d):
    if d < 0:
        return []
    return sorted(e for e in product(range(d + 1), repeat=nvars) if sum(e) == d)


def graded_minimal_generator_count(generators, rank, twist, ring):
    """Number of minimal generators of a graded submodule of T^rank.

    Works degree by degree with plain rank computations: in each degree
    the new-generator count is dim M_d minus the dimension of the span
    of the variable shifts of a basis of M_{d-1}.
    """
    p = ring.p
    degs = []
    for g in generators:
        d = None
        for pos, f in enumerate(g):
            if not f.is_zero:
                d = int(f.degree) + twist[pos]
        degs.append(d)
    dmax = max(degs)

    def slice_basis_index(d):
        monos = []
        for pos in range(rank):
            for e in _exact_degree_monomials(ring.nvars, d - twist[pos]):
                monos.append((pos, e))
        return {t: i for i, t in enumerate(monos)}, monos

    def vectorize(elem, index, dim):
        v = np.zeros(dim, dtype=np.int64)
        for pos, f in enumerate(elem):
            for e, c in f.terms:
                v[index[(pos, e)]] = c
        return v

    total = 0
    prev_basis_elems = []
    for d in range(0, dmax + 1):
        index, monos = slice_basis_index(d)
        dim = len(monos)
        rows = []
        # Full degree-d slice of the module: all shifts of all generators.
        for g, gd in zip(generators, degs):
            for e in _exact_degree_monomials(ring.nvars, d - gd):
                rows.append(vectorize(tuple(mul_monomial(f, e) for f in g), index, dim))
        m_d = 0
        basis_elems = []
        if rows:
            rref, _ = rref_mod_p(np.array(rows, dtype=np.int64), p)
            m_d = rref.shape[0]
            for r in range(m_d):
                per = [dict() for _ in range(rank)]
                for i, c in enumerate(rref[r]):
                    if c % p:
                        pos, e = monos[i]
                        per[pos][e] = int(c)
                basis_elems.append(tuple(Poly.from_dict(ring, t) for t in per))
        # Trivial part: variable shifts of the previous slice.
        shifted = []
        for elem in prev_basis_elems:
            for slot in range(ring.nvars):
                sh = tuple(1 if i == slot else 0 for i in range(ring.nvars))
                shifted.append(vectorize(tuple(mul_monomial(f, sh) for f in elem),
                                         index, dim))
        triv = 0
        if shifted:
            rref, _ = rref_mod_p(np.array(shifted, dtype=np.int64), p)
            triv = rref.shape[0]
        total += m_d - triv
        prev_basis_elems = basis_elems
    return total


# -- pure-Python references for the oracle's elimination kernels ------------

def reference_rref(rows, p):
    """Gauss-Jordan over F_p on lists of Python ints: (the nonzero rows
    of the reduced row echelon form, their pivot columns).  RREF is
    unique, so any elimination order gives the same answer."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def reference_matmul(a, b, p):
    """a @ b mod p by the schoolbook rule, each entry a sum of Python int
    products, so nothing overflows."""
    return [[sum(int(a[i, k]) * int(b[k, j]) for k in range(a.shape[1])) % p
             for j in range(b.shape[1])] for i in range(a.shape[0])]


# -- from-scratch code-slice oracle (reference for the incremental echelon) --

def _monomials_up_to(nvars, d):
    return sorted(e for e in product(range(d + 1), repeat=nvars) if sum(e) <= d)


def reference_slice(code, d, cap):
    """RREF basis of the degree-<= d part of the span of the generator
    shifts of degree <= cap, computed from scratch.

    The oracle's former per-cap route: one echelon of every shift over
    columns in descending degree, whose rows pivoting at degree <= d
    span the slice, then a second echelon of those rows in the slice's
    own column order (position, then sorted exponent vectors).
    """
    ring, q, p = code.ring, code.q, code.ring.p
    big = [(pos, e) for pos in range(q) for e in _monomials_up_to(ring.n, cap)]
    big.sort(key=lambda t: -sum(t[1]))
    index = {t: i for i, t in enumerate(big)}
    rows = []
    for g in code.generators.columns():
        gdeg = max(int(f.degree) for f in g if not f.is_zero)
        for e in _monomials_up_to(ring.n, cap - gdeg):
            v = np.zeros(len(big), dtype=np.int64)
            for pos, f in enumerate(g):
                for e2, c in mul_monomial(f, e).terms:
                    v[index[(pos, e2)]] = c
            rows.append(v)
    if not rows:
        return []
    rref, pivots = rref_mod_p(np.array(rows), p)
    keep = [r for r, c in enumerate(pivots) if sum(big[c][1]) <= d]
    if not keep:
        return []
    small = [(pos, e) for pos in range(q) for e in _monomials_up_to(ring.n, d)]
    rref2, _ = rref_mod_p(rref[np.ix_(keep, [index[t] for t in small])], p)
    return [tuple(Poly.from_dict(ring, {e: int(c) for (at, e), c in zip(small, row)
                                        if at == pos and c})
                  for pos in range(q))
            for row in rref2]


def engine_hilbert(code, d):
    """F(d) by the Hilbert formula on the engine's minimal resolution."""
    return hilbert_formula(minimal_resolution(code).degree_table, code.ring.n, d)


def reference_code_space(code, d, cap=None):
    """(dimension, cap_used, basis) by the oracle's stop rule, from scratch:
    the from-scratch slice maxdeg caps past the first of the caps
    max(cap, d), max(cap, d) + 1, ... (cap defaulting to d) whose slice
    has at least F(d) elements, maxdeg the largest generator degree (at
    least 1)."""
    if d < 0:
        return 0, cap or 0, ()
    target = engine_hilbert(code, d)
    c = d if cap is None else max(cap, d)
    while len(reference_slice(code, d, c)) < target:
        c += 1
    c += max(1, *code.generators.column_degrees())
    basis = reference_slice(code, d, c)
    return len(basis), c, tuple(basis)


def generator_term_lists(code):
    """The code's columns as ``reference_shift_rows`` takes them: (terms,
    degree) per column, terms as (pos, exps, coeff)."""
    mat = code.generators
    return [([(pos, e, coeff) for pos, f in enumerate(col) for e, coeff in f.terms], deg)
            for col, deg in zip(mat.columns(), mat.column_degrees())]


def reference_shift_rows(gens, n, lo, hi, column, width):
    """The oracle's former loop form of ``_shift_rows``: dense rows of the
    shifts x^e * g with lo <= deg g + |e| <= hi, one Python step per term.

    ``gens`` lists (terms, degree) per generator, terms as (pos, exps,
    coeff); ``column`` maps (pos, exps) to a column index below ``width``.
    """
    rows, cols, vals = [], [], []
    r = 0
    for terms, deg in gens:
        for k in range(max(lo - deg, 0), hi - deg + 1):
            for e in _compositions(n, k):
                for pos, exps, c in terms:
                    rows.append(r)
                    cols.append(column[(pos, tuple(map(add, exps, e)))])
                    vals.append(c)
                r += 1
    out = np.zeros((r, width), dtype=np.int64)
    out[rows, cols] = vals
    return out


# -- the oracle's former slice routes (references for _keys and _shift_rows) --

def reference_slice_terms(n, twist, d):
    """The former ``_SliceBasis`` order of the terms (pos, e) with
    |e| + twist[pos] <= d: by position, then sorted exponent vectors."""
    return [(pos, e) for pos, t in enumerate(twist) for e in _monomials_up_to(n, d - t)]


def as_rows(elems, terms):
    """Elements of S^q as dense rows over the column order ``terms``;
    a term outside ``terms`` raises KeyError."""
    index = {t: i for i, t in enumerate(terms)}
    rows = np.zeros((len(elems), len(terms)), dtype=np.int64)
    for r, elem in enumerate(elems):
        for pos, f in enumerate(elem):
            for e, c in f.terms:
                rows[r, index[(pos, e)]] = c
    return rows


def span_rref(elems, terms, p):
    """RREF over F_p of the span of ``elems`` in the column order ``terms``."""
    return rref_mod_p(as_rows(elems, terms), p)[0]


def from_rows(ring, rank, terms, rows):
    """The elements of S^rank whose coefficients on ``terms`` are the rows."""
    return [tuple(Poly.from_dict(ring, {e: int(c) for (at, e), c in zip(terms, row)
                                        if at == pos and c % ring.p})
                  for pos in range(rank))
            for row in rows]


def reference_truncated_map(mat, row_twist, col_twist, d):
    """The former ``_truncated_map``: the (target x source) matrix of the
    slice map in ``reference_slice_terms`` order, one monomial product
    per source term; a target term outside the slice raises KeyError."""
    n = mat.ring.n
    src = reference_slice_terms(n, check_twist(col_twist, mat.ncols), d)
    dst = reference_slice_terms(n, check_twist(row_twist, mat.nrows), d)
    images = [tuple(mul_monomial(mat.entry(i, pos), e) for i in range(mat.nrows))
              for pos, e in src]
    return as_rows(images, dst).T


def reference_truncated_exactness(cx, d):
    """The former ``truncated_exactness``, on ``reference_truncated_map``."""
    from convres.oracle import hilbert_oracle
    table = ((0,) * cx.q,) + column_degree_table(cx)
    maps = [reference_truncated_map(cx.matrices[k], table[k], table[k + 1], d)
            for k in range(cx.length)]
    ranks = [len(rref_mod_p(m, cx.ring.p)[1]) for m in maps]
    dims = [m.shape[1] for m in maps]
    if ranks[-1] != dims[-1]:
        return False
    if any(ranks[k] + ranks[k + 1] != dims[k] for k in range(cx.length - 1)):
        return False
    return ranks[0] == hilbert_oracle(CodePresentation(cx.ring, cx.matrices[0]), d)


def reference_truncated_kernel(mat, row_twist, col_twist, d):
    """The former ``truncated_kernel``: the null space of
    ``reference_truncated_map``, in ``reference_slice_terms`` order."""
    src = reference_slice_terms(mat.ring.n, col_twist, d)
    basis = nullspace_mod_p(reference_truncated_map(mat, row_twist, col_twist, d), mat.ring.p)
    return from_rows(mat.ring, mat.ncols, src, basis)


def reference_memory_recovery_check(code, m, d_max):
    """Whether the degree-<= m slice regenerates all slices up to d_max:
    each candidate is the span of the previous slice and its products
    with the variables, compared with the oracle slice as RREF in
    ``reference_slice_terms`` order."""
    ring, q, n = code.ring, code.q, code.ring.n
    if d_max <= m:
        raise StructuralError("d_max must exceed the starting degree")
    units = [tuple(int(i == slot) for i in range(n)) for slot in range(n)]
    current = list(truncated_code_space(code, m).basis)
    for d in range(m + 1, d_max + 1):
        terms = reference_slice_terms(n, (0,) * q, d)
        shifted = [tuple(mul_monomial(f, e) for f in elem)
                   for elem in current for e in [(0,) * n] + units]
        candidate = span_rref(shifted, terms, ring.p)
        truth = span_rref(truncated_code_space(code, d).basis, terms, ring.p)
        if not np.array_equal(candidate, truth):
            return False
        current = from_rows(ring, q, terms, candidate)
    return True


# -- the former polynomial parser (reference for parse_poly) ----------------

# The hand-written scanner `parse_poly` used before its one regular expression.
def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch == "D":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolyParseError("variable name needs an index", i)
            tokens.append(("VAR", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    return tokens


def reference_parse_poly(text, ring):
    """The former ``parse_poly``: each factor a ``Poly``, multiplied,
    scaled and added as ``Poly`` values."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text))

    def take(kind):
        nonlocal pos
        tk = peek()
        if tk[0] != kind:
            raise PolyParseError(f"expected {kind}, found {tk[1]!r}", tk[2])
        pos += 1
        return tk

    def parse_factor():
        kind, value, at = peek()
        if kind == "INT":
            take("INT")
            return Poly.from_dict(ring, {(0,) * ring.nvars: int(value)})
        if kind == "VAR":
            take("VAR")
            try:
                slot = ring.var_slot(value)
            except DomainError as exc:
                raise PolyParseError(str(exc), at) from None
            exps = [0] * ring.nvars
            exps[slot] = 1
            if peek()[0] == "^":
                take("^")
                exps[slot] = int(take("INT")[1])
            return Poly.from_dict(ring, {tuple(exps): 1})
        raise PolyParseError(f"expected a coefficient or variable, found {value!r}", at)

    def parse_term():
        sign = 1
        while peek()[0] in ("+", "-"):
            if take(peek()[0])[0] == "-":
                sign = -sign
        out = parse_factor()
        while peek()[0] == "*":
            take("*")
            out = out * parse_factor()
        return combine(Poly.from_dict(ring, {}), out, sign)

    result = parse_term()
    while pos < len(tokens):
        kind, value, at = peek()
        if kind not in ("+", "-"):
            raise PolyParseError(f"expected '+' or '-', found {value!r}", at)
        result = combine(result, parse_term())
    return result


# -- entrywise homogeneity ----------------------------------------------------

def is_homogeneous(f: Poly) -> bool:
    return len({sum(e) for e, _ in f.terms}) <= 1


def dehomogenize(f: Poly) -> Poly:
    """Substitute D0 := 1 in a polynomial over T; the result lives over S."""
    if not f.ring.homog:
        raise StructuralError("polynomial has no homogenizing variable")
    acc: dict = {}
    for e, c in f.terms:
        acc[e[1:]] = (acc.get(e[1:], 0) + c) % f.ring.p
    return Poly.from_dict(Ring(f.ring.p, f.ring.n), acc)


def homogenize(f: Poly, d: int) -> Poly:
    """Lift f over S into T as a homogeneous polynomial of degree exactly d.

    Every term D^m picks up the factor D0^(d - |m|).  Requires total
    degree <= d; the map is a bijection from polynomials of degree <= d
    onto the degree-d homogeneous slice of T.
    """
    if f.ring.homog:
        raise StructuralError("polynomial already lives in the homogeneous ring")
    if not f.is_zero and f.degree > d:
        raise DomainError(f"cannot homogenize degree {f.degree} polynomial in degree {d}")
    return Poly(f.ring.homogeneous_companion(), tuple(((d - sum(e),) + e, c) for e, c in f.terms))


def homogeneous_part(f: Poly, d: int) -> Poly:
    """Sum of the terms of total degree exactly d (zero if none)."""
    return Poly(f.ring, tuple((e, c) for e, c in f.terms if sum(e) == d))


def set_d0_zero(f: Poly) -> Poly:
    """Substitute D0 := 0, staying in T."""
    if not f.ring.homog:
        raise StructuralError("polynomial has no homogenizing variable")
    return Poly(f.ring, tuple((e, c) for e, c in f.terms if e[0] == 0))


def map_entries(m: PolyMatrix, fn, ring: Ring) -> PolyMatrix:
    return PolyMatrix(ring, m.nrows, m.ncols, tuple(tuple(fn(f) for f in row)
                                                   for row in m.entries))


def homogeneous_column_degree(vec, twist):
    """Common twisted degree of a homogeneous element, or raise DomainError."""
    d = twisted_degree(vec, twist)
    if d is NEG_INF:
        raise DomainError("zero element has no homogeneous degree")
    for f, a in zip(vec, twist):
        if not f.is_zero and (not is_homogeneous(f) or f.degree != d - a):
            raise DomainError("element is not homogeneous for the given twist")
    return d


def graded_column_degrees(mat: PolyMatrix, row_twist) -> tuple:
    return tuple(homogeneous_column_degree(mat.column(j), row_twist)
                 for j in range(mat.ncols))


# -- the Poly route of the graded checks of a given complex -------------------
# G^H and G^L entry by entry as Poly, one fresh criteria-free Hilbert
# numerator per level, syzygies over S and a scan of Poly entries: the
# reference of ``complexes._leading_part``, of the checks that read it and
# of ``packed_lift``.

def _lift_by_table(cx: PolyComplex, ring, lift) -> PolyComplex:
    """Apply ``lift(entry, a_k(j) - a_{k-1}(i))`` to every entry of G_k."""
    table = ((0,) * cx.q,) + column_degree_table(cx)
    mats = []
    for k, mat in enumerate(cx.matrices):
        rows = [[lift(mat.entry(i, j), table[k + 1][j] - table[k][i])
                 for j in range(mat.ncols)] for i in range(mat.nrows)]
        mats.append(PolyMatrix.from_rows(ring, rows))
    return PolyComplex(ring, tuple(mats), cx.q, cx.sizes)


def reference_homogenize_complex(cx: PolyComplex) -> PolyComplex:
    return _lift_by_table(cx, cx.ring.homogeneous_companion(), homogenize)


def reference_leading_term_complex(cx: PolyComplex) -> PolyComplex:
    return _lift_by_table(cx, cx.ring, homogeneous_part)


def check_graded_resolution(cx: PolyComplex) -> bool:
    """Exactness of a complex graded by its own degree table, by Hilbert
    series of a fresh Groebner basis of every image; ``DomainError`` for
    a column that is not homogeneous for its row twist."""
    table = ((0,) * cx.q,) + column_degree_table(cx)
    orders = [ModuleOrder(cx.ring, twist) for twist in table]
    return _exact_by_numerators(
        (reference_hilbert_numerator(pack(mat.columns(), order), order)
         for mat, order in zip(cx.matrices, orders)), table)


def reference_minimality_witness(lead: PolyComplex):
    """First (level, row, col), row-major, of a scalar entry of G^L past level 1."""
    for k in range(1, lead.length):
        mat = lead.matrices[k]
        for i in range(mat.nrows):
            for j in range(mat.ncols):
                if scalar_value(mat.entry(i, j)):
                    return (k + 1, i, j)
    return None


def reference_pd_failure_witness(lead: PolyComplex):
    """The first syzygy of G_1^L over S, or None."""
    ker = poly_syzygies(lead.matrices[0])
    return ker[0] if ker else None


def packed_chain(code):
    """``minimal_resolution``'s packed chain of a code: levels, orders, leads."""
    order = ModuleOrder(code.ring.homogeneous_companion(), (0,) * code.q)
    return _syzygy_chain(_lifted_code(code, order), order, code.ring.n + 2)


def _graded_pipeline(code):
    """The former ``Poly`` lift of the code to its graded companion
    (reference for ``complexes._lifted_code``).

    The reduced basis of the code under the degree-compatible order,
    by the criteria-free completion, unpacked to ``Poly`` and
    homogenized element by element in its own degree.
    """
    order = ModuleOrder(code.ring, (0,) * code.q)
    basis = unpack(reference_groebner_basis(pack(code.generators.columns(), order), order), order)
    lifted = []
    for g in basis:
        d = twisted_degree(g, (0,) * code.q)
        lifted.append(tuple(homogenize(f, d) for f in g))
    return lifted


def _minimal_flat(gens_flat, order: ModuleOrder) -> list:
    """The first of the two runs per level that ``minimal_resolution``
    made before one tracked run (``_minimal_level``) did both: indices of
    a minimal homogeneous generating set of packed columns.

    One pass per degree (graded Nakayama) over one untracked
    ``_Completion`` of the generators kept so far: before degree d it is
    run up to weight d.  The generators of degree d are taken in index
    order and reduced to normal form against the items; a generator is
    kept exactly when its normal form is nonzero, and that normal form
    joins the items.  Indices come by degree, then index.
    """
    by_degree: dict = {}
    for k, flat in enumerate(gens_flat):
        by_degree.setdefault(_flat_degree(flat, order), []).append(k)
    completion = _Completion(order)
    kept: list = []
    for d in sorted(by_degree):
        completion.run(d)
        for k in by_degree[d]:
            rem = _reduce_flat(gens_flat[k], completion.items, order)
            if rem:
                completion.add(rem)
                kept.append(k)
    return kept


def _minimal_columns(columns, ring, twist):
    """The two-pass route's minimal generators (``_minimal_flat``) of ``Poly`` columns."""
    order = ModuleOrder(ring, twist)
    kept = _minimal_flat(pack(columns, order), order)
    return PolyMatrix.from_columns(ring, len(twist), [columns[k] for k in kept])


def reference_minimal_resolution(code):
    """The ``Poly`` route of ``minimal_resolution``.

    Over T, per level: the candidates (the lifted code, then the last
    level's syzygies) packed, one ``_minimal_level`` on them, and its
    kept columns and their syzygies unpacked; the twists come from the
    ``Poly`` columns.  D0 := 1 entry by entry at the end.  Returns the
    complex over S and the graded twists of its levels.
    """
    tring = code.ring.homogeneous_companion()
    candidates, twist = _graded_pipeline(code), (0,) * code.q
    mats, twists = [], []
    for _ in range(code.ring.n + 2):
        order = ModuleOrder(tring, twist)
        kept, syz_order, syz, _ = _minimal_level(pack(candidates, order), order)
        mats.append(PolyMatrix.from_columns(tring, len(twist), unpack(kept, order)))
        twist = graded_column_degrees(mats[-1], twist)
        twists.append(twist)
        if not syz:
            break
        candidates = unpack(syz, syz_order)
    else:
        raise InvariantError("syzygy chain did not end")
    return (validate_complex([map_entries(m, dehomogenize, code.ring) for m in mats]),
            tuple(twists))


def two_pass_resolution(code):
    """The ``Poly`` route of ``minimal_resolution`` with two runs per level.

    Minimal generators of the lifted code (``_minimal_flat``), then per
    level the syzygies of the kept columns themselves by a second,
    tracked completion (``_syzygies_flat``) and their minimal
    generators, each packing and unpacking its columns, and D0 := 1
    entry by entry at the end.  Returns the complex over S and the
    graded twists of its levels.
    """
    zero = (0,) * code.q
    tring = code.ring.homogeneous_companion()
    mats = [_minimal_columns(_graded_pipeline(code), tring, zero)]
    twists = [zero, graded_column_degrees(mats[0], zero)]
    for _ in range(code.ring.n + 2):
        syz = poly_syzygies(mats[-1], row_twist=twists[-2])
        if not syz:
            break
        mats.append(_minimal_columns(syz, tring, twists[-1]))
        twists.append(graded_column_degrees(mats[-1], twists[-1]))
    else:
        raise InvariantError("syzygy chain did not end")
    return (validate_complex([map_entries(m, dehomogenize, code.ring) for m in mats]),
            tuple(twists[1:]))


# -- reference routes: unpruned syzygies and graded pivoting ----------------

class UnprunedResolution(NamedTuple):
    """A complex with its three verdicts, each computed on its own; unlike
    a ``ResolutionReport`` any of them may be false."""

    complex: PolyComplex
    is_resolution: bool
    is_reduced: bool
    is_minimal: bool


def resolution_without_minimalization(code, extra_generators=()):
    """Iterated syzygies with no pruning; generally reduced but not minimal.

    The route ``minimal_resolution`` took before it pruned every level,
    kept as the reference for in-loop pruning.  ``extra_generators``
    (columns over S) are appended to the lifted generating set after
    homogenizing each in its own degree, which injects redundancy on
    purpose.  Each verdict of the report is computed on its own: G is
    checked by ``check_resolution`` itself, not through the theorem.
    """
    lifted = _graded_pipeline(code)
    for g in extra_generators:
        d = twisted_degree(g, (0,) * code.q)
        lifted.append(tuple(homogenize(f, d) for f in g))
    tring = code.ring.homogeneous_companion()
    mats, twists = [PolyMatrix.from_columns(tring, code.q, lifted)], [(0,) * code.q]
    for _ in range(code.ring.n + 1 + len(lifted)):
        twists.append(graded_column_degrees(mats[-1], twists[-1]))
        syz = poly_syzygies(mats[-1], row_twist=twists[-2])
        if not syz:
            break
        mats.append(PolyMatrix.from_columns(tring, mats[-1].ncols, syz))
    else:
        raise InvariantError("syzygy chain did not end")
    cx = validate_complex([map_entries(m, dehomogenize, code.ring)
                           for m in mats])
    is_resolution = check_resolution(cx)
    is_reduced = check_reduced(cx)
    is_minimal = is_resolution and is_reduced and minimality_witness(cx) is None
    return UnprunedResolution(cx, is_resolution, is_reduced, is_minimal)


def minimalize_graded(cx: PolyComplex) -> PolyComplex:
    """Remove scalar entries of a graded complex over T by pivoting.

    Repeatedly picks the lexicographically first scalar entry in levels
    2.., clears its row and column (propagating the basis changes to
    the neighbouring matrices), and deletes the now-trivial pair of
    coordinates.  On an exact graded complex this produces the minimal
    resolution.
    """
    if not cx.ring.homog:
        raise StructuralError("minimalize_graded expects a complex over T")
    twists = [(0,) * cx.q]
    for mat in cx.matrices:
        twists.append(graded_column_degrees(mat, twists[-1]))
    mats, twists = _minimalize_grids(list(cx.matrices), twists)
    return validate_complex(mats)


def _minimalize_grids(mats, twists):
    """Pivot away scalar entries; works on PolyMatrix lists plus twists.

    ``twists[0]`` is the ambient twist; ``twists[k]`` the column twist
    of ``mats[k-1]``.  Matrices that lose all columns are dropped from
    the tail.  Returns new (mats, twists).
    """
    grids = [[list(row) for row in m.entries] for m in mats]
    ring = mats[0].ring
    zero = P("0", ring)
    tw = [list(t) for t in twists]

    def find_pivot():
        for k in range(1, len(grids)):  # levels 2.. in 1-based numbering
            grid = grids[k]
            for i in range(len(grid)):
                for j in range(len(grid[0]) if grid else 0):
                    if scalar_value(grid[i][j]):
                        return k, i, j
        return None

    while True:
        hit = find_pivot()
        if hit is None:
            break
        k, i, j = hit
        grid = grids[k]
        nrows, ncols = len(grid), len(grid[0])
        # Monic pivot: scale column j (a basis change at level k+1,
        # propagated as the inverse scaling of the next matrix's row j).
        cval = scalar_value(grid[i][j])
        if cval != 1:
            inv = pow(cval, ring.p - 2, ring.p)
            for r in range(nrows):
                grid[r][j] = combine(zero, grid[r][j], inv)
            if k + 1 < len(grids):
                nxt = grids[k + 1]
                nxt[j] = [combine(zero, f, cval) for f in nxt[j]]
        # Clear row i by column operations; mirror on the next matrix's rows.
        for jj in range(ncols):
            if jj == j or grid[i][jj].is_zero:
                continue
            h = grid[i][jj]
            for r in range(nrows):
                grid[r][jj] = combine(grid[r][jj], h * grid[r][j], -1)
            if k + 1 < len(grids):
                nxt = grids[k + 1]
                nxt[j] = [combine(a, h * b) for a, b in zip(nxt[j], nxt[jj])]
        # Clear column j by row operations; mirror on the previous matrix's columns.
        prev = grids[k - 1]
        for ii in range(nrows):
            if ii == i or grid[ii][j].is_zero:
                continue
            h = grid[ii][j]
            for c in range(ncols):
                grid[ii][c] = combine(grid[ii][c], h * grid[i][c], -1)
            for row in prev:
                row[i] = combine(row[i], h * row[ii])
        # The companion column and row must now vanish.
        if not all(row[i].is_zero for row in prev):
            raise InvariantError("pivot companion column not zero")
        if k + 1 < len(grids) and not all(f.is_zero for f in grids[k + 1][j]):
            raise InvariantError("pivot companion row not zero")
        # Delete row i / column i at level k-1 and column j / row j at level k+1.
        for row in prev:
            del row[i]
        del tw[k][i]
        for row in grid:
            del row[j]
        del grid[i]
        del tw[k + 1][j]
        if k + 1 < len(grids):
            del grids[k + 1][j]
        # Drop emptied tail matrices.
        while grids and (not grids[-1] or not grids[-1][0]):
            grids.pop()
            tw.pop()

    if not grids:
        raise InvariantError("minimalization emptied the complex")
    out_mats = [PolyMatrix.from_rows(ring, g) for g in grids]
    out_twists = [tuple(t) for t in tw]
    if any(mat.nrows < 1 or mat.ncols < 1 for mat in out_mats):
        raise InvariantError("minimalization left an empty matrix")
    # Zero columns cannot survive in the interior; in the final matrix
    # they could only stem from redundant syzygy generators and are
    # dropped together with their twist entries.
    if any(mat.has_zero_column() for mat in out_mats[:-1]):
        raise InvariantError("zero column left in the interior of the complex")
    last = out_mats[-1]
    if last.has_zero_column():
        keep = [j for j in range(last.ncols) if not vec_is_zero(last.column(j))]
        out_mats[-1] = PolyMatrix.from_columns(last.ring, last.nrows,
                                               [last.column(j) for j in keep])
        out_twists[-1] = tuple(out_twists[-1][j] for j in keep)
        if out_mats[-1].ncols == 0:
            out_mats.pop()
            out_twists.pop()
    return out_mats, out_twists


# -- reference Groebner routes: no pair criteria, all pairs re-reduced ------

def _reference_spair(gi: _GBItem, gj: _GBItem, order: ModuleOrder):
    """(lcm weight, S-pair, shift_i, shift_j) of two monic items at one
    position: S-pair = D^shift_i gi - D^shift_j gj, onto the lcm of their
    leads, whose weight must be within the limit."""
    lcm = tuple(map(max, gi.exps, gj.exps))
    weight = sum(lcm) + order.twist[gi.pos]
    _check_weight(weight)
    ui = order.shift([a - b for a, b in zip(lcm, gi.exps)])
    uj = order.shift([a - b for a, b in zip(lcm, gj.exps)])
    s: dict = {}
    _addmul(s, gi.flat, 1, ui, order.ring.p)
    _addmul(s, gj.flat, -1, uj, order.ring.p)
    return weight, s, ui, uj


def reference_division(f: dict, items, order: ModuleOrder):
    """The normal form of ``f`` against monic ``items`` with its quotients,
    as the engine's ``_reduce_flat`` once gave them: (remainder,
    quotients), quotients[k] the flat dict of the multiplier applied to
    items[k], keyed by packed shifts.  Each step divides the leading
    term by the first item whose lead divides it.
    """
    p = order.ring.p
    tail, guard = order._tail, order._guard
    reducers: dict = {}
    for k, item in enumerate(items):
        reducers.setdefault(item.lead & _MASK, []).append((item.lead & tail, k, item))
    work = dict(f)
    rem: dict = {}
    quotients = [dict() for _ in items]
    while work:
        t = max(work)
        c = work[t]
        t_tail = t & tail
        for lead_tail, k, item in reducers.get(t & _MASK, ()):
            if not (lead_tail - t_tail) & guard:
                shift = t - item.lead
                _addmul(work, item.flat, -c, shift, p)
                quot = quotients[k]
                v = (quot.get(shift, 0) + c) % p
                if v:
                    quot[shift] = v
                else:
                    del quot[shift]
                break
        else:
            rem[t] = c
            del work[t]
    return rem, quotients


def reference_buchberger(gens_flat, order: ModuleOrder, expr_order: ModuleOrder = None):
    """Complete ``gens_flat`` to a Groebner basis (normal strategy).

    The engine's completion before pair criteria: every same-position
    pair is reduced.

    With ``expr_order`` each basis element carries its expression in
    the input generators, packed by that order (of rank len(gens_flat)),
    so syzygies can be pulled back to the caller's coordinates
    afterwards.
    """
    p = order.ring.p
    track = expr_order is not None
    one = (0,) * order.ring.nvars
    items: list[_GBItem] = []
    for j, flat in enumerate(gens_flat):
        if not flat:
            raise DomainError("zero generator")
        flat, lead, inv = _monic(dict(flat), p)
        expr = {expr_order.pack((j, one)): inv} if track else None
        items.append(_GBItem(flat, lead, order, expr))

    heap = []
    for i in range(len(items)):
        for j in range(i):
            if items[i].pos == items[j].pos:
                heapq.heappush(heap, (_reference_spair(items[i], items[j], order)[0], j, i))

    while heap:
        _, i, j = heapq.heappop(heap)
        _, s, ui, uj = _reference_spair(items[i], items[j], order)
        rem, quots = reference_division(s, items, order)
        if not rem:
            continue
        if track:
            expr: dict = {}
            _addmul(expr, items[i].expr, 1, ui, p)
            _addmul(expr, items[j].expr, -1, uj, p)
            for k, q in enumerate(quots):
                for shift, c in q.items():
                    _addmul(expr, items[k].expr, -c, shift, p)
            # Expressions are multiplied further; hold them to the limit.
            if expr:
                _check_weight(max(expr) >> expr_order._weight_at)
        else:
            expr = None
        rem, lead, inv = _monic(rem, p)
        if track and inv != 1:
            expr = {t: (c * inv) % p for t, c in expr.items()}
        new = _GBItem(rem, lead, order, expr)
        items.append(new)
        hi = len(items) - 1
        for k in range(hi):
            if items[k].pos == new.pos:
                heapq.heappush(heap, (_reference_spair(items[k], new, order)[0], k, hi))
    return items


def reference_syzygy_basis(gens_flat, order: ModuleOrder, syz_order: ModuleOrder) -> list:
    """Syzygies of the packed columns ``gens_flat``, packed by ``syz_order``.

    The engine's construction before the completion's own pairs left
    the syzygies.  Schreyer's construction: complete the columns to a
    Groebner basis while tracking expressions in the original columns,
    reduce every same-position S-pair of the final basis to zero by
    ``reference_division``, record each reduction as a relation in basis
    coordinates, and pull the relations back to the original
    coordinates through the expressions.  The
    columns of (I - A B), with A the tracked expressions and B the
    division of the originals by the basis, complete the generating set.
    They come monic, without repeats, sorted by ascending lead.
    """
    p = order.ring.p
    items = reference_buchberger(gens_flat, order, syz_order)

    # Schreyer relations of the completed basis, as dicts keyed by
    # (basis index, packed shift).
    raw: list[dict] = []
    for j in range(len(items)):
        for i in range(j):
            if items[i].pos != items[j].pos:
                continue
            _, s, ui, uj = _reference_spair(items[i], items[j], order)
            rem, quots = reference_division(s, items, order)
            if rem:
                raise InvariantError("S-pair of a completed basis must reduce to zero")
            sigma: dict = {(i, ui): 1, (j, uj): p - 1}
            for k, quot in enumerate(quots):
                for shift, c in quot.items():
                    v = (sigma.get((k, shift), 0) - c) % p
                    if v:
                        sigma[(k, shift)] = v
                    else:
                        sigma.pop((k, shift), None)
            if sigma:
                raw.append(sigma)

    # Pull basis-coordinate relations back to the original columns.
    candidates: list[dict] = []
    for sigma in raw:
        out: dict = {}
        for (k, shift), c in sigma.items():
            _addmul(out, items[k].expr, c, shift, p)
        if out:
            candidates.append(out)

    # Unit relations from re-dividing the originals by the basis.
    candidates += division_columns(gens_flat, items, order, syz_order)
    seen = set()
    cleaned = []
    for flat in candidates:
        flat, lead, _ = _monic(flat, p)
        key = tuple(sorted(flat.items()))
        if key in seen:
            continue
        seen.add(key)
        cleaned.append((lead, flat))
    cleaned.sort(key=lambda pair: pair[0])
    return [flat for _, flat in cleaned]


def division_columns(gens_flat, items, order: ModuleOrder, syz_order: ModuleOrder) -> list:
    """The nonzero columns of (I - A B), syzygies of ``gens_flat`` packed by
    ``syz_order``: A holds the expressions of the tracked ``items`` in
    ``gens_flat`` and B the division of ``gens_flat`` by the items.

    Column j is nonzero only when an earlier column's lead divides the
    lead of column j: otherwise the division of column j stops at the
    item that is column j itself.
    """
    p = order.ring.p
    one = (0,) * order.ring.nvars
    cols = []
    for j, flat in enumerate(gens_flat):
        rem, quots = reference_division(flat, items, order)
        if rem:
            raise InvariantError("original generator must reduce to zero against its basis")
        col: dict = {syz_order.pack((j, one)): 1}
        for k, quot in enumerate(quots):
            for shift, c in quot.items():
                _addmul(col, items[k].expr, -c, shift, p)
        if col:
            cols.append(col)
    return cols


def division_syzygies(gens_flat, order: ModuleOrder, syz_order: ModuleOrder) -> list:
    """The syzygies of packed columns as ``_syzygies_flat`` once gave them:
    the syzygies the tracked completion's pairs left, then the
    ``division_columns`` of its items."""
    completion = _buchberger(gens_flat, order, syz_order)
    return _schreyer(completion) + division_columns(gens_flat, completion.items, order,
                                                    syz_order)


def reference_minimal_generators(gens_flat, order: ModuleOrder) -> list:
    """The per-degree pass before the engine resumed one completion:
    indices of a minimal generating set of packed homogeneous columns.

    Before degree d, a full criteria-free completion of the generators
    kept so far, interreduced; the degree-d normal forms are then
    echelonized by lead.  Indices come by degree, then index.
    """
    p = order.ring.p
    by_degree: dict = {}
    for k, flat in enumerate(gens_flat):
        by_degree.setdefault(_flat_degree(flat, order), []).append(k)
    kept: list = []
    for d in sorted(by_degree):
        basis = (_interreduce(reference_buchberger([gens_flat[k] for k in kept], order), order)
                 if kept else [])
        pivots: dict = {}
        for k in by_degree[d]:
            rem = _reduce_flat(gens_flat[k], basis, order)
            while rem:
                lead = max(rem)
                row = pivots.get(lead)
                if row is None:
                    break
                _addmul(rem, row, -rem[lead], 0, p)
            if rem:
                rem, lead, _ = _monic(rem, p)
                pivots[lead] = rem
                kept.append(k)
    return kept


def reference_groebner_basis(gens_flat, order: ModuleOrder) -> list:
    """Reduced basis of the criteria-free completion, as packed columns."""
    return [it.flat for it in _interreduce(reference_buchberger(gens_flat, order), order)]


def reference_hilbert_numerator(gens_flat, order: ModuleOrder) -> dict:
    """N with HS(M) = N(t) / (1 - t)^nvars for the graded span M of
    packed columns, from the leads of the criteria-free completion;
    ``DomainError`` for a column that is not homogeneous for the twist."""
    for flat in gens_flat:
        _flat_degree(flat, order)
    leads: dict = {}
    for it in reference_buchberger(gens_flat, order):
        leads.setdefault(it.pos, []).append(it.exps)
    out: dict = {}
    for pos, exps in leads.items():
        a = order.twist[pos]
        out[a] = out.get(a, 0) + 1
        for k, c in monomial_hilbert_numerator(exps, order.ring.nvars).items():
            out[a + k] = out.get(a + k, 0) - c
    return {k: c for k, c in out.items() if c}


# -- the former resolution and observability checks ---------------------------
# Both on ``Poly`` columns, packing and unpacking at every step: the
# references of the packed ``check_resolution`` and ``is_observable``.

def reference_check_resolution(cx: PolyComplex) -> bool:
    """The former ``check_resolution``: the syzygies of every level, then
    equality of the reduced bases of image and kernel under the zero twist."""
    kernels = [poly_syzygies(mat, route=reference_syzygy_basis) for mat in cx.matrices]
    if kernels[-1]:
        return False
    for kernel, mat in zip(kernels, cx.matrices[1:]):
        order = ModuleOrder(cx.ring, (0,) * mat.nrows)
        if not kernel or (reference_groebner_basis(pack(mat.columns(), order), order)
                          != reference_groebner_basis(pack(kernel, order), order)):
            return False
    return True


def reference_matrix_kernel(matrix: PolyMatrix, route=reference_syzygy_basis) -> list:
    """The former ``matrix_kernel``: the syzygies of the nonzero columns by
    ``route``, embedded, then a unit for each zero column."""
    ring, t = matrix.ring, matrix.ncols
    live = [j for j in range(t) if not vec_is_zero(matrix.column(j))]
    out = []
    if live:
        sub = PolyMatrix.from_columns(ring, matrix.nrows, [matrix.column(j) for j in live])
        for col in poly_syzygies(sub, route=route):
            full = [P("0", ring)] * t
            for idx, j in enumerate(live):
                full[j] = col[idx]
            out.append(tuple(full))
    for j in range(t):
        if j not in live:
            out.append(tuple(P(str(int(i == j)), ring) for i in range(t)))
    return out


def reference_is_observable(code, route=reference_syzygy_basis) -> ObservabilityReport:
    """The former ``is_observable``: the double kernel and equality of
    reduced bases, then the first kernel generator outside the code.

    H is the left kernel of the generators (``reference_matrix_kernel``
    of the transpose), K the kernel of H, both with syzygies by ``route``.  The
    criteria-free default may pick other generators than the packed
    core (``core_syzygies``), so H and the witness are compared on the
    core's syzygies and the verdict on either.
    """
    ring, gens = code.ring, code.generators
    order = ModuleOrder(ring, (0,) * code.q)
    rows = reference_matrix_kernel(PolyMatrix.from_rows(ring, zip(*gens.entries)), route)
    parity = PolyMatrix(ring, len(rows), code.q, tuple(rows))
    kernel = reference_matrix_kernel(parity, route)
    items = _interreduce(reference_buchberger(pack(gens.columns(), order), order), order)
    if [it.flat for it in items] == reference_groebner_basis(pack(kernel, order), order):
        return ObservabilityReport(True, parity, None)
    for g in kernel:
        if _reduce_flat(_to_flat(g, order), items, order):
            stacked = PolyMatrix.from_columns(ring, code.q, [g] + gens.columns())
            firsts = [col[0] for col in poly_syzygies(stacked, route=route) if col[0]]
            s = sorted(firsts, key=lambda f: (f.degree, f.terms))[0]
            if _reduce_flat(_to_flat(tuple(f * s for f in g), order), items, order):
                raise InvariantError("torsion multiple of the witness is outside the code")
            return ObservabilityReport(False, None, TorsionWitness(g, s))
    raise InvariantError("kernel differs from the code but has no outside generator")


# -- list-based univariate spot check --------------------------------------
# F_p[x] arithmetic on ascending coefficient lists, a trial-division sieve
# and Gaussian elimination over each field F_p[x]/(lam): an independent
# route that the companion-block ranks and the product sieve of
# ``convres.observability`` are compared against.

def _coeffs(f: Poly) -> list:
    """Ascending coefficient list of a univariate polynomial."""
    if f.is_zero:
        return []
    out = [0] * (int(f.degree) + 1)
    for e, c in f.terms:
        out[e[0]] = c
    return out


def _poly_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_sub(a: list, b: list, p: int) -> list:
    width = max(len(a), len(b))
    a = a + [0] * (width - len(a))
    b = b + [0] * (width - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def _poly_divmod(a: list, b: list, p: int):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = (a[-1] * inv) % p
        q[k] = c
        for i, x in enumerate(b):
            a[i + k] = (a[i + k] - c * x) % p
        _poly_trim(a)
        if not a:
            break
    return _poly_trim(q), a


def _field_inv(a: list, lam: list, p: int) -> list:
    """Inverse in F_p[x]/(lam) by the extended Euclidean algorithm."""
    r0, r1 = list(lam), list(a)
    t0, t1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1, p), p)
    if len(r0) != 1:
        raise InvariantError("element not invertible: the modulus is reducible")
    c = pow(r0[0], p - 2, p)
    return _poly_trim([(x * c) % p for x in t0])


@functools.lru_cache(maxsize=None)
def reference_monic_irreducibles(p: int, max_deg: int):
    """All monic irreducible polynomials of degree 1..max_deg over F_p.

    Exhaustive sieve by trial division; exponential in max_deg, intended
    for tiny degrees.  Cached: callers must not change the list.
    """
    found = []
    for deg in range(1, max_deg + 1):
        for tail in product(range(p), repeat=deg):
            cand = list(tail) + [1]
            divisible = False
            for g in found:
                if (len(g) - 1) * 2 > deg:
                    break
                if not _poly_divmod(cand, g, p)[1]:
                    divisible = True
                    break
            if not divisible:
                found.append(cand)
    return found


def reference_rank_mod_lambda(mat: PolyMatrix, lam: list, p: int) -> int:
    """Rank of the matrix over the field F_p[x]/(lam)."""

    def red(coeffs):
        return _poly_divmod(coeffs, lam, p)[1]

    grid = [[red(_coeffs(mat.entry(i, j))) for j in range(mat.ncols)]
            for i in range(mat.nrows)]
    rank = 0
    rows = list(range(mat.nrows))
    for col in range(mat.ncols):
        pivot = next((r for r in rows if grid[r][col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = _field_inv(grid[pivot][col], lam, p)
        prow = [red(_poly_mul(e, inv, p)) for e in grid[pivot]]
        for r in rows:
            f = grid[r][col]
            if f:
                for c in range(mat.ncols):
                    grid[r][c] = _poly_sub(grid[r][c], red(_poly_mul(f, prow[c], p)), p)
        rank += 1
    return rank


def reference_prop3_spot_check(cx, degree_bound):
    """The spot check on a complex, by field ranks of every level: the
    former ``prop3_spot_check`` on a resolution, without its bound checks."""
    p = cx.ring.p
    sizes = cx.sizes
    for lam in reference_monic_irreducibles(p, degree_bound):
        ranks = [reference_rank_mod_lambda(mat, lam, p) for mat in cx.matrices]
        if ranks[-1] != sizes[-1]:
            return False
        for k in range(cx.length - 1):
            if ranks[k] + ranks[k + 1] != sizes[k]:
                return False
    return True


def observability_route(code, bounds):
    """``prop3_spot_check`` against ``is_observable`` at each of ``bounds``, n = 1.

    Over F_p[x] a torsion-free quotient is free, so an observable code is
    a direct summand of S^q and stays one modulo every irreducible: the
    check holds at every bound.  Otherwise let g be the witness and
    (C : g) = (s0); s0 divides the multiplier, and for each irreducible
    factor lam of s0, (s0 / lam) g lies outside C while lam times it lies
    inside, which drops the rank modulo lam.  So the check fails at every
    bound from the multiplier's degree on.  Returns the verdict of
    ``is_observable``, the bounds at which it decides the check, and those
    of them at which the check disagrees.
    """
    rep = is_observable(code)
    decided = [bound for bound in bounds
               if rep.observable or bound >= rep.witness.multiplier.degree]
    return (rep.observable, decided,
            [bound for bound in decided if prop3_spot_check(code, bound) != rep.observable])


# -- the former block-rank spot check ----------------------------------------
# The route ``prop3_spot_check`` took before it read the gcd of the maximal
# minors: the code's reduced Groebner basis, whose leads sit at distinct
# positions, ranked over F_p[x]/(lam) through companion-matrix blocks for
# every monic irreducible lam from a product sieve.

def reference_monics(p: int, k: int) -> np.ndarray:
    """Ascending coefficient rows of all monic polynomials of degree k.

    Row m has the base-p digits of m, most significant first, as its
    coefficients 0..k-1: the order of ``itertools.product(range(p),
    repeat=k)``.
    """
    tails = np.indices((p,) * k).reshape(k, -1).T
    return np.hstack([tails, np.ones((len(tails), 1), dtype=tails.dtype)])


@functools.lru_cache(maxsize=None)
def reference_product_sieve(p: int, max_deg: int):
    """All monic irreducible polynomials of degree 1..max_deg over F_p.

    Ascending coefficient lists, by degree and then in the row order of
    ``reference_monics``.  A product sieve: for each split i <= k/2 every
    product of monics of degrees i and k - i is marked reducible.
    Cached: callers must not change the list.
    """
    found = []
    for k in range(1, max_deg + 1):
        place = p ** np.arange(k - 1, -1, -1)
        reducible = np.zeros(p ** k, dtype=bool)
        for i in range(1, k // 2 + 1):
            a, b = reference_monics(p, i), reference_monics(p, k - i)
            prod = np.zeros((len(a), len(b), k + 1), dtype=np.int64)
            for s in range(i + 1):
                prod[:, :, s:s + k - i + 1] += a[:, None, s, None] * b[None]
            reducible[(prod[:, :, :k] % p) @ place] = True
        found.extend(reference_monics(p, k)[~reducible].tolist())
    return found


def reference_matpow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m^e mod p by square-and-multiply."""
    out = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m % p
        e >>= 1
        if e:
            m = m @ m % p
    return out


def reference_ranks_modulo(mat: PolyMatrix, irreducibles, p: int):
    """Per irreducible lam, the rank of a univariate matrix over F_p[x]/(lam).

    Restriction of scalars: with C the companion matrix of lam and
    k = deg lam, each entry f becomes the k x k block f(C), and the
    F_p-rank of the block matrix is k times the rank over the field.
    The coefficients are laid out over the distinct exponents of the
    entries only, and C^e is reached by square-and-multiply from the
    previous exponent.  int64 is exact for p < 2^12.
    """
    exps = sorted({e for row in mat.entries for f in row for (e,), _ in f.terms})
    slot = {e: t for t, e in enumerate(exps)}
    cube = np.zeros((len(exps), mat.nrows, mat.ncols), dtype=np.int64)
    for i, row in enumerate(mat.entries):
        for j, f in enumerate(row):
            for (e,), c in f.terms:
                cube[slot[e], i, j] = c
    for lam in irreducibles:
        k = len(lam) - 1
        companion = np.eye(k, k, -1, dtype=np.int64)
        companion[:, -1] = np.negative(lam[:k]) % p
        powers = np.empty((len(exps), k, k), dtype=np.int64)
        acc, prev = np.eye(k, dtype=np.int64), 0
        for t, e in enumerate(exps):
            acc = acc @ reference_matpow(companion, e - prev, p) % p
            powers[t], prev = acc, e
        blocks = np.einsum("tij,tab->iajb", cube, powers).reshape(mat.nrows * k, mat.ncols * k)
        yield len(rref_mod_p(blocks, p)[1]) // k


def reference_reduced_basis(code) -> PolyMatrix:
    """The reduced Groebner basis of a univariate code under the zero-twist
    order, as the columns of a matrix; its leads sit at distinct positions,
    or ``InvariantError`` is raised.  It is column reduced, a minimal basis
    with the degrees of G_1 (Forney, SIAM J. Control 13, 1975)."""
    order = ModuleOrder(code.ring, (0,) * code.q)
    basis = _interreduce(_buchberger([_to_flat(col, order) for col in code.generators.columns()],
                                     order).items, order)
    if len({it.pos for it in basis}) != len(basis):
        raise InvariantError("leads of the reduced basis of a univariate code share a position")
    return PolyMatrix.from_columns(code.ring, code.q, [_from_flat(order, it.flat) for it in basis])


def reference_block_rank_spot_check(code, degree_bound: int) -> bool:
    """The former ``prop3_spot_check`` after its bound checks: whether the
    reduced basis keeps full rank modulo every monic irreducible of degree
    <= degree_bound."""
    basis = reference_reduced_basis(code)
    return all(rank == basis.ncols for rank in reference_ranks_modulo(
        basis, reference_product_sieve(code.ring.p, degree_bound), code.ring.p))
