"""The packed Groebner core on small examples: normal forms, reduced
bases, membership, syzygies, minimal generators and the left kernel of
``observability``, reached through the adapter of ``tests/helpers.py``."""

import random

import pytest

from convres import Poly, PolyMatrix, Ring
from convres.errors import DomainError
from convres.groebner import (
    ModuleOrder,
    _Completion,
    _buchberger,
    _interreduce,
    _minimal_level,
    _reduce_flat,
    _schreyer,
    _spair_parts,
    _syzygies_flat,
)
from convres.observability import _kernel
from convres.oracle import hilbert_oracle, truncated_kernel

from helpers import (
    P,
    combine,
    graded_minimal_generator_count,
    mat,
    order_key,
    pack,
    random_poly,
    reduced_basis,
    same_span,
    unpack,
)


def ideal(ring, *texts):
    """The packed generators of an ideal and their order."""
    order = ModuleOrder(ring, (0,))
    return pack([(P(t, ring),) for t in texts], order), order


def remainder(elem, gens_flat, order):
    """The remainder of a ``Poly`` element against a Groebner basis of the columns."""
    rem = _reduce_flat(pack([elem], order)[0], _buchberger(gens_flat, order).items, order)
    return unpack([rem], order)[0]


def in_span(elem, gens_flat, order):
    return not any(remainder(elem, gens_flat, order))


def syzygies(g, row_twist=None):
    """The packed syzygies of a matrix, their order, and the packed columns' order."""
    order = ModuleOrder(g.ring, row_twist or (0,) * g.nrows)
    syz_order = ModuleOrder(g.ring, g.column_degrees(row_twist))
    syz, _ = _syzygies_flat(pack(g.columns(), order), order, syz_order)
    return syz, syz_order


def times(g, cols):
    """g @ the columns, as a matrix."""
    return g @ PolyMatrix.from_columns(g.ring, g.ncols, cols)


def test_normal_form_examples():
    r = Ring(5, 2)
    m = ideal(r, "D1")
    assert remainder((P("D1^2 + D2", r),), *m) == (P("D2", r),)
    assert remainder((P("D1", r),), *m) == (P("0", r),)
    assert remainder((P("1", r),), *ideal(r, "D1", "D2")) == (P("1", r),)


def test_groebner_basis_examples():
    r = Ring(5, 2)

    def basis(*texts):
        gens, order = ideal(r, *texts)
        return [g[0] for g in unpack(reduced_basis(gens, order), order)]
    assert basis("D1", "D2") == [P("D1", r), P("D2", r)]
    assert basis("D1", "D1") == [P("D1", r)]
    assert basis("D1 + D2", "D2") == [P("D1", r), P("D2", r)]


def test_membership_examples():
    r = Ring(5, 2)
    m = ideal(r, "D1", "D2")
    assert in_span((P("D1*D2", r),), *m)
    assert not in_span((P("1", r),), *m)
    assert in_span((P("0", r),), *m)


def test_membership_of_constants_agrees_with_truncated_oracle():
    # Constants lie in the ideal iff its degree-0 slice is nonzero.
    from helpers import code
    r = Ring(5, 2)
    assert hilbert_oracle(code(r, [["D1", "D2"]]), 0) == 0
    assert not in_span((P("1", r),), *ideal(r, "D1", "D2"))


def test_module_equal():
    r = Ring(5, 2)
    (a, order), (b, _) = ideal(r, "D1", "D2"), ideal(r, "D2", "D1 + D2")
    assert same_span(a, b, order)
    assert not same_span(ideal(r, "D1")[0], a, order)
    m, _ = ideal(r, "D1*D2 + D2^2", "D1")
    assert same_span(m, m, order)


def test_syzygy_examples():
    r = Ring(101, 2)
    g = mat(r, [["D1", "D2"]])
    syz, syz_order = syzygies(g)
    assert len(syz) == 1
    assert times(g, unpack(syz, syz_order)).is_zero
    # Koszul relation up to a scalar: (D2, -D1)
    zero = ModuleOrder(r, (0, 0))
    assert same_span(pack(unpack(syz, syz_order), zero),
                     pack([(P("D2", r), P("-D1", r))], zero), zero)

    assert syzygies(mat(r, [["D1"], ["D2"]]))[0] == []

    sd, sd_order = syzygies(mat(r, [["D1", "D1"]]))
    assert same_span(pack(unpack(sd, sd_order), zero),
                     pack([(P("1", r), P("-1", r))], zero), zero)


def test_schreyer_makes_left_syzygies_monic_without_repeats_sorted_by_lead():
    order = ModuleOrder(Ring(5, 1), (0, 0))
    completion = _Completion(order)
    e0, e1 = (order.pack((pos, (0,))) for pos in (0, 1))
    d1 = order.pack((1, (1,)))
    # Degree first, then position 0 before position 1: d1 > e0 > e1.
    completion.syzygies = {
        (1, 0): {d1: 2, e0: 1},
        (2, 0): {d1: 4, e0: 2},    # twice the syzygy of (1, 0)
        (2, 1): {d1: 3, e1: 1},    # the lead of (1, 0)
        (3, 0): {e0: 2, e1: 4},    # the least lead
    }
    assert _schreyer(completion) == [
        {e0: 1, e1: 2},
        {d1: 1, e0: 3},
        {d1: 1, e1: 2},
    ]


def test_syzygy_soundness_on_random_matrices():
    rng = random.Random(23)
    for _ in range(15):
        ring = Ring(rng.choice([2, 3, 101]), rng.randint(1, 2))
        q, t = rng.randint(1, 3), rng.randint(1, 3)
        while True:
            g = PolyMatrix.from_rows(ring, [[random_poly(rng, ring, 2)
                                             for _ in range(t)] for _ in range(q)])
            if not g.has_zero_column():
                break
        syz, syz_order = syzygies(g)
        if syz:
            cols = unpack(syz, syz_order)
            assert times(g, cols).is_zero
            assert all(any(col) for col in cols)


def test_syzygy_completeness_against_truncated_kernels():
    rng = random.Random(29)
    for _ in range(8):
        ring = Ring(rng.choice([2, 5]), rng.randint(1, 2))
        q, t = rng.randint(1, 2), rng.randint(2, 3)
        while True:
            g = PolyMatrix.from_rows(ring, [[random_poly(rng, ring, 2)
                                             for _ in range(t)] for _ in range(q)])
            if not g.has_zero_column():
                break
        syz, syz_order = syzygies(g)
        zero = ModuleOrder(ring, (0,) * t)
        span = pack(unpack(syz, syz_order), zero)
        col_twist = g.column_degrees()
        for d in range(0, 5):
            kernel_vectors = truncated_kernel(g, (0,) * q, col_twist, d)
            if not kernel_vectors:
                continue
            assert syz
            for vec in kernel_vectors:
                assert in_span(vec, span, zero)


def test_left_kernel_examples():
    def packed_left_kernel(g):
        rows, cols = ModuleOrder(g.ring, (0,) * g.ncols), ModuleOrder(g.ring, (0,) * g.nrows)
        h = unpack(_kernel(pack(g.entries, rows), rows, cols), cols)
        return PolyMatrix(g.ring, len(h), g.nrows, tuple(h))

    r = Ring(101, 2)
    g = mat(r, [["D1"], ["D2"]])
    h = packed_left_kernel(g)
    assert h.nrows == 1
    assert (h @ g).is_zero
    assert packed_left_kernel(mat(r, [["D1", "D2"]])).nrows == 0
    ident = mat(r, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    assert packed_left_kernel(ident).nrows == 0
    # A zero row of g is a unit row of h, after the syzygies of the others.
    h = packed_left_kernel(mat(r, [["D1"], ["0"], ["D2"]]))
    assert h.to_strings() == [["100*D2", "0", "D1"], ["0", "1", "0"]]


def _kept(t, twist, *gens):
    """The minimal generators ``_minimal_level`` keeps: monic normal forms."""
    order = ModuleOrder(t, twist)
    return unpack(_minimal_level(pack(gens, order), order)[0], order)


def test_minimal_generators_examples():
    r = Ring(5, 2)
    t = r.homogeneous_companion()
    assert len(_kept(t, (0,), (P("D1", t),), (P("D2", t),), (P("D1 + D2", t),))) == 2
    assert len(_kept(t, (0,), (P("D1", t),))) == 1
    assert _kept(t, (0,), (P("D1", t),), (P("D1*D2", t),)) == [(P("D1", t),)]
    assert _kept(t, (0,), (P("D1", t),), (P("2*D1 + 3*D2", t),)) == [(P("D1", t),),
                                                                     (P("D2", t),)]


def test_minimal_generators_rejects_inhomogeneous_input():
    t = Ring(5, 2, homog=True)
    with pytest.raises(DomainError):
        _kept(t, (0,), (P("D1 + 1", t),))


def test_minimal_generator_count_matches_graded_slice_oracle():
    rng = random.Random(31)
    for _ in range(8):
        ring = Ring(rng.choice([2, 5]), rng.randint(1, 2))
        t = ring.homogeneous_companion()
        rank = rng.randint(1, 2)
        gens = []
        for _ in range(rng.randint(2, 4)):
            d = rng.randint(0, 2)
            elem = []
            for _ in range(rank):
                coeffs = {}
                for _ in range(2):
                    e = [0] * t.nvars
                    for _ in range(d):
                        e[rng.randrange(t.nvars)] += 1
                    coeffs[tuple(e)] = rng.randrange(t.p)
                elem.append(Poly.from_dict(t, coeffs))
            if all(f.is_zero for f in elem):
                elem[0] = Poly.from_dict(t, {tuple(d if i == 0 else 0 for i in range(t.nvars)): 1})
            gens.append(tuple(elem))
        kept = _kept(t, (0,) * rank, *gens)
        expected = graded_minimal_generator_count(gens, rank, (0,) * rank, t)
        assert len(kept) == expected


def test_every_generator_reduces_to_zero_and_spairs_too():
    rng = random.Random(37)
    for _ in range(10):
        ring = Ring(rng.choice([2, 3, 101]), rng.randint(1, 2))
        rank = rng.randint(1, 2)
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = tuple(random_poly(rng, ring, 2) for _ in range(rank))
            if not all(f.is_zero for f in g):
                gens.append(g)
        if not gens:
            continue
        order = ModuleOrder(ring, (0,) * rank)
        items = _interreduce(_buchberger(pack(gens, order), order).items, order)
        for flat in pack(gens, order):
            assert not _reduce_flat(flat, items, order)
        for j in range(len(items)):
            for i in range(j):
                if items[i].pos != items[j].pos:
                    continue
                s, _ = _spair_parts(items[i], items[j], order)
                assert not _reduce_flat(s, items, order)


def test_reduced_basis_is_canonical_under_representation_changes():
    rng = random.Random(41)
    for _ in range(10):
        ring = Ring(rng.choice([2, 3, 101]), rng.randint(1, 2))
        rank = rng.randint(1, 2)
        gens = []
        while len(gens) < rng.randint(1, 3):
            g = tuple(random_poly(rng, ring, 2) for _ in range(rank))
            if not all(f.is_zero for f in g):
                gens.append(g)
        order = ModuleOrder(ring, (0,) * rank)
        # Shuffle and append random combinations of the generators.
        noisy = list(gens)
        rng.shuffle(noisy)
        for _ in range(2):
            combo = tuple(P("0", ring) for _ in range(rank))
            for g in gens:
                c = random_poly(rng, ring, 1)
                combo = tuple(combine(a, b * c) for a, b in zip(combo, g))
            if not all(f.is_zero for f in combo):
                noisy.append(combo)
        assert same_span(pack(gens, order), pack(noisy, order), order)


def test_order_key_prefers_low_positions():
    order = ModuleOrder(Ring(5, 2), (0, 0))
    t_low = (0, (1, 0))
    t_high = (1, (1, 0))
    assert order_key(order, t_low) > order_key(order, t_high)
