import random

import pytest

from convres import Poly, PolyMatrix, Ring
from convres.errors import DomainError, StructuralError
from convres.groebner import (
    SubmodulePresentation,
    _reduce_flat,
    _spair_parts,
    groebner_basis,
    left_kernel,
    membership,
    minimal_generators,
    module_equal,
    normal_form,
    syzygy_basis,
    zero_order,
)
from convres.oracle import hilbert_oracle, truncated_kernel

from helpers import P, graded_minimal_generator_count, mat, random_poly


def ideal(ring, *texts):
    return SubmodulePresentation(ring, 1, tuple((P(t, ring),) for t in texts))


def test_normal_form_examples():
    r = Ring(5, 2)
    m = ideal(r, "D1")
    basis = groebner_basis(m)
    assert normal_form((P("D1^2 + D2", r),), basis) == (P("D2", r),)
    assert normal_form((P("D1", r),), basis) == (Poly.zero(r),)
    m2 = ideal(r, "D1", "D2")
    assert normal_form((P("1", r),), groebner_basis(m2)) == (P("1", r),)


def test_normal_form_rank_mismatch():
    r = Ring(5, 2)
    basis = groebner_basis(ideal(r, "D1"))
    with pytest.raises(StructuralError):
        normal_form((Poly.zero(r), Poly.zero(r)), basis)


def test_groebner_basis_examples():
    r = Ring(5, 2)
    gb = groebner_basis(ideal(r, "D1", "D2"))
    assert [g[0] for g in gb.elements] == [P("D1", r), P("D2", r)]
    gb2 = groebner_basis(ideal(r, "D1", "D1"))
    assert [g[0] for g in gb2.elements] == [P("D1", r)]
    gb3 = groebner_basis(ideal(r, "D1 + D2", "D2"))
    assert [g[0] for g in gb3.elements] == [P("D1", r), P("D2", r)]


def test_membership_examples():
    r = Ring(5, 2)
    m = ideal(r, "D1", "D2")
    assert membership((P("D1*D2", r),), m)
    assert not membership((P("1", r),), m)
    assert membership((Poly.zero(r),), m)


def test_membership_of_constants_agrees_with_truncated_oracle():
    # Constants lie in the ideal iff its degree-0 slice is nonzero.
    from helpers import code
    r = Ring(5, 2)
    m = ideal(r, "D1", "D2")
    assert hilbert_oracle(code(r, [["D1", "D2"]]), 0) == 0
    assert not membership((P("1", r),), m)


def test_module_equal():
    r = Ring(5, 2)
    assert module_equal(ideal(r, "D1", "D2"), ideal(r, "D2", "D1 + D2"))
    assert not module_equal(ideal(r, "D1"), ideal(r, "D1", "D2"))
    m = ideal(r, "D1*D2 + D2^2", "D1")
    assert module_equal(m, m)


def test_module_equal_rejects_rank_mismatch():
    r = Ring(5, 2)
    m1 = ideal(r, "D1")
    m2 = SubmodulePresentation(r, 2, ((P("D1", r), Poly.zero(r)),))
    with pytest.raises(StructuralError):
        module_equal(m1, m2)


def test_syzygy_examples():
    r = Ring(101, 2)
    g = mat(r, [["D1", "D2"]])
    syz = syzygy_basis(g)
    assert syz.ncols == 1
    assert (g @ syz).is_zero
    # Koszul relation up to a scalar: (D2, -D1)
    assert module_equal(SubmodulePresentation.from_matrix(syz),
                        SubmodulePresentation(r, 2, ((P("D2", r), P("-D1", r)),)))

    inj = mat(r, [["D1"], ["D2"]])
    assert syzygy_basis(inj).ncols == 0

    dup = mat(r, [["D1", "D1"]])
    sd = syzygy_basis(dup)
    assert module_equal(SubmodulePresentation.from_matrix(sd),
                        SubmodulePresentation(r, 2, ((P("1", r), P("-1", r)),)))


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
        syz = syzygy_basis(g)
        if syz.ncols:
            assert (g @ syz).is_zero
            assert not syz.has_zero_column()


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
        syz = syzygy_basis(g)
        col_twist = g.column_degrees()
        for d in range(0, 5):
            kernel_vectors = truncated_kernel(g, (0,) * q, col_twist, d)
            if not kernel_vectors:
                continue
            assert syz.ncols > 0
            pres = SubmodulePresentation.from_matrix(syz)
            for vec in kernel_vectors:
                assert membership(vec, pres)


def test_left_kernel_examples():
    r = Ring(101, 2)
    g = mat(r, [["D1"], ["D2"]])
    h = left_kernel(g)
    assert h.nrows == 1
    assert (h @ g).is_zero
    assert left_kernel(mat(r, [["D1", "D2"]])).nrows == 0
    assert left_kernel(PolyMatrix.identity(r, 3)).nrows == 0


def test_minimal_generators_examples():
    r = Ring(5, 2)
    t = r.homogeneous_companion()
    m = SubmodulePresentation(t, 1, ((P("D1", t),), (P("D2", t),), (P("D1 + D2", t),)))
    kept = minimal_generators(m)
    assert kept.ncols == 2
    m1 = SubmodulePresentation(t, 1, ((P("D1", t),),))
    assert minimal_generators(m1).ncols == 1
    m2 = SubmodulePresentation(t, 1, ((P("D1", t),), (P("D1*D2", t),)))
    assert minimal_generators(m2).to_strings() == [["D1"]]


def test_minimal_generators_rejects_inhomogeneous_input():
    t = Ring(5, 2, homog=True)
    m = SubmodulePresentation(t, 1, ((P("D1 + 1", t),),))
    with pytest.raises(DomainError):
        minimal_generators(m)


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
                elem[0] = Poly.const(t, 1) if d == 0 else Poly.monomial(
                    t, tuple(d if i == 0 else 0 for i in range(t.nvars)))
            gens.append(tuple(elem))
        pres = SubmodulePresentation(t, rank, tuple(gens))
        kept = minimal_generators(pres)
        expected = graded_minimal_generator_count(gens, rank, (0,) * rank, t)
        assert kept.ncols == expected


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
        pres = SubmodulePresentation(ring, rank, tuple(gens))
        basis = groebner_basis(pres)
        for g in gens:
            from convres.algebra import vec_is_zero
            assert vec_is_zero(normal_form(g, basis))
        items = basis._items
        order = basis.order
        for j in range(len(items)):
            for i in range(j):
                if items[i].pos != items[j].pos:
                    continue
                s, _, _ = _spair_parts(items[i], items[j], order)
                rem, _ = _reduce_flat(s, items, order)
                assert not rem


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
        pres = SubmodulePresentation(ring, rank, tuple(gens))
        reference = groebner_basis(pres)
        # Shuffle and append random combinations of the generators.
        noisy = list(gens)
        rng.shuffle(noisy)
        for _ in range(2):
            combo = tuple(Poly.zero(ring) for _ in range(rank))
            for g in gens:
                c = random_poly(rng, ring, 1)
                combo = tuple(a + b * c for a, b in zip(combo, g))
            if not all(f.is_zero for f in combo):
                noisy.append(combo)
        again = groebner_basis(SubmodulePresentation(ring, rank, tuple(noisy)))
        assert reference.elements == again.elements


def test_order_key_prefers_low_positions():
    ring = Ring(5, 2)
    order = zero_order(ring, 2)
    t_low = (0, (1, 0))
    t_high = (1, (1, 0))
    assert order.key(t_low) > order.key(t_high)


def test_presentation_validation():
    r = Ring(5, 2)
    with pytest.raises(DomainError):
        SubmodulePresentation(r, 1, ((Poly.zero(r),),))
    with pytest.raises(StructuralError):
        SubmodulePresentation(r, 1, ())
    with pytest.raises(StructuralError):
        SubmodulePresentation(r, 2, ((P("D1", r),),))
