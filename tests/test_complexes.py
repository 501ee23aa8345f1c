import random

import pytest

from convres import PolyMatrix, Ring, complexes, groebner
from convres.complexes import (
    check_minimal,
    check_reduced,
    check_resolution,
    column_degree_table,
    minimal_resolution,
    minimality_witness,
    pd_failure_witness,
    validate_complex,
)
from convres.errors import DomainError, PreconditionError, StructuralError
from convres.groebner import ModuleOrder
from convres.invariants import forney_table, memory, rate
from convres.oracle import truncated_exactness

from helpers import (
    P,
    acceptance_corpus,
    check_graded_resolution,
    code,
    combine,
    dehomogenize,
    graded_column_degrees,
    homogeneous_column_degree,
    koszul_code,
    koszul_complex,
    map_entries,
    mat,
    minimalize_graded,
    pack,
    packed_chain,
    paper_matrix,
    probe_corpus,
    random_complex,
    reference_hilbert_numerator,
    resolution_without_minimalization,
    set_d0_zero,
    unpacked_lift,
)


def identity(ring, q):
    return mat(ring, [["1" if i == j else "0" for j in range(q)] for i in range(q)])


def homogenized(cx):
    """G^H over T from the packed lift (``packed_lift``)."""
    return validate_complex(unpacked_lift(cx)[0])


def leading(cx):
    """G^L over S as the checks read it (``_leading_part``)."""
    return validate_complex(unpacked_lift(cx)[1])


def bad_f2_matrix():
    r = Ring(2, 1)
    return validate_complex([mat(r, [["D1 + 1", "D1"], ["D1", "D1"]])])


def test_column_degree_table_golden():
    cx = validate_complex([paper_matrix()])
    assert column_degree_table(cx) == ((4, 2),)


def test_column_degree_table_koszul_and_identity():
    assert column_degree_table(koszul_complex()) == ((1, 1), (2,))
    r = Ring(2, 2)
    ident = validate_complex([identity(r, 3)])
    assert column_degree_table(ident) == ((0, 0, 0),)


def test_validate_complex_accepts_koszul():
    cx = koszul_complex()
    assert cx.length == 2 and cx.sizes == (2, 1) and cx.q == 1


def test_validate_complex_rejects_nonzero_product():
    r = Ring(2, 1)
    g = mat(r, [["D1"]])
    with pytest.raises(DomainError):
        validate_complex([g, g])


def test_validate_complex_rejects_dimension_mismatch_and_zero_column():
    r = Ring(2, 2)
    with pytest.raises(StructuralError):
        validate_complex([mat(r, [["D1", "D2"]]), mat(r, [["D2"], ["D1"], ["D1"]])])
    with pytest.raises(DomainError):
        validate_complex([mat(r, [["D1", "0"], ["D2", "0"]])])


def test_single_matrix_is_a_complex():
    r = Ring(2, 1)
    cx = validate_complex([mat(r, [["D1"]])])
    assert cx.length == 1


def test_homogenize_complex_golden_entry():
    cx = validate_complex([paper_matrix()])
    h = homogenized(cx)
    t = Ring(101, 1, homog=True)
    assert h.matrices[0].entry(1, 1) == P("D0*D1 + 4*D0^2", t)
    # substituting D0 = 1 recovers the input entrywise
    back = map_entries(h.matrices[0], dehomogenize, Ring(101, 1))
    assert back == cx.matrices[0]


def test_homogenize_complex_fixes_homogeneous_input():
    kz = koszul_complex()
    h = homogenized(kz)
    for hm, gm in zip(h.matrices, kz.matrices):
        assert map_entries(hm, dehomogenize, kz.ring) == gm
        assert map_entries(hm, lambda f: dehomogenize(set_d0_zero(f)), kz.ring) == gm
    r = Ring(2, 2)
    ident = validate_complex([identity(r, 2)])
    hid = homogenized(ident)
    assert map_entries(hid.matrices[0], dehomogenize, r) == ident.matrices[0]


def test_homogenized_columns_are_homogeneous():
    cx = validate_complex([paper_matrix()])
    h = homogenized(cx)
    table = ((0,) * cx.q,) + column_degree_table(cx)
    for k, hm in enumerate(h.matrices):
        for j in range(hm.ncols):
            assert homogeneous_column_degree(hm.column(j), table[k]) == table[k + 1][j]


def test_leading_term_complex_golden():
    cx = validate_complex([paper_matrix()])
    lead = leading(cx)
    r = Ring(101, 1)
    assert lead.matrices[0] == mat(r, [["0", "D1^2"],
                                       ["0", "0"],
                                       ["3*D1^4", "D1^2"]])


def test_leading_term_complex_fixed_points():
    kz = koszul_complex()
    lead = leading(kz)
    assert lead.matrices == kz.matrices
    r = Ring(2, 2)
    ident = validate_complex([identity(r, 2)])
    assert leading(ident).matrices == ident.matrices


def _homogenized_at_d0_zero(cx):
    """G^H with D0 := 0, then dehomogenized back to S."""
    return tuple(map_entries(m, lambda f: dehomogenize(set_d0_zero(f)), cx.ring)
                 for m in unpacked_lift(cx)[0])


def test_leading_term_complex_is_the_homogenization_at_d0_zero():
    rng = random.Random(59)
    cases = [koszul_complex(), validate_complex([paper_matrix()]), bad_f2_matrix()]
    cases += [random_complex(rng) for _ in range(40)]
    for c in acceptance_corpus():
        cases += [validate_complex([c.generators]), minimal_resolution(c).complex]
    for cx in cases:
        assert unpacked_lift(cx)[1] == _homogenized_at_d0_zero(cx), cx


def test_validate_complex_accepts_every_lifted_corpus_complex():
    """G^L and G^H are built without re-multiplying their matrices: G
    being a complex forces both to be one, with the degree table of G."""
    rng = random.Random(2024)
    cases = [koszul_complex(), validate_complex([paper_matrix()]), bad_f2_matrix()]
    cases += [random_complex(rng) for _ in range(200)]
    for c in acceptance_corpus():
        cases += [validate_complex([c.generators]), minimal_resolution(c).complex]
    for cx in cases:
        for lifted in unpacked_lift(cx):
            checked = validate_complex(lifted)
            assert (checked.q, checked.sizes) == (cx.q, cx.sizes)
            assert column_degree_table(checked) == column_degree_table(cx), cx


def test_report_computes_the_degree_table_once(monkeypatch):
    c = koszul_code()
    cx = minimal_resolution(c).complex
    levels, orders, leads = packed_chain(c)
    calls = []
    real = PolyMatrix.column_degrees
    monkeypatch.setattr(PolyMatrix, "column_degrees",
                        lambda self, twist=None: calls.append(self) or real(self, twist))
    report = complexes._report(levels, orders, leads, c.ring)
    assert report.degree_table == ((1, 1), (2,))
    assert report.complex == cx
    assert len(calls) == len(levels) == 2


def test_minimal_resolution_builds_no_derived_complex(monkeypatch):
    # The lift and the checks stay packed: no G^L of the report's complex,
    # no repacking of it, no Poly products, no fresh Groebner basis and no
    # Poly basis; and _report reuses the chain's module orders.
    targets = {name: complexes for name in ("validate_complex", "_leading_part", "_packed_levels")}
    targets.update({"_from_flat": groebner})
    calls = dict.fromkeys(targets, 0)
    for name, owner in targets.items():
        def counted(*args, name=name, original=getattr(owner, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, counted)
    orders, real_init, real_report = [], ModuleOrder.__post_init__, complexes._report
    monkeypatch.setattr(ModuleOrder, "__post_init__",
                        lambda self: orders.append(self) or real_init(self))

    def report(*args):
        built = len(orders)
        out = real_report(*args)
        calls["ModuleOrder in _report"] = len(orders) - built
        return out
    monkeypatch.setattr(complexes, "_report", report)
    rep = minimal_resolution(koszul_code())
    assert rep.complex.length == 2 and orders
    assert calls == dict.fromkeys(calls, 0) and len(calls) == len(targets) + 1


def test_minimal_resolution_checks_exactness_once(monkeypatch):
    # Only G^L is checked, by Hilbert series read off the chain's own
    # leads; the paper's theorem carries exactness to G, and no
    # syzygy-based check runs.
    compared, resolutions = [], []
    real = complexes._exact_by_numerators

    def spy(numerators, table):
        compared.append((list(numerators), table))
        return real(compared[-1][0], table)
    monkeypatch.setattr(complexes, "_exact_by_numerators", spy)
    monkeypatch.setattr(complexes, "check_resolution", resolutions.append)
    rep = minimal_resolution(koszul_code())
    assert len(compared) == 1 and resolutions == []
    numerators, table = compared[0]
    assert tuple(table) == ((0,),) + rep.degree_table
    _, lead = unpacked_lift(rep.complex)
    assert numerators == [reference_hilbert_numerator(pack(m.columns(), order), order)
                          for m, order in zip(lead, (ModuleOrder(rep.complex.ring, twist)
                                                     for twist in table))]


def test_reduced_implies_resolution_on_the_probe_corpus():
    """The paper's theorem: G^L a resolution forces G to be one.

    The corpus is the Koszul complex, 200 seeded random complexes
    (damaged ones included) and the unpruned route over the acceptance
    corpus; the three classes the theorem allows all occur.  On G^L the
    Hilbert-series proof behind ``check_reduced`` agrees with the
    syzygy proof of ``check_resolution``.
    """
    cases = probe_corpus()
    classes = {}
    for cx in cases:
        key = (check_reduced(cx), check_resolution(cx))
        assert key[0] == check_resolution(leading(cx)), cx
        assert key != (True, False), cx
        classes[key] = classes.get(key, 0) + 1
    assert len(cases) == 287
    assert set(classes) == {(True, True), (False, True), (False, False)}, classes


def test_hilbert_certificate_rejects_planted_non_exact_complexes():
    r = Ring(101, 2)
    # image (D1*D2, -D1^2) = D1 * (D2, -D1) strictly inside the kernel of [D1 D2]
    inside = validate_complex([mat(r, [["D1", "D2"]]), mat(r, [["D1*D2"], ["-D1^2"]])])
    # [D1 D2] alone has a kernel at the end
    tail = validate_complex([mat(r, [["D1", "D2"]])])
    for cx in (inside, tail):
        assert leading(cx).matrices == cx.matrices
        assert not check_graded_resolution(cx) and not check_resolution(cx)
        assert not check_reduced(cx)
    assert check_graded_resolution(koszul_complex())


def test_hilbert_certificate_needs_a_graded_complex():
    # The Hilbert-series proof needs homogeneous columns; the leading part
    # the checks read is G^L, which is graded by the table of G.
    bad = bad_f2_matrix()
    with pytest.raises(DomainError):
        check_graded_resolution(bad)
    lead = leading(bad)
    assert graded_column_degrees(lead.matrices[0], (0, 0)) == column_degree_table(bad)[0]
    assert not check_graded_resolution(lead) and not check_reduced(bad)


def test_check_resolution():
    assert check_resolution(koszul_complex())
    r = Ring(2, 2)
    only_g1 = validate_complex([mat(r, [["D1", "D2"]])])
    assert not check_resolution(only_g1)
    ident = validate_complex([identity(r, 2)])
    assert check_resolution(ident)


def test_check_reduced():
    assert not check_reduced(bad_f2_matrix())
    assert check_reduced(koszul_complex())
    assert check_reduced(validate_complex([paper_matrix()]))


def test_check_pd_and_witness():
    assert check_reduced(koszul_complex())
    bad = bad_f2_matrix()
    assert not check_reduced(bad)
    witness = pd_failure_witness(bad)
    r = Ring(2, 1)
    assert witness == (P("1", r), P("1", r))
    # the witness drops degree: deg_a f = 1 but deg(G f) = 0
    g = bad.matrices[0]
    image = tuple(combine(g.entry(i, 0) * witness[0], g.entry(i, 1) * witness[1])
                  for i in range(2))
    assert image == (P("1", r), P("0", r))
    ident = validate_complex([identity(r, 2)])
    assert check_resolution(ident) and check_reduced(ident)


def test_check_minimal_on_koszul_and_l1():
    assert check_minimal(koszul_complex())
    assert check_minimal(validate_complex([paper_matrix()]))


def test_check_minimal_requires_reduced_resolution():
    with pytest.raises(PreconditionError):
        check_minimal(bad_f2_matrix())
    r = Ring(2, 2)
    with pytest.raises(PreconditionError):
        check_minimal(validate_complex([mat(r, [["D1", "D2"]])]))


def test_check_minimal_flags_redundant_generator():
    # G_1 = [D1 D2 D1] with its syzygy matrix: reduced resolution with a
    # scalar surviving in the second leading matrix.
    r = Ring(101, 2)
    g1 = mat(r, [["D1", "D2", "D1"]])
    g2 = mat(r, [["D2", "1"], ["-D1", "0"], ["0", "-1"]])
    cx = validate_complex([g1, g2])
    assert check_resolution(cx) and check_reduced(cx)
    assert not check_minimal(cx)
    assert minimality_witness(cx) is not None


def test_minimal_resolution_koszul():
    rep = minimal_resolution(koszul_code())
    assert rep.complex.length == 2
    assert rep.complex.q == 1 and rep.complex.sizes == (2, 1)
    assert rep.degree_table == ((1, 1), (2,))
    assert check_resolution(rep.complex) and check_minimal(rep.complex)
    r = Ring(2, 2)
    assert rep.complex.matrices[0] == mat(r, [["D1", "D2"]])
    assert rep.complex.matrices[1] == mat(r, [["D2"], ["D1"]])


def test_minimal_resolution_free_and_full():
    r = Ring(2, 2)
    rep = minimal_resolution(code(r, [["D1"], ["D2"]]))
    assert rep.complex.length == 1 and rep.complex.sizes == (1,)
    assert rep.degree_table == ((1,),)
    rep2 = minimal_resolution(code(r, [["1", "0"], ["0", "1"]]))
    assert rep2.complex.length == 1 and rep2.degree_table == ((0, 0),)


def test_minimal_resolution_outputs_verify_by_oracle():
    rng = random.Random(43)
    from helpers import random_code
    for _ in range(6):
        c = random_code(rng, n=rng.randint(1, 2))
        rep = minimal_resolution(c)
        for d in range(0, 7):
            assert truncated_exactness(rep.complex, d)


def test_minimalize_graded_examples():
    kz = koszul_complex()
    kzh = homogenized(kz)
    assert minimalize_graded(kzh).matrices == kzh.matrices

    # redundant generators: p_1 drops from 3 to 2
    r = Ring(2, 2)
    raw = resolution_without_minimalization(
        koszul_code(), extra_generators=[(P("D1 + D2", r),)])
    assert raw.complex.sizes[0] == 3 and not raw.is_minimal
    pruned = minimalize_graded(homogenized(raw.complex))
    assert pruned.sizes[0] == 2

    # a glued-in trivial rank-1 identity pair disappears
    t = Ring(101, 2, homog=True)
    g1 = mat(t, [["D1", "D2", "D1"]])
    g2 = mat(t, [["D2", "-1"], ["-D1", "0"], ["0", "1"]])
    out = minimalize_graded(validate_complex([g1, g2]))
    assert out.sizes == (2, 1)
    back = validate_complex([map_entries(m, dehomogenize, Ring(101, 2))
                             for m in out.matrices])
    assert check_resolution(back) and check_reduced(back) and check_minimal(back)


def test_minimalize_graded_requires_t():
    with pytest.raises(StructuralError):
        minimalize_graded(koszul_complex())


def test_resolution_without_minimalization_is_reduced_but_not_minimal():
    r = Ring(2, 2)
    raw = resolution_without_minimalization(
        koszul_code(), extra_generators=[(P("D1 + D2", r),)])
    assert raw.is_resolution and raw.is_reduced and not raw.is_minimal
    assert minimality_witness(raw.complex) is not None


def test_minimal_resolution_rejects_trivial_input():
    r = Ring(2, 2)
    with pytest.raises(DomainError):
        code(r, [["0"]])


def _invariants(rep):
    table = rep.degree_table
    return rep.complex.sizes, forney_table(table), memory(table), rate(table)


def test_invariance_under_representation_changes():
    rng = random.Random(47)
    from convres.algebra import CodePresentation
    from helpers import random_code, random_poly
    for _ in range(5):
        c = random_code(rng, n=rng.randint(1, 2))
        rep = minimal_resolution(c)
        base = _invariants(rep)
        cols = c.generators.columns()
        rng.shuffle(cols)
        original = list(cols)
        for _ in range(3):
            coeffs = [random_poly(rng, c.ring, 1) for _ in original]
            combo = (PolyMatrix.from_columns(c.ring, c.q, original)
                     @ PolyMatrix.from_rows(c.ring, [[cf] for cf in coeffs])).column(0)
            if not all(f.is_zero for f in combo):
                cols.append(combo)
        c2 = CodePresentation(c.ring, PolyMatrix.from_columns(c.ring, c.q, cols))
        rep2 = minimal_resolution(c2)
        assert _invariants(rep2) == base


def test_pd_agrees_with_truncated_exactness_on_random_complexes():
    rng = random.Random(53)
    for _ in range(25):
        cx = random_complex(rng)
        verdict = check_reduced(cx)
        truncated = all(truncated_exactness(cx, d) for d in range(0, 7))
        assert verdict == truncated
