"""Polynomial complexes, their structural checks, and minimal resolutions.

A polynomial complex is a chain of matrices (G_1, ..., G_l) over S with
G_i @ G_{i+1} = 0 and no zero columns.  Its column degree table assigns
to every level the twisted column degrees, starting from the zero twist
on the ambient S^q.  From the table one forms:

* the homogenization G^H over T, lifting every entry into the exact
  degree the table prescribes, and
* the leading part complex G^L over S, keeping of each entry only the
  top-degree part the table prescribes (equivalently, G^H at D0 = 0).

Both come from one walk over the table.  The checks offered here: being
a resolution (exact as modules), being column reduced (G^L is a
resolution) and minimality (no scalar survives in G_2^L..G_l^L).  By
the paper's main theorem, column reducedness is the predictable degree
property: if G^L is a resolution then so is G, so one exactness proof
on G^L serves both.

Exactness is proved in two independent ways.  ``check_resolution``
works on any complex with Schreyer syzygies and module equality; it
serves ``check resolution`` and the tests.  G^L is graded by the
degree table, so its exactness follows from Hilbert series of
lead-term modules alone (``_exact_by_numerators``), with the lead terms
taken from one of two sources.  ``check_graded_resolution`` computes a
fresh Groebner basis of every image; reducedness and minimality of a
given complex use it.  ``minimal_resolution``, which constructs the
minimal reduced resolution of a code through the graded route and is
the source of all invariants, reads them off the Groebner bases its own
syzygy runs completed over T: their D0-free leads generate the
lead-term modules of G^L (see ``groebner.ModuleOrder``).  It checks the
products and the scalar entries on its packed columns too, so it builds
no G^L, no G^H and no ``Poly`` product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, pairwise

from .algebra import CodePresentation, Poly, PolyMatrix
from .errors import DomainError, InvariantError, PreconditionError, StructuralError
from .groebner import (
    ModuleOrder,
    SubmodulePresentation,
    _addmul,
    _buchberger,
    _flat_degree,
    _interreduce,
    _lead_numerator,
    _lift_flat,
    _minimal_flat,
    _syzygies_flat,
    _to_flat,
    hilbert_numerator,
    module_equal,
    syzygy_basis,
)

DegreeTable = tuple  # (a_1, ..., a_l), each a tuple[int, ...] of length p_i


class PolyComplex:
    """A chain (G_1, ..., G_l) known to be a complex.

    Built by ``validate_complex``, from one by ``_lift_by_table``, or by
    ``_report`` from packed levels it has checked itself.
    """

    __slots__ = ("ring", "matrices", "q", "sizes", "_table")

    def __init__(self, ring, matrices, q, sizes, table=None):
        self.ring = ring
        self.matrices = matrices
        self.q = q
        self.sizes = sizes  # (p_1, ..., p_l)
        self._table = table  # column degree table, once computed

    @property
    def length(self) -> int:
        return len(self.matrices)

    def __eq__(self, other):
        return isinstance(other, PolyComplex) and self.matrices == other.matrices

    def __repr__(self):
        return f"PolyComplex(q={self.q}, sizes={self.sizes})"


def validate_complex(matrices) -> PolyComplex:
    """Check shapes, zero columns and vanishing products; return the complex."""
    matrices = tuple(matrices)
    if not matrices:
        raise StructuralError("a complex needs at least one matrix")
    ring = matrices[0].ring
    for k, mat in enumerate(matrices, start=1):
        if mat.ring != ring:
            raise StructuralError(f"G_{k} lives in a different ring")
        if mat.nrows < 1 or mat.ncols < 1:
            raise StructuralError(f"G_{k} is empty")
        if mat.has_zero_column():
            raise DomainError(f"G_{k} has a zero column")
    for k in range(len(matrices) - 1):
        a, b = matrices[k], matrices[k + 1]
        if a.ncols != b.nrows:
            raise StructuralError(
                f"G_{k + 1} has {a.ncols} columns but G_{k + 2} has {b.nrows} rows")
        if not (a @ b).is_zero:
            raise DomainError(f"product G_{k + 1} @ G_{k + 2} is not zero")
    q = matrices[0].nrows
    sizes = tuple(m.ncols for m in matrices)
    return PolyComplex(ring, matrices, q, sizes)


def column_degree_table(cx: PolyComplex) -> DegreeTable:
    """The recursive degree table: a_0 = 0, a_{i+1} = twisted column degrees.

    Computed once per complex and kept on it.
    """
    if cx._table is None:
        twist = (0,) * cx.q
        table = []
        for mat in cx.matrices:
            twist = mat.column_degrees(twist)
            table.append(twist)
        cx._table = tuple(table)
    return cx._table


def _lift_by_table(cx: PolyComplex, ring, lift) -> PolyComplex:
    """Apply ``lift(entry, a_k(j) - a_{k-1}(i))`` to every entry of G_k.

    The degree table recursion makes e = a_k(j) - a_{k-1}(i) an upper
    bound for the degree of entry (i, j) of G_k, attained in every
    column; ``lift`` is the degree-e homogenization or the degree-e
    part, so the lifted matrices, over ``ring``, have no zero column and
    the same degree table.  They form a complex because ``cx`` does,
    so ``validate_complex`` is not run again: entry (i, j) of
    G_k G_{k+1} has degree <= e' = a_{k+1}(j) - a_{k-1}(i), and its
    degree-e' part is entry (i, j) of G^L_k G^L_{k+1}, which is
    therefore zero; the same entry of G^H_k G^H_{k+1} is homogeneous of
    degree e' and becomes zero at D0 = 1, so it is zero too.
    """
    table = ((0,) * cx.q,) + column_degree_table(cx)
    mats = []
    for k, mat in enumerate(cx.matrices):
        rows = [[lift(mat.entry(i, j), table[k + 1][j] - table[k][i])
                 for j in range(mat.ncols)] for i in range(mat.nrows)]
        mats.append(PolyMatrix.from_rows(ring, rows))
    return PolyComplex(ring, tuple(mats), cx.q, cx.sizes, table[1:])


def homogenize_complex(cx: PolyComplex) -> PolyComplex:
    """Entrywise degree-exact lift of the complex into T.

    Entry (i, j) of G_k is homogenized in degree a_k(j) - a_{k-1}(i).
    Columns of the result are homogeneous for the previous level's
    twist, and substituting D0 = 1 recovers the input.
    """
    return _lift_by_table(cx, cx.ring.homogeneous_companion(), Poly.homogenize)


def leading_term_complex(cx: PolyComplex) -> PolyComplex:
    """Keep of each entry only its table-prescribed top-degree part.

    Identical to homogenizing, substituting D0 = 0 and dropping D0.
    """
    return _lift_by_table(cx, cx.ring, Poly.homogeneous_part)


# -- checks ---------------------------------------------------------------

def check_resolution(cx: PolyComplex) -> bool:
    """Exactness as modules: injective tail, and image = kernel inside."""
    if syzygy_basis(cx.matrices[-1]).ncols != 0:
        return False
    for i in range(cx.length - 1):
        ker = syzygy_basis(cx.matrices[i])
        if ker.ncols == 0:
            # Next matrix has nonzero columns inside this kernel.
            return False
        image = SubmodulePresentation.from_matrix(cx.matrices[i + 1])
        kernel = SubmodulePresentation.from_matrix(ker)
        if not module_equal(image, kernel):
            return False
    return True


def _poly_sum(*polys) -> dict:
    """Sum of polynomials in t given as {exponent: coefficient} dicts."""
    out: dict = {}
    for poly in polys:
        for k, c in poly.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _exact_by_numerators(numerators, table) -> bool:
    """Exactness of a graded complex from the Hilbert numerators of its images.

    ``table`` is (a_0, a_1, ..., a_l), a_0 the ambient twist, and
    ``numerators`` yields N(im G_1), ..., N(im G_l) over (1 - t)^n; it
    is read lazily, so a failing level stops the work.  G_k maps
    F_k = sum_j S(-a_k(j)) into F_{k-1} in degree 0 and im G_{k+1} lies
    inside ker G_k, so the complex is exact exactly when
    N(im G_{k+1}) + N(im G_k) = sum_j t^a_k(j) for k < l and
    N(im G_l) = sum_j t^a_l(j).
    """
    pairs = pairwise(chain(numerators, [{}]))
    return all(_poly_sum(a, b) == _poly_sum(*({d: 1} for d in level))
               for level, (a, b) in zip(table[1:], pairs))


def check_graded_resolution(cx: PolyComplex) -> bool:
    """Exactness of a complex graded by its own degree table, by Hilbert series.

    Every column j of G_k must be homogeneous of twisted degree a_k(j)
    for the row twist a_{k-1}, as in any leading part complex
    (``DomainError`` otherwise).  The numerators of the images come from
    a fresh Groebner basis per level (``hilbert_numerator``, after Bayer
    & Stillman, "Computation of Hilbert functions", JSC 14, 1992) and
    are compared by ``_exact_by_numerators``; no syzygies are computed.
    """
    table = ((0,) * cx.q,) + column_degree_table(cx)
    return _exact_by_numerators(
        (hilbert_numerator(SubmodulePresentation.from_matrix(mat, twist))
         for mat, twist in zip(cx.matrices, table)), table)


def check_reduced(cx: PolyComplex) -> bool:
    """Column reducedness: the leading part complex is a resolution.

    By the paper's main theorem a complex whose G^L is a resolution is
    itself one, so this is also the predictable degree property.  G^L is
    graded, so its exactness is proved by ``check_graded_resolution``.
    """
    return check_graded_resolution(leading_term_complex(cx))


def pd_failure_witness(cx: PolyComplex, lead: PolyComplex = None):
    """A degree-dropping element when level 1 breaks reducedness.

    Any nonzero homogeneous kernel element y of G_1^L has twisted degree
    strictly above deg(G_1 @ y), so it certifies the failure.  Returns
    None when level 1 of the leading part complex has no kernel (the
    failure, if any, sits deeper).  ``lead`` is G^L of ``cx`` when the
    caller has built it already.
    """
    lead = leading_term_complex(cx) if lead is None else lead
    ker = syzygy_basis(lead.matrices[0])
    if ker.ncols == 0:
        return None
    return ker.column(0)


def _scalar_positions(lead: PolyComplex):
    out = []
    for k in range(1, lead.length):
        mat = lead.matrices[k]
        for i in range(mat.nrows):
            for j in range(mat.ncols):
                if mat.entry(i, j).is_nonzero_scalar:
                    out.append((k + 1, i, j))
    return out


def minimality_witness(cx: PolyComplex, lead: PolyComplex = None):
    """First (level, row, col) of a scalar entry in G_2^L.., or None.

    ``lead`` is G^L of ``cx`` when the caller has built it already.
    """
    scalars = _scalar_positions(leading_term_complex(cx) if lead is None else lead)
    return scalars[0] if scalars else None


def check_minimal(cx: PolyComplex, lead: PolyComplex = None) -> bool:
    """Minimality test for reduced resolutions.

    Requires the complex to be column reduced, hence a resolution by the
    paper's main theorem; reducedness is proved on G^L by
    ``check_graded_resolution``.  Then a length-1 complex is always
    minimal, and otherwise minimality holds exactly when no entry of
    G_2^L, ..., G_l^L is a nonzero scalar.  ``lead`` is G^L of ``cx``
    when the caller has built it already.
    """
    lead = leading_term_complex(cx) if lead is None else lead
    if not check_graded_resolution(lead):
        raise PreconditionError("check_minimal needs a column reduced resolution")
    return not _scalar_positions(lead)


# -- reports and construction ----------------------------------------------

@dataclass(frozen=True)
class ResolutionReport:
    complex: PolyComplex
    degree_table: DegreeTable
    is_resolution: bool
    is_reduced: bool
    is_minimal: bool


def _lifted_code(code: CodePresentation, order: ModuleOrder) -> list:
    """Homogeneous generators of the code lifted to its graded companion.

    They are the reduced basis of the code under the degree-compatible
    order over S with ``order``'s twist, each element homogenized in its
    own degree and packed by ``order`` over T (``_lift_flat``); no term
    is unpacked on the way.
    """
    s_order = ModuleOrder(code.ring, order.twist)
    items = _buchberger([_to_flat(g, s_order) for g in code.generators.columns()], s_order)
    return [_lift_flat(it.flat, s_order, order) for it in _interreduce(items, s_order)]


def _syzygy_chain(gens, order: ModuleOrder, max_levels: int):
    """Iterated minimal syzygies over T of homogeneous packed columns.

    ``gens`` are packed by ``order``, whose twist is their row twist.
    Every syzygy module is cut down to minimal homogeneous generators
    (``_minimal_flat``) before the next level is taken.  Level k stays
    packed by ``orders[k - 1]``: the order its syzygies were produced in
    and the one the next level reads them in.  Returns the levels, the
    orders (``orders[0]`` is ``order`` and ``orders[k]`` is twisted by
    the column degrees of ``levels[k - 1]``) and the leads:
    ``leads[k - 1]`` lists as (position, exponents over S) the D0-free
    leads of the Groebner basis of the span of level k that its syzygy
    run completed, which generate the lead-term module of im G_k^L (see
    ``ModuleOrder``).
    """
    levels, orders, leads = [], [order], []
    cols = [gens[k] for k in _minimal_flat(gens, order)]
    for _ in range(max_levels):
        levels.append(cols)
        orders.append(ModuleOrder(order.ring, tuple(_flat_degree(c, order) for c in cols)))
        syz, items = _syzygies_flat(cols, order, orders[-1])
        leads.append([(it.pos, it.exps[1:]) for it in items if not it.exps[0]])
        if not syz:
            return levels, orders, leads
        order = orders[-1]
        cols = [syz[k] for k in _minimal_flat(syz, order)]
    raise InvariantError(f"syzygy chain did not end within {max_levels} levels")


def _report(levels, orders, leads, ring) -> ResolutionReport:
    """Check the packed graded levels over T, then set D0 = 1 for the report.

    ``levels``, ``orders`` and ``leads`` are as ``_syzygy_chain`` returns
    them, so no order is built here.  Level k, packed by
    ``orders[k - 1]``, is G_k^H, and G_k^L is G_k^H at D0 = 0.  Three
    checks run on the packed columns:

    * G_k^H G_{k+1}^H = 0: each term of a column of level k + 1 adds one
      multiple of a column of level k, shifted by the term minus the
      packed unit at its position (both orders share one digit layout).
      Zero over T gives zero over S, for G^L and for G.
    * Exactness of G^L, by ``_exact_by_numerators`` on the Hilbert
      numerators of the chain's D0-free ``leads``; no Groebner basis is
      computed again.  By the paper's main theorem a complex whose G^L
      is a resolution is itself one, so G is not checked again.
    * Minimality: an entry of G_k^L (k >= 2) is a nonzero scalar exactly
      when a column of level k has a term of degree 0, the packed unit
      at its position.

    A failed product or exactness check raises ``InvariantError``.  Then
    each level becomes ``Poly`` matrices over ``ring``: within one
    position of a homogeneous column the D0 digit is fixed by the
    others, so dropping it keeps terms distinct, and descending packed
    order is descending grevlex over S.
    """
    minimal, mats = True, []
    for k, (cols, order) in enumerate(zip(levels, orders)):
        units = [order.pack((pos, (0,) * order.ring.nvars)) for pos in range(order.rank)]
        rows = [[[] for _ in cols] for _ in order.twist]
        for j, flat in enumerate(cols):
            product: dict = {}
            for t in sorted(flat, reverse=True):
                pos, e = order.unpack(t)
                rows[pos][j].append((e[1:], flat[t]))
                if k:
                    minimal = minimal and any(e)
                    _addmul(product, levels[k - 1][pos], flat[t], t - units[pos], ring.p)
            if product:
                raise InvariantError(f"the constructed G_{k} G_{k + 1} is not zero")
        mats.append(PolyMatrix(ring, order.rank, len(cols), tuple(
            tuple(Poly(ring, tuple(terms)) for terms in row) for row in rows)))
    twists = [order.twist for order in orders]
    numerators = (_lead_numerator(lv, tw, ring.nvars) for lv, tw in zip(leads, twists))
    if not _exact_by_numerators(numerators, twists):
        raise InvariantError("construction must yield a minimal reduced resolution, "
                             "but its leading part complex is not exact")
    cx = PolyComplex(ring, tuple(mats), orders[0].rank, tuple(len(cols) for cols in levels))
    return ResolutionReport(cx, column_degree_table(cx), True, True, minimal)


def minimal_resolution(code: CodePresentation) -> ResolutionReport:
    """Minimal reduced polynomial resolution of a nontrivial code.

    Route: lift the code to its graded companion over T via a
    degree-compatible reduced basis homogenized element by element on
    packed terms (``_lifted_code``), extract minimal homogeneous
    generators, then repeatedly take the
    syzygies of the last level and prune them to minimal homogeneous
    generators before going one level deeper, all on packed columns
    (``_syzygy_chain``); finally set D0 = 1.  Minimal generators at
    every level make the graded resolution minimal, so no pivoting is
    needed afterwards.  The length is checked to be at most n and the
    degree table to equal the graded twists carried through the
    construction.  On the packed levels (``_report``) the products are
    checked to vanish over T, the leading part complex to be a
    resolution, by Hilbert series of the leads the chain's own syzygy
    runs left, and to have no scalar entry past level 1.  By the
    paper's main theorem that makes the result a resolution too, so it
    is not checked separately.  A failed check raises
    ``InvariantError``.
    """
    if code.generators.is_zero:
        raise DomainError("the zero code has no resolution")
    order = ModuleOrder(code.ring.homogeneous_companion(), (0,) * code.q)
    levels, orders, leads = _syzygy_chain(_lifted_code(code, order), order, code.ring.n + 2)
    if not 1 <= len(levels) <= code.ring.n:
        raise InvariantError(f"homological dimension {len(levels)} outside 1..{code.ring.n}")
    report = _report(levels, orders, leads, code.ring)
    if report.degree_table != tuple(order.twist for order in orders[1:]):
        raise InvariantError("degree table drifted from the graded twists")
    if not report.is_minimal:
        raise InvariantError("construction must yield a minimal reduced resolution")
    return report

