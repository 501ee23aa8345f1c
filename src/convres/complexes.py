"""Polynomial complexes, their structural checks, and minimal resolutions.

A polynomial complex is a chain of matrices (G_1, ..., G_l) over S with
G_i @ G_{i+1} = 0 and no zero columns.  Its column degree table assigns
to every level the twisted column degrees, starting from the zero twist
on the ambient S^q.  From the table one forms:

* the homogenization G^H over T, lifting every entry into the exact
  degree the table prescribes, and
* the leading part complex G^L over S, keeping of each entry only the
  top-degree part the table prescribes, which is G^H at D0 = 0.

A given complex is checked on G^L alone, packed over S: each column of
G_k, packed by the ``ModuleOrder`` over S of its row twist
(``_packed_levels``), keeps its terms of top weight (``_leading_part``).
A constructed complex is checked on G^H, packed over T as
``_syzygy_chain`` builds it for ``minimal_resolution``.  The checks
offered here: being a resolution (exact as modules), being column
reduced (G^L is a resolution) and minimality (no scalar survives in
G_2^L..G_l^L).  By the paper's main theorem, column reducedness is the
predictable degree property: if G^L is a resolution then so is G, so
one exactness proof on G^L serves both.

Exactness is proved in two independent ways.  ``check_resolution``
works on any complex, with one tracked completion per level on its
columns packed over S: Schreyer's syzygies of each level must reduce to
zero against the Groebner basis of the next level's image.  It serves
``check resolution`` and the tests.  G^L is graded by the degree table,
so its exactness follows from Hilbert series of lead-term modules alone
(``_exact``): for a given complex from the leads of one untracked
Buchberger run per level of G^L, and for ``minimal_resolution``, the
source of all invariants, from the bases its own runs completed, one
per level, whose D0-free leads generate the lead-term module of
im G_k^L (see ``groebner.ModuleOrder``).  The witness of a failure at
level 1 takes its own tracked run (``pd_failure_witness``).  A scalar
entry of G^L past level 1 is a term of degree 0 in either packed form
(``_scalar_entry``).  Only the report's complex and the witnesses
become ``Poly``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, pairwise
from math import comb

from .algebra import CodePresentation, PolyMatrix
from .errors import DomainError, InvariantError, PreconditionError, StructuralError
from .groebner import (
    _MASK,
    ModuleOrder,
    _addmul,
    _buchberger,
    _from_flat,
    _interreduce,
    _lead_numerator,
    _lift_flat,
    _minimal_level,
    _reduce_flat,
    _syzygies_flat,
    _to_flat,
)

DegreeTable = tuple  # (a_1, ..., a_l), each a tuple[int, ...] of length p_i


class PolyComplex:
    """A chain (G_1, ..., G_l) known to be a complex.

    Built by ``validate_complex``, or by ``_report`` from packed levels
    it has checked itself.
    """

    __slots__ = ("ring", "matrices", "q", "sizes", "_lead")

    def __init__(self, ring, matrices, q, sizes):
        self.ring = ring
        self.matrices = matrices
        self.q = q
        self.sizes = sizes  # (p_1, ..., p_l)
        self._lead = None    # ``_leading_part``, once computed

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
    """The recursive degree table: a_0 = 0, a_{i+1} = twisted column degrees."""
    twist = (0,) * cx.q
    table = []
    for mat in cx.matrices:
        twist = mat.column_degrees(twist)
        table.append(twist)
    return tuple(table)


def _packed_levels(cx: PolyComplex):
    """The levels of a complex as packed columns over S, with the order of each level.

    ``levels[k]`` holds the columns of G_{k+1} packed by ``orders[k]``,
    the order over S twisted by a_k (a_0 the zero twist), and
    ``orders[l]`` is twisted by a_l.
    """
    orders = [ModuleOrder(cx.ring, twist) for twist in ((0,) * cx.q,) + column_degree_table(cx)]
    return ([[_to_flat(col, order) for col in mat.columns()]
             for mat, order in zip(cx.matrices, orders)], orders)


def _leading_part(cx: PolyComplex):
    """G^L of a complex as packed columns over S, with the order of each level.

    Returns ``(levels, orders)`` as ``_packed_levels`` does.  The packed
    weight of a term of column j of G_{k+1} is its degree plus the row
    twist a_k(i), so the column's top weight is its twisted degree
    a_{k+1}(j), and the terms of that weight are the part of degree
    e = a_{k+1}(j) - a_k(i) of every entry (i, j): the column of G^L.
    The table makes e an upper bound for the degree of the entry,
    attained in every column, so G^L has no zero column and the degree
    table of G.  It is a complex because G is, so no product is checked
    again: entry (i, j) of G_k^L G_{k+1}^L is the part of degree
    a_{k+1}(j) - a_{k-1}(i), the top one, of the same entry of
    G_k G_{k+1}, which is zero.  Computed once per complex and kept on
    it.
    """
    if cx._lead is None:
        levels, orders = _packed_levels(cx)
        w_at = orders[0]._weight_at
        cx._lead = ([[{t: c for t, c in flat.items() if t >> w_at == top}
                      for flat, top in zip(cols, order.twist)]
                     for cols, order in zip(levels, orders[1:])], orders)
    return cx._lead


def _complex(levels, orders, ring) -> PolyComplex:
    """Packed levels over T as a complex of ``Poly`` matrices over S at D0 = 1 (``_from_flat``)."""
    mats = tuple(PolyMatrix.from_columns(ring, order.rank,
                                         [_from_flat(order, flat, ring) for flat in cols])
                 for cols, order in zip(levels, orders))
    return PolyComplex(ring, mats, orders[0].rank, tuple(map(len, levels)))


# -- checks ---------------------------------------------------------------

def check_resolution(cx: PolyComplex) -> bool:
    """Exactness as modules, by Schreyer's theorem on packed columns over S.

    Level k is packed by the order of its row twist a_{k-1}
    (``_packed_levels``).  One tracked completion per level
    (``_syzygies_flat``) gives the syzygies of G_k, packed by the order
    of a_k, and a Groebner basis of im G_k.  G_k G_{k+1} = 0 puts
    im G_{k+1} inside ker G_k, so the complex is exact exactly when
    every syzygy of G_k reduces to zero against the basis of im G_{k+1},
    which is packed in that same order, and G_l has no syzygy.
    """
    levels, orders = _packed_levels(cx)
    kernel = []
    for cols, order, syz_order in zip(levels, orders, orders[1:]):
        syz, items = _syzygies_flat(cols, order, syz_order)
        if any(_reduce_flat(flat, items, order) for flat in kernel):
            return False
        kernel = syz
    return not kernel


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


def _exact(leads, orders) -> bool:
    """Exactness of G^L from the leads of a Groebner basis of each image.

    ``leads`` yields, level by level, the leads as (position, exponents
    over S) that generate the lead-term module of im G_k^L; ``orders``
    are the orders of the levels.  The numerators come by ``_lead_numerator``
    (after Bayer & Stillman, "Computation of Hilbert functions", JSC 14,
    1992) and are compared by ``_exact_by_numerators``; no syzygies are
    computed.
    """
    twists = [order.twist for order in orders]
    return _exact_by_numerators(
        (_lead_numerator(lv, tw, orders[0].ring.n) for lv, tw in zip(leads, twists)), twists)


def _units(order: ModuleOrder) -> list:
    """The packed unit at every position of ``order``."""
    one = (0,) * order.ring.nvars
    return [order.pack((pos, one)) for pos in range(order.rank)]


def _scalar_entry(levels, orders):
    """First (level, row, col), row-major from level 2 on, of a scalar of G^L, or None.

    ``levels`` are G^H packed over T or G^L packed over S.  Either way
    entry (i, j) of G_k^L is a nonzero scalar exactly when entry (i, j)
    of level k has a term of degree 0, the packed unit at position i.
    """
    for k in range(1, len(levels)):
        for i, unit in enumerate(_units(orders[k])):
            for j, flat in enumerate(levels[k]):
                if unit in flat:
                    return (k + 1, i, j)
    return None


def check_reduced(cx: PolyComplex) -> bool:
    """Column reducedness: the leading part complex is a resolution.

    By the paper's main theorem a complex whose G^L is a resolution is
    itself one, so this is also the predictable degree property.  G^L is
    graded, so its exactness is proved by Hilbert series (``_exact``),
    with the leads of one untracked Groebner basis per level of G^L
    packed over S (``_leading_part``).
    """
    levels, orders = _leading_part(cx)
    return _exact(([(it.pos, it.exps) for it in _buchberger(cols, order).items]
                   for cols, order in zip(levels, orders)), orders)


def pd_failure_witness(cx: PolyComplex):
    """A degree-dropping element when level 1 breaks reducedness.

    Any nonzero homogeneous kernel element y of G_1^L has twisted degree
    strictly above deg(G_1 @ y), so it certifies the failure: here the
    syzygy of G_1^L with the smallest lead, from its own tracked
    completion over S (``_syzygies_flat``).  Returns None when G_1^L has
    no kernel (the failure, if any, sits deeper).
    """
    levels, orders = _leading_part(cx)
    syz, _ = _syzygies_flat(levels[0], orders[0], orders[1])
    return _from_flat(orders[1], syz[0]) if syz else None


def minimality_witness(cx: PolyComplex):
    """First (level, row, col), row-major, of a scalar entry in G_2^L.., or None."""
    return _scalar_entry(*_leading_part(cx))


def check_minimal(cx: PolyComplex) -> bool:
    """Minimality test for reduced resolutions.

    Requires the complex to be column reduced, hence a resolution by the
    paper's main theorem (``check_reduced``).  Then a length-1 complex is
    always minimal, and otherwise minimality holds exactly when no entry
    of G_2^L, ..., G_l^L is a nonzero scalar.
    """
    if not check_reduced(cx):
        raise PreconditionError("check_minimal needs a column reduced resolution")
    return minimality_witness(cx) is None


# -- reports and construction ----------------------------------------------

@dataclass(frozen=True)
class ResolutionReport:
    """A minimal reduced resolution and its degree table.

    Only ``_report`` builds one, after proving the complex a minimal
    reduced resolution, so it carries no verdicts.  The table is the
    code's invariant; ``convres.invariants`` reads the rest off it.
    """

    complex: PolyComplex
    degree_table: DegreeTable


def _completion_over_s(code: CodePresentation, twist: tuple):
    """One untracked completion of the code's columns over S under the
    degree-compatible order with ``twist`` (``_buchberger``): its items,
    a Groebner basis of the code, and that order."""
    order = ModuleOrder(code.ring, twist)
    return _buchberger([_to_flat(g, order) for g in code.generators.columns()], order).items, order


def _lifted_code(code: CodePresentation, order: ModuleOrder) -> list:
    """Homogeneous generators of the code lifted to its graded companion.

    They are the reduced basis of the code from ``_completion_over_s``
    with ``order``'s twist, each element homogenized in its own degree
    and packed by ``order`` over T (``_lift_flat``); no term is unpacked
    on the way.
    """
    items, s_order = _completion_over_s(code, order.twist)
    return [_lift_flat(it.flat, s_order, order) for it in _interreduce(items, s_order)]


def code_hilbert_values(code: CodePresentation, d_max: int) -> list:
    """F(d) = dim C_{<=d} for d = 0..d_max from the leads of one
    completion over S at zero twist (``_completion_over_s``, which
    ``minimal_resolution`` starts from too); no resolution is built.

    Under a degree-compatible order the codewords of degree <= d and the
    monomial vectors of degree <= d in the lead-term module are equally
    many (Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*,
    Ch. 9 Sec. 3, Prop. 4, whose proof holds for submodules).  With N the
    numerator of the leads over (1 - t)^n (``_lead_numerator``),
    F(d) = sum_j N_j C(d - j + n, n).
    """
    items, order = _completion_over_s(code, (0,) * code.q)
    n = code.ring.n
    numerator = _lead_numerator(((it.pos, it.exps) for it in items), order.twist, n)
    return [sum(c * comb(d - j + n, n) for j, c in numerator.items() if j <= d)
            for d in range(d_max + 1)]


def _syzygy_chain(gens, order: ModuleOrder, max_levels: int):
    """Iterated minimal syzygies over T of homogeneous packed columns.

    ``gens`` are packed by ``order``, whose twist is their row twist.
    Each level is one tracked completion (``_minimal_level``): it keeps
    minimal homogeneous generators of the span of its candidates, as
    their normal forms, and gives their syzygies, the candidates of the
    next level.  Level k stays packed by ``orders[k - 1]``: the order
    its candidates were produced in and the one the next level reads
    them in.  Returns the levels, the orders (``orders[0]`` is ``order``
    and ``orders[k]`` is twisted by the column degrees of
    ``levels[k - 1]``) and the leads: ``leads[k - 1]`` lists as
    (position, exponents over S) the D0-free leads of the Groebner basis
    of the span of level k that its run completed, which generate the
    lead-term module of im G_k^L (see ``ModuleOrder``).
    """
    levels, orders, leads = [], [order], []
    for _ in range(max_levels):
        cols, order, gens, items = _minimal_level(gens, order)
        levels.append(cols)
        orders.append(order)
        leads.append([(it.pos, it.exps[1:]) for it in items if not it.exps[0]])
        if not gens:
            return levels, orders, leads
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
    * Exactness of G^L (``_exact``) from the chain's D0-free ``leads``;
      no Groebner basis is computed again.  By the paper's main theorem
      a complex whose G^L is a resolution is itself one, so G is not
      checked again.
    * Minimality: no scalar entry in G_2^L.. (``_scalar_entry``).

    A failed check raises ``InvariantError``, so a report is only ever
    made for a minimal reduced resolution.  Then each level becomes a
    ``Poly`` matrix over ``ring`` (``_complex``).
    """
    for k in range(1, len(levels)):
        # Each row of level k + 1 by its position digit: its packed unit
        # and the column of level k that a term there multiplies.
        rows = {unit & _MASK: (unit, col) for unit, col in zip(_units(orders[k]), levels[k - 1])}
        for flat in levels[k]:
            product: dict = {}
            for t, c in flat.items():
                unit, col = rows[t & _MASK]
                _addmul(product, col, c, t - unit, ring.p)
            if product:
                raise InvariantError(f"the constructed G_{k} G_{k + 1} is not zero")
    if not _exact(leads, orders):
        raise InvariantError("construction must yield a minimal reduced resolution, "
                             "but its leading part complex is not exact")
    if _scalar_entry(levels, orders) is not None:
        raise InvariantError("construction must yield a minimal reduced resolution")
    cx = _complex(levels, orders, ring)
    return ResolutionReport(cx, column_degree_table(cx))


def minimal_resolution(code: CodePresentation) -> ResolutionReport:
    """Minimal reduced polynomial resolution of a nontrivial code.

    Route: lift the code to its graded companion over T via a
    degree-compatible reduced basis homogenized element by element on
    packed terms (``_lifted_code``), then, level by level on packed
    columns, one tracked completion picks minimal homogeneous generators
    of the candidates and gives their syzygies, the candidates of the
    next level (``_syzygy_chain``); finally set D0 = 1.  Minimal
    generators at every level make the graded resolution minimal, so no
    pivoting is needed afterwards.  The length is checked to be at most
    n and the degree table to equal the graded twists carried through
    the construction.  On the packed levels (``_report``) the products
    are checked to vanish over T, the leading part complex to be a
    resolution, by Hilbert series of the leads the chain's own runs
    left, and to have no scalar entry past level 1.  By the
    paper's main theorem that makes the result a resolution too, so it
    is not checked separately.  A failed check raises
    ``InvariantError``; a returned report is a minimal reduced
    resolution, with no verdict left to read.
    """
    order = ModuleOrder(code.ring.homogeneous_companion(), (0,) * code.q)
    levels, orders, leads = _syzygy_chain(_lifted_code(code, order), order, code.ring.n + 2)
    if not 1 <= len(levels) <= code.ring.n:
        raise InvariantError(f"homological dimension {len(levels)} outside 1..{code.ring.n}")
    report = _report(levels, orders, leads, code.ring)
    if report.degree_table != tuple(order.twist for order in orders[1:]):
        raise InvariantError("degree table drifted from the graded twists")
    return report

