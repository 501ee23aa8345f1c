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
resolution), the predictable degree property (both at once) and
minimality (no scalar survives in G_2^L..G_l^L).
``minimal_resolution`` constructs the minimal reduced resolution of a
code through the graded route and is the source of all invariants.  It
and ``resolution_without_minimalization`` share one report builder,
which builds G^L once for the reducedness and minimality checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    CodePresentation,
    Poly,
    PolyMatrix,
    twisted_degree,
    vec_is_zero,
)
from .errors import DomainError, InvariantError, PreconditionError, StructuralError
from .groebner import (
    ModuleOrder,
    SubmodulePresentation,
    groebner_basis,
    homogeneous_column_degree,
    minimal_generators,
    module_equal,
    syzygy_basis,
)

DegreeTable = tuple  # (a_1, ..., a_l), each a tuple[int, ...] of length p_i


class PolyComplex:
    """A validated chain (G_1, ..., G_l); build via ``validate_complex``."""

    __slots__ = ("ring", "matrices", "q", "sizes")

    def __init__(self, ring, matrices, q, sizes):
        self.ring = ring
        self.matrices = matrices
        self.q = q
        self.sizes = sizes  # (p_1, ..., p_l)

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


def _lift_by_table(cx: PolyComplex, ring, lift) -> PolyComplex:
    """Apply ``lift(entry, a_k(j) - a_{k-1}(i))`` to every entry of G_k.

    The degree table recursion makes a_k(j) - a_{k-1}(i) an upper bound
    for the degree of entry (i, j) of G_k; the lifted matrices live over
    ``ring`` and are validated as a complex.
    """
    table = ((0,) * cx.q,) + column_degree_table(cx)
    mats = []
    for k, mat in enumerate(cx.matrices):
        rows = [[lift(mat.entry(i, j), table[k + 1][j] - table[k][i])
                 for j in range(mat.ncols)] for i in range(mat.nrows)]
        mats.append(PolyMatrix.from_rows(ring, rows))
    return validate_complex(mats)


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


def check_reduced(cx: PolyComplex) -> bool:
    """Column reducedness: the leading part complex is a resolution."""
    return check_resolution(leading_term_complex(cx))


def check_pd(cx: PolyComplex) -> bool:
    """Predictable degree property: resolution and reduced at once."""
    return check_resolution(cx) and check_reduced(cx)


def pd_failure_witness(cx: PolyComplex):
    """A degree-dropping element when level 1 breaks reducedness.

    Any nonzero homogeneous kernel element y of G_1^L has twisted degree
    strictly above deg(G_1 @ y), so it certifies the failure.  Returns
    None when level 1 of the leading part complex has no kernel (the
    failure, if any, sits deeper).
    """
    lead = leading_term_complex(cx)
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


def minimality_witness(cx: PolyComplex):
    """First (level, row, col) of a scalar entry in G_2^L.., or None."""
    scalars = _scalar_positions(leading_term_complex(cx))
    return scalars[0] if scalars else None


def check_minimal(cx: PolyComplex) -> bool:
    """Minimality test for reduced resolutions.

    Requires the complex to be a reduced resolution; then a length-1
    complex is always minimal, and otherwise minimality holds exactly
    when no entry of G_2^L, ..., G_l^L is a nonzero scalar.
    """
    if not check_resolution(cx):
        raise PreconditionError("check_minimal needs a polynomial resolution")
    lead = leading_term_complex(cx)
    if not check_resolution(lead):
        raise PreconditionError("check_minimal needs a column reduced complex")
    return not _scalar_positions(lead)


# -- reports and construction ----------------------------------------------

@dataclass(frozen=True)
class ResolutionReport:
    complex: PolyComplex
    degree_table: DegreeTable
    is_resolution: bool
    is_reduced: bool
    is_minimal: bool

    @property
    def is_pd(self) -> bool:
        return self.is_resolution and self.is_reduced


def _graded_column_degrees(mat: PolyMatrix, row_twist) -> tuple[int, ...]:
    return tuple(homogeneous_column_degree(mat.column(j), row_twist)
                 for j in range(mat.ncols))


def _graded_pipeline(code: CodePresentation):
    """Steps shared by minimal and deliberately non-minimal construction.

    Returns the homogeneous generators of the lifted code: the reduced
    basis of the code under the degree-compatible order, each element
    homogenized in its own degree.
    """
    order = ModuleOrder(code.ring, (0,) * code.q)
    basis = groebner_basis(SubmodulePresentation.from_matrix(code.generators), order)
    lifted = []
    for g in basis.elements:
        d = twisted_degree(g, (0,) * code.q)
        lifted.append(tuple(f.homogenize(d) for f in g))
    return lifted


def _syzygy_chain(g1: PolyMatrix, max_levels: int, prune: bool):
    """Iterated syzygies over T of the homogeneous matrix ``g1``.

    With ``prune`` every syzygy module is cut down to minimal homogeneous
    generators before the next level is taken.  Returns the matrices and
    their twists: ``twists[0]`` is the zero ambient twist and
    ``twists[k]`` the column twist of ``mats[k - 1]``.
    """
    zero = (0,) * g1.nrows
    mats, twists = [g1], [zero, _graded_column_degrees(g1, zero)]
    for _ in range(max_levels):
        syz = syzygy_basis(mats[-1], row_twist=twists[-2])
        if syz.ncols == 0:
            return mats, twists
        if prune:
            syz = minimal_generators(SubmodulePresentation.from_matrix(syz, twists[-1]))
        mats.append(syz)
        twists.append(_graded_column_degrees(syz, twists[-1]))
    raise InvariantError(f"syzygy chain did not end within {max_levels} levels")


def _report(mats, ring) -> ResolutionReport:
    """Set D0 = 1 in the graded matrices and check the complex over ``ring``.

    The leading part complex is built once and serves both the
    reducedness check and the scan for scalar entries.
    """
    cx = validate_complex([m.map_entries(lambda f: f.dehomogenize(), ring) for m in mats])
    lead = leading_term_complex(cx)
    is_resolution = check_resolution(cx)
    is_reduced = check_resolution(lead)
    is_minimal = is_resolution and is_reduced and not _scalar_positions(lead)
    return ResolutionReport(cx, column_degree_table(cx), is_resolution, is_reduced,
                            is_minimal)


def minimal_resolution(code: CodePresentation) -> ResolutionReport:
    """Minimal reduced polynomial resolution of a nontrivial code.

    Route: lift the code to its graded companion over T via a
    degree-compatible reduced basis homogenized element by element,
    extract minimal homogeneous generators, then repeatedly take the
    syzygies of the last matrix and prune them to minimal homogeneous
    generators (``minimal_generators``) before going one level deeper;
    finally set D0 = 1.  Minimal generators at every level make the
    graded resolution minimal, so no pivoting is needed afterwards.  The
    length is checked to be at most n, the degree table to equal the
    graded twists carried through the construction, and the result to be
    a resolution whose leading part complex (built once) is a resolution
    without scalar entries past level 1.  A failed check raises
    ``InvariantError``.
    """
    if code.generators.is_zero:
        raise DomainError("the zero code has no resolution")
    tring = code.ring.homogeneous_companion()
    lifted = _graded_pipeline(code)
    pres = SubmodulePresentation(tring, code.q, tuple(lifted))
    mats, twists = _syzygy_chain(minimal_generators(pres), code.ring.n + 2, prune=True)
    if not 1 <= len(mats) <= code.ring.n:
        raise InvariantError(f"homological dimension {len(mats)} outside 1..{code.ring.n}")
    report = _report(mats, code.ring)
    if report.degree_table != tuple(twists[1:]):
        raise InvariantError("degree table drifted from the graded twists")
    if not report.is_minimal:
        raise InvariantError("construction must yield a minimal reduced resolution")
    return report


def resolution_without_minimalization(code: CodePresentation,
                                      extra_generators=None) -> ResolutionReport:
    """Iterated syzygies with no pruning; generally reduced but not minimal.

    ``extra_generators`` (columns over S) are appended to the lifted
    generating set after homogenizing each in its own degree, which is
    how redundancy is injected on purpose in tests.
    """
    if code.generators.is_zero:
        raise DomainError("the zero code has no resolution")
    tring = code.ring.homogeneous_companion()
    lifted = _graded_pipeline(code)
    if extra_generators:
        for g in extra_generators:
            d = twisted_degree(g, (0,) * code.q)
            lifted.append(tuple(f.homogenize(d) for f in g))
    g1 = PolyMatrix.from_columns(tring, code.q, lifted)
    mats, _ = _syzygy_chain(g1, code.ring.n + 1 + g1.ncols, prune=False)
    return _report(mats, code.ring)


# -- graded minimalization ---------------------------------------------------

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
        twists.append(_graded_column_degrees(mat, twists[-1]))
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
    tw = [list(t) for t in twists]

    def find_pivot():
        for k in range(1, len(grids)):  # levels 2.. in 1-based numbering
            grid = grids[k]
            for i in range(len(grid)):
                for j in range(len(grid[0]) if grid else 0):
                    if grid[i][j].is_nonzero_scalar:
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
        cval = grid[i][j].constant_value()
        if cval != 1:
            inv = pow(cval, ring.p - 2, ring.p)
            for r in range(nrows):
                grid[r][j] = grid[r][j].scale(inv)
            if k + 1 < len(grids):
                nxt = grids[k + 1]
                nxt[j] = [f.scale(cval) for f in nxt[j]]
        # Clear row i by column operations; mirror on the next matrix's rows.
        for jj in range(ncols):
            if jj == j or grid[i][jj].is_zero:
                continue
            h = grid[i][jj]
            for r in range(nrows):
                grid[r][jj] = grid[r][jj] - h * grid[r][j]
            if k + 1 < len(grids):
                nxt = grids[k + 1]
                nxt[j] = [a + h * b for a, b in zip(nxt[j], nxt[jj])]
        # Clear column j by row operations; mirror on the previous matrix's columns.
        prev = grids[k - 1]
        for ii in range(nrows):
            if ii == i or grid[ii][j].is_zero:
                continue
            h = grid[ii][j]
            for c in range(ncols):
                grid[ii][c] = grid[ii][c] - h * grid[i][c]
            for row in prev:
                row[i] = row[i] + h * row[ii]
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
