"""Minimal syzygies at every level of ``minimal_resolution``.

* ``_minimal_level``, which picks the generators within the tracked
  completion that gives their syzygies, keeps the monic normal forms of
  the generators of the greedy membership pass, which stays here as the
  reference, and its syzygies span the kernel of what it kept.  The
  two-pass route's ``_minimal_flat`` (in ``tests/helpers.py``) keeps
  exactly the greedy pass's generators.
* Pruning each syzygy module inside the loop gives the Forney table of
  the older route: all Schreyer syzygies first, then graded pivoting
  with ``minimalize_graded``.
* The n = 3 canary, whose resolution did not finish in minutes before
  the pruning, resolves quickly and agrees with the oracle.
* The checks that guard the result raise ``InvariantError``.
"""

import random
import time

import pytest

from convres import Poly, Ring
from convres.algebra import CodePresentation
from convres.cli import main
from convres.complexes import (
    check_minimal,
    column_degree_table,
    minimal_resolution,
    validate_complex,
)
from convres import complexes
from convres.errors import InvariantError
from convres.groebner import ModuleOrder, _minimal_level, _monic, _reduce_flat
from convres.invariants import forney_table, hilbert_values
from convres.oracle import hilbert_oracle

from helpers import (
    CANARY_ROWS,
    P,
    _minimal_flat,
    acceptance_corpus,
    combine,
    homogeneous_column_degree,
    koszul_code,
    minimalize_graded,
    mul_monomial,
    pack,
    reduced_basis,
    reference_buchberger,
    reference_syzygy_basis,
    resolution_without_minimalization,
    unpack,
    unpacked_lift,
)


def kept_by_core(ring, gens, twist):
    """The packed core's minimal generators (``_minimal_level``) of ``Poly`` columns."""
    order = ModuleOrder(ring, twist)
    return unpack(_minimal_level(pack(gens, order), order)[0], order)


def greedy_minimal_generators(ring, gens, twist):
    """The former ``minimal_generators``: one membership test per generator,
    against a criteria-free completion of those kept so far."""
    order = ModuleOrder(ring, twist)
    degrees = [homogeneous_column_degree(g, twist) for g in gens]
    kept = []
    for k in sorted(range(len(degrees)), key=lambda k: (degrees[k], k)):
        flat = pack([gens[k]], order)[0]
        if kept and not _reduce_flat(flat, reference_buchberger(pack(kept, order), order),
                                     order):
            continue
        kept.append(gens[k])
    return kept


def greedy_normal_forms(ring, gens, twist):
    """The greedy pass's generators, each as its monic normal form against
    a criteria-free completion of those kept before it, packed."""
    order = ModuleOrder(ring, twist)
    packed = pack(greedy_minimal_generators(ring, gens, twist), order)
    return [_monic(_reduce_flat(g, reference_buchberger(packed[:i], order), order),
                   ring.p)[0] for i, g in enumerate(packed)]


# -- _minimal_level against the greedy reference ---------------------

def _monomial(rng, nvars, d):
    exps = [0] * nvars
    for _ in range(d):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def _homogeneous_element(rng, ring, twist, d):
    """A nonzero element of degree d for ``twist``; needs d >= min(twist)."""
    while True:
        elem = []
        for pos, a in enumerate(twist):
            if a > d or rng.random() < 0.3:
                elem.append(P("0", ring))
                continue
            coeffs = {}
            for _ in range(rng.randint(1, 3)):
                e = _monomial(rng, ring.nvars, d - a)
                coeffs[e] = coeffs.get(e, 0) + rng.randrange(1, ring.p)
            elem.append(Poly.from_dict(ring, coeffs))
        if any(not f.is_zero for f in elem):
            return tuple(elem)


def _planted_combination(rng, ring, gens, degrees, d):
    """sum c * m * g over generators of degree <= d, m a monomial of the gap."""
    out = None
    for g, dg in zip(gens, degrees):
        if dg > d or rng.random() < 0.4:
            continue
        m = _monomial(rng, ring.nvars, d - dg)
        term = tuple(mul_monomial(f, m, rng.randrange(1, ring.p)) for f in g)
        out = term if out is None else tuple(map(combine, out, term))
    if out is None or all(f.is_zero for f in out):
        return None
    return out


def _generator_corpus(rng):
    ring = Ring(rng.choice([2, 3, 101]), rng.randint(1, 2)).homogeneous_companion()
    rank = rng.randint(1, 3)
    twist = tuple(rng.randint(0, 2) for _ in range(rank))
    lo = min(twist)
    gens, degrees = [], []
    # Few distinct degrees, so degrees repeat.
    for _ in range(rng.randint(1, 5)):
        d = rng.randint(lo, lo + 2)
        gens.append(_homogeneous_element(rng, ring, twist, d))
        degrees.append(d)
    # Planted redundancy: scalar multiples, combinations in the same
    # degree and combinations reaching a higher degree.
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            k = rng.randrange(len(gens))
            planted = tuple(f * P(str(rng.randrange(1, ring.p)), ring) for f in gens[k])
            d = degrees[k]
        else:
            d = max(degrees) + (kind == 2) * rng.randint(1, 2)
            planted = _planted_combination(rng, ring, gens, degrees, d)
            if planted is None:
                continue
        at = rng.randrange(len(gens) + 1)
        gens.insert(at, planted)
        degrees.insert(at, d)
    return ring, gens, twist


def test_minimal_generators_equals_greedy_membership_pass():
    rng = random.Random(404)
    primes = set()
    pruned = 0
    for _ in range(80):
        ring, gens, twist = _generator_corpus(rng)
        primes.add(ring.p)
        order = ModuleOrder(ring, twist)
        new = kept_by_core(ring, gens, twist)
        assert new == unpack(greedy_normal_forms(ring, gens, twist), order), gens
        greedy = greedy_minimal_generators(ring, gens, twist)
        assert [gens[k] for k in _minimal_flat(pack(gens, order), order)] == greedy, gens
        pruned += len(gens) - len(new)
    assert primes == {2, 3, 101}
    assert pruned > 80  # the planted redundancy was found


def test_minimal_generators_with_an_explicit_twist():
    t = Ring(5, 2).homogeneous_companion()
    d1, d2 = Poly.from_dict(t, {(0, 1, 0): 1}), Poly.from_dict(t, {(0, 0, 1): 1})
    zero = P("0", t)
    gens = [(d1, zero), (zero, d2), (d1, d2), (d1 * d2, zero)]
    twist = (1, 1)
    order = ModuleOrder(t, twist)
    assert kept_by_core(t, gens, twist) == unpack(greedy_normal_forms(t, gens, twist), order)
    assert kept_by_core(t, gens, twist) == [gens[0], gens[1]]
    # A kept column is its normal form against those kept before it.
    assert kept_by_core(t, [gens[0], gens[2]], twist) == [gens[0], gens[1]]


def test_one_tracked_run_keeps_the_normal_forms_of_the_greedy_pass():
    rng = random.Random(405)
    for _ in range(60):
        ring, gens, twist = _generator_corpus(rng)
        order = ModuleOrder(ring, twist)
        kept, syz_order, syz, items = _minimal_level(pack(gens, order), order)
        greedy = greedy_minimal_generators(ring, gens, twist)
        assert kept == greedy_normal_forms(ring, gens, twist), gens
        assert syz_order.twist == tuple(homogeneous_column_degree(g, twist) for g in greedy)
        # A kept column's expression is its unit in the order of the syzygies.
        one = (0,) * ring.nvars
        for i, col in enumerate(kept):
            assert next(it.expr for it in items if it.flat == col) == {
                syz_order.pack((i, one)): 1}
        reference = reference_syzygy_basis(kept, order, syz_order)
        assert bool(syz) == bool(reference), gens
        if syz:
            assert reduced_basis(syz, syz_order) == reduced_basis(reference, syz_order), gens


# -- in-loop pruning against the pivoting route --------------------------

def test_forney_table_matches_the_pivoting_route():
    for c in acceptance_corpus():
        rep = minimal_resolution(c)
        raw = resolution_without_minimalization(c)
        pivoted = minimalize_graded(validate_complex(unpacked_lift(raw.complex)[0]))
        old = tuple(tuple(sorted(level)) for level in column_degree_table(pivoted))
        assert forney_table(rep.degree_table) == old, c.generators


# -- the n = 3 canary ------------------------------------------------------

def test_canary_resolves_quickly_and_agrees_with_the_oracle():
    c = CodePresentation.from_strings(p=101, n=3, rows=CANARY_ROWS)
    start = time.monotonic()
    rep = minimal_resolution(c)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"canary took {elapsed:.1f} s"
    assert rep.complex.sizes == (7, 8, 3)
    assert rep.degree_table == ((1, 2, 2, 2, 2, 2, 2), (3, 3, 3, 3, 4, 4, 4, 4), (5, 5, 5))
    assert check_minimal(rep.complex)
    assert hilbert_values(rep.degree_table, 3, 5) == [hilbert_oracle(c, d) for d in range(6)]


# -- result guards ---------------------------------------------------------

def test_failed_resolution_check_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(complexes, "_exact_by_numerators", lambda numerators, table: False)
    with pytest.raises(InvariantError, match="minimal reduced resolution"):
        minimal_resolution(koszul_code())


def test_failed_resolution_check_exits_2_without_a_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(complexes, "_exact_by_numerators", lambda numerators, table: False)
    path = tmp_path / "code.json"
    path.write_text('{"p": 2, "n": 2, "kind": "code", "matrix": [["D1", "D2"]]}')
    assert main(["resolve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "minimal reduced resolution" in err
