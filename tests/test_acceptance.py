"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All randomness is seeded, so the suite is
deterministic.
"""

import random
import time
from contextlib import contextmanager

from convres import PolyMatrix, Ring
from convres.algebra import CodePresentation
from convres.complexes import (
    check_minimal,
    check_reduced,
    check_resolution,
    column_degree_table,
    minimal_resolution,
    minimality_witness,
    validate_complex,
)
from convres.groebner import ModuleOrder, _buchberger, _reduce_flat
from convres.invariants import forney_table, hilbert_formula, memory, rate
from convres.observability import is_observable, prop3_spot_check
from convres.oracle import hilbert_oracle, truncated_exactness

from helpers import (
    P,
    code,
    koszul_code,
    mat,
    pack,
    paper_matrix,
    random_code,
    random_complex,
    random_poly,
    reference_groebner_basis,
    reference_matrix_kernel,
    reference_memory_recovery_check,
    reference_prop3_spot_check,
    resolution_without_minimalization,
    scalar_value,
    unpacked_lift,
)

# (l, n) pairs of every resolution computed while the suite runs; the
# final criterion checks the syzygy bound over the whole corpus.
_LENGTH_LOG = []


def _resolve(c):
    rep = minimal_resolution(c)
    _LENGTH_LOG.append((rep.complex.length, c.ring.n))
    return rep


@contextmanager
def criterion(number, label, limit_seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} {label}: PASS in {elapsed:.3f}s (limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_1_paper_golden_matrix():
    with criterion(1, "golden degree table and leading parts", 0.1):
        cx = validate_complex([paper_matrix()])
        assert column_degree_table(cx) == ((4, 2),)
        lead = unpacked_lift(cx)[1]
        r = Ring(101, 1)
        assert lead[0] == mat(r, [["0", "D1^2"],
                                           ["0", "0"],
                                           ["3*D1^4", "D1^2"]])


def test_criterion_2_koszul_end_to_end():
    with criterion(2, "Koszul resolution and invariants", 1.0):
        rep = _resolve(koszul_code())
        assert rep.complex.length == 2
        assert rep.complex.q == 1 and rep.complex.sizes == (2, 1)
        assert forney_table(rep.degree_table) == ((1, 1), (2,))
        assert memory(rep.degree_table) == 1
        assert check_resolution(rep.complex) and check_reduced(rep.complex)
        assert check_minimal(rep.complex)


def test_criterion_3_hilbert_agreement():
    with criterion(3, "Hilbert formula equals oracle on the corpus", 60.0):
        rng = random.Random(101)
        corpus = [random_code(rng) for _ in range(12)]
        assert len(corpus) >= 10
        for c in corpus:
            rep = _resolve(c)
            for d in range(7):
                assert hilbert_formula(rep.degree_table, c.ring.n, d) == \
                    hilbert_oracle(c, d)
        rep = _resolve(koszul_code())
        values = [hilbert_formula(rep.degree_table, 2, d) for d in range(5)]
        assert values == [0, 2, 5, 9, 14]
        assert [hilbert_oracle(koszul_code(), d) for d in range(5)] == values


def test_criterion_4_pd_equals_truncated_exactness():
    with criterion(4, "PD verdict matches filtered slices on 200 complexes", 300.0):
        rng = random.Random(2024)
        for _ in range(200):
            cx = random_complex(rng)
            verdict = check_reduced(cx)
            truncated = all(truncated_exactness(cx, d) for d in range(7))
            assert verdict == truncated
            if verdict or truncated:
                # exactness of the filtered slices forces module exactness
                assert check_resolution(cx)


def _invariants(rep):
    """Sizes, Forney table, memory, rate and length of a resolution."""
    table = rep.degree_table
    return rep.complex.sizes, forney_table(table), memory(table), rate(table), len(table)


def test_criterion_5_invariance_of_invariants():
    with criterion(5, "re-presented generators keep all invariants", 120.0):
        rng = random.Random(555)
        for _ in range(20):
            c = random_code(rng, n=rng.randint(1, 2))
            rep = _resolve(c)
            base = _invariants(rep)
            cols = c.generators.columns()
            rng.shuffle(cols)
            original = list(cols)
            appended = 0
            while appended < 3:
                coeffs = [random_poly(rng, c.ring, 1) for _ in original]
                combo = (PolyMatrix.from_columns(c.ring, c.q, original)
                         @ PolyMatrix.from_rows(c.ring, [[cf] for cf in coeffs])).column(0)
                if not all(f.is_zero for f in combo):
                    cols.append(combo)
                    appended += 1
            c2 = CodePresentation(c.ring, PolyMatrix.from_columns(c.ring, c.q, cols))
            rep2 = _resolve(c2)
            assert _invariants(rep2) == base


def test_criterion_6_minimality():
    with criterion(6, "outputs are minimal; injected redundancy is caught", 10.0):
        rng = random.Random(66)
        for c in [koszul_code(), code(Ring(2, 2), [["D1"], ["D2"]]),
                  random_code(rng, n=2), random_code(rng, n=1), random_code(rng, n=2)]:
            rep = _resolve(c)
            assert check_minimal(rep.complex)
        r = Ring(2, 2)
        raw = resolution_without_minimalization(
            koszul_code(), extra_generators=[(P("D1 + D2", r),)])
        assert raw.is_resolution and raw.is_reduced
        assert not check_minimal(raw.complex)
        witness = minimality_witness(raw.complex)
        assert witness is not None
        level, i, j = witness
        assert level >= 2
        lead = unpacked_lift(raw.complex)[1]
        assert scalar_value(lead[level - 1].entry(i, j))


def test_criterion_7_memory_recovery():
    with criterion(7, "memory slice regenerates the code, smaller does not", 60.0):
        rng = random.Random(77)
        cases = [koszul_code()] + [random_code(rng, n=rng.randint(1, 2))
                                   for _ in range(10)]
        for c in cases:
            m = memory(_resolve(c).degree_table)
            assert reference_memory_recovery_check(c, m, m + 3)
            assert not reference_memory_recovery_check(c, m - 1, m + 3)


def test_criterion_8_observability():
    with criterion(8, "observability decisions and univariate agreement", 120.0):
        rep = is_observable(koszul_code())
        assert not rep.observable
        w = rep.witness
        order = ModuleOrder(Ring(2, 2), (0,))
        basis = _buchberger(pack(koszul_code().generators.columns(), order), order).items
        assert _reduce_flat(pack([w.element], order)[0], basis, order)
        multiple = tuple(f * w.multiplier for f in w.element)
        assert not _reduce_flat(pack([multiple], order)[0], basis, order)

        r = Ring(2, 2)
        free = code(r, [["D1"], ["D2"]])
        rep2 = is_observable(free)
        assert rep2.observable
        order = ModuleOrder(r, (0, 0))
        kernel = reference_matrix_kernel(rep2.parity_check)
        assert (reference_groebner_basis(pack(kernel, order), order)
                == reference_groebner_basis(pack(free.generators.columns(), order), order))

        rng = random.Random(88)
        for _ in range(20):
            c = random_code(rng, p=rng.choice([2, 3, 5]), n=1)
            verdict = is_observable(c).observable
            resolution = _resolve(c)
            bound = max(int(f.degree) for row in c.generators.entries
                        for f in row if not f.is_zero) + 1
            assert prop3_spot_check(c, bound) == verdict
            assert reference_prop3_spot_check(resolution.complex, bound) == verdict


def test_criterion_9_syzygy_length_bound():
    with criterion(9, "homological dimension within 1..n over the corpus", 60.0):
        if len(_LENGTH_LOG) < 40:
            # standalone invocation: build a corpus of its own
            rng = random.Random(99)
            for _ in range(40):
                _resolve(random_code(rng))
        for l, n in _LENGTH_LOG:
            assert 1 <= l <= n, f"length {l} outside 1..{n}"
