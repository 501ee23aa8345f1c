"""The oracle's incremental echelon against the from-scratch route.

* Dimensions, caps and bases equal the per-cap from-scratch reference
  in ``helpers`` under the same stop rule (hypothesis and the acceptance
  corpus), also at p = 2^31 - 1, where a plain int64 product overflows.
* The count never falls as the cap rises and never exceeds the Hilbert
  value; the Hilbert formula on the minimal resolution equals the
  oracle, and a planted wrong target is refuted or refused.
* The vectorized shift rows equal the former per-term loop.
* One ``oracle-verify`` keys its shifts in at most two passes, reduces
  the blocks that cap-by-cap growth reduces, and takes the second
  product only for a pivot on a column that was free before its block.
* Oversized oracle input raises ``InputError`` before allocating, and
  the CLI exits 2 under a memory limit.
"""

import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from itertools import product
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from convres import CodePresentation, Poly, PolyMatrix, Ring, validate_complex
from convres.cli import main
from convres.complexes import minimal_resolution
from convres.errors import InputError
from convres.invariants import hilbert_formula
from convres import oracle
from convres.oracle import (
    hilbert_oracle,
    nullspace_mod_p,
    truncated_code_space,
    truncated_exactness,
    truncated_kernel,
)

from helpers import (
    acceptance_corpus,
    as_rows,
    code,
    codes,
    engine_hilbert,
    generator_term_lists,
    reference_code_space,
    reference_shift_rows,
    reference_slice,
    reference_slice_terms,
    span_rref,
)

checked = settings(derandomize=True, deadline=None, max_examples=40)
BIG_P = 2**31 - 1


def degrees(c):
    return range(3 if c.ring.n < 3 else 2)


def assert_matches_reference(c, d, cap=None):
    space = truncated_code_space(c, d, cap)
    dimension, cap_used, basis = reference_code_space(c, d, cap)
    assert (space.dimension, space.cap_used) == (dimension, cap_used)
    # The oracle's basis is in RREF in slice-key order, the reference's in
    # its own order; RREF is unique for a fixed column order.
    p, q = c.ring.p, c.q
    keyed = as_rows(space.basis, oracle._slice(c.ring.n, (0,) * q, d)[0])
    assert np.array_equal(oracle.rref_mod_p(keyed, p)[0], keyed)
    terms = reference_slice_terms(c.ring.n, (0,) * q, d)
    assert len(space.basis) == len(basis)
    assert np.array_equal(span_rref(space.basis, terms, p), as_rows(basis, terms))
    if cap is None:
        assert hilbert_oracle(c, d) == dimension


@checked
@given(codes())
def test_oracle_matches_the_from_scratch_reference(c):
    for d in degrees(c):
        for cap in (None, d, d + 1, d + 3):
            assert_matches_reference(c, d, cap)


def test_oracle_matches_the_from_scratch_reference_on_the_acceptance_corpus():
    for c in acceptance_corpus():
        for d in degrees(c):
            assert_matches_reference(c, d)


def dense_code(rng, p, n, q, t):
    """Every entry has every monomial of degree <= 2, so products of a
    shift row and the echelon have many terms of size about p^2."""
    ring = Ring(p, n)
    monos = [e for e in product(range(3), repeat=n) if sum(e) <= 2]
    rows = [[Poly.from_dict(ring, {e: rng.randrange(1, p) for e in monos})
             for _ in range(t)] for _ in range(q)]
    return CodePresentation(ring, PolyMatrix.from_rows(ring, rows))


def test_incremental_dims_equal_from_scratch_counts_at_a_large_prime():
    rng = random.Random(2147)
    for n, q, t in ((1, 2, 3), (2, 1, 2), (2, 2, 3), (2, 3, 2)):
        c = dense_code(rng, BIG_P, n, q, t)
        echelon = oracle._CodeEchelon(c)
        for cap in range(8):
            for d in range(cap + 1):
                assert echelon.dim(cap, d) == len(reference_slice(c, d, cap))


def test_an_interrupted_block_leaves_no_partial_echelon(monkeypatch):
    c = dense_code(random.Random(11), 101, 2, 2, 3)
    echelon = oracle._CodeEchelon(c)
    assert echelon.dim(3, 3) == len(reference_slice(c, 3, 3))

    def interrupted(mat, p):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "rref_mod_p", interrupted)
        with pytest.raises(KeyboardInterrupt):
            echelon.dim(6, 6)
    for cap in range(7):
        assert echelon.dim(cap, cap) == len(reference_slice(c, cap, cap))


def test_threads_sharing_one_echelon_get_the_sequential_counts():
    c = dense_code(random.Random(5), 101, 2, 2, 3)
    queries = [(cap, d) for cap in range(9) for d in range(cap + 1)]
    sequential = oracle._CodeEchelon(c)
    want = [sequential.dim(cap, d) for cap, d in queries]
    shared = oracle._CodeEchelon(c)
    got = {}

    def ask(i):
        order = queries[i % 3::3] + queries[:i % 3]
        got[i] = {q: shared.dim(*q) for q in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for i in range(6):
        assert [got[i][q] for q in queries[i % 3::3] + queries[:i % 3]] == [
            want[queries.index(q)] for q in queries[i % 3::3] + queries[:i % 3]]


class WorkSpy:
    """Counts the oracle's keying passes, ``rref_mod_p`` shapes and, per
    block, products beyond the first and pivots on formerly free columns."""

    def __init__(self, patch):
        self.passes, self.shapes, self.products, self.blocks = 0, [], 0, []
        keys, rref, matmul = oracle._shift_keys, oracle.rref_mod_p, oracle._matmul_mod
        add_block = oracle._CodeEchelon._add_block

        def shift_keys(*args):
            self.passes += 1
            return keys(*args)

        def rref_mod_p(mat, p):
            self.shapes.append(mat.shape)
            return rref(mat, p)

        def matmul_mod(*args):
            self.products += 1
            return matmul(*args)

        def spied_block(echelon, c, keyed):
            before, rank, products = set(echelon.free.tolist()), len(echelon.pivots), self.products
            add_block(echelon, c, keyed)
            moved = any(k in before for k in echelon.pivots[rank:].tolist())
            self.blocks.append((self.products - products - (keyed[0] > 0), moved))

        patch.setattr(oracle, "_shift_keys", shift_keys)
        patch.setattr(oracle, "rref_mod_p", rref_mod_p)
        patch.setattr(oracle, "_matmul_mod", matmul_mod)
        patch.setattr(oracle._CodeEchelon, "_add_block", spied_block)


@pytest.mark.parametrize("dense", [True, False])
def test_oracle_verify_keys_once_and_skips_the_zero_second_product(tmp_path, capsys, dense):
    c = (dense_code(random.Random(8), 101, 2, 2, 3) if dense
         else code(Ring(101, 2), [["54*D1 + 86", "43*D1*D2"]]))
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"p": 101, "n": 2, "kind": "code",
                                "matrix": c.generators.to_strings()}))
    oracle._echelon.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        spy = WorkSpy(patch)
        assert main(["oracle-verify", str(path), "--max-d", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["all"] is True
    cap = len(spy.blocks) - 1
    with pytest.MonkeyPatch.context() as patch:
        by_cap = WorkSpy(patch)
        echelon = oracle._CodeEchelon(c)
        for k in range(cap + 1):
            echelon.dim(k, k)
    assert spy.passes <= 2 and by_cap.passes == cap + 1
    assert spy.shapes == by_cap.shapes
    # A second product exactly where a new pivot took a formerly free column.
    assert [second for second, _ in spy.blocks] == [int(moved) for _, moved in spy.blocks]
    assert spy.blocks == by_cap.blocks
    # A generic dense code puts every pivot on its block's fresh columns.
    assert any(moved for _, moved in spy.blocks) != dense


def test_matmul_mod_is_exact_below_2_31():
    rng = np.random.default_rng(31)
    for p, inner in ((BIG_P, 70), (BIG_P, 2**15 + 3), (101, 40), (2, 9)):
        a = rng.integers(0, p, size=(3, inner), dtype=np.int64)
        b = rng.integers(0, p, size=(inner, 4), dtype=np.int64)
        want = [[sum(int(x) * int(y) for x, y in zip(a[i], b[:, j])) % p
                 for j in range(4)] for i in range(3)]
        assert oracle._matmul_mod(a, b, p).tolist() == want


@checked
@given(codes())
def test_hilbert_formula_of_the_minimal_resolution_equals_the_oracle(c):
    report = minimal_resolution(c)
    for d in range(5 if c.ring.n < 3 else 3):
        assert hilbert_formula(report.degree_table, c.ring.n, d) == hilbert_oracle(c, d)


@checked
@given(codes())
def test_the_count_rises_with_the_cap_and_stays_below_the_hilbert_value(c):
    echelon = oracle._CodeEchelon(c)
    n = c.ring.n
    for d in degrees(c):
        bound = min(engine_hilbert(c, d), c.q * comb(d + n, n))
        counts = [echelon.dim(cap, d) for cap in range(d, d + 5)]
        assert counts == sorted(counts)
        assert counts[-1] <= bound


def plant(monkeypatch, shift):
    """Make the oracle's target the engine's F(d) plus ``shift``."""
    target = oracle._target
    monkeypatch.setattr(oracle, "_target", lambda c, d: target(c, d) + shift)


def test_a_target_below_the_truth_is_refuted(monkeypatch):
    plant(monkeypatch, -1)
    c = code(Ring(2, 2), [["D1", "D2"]])
    for d in range(1, 4):
        truth = engine_hilbert(c, d)
        assert oracle._CodeEchelon(c).dim(d, d) == truth
        assert hilbert_oracle(c, d) == truth
    # Over F_2[D1], D(1, 1) = 0 meets the planted target 0; the truth
    # D1 = g1 - g2 is spanned only from cap 2 on, within the margin.
    c = code(Ring(2, 1), [["D1^2 + D1", "D1^2"]])
    assert engine_hilbert(c, 1) == 1 and oracle._CodeEchelon(c).dim(1, 1) == 0
    assert hilbert_oracle(c, 1) == 1
    assert truncated_code_space(c, 1).dimension == 1


def test_a_target_above_the_truth_raises_instead_of_agreeing(monkeypatch):
    plant(monkeypatch, 1)
    # Repeated generators make the shift count, and with it the cells,
    # grow faster than the rank, so the ceiling comes at a small cap.
    with pytest.raises(InputError):
        hilbert_oracle(code(Ring(2, 2), [["D1"] * 8 + ["D2^2"]]), 2)
    # One generator in one variable climbs to the ceiling at cap 4095,
    # one block of one row per cap.
    c = code(Ring(2, 1), [["D1"]])
    start = time.perf_counter()
    with pytest.raises(InputError, match="limit"):
        hilbert_oracle(c, 2)
    assert oracle._echelon(c).cap == 4095
    assert time.perf_counter() - start < 60


def test_a_target_above_the_monomial_count_is_refused_at_once(monkeypatch):
    plant(monkeypatch, 1)
    c = code(Ring(2, 1), [["1"]])
    assert engine_hilbert(c, 2) == 3
    with pytest.raises(InputError, match="exceeds the 3 monomial vectors"):
        hilbert_oracle(c, 2)
    assert oracle._echelon(c).cap == -1


def test_vectorized_shift_rows_equal_the_loop_reference():
    rng = random.Random(13)
    cases = [dense_code(rng, p, n, q, t)
             for p in (2, 101, BIG_P) for n, q, t in ((1, 2, 3), (2, 2, 2), (3, 1, 2))]
    cases += [c for c in acceptance_corpus() if c.ring.n <= 3]
    for c in cases:
        n, q = c.ring.n, c.q
        for lo, hi in ((0, 4), (2, 2), (3, 5), (6, 5)):
            terms = oracle._slice(n, (0,) * q, hi)[0]
            order = list(range(len(terms)))
            rng.shuffle(order)
            keys = oracle._keys(np.array([pos for pos, _ in terms]),
                                np.array([e for _, e in terms]).reshape(len(terms), n), q)
            column = np.zeros(len(terms), dtype=np.int64)
            column[keys] = order
            gens = oracle._generator_terms(c.generators.columns(),
                                           c.generators.column_degrees())
            got = oracle._shift_rows(gens, q, lo, hi, column, len(terms))
            want = reference_shift_rows(generator_term_lists(c), n, lo, hi,
                                        dict(zip(terms, order)), len(terms))
            assert got.shape == want.shape and np.array_equal(got, want)


def reference_nullspace(mat, p):
    """The former loop form of ``nullspace_mod_p``."""
    rref, pivots = oracle.rref_mod_p(mat, p)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for idx, c in enumerate(free):
        basis[idx, c] = 1
        for r, pc in enumerate(pivots):
            basis[idx, pc] = (-rref[r, c]) % p
    return basis


def test_nullspace_equals_the_loop_reference():
    rng = np.random.default_rng(7)
    for p in (2, 3, 101, BIG_P):
        for shape in ((1, 1), (3, 5), (5, 3), (4, 7), (0, 3)):
            mat = rng.integers(0, min(p, 4), size=shape, dtype=np.int64)
            assert np.array_equal(nullspace_mod_p(mat, p), reference_nullspace(mat, p))


def test_oversized_slices_raise_input_error():
    huge = code(Ring(2, 2), [["D1^2147483648"]])
    with pytest.raises(InputError):
        hilbert_oracle(huge, 0)
    with pytest.raises(InputError):
        truncated_code_space(huge, 0)
    ring = Ring(2, 3)
    free = code(ring, [["1"]])
    with pytest.raises(InputError):
        truncated_kernel(free.generators, (0,), (0,), 10**4)
    with pytest.raises(InputError):
        truncated_exactness(validate_complex([free.generators]), 10**4)
    side = 2**12
    assert side * side == oracle.MAX_CELLS
    oracle._check_cells(side, side)
    oracle._check_cells(0, side * side)
    with pytest.raises(InputError):
        oracle._check_cells(side, side + 1)
    with pytest.raises(InputError):
        oracle._check_cells(0, side * side + 1)


def test_oversized_oracle_input_exits_2_under_a_memory_limit(tmp_path):
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({"p": 2, "n": 2, "kind": "code",
                               "matrix": [["D1^2147483648"]]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "convres.cli", "hilbert", str(doc), "--max-d", "2", "--oracle"],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "limit" in proc.stderr
