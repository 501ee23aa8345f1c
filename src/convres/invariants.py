"""Numeric invariants of a code, as functions of its degree table.

The minimal reduced resolution of a code is unique up to isomorphism,
so its degree table (a_1, ..., a_l), a tuple of levels with a tuple of
twisted column degrees each, is an invariant of the code, and so is
every function of it: the Forney table, memory, rate, length and
Hilbert function.  For n = 1 the level-1 degrees are Forney's indices
(Forney, "Minimal bases of rational vector spaces", SIAM J. Control 13,
1975).  The functions take the table alone and import nothing else of
the package.
"""

from __future__ import annotations

from math import comb


def _binom_dim(d: int, n: int) -> int:
    """dim of the space of polynomials of degree <= d in n variables.

    C(d + n, n), with the value 0 for every d <= -1.  Arbitrary
    precision: Python integers throughout.
    """
    if d < 0:
        return 0
    return comb(d + n, n)


def hilbert_formula(table: tuple, n: int, d: int) -> int:
    """Alternating binomial sum over the degree table.

    For a complex with the predictable degree property this equals the
    dimension of the space of codewords of degree <= d.
    """
    total = 0
    sign = 1
    for level in table:
        total += sign * sum(_binom_dim(d - a, n) for a in level)
        sign = -sign
    return total


def hilbert_values(table: tuple, n: int, d_max: int) -> list:
    """``hilbert_formula`` at d = 0..d_max."""
    return [hilbert_formula(table, n, d) for d in range(d_max + 1)]


def forney_table(table: tuple) -> tuple:
    """Every level sorted ascending, level 1 first; unique for the code."""
    return tuple(tuple(sorted(level)) for level in table)


def memory(table: tuple) -> int:
    """Largest level-1 degree; the code is determined by that degree slice."""
    return max(table[0])


def rate(table: tuple) -> tuple:
    """The level sizes (p_l, ..., p_1), last level first."""
    return tuple(len(level) for level in reversed(table))
