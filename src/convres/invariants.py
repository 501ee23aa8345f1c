"""Numeric invariants of a code read off its minimal reduced resolution."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import DegreeTable, ResolutionReport
from .errors import DomainError, InvariantError


def _binom_dim(d: int, n: int) -> int:
    """dim of the space of polynomials of degree <= d in n variables.

    C(d + n, n), with the value 0 for every d <= -1.  Arbitrary
    precision: Python integers throughout.
    """
    if d < 0:
        return 0
    return comb(d + n, n)


def hilbert_formula(table: DegreeTable, n: int, d: int) -> int:
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


@dataclass(frozen=True)
class ForneyTable:
    """Canonical degree table: every level sorted ascending, level 1 first."""

    levels: tuple

    def __post_init__(self):
        for level in self.levels:
            if tuple(sorted(level)) != level:
                raise InvariantError(f"Forney table level {level} is not sorted")


@dataclass(frozen=True)
class CodeInvariants:
    rate: tuple           # (p_l, ..., p_1)
    q: int
    memory: int
    homological_dimension: int


def forney_table(report: ResolutionReport) -> ForneyTable:
    """Sorted form of the degree table; unique for the code."""
    return ForneyTable(tuple(tuple(sorted(level)) for level in report.degree_table))


def memory(report: ResolutionReport) -> int:
    """Largest level-1 degree; the code is determined by that degree slice."""
    return max(report.degree_table[0])


def rate_and_dimension(report: ResolutionReport) -> CodeInvariants:
    """Rate tuple, memory and homological dimension, with the length bound."""
    cx = report.complex
    l = cx.length
    n = cx.ring.n
    if not (1 <= l <= n):
        raise DomainError(f"homological dimension {l} violates the bound 1 <= l <= {n}")
    return CodeInvariants(
        rate=tuple(reversed(cx.sizes)),
        q=cx.q,
        memory=memory(report),
        homological_dimension=l,
    )


def hilbert_values(report: ResolutionReport, d_max: int) -> dict:
    """hilbert_formula evaluated over 0..d_max as a dict."""
    n = report.complex.ring.n
    return {d: hilbert_formula(report.degree_table, n, d) for d in range(d_max + 1)}
