"""Exact multivariate polynomial arithmetic over prime fields.

Two rings appear throughout the package:

* ``S = F_p[D1..Dn]``, the base ring in which codes live, and
* ``T = F_p[D0, D1..Dn]``, its homogeneous companion with one extra
  variable ``D0`` used to pass between filtered and graded data.

Monomials are dense exponent vectors.  In ``S`` slot ``i`` holds the
exponent of ``D(i+1)``; in ``T`` slot 0 holds the exponent of ``D0``.
The monomial order is graded reverse lexicographic with
``D1 > D2 > ... > Dn`` and, in ``T``, ``D0`` smallest.  Making ``D0``
the least variable keeps leading monomials free of ``D0`` whenever the
monomial has any other variable, which is what the homogenization
machinery relies on.

All values are immutable; all operations are pure functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .errors import DomainError, PolyParseError, StructuralError

# Degree of the zero polynomial.  A genuine -infinity, never -1: the
# binomial conventions elsewhere need honest integer degrees.
NEG_INF = float("-inf")


@lru_cache(maxsize=64)
def is_prime(p: int) -> bool:
    """Trial division; cached, since ``cli.parse_input`` and every ``Ring``
    test the same p again."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Ring:
    """A polynomial ring F_p[D1..Dn] (or F_p[D0..Dn] when ``homog``)."""

    p: int
    n: int
    homog: bool = False

    def __post_init__(self):
        if not (2 <= self.p < 2**31 and is_prime(self.p)):
            raise DomainError(f"modulus must be a prime in [2, 2^31), got {self.p}")
        if self.n < 1:
            raise DomainError(f"need at least one variable, got n={self.n}")

    @property
    def nvars(self) -> int:
        return self.n + 1 if self.homog else self.n

    def var_name(self, slot: int) -> str:
        return f"D{slot}" if self.homog else f"D{slot + 1}"

    def var_slot(self, name: str) -> int:
        """Slot index of a variable name like ``D2``; raises on unknown names."""
        if not (len(name) > 1 and name[0] == "D" and name[1:].isdecimal()):
            raise DomainError(f"unknown variable {name!r}")
        k = _integer(name[1:])
        lo = 0 if self.homog else 1
        if not (lo <= k <= self.n):
            raise DomainError(f"variable {name!r} not in ring with n={self.n}"
                              + (" (D0 allowed)" if self.homog else ""))
        return k if self.homog else k - 1

    def mono_key(self, exps: tuple[int, ...]):
        """Sort key realizing grevlex; larger key = larger monomial."""
        arranged = exps[1:] + exps[:1] if self.homog else exps
        return (sum(exps), tuple(-e for e in reversed(arranged)))

    def homogeneous_companion(self) -> "Ring":
        if self.homog:
            raise StructuralError("ring already has the homogenizing variable")
        return Ring(self.p, self.n, homog=True)


def _check_same_ring(a: "Poly", b: "Poly"):
    if a.ring != b.ring:
        raise StructuralError(f"ring mismatch: {a.ring} vs {b.ring}")


def _add_product(acc: dict, f: "Poly", g: "Poly"):
    """acc += f * g, on a dict {exponents: coefficient} left unreduced mod p."""
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2


class Poly:
    """Immutable polynomial in canonical form.

    ``terms`` is a tuple of ``(exponents, coefficient)`` pairs with
    coefficients in ``[1, p)``, no duplicate monomials, sorted strictly
    decreasing in the ring's monomial order.  The empty tuple is the
    zero polynomial.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_dict(cls, ring: Ring, coeffs: dict) -> "Poly":
        p = ring.p
        nv = ring.nvars
        cleaned = {}
        for exps, c in coeffs.items():
            if len(exps) != nv:
                raise StructuralError(
                    f"exponent vector {exps} has length {len(exps)}, ring needs {nv}")
            c %= p
            if c:
                cleaned[tuple(exps)] = c
        ordered = tuple(sorted(cleaned.items(), key=lambda t: ring.mono_key(t[0]),
                               reverse=True))
        return cls(ring, ordered)

    # -- queries ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Total degree, NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e, _ in self.terms)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: "Poly") -> "Poly":
        _check_same_ring(self, other)
        acc: dict = {}
        _add_product(acc, self, other)
        return Poly.from_dict(self.ring, acc)

    # -- text ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = []
            if c != 1 or not any(e):
                factors.append(str(c))
            for slot, k in enumerate(e):
                if k == 0:
                    continue
                name = self.ring.var_name(slot)
                factors.append(name if k == 1 else f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


# -- polynomial text grammar ------------------------------------------
#
#   expr   := term (('+' | '-') term)*
#   term   := ['+' | '-'] factor ('*' factor)*
#   factor := INT | VAR ['^' INT]
#
# with VAR one of D0..Dn (D0 only over T) and INT a run of decimal
# digits.  Whitespace may separate tokens.  Coefficients are reduced
# modulo p while parsing.

_TOKEN = re.compile(r"(?P<INT>\d+)|(?P<VAR>D\d*)|(?P<OP>[-+*^])|(?P<BAD>\S)")


def _integer(digits: str) -> int:
    """The value of a run of decimal digits, or ``DomainError`` for one
    longer than ``int`` converts (``sys.get_int_max_str_digits``)."""
    try:
        return int(digits)
    except ValueError:
        raise DomainError(f"number with {len(digits)} digits is too long") from None


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse the documented polynomial grammar into canonical form.

    One pass of ``_TOKEN`` cuts the text into tokens, skipping
    whitespace; each term is then read as one coefficient and exponent
    vector into one dict.
    """
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    for kind, value, at in tokens:
        if kind == "BAD":
            raise PolyParseError(f"unexpected character {value!r}", at)
        if value == "D":
            raise PolyParseError("variable name needs an index", at)
    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    tokens.append((None, None, len(text)))
    acc: dict = {}
    i = 0
    while True:
        coeff, exps = 1, [0] * ring.nvars
        while tokens[i][1] in ("+", "-"):
            coeff = -coeff if tokens[i][1] == "-" else coeff
            i += 1
        while True:     # factors joined by '*'
            kind, value, at = tokens[i]
            try:
                if kind == "INT":
                    coeff = coeff * _integer(value) % ring.p
                elif kind == "VAR":
                    slot, power = ring.var_slot(value), 1
                    if tokens[i + 1][1] == "^":
                        i += 2
                        kind, value, at = tokens[i]
                        if kind != "INT":
                            raise PolyParseError(f"expected INT, found {value!r}", at)
                        power = _integer(value)
                    exps[slot] += power
                else:
                    raise PolyParseError(
                        f"expected a coefficient or variable, found {value!r}", at)
            except DomainError as exc:
                raise PolyParseError(str(exc), at) from None
            i += 1
            if tokens[i][1] != "*":
                break
            i += 1
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + coeff
        kind, value, at = tokens[i]
        if kind is None:
            return Poly.from_dict(ring, acc)
        if value not in ("+", "-"):
            raise PolyParseError(f"expected '+' or '-', found {value!r}", at)


# -- module elements ---------------------------------------------------
#
# An element of S^p (or T^p) is a plain tuple of Poly of length p.

ModElem = tuple

def vec_is_zero(vec: ModElem) -> bool:
    return all(f.is_zero for f in vec)


def twisted_degree(vec: ModElem, twist: tuple[int, ...]):
    """max_i twist(i) + deg(vec_i); NEG_INF on the zero element."""
    if len(vec) != len(twist):
        raise StructuralError(
            f"element of rank {len(vec)} against twist of length {len(twist)}")
    best = NEG_INF
    for f, a in zip(vec, twist):
        d = f.degree
        if d is not NEG_INF and a + d > best:
            best = a + d
    return best


def check_twist(twist, rank: int) -> tuple[int, ...]:
    twist = tuple(twist)
    if len(twist) != rank:
        raise StructuralError(f"twist length {len(twist)} does not match rank {rank}")
    if any(a < 0 for a in twist):
        raise DomainError(f"twist entries must be non-negative, got {twist}")
    return twist


# -- matrices ----------------------------------------------------------

class PolyMatrix:
    """Immutable matrix of Poly, stored row-major.

    Empty matrices (0 rows or 0 columns) are representable so that
    kernel computations can report triviality; contexts that require a
    genuine matrix validate shape themselves.
    """

    __slots__ = ("ring", "nrows", "ncols", "entries", "_hash")

    def __init__(self, ring: Ring, nrows: int, ncols: int, entries):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", None)    # ``__hash__``, once computed

    def __setattr__(self, *_):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def from_rows(cls, ring: Ring, rows) -> "PolyMatrix":
        rows = tuple(tuple(row) for row in rows)
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise StructuralError(f"row {i} has {len(row)} entries, expected {ncols}")
            for f in row:
                if f.ring != ring:
                    raise StructuralError("matrix entry from a different ring")
        return cls(ring, nrows, ncols, rows)

    @classmethod
    def from_columns(cls, ring: Ring, nrows: int, columns) -> "PolyMatrix":
        columns = list(columns)
        for col in columns:
            if len(col) != nrows:
                raise StructuralError("column length does not match row count")
        rows = tuple(tuple(col[i] for col in columns) for i in range(nrows))
        return cls(ring, nrows, len(columns), rows)

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def column(self, j: int) -> ModElem:
        return tuple(self.entries[i][j] for i in range(self.nrows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.ncols)]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ring != other.ring:
            raise StructuralError("matrix product across different rings")
        if self.ncols != other.nrows:
            raise StructuralError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        # One accumulator per entry, put in canonical form once.
        rows = []
        for left in self.entries:
            row = []
            for j in range(other.ncols):
                acc: dict = {}
                for a, right in zip(left, other.entries):
                    _add_product(acc, a, right[j])
                row.append(Poly.from_dict(self.ring, acc))
            rows.append(tuple(row))
        return PolyMatrix(self.ring, self.nrows, other.ncols, tuple(rows))

    @property
    def is_zero(self) -> bool:
        return all(f.is_zero for row in self.entries for f in row)

    def has_zero_column(self) -> bool:
        return any(vec_is_zero(self.column(j)) for j in range(self.ncols))

    def column_degrees(self, row_twist=None) -> tuple[int, ...]:
        """Twisted degree of every column; a zero column is a domain error."""
        twist = (0,) * self.nrows if row_twist is None else check_twist(row_twist, self.nrows)
        out = []
        for j in range(self.ncols):
            d = twisted_degree(self.column(j), twist)
            if d is NEG_INF:
                raise DomainError(f"column {j} is zero")
            out.append(d)
        return tuple(out)

    def to_strings(self) -> list:
        return [[str(f) for f in row] for row in self.entries]

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and self.ring == other.ring
                and self.entries == other.entries
                and self.nrows == other.nrows and self.ncols == other.ncols)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash",
                               hash((self.ring, self.nrows, self.ncols, self.entries)))
        return self._hash

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols}, {self.to_strings()})"


@dataclass(frozen=True)
class CodePresentation:
    """A convolutional code C of length q, given by a generator matrix.

    The columns of ``generators`` (a q x t matrix over S with no zero
    column) generate C as a submodule of S^q.
    """

    ring: Ring
    generators: PolyMatrix

    def __post_init__(self):
        if self.ring.homog:
            raise StructuralError("codes live over S, not the homogeneous ring")
        if self.generators.ring != self.ring:
            raise StructuralError("generator matrix ring mismatch")
        if self.generators.nrows < 1 or self.generators.ncols < 1:
            raise DomainError("generator matrix must be at least 1x1")
        if self.generators.has_zero_column():
            raise DomainError("generator matrix has a zero column")

    @property
    def q(self) -> int:
        return self.generators.nrows

    @classmethod
    def from_strings(cls, p: int, n: int, rows) -> "CodePresentation":
        ring = Ring(p, n)
        mat = PolyMatrix.from_rows(ring, [[parse_poly(s, ring) for s in row]
                                          for row in rows])
        return cls(ring, mat)
