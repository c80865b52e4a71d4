"""Curve classes and Mukai vectors on an elliptic K3 with a section.

The Picard lattice is Z s + Z f with Gram matrix [[-2, 1], [1, 0]]
(s a section, f a fiber).  A curve class a*s + b*f is stored as the
integer pair (a, b).  Mukai vectors (r, beta, n) live in
Z + Pic + Z with pairing

    <(r1, b1, n1), (r2, b2, n2)> = b1.b2 - r1*n2 - r2*n1.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class CurveClass(NamedTuple("CurveClass", [("a", int), ("b", int)])):
    """Class a*s + b*f in the Picard lattice of an elliptic K3.

    A tuple (a, b) underneath, so equal coordinates mean equal and
    hash-equal classes; +, unary - and integer * are class arithmetic, never
    tuple concatenation or repetition."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> CurveClass:
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ValueError("curve class coordinates must be integers")
        return tuple.__new__(cls, (a, b))

    @property
    def weight(self) -> int:
        """Total degree a + b, the grading used for series truncation."""
        return self.a + self.b

    def self_intersection(self) -> int:
        # (a s + b f)^2 = -2 a^2 + 2 a b
        return 2 * self.a * self.b - 2 * self.a * self.a

    def dot(self, other: CurveClass) -> int:
        return (
            self.a * other.b
            + other.a * self.b
            - 2 * self.a * other.a
        )

    def is_effective(self) -> bool:
        """Nonzero and in the cone spanned by s and f."""
        return self.a >= 0 and self.b >= 0 and (self.a, self.b) != (0, 0)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def divisibility(self) -> int:
        if self.is_zero():
            raise ValueError("divisibility of the zero class is undefined")
        return math.gcd(self.a, self.b)

    def __add__(self, other: CurveClass) -> CurveClass:
        return CurveClass(self.a + other.a, self.b + other.b)

    def __neg__(self) -> CurveClass:
        return CurveClass(-self.a, -self.b)

    def __mul__(self, k: int) -> CurveClass:
        if not isinstance(k, int):
            return NotImplemented
        return CurveClass(k * self.a, k * self.b)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"{self.a},{self.b}"

    @classmethod
    def parse(cls, text: str) -> CurveClass:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'a,b', got {text!r}")
        return cls(int(parts[0]), int(parts[1]))


ZERO_CLASS = CurveClass(0, 0)
SECTION = CurveClass(1, 0)
FIBER = CurveClass(0, 1)
# s + 2f squares to +2; its multiples realize the degree-2h-2 polarizations.
POLARIZATION = CurveClass(1, 2)


class MukaiVector(NamedTuple):
    """Triple (r, beta, n): rank, curve class, holomorphic Euler part;
    a tuple with class arithmetic, like CurveClass."""

    r: int
    beta: CurveClass
    n: int

    def mukai_square(self) -> int:
        return self.beta.self_intersection() - 2 * self.r * self.n

    def is_zero(self) -> bool:
        return self.r == 0 and self.n == 0 and self.beta.is_zero()

    def divisibility(self) -> int:
        r, (a, b), n = self
        if not (d := math.gcd(r, a, b, n)):
            raise ValueError("divisibility of the zero vector is undefined")
        return d

    def divide(self, k: int) -> MukaiVector:
        """Exact division by a positive integer dividing every coordinate."""
        if k <= 0 or self.is_zero() or self.divisibility() % k != 0:
            raise ValueError(f"{k} does not divide {self}")
        return MukaiVector(
            self.r // k, CurveClass(self.beta.a // k, self.beta.b // k), self.n // k
        )

    def __add__(self, other: MukaiVector) -> MukaiVector:
        return MukaiVector(self.r + other.r, self.beta + other.beta, self.n + other.n)

    def __neg__(self) -> MukaiVector:
        return MukaiVector(-self.r, -self.beta, -self.n)

    def __mul__(self, k: int) -> MukaiVector:
        if not isinstance(k, int):
            return NotImplemented
        return MukaiVector(k * self.r, k * self.beta, k * self.n)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"{self.r};{self.beta};{self.n}"

    @classmethod
    def parse(cls, text: str) -> MukaiVector:
        parts = text.split(";")
        if len(parts) != 3:
            raise ValueError(f"expected 'r;a,b;n', got {text!r}")
        return cls(int(parts[0]), CurveClass.parse(parts[1]), int(parts[2]))


def mukai_pairing(v: MukaiVector, w: MukaiVector) -> int:
    return v.beta.dot(w.beta) - v.r * w.n - w.r * v.n


# Gram matrix of the Mukai pairing on coordinates (r, a, b, n)
_GRAM = ((0, 0, 0, -1), (0, -2, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))

_IDENTITY = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def _matmul(m1, m2) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sum(row[k] * m2[k][j] for k in range(4)) for j in range(4))
                 for row in m1)


def _coords(v: MukaiVector) -> tuple[int, int, int, int]:
    return (v.r, v.beta.a, v.beta.b, v.n)


class HodgeIsometry:
    """Integral isometry of the Mukai lattice: a 4x4 integer matrix M on
    (r, a, b, n) with M^T G M = G, checked once at construction.

    swap       (r, b, n) -> (n, b, r)
    sign_h2    (r, b, n) -> (r, -b, n)
    negate_rn  (r, b, n) -> (-r, b, -n)
    reflect(w) x -> x + <x, w> w   for a (-2)-vector w

    Compositions apply right to left, like function composition.
    """

    def __init__(self, matrix) -> None:
        m = tuple(tuple(row) for row in matrix)
        if len(m) != 4 or any(len(row) != 4 or not all(isinstance(x, int) for x in row)
                              for row in m):
            raise ValueError("an isometry is a 4x4 integer matrix")
        transpose = tuple(zip(*m))
        if _matmul(_matmul(transpose, _GRAM), m) != _GRAM:
            raise ValueError("matrix does not preserve the Mukai pairing")
        self.matrix = m

    @classmethod
    def swap(cls) -> HodgeIsometry:
        return cls(((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)))

    @classmethod
    def sign_h2(cls) -> HodgeIsometry:
        return cls(((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1)))

    @classmethod
    def negate_rn(cls) -> HodgeIsometry:
        return cls(((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)))

    @classmethod
    def reflect(cls, w: MukaiVector) -> HodgeIsometry:
        """I + w (G w)^T; for w != 0 an isometry exactly when <w, w> = -2."""
        wc = _coords(w)
        gw = [sum(g * x for g, x in zip(row, wc)) for row in _GRAM]
        return cls([[_IDENTITY[i][j] + wc[i] * gw[j] for j in range(4)] for i in range(4)])

    @classmethod
    def compose(cls, *parts: HodgeIsometry) -> HodgeIsometry:
        m = _IDENTITY
        for part in parts:
            m = _matmul(m, part.matrix)
        return cls(m)


def apply_isometry(g: HodgeIsometry, v: MukaiVector) -> MukaiVector:
    """Image g(v) = M v."""
    x0, (x1, x2), x3 = v
    (r0, r1, r2, r3), (a0, a1, a2, a3), (b0, b1, b2, b3), (n0, n1, n2, n3) = g.matrix
    return MukaiVector(r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3,
                       CurveClass(a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3,
                                  b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3),
                       n0 * x0 + n1 * x1 + n2 * x2 + n3 * x3)


def enumerate_effective(y_max: int) -> list[CurveClass]:
    """Effective classes of weight <= y_max, ordered by (weight, a)."""
    if y_max < 0:
        raise ValueError("y_max must be >= 0")
    out = []
    for w in range(1, y_max + 1):
        for a in range(w + 1):
            out.append(CurveClass(a, w - a))
    return out
