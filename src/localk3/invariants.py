"""Euler characteristics of Hilbert schemes and the multiple-cover count J.

chi(Hilb^n) of a K3 is the q^n coefficient of prod_{k>=1} (1-q^k)^{-24},
computed by the sigma-recurrence of _eta_power; by convention
chi(Hilb^m) = 0 for m < 0.  For a nonzero Mukai vector v the rational count

    J(v) = sum_{k >= 1, k | div(v)} (1/k^2) chi(Hilb^{<v/k, v/k>/2 + 1})

packages all multiple covers, and N(r, beta, n) = 2 J(r, beta, r + n)
is the corresponding sheaf count shifted by the square root of the Todd
class (1, 0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .lattice import CurveClass, MukaiVector
from .series import ConsistencyError


def _eta_power(e: int, n: int) -> list[int]:
    """Coefficients of prod_{k>=1} (1-q^k)^e up to q^n, for any integer e.

    log prod (1-q^k)^e = -e sum_{m>=1} sigma(m) q^m / m, so the
    log-derivative gives m F_m = -e sum_{k=1..m} sigma(k) F_{m-k}, the
    grading recurrence of series.exp, run in integers.
    """
    sigma = [0] * (n + 1)
    for d in range(1, n + 1):
        sigma[d::d] = [s + d for s in sigma[d::d]]
    out = [1]
    for m in range(1, n + 1):
        f, rem = divmod(-e * sum(map(mul, sigma[1:m + 1], reversed(out))), m)
        if rem:
            raise ConsistencyError(f"q^{m} coefficient of the eta power is not an integer")
        out.append(f)
    return out


@dataclass(frozen=True)
class HilbTable:
    """chi(Hilb^n) for 0 <= n <= max_n."""

    max_n: int
    values: tuple[int, ...]


def hilb_table(max_n: int) -> HilbTable:
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    return HilbTable(max_n, tuple(_eta_power(-24, max_n)))


_cache: list[int] = [1]


def hilb_euler(n: int) -> int:
    """chi(Hilb^n) of a K3 surface; zero for negative n."""
    if n < 0:
        return 0
    global _cache
    if n >= len(_cache):
        _cache = list(hilb_table(max(n, 2 * len(_cache))).values)
    return _cache[n]


def conjectural_J(v: MukaiVector) -> Fraction:
    """Multiple-cover count J(v) of a nonzero Mukai vector.

    The formula is evaluated on any nonzero vector; no effectivity or
    cone condition is imposed, and the value depends only on the square
    and the divisibility.
    """
    if v.is_zero():
        raise ValueError("J is undefined on the zero vector")
    div = v.divisibility()
    total = Fraction(0)
    for k in range(1, div + 1):
        if div % k:
            continue
        w = v.divide(k)
        exponent = w.mukai_square() // 2 + 1
        chi = hilb_euler(exponent)
        if chi:
            total += Fraction(chi, k * k)
    return total


def N_from_J(r: int, beta: CurveClass, n: int) -> Fraction:
    """Sheaf count N(r, beta, n) = 2 J(r, beta, r + n)."""
    if r == 0 and n == 0 and beta.is_zero():
        raise ValueError("N is undefined on the zero triple")
    return 2 * conjectural_J(MukaiVector(r, beta, r + n))


def J_closed_00n(n: int) -> Fraction:
    """Closed form J(0, 0, n) = 24 sum_{k | n} 1/k^2 for n != 0."""
    if n == 0:
        raise ValueError("need n != 0")
    n = abs(n)
    return 24 * sum(Fraction(1, k * k) for k in range(1, n + 1) if n % k == 0)


def J_closed_r0r(r: int) -> Fraction:
    """Closed form J(r, 0, r) = 1/r^2 for r != 0."""
    if r == 0:
        raise ValueError("need r != 0")
    return Fraction(1, r * r)
