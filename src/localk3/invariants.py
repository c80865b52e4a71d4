"""Euler characteristics of Hilbert schemes and the multiple-cover count J.

chi(Hilb^n) of a K3 is the q^n coefficient of prod_{k>=1} (1-q^k)^{-24},
computed by _eta_power in one pass of the power rule; by convention
chi(Hilb^m) = 0 for m < 0.  For a nonzero Mukai vector v the rational count

    J(v) = sum_{k >= 1, k | div(v)} (1/k^2) chi(Hilb^{<v/k, v/k>/2 + 1})

packages all multiple covers, and N(r, beta, n) = 2 J(r, beta, r + n)
is the corresponding sheaf count shifted by the square root of the Todd
class (1, 0, 1).
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import cache
from operator import mul
from typing import NamedTuple

from .lattice import MukaiVector
from .series import ConsistencyError


def _eta_power(e: int, n: int) -> list[int]:
    """Coefficients of prod_{k>=1} (1-q^k)^e up to q^n, for any integer e.

    From g f' = e g' f, with f = g^e and Euler's eta g = sum_{k in Z} (-1)^k
    q^(k(3k-1)/2): m f_m = sum_{0<s<=m} ((e+1) s - m) g_s f_(m-s), summed over
    the taps s with g_s = +1 and with g_s = -1.  A remainder is an engine fault.
    """
    ks = [k for k in range(-n, n + 1) if 0 < k * (3 * k - 1) // 2 <= n]
    plus, minus = (sorted(k * (3 * k - 1) // 2 for k in ks if k % 2 == odd) for odd in (0, 1))
    f = [1] + [0] * n
    for m in range(1, n + 1):
        a, b = ([f[m - s] for s in taps[:bisect(taps, m)]] for taps in (plus, minus))
        f[m], r = divmod((e + 1) * (sum(map(mul, plus, a)) - sum(map(mul, minus, b)))
                         - m * (sum(a) - sum(b)), m)
        if r:
            raise ConsistencyError(f"q^{m} coefficient of eta^{e} is not an integer")
    return f


class HilbTable(NamedTuple):
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
    if n >= len(_cache):
        _cache[:] = hilb_table(max(n, 2 * len(_cache))).values
    return _cache[n]


def conjectural_J(v: MukaiVector) -> Fraction:
    """Multiple-cover count J(v) of a nonzero Mukai vector.

    The formula is evaluated on any nonzero vector; no effectivity or
    cone condition is imposed, and the value depends only on the square
    and the divisibility, so it is looked up by them in _j_by_key.
    """
    if v.is_zero():
        raise ValueError("J is undefined on the zero vector")
    return _j_by_key(v.mukai_square(), v.divisibility())


@cache
def _j_by_key(square: int, div: int) -> Fraction:
    """J of the nonzero Mukai vectors of this square and divisibility:
    for k | div the vector v/k has square square/k^2, an even integer."""
    total = Fraction(0)
    for k in range(1, div + 1):
        if div % k == 0:
            chi = hilb_euler(square // (2 * k * k) + 1)
            if chi:
                total += Fraction(chi, k * k)
    return total
