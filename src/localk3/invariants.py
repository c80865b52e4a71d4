"""Euler characteristics of Hilbert schemes and the multiple-cover count J.

chi(Hilb^n) of a K3 is the q^n coefficient of prod_{k>=1} (1-q^k)^{-24},
computed by _eta_power as eight divisions by Jacobi's eta^3; by convention
chi(Hilb^m) = 0 for m < 0.  For a nonzero Mukai vector v the rational count

    J(v) = sum_{k >= 1, k | div(v)} (1/k^2) chi(Hilb^{<v/k, v/k>/2 + 1})

packages all multiple covers, and N(r, beta, n) = 2 J(r, beta, r + n)
is the corresponding sheaf count shifted by the square root of the Todd
class (1, 0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import itemgetter, mul

from .lattice import MukaiVector


def _eta_power(e: int, n: int) -> list[int]:
    """Coefficients of prod_{k>=1} (1-q^k)^e up to q^n, for any integer e.

    |e| // 3 steps by Jacobi's eta^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2)
    and |e| % 3 by Euler's eta = sum_{k in Z} (-1)^k q^(k(3k-1)/2).  With c
    the step's series, f_m += sum_{s>0} c_s f_(m-s) top down multiplies by c,
    and f_m -= the same sum bottom up divides by c; c_0 = 1 keeps f integral.
    """
    f, ids = [1] + [0] * n, list(range(n + 1))  # the getters share these ints, to save memory
    ks = [k for k in range(-n, n + 1) if k * k <= 2 * n]
    jacobi = [(k * (k + 1) // 2, (-1) ** k * (2 * k + 1)) for k in ks if k >= 0]
    euler = sorted((k * (3 * k - 1) // 2, (-1) ** (k % 2)) for k in ks)
    for series, steps in ((jacobi, abs(e) // 3), (euler, abs(e) % 3)):
        if steps:  # the tap s = 0 keeps f_m, and s = 1 makes every get return a tuple
            coeffs = [c if e > 0 or not s else -c for s, c in series]
            taps = [(m, itemgetter(*[ids[m - s] for s, _ in series if s <= m])) for m in ids[1:]]
            for m, get in (taps[::-1] if e > 0 else taps) * steps:
                f[m] = sum(map(mul, coeffs, get(f)))
    return f


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
