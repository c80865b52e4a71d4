"""The Jacobi-type discriminant Delta(z, q) and its inverse.

    Delta(z, q) = q prod_{n>=1} (1-q^n)^20 (1-z q^n)^2 (1-z^{-1} q^n)^2

Each q-row of Delta and 1/Delta is a palindromic Laurent polynomial in
z whose width on the q^m row is at most 2 (m - q_min); DeltaSeries
checks both on construction.  Delta is built from the Jacobi triple
product: with K = z - 2 + 1/z,

    Delta K = q prod_{n>=1} (1-q^n)^18 Theta,
    Theta = sum_{n,m in Z} (-1)^{n+m} q^{(n(n+1)+m(m+1))/2} z^{n+m+1},

so Delta is one exact division by K per row of the O(q_max)-term Theta
and one product with a z-free series, all on integer rows.
"""

from __future__ import annotations

from itertools import accumulate

from .invariants import _eta_power
from .series import ConsistencyError, LaurentPoly, QZSeries, qz_invert, qz_mul


class DeltaSeries(QZSeries):
    """QZSeries from the Delta family: palindromic rows, unit leading row."""

    def __init__(self, q_min: int, q_max: int, rows=None):
        super().__init__(q_min, q_max, rows)
        self.assert_z_width_bound()
        for m, p in self._rows.items():
            if not p.is_palindromic():
                raise ConsistencyError(f"q^{m} row is not palindromic in z")


def delta(q_max: int) -> DeltaSeries:
    """Delta(z, q) exact through q^q_max (q_max >= 1)."""
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    big_n = q_max - 1  # Theta and the eta product are needed through q^(q_max - 1)
    tri = [(n, n * (n + 1) // 2) for n in range(-q_max, q_max) if n * (n + 1) // 2 <= big_n]
    theta: dict[int, dict[int, int]] = {}
    for n, tn in tri:
        for m, tm in tri:
            if tn + tm <= big_n:
                row = theta.setdefault(tn + tm, {})
                row[n + m + 1] = row.get(n + m + 1, 0) + (-1 if (n + m) % 2 else 1)
    quotients = {}
    for k, row in theta.items():
        lo = min(row)
        # K = z^-1 (z - 1)^2, and dividing by z - 1 is a running sum
        quot = list(accumulate(accumulate(row.get(e, 0) for e in range(lo, max(row) + 1))))
        if any(quot[-2:]):
            raise ConsistencyError(f"q^{k} row of Theta is not divisible by z - 2 + 1/z")
        quotients[k] = LaurentPoly(dict(enumerate(quot[:-2], lo + 1)))
    eta18 = QZSeries.from_q_poly(dict(enumerate(_eta_power(18, big_n))), big_n)
    prod = qz_mul(QZSeries(0, big_n, quotients), eta18)
    return DeltaSeries(1, q_max, {m + 1: p for m, p in prod.rows()})


def inv_delta(q_max: int) -> DeltaSeries:
    """1/Delta exact on q-range [-1, q_max] (q_max >= -1)."""
    if q_max < -1:
        raise ValueError("q_max must be >= -1")
    d = delta(q_max + 2)
    inv = qz_invert(d)
    return DeltaSeries(inv.q_min, inv.q_max, inv._rows)
