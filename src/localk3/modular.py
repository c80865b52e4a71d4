"""The Jacobi-type discriminant Delta(z, q) and its inverse.

    Delta(z, q) = q prod_{n>=1} (1-q^n)^20 (1-z q^n)^2 (1-z^{-1} q^n)^2

Each q-row of Delta and 1/Delta is a palindromic Laurent polynomial in
z, and the z-width of the q^m row is at most 2 (m - q_min).  Both facts
are checked on construction, and the width bound is asserted after
every multiplication in the build.
"""

from __future__ import annotations

import math

from .series import LaurentPoly, QZSeries, qz_invert, qz_mul


class DeltaSeries(QZSeries):
    """QZSeries from the Delta family: palindromic rows, unit leading row."""

    def __init__(self, q_min: int, q_max: int, rows=None):
        super().__init__(q_min, q_max, rows)
        self.assert_z_width_bound()
        for m, p in self._rows.items():
            if not p.is_palindromic():
                raise AssertionError(f"q^{m} row is not palindromic in z")


def delta(q_max: int) -> DeltaSeries:
    """Delta(z, q) exact through q^q_max (q_max >= 1)."""
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    big_n = q_max - 1  # the product part is needed through q^(q_max - 1)
    prod = QZSeries(0, big_n, {0: LaurentPoly.const(1)})
    for n in range(1, big_n + 1):
        # (1 - q^n)^20 expanded as a z-free polynomial
        f1 = {n * j: (-1) ** j * math.comb(20, j)
              for j in range(big_n // n + 1) if j <= 20}
        prod = qz_mul(prod, QZSeries.from_q_poly(f1, big_n))
        prod.assert_z_width_bound()
        # (1 - z q^n)^2 and (1 - z^{-1} q^n)^2
        for zsign in (1, -1):
            rows = {0: LaurentPoly.const(1)}
            if n <= big_n:
                rows[n] = LaurentPoly.monomial(-2, zsign)
            if 2 * n <= big_n:
                rows[2 * n] = LaurentPoly.monomial(1, 2 * zsign)
            prod = qz_mul(prod, QZSeries(0, big_n, rows))
            prod.assert_z_width_bound()
    shifted = {m + 1: p for m, p in prod._rows.items()}
    return DeltaSeries(1, q_max, shifted)


def inv_delta(q_max: int) -> DeltaSeries:
    """1/Delta exact on q-range [-1, q_max] (q_max >= -1)."""
    if q_max < -1:
        raise ValueError("q_max must be >= -1")
    d = delta(q_max + 2)
    inv = qz_invert(d)
    return DeltaSeries(inv.q_min, inv.q_max, inv._rows)
