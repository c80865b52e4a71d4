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

1/Delta has two builds that share no code.  inv_delta, which bps runs,
never forms Delta: G = q/Delta is the exponential of
sum_j c_j q^j / j, with c_j = 20 sigma(j) + 2 sum_{l | j} (j/l)(z^l + z^-l),
so

    m G_m = sum_{l=1..m} (20 + 2 z^l + 2 z^-l) U_l,
    U_l = sum_{k>=1} k G_(m-kl),

from G_0 = 1.  The wall identity check (ptseries.ky_identity_check)
inverts delta(q_max + 2) with series.qz_invert instead, so the identity
is tested against Delta as the triple product defines it.

inv_delta packs each G_m once, as the unsigned integer
sum_e g_e 2^(s (N + e)) with N = q_max + 1, so multiplying by z^l or
z^-l is a shift by l slots, and builds every row in full.  Slot proof:
every coefficient of G is >= 0, so every term of the sum for m G_m is,
and each slot of every integer the step forms (a partial sum of U_l,
U_l itself, a shift of it, a sum of those) is at most the matching
coefficient of m G_m, so at most the row sum m chi(Hilb^m), G_m at
z = 1 times m.  That increases with m, so B = N chi(Hilb^N) bounds every
slot of the build, and slots of s = 8 nb bits with 2^s > B never carry.
A right shift drops only empty slots: U_l lies in |e| <= m - l, so
z^-l U_l starts at slot N - m >= 0.  The row of G_m spans |e| <= m, and
its ends are m + 1 != 0: z^m q^m comes from (1 - z q)^-2 alone.  So the
integer row is a LaurentPoly row as it is.
"""

from __future__ import annotations

from itertools import accumulate

from .invariants import _eta_power, hilb_euler
from .series import ConsistencyError, LaurentPoly, QZSeries, qz_mul


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
    eta18 = {m: LaurentPoly({0: v}) for m, v in enumerate(_eta_power(18, big_n))}
    prod = qz_mul(QZSeries(0, big_n, quotients), QZSeries(0, big_n, eta18))
    return DeltaSeries(1, q_max, {m + 1: p for m, p in prod.rows()})


def inv_delta(q_max: int) -> DeltaSeries:
    """1/Delta exact on q-range [-1, q_max] (q_max >= -1), from the
    recurrence for G = q/Delta in the module docstring."""
    if q_max < -1:
        raise ValueError("q_max must be >= -1")
    top = q_max + 1
    nb = ((top * hilb_euler(top)).bit_length() + 7) // 8
    s = 8 * nb
    packed = [1 << (s * top)]  # G_m, with z^e in slot top + e
    rows = {-1: LaurentPoly({0: 1})}
    for m in range(1, top + 1):
        flat = shifted = 0
        for l in range(1, m + 1):
            # G_(m-kl) is in k of the partial sums from G_(m mod l) up
            u = sum(accumulate(packed[m % l:m - l + 1:l]))
            flat += u
            shifted += (u << (s * l)) + (u >> (s * l))
        buf = (20 * flat + 2 * shifted).to_bytes(nb * (top + m + 1), "little")
        row = []
        for i in range(nb * (top - m), nb * (top + m + 1), nb):
            c, r = divmod(int.from_bytes(buf[i:i + nb], "little"), m)
            if r:
                raise ConsistencyError(f"q^{m - 1} row of 1/Delta is not integral")
            row.append(c)
        packed.append(int.from_bytes(
            bytes(nb * (top - m)) + b"".join([c.to_bytes(nb, "little") for c in row]), "little"))
        rows[m - 1] = LaurentPoly._of(1, -m, row)
    return DeltaSeries(-1, q_max, rows)
