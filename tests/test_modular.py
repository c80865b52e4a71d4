import hashlib
import math

import pytest

from localk3.invariants import hilb_euler
from localk3.modular import DeltaSeries, delta, inv_delta
from localk3.ptseries import bps_extract
from localk3.series import KY_KERNEL, ConsistencyError, LaurentPoly, QZSeries, qz_mul

# SHA-256 of the "q z coefficient" lines of inv_delta(40), and of the
# "g h value" lines of bps_extract(inv_delta(40), 40), recorded from the
# factor-by-factor build of Delta on Fraction rows
INV_DELTA_40_SHA256 = "f3bc976a3b101fffa4944a6994093733d672b71d1e1c27bb9dd0da355944f914"
BPS_40_SHA256 = "081cb311dd012513b6299e6bb4a9b285b58e4b439cff67b471d07f72b96b2d77"
# the same at q = 80, recorded from the qz_invert that called _row_sum once
# per q-row
INV_DELTA_80_SHA256 = "6d8585cc60b562c327f103b1d0a4a0d1a43d7a4731bf78740ba6c06ee7e3ca7b"
BPS_80_SHA256 = "eac6b94e268faeb8129d72edaeea39c7f8e281388f93ddea00ab45fc7b5ec0c9"


def delta_by_factors(q_max):
    """Delta expanded one factor (1-q^n)^20 (1-z q^n)^2 (1-z^-1 q^n)^2 at
    a time: the oracle for the theta-series build."""
    big_n = q_max - 1
    prod = QZSeries(0, big_n, {0: LaurentPoly({0: 1})})
    for n in range(1, big_n + 1):
        f1 = {n * j: (-1) ** j * math.comb(20, j) for j in range(min(big_n // n, 20) + 1)}
        prod = qz_mul(prod, QZSeries.from_q_poly(f1, big_n))
        for zsign in (1, -1):
            rows = {0: LaurentPoly({0: 1}), n: LaurentPoly({zsign: -2})}
            if 2 * n <= big_n:
                rows[2 * n] = LaurentPoly({2 * zsign: 1})
            prod = qz_mul(prod, QZSeries(0, big_n, rows))
            prod.assert_z_width_bound()
    return QZSeries(1, q_max, {m + 1: p for m, p in prod.rows()})


def sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("q_max", [1, 2, 12, 40])
def test_theta_build_matches_factor_by_factor_build(q_max):
    d = delta(q_max)
    oracle = delta_by_factors(q_max)
    assert (d.q_min, d.q_max) == (oracle.q_min, oracle.q_max)
    assert d.rows() == oracle.rows()


def test_wall_path_digests_at_q_40():
    iv = inv_delta(40)
    terms = sorted((m, j, v) for m, row in iv.rows() for j, v in row.items())
    assert sha256_lines(f"{m} {j} {v}" for m, j, v in terms) == INV_DELTA_40_SHA256
    entries = sorted((g, h, c) for (g, h), c in bps_extract(iv, 40).entries.items())
    assert sha256_lines(f"{g} {h} {c}" for g, h, c in entries) == BPS_40_SHA256


def test_wall_path_digests_at_q_80():
    iv = inv_delta(80)
    terms = sorted((m, j, v) for m, row in iv.rows() for j, v in row.items())
    assert sha256_lines(f"{m} {j} {v}" for m, j, v in terms) == INV_DELTA_80_SHA256
    entries = sorted((g, h, c) for (g, h), c in bps_extract(iv, 80).entries.items())
    assert sha256_lines(f"{g} {h} {c}" for g, h, c in entries) == BPS_80_SHA256


def test_delta_leading_rows():
    d = delta(3)
    assert (d.q_min, d.q_max) == (1, 3)
    assert d.row(1) == LaurentPoly({0: 1})
    assert d.row(2) == LaurentPoly({1: -2, 0: -20, -1: -2})


def test_delta_rows_palindromic_and_bounded():
    d = delta(12)
    for m, row in d.rows():
        assert row.is_palindromic()
        assert row.width() <= 2 * (m - 1)
    d.assert_z_width_bound()


def test_delta_rejects_small_q_max():
    with pytest.raises(ValueError):
        delta(0)
    with pytest.raises(ValueError):
        inv_delta(-2)


def test_inv_delta_first_rows():
    iv = inv_delta(1)
    assert (iv.q_min, iv.q_max) == (-1, 1)
    assert iv.row(-1) == LaurentPoly({0: 1})
    assert iv.row(0) == LaurentPoly({1: 2, 0: 20, -1: 2})
    assert iv.row(1) == LaurentPoly({2: 3, 1: 42, 0: 234, -1: 42, -2: 3})


def test_inv_delta_minimal_range():
    iv = inv_delta(-1)
    assert (iv.q_min, iv.q_max) == (-1, -1)
    assert iv.row(-1) == LaurentPoly({0: 1})


def test_delta_times_inverse_is_one():
    prod = qz_mul(delta(8), inv_delta(6))
    assert (prod.q_min, prod.q_max) == (0, 7)
    assert prod.row(0) == LaurentPoly({0: 1})
    assert all(prod.row(m).is_zero() for m in range(1, 8))


def test_inv_delta_specializes_to_hilb_at_z_equals_one():
    # setting z = 1 removes the elliptic direction: the q^m row sums
    # to chi(Hilb^{m+1})
    iv = inv_delta(29)
    for m in range(-1, 30):
        total = sum(v for _, v in iv.row(m).items())
        assert total == hilb_euler(m + 1)


def test_inv_delta_width_bound_is_tight():
    iv = inv_delta(10)
    for m in range(-1, 11):
        assert iv.row(m).width() == 2 * (m + 1)


def test_delta_series_validates_palindromy():
    with pytest.raises(ConsistencyError):
        DeltaSeries(0, 1, {1: LaurentPoly({1: 1})})


def test_delta_series_validates_width():
    with pytest.raises(ConsistencyError):
        DeltaSeries(0, 1, {0: LaurentPoly({1: 1, -1: 1})})


def test_kernel_division_recurrence_gives_weights():
    # solve (z - 2 + 1/z) F = 1 with F supported in positive powers:
    # the recurrence f_{j+1} = 2 f_j - f_{j-1} (after f_1 = 1) forces
    # f_j = j, the point-count weights of the lowest pairs row
    f = {0: 0, 1: 1}
    for j in range(1, 30):
        f[j + 1] = 2 * f[j] - f[j - 1]
    assert all(f[j] == j for j in range(31))
    window = LaurentPoly({j: f[j] for j in range(31)})
    prod = window * KY_KERNEL
    for j in range(30):
        assert prod.coeff(j) == (1 if j == 0 else 0)
