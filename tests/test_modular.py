import pytest

from localk3.invariants import hilb_euler
from localk3.modular import DeltaSeries, delta, inv_delta
from localk3.series import KY_KERNEL, LaurentPoly, qz_mul


def test_delta_leading_rows():
    d = delta(3)
    assert (d.q_min, d.q_max) == (1, 3)
    assert d.row(1) == LaurentPoly.const(1)
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
    assert iv.row(-1) == LaurentPoly.const(1)
    assert iv.row(0) == LaurentPoly({1: 2, 0: 20, -1: 2})
    assert iv.row(1) == LaurentPoly({2: 3, 1: 42, 0: 234, -1: 42, -2: 3})


def test_inv_delta_minimal_range():
    iv = inv_delta(-1)
    assert (iv.q_min, iv.q_max) == (-1, -1)
    assert iv.row(-1) == LaurentPoly.const(1)


def test_delta_times_inverse_is_one():
    prod = qz_mul(delta(8), inv_delta(6))
    assert (prod.q_min, prod.q_max) == (0, 7)
    assert prod.row(0) == LaurentPoly.const(1)
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
    with pytest.raises(AssertionError):
        DeltaSeries(0, 1, {1: LaurentPoly({1: 1})})


def test_delta_series_validates_width():
    with pytest.raises(AssertionError):
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
