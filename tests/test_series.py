import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from localk3.lattice import CurveClass, ZERO_CLASS
from localk3.modular import delta
from localk3.ptseries import PTParams, pt_main
from localk3 import series
from localk3.series import (KY_KERNEL, LaurentPoly, MultiSeries, QZSeries, _pack, _row_sum,
                            _trim, exp, log, pow_binomial, qz_invert, qz_mul)

X = CurveClass(0, 1)  # weight-1 class, used as a one-variable stand-in


def one(y_max, z_window):
    return MultiSeries(y_max, z_window, {(ZERO_CLASS, 0): 1})


def xpow(k):
    return CurveClass(0, k)


def geometric(y_max, window):
    # (1 - y^X z)^(-1) written out termwise
    return MultiSeries(y_max, window, {(xpow(k), k): 1 for k in range(y_max + 1)})


def test_difference_of_squares():
    w = (0, 4)
    plus = MultiSeries(2, w, {(ZERO_CLASS, 0): 1, (X, 1): 1})
    minus = MultiSeries(2, w, {(ZERO_CLASS, 0): 1, (X, 1): -1})
    assert plus * minus == MultiSeries(2, w, {(ZERO_CLASS, 0): 1, (xpow(2), 2): -1})


def test_identity_element():
    w = (-2, 2)
    s = MultiSeries(3, w, {(X, -1): Fraction(7, 3), (CurveClass(2, 1), 2): -4})
    assert s * one(3, w) == s


def test_inverse_pair_times_forward():
    w = (0, 5)
    inv = pow_binomial(X, 1, -1, -1, 5, w)
    assert inv == geometric(5, w)
    fwd = MultiSeries(5, w, {(ZERO_CLASS, 0): 1, (X, 1): -1})
    assert inv * fwd == one(5, w)


def test_mul_requires_shared_truncation():
    a = one(2, (0, 3))
    b = one(3, (0, 3))
    with pytest.raises(ValueError):
        a * b
    c = one(2, (4, 6))
    with pytest.raises(ValueError):
        a * c


def test_restrict_cannot_widen():
    s = one(2, (-2, 2))
    with pytest.raises(ValueError):
        s.restrict(-3, 2)
    assert s.restrict(0, 1).z_window == (0, 1)


def test_exp_of_zero():
    assert exp(MultiSeries(3, (0, 3))) == one(3, (0, 3))


def test_exp_single_term_factorials():
    w = (0, 6)
    s = exp(MultiSeries(5, w, {(X, 1): 1}))
    for k in range(6):
        assert s.coeff(xpow(k), k) == Fraction(1, math.factorial(k))


def test_exp_rejects_pure_z_terms():
    with pytest.raises(ValueError):
        exp(MultiSeries(2, (0, 2), {(ZERO_CLASS, 1): 1}))


def test_log_needs_constant_one():
    with pytest.raises(ValueError):
        log(MultiSeries(2, (0, 2)))
    with pytest.raises(ValueError):
        log(MultiSeries(2, (0, 2), {(ZERO_CLASS, 0): 1, (ZERO_CLASS, 1): 2}))


def test_log_of_cubed_geometric_series():
    # brute-force cube of the geometric series, then compare the log
    # against 3 * sum x^k / k termwise
    y = 6
    w = (0, y)
    g = geometric(y, w)
    cube = g * g * g
    expected = MultiSeries(y, w, {(xpow(k), k): Fraction(3, k) for k in range(1, y + 1)})
    assert log(cube) == expected


def test_log_exp_roundtrip_single():
    w = (-4, 4)
    a = MultiSeries(3, w, {(CurveClass(1, 0), -1): 2})
    assert log(exp(a)) == a


def test_pow_binomial_negative_24():
    w = (0, 4)
    s = pow_binomial(X, 1, -1, -24, 4, w)
    for k in range(5):
        assert s.coeff(xpow(k), k) == math.comb(k + 23, 23)
    # repeated multiplication oracle for the positive power
    base = MultiSeries(4, w, {(ZERO_CLASS, 0): 1, (X, 1): -1})
    prod = one(4, w)
    for _ in range(24):
        prod = prod * base
    assert pow_binomial(X, 1, -1, 24, 4, w) == prod
    assert s * prod == one(4, w)


def test_pow_binomial_drops_out_of_window_terms():
    s = pow_binomial(X, 2, 1, 5, 4, (0, 3))
    assert s.coeff(X, 2) == 5
    assert s.coeff(xpow(2), 4) == 0  # z^4 is outside the window


def test_pow_binomial_stores_only_nonzero_terms():
    # (1 + y^X z)^2 = 1 + 2 y^X z + y^2X z^2: C(2, k) = 0 for k = 3..5 is not stored
    s = pow_binomial(X, 1, 1, 2, 5, (0, 5))
    assert [(cls, k, v) for cls, k, v in s.terms()] == [
        (ZERO_CLASS, 0, 1), (X, 1, 2), (xpow(2), 2, 1)]
    assert sum(len(row) for block in s._blocks for _, row in block.values()) == 3


def test_pow_binomial_rejects_bad_base():
    with pytest.raises(ValueError):
        pow_binomial(ZERO_CLASS, 1, -1, 2, 3, (0, 3))
    with pytest.raises(ValueError):
        pow_binomial(CurveClass(-1, 2), 0, -1, 2, 3, (0, 3))
    with pytest.raises(ValueError):
        pow_binomial(X, 1, 2, 2, 3, (0, 3))


def naive_mul(a, b):
    # O(T^2) reference: convolve every pair of stored terms, then filter
    y = a.y_max
    lo, hi = max(a.z_lo, b.z_lo), min(a.z_hi, b.z_hi)
    acc = {}
    for cls1, k1, v1 in a.terms():
        for cls2, k2, v2 in b.terms():
            cls, k = cls1 + cls2, k1 + k2
            if cls.weight <= y and lo <= k <= hi:
                acc[(cls, k)] = acc.get((cls, k), Fraction(0)) + v1 * v2
    return MultiSeries(y, (lo, hi), acc)


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
any_key = st.tuples(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda t: CurveClass(*t)),
    st.integers(-3, 3))
series_dicts = st.dictionaries(any_key, coeffs, max_size=6)


def build(d, y_max=3, window=(-3, 3)):
    return MultiSeries(y_max, window, d)


@given(series_dicts, series_dicts)
def test_production_mul_matches_naive_oracle(da, db):
    a, b = build(da), build(db)
    assert a * b == naive_mul(a, b)


@given(series_dicts, series_dicts, series_dicts)
def test_mul_commutative_and_associative(da, db, dc):
    # windows wide enough that no product escapes, so grouping is exact
    w = (-27, 27)
    a, b, c = build(da, 3, w), build(db, 3, w), build(dc, 3, w)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


nonconst_key = any_key.filter(lambda t: t[0].weight >= 1)


@given(st.dictionaries(nonconst_key, coeffs, max_size=5))
def test_exp_log_roundtrip(d):
    a = build(d, 3, (-9, 9))
    assert log(exp(a)) == a


def exp_by_powers(a):
    """exp(a) as the power sum sum_k a^k / k!, one full product per power:
    the oracle for the recurrence in exp."""
    out = one(a.y_max, a.z_window)
    power = out
    for k in range(1, a.y_max + 1):
        power = naive_mul(power, a).scale(Fraction(1, k))
        if power.is_zero():
            break
        out = out + power
    return out


# z-exponents >= 0 only, so window truncation commutes with products;
# coefficients with mixed denominators
forward_key = st.tuples(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any).map(lambda t: CurveClass(*t)),
    st.integers(0, 4))
mixed_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@given(st.dictionaries(forward_key, mixed_coeffs, min_size=1, max_size=7),
       st.integers(2, 4), st.integers(-2, 2), st.integers(4, 12))
def test_exp_recurrence_matches_power_sum(d, y_max, lo, span):
    # lo > 0 puts the constant term outside the window: both give zero
    a = MultiSeries(y_max, (lo, lo + span), d)
    assert exp(a) == exp_by_powers(a)


# classes of weight >= 0 with a negative coordinate allowed, z reaching
# past the window (-3, 3) on both sides
signed_key = st.tuples(
    st.tuples(st.integers(-1, 3), st.integers(0, 3)).filter(lambda t: sum(t) >= 0)
    .map(lambda t: CurveClass(*t)),
    st.integers(-5, 5))
signed_dicts = st.dictionaries(signed_key, mixed_coeffs, max_size=8)


def assert_canonical(s):
    # rows trimmed to nonzero ends inside the window, no empty class row,
    # and the one denominator shares no factor with every numerator
    assert len(s._blocks) == s.y_max + 1
    nums = []
    for block in s._blocks:
        for lo, row in block.values():
            assert row and row[0] and row[-1]
            assert s.z_lo <= lo and lo + len(row) - 1 <= s.z_hi
            assert all(type(v) is int for v in row)
            nums += row
    assert s._den >= 1 and math.gcd(s._den, *nums) == 1


@given(signed_dicts, signed_dicts, mixed_coeffs.filter(bool))
def test_stored_form_is_canonical(da, db, k):
    y, w = 3, (-3, 3)
    a, b = MultiSeries(y, w, da), MultiSeries(y, w, db)
    reference = sorted(((cls, z, Fraction(v)) for (cls, z), v in da.items()
                        if v and cls.weight <= y and w[0] <= z <= w[1]),
                       key=lambda t: (t[0].weight, t[0].a, t[1]))
    assert list(a.terms()) == reference
    for same in (a * one(y, w), MultiSeries(y, (-5, 5), da).restrict(*w),
                 a + MultiSeries(y, w), a.scale(k).scale(1 / k), (a - b) + b):
        assert same == a
        assert_canonical(same)
    for s in (a, b, a * b, a - b, a.scale(k)):
        assert_canonical(s)


def log_by_powers(a):
    """log(1 + b) as the power sum sum_k (-1)^(k-1) b^k / k, one full
    product per power: the oracle for the recurrence in log.  The
    products are MultiSeries.mul, which naive_mul checks above; a naive
    product would be too slow for the pair series below."""
    b = a - one(a.y_max, a.z_window)
    out = MultiSeries(a.y_max, a.z_window)
    power = one(a.y_max, a.z_window)
    for k in range(1, a.y_max + 1):
        power = power * b
        if power.is_zero():
            break
        out = out + power.scale(Fraction((-1) ** (k - 1), k))
    return out


@given(st.dictionaries(forward_key, mixed_coeffs, min_size=1, max_size=7),
       st.integers(2, 4), st.integers(-2, 0), st.integers(4, 12))
def test_log_recurrence_matches_power_sum(d, y_max, lo, span):
    a = MultiSeries(y_max, (lo, span), {**d, (ZERO_CLASS, 0): 1})
    assert log(a) == log_by_powers(a)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("y_max,z_max", [(3, 8), (6, 30), (8, 70)])
def test_log_of_pair_series_matches_power_sum_where_trusted(y_max, z_max, signed):
    # both logs cut every intermediate product to the window, so they may
    # differ only where truncation pollutes, above the bound gv_extract trusts
    pt = pt_main(PTParams(y_max, z_max, signed=signed))
    depth = max(0, -pt.support_z_min())
    top = pt.z_hi - (y_max - 1) * depth
    fast, slow = log(pt), log_by_powers(pt)
    keys = {(cls, k) for s in (fast, slow) for cls, k, _ in s.terms() if k <= top}
    assert keys
    assert all(fast.coeff(cls, k) == slow.coeff(cls, k) for cls, k in keys)


def test_exp_of_window_without_constant_term_is_zero():
    a = MultiSeries(3, (1, 6), {(X, 1): Fraction(1, 2), (CurveClass(1, 1), 2): 3})
    assert exp(a).is_zero()


def test_negative_weight_class_is_rejected():
    # weights grade the series; a negative weight would make exp/log infinite
    with pytest.raises(ValueError):
        MultiSeries(2, (0, 0), {(CurveClass(-1, 0), 0): 1, (ZERO_CLASS, 0): 1})
    with pytest.raises(ValueError):
        MultiSeries(2, (0, 0), {(CurveClass(-1, 0), 5): 1})
    # a class with a negative coordinate but weight >= 0 is fine
    s = MultiSeries(2, (0, 1), {(CurveClass(-1, 2), 1): 1, (ZERO_CLASS, 0): 1})
    assert s * s == naive_mul(s, s)


def test_laurent_poly_basics():
    p = LaurentPoly({1: 1, 0: -2, -1: 1})
    assert p.is_palindromic() and p.width() == 2
    q = LaurentPoly({2: 3, 0: 1})
    assert not q.is_palindromic()
    assert (p * p).coeff(0) == 6
    assert p - p == LaurentPoly()
    assert LaurentPoly().width() == 0


def test_qz_mul_exact_range():
    # a exact to q^3, b exact to q^1: product determined to q^1
    a = QZSeries(0, 3, {m: LaurentPoly({0: 1}) for m in range(4)})
    b = QZSeries(0, 1, {0: LaurentPoly({0: 1}), 1: LaurentPoly({0: -1})})
    ab = qz_mul(a, b)
    assert (ab.q_min, ab.q_max) == (0, 1)
    assert ab.row(0) == LaurentPoly({0: 1})
    assert ab.row(1) == LaurentPoly()


def test_qz_invert_geometric():
    a = QZSeries(1, 4, {1: LaurentPoly({0: 1}), 2: LaurentPoly({1: -1})})
    inv = qz_invert(a)  # 1 / (q (1 - z q)) = q^{-1} sum z^k q^k
    assert (inv.q_min, inv.q_max) == (-1, 2)
    for m in range(-1, 3):
        assert inv.row(m) == LaurentPoly({m + 1: 1})
    assert qz_mul(a, inv).row(0) == LaurentPoly({0: 1})


def test_qz_invert_needs_monomial_lead():
    a = QZSeries(0, 2, {0: LaurentPoly({1: 1, -1: 1})})
    with pytest.raises(ValueError):
        qz_invert(a)


factor_shapes = st.lists(
    st.tuples(st.sampled_from([-1, 0, 1]),   # z exponent in the factor
              st.integers(1, 3),             # q exponent
              st.sampled_from([1, -1]),      # sign of the z term
              st.integers(1, 3)),            # power of the factor
    min_size=1, max_size=4)


@given(factor_shapes)
def test_qz_width_bound_closed_under_products_and_inverse(shapes):
    q_max = 8
    prod = QZSeries(0, q_max, {0: LaurentPoly({0: 1})})
    for zexp, qexp, sign, power in shapes:
        rows = {0: LaurentPoly({0: 1})}
        if qexp <= q_max:
            rows[qexp] = LaurentPoly({zexp: sign})
        factor = QZSeries(0, q_max, rows)
        for _ in range(power):
            prod = qz_mul(prod, factor)
            prod.assert_z_width_bound()
    inv = qz_invert(prod)
    inv.assert_z_width_bound()
    assert qz_mul(prod, inv).row(0) == LaurentPoly({0: 1})


# dict-of-Fraction reference arithmetic for the dense QZSeries engine
fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def qz_series(draw, monomial_lead=False):
    q_min = draw(st.integers(-2, 2))
    q_max = q_min + draw(st.integers(0, 4))
    terms = draw(st.dictionaries(st.tuples(st.integers(q_min, q_max), st.integers(-3, 3)),
                                 fracs, max_size=12))
    if monomial_lead:
        terms = {key: v for key, v in terms.items() if key[0] != q_min}
        terms[(q_min, draw(st.integers(-3, 3)))] = draw(fracs.filter(bool))
    rows: dict = {}
    for (m, j), v in terms.items():
        rows.setdefault(m, {})[j] = v
    return QZSeries(q_min, q_max, {m: LaurentPoly(r) for m, r in rows.items()})


def qz_terms(s):
    return {(m, j): v for m, row in s.rows() for j, v in row.items()}


def ref_qz_mul(a, b, q_max):
    out = {}
    for (m1, j1), v1 in qz_terms(a).items():
        for (m2, j2), v2 in qz_terms(b).items():
            if m1 + m2 <= q_max:
                key = (m1 + m2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
    return {key: v for key, v in out.items() if v}


def ref_qz_invert(a):
    terms, v = qz_terms(a), a.q_min
    (j, c), = [(jj, x) for (m, jj), x in terms.items() if m == v]
    q_min, q_max = -v, a.q_max - 2 * v
    out = {(q_min, -j): 1 / c}
    for m in range(q_min + 1, q_max + 1):
        acc = {}
        for (ma, ja), x in terms.items():
            for (mr, jr), y in list(out.items()):
                if ma > v and mr == m - (ma - v):
                    acc[ja + jr] = acc.get(ja + jr, Fraction(0)) + x * y
        out.update({(m, jj - j): -s / c for jj, s in acc.items() if s})
    return q_min, q_max, out


def all_fractions(s):
    return all(type(v) is Fraction for _, row in s.rows() for _, v in row.items())


@given(qz_series(), qz_series())
def test_qz_mul_matches_reference_convolution(a, b):
    ab = qz_mul(a, b)
    assert (ab.q_min, ab.q_max) == (a.q_min + b.q_min,
                                    min(a.q_max + b.q_min, b.q_max + a.q_min))
    assert qz_terms(ab) == ref_qz_mul(a, b, ab.q_max)
    assert all_fractions(ab)


@given(qz_series(monomial_lead=True))
def test_qz_invert_matches_reference_recurrence(a):
    inv = qz_invert(a)
    q_min, q_max, terms = ref_qz_invert(a)
    assert (inv.q_min, inv.q_max) == (q_min, q_max)
    assert qz_terms(inv) == terms
    assert all_fractions(inv)


def test_qz_invert_non_unit_lead_and_negative_q_min():
    # lead 3 z^2 q^-2, rational coefficients above it
    a = QZSeries(-2, 3, {-2: LaurentPoly({2: 3}),
                         -1: LaurentPoly({0: Fraction(1, 2), 3: -1}),
                         1: LaurentPoly({-1: Fraction(-2, 3), 1: 5})})
    inv = qz_invert(a)
    q_min, q_max, terms = ref_qz_invert(a)
    assert (inv.q_min, inv.q_max) == (q_min, q_max) == (2, 7)
    assert inv.row(2) == LaurentPoly({-2: Fraction(1, 3)})
    assert qz_terms(inv) == terms
    assert all_fractions(inv)
    prod = qz_mul(a, inv)
    assert qz_terms(prod) == {(0, 0): 1}
    assert all_fractions(prod)


def record_slot_widths(monkeypatch):
    """The slot widths, in bytes, of every row that series._pack packs."""
    widths = []

    def pack(row, nb):
        widths.append(nb)
        return _pack(row, nb)

    monkeypatch.setattr(series, "_pack", pack)
    return widths


@pytest.mark.parametrize("bits", [8, 61])
def test_qz_invert_widens_the_slot_for_growing_rows(monkeypatch, bits):
    # 1 / (1 - 2^bits z q) = sum 2^(bits i) z^i q^i: the bound grows by
    # 2^bits a row, so the slot widens again and again; for bits = 8 it
    # needs exactly one byte more every row
    x = 2**bits
    a = QZSeries(0, 12, {0: LaurentPoly({0: 1}), 1: LaurentPoly({1: -x})})
    widths = record_slot_widths(monkeypatch)
    inv = qz_invert(a)
    assert len(set(widths)) >= 3
    assert inv.rows() == [(i, LaurentPoly({i: x**i})) for i in range(13)]
    q_min, q_max, terms = ref_qz_invert(a)
    assert (inv.q_min, inv.q_max) == (q_min, q_max) and qz_terms(inv) == terms


def test_qz_invert_widens_the_slot_with_a_non_unit_lead(monkeypatch):
    # c (1 - x q)^2 with c = -3/2 and x = (2^40 / 5)(1 + z): the inverse is
    # (1 / c) sum (i + 1) x^i q^i.  Over D = 50 the lead is -75, and its
    # powers enter the recurrence through the q^2 row; the two-term rows
    # made at one slot width are multiplied at the next
    c, s = Fraction(-3, 2), Fraction(2**40, 5)
    a = QZSeries(0, 10, {0: LaurentPoly({0: c}),
                         1: LaurentPoly({0: -2 * c * s, 1: -2 * c * s}),
                         2: LaurentPoly({0: c * s * s, 1: 2 * c * s * s, 2: c * s * s})})
    widths = record_slot_widths(monkeypatch)
    inv = qz_invert(a)
    assert len(set(widths)) >= 3
    assert inv.rows() == [(i, LaurentPoly({l: (i + 1) * s**i * math.comb(i, l) / c
                                           for l in range(i + 1)})) for i in range(11)]
    q_min, q_max, terms = ref_qz_invert(a)
    assert (inv.q_min, inv.q_max) == (q_min, q_max) and qz_terms(inv) == terms
    assert all_fractions(inv)


def test_delta_path_packs_each_row_once_per_width(monkeypatch):
    # qz_mul and qz_invert share one pack cache across their q-rows; the
    # packed rows are kept in calls, so their ids stay distinct.  The
    # counts are those of the drivers that packed each row once by hand
    d = delta(62)
    calls = []

    def pack(row, nb):
        calls.append((row, nb))
        return _pack(row, nb)

    monkeypatch.setattr(series, "_pack", pack)
    for build, most in ((lambda: delta(62), 105), (lambda: qz_invert(d), 714)):
        calls.clear()
        build()
        packed = [(id(row), nb) for row, nb in calls]
        assert len(set(packed)) == len(packed) <= most


@pytest.mark.parametrize("k", [1, 7, 8, 9, 63, 64, 400])
def test_qz_mul_at_the_slot_bound(k):
    # rows of all 2^k - 1 against rows of all -(2^k - 1): the q^1 row sums
    # two products, so its middle slot is 2 n (2^k - 1)^2, the largest
    # row bound, which sets the one slot width of the call
    top = 2**k - 1
    for n in (1, 2, 3, 255, 256):
        tent = [min(i + 1, 2 * n - 1 - i) for i in range(2 * n - 1)]
        for sa, sb in ((1, -1), (-1, -1)):
            a, b = (QZSeries(0, 1, {m: LaurentPoly(dict(enumerate([sign * top] * n)))
                                    for m in (0, 1)}) for sign in (sa, sb))
            ab = qz_mul(a, b)
            for m in (0, 1):
                assert ab.row(m) == LaurentPoly(
                    {i: (m + 1) * sa * sb * top * top * t for i, t in enumerate(tent)})


# dict-of-Fraction reference for LaurentPoly products on the dense kernel
laurent_dicts = st.dictionaries(st.integers(-5, 5), fracs, max_size=6)


def ref_laurent_mul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + v1 * v2
    return {e: v for e, v in out.items() if v}


def laurent_terms(p):
    assert all(type(v) is Fraction for _, v in p.items())
    return dict(p.items())


@given(laurent_dicts, laurent_dicts, st.integers(-3, 3))
def test_laurent_mul_matches_reference_convolution(da, db, k):
    a, b = LaurentPoly(da), LaurentPoly(db)
    assert laurent_terms(a * b) == ref_laurent_mul(da, db)
    assert laurent_terms(a * b) == laurent_terms(b * a)
    assert laurent_terms(a * k) == laurent_terms(k * a) == {e: v * k for e, v in a.items() if k}


def test_laurent_mul_cancellation_and_zero():
    one_plus, one_minus = LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, 1: -1})
    assert laurent_terms(one_plus * one_minus) == {0: 1, 2: -1}
    # (z^-1 + z)(z^-1 - z) cancels the middle term z^0
    p, q = LaurentPoly({-1: 1, 1: 1}), LaurentPoly({-1: 1, 1: -1})
    assert laurent_terms(p * q) == {-2: 1, 2: -1}
    half = LaurentPoly({-2: Fraction(1, 2), 3: Fraction(-2, 3)})
    assert laurent_terms(half * LaurentPoly({0: 2})) == {-2: 1, 3: Fraction(-4, 3)}
    assert (half * LaurentPoly()).is_zero() and (LaurentPoly() * half).is_zero()
    assert (half * 0).is_zero() and (half * Fraction(0)).is_zero()


def ref_add(a, b):
    out = {e: a.get(e, Fraction(0)) + b.get(e, Fraction(0)) for e in set(a) | set(b)}
    return {e: v for e, v in out.items() if v}


def ref_palindromic(a):
    return all(v == a.get(-e, Fraction(0)) for e, v in a.items())


@st.composite
def laurent_pairs(draw):
    """Two coefficient dicts; the second cancels a random part of the
    first, so sums cancel at either end, and is sometimes a palindrome."""
    da = draw(laurent_dicts)
    db = {e: -v for e, v in da.items() if draw(st.booleans())}
    db.update(draw(st.dictionaries(st.integers(-5, 5), fracs, max_size=3)))
    if draw(st.booleans()):
        db = {**db, **{-e: v for e, v in db.items()}}
    return da, db


@given(laurent_pairs(), fracs)
def test_dense_laurent_matches_dict_reference(pair, k):
    da, db = pair
    a, b = LaurentPoly(da), LaurentPoly(db)
    ra, rb = ref_add(da, {}), ref_add(db, {})
    assert laurent_terms(a) == ra and laurent_terms(b) == rb
    assert laurent_terms(a + b) == ref_add(ra, rb)
    assert laurent_terms(a - b) == ref_add(ra, {e: -v for e, v in rb.items()})
    assert laurent_terms(-a) == {e: -v for e, v in ra.items()}
    assert laurent_terms(a.scale(k)) == {e: v * k for e, v in ra.items() if k}
    assert (a == b) == (ra == rb)
    assert a + b == LaurentPoly(ref_add(ra, rb))
    assert hash(a + b) == hash(LaurentPoly(ref_add(ra, rb)))
    for p, r in ((a, ra), (b, rb), (a + b, ref_add(ra, rb))):
        assert p.width() == (max(r) - min(r) if r else 0)
        assert p.is_palindromic() == ref_palindromic(r)
        assert p.is_zero() == (not r)
        assert all(p.coeff(e) == r.get(e, 0) for e in range(-7, 8))


def test_integral_coefficients_are_stored_as_int():
    two, frac_two = LaurentPoly({0: 2}), LaurentPoly({0: Fraction(2)})
    assert two == frac_two and hash(two) == hash(frac_two)
    assert type(frac_two._row[0]) is int
    half = LaurentPoly({-1: Fraction(1, 2), 1: Fraction(3, 2)})
    assert type((half + half)._row[0]) is int and type(half.scale(4)._row[-1]) is int
    assert (half - half)._row == [] and half - half == LaurentPoly()


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        LaurentPoly({0: 0.5})
    with pytest.raises(TypeError):
        LaurentPoly({0: "1/2"})
    with pytest.raises(TypeError):
        MultiSeries(1, (0, 0), {(CurveClass(0, 1), 0): 0.5})
    # a term that the window or the weight bound would drop is still checked
    with pytest.raises(TypeError):
        MultiSeries(1, (0, 0), {(CurveClass(0, 1), 5): 0.5})
    with pytest.raises(TypeError):
        MultiSeries(1, (0, 0), {(CurveClass(0, 3), 0): 0.5})
    with pytest.raises(TypeError):
        KY_KERNEL.scale(0.5)
    with pytest.raises(TypeError):
        KY_KERNEL * 1.0
    with pytest.raises(TypeError):
        one(1, (0, 0)).scale(0.5)
    with pytest.raises(TypeError):
        0.5 * one(1, (0, 0))


def row_sum_by_schoolbook(pairs):
    """The convolution loop that _row_sum replaced: one Python step per
    coefficient product.  The oracle for the Kronecker kernel."""
    if not pairs:
        return 0, []
    lo = min(la + lb for (la, _), (lb, _) in pairs)
    acc = [0] * (max(la + len(a) + lb + len(b) for (la, a), (lb, b) in pairs) - lo - 1)
    for (la, a), (lb, b) in pairs:
        if len(a) > len(b):
            a, b = b, a
        n = len(b)
        for i, x in enumerate(a, la + lb - lo):
            if x:
                acc[i:i + n] = [u + x * y for u, y in zip(acc[i:i + n], b)]
    return _trim(lo, acc)


def typed(result):
    lo, row = result
    return lo, row, [type(v) for v in row]


row_values = st.one_of(
    st.integers(-2**400, 2**400), st.integers(-3, 3), st.just(0),
    st.fractions(max_denominator=12),
    st.builds(Fraction, st.integers(-2**400, 2**400), st.integers(1, 2**64)))


@st.composite
def row_pairs(draw):
    """Up to 8 pairs drawn from a pool of rows, so a row can recur in
    several pairs; rows may be empty, have zero interiors or ends, and
    mix ints with Fractions of different denominators."""
    pool = draw(st.lists(st.lists(row_values, max_size=12), min_size=1, max_size=6))
    index = st.integers(0, len(pool) - 1)
    offset = st.integers(-10, 10)
    return [((draw(offset), pool[draw(index)]), (draw(offset), pool[draw(index)]))
            for _ in range(draw(st.integers(0, 8)))]


@given(row_pairs())
def test_kronecker_row_sum_matches_schoolbook(pairs):
    assert typed(_row_sum(pairs)) == typed(row_sum_by_schoolbook(pairs))


def test_row_sum_of_cancelling_pairs_is_empty():
    a, b = [3, 0, -7, 2**200], [1, -1]
    assert _row_sum([((0, a), (-2, b)), ((-3, [-v for v in a]), (1, b))]) == (0, [])
    h = [Fraction(1, 3), 0, Fraction(-5, 7)]
    assert _row_sum([((1, h), (0, h)), ((0, h), (1, [-v for v in h]))]) == (0, [])
    assert _row_sum([]) == (0, []) and _row_sum([((0, []), (0, [1]))]) == (0, [])
    assert _row_sum([((0, [0, 0]), (5, [2**90]))]) == (0, [])


@pytest.mark.parametrize("k", [1, 7, 8, 9, 63, 64, 400])
def test_row_sum_at_the_slot_bound(k):
    # all 2^k - 1 against all -(2^k - 1): every product is as large as
    # the bound allows, and the middle slot sums min(len a, len b) of
    # them with one sign (times the number of pairs), so it meets the bound
    top = 2**k - 1
    for n in (1, 2, 3, 255, 256):
        plus, minus = [top] * n, [-top] * n
        tent = [min(i + 1, 2 * n - 1 - i) for i in range(2 * n - 1)]
        for pairs, lo, sign in (([((0, plus), (0, minus))], 0, -1),
                                ([((0, minus), (0, minus))], 0, 1),
                                ([((2, plus), (-3, minus))] * 8, -1, -8)):
            assert _row_sum(pairs) == (lo, [sign * top * top * t for t in tent])
