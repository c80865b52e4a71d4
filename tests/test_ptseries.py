import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from localk3.invariants import conjectural_J, hilb_euler
from localk3.lattice import (CurveClass, FIBER, MukaiVector, SECTION, ZERO_CLASS,
                             enumerate_effective)
from localk3 import ptseries
from localk3.modular import inv_delta
from localk3.ptseries import (BPSTable, ConsistencyError, PTParams, _depth, _factor_rows,
                              _ky_row, _reported, _signed_weight, bps_extract, gv_extract,
                              ky_identity_check, ky_pairs_euler, pt_borcherds, pt_main,
                              pt_xbar)
from localk3.series import (KY_KERNEL, LaurentPoly, MultiSeries, QZSeries, _genus_row, _trim,
                            exp, log, pow_binomial)
from oracles import kernel_coeff, kernel_decompose, kernel_rows, strip_covers_by_recursion

# SHA-256 of the sorted "a b z coefficient" lines of pt_main(PTParams(8, 10))
# unsigned and signed, and of pt_xbar(PTParams(6, 8)), recorded from the
# power-sum exp on Fraction dicts
PT_MAIN_8_SHA256 = "092c4cbd390c6617e7fcb0a820bb6ae06fcb59d555e913679366df0f0824fa1e"
PT_MAIN_8_SIGNED_SHA256 = "21c12a4b3d2288d0a17e2e9f32f25cd43c1a23b58d63fc29764ec12f8c881a4b"
PT_XBAR_6_SHA256 = "f210dc9111981c7662a7a6a21d4e793ef0952693dcb795b642f19a9f0c63d824"
# the same for pt_main(PTParams(12, 14)) in both signs and pt_xbar(PTParams(8, 10)),
# recorded from the exponent summed in Fractions and exp's D^w w! denominators;
# divisibility up to 12 gives the largest exponent denominators
PT_MAIN_12_SHA256 = "bb6e869e53334fe34b38f2aeceb5a9113bafcaabc91c50130e48cd1716419cbc"
PT_MAIN_12_SIGNED_SHA256 = "d97a532a275255a43a475f6735e2d2f81762a9781d81707853170bab06df5609"
PT_XBAR_8_SHA256 = "3f5eebd7f37c70de3a6c4ff4683c5aba0373584e27a7f743bf3f573ef732ea86"


def one(y_max, z_window):
    return MultiSeries(y_max, z_window, {(ZERO_CLASS, 0): 1})


def corrupt(series, klass, z_exp, delta):
    return series + MultiSeries(series.y_max, series.z_window, {(klass, z_exp): delta})


def test_pt_params_padding():
    # the pad is _depth(y_max - 1): classes of weight <= y_max - 1
    assert PTParams(3, 6).z_pad == 0   # weight 2 squares to at most 0
    assert PTParams(4, 6).z_pad == 1   # (1,2) squares to 2
    assert PTParams(0, 3).z_pad == 0
    assert PTParams(16, 18).z_pad == 28  # (4,11) squares to 56
    with pytest.raises(ValueError):
        PTParams(-1, 3)


def test_depth_is_the_largest_half_square():
    for w in range(31):
        brute = max([0] + [b.self_intersection() // 2 for b in enumerate_effective(w)])
        assert _depth(w) == brute, w
    assert _depth(-1) == 0
    # superadditive, which is what lets one weight bound a product's parts:
    # a part of weight v of a weight-w term at z <= T(w) lies at z <= T(v)
    assert all(_depth(a) + _depth(b) <= _depth(a + b) for a in range(61) for b in range(61))


class Captured(Exception):
    pass


def exponent(build, params, monkeypatch):
    """The exponent that build (pt_main or pt_xbar) passes to exp, taken
    before exp runs."""
    def stop(series, tops=None):
        raise Captured(series)

    monkeypatch.setattr(ptseries, "exp", stop)
    with pytest.raises(Captured) as info:
        build(params)
    return info.value.args[0]


def sign(z):
    """(-1)^(|z| - 1), the signed variant's factor on the z^{+-n} term."""
    return 1 if z % 2 else -1


def xbar_weight(r, z):
    # N(r', beta, z) = 2 J(r', beta, r' + z) with orientation eps(r' + z),
    # on the reading r' = r for z >= 0 and r' = -r for z < 0
    r = r if z >= 0 else -r
    return 2 * (1 if r + z > 0 else -1) * (z + 2 * r)


# each build, its sign flag, and its exponent's weight as the paper writes
# it, on r >= 0 and z = +-n
BUILDS = {
    "unsigned": (pt_main, False, lambda r, z: abs(z) + 2 * r),
    "signed": (pt_main, True, lambda r, z: (abs(z) + 2 * r) * sign(z)),
    "xbar": (pt_xbar, False, xbar_weight),
}


def exponent_by_brute_force(params, weight):
    """S term by term over a box well past the bound r(r + n) <= beta^2/2
    + (div beta)^2: every nonzero J is counted, and counted once."""
    lo, hi = window = params.work_window
    terms = {}
    for beta in enumerate_effective(params.y_max):
        k_max = beta.divisibility()
        bound = beta.self_intersection() // 2 + k_max * k_max
        for r in range(2 * math.isqrt(abs(bound)) + 3):
            for z in range(lo, hi + 1):
                if r or z > 0:  # r = 0 only on the z^n side, n > 0
                    j = conjectural_J(MukaiVector(r, beta, r + abs(z)))
                    terms[beta, z] = terms.get((beta, z), 0) + weight(r, z) * j
    return MultiSeries(params.y_max, window, terms)


def test_exponent_drops_no_factor(monkeypatch):
    for variant, (build, signed, weight) in BUILDS.items():
        for y_max in range(7):
            params = PTParams(y_max, y_max + 2, signed)
            assert (exponent(build, params, monkeypatch)
                    == exponent_by_brute_force(params, weight)), (variant, y_max)


def multiple_cover_sum(beta, z):
    """sum_{k | gcd(a, b, z)} (1/k) ky_pairs_euler(h(beta/k), z/k), with
    h(gamma) = gamma^2/2 + 1 and a term with h < 0 counted as 0."""
    total = Fraction(0)
    for k in range(1, beta.divisibility() + 1):
        if beta.a % k or beta.b % k or z % k:
            continue
        h = CurveClass(beta.a // k, beta.b // k).self_intersection() // 2 + 1
        if h >= 0:
            total += Fraction(ky_pairs_euler(h, z // k), k)
    return total


@pytest.mark.parametrize("y_max, z_max", [(8, 12), (12, 30)])
def test_exponent_is_the_multiple_cover_sum_of_ky_counts(y_max, z_max, monkeypatch):
    # Toda's closing conjecture, read on the exact exponent: with the
    # conjectural J, S_beta(z) is a multiple-cover sum of Kawai-Yoshioka counts
    unsigned = exponent(pt_main, PTParams(y_max, z_max), monkeypatch)
    signed = exponent(pt_main, PTParams(y_max, z_max, True), monkeypatch)
    xbar = exponent(pt_xbar, PTParams(y_max, z_max), monkeypatch)
    lo, hi = PTParams(y_max, z_max).work_window
    mismatches = []
    for beta in enumerate_effective(y_max):
        for z in range(lo, hi + 1):
            s = multiple_cover_sum(beta, z)
            got = (unsigned.coeff(beta, z), signed.coeff(beta, z), xbar.coeff(beta, z))
            if got != (s, sign(z) * s, 2 * s):
                mismatches.append((beta, z, s, got))
    assert mismatches == []


def half_square_top(y_max, z_max, w):
    """T(w) = z_max + the largest beta^2/2 over effective classes of weight
    <= y_max - w, by brute force: the top of weight w in every build."""
    return z_max + max([0] + [b.self_intersection() // 2
                              for b in enumerate_effective(y_max - w)])


@pytest.mark.parametrize("variant", list(BUILDS))
@pytest.mark.parametrize("y_max, z_max", [(8, 10), (10, 12), (12, 14), (12, 30)])
def test_exp_on_per_class_tops_is_exact(variant, y_max, z_max, monkeypatch):
    # exp(S, tops), with the tops the build passes, equals exp(S) on the
    # one padded window wherever a class keeps a coefficient, and is integral
    build, signed, _ = BUILDS[variant]
    seen = []
    monkeypatch.setattr(ptseries, "exp", lambda s, tops=None: seen.append((s, tops)) or exp(s, tops))
    build(PTParams(y_max, z_max, signed))
    s, tops = seen[0]
    cut, full = exp(s, tops), exp(s)
    assert cut._den == 1 and full._den != 1
    for beta in enumerate_effective(y_max):
        top = half_square_top(y_max, z_max, beta.weight)
        assert ([cut.coeff(beta, k) for k in range(s.z_lo, top + 1)]
                == [full.coeff(beta, k) for k in range(s.z_lo, top + 1)]), (beta, top)
        assert all(k <= top for cls, k, _ in cut.terms() if cls == beta), beta


def test_exponent_rows_are_shared_by_square_and_divisibility(monkeypatch):
    # S_beta depends on beta only through (beta^2, div beta): one row object per pair
    s = exponent(pt_main, PTParams(10, 12), monkeypatch)
    rows = {}
    for beta in enumerate_effective(10):
        if s._blocks[beta.weight].get(beta.a):
            rows.setdefault((beta.self_intersection(), beta.divisibility()), set()).add(
                id(s._blocks[beta.weight][beta.a][1]))
    assert len(rows) == 34 and all(len(ids) == 1 for ids in rows.values())


def test_scaled_exponent_keeps_its_rows_shared():
    # pt_xbar hands exp 2S: scale builds one row per shared row object, as
    # many as S has, with the values of a class-by-class scale
    s = ptseries._exponent(PTParams(10, 12))
    doubled = s.scale(2)

    def distinct(series):
        return {id(row) for block in series._blocks for _, row in block.values()}

    assert len(distinct(s)) == len(distinct(doubled)) == 34
    assert doubled == MultiSeries(s.y_max, s.z_window,
                                  {(cls, k): 2 * v for cls, k, v in s.terms()})


def test_J_is_looked_up_once_per_key(monkeypatch):
    keys = []

    def counted(v):
        keys.append((v.mukai_square(), v.divisibility()))
        return conjectural_J(v)

    monkeypatch.setattr(ptseries, "conjectural_J", counted)
    pt_main(PTParams(10, 12))
    assert keys and len(keys) == len(set(keys))


def test_pt_main_spot_coefficients():
    s = pt_main(PTParams(3, 4))
    assert s.coeff(ZERO_CLASS, 0) == 1
    assert s.coeff(FIBER, 1) == 24       # fiber class: one 24 per point
    assert s.coeff(SECTION, 1) == 1      # rigid section contributes once
    assert s.coeff(SECTION, -1) == 0
    assert s.coeff(CurveClass(1, 1), 0) == 2
    assert s.coeff(CurveClass(0, 2), 0) == 5


def test_pt_main_trivial_truncation():
    assert pt_main(PTParams(0, 2)) == one(0, (-2, 2))


def test_exp_and_product_forms_agree():
    for signed in (False, True):
        p = PTParams(3, 4, signed)
        assert pt_main(p) == pt_borcherds(p)


def borcherds_by_mul(params):
    """The product form with one full series product per binomial factor
    (beta, r, n), found by brute force over the window: the oracle for
    pt_borcherds, which merges the factors of each class beta into one
    F_h, h = beta^2/2 + 1, built once per h, and applies it in place."""
    lo, hi = window = params.work_window
    out = one(params.y_max, window)
    for beta in enumerate_effective(params.y_max):
        for z in range(lo, hi + 1):
            n = abs(z)
            # a nonzero chi needs r^2 <= beta^2/2 + 1 <= _depth(y_max) + 1, so r <= hi + 1
            for r in range(0 if z >= 0 else 1, hi + 2):
                e = (n + 2 * r) * hilb_euler(beta.self_intersection() // 2 + 1 - r * (n + r))
                if not e:
                    continue
                if params.signed:
                    factor = pow_binomial(beta, z, _signed_weight(n), e, params.y_max, window)
                else:
                    factor = pow_binomial(beta, z, -1, -e, params.y_max, window)
                out = out.mul(factor)
    return _reported(out, params, "borcherds_by_mul")


@pytest.mark.parametrize("signed", [False, True])
def test_borcherds_in_place_matches_product_by_mul(signed):
    for y_max in range(7):
        p = PTParams(y_max, y_max + 2, signed)
        assert pt_borcherds(p) == borcherds_by_mul(p)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("y_max, z_max", [(8, 10), (10, 12), (12, 14), (12, 30)])
def test_product_form_equals_exponential_form(y_max, z_max, signed):
    p = PTParams(y_max, z_max, signed)
    assert pt_borcherds(p) == pt_main(p)


@pytest.mark.parametrize("y_max", range(11))
def test_product_form_equals_exponential_form_at_small_sizes(y_max):
    # per-class tops at every small weight bound, in the narrowest windows too
    for z_max in (0, 1, 3, y_max + 2):
        for signed in (False, True):
            p = PTParams(y_max, z_max, signed)
            assert pt_borcherds(p) == pt_main(p), (z_max, signed)


@pytest.mark.parametrize("z_max", [0, 1, 3])
@pytest.mark.parametrize("y_max", [0, 1, 2])
def test_borcherds_at_the_smallest_sizes(y_max, z_max):
    # y_max = 0 has no class, y_max = 1 only classes with K = 1, and
    # y_max = 2 the first classes with K = 2
    for signed in (False, True):
        p = PTParams(y_max, z_max, signed)
        assert pt_borcherds(p) == pt_main(p) == borcherds_by_mul(p)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("y_max, z_max", [(4, 0), (6, 1), (8, 3)])
def test_borcherds_squares_a_class_of_half_the_weight(y_max, z_max, signed):
    # a class of weight exactly y_max/2 has K = 2: its factor's t^2 row
    # reaches 2 beta at weight y_max, which the linear term alone misses
    p = PTParams(y_max, z_max, signed)
    assert pt_borcherds(p) == pt_main(p)


@pytest.mark.parametrize("signed", [False, True])
def test_factor_rows_match_the_product_by_mul(signed):
    # F_h as a series in t, with the fiber class standing for t: the
    # product of its binomials by mul, cut to the window after each one;
    # a smaller K reads a prefix of the rows, K = 1 the signed KY row, and
    # tops falling with k, the factors still run to z = tops[1], cut each
    # row at its own top and change nothing below it
    lo, hi = window = (-9, 9)
    for h in range(5):
        ref = one(4, window)
        for z in range(max(lo, 1 - h), hi + 1):
            e = ky_pairs_euler(h, z)
            if signed:
                ref = ref.mul(pow_binomial(FIBER, z, _signed_weight(abs(z)), e, 4, window))
            else:
                ref = ref.mul(pow_binomial(FIBER, z, -1, -e, 4, window))
        rows = _factor_rows(h, signed, lo, [hi] * 5)
        assert [LaurentPoly._of(1, *row) for row in rows] == [
            LaurentPoly({z: ref.coeff(CurveClass(0, k), z) for z in range(lo, hi + 1)})
            for k in range(5)], h
        for k in (1, 2, 3):
            assert _factor_rows(h, signed, lo, [hi] * (k + 1)) == rows[:k + 1], (h, k)
        tops = [hi, hi, 4, 1, 0]
        assert _factor_rows(h, signed, lo, tops) == [
            _trim(rlo, row[:max(top - rlo + 1, 0)]) for (rlo, row), top in zip(rows, tops)], h


def sha256_terms(series):
    terms = sorted((cls.a, cls.b, k, v) for cls, k, v in series.terms())
    return hashlib.sha256("\n".join(f"{a} {b} {k} {v}" for a, b, k, v in terms).encode()).hexdigest()


def test_pairs_path_digests_at_y_8():
    assert sha256_terms(pt_main(PTParams(8, 10))) == PT_MAIN_8_SHA256
    assert sha256_terms(pt_main(PTParams(8, 10, True))) == PT_MAIN_8_SIGNED_SHA256
    assert sha256_terms(pt_xbar(PTParams(6, 8))) == PT_XBAR_6_SHA256


def test_pairs_path_digests_at_y_12():
    assert sha256_terms(pt_main(PTParams(12, 14))) == PT_MAIN_12_SHA256
    assert sha256_terms(pt_main(PTParams(12, 14, True))) == PT_MAIN_12_SIGNED_SHA256
    assert sha256_terms(pt_xbar(PTParams(8, 10))) == PT_XBAR_8_SHA256


def test_signed_and_unsigned_differ():
    assert pt_main(PTParams(2, 3, True)) != pt_main(PTParams(2, 3, False))


def test_pt_coefficients_are_integers():
    # rational multiple-cover contributions must cancel in the output
    for signed in (False, True):
        s = pt_main(PTParams(3, 4, signed))
        assert all(v.denominator == 1 for _, _, v in s.terms())


def test_xbar_squares_the_pair_series():
    p = PTParams(3, 4)
    single = pt_main(PTParams(3, 4 + p.z_pad))
    squared = single.mul(single).restrict(-4, 4)
    assert pt_xbar(p) == squared
    assert pt_xbar(p).coeff(FIBER, 1) == 48


def test_xbar_has_no_signed_variant():
    with pytest.raises(ValueError):
        pt_xbar(PTParams(2, 3, signed=True))


def test_ky_pairs_spot_values():
    assert ky_pairs_euler(0, 3) == 3
    assert ky_pairs_euler(1, -1) == 0
    assert ky_pairs_euler(1, 0) == 2
    assert ky_pairs_euler(2, -1) == 3
    assert ky_pairs_euler(2, 0) == 48
    assert ky_pairs_euler(2, 1) == 327
    assert ky_pairs_euler(2, 2) == 648


def test_ky_pairs_vanish_below_one_minus_h():
    for h in range(5):
        for n in range(-6, 1 - h):
            assert ky_pairs_euler(h, n) == 0


def test_ky_pairs_rejects_negative_h():
    with pytest.raises(ValueError):
        ky_pairs_euler(-1, 0)


def test_ky_pairs_difference_identity():
    # the r = 0 term is the only asymmetric one
    for h in range(7):
        for n in range(7):
            assert ky_pairs_euler(h, n) - ky_pairs_euler(h, -n) == n * hilb_euler(h)


@pytest.mark.parametrize("h", range(46))
def test_ky_row_is_one_pass_of_ky_pairs_euler(h):
    assert _ky_row(h, 30) == [ky_pairs_euler(h, n) for n in range(-30, 31)]
    assert _ky_row(h, 0) == [ky_pairs_euler(h, 0)]


def test_ky_identity_holds():
    assert ky_identity_check(4, 8) == []
    assert ky_identity_check(-1, 3) == []
    assert ky_identity_check(2, 1) == []


def test_wall_identity_inverts_the_triple_product_delta(monkeypatch):
    # the right side is qz_invert(delta(q_max + 2)), not inv_delta's
    # recurrence, so the identity tests Delta as the triple product builds it
    calls = []
    for name in ("qz_invert", "delta"):
        def spy(*args, _fn=getattr(ptseries, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(ptseries, name, spy)
    assert ky_identity_check(4, 4) == []
    assert sorted(calls) == ["delta", "qz_invert"]


def test_ky_identity_check_rejects_bad_params():
    with pytest.raises(ValueError):
        ky_identity_check(-2, 5)
    with pytest.raises(ValueError):
        ky_identity_check(3, 0)


def test_ky_identity_flags_exactly_the_corrupted_coefficients():
    def corrupted(h, w):
        row = _ky_row(h, w)
        if h == 1:
            row[w + 1] += 1
        return row

    bad = ky_identity_check(2, 5, pairs=corrupted)
    # the bump spreads through the kernel: z^0, z^1, z^2 of the q^0 row
    assert [(m, j) for m, j, _, _ in bad] == [(0, 0), (0, 1), (0, 2)]
    deltas = {j: left - right for _, j, left, right in bad}
    assert deltas == {0: 1, 1: -2, 2: 1}


def test_ky_identity_compares_rational_rows_exactly():
    # a bump of 1/2 puts the whole q^0 row of the left side over 2, so a
    # comparison of raw numerators would flag every coefficient of it
    def corrupted(h, w):
        row = _ky_row(h, w)
        if h == 1:
            row[w + 1] += Fraction(1, 2)
        return row

    bad = ky_identity_check(2, 5, pairs=corrupted)
    assert [(m, j) for m, j, _, _ in bad] == [(0, 0), (0, 1), (0, 2)]
    assert {j: left - right for _, j, left, right in bad} == {
        0: Fraction(1, 2), 1: -1, 2: Fraction(1, 2)}
    # a row over denominator 2 reads back in Fractions, one over 1 in ints
    assert all(type(left) is Fraction and type(right) is int for _, _, left, right in bad)


def test_bps_extract_low_rows():
    table = bps_extract(inv_delta(6), 6)
    assert table.get(0, 0) == 1
    assert table.get(1, 0) == 0
    assert table.get(0, 1) == 24
    assert table.get(1, 1) == -2
    assert table.get(0, 2) == 324
    assert table.get(1, 2) == -54
    assert table.get(2, 2) == 3
    assert table.computed_h == frozenset(range(8))


def test_bps_genus_zero_row_is_hilb():
    table = bps_extract(inv_delta(6), 6)
    for h in range(7):
        assert table.get(0, h) == hilb_euler(h)


def test_bps_vanishes_above_diagonal():
    table = bps_extract(inv_delta(6), 6)
    for (g, h) in table.entries:
        assert g <= h


def test_bps_extract_rejects_overreach():
    with pytest.raises(ValueError):
        bps_extract(inv_delta(3), 5)


def kernel_power(g):
    power = LaurentPoly({0: 1})
    for _ in range(g):
        power = power * KY_KERNEL
    return power


@pytest.mark.parametrize("g", range(16))
def test_kernel_closed_form_matches_repeated_product(g):
    power = kernel_power(g)
    assert power == LaurentPoly({j: kernel_coeff(g, j) for j in range(-g - 1, g + 2)})
    assert kernel_rows(g)[g] == [kernel_coeff(g, j) for j in range(g + 1)]
    assert kernel_decompose(power, kernel_rows(g)) == {g: 1}
    assert _genus_row(power._row[g:]) == [0] * g + [1]


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), max_size=8))
def test_kernel_decompose_round_trips_palindromic_polys(half):
    p = LaurentPoly({j: c for i, c in enumerate(half) for j in (i, -i)})
    decomposition = kernel_decompose(p, kernel_rows(len(half)))
    assert all(type(c) is Fraction and c for c in decomposition.values())
    rebuilt = LaurentPoly()
    for g, c in decomposition.items():
        rebuilt = rebuilt + kernel_power(g) * c
    assert rebuilt == p


def test_kernel_decompose_rejects_non_palindromic():
    with pytest.raises(ValueError):
        kernel_decompose(LaurentPoly({2: Fraction(1, 2), -1: 3, 0: 1}), kernel_rows(2))


def genus_row_by_elimination(half):
    p = LaurentPoly({j: c for i, c in enumerate(half) for j in (i, -i)})
    by_g = kernel_decompose(p, kernel_rows(len(half)))
    return [by_g.get(g, 0) for g in range(len(half))]


@given(st.lists(st.integers(0, 2 ** 70) | st.integers(0, 300), max_size=14),
       st.sampled_from([1, -1]), st.lists(st.sampled_from([1, -1])))
def test_genus_row_matches_the_elimination(half, sign, signs):
    # all of one sign fills the slots most; mixed signs cancel inside them
    mixed = [c * s for c, s in zip(half, signs + [sign] * len(half))]
    for row in ([sign * c for c in half], mixed):
        assert _genus_row(row) == genus_row_by_elimination(row)


# rows whose slot bound sum_j |c_j| L_2j (L_0 = 2, then 3, 7, 18, ...) sits
# just under, at or just over a byte boundary, then rows that sum_j |c_j|
# alone would put in too narrow a slot
@pytest.mark.parametrize("half", [
    [63], [-63], [64], [62, 1], [-62, -1], [0, 42], [0, 0, 18], [0, 0, 0, 0, 0, 1],
    [0, 10922], [-16383], [16384, 0, 0, 0],
    [126, 1], [-126, -1], [0] * 12 + [1], [1] * 9, [-1] * 9])
def test_genus_row_at_the_slot_bound(half):
    assert _genus_row(half) == genus_row_by_elimination(half)


def test_genus_rows_of_inv_delta_match_the_elimination():
    for m, p in inv_delta(60).rows():
        half = p._row[-p._lo:]
        assert _genus_row(half) == genus_row_by_elimination(half), m


def test_bps_extract_rejects_non_palindromic():
    src = QZSeries(-1, 0, {0: LaurentPoly({1: 1})})
    with pytest.raises(ValueError):
        bps_extract(src, 0)


def test_bps_extract_rejects_a_half_integral_row():
    # every r_{g,h} is an integer, and the basis change is unitriangular,
    # so a row over denominator 2 cannot be a genus row
    row = LaurentPoly({-1: Fraction(1, 2), 0: 3, 1: Fraction(1, 2)})
    with pytest.raises(ConsistencyError) as info:
        bps_extract(QZSeries(-1, 0, {-1: LaurentPoly({0: 1}), 0: row}), 0)
    assert info.value.offenders == [(1, -1, Fraction(1, 2)), (1, 0, 3), (1, 1, Fraction(1, 2))]


def test_bps_table_entries_are_ints():
    table = bps_extract(inv_delta(12), 12)
    assert all(type(v) is int for v in table.entries.values())
    assert type(table.get(5, 2)) is int


def signed_pt(y_max=3, z_max=8):
    return pt_main(PTParams(y_max, z_max, signed=True))


def test_gv_extract_matches_bps_table():
    recovered = gv_extract(signed_pt(), signed=True)
    reference = bps_extract(inv_delta(8), 8)
    assert recovered.mismatches_on_overlap(reference) == []
    assert recovered.computed_h == frozenset({0, 1, 2})
    assert recovered.get(2, 2) == 3


def test_gv_extract_unsigned_gives_same_table():
    plain = gv_extract(pt_main(PTParams(3, 8)))
    assert plain.get(0, 0) == 1
    for h in range(3):
        assert plain.get(0, h) == hilb_euler(h)
    assert plain.entries == gv_extract(signed_pt(), signed=True).entries


def test_gv_extract_of_one_is_empty():
    table = gv_extract(one(2, (-6, 6)))
    assert table.entries == {}
    assert table.computed_h == frozenset({0, 1})


def test_gv_extract_needs_room():
    with pytest.raises(ValueError):
        gv_extract(pt_main(PTParams(3, 2)))


def test_reported_names_exactly_the_non_integer_coefficients():
    params = PTParams(4, 4)  # padded by 1
    lo, hi = params.work_window
    pt = pt_main(params)
    wide = MultiSeries(4, (lo, hi), {(cls, k): v for cls, k, v in pt.terms()})
    # an integer change, or a half in the padding strip, is not reported
    assert _reported(corrupt(wide, SECTION, hi, Fraction(1, 2)), params, "x") == pt
    assert _reported(corrupt(wide, FIBER, 0, Fraction(-3)), params, "x") != pt
    bad = corrupt(corrupt(wide, SECTION, 1, Fraction(1, 2)), FIBER, -2, Fraction(2, 3))
    with pytest.raises(ConsistencyError, match="^x produced non-integer coefficients$") as info:
        _reported(bad, params, "x")
    assert info.value.offenders == [(FIBER, -2, pt.coeff(FIBER, -2) + Fraction(2, 3)),
                                    (SECTION, 1, pt.coeff(SECTION, 1) + Fraction(1, 2))]


def test_gv_extract_flags_support_corruption():
    # an off-center bump breaks the support bound |z| <= beta^2/2 + 1
    bad = corrupt(signed_pt(), CurveClass(1, 1), 2, Fraction(1))
    with pytest.raises(ConsistencyError) as info:
        gv_extract(bad, signed=True)
    assert any(cls == CurveClass(1, 1) for cls, _, _ in info.value.offenders)


def test_gv_extract_flags_square_dependence_breach():
    # a symmetric bump passes the row checks but disagrees with the
    # other classes of the same square; the signed flip turns the +1 at
    # z^0 into -1, so the kernel row of (1,1) moves by -(z - 2 + 1/z)
    bad = corrupt(signed_pt(), CurveClass(1, 1), 0, Fraction(1))
    with pytest.raises(ConsistencyError,
                       match="^classes 0,1 and 1,1 share beta\\^2 = 0 but extract different tables$"
                       ) as info:
        gv_extract(bad, signed=True)
    assert info.value.offenders == [(CurveClass(1, 1), -1, 1, 2), (CurveClass(1, 1), 0, 22, 20),
                                    (CurveClass(1, 1), 1, 1, 2)]


def test_gv_extract_flags_a_non_palindromic_row():
    # a bump at z^1 in (1,2), h = 2, adds z^2 - 2z + 1 to its kernel row
    # 3z^2 + 42z + 234 + 42/z + 3/z^2: inside the support, but lopsided
    bad = corrupt(signed_pt(), CurveClass(1, 2), 1, Fraction(1))
    with pytest.raises(ConsistencyError,
                       match="^class 1,2: polynomial is not palindromic in z$") as info:
        gv_extract(bad, signed=True)
    assert info.value.offenders == [(CurveClass(1, 2), j, c) for j, c in
                                    ((-2, 3), (-1, 42), (0, 235), (1, 40), (2, 4))]


def trusted_top(pt, beta):
    """The top of the range |z| <= top in which gv_extract trusts class beta
    of log(pt)."""
    return pt.z_hi - _depth(beta.weight - 1)


@given(st.integers(0, 7), st.integers(0, 20), st.booleans())
def test_log_is_exact_up_to_each_class_top(y_max, z_max, signed):
    pt = pt_main(PTParams(y_max, z_max, signed))
    # the reference window holds every term of pt and trusts all of [-z_max, z_max]
    wide = pt_main(PTParams(y_max, z_max + 2 * _depth(y_max) + 10, signed))
    got, reference = log(pt), log(wide)
    for beta in enumerate_effective(y_max):
        top = trusted_top(pt, beta)
        assert ([got.coeff(beta, k) for k in range(-top, top + 1)]
                == [reference.coeff(beta, k) for k in range(-top, top + 1)]), (beta, top)


def test_log_top_is_tight():
    # one coefficient past its top, a class of pt_main(8, 16) is polluted
    pt = pt_main(PTParams(8, 16, True))
    got, reference = log(pt), log(pt_main(PTParams(8, 16 + 2 * _depth(8) + 10, True)))
    past = {beta: trusted_top(pt, beta) + 1 for beta in enumerate_effective(8)}
    assert any(got.coeff(beta, k) != reference.coeff(beta, k) for beta, k in past.items())


@pytest.mark.parametrize("signed", [False, True])
def test_gv_extract_at_the_least_window_for_y_12(signed):
    # _gv_need(12) = 35: every class is decided at z_max = 35, and class 3,9
    # (h = 19, top 34 - _depth(11) = 19) is refused one below
    recovered = gv_extract(pt_main(PTParams(12, 35, signed)), signed)
    # no class of weight <= 12 has beta^2/2 = 11, 13 or 17
    assert recovered.computed_h == frozenset(range(20)) - {12, 14, 18}
    assert recovered.mismatches_on_overlap(bps_extract(inv_delta(19), 19)) == []
    with pytest.raises(ValueError,
                       match="^z-window too small for class 3,9 \\(needs 19, has 18\\)$"):
        gv_extract(pt_main(PTParams(12, 34, signed)), signed)


def test_gv_table_does_not_change_as_z_max_grows():
    tables = [gv_extract(pt_main(PTParams(8, z_max, True)), True) for z_max in (16, 30, 70)]
    assert tables[0].computed_h == frozenset(range(10)) - {8}
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("y_max, z_max", [(6, 30), (8, 70)])
@pytest.mark.parametrize("signed", [False, True])
def test_mobius_strip_matches_the_recursive_strip(y_max, z_max, signed):
    lseries = log(pt_main(PTParams(y_max, z_max, signed=signed)))
    stripped = ptseries._mobius_strip(lseries, signed)
    expected = strip_covers_by_recursion(lseries, signed)
    assert list(stripped) == enumerate_effective(y_max)
    assert stripped == {beta: LaurentPoly(row) for beta, row in expected.items()}
    # covers were really stripped: an imprimitive class differs from its row of L
    assert any(stripped[b] != LaurentPoly({k: v if k % 2 or not signed else -v
                                           for cls, k, v in lseries.terms() if cls == b})
               for b in stripped if b.divisibility() > 1)


def test_bps_table_overlap_comparison():
    a = BPSTable({(0, 1): Fraction(24)}, frozenset({0, 1}))
    b = BPSTable({(0, 1): Fraction(23), (0, 5): Fraction(1)}, frozenset({1, 5}))
    assert a.mismatches_on_overlap(b) == [(0, 1, Fraction(24), Fraction(23))]
    assert a.get(3, 1) == 0
