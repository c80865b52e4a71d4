import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from localk3.invariants import conjectural_J, hilb_euler
from localk3.lattice import (CurveClass, FIBER, MukaiVector, SECTION, ZERO_CLASS,
                             enumerate_effective)
from localk3.modular import inv_delta
from localk3.ptseries import (BPSTable, ConsistencyError, PTParams, _index_terms,
                              _kernel_coeff, _kernel_decompose, _kernel_rows, _reported,
                              _signed_weight, bps_extract, gv_extract, ky_identity_check,
                              ky_pairs_euler, pt_borcherds, pt_main, pt_xbar)
from localk3.series import KY_KERNEL, LaurentPoly, MultiSeries, pow_binomial

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
    assert PTParams(3, 6).z_pad == 1   # (1,2) squares to 2
    assert PTParams(4, 6).z_pad == 2   # (1,3) squares to 4
    assert PTParams(0, 3).z_pad == 0
    with pytest.raises(ValueError):
        PTParams(-1, 3)


def test_index_terms_drop_no_factor():
    # brute force a box well past the stated bound: every term with a
    # nonzero J must be yielded, once
    for y_max in range(7):
        params = PTParams(y_max, y_max + 2)
        lo, hi = params.work_window
        listed = list(_index_terms(params))
        terms = set(listed)
        assert len(terms) == len(listed)
        for beta in enumerate_effective(y_max):
            k_max = beta.divisibility()
            bound = beta.self_intersection() // 2 + k_max * k_max
            for r in range(2 * math.isqrt(abs(bound)) + 3):
                for n in range(max(hi, -lo) + 1):
                    if not (r or n) or not conjectural_J(MukaiVector(r, beta, r + n)):
                        continue
                    if n <= hi:
                        assert (beta, r, n, n) in terms
                    if r and n and -n >= lo:
                        assert (beta, r, n, -n) in terms


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
    pt_borcherds, which merges the factors of each (beta, z) and applies
    them in place."""
    lo, hi = window = params.work_window
    out = one(params.y_max, window)
    for beta in enumerate_effective(params.y_max):
        for z in range(lo, hi + 1):
            n = abs(z)
            # a nonzero chi needs r^2 <= beta^2/2 + 1 <= z_pad + 1 <= hi + 1
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


def test_ky_identity_holds():
    assert ky_identity_check(4, 8) == []
    assert ky_identity_check(-1, 3) == []
    assert ky_identity_check(2, 1) == []


def test_ky_identity_check_rejects_bad_params():
    with pytest.raises(ValueError):
        ky_identity_check(-2, 5)
    with pytest.raises(ValueError):
        ky_identity_check(3, 0)


def test_ky_identity_flags_exactly_the_corrupted_coefficients():
    def corrupted(h, n):
        bump = 1 if (h, n) == (1, 1) else 0
        return ky_pairs_euler(h, n) + bump

    bad = ky_identity_check(2, 5, pairs=corrupted)
    # the bump spreads through the kernel: z^0, z^1, z^2 of the q^0 row
    assert [(m, j) for m, j, _, _ in bad] == [(0, 0), (0, 1), (0, 2)]
    deltas = {j: left - right for _, j, left, right in bad}
    assert deltas == {0: 1, 1: -2, 2: 1}


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
    assert power == LaurentPoly({j: _kernel_coeff(g, j) for j in range(-g - 1, g + 2)})
    assert _kernel_rows(g)[g] == [_kernel_coeff(g, j) for j in range(g + 1)]
    assert _kernel_decompose(power, _kernel_rows(g)) == {g: 1}


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), max_size=8))
def test_kernel_decompose_round_trips_palindromic_polys(half):
    p = LaurentPoly({j: c for i, c in enumerate(half) for j in (i, -i)})
    decomposition = _kernel_decompose(p, _kernel_rows(len(half)))
    assert all(type(c) is Fraction and c for c in decomposition.values())
    rebuilt = LaurentPoly()
    for g, c in decomposition.items():
        rebuilt = rebuilt + kernel_power(g) * c
    assert rebuilt == p


def test_kernel_decompose_rejects_non_palindromic():
    with pytest.raises(ValueError):
        _kernel_decompose(LaurentPoly({2: Fraction(1, 2), -1: 3, 0: 1}), _kernel_rows(2))


def test_bps_extract_rejects_non_palindromic():
    from localk3.series import LaurentPoly, QZSeries
    src = QZSeries(-1, 0, {0: LaurentPoly({1: 1})})
    with pytest.raises(ValueError):
        bps_extract(src, 0)


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


def test_gv_extract_flags_support_corruption():
    # an off-center bump breaks the support bound |z| <= beta^2/2 + 1
    bad = corrupt(signed_pt(), CurveClass(1, 1), 2, Fraction(1))
    with pytest.raises(ConsistencyError) as info:
        gv_extract(bad, signed=True)
    assert any(cls == CurveClass(1, 1) for cls, _, _ in info.value.offenders)


def test_gv_extract_flags_square_dependence_breach():
    # a symmetric bump passes the row checks but disagrees with the
    # other classes of the same square
    bad = corrupt(signed_pt(), CurveClass(1, 1), 0, Fraction(1))
    with pytest.raises(ConsistencyError):
        gv_extract(bad, signed=True)


def test_bps_table_overlap_comparison():
    a = BPSTable({(0, 1): Fraction(24)}, frozenset({0, 1}))
    b = BPSTable({(0, 1): Fraction(23), (0, 5): Fraction(1)}, frozenset({1, 5}))
    assert a.mismatches_on_overlap(b) == [(0, 1, Fraction(24), Fraction(23))]
    assert a.get(3, 1) == 0
