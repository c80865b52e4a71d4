"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
are printed; without -s they appear in the captured-output section.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from localk3 import cli
from localk3.invariants import (J_closed_00n, J_closed_r0r, conjectural_J,
                                hilb_euler, hilb_table)
from localk3.lattice import (CurveClass, HodgeIsometry, MukaiVector,
                             POLARIZATION, SECTION, ZERO_CLASS, apply_isometry,
                             mukai_pairing)
from localk3.modular import inv_delta
from localk3.ptseries import (PTParams, bps_extract, gv_extract,
                              ky_identity_check, ky_pairs_euler, pt_borcherds,
                              pt_main, pt_xbar)
from localk3.series import MultiSeries, QZSeries, LaurentPoly, exp, log, qz_invert, qz_mul


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {label}")


def test_criterion_01_hilbert_scheme_table():
    with criterion(1, "Hilbert scheme Euler table: anchors and 200-term build < 1 s"):
        start = time.perf_counter()
        table = hilb_table(200).values
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"table build took {elapsed:.2f} s"
        assert table[2] == 324
        assert table[5] == 176256
        # independent oracle: exp(24 sum sigma_1(m)/m q^m)
        sigma = [0] * 201
        for d in range(1, 201):
            for m in range(d, 201, d):
                sigma[m] += d
        e = [Fraction(1)]
        for m in range(1, 201):
            e.append(Fraction(24, m) * sum(sigma[k] * e[m - k] for k in range(1, m + 1)))
        assert all(e[n] == table[n] for n in range(201))


def test_criterion_02_multiple_cover_anchor():
    with criterion(2, "multiple-cover anchor J(0; 2,4; -2) = 176337"):
        value = conjectural_J(MukaiVector(0, CurveClass(2, 4), -2))
        assert value == 176337
        assert value == 176256 + Fraction(324, 4)
        assert 70956 + 104652 + 810 - 81 == 176337


def test_criterion_03_closed_form_oracles():
    with criterion(3, "closed forms J(0,0,n) and J(r,0,r) for n, r <= 50"):
        for n in range(1, 51):
            assert conjectural_J(MukaiVector(0, ZERO_CLASS, n)) == J_closed_00n(n)
        for r in range(1, 51):
            assert conjectural_J(MukaiVector(r, ZERO_CLASS, r)) == J_closed_r0r(r)


def test_criterion_04_exp_and_product_forms_agree():
    with criterion(4, "pt_main = pt_borcherds at Y_MAX=4, Z_MAX=6 in < 30 s"):
        start = time.perf_counter()
        for signed in (False, True):
            params = PTParams(4, 6, signed)
            a = pt_main(params)
            b = pt_borcherds(params)
            assert a == b
            assert sum(1 for _ in a.terms()) > 50
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"identity check took {elapsed:.2f} s"


def test_criterion_05_squaring_identity():
    with criterion(5, "pt_xbar = pt_main^2 at Y_MAX=4, Z_MAX=6"):
        params = PTParams(4, 6)
        single = pt_main(PTParams(4, 6 + params.z_pad))
        squared = single.mul(single).restrict(-6, 6)
        assert pt_xbar(params) == squared


def test_criterion_06_wall_identity():
    with criterion(6, "pairs/1-Delta wall identity at q_max=4, z_window=8"):
        assert ky_identity_check(4, 8) == []
        assert ky_pairs_euler(1, 1) == 24
        assert ky_pairs_euler(1, 0) == 2
        assert ky_pairs_euler(1, -1) == 0
        for n in range(1, 6):
            assert ky_pairs_euler(0, n) == n


def test_criterion_07_bps_suite():
    with criterion(7, "BPS extraction: 1/Delta table and gv recovery agree"):
        table = bps_extract(inv_delta(6), 6)
        for h in range(7):
            assert table.get(0, h) == hilb_euler(h)
        assert all(g <= h for (g, h) in table.entries)
        signed = pt_main(PTParams(3, 8, signed=True))
        recovered = gv_extract(signed, signed=True)
        assert recovered.mismatches_on_overlap(table) == []
        assert recovered.computed_h == frozenset({0, 1, 2})
        unsigned = gv_extract(pt_main(PTParams(3, 8)))
        for h in range(3):
            assert unsigned.get(0, h) == hilb_euler(h)


GENERATORS = [
    HodgeIsometry.swap(),
    HodgeIsometry.sign_h2(),
    HodgeIsometry.negate_rn(),
    HodgeIsometry.reflect(MukaiVector(1, ZERO_CLASS, 1)),
    HodgeIsometry.reflect(MukaiVector(1, POLARIZATION, 2)),
    HodgeIsometry.reflect(MukaiVector(0, SECTION, 0)),
]


def test_criterion_08_isometry_invariance():
    with criterion(8, "J, pairing and divisibility invariant for 200 random vectors"):
        rng = random.Random(7)
        count = 0
        while count < 200:
            v = MukaiVector(rng.randint(-12, 12),
                            CurveClass(rng.randint(-12, 12), rng.randint(-12, 12)),
                            rng.randint(-12, 12))
            if v.is_zero():
                continue
            count += 1
            w = MukaiVector(rng.randint(-12, 12),
                            CurveClass(rng.randint(-12, 12), rng.randint(-12, 12)),
                            rng.randint(-12, 12))
            for g in GENERATORS:
                gv = apply_isometry(g, v)
                assert conjectural_J(gv) == conjectural_J(v)
                assert gv.mukai_square() == v.mukai_square()
                assert gv.divisibility() == v.divisibility()
                assert mukai_pairing(gv, apply_isometry(g, w)) == mukai_pairing(v, w)


def test_criterion_09_integrality():
    with criterion(9, "pt_main coefficients at Y_MAX=4 are integers"):
        for signed in (False, True):
            series = pt_main(PTParams(4, 6, signed))
            assert all(v.denominator == 1 for _, _, v in series.terms())


def _random_series(rng, y_max, window, allow_const):
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        a, b = rng.randint(0, y_max), rng.randint(0, y_max)
        if not allow_const and a + b == 0:
            a = 1
        k = rng.randint(window[0] // y_max, window[1] // y_max)
        coeffs[(CurveClass(a, b), k)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return MultiSeries(y_max, window, coeffs)


def _naive_mul(a, b):
    lo, hi = max(a.z_lo, b.z_lo), min(a.z_hi, b.z_hi)
    acc = {}
    for cls1, k1, v1 in a.terms():
        for cls2, k2, v2 in b.terms():
            cls, k = cls1 + cls2, k1 + k2
            if cls.weight <= a.y_max and lo <= k <= hi:
                acc[(cls, k)] = acc.get((cls, k), Fraction(0)) + v1 * v2
    return MultiSeries(a.y_max, (lo, hi), acc)


def test_criterion_10_engine_property_suites(tmp_path):
    with criterion(10, "engine properties: 100 instances each, deterministic reports"):
        rng = random.Random(12345)
        for _ in range(100):
            a = _random_series(rng, 3, (-3, 3), True)
            b = _random_series(rng, 3, (-3, 3), True)
            assert a * b == _naive_mul(a, b)
        for _ in range(100):
            a = _random_series(rng, 3, (-9, 9), False)
            assert log(exp(a)) == a
        for _ in range(100):
            q_max = 8
            prod = QZSeries(0, q_max, {0: LaurentPoly({0: 1})})
            for _ in range(rng.randint(1, 4)):
                n, v, e = rng.randint(1, 3), rng.choice([1, -1]), rng.choice([-1, 0, 1])
                rows = {0: LaurentPoly({0: 1}), n: LaurentPoly({e: v})}
                prod = qz_mul(prod, QZSeries(0, q_max, rows))
                prod.assert_z_width_bound()
            qz_invert(prod).assert_z_width_bound()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["bps", "--q-max", "3", "--out", str(first)]) == 0
        assert cli.main(["bps", "--q-max", "3", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
