import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from localk3.invariants import _eta_power, _j_by_key, conjectural_J, hilb_euler, hilb_table
from localk3.lattice import CurveClass, MukaiVector, POLARIZATION, ZERO_CLASS
from oracles import J_closed_00n, J_closed_r0r, N_from_J


def sigma1(m):
    return sum(d for d in range(1, m + 1) if m % d == 0)


def hilb_oracle(max_n):
    # exp(24 sum sigma_1(m)/m q^m) via m e_m = 24 sum sigma_1(k) e_{m-k}
    e = [Fraction(1)]
    for m in range(1, max_n + 1):
        e.append(Fraction(24, m) * sum(sigma1(k) * e[m - k] for k in range(1, m + 1)))
    return e


def poly_mul_trunc(a, b, n):
    out = [0] * (n + 1)
    for i, ai in enumerate(a[:n + 1]):
        for j, bj in enumerate(b[:n + 1 - i]):
            out[i + j] += ai * bj
    return out


def eta_by_pentagonal(e, n):
    """prod (1-q^k)^e to q^n for e >= 0: Euler's pentagonal series
    sum_k (-1)^k q^{k(3k-1)/2}, k in Z, raised by binary powering."""
    euler = [0] * (n + 1)
    for k in range(-n, n + 1):
        if k * (3 * k - 1) // 2 <= n:
            euler[k * (3 * k - 1) // 2] += -1 if k % 2 else 1
    out, base = [1] + [0] * n, euler
    while e:
        if e & 1:
            out = poly_mul_trunc(out, base, n)
        e >>= 1
        base = poly_mul_trunc(base, base, n)
    return out


def hilb_by_inverse(n):
    """1 / prod (1-q^k)^24 to q^n by the O(n^2) inverse recurrence."""
    a = eta_by_pentagonal(24, n)
    b = [1]
    for m in range(1, n + 1):
        b.append(-sum(a[k] * b[m - k] for k in range(1, m + 1)))
    return b


# SHA-256 of repr(hilb_table(2000).values), recorded from the pentagonal
# build with the O(n^2) inverse
HILB_2000_SHA256 = "215125a3f4790f1b5f6d269820ba0da012c752e0b9d23829ca07d585bbb3b3ce"


@pytest.mark.parametrize("e", [-24, -5, -2, -1, 0, 1, 2, 5, 18, 24])
def test_eta_power_matches_pentagonal_powering(e):
    # a negative power is checked as the inverse of the positive one
    for n in [*range(6), 300]:
        got = _eta_power(e, n)
        assert all(type(x) is int for x in got)
        if e >= 0:
            assert got == eta_by_pentagonal(e, n)
        else:
            assert poly_mul_trunc(got, eta_by_pentagonal(-e, n), n) == [1] + [0] * n


@given(st.integers(-30, 30), st.integers(0, 80))
def test_eta_power_times_its_inverse_is_one(e, n):
    assert poly_mul_trunc(_eta_power(e, n), _eta_power(-e, n), n) == [1] + [0] * n
    if e >= 0:
        assert _eta_power(e, n) == eta_by_pentagonal(e, n)


def test_hilb_table_matches_inverse_of_eta24():
    assert list(hilb_table(1000).values) == hilb_by_inverse(1000)


def test_eta_power_minus_one_gives_partitions():
    assert _eta_power(-1, 100)[100] == 190569292
    assert _eta_power(-1, 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_hilb_table_2000_digest():
    values = hilb_table(2000).values
    assert hashlib.sha256(repr(values).encode()).hexdigest() == HILB_2000_SHA256


def test_hilb_anchor_values():
    t = hilb_table(5).values
    assert t == (1, 24, 324, 3200, 25650, 176256)


def test_hilb_matches_exponential_oracle_to_200():
    got = hilb_table(200).values
    want = hilb_oracle(200)
    for n in range(201):
        assert want[n].denominator == 1
        assert got[n] == want[n]


def test_hilb_euler_negative_is_zero():
    assert hilb_euler(-1) == 0
    assert hilb_euler(-17) == 0


def test_hilb_euler_cache_growth():
    assert hilb_euler(3) == 3200
    assert hilb_euler(40) == hilb_table(40).values[40]


def test_hilb_table_rejects_negative():
    with pytest.raises(ValueError):
        hilb_table(-1)


def test_J_double_fiber_anchor():
    v = MukaiVector(0, CurveClass(2, 4), -2)
    assert conjectural_J(v) == 176337
    assert conjectural_J(v) == 176256 + Fraction(324, 4)


def test_J_stratum_sum_constant():
    # independent stratum count of the same moduli point total
    assert 70956 + 104652 + 810 - 81 == 176337


def test_J_spot_values():
    assert conjectural_J(MukaiVector(3, ZERO_CLASS, 3)) == Fraction(1, 9)
    assert conjectural_J(MukaiVector(0, ZERO_CLASS, 2)) == 30
    assert conjectural_J(MukaiVector(0, POLARIZATION, 0)) == 324
    assert conjectural_J(MukaiVector(1, ZERO_CLASS, 1)) == 1
    # primitive case reduces to a single Hilbert number
    v = MukaiVector(0, CurveClass(1, 3), 0)
    assert v.divisibility() == 1
    assert conjectural_J(v) == hilb_euler(v.mukai_square() // 2 + 1)


def test_J_rejects_zero_vector():
    with pytest.raises(ValueError):
        conjectural_J(MukaiVector(0, ZERO_CLASS, 0))


def test_J_closed_form_00n():
    for n in range(1, 21):
        assert conjectural_J(MukaiVector(0, ZERO_CLASS, n)) == J_closed_00n(n)
    assert J_closed_00n(1) == 24
    assert J_closed_00n(2) == 30
    with pytest.raises(ValueError):
        J_closed_00n(0)


def test_J_closed_form_r0r():
    for r in range(1, 21):
        assert conjectural_J(MukaiVector(r, ZERO_CLASS, r)) == J_closed_r0r(r)
    with pytest.raises(ValueError):
        J_closed_r0r(0)


def test_N_spot_values():
    assert N_from_J(0, ZERO_CLASS, 1) == 48
    assert N_from_J(1, ZERO_CLASS, 0) == 2
    assert N_from_J(0, POLARIZATION, 0) == 648
    with pytest.raises(ValueError):
        N_from_J(0, ZERO_CLASS, 0)


vectors = st.tuples(st.integers(-8, 8), st.integers(-8, 8),
                    st.integers(-8, 8), st.integers(-8, 8)).map(
    lambda t: MukaiVector(t[0], CurveClass(t[1], t[2]), t[3])).filter(
    lambda v: not v.is_zero())


def J_by_divided_vectors(v):
    """The divisor sum over the divided vectors v/k, each with its own
    square: the oracle for the lookup by (square, divisibility)."""
    div = v.divisibility()
    return sum((Fraction(hilb_euler(v.divide(k).mukai_square() // 2 + 1), k * k)
                for k in range(1, div + 1) if div % k == 0), Fraction(0))


@given(vectors, vectors)
def test_J_depends_only_on_square_and_divisibility(v, w):
    # conjectural_J reads only the key, so it is checked against the
    # divided-vector sum, which reads each divided vector itself
    assert conjectural_J(v) == J_by_divided_vectors(v)
    assert conjectural_J(w) == J_by_divided_vectors(w)
    if (v.mukai_square() == w.mukai_square()
            and v.divisibility() == w.divisibility()):
        assert J_by_divided_vectors(v) == J_by_divided_vectors(w)


def test_J_is_a_function_of_square_and_divisibility_on_a_box():
    # the pair series looks J up once per (square, divisibility) key; the
    # divided-vector sum must agree with it on every vector of the box
    seen = {}
    for r, a, b, n in itertools.product(range(-6, 7), repeat=4):
        v = MukaiVector(r, CurveClass(a, b), n)
        if v.is_zero():
            continue
        j = J_by_divided_vectors(v)
        assert conjectural_J(v) == j, v
        assert seen.setdefault((v.mukai_square(), v.divisibility()), j) == j, v


@given(vectors)
def test_J_negation_invariance(v):
    assert conjectural_J(-v) == conjectural_J(v)


wide_vectors = st.tuples(*[st.integers(-30, 30)] * 4).map(
    lambda t: MukaiVector(t[0], CurveClass(t[1], t[2]), t[3])).filter(
    lambda v: not v.is_zero())


@given(wide_vectors)
def test_J_equals_the_divided_vector_sum(v):
    assert conjectural_J(v) == J_by_divided_vectors(v)


def test_J_is_the_same_before_and_after_a_sweep_fills_the_cache():
    probes = [MukaiVector(0, CurveClass(2, 4), -2), MukaiVector(6, CurveClass(0, 12), -18),
              MukaiVector(-4, CurveClass(8, 8), 4), MukaiVector(5, ZERO_CLASS, 5)]
    _j_by_key.cache_clear()
    before = [conjectural_J(v) for v in probes]
    for r, a, b, n in itertools.product(range(-6, 7, 2), repeat=4):
        if r or a or b or n:
            conjectural_J(MukaiVector(r, CurveClass(a, b), n))
    assert _j_by_key.cache_info().currsize > len(probes)
    assert [conjectural_J(v) for v in probes] == before
    assert before == [J_by_divided_vectors(v) for v in probes]
