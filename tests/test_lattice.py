from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from localk3.lattice import (CurveClass, HodgeIsometry, MukaiVector, FIBER,
                             POLARIZATION, SECTION, ZERO_CLASS, apply_isometry,
                             enumerate_effective, mukai_pairing)
from localk3.ptseries import PTParams


def test_gram_matrix_values():
    assert SECTION.self_intersection() == -2
    assert FIBER.self_intersection() == 0
    assert SECTION.dot(FIBER) == 1
    assert POLARIZATION.self_intersection() == 2


def test_section_plus_fibers_square():
    for h in range(8):
        assert CurveClass(1, h).self_intersection() == 2 * h - 2


def test_effectivity():
    assert FIBER.is_effective() and SECTION.is_effective()
    assert not ZERO_CLASS.is_effective()
    assert not CurveClass(-1, 3).is_effective()
    assert not CurveClass(2, -1).is_effective()


def test_class_divisibility():
    assert CurveClass(2, 4).divisibility() == 2
    assert CurveClass(3, 5).divisibility() == 1
    with pytest.raises(ValueError):
        ZERO_CLASS.divisibility()


def test_class_parse_str_roundtrip():
    c = CurveClass(3, -7)
    assert CurveClass.parse(str(c)) == c
    with pytest.raises(ValueError):
        CurveClass.parse("1;2")


def test_enumerate_effective_small():
    assert enumerate_effective(1) == [CurveClass(0, 1), CurveClass(1, 0)]
    assert enumerate_effective(2) == [
        CurveClass(0, 1), CurveClass(1, 0),
        CurveClass(0, 2), CurveClass(1, 1), CurveClass(2, 0)]
    assert enumerate_effective(0) == []


def test_enumerate_effective_order_and_count():
    for y in range(1, 7):
        classes = enumerate_effective(y)
        assert len(classes) == y * (y + 3) // 2
        keys = [(c.weight, c.a) for c in classes]
        assert keys == sorted(keys)
        assert all(c.is_effective() for c in classes)


def test_mukai_pairing_values():
    e0 = MukaiVector(1, ZERO_CLASS, 0)
    e1 = MukaiVector(0, ZERO_CLASS, 1)
    assert mukai_pairing(e0, e1) == -1
    assert mukai_pairing(e0, e0) == 0
    v = MukaiVector(0, CurveClass(2, 4), -2)
    assert v.mukai_square() == 8
    assert MukaiVector(0, SECTION, 0).mukai_square() == -2


def test_mukai_square_even():
    for r in range(-3, 4):
        for a in range(-2, 3):
            for b in range(-2, 3):
                for n in range(-3, 4):
                    assert MukaiVector(r, CurveClass(a, b), n).mukai_square() % 2 == 0


def test_vector_divisibility():
    assert MukaiVector(2, CurveClass(4, 6), -2).divisibility() == 2
    assert MukaiVector(0, CurveClass(0, 3), 0).divisibility() == 3
    with pytest.raises(ValueError):
        MukaiVector(0, ZERO_CLASS, 0).divisibility()
    v = MukaiVector(2, CurveClass(4, 6), -2)
    assert v.divide(2) == MukaiVector(1, CurveClass(2, 3), -1)
    with pytest.raises(ValueError):
        v.divide(4)


def test_vector_parse_str_roundtrip():
    v = MukaiVector(-2, CurveClass(1, 5), 9)
    assert MukaiVector.parse(str(v)) == v
    assert MukaiVector.parse("0;2,4;-2") == MukaiVector(0, CurveClass(2, 4), -2)
    with pytest.raises(ValueError):
        MukaiVector.parse("1;2;3;4")


def test_value_types_are_equal_and_hash_equal_by_coordinates():
    v = MukaiVector(1, CurveClass(2, 3), 4)
    for x, y, other in ((CurveClass(1, 2), CurveClass(1, 2), CurveClass(2, 1)),
                        (v, MukaiVector(1, CurveClass(2, 3), 4), MukaiVector(4, v.beta, 1))):
        assert x == y and hash(x) == hash(y) and x != other
        assert len({x, y, other}) == 2


def test_value_types_are_frozen():
    beta = CurveClass(1, 2)
    v = MukaiVector(1, beta, 0)
    for obj, field in ((beta, "a"), (beta, "b"), (v, "r"), (v, "beta"), (v, "n")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
    assert (beta, v) == (CurveClass(1, 2), MukaiVector(1, CurveClass(1, 2), 0))


def test_curve_class_coordinates_must_be_integers():
    for a, b in ((1.0, 2), (1, 2.0), (Fraction(1), 2), ("1", 2)):
        with pytest.raises(ValueError, match="must be integers"):
            CurveClass(a, b)


def test_value_type_arithmetic_is_class_arithmetic():
    # a tuple underneath must not turn + into concatenation or * into repetition
    beta, gamma = CurveClass(1, 2), CurveClass(3, -1)
    v, w = MukaiVector(1, beta, 2), MukaiVector(0, gamma, -1)
    cases = [(beta + gamma, CurveClass(4, 1)), (-beta, CurveClass(-1, -2)),
             (3 * beta, CurveClass(3, 6)), (beta * 3, CurveClass(3, 6)),
             (v + w, MukaiVector(1, CurveClass(4, 1), 1)),
             (-v, MukaiVector(-1, CurveClass(-1, -2), -2)),
             (2 * v, MukaiVector(2, CurveClass(2, 4), 4)),
             (v * 2, MukaiVector(2, CurveClass(2, 4), 4))]
    for got, want in cases:
        assert type(got) is type(want) and got == want
        assert type(got.beta if isinstance(got, MukaiVector) else got) is CurveClass
    for bad in (lambda: beta * 1.5, lambda: 1.5 * beta, lambda: beta * beta,
                lambda: Fraction(2) * v, lambda: v * v):
        with pytest.raises(TypeError):
            bad()


def test_value_type_text_forms():
    v = MukaiVector(-2, CurveClass(3, -7), 9)
    assert (str(v.beta), repr(v.beta)) == ("3,-7", "CurveClass(a=3, b=-7)")
    assert (str(v), repr(v)) == ("-2;3,-7;9",
                                 "MukaiVector(r=-2, beta=CurveClass(a=3, b=-7), n=9)")


def test_pt_params_keywords_and_bounds():
    p = PTParams(y_max=3, z_max=4, signed=True)
    assert p == PTParams(3, 4, True) and (p.y_max, p.z_max, p.signed) == (3, 4, True)
    assert PTParams(z_max=2, y_max=1).signed is False
    for y, z in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match=">= 0"):
            PTParams(y_max=y, z_max=z)


def test_generator_images():
    v = MukaiVector(2, CurveClass(1, 3), -5)
    assert apply_isometry(HodgeIsometry.swap(), v) == MukaiVector(-5, CurveClass(1, 3), 2)
    assert apply_isometry(HodgeIsometry.sign_h2(), v) == MukaiVector(2, CurveClass(-1, -3), -5)
    assert apply_isometry(HodgeIsometry.negate_rn(), v) == MukaiVector(-2, CurveClass(1, 3), 5)


def test_reflection_worked_example():
    x = MukaiVector(2, ZERO_CLASS, -2)
    w = MukaiVector(1, POLARIZATION, 2)
    g = HodgeIsometry.reflect(w)
    assert apply_isometry(g, x) == MukaiVector(0, CurveClass(-2, -4), -6)


def test_reflection_kernel_must_square_to_minus_two():
    with pytest.raises(ValueError):
        HodgeIsometry.reflect(MukaiVector(1, ZERO_CLASS, 0))


GENERATORS = [
    HodgeIsometry.swap(),
    HodgeIsometry.sign_h2(),
    HodgeIsometry.negate_rn(),
    HodgeIsometry.reflect(MukaiVector(1, ZERO_CLASS, 1)),
    HodgeIsometry.reflect(MukaiVector(1, POLARIZATION, 2)),
    HodgeIsometry.reflect(MukaiVector(0, SECTION, 0)),
]


def test_generators_are_involutions():
    v = MukaiVector(3, CurveClass(-2, 5), 7)
    for g in GENERATORS:
        assert apply_isometry(g, apply_isometry(g, v)) == v


def test_composition_applies_right_to_left():
    v = MukaiVector(1, CurveClass(0, 2), 4)
    g = HodgeIsometry.compose(HodgeIsometry.sign_h2(), HodgeIsometry.swap())
    # swap first, then sign_h2
    assert apply_isometry(g, v) == MukaiVector(4, CurveClass(0, -2), 1)


vectors = st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                    st.integers(-9, 9), st.integers(-9, 9)).map(
    lambda t: MukaiVector(t[0], CurveClass(t[1], t[2]), t[3]))


@given(vectors, vectors, st.lists(st.sampled_from(GENERATORS), max_size=4))
def test_isometries_preserve_pairing(v, w, gens):
    g = HodgeIsometry.compose(*gens)
    assert mukai_pairing(apply_isometry(g, v), apply_isometry(g, w)) == mukai_pairing(v, w)


@given(vectors.filter(lambda v: not v.is_zero()),
       st.lists(st.sampled_from(GENERATORS), max_size=4))
def test_isometries_preserve_divisibility(v, gens):
    g = HodgeIsometry.compose(*gens)
    assert apply_isometry(g, v).divisibility() == v.divisibility()
