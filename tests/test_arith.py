"""The table of builtin arithmetic functors: value and polynomial rules."""

import itertools
from fractions import Fraction

import pytest

from micromizar.arith import (
    IMAG_UNIT,
    ONE,
    OPS,
    P_ONE,
    P_ZERO,
    ZERO,
    ComplexRational,
    p_atom,
    p_const,
    p_scale,
)

ARITY = {"Zero": 0, "ImaginaryUnit": 0, "Succ": 1, "Neg": 1, "Inv": 1, "Add": 2, "Sub": 2, "Mul": 2, "Div": 2}

# each value twice: with the int parts arithmetic makes, and with
# equal Fraction parts
PAIRS = [
    (ZERO, ComplexRational(Fraction(0), Fraction(0))),
    (ONE, ComplexRational(Fraction(1))),
    (ComplexRational.from_int(-3), ComplexRational(Fraction(-3), Fraction(0))),
    (ComplexRational(Fraction(1, 2)), ComplexRational(Fraction(1, 2), Fraction(0))),
    (IMAG_UNIT, ComplexRational(Fraction(0), Fraction(1))),
    (ComplexRational(2, -3), ComplexRational(Fraction(2), Fraction(-3))),
]
VALUES = [v for pair in PAIRS for v in pair]


def test_table_names_the_nine_functors():
    assert set(OPS) == set(ARITY)


@pytest.mark.parametrize("name", sorted(ARITY))
def test_poly_rule_is_the_value_rule_on_constants(name):
    op = OPS[name]
    for args in itertools.product(VALUES, repeat=ARITY[name]):
        v = op.value(*args)
        p = op.poly(*(p_const(a) for a in args))
        assert p == (None if v is None else p_const(v)), args


def test_zero_divisor_has_no_value():
    assert OPS["Inv"].value(ZERO) is None
    assert OPS["Inv"].poly(P_ZERO) is None
    for a in VALUES:
        assert OPS["Div"].value(a, ZERO) is None
        assert OPS["Div"].poly(p_const(a), P_ZERO) is None


def test_division_by_a_non_constant_polynomial_has_no_value():
    x = p_atom(7)
    assert OPS["Inv"].poly(x) is None
    assert OPS["Div"].poly(P_ONE, x) is None
    half = ComplexRational(Fraction(1, 2))
    assert OPS["Div"].poly(x, p_const(ComplexRational.from_int(2))) == p_scale(x, half)


def parts(v):
    return (type(v.re), type(v.im))


@pytest.mark.parametrize("name", sorted(ARITY))
def test_value_rule_ignores_the_representation(name):
    op = OPS[name]
    for pair_args in itertools.product(PAIRS, repeat=ARITY[name]):
        results = [op.value(*args) for args in itertools.product(*pair_args)]
        first = results[0]
        for v in results:
            assert v == first, pair_args
            if v is not None:
                assert hash(v) == hash(first), pair_args
                assert set(parts(v)) <= {int, Fraction}, pair_args


def test_only_a_non_integral_quotient_makes_a_fraction():
    six, three = ComplexRational.from_int(6), ComplexRational.from_int(3)
    assert parts(six) == parts(ONE) == parts(IMAG_UNIT) == (int, int)
    assert parts(six + three) == parts(six - three) == parts(six * IMAG_UNIT) == (int, int)
    assert six / three == ComplexRational.from_int(2)
    assert parts(six / three) == parts(OPS["Div"].value(six, three)) == (int, int)
    assert parts(OPS["Inv"].value(IMAG_UNIT)) == (int, int)
    third = ONE / three
    assert third.re == Fraction(1, 3)
    assert parts(third) == parts(OPS["Inv"].value(three)) == (Fraction, int)
    assert parts(ONE / (ONE + IMAG_UNIT)) == (Fraction, Fraction)
