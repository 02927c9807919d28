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

VALUES = [
    ZERO,
    ONE,
    ComplexRational.from_int(-3),
    ComplexRational(Fraction(1, 2)),
    IMAG_UNIT,
    ComplexRational(Fraction(2), Fraction(-3)),
]


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
