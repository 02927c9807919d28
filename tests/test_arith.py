"""The table of builtin arithmetic functors: value and polynomial rules."""

import itertools
import random
from fractions import Fraction

import pytest

from micromizar.arith import (
    IMAG_UNIT,
    MONO_ONE,
    ONE,
    OPS,
    P_ONE,
    P_ZERO,
    ZERO,
    ComplexRational,
    _freeze,
    p_add,
    p_atom,
    p_const,
    p_mul,
    p_scale,
)
from micromizar.requirements import VALUE_ATTRS_CAP, enable_groups

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


# -- the fast paths against the general loops ------------------------------


def ref_add(a, b):
    d = {}
    for m, c in a + b:
        d[m] = d[m] + c if m in d else c
    return _freeze(d)


def ref_mul(a, b):
    d = {}
    for ma, ca in a:
        for mb, cb in b:
            exps = dict(ma)
            for cid, e in mb:
                exps[cid] = exps.get(cid, 0) + e
            m = tuple(sorted(exps.items()))
            d[m] = d[m] + ca * cb if m in d else ca * cb
    return _freeze(d)


def ref_scale(a, c):
    return _freeze({m: co * c for m, co in a})


def random_value(rng):
    def part():
        return rng.choice([0, 0, 1, -1, 2, Fraction(2), Fraction(1, 2), Fraction(-3, 4)])

    return ComplexRational(part(), part())


def random_poly(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return P_ZERO
    if kind == 1:
        return _freeze({MONO_ONE: random_value(rng)})
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = {rng.randrange(4): rng.randint(1, 3) for _ in range(rng.randint(0, 2))}
        terms[tuple(sorted(mono.items()))] = random_value(rng)
    return _freeze(terms)


def test_fast_paths_give_what_the_general_loops_give():
    rng = random.Random(26)
    for _ in range(2000):
        a, b, c = random_poly(rng), random_poly(rng), random_value(rng)
        assert p_add(a, b) == ref_add(a, b), (a, b)
        assert p_mul(a, b) == ref_mul(a, b), (a, b)
        assert p_scale(a, c) == ref_scale(a, c), (a, c)
        assert p_const(c) == _freeze({MONO_ONE: c}), c


def test_a_value_is_immutable_and_keeps_its_hash():
    v = ComplexRational(Fraction(1, 2), 3)
    h = hash(v)
    for name in ("re", "im", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, 1)
    with pytest.raises(AttributeError):
        del v.re
    assert (v.re, v.im, hash(v)) == (Fraction(1, 2), 3, h)
    assert v == ComplexRational(Fraction(1, 2), Fraction(3)) and v != ComplexRational(Fraction(1, 2))


def value_attrs_rule(req, v):
    ids = req.ids
    facts = (
        (v.is_zero(), ids.ZeroAttr),
        (v.is_natural(), ids.Natural),
        (not v.lex_le(ZERO), ids.Positive),
        (not ZERO.lex_le(v), ids.Negative),
    )
    return tuple((s, aid) for s, aid in facts if aid is not None)


@pytest.mark.parametrize("groups", [["NUMERALS"], ["BOOLE", "SUBSET", "NUMERALS", "REAL", "ARITHM"]])
def test_value_attrs_is_the_rule_for_every_value(req_file, groups):
    req, _ = enable_groups(req_file, groups)
    for v in VALUES + VALUES:  # the second round reads the memo
        assert req.value_attrs(v) == value_attrs_rule(req, v), v


def test_the_value_attrs_memo_is_bounded(req_file):
    req, _ = enable_groups(req_file, ["BOOLE", "SUBSET", "NUMERALS", "REAL", "ARITHM"])
    values = [ComplexRational(Fraction(n - 2500, 7), n % 3 - 1) for n in range(5000)]
    assert len(set(values)) == 5000
    for v in values:
        assert req.value_attrs(v) == value_attrs_rule(req, v), v
        assert len(req._value_attrs) <= VALUE_ATTRS_CAP
    assert len(req._value_attrs) == VALUE_ATTRS_CAP
    assert values[0] not in req._value_attrs and values[-1] in req._value_attrs
