"""Exact numeric values and polynomials over equivalence classes.

Values are complex numbers with rational parts.  A part that is an
integer is a plain ``int``, any other part a ``Fraction``; no part is
ever a ``float``.  ``+``, ``-`` and ``*`` of ``int`` parts give
``int`` parts, so ``/`` is the only operation that makes a
``Fraction``, and it stores an integral quotient as ``int`` again.  An ``int`` and a ``Fraction``
of equal value compare and hash equal and both have ``numerator`` and
``denominator``, so equality, hashing and ``sort_key`` do not depend on
the representation.  The order used for deciding ``<=`` atoms is
lexicographic on (re, im): it restricts to the usual order on the reals
and is total, which is what the order requirement's reasoning rules
assume.  A ``ComplexRational`` is slotted and immutable; its hash is
computed once, when it is made.

Polynomials are normal forms over class ids: a sorted tuple of
(monomial, coefficient) pairs, monomials being sorted tuples of
(class id, exponent).  Exponents are plain ints, so repeated squaring
is cheap no matter how large the exponent gets.  A sum or product
builds its result in one dict and freezes it once (``_freeze``), but
a zero operand, a constant second summand or a constant factor skips
that; ``p_scale`` by a nonzero constant keeps every term nonzero and in
place, so it maps the coefficients.

``OPS`` is the one definition of the builtin arithmetic functors, keyed
by requirement name.  Each entry has a ``value`` rule on
``ComplexRational`` arguments and a ``poly`` rule on ``Polynomial``
arguments, one argument per functor argument.  A rule returns ``None``
when the application has no value: division by zero, or division by a
polynomial that is not a constant.  On constant arguments the ``poly``
rule gives ``p_const`` of what the ``value`` rule gives; ``folding``
keeps only that part of it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, NamedTuple

Rational = int | Fraction


def _exact(x: Fraction) -> Rational:
    return x.numerator if x.denominator == 1 else x


class ComplexRational:
    """An exact complex number; ``__init__`` writes each slot once."""

    __slots__ = ("re", "im", "_hash")
    re: Rational
    im: Rational

    def __init__(self, re: Rational, im: Rational = 0) -> None:
        _set_re(self, re)
        _set_im(self, im)
        _set_hash(self, hash((re, im)))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"ComplexRational is immutable: cannot change {name}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if type(other) is not ComplexRational:
            return NotImplemented
        return self is other or self._hash == other._hash and self.re == other.re and self.im == other.im

    def __repr__(self) -> str:
        return f"ComplexRational(re={self.re!r}, im={self.im!r})"

    @staticmethod
    def from_int(n: int) -> "ComplexRational":
        return ComplexRational(n)

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __truediv__(self, other: "ComplexRational") -> "ComplexRational":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError
        return ComplexRational(
            _exact(Fraction(self.re * other.re + self.im * other.im, d)),
            _exact(Fraction(self.im * other.re - self.re * other.im, d)),
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_natural(self) -> bool:
        return self.im == 0 and self.re.denominator == 1 and self.re >= 0

    def lex_le(self, other: "ComplexRational") -> bool:
        if self.re != other.re:
            return self.re < other.re
        return self.im <= other.im

    def sort_key(self) -> tuple:
        return (self.re.numerator, self.re.denominator, self.im.numerator, self.im.denominator)


# the slots' own setters, which __init__ calls past __setattr__
_set_re, _set_im, _set_hash = [getattr(ComplexRational, n).__set__ for n in ComplexRational.__slots__]
ZERO = ComplexRational.from_int(0)
ONE = ComplexRational.from_int(1)
IMAG_UNIT = ComplexRational(0, 1)


# A monomial maps class ids to positive exponents; a polynomial maps
# monomials to nonzero coefficients.  Both are stored sorted.

Monomial = tuple[tuple[int, int], ...]
Polynomial = tuple[tuple[Monomial, ComplexRational], ...]

MONO_ONE: Monomial = ()


def _freeze(d: dict[Monomial, ComplexRational]) -> Polynomial:
    return tuple(sorted(((m, c) for m, c in d.items() if not c.is_zero())))


def p_const(c: ComplexRational) -> Polynomial:
    return P_ZERO if c.is_zero() else ((MONO_ONE, c),)


P_ZERO: Polynomial = ()
P_ONE = p_const(ONE)


def p_atom(cid: int) -> Polynomial:
    return ((((cid, 1),), ONE),)


def p_add(a: Polynomial, b: Polynomial) -> Polynomial:
    if not a or not b:
        return a or b
    if len(b) == 1 and b[0][0] == MONO_ONE:  # a constant term sorts first
        return p_const(a[0][1] + b[0][1]) + a[1:] if a[0][0] == MONO_ONE else b + a
    d = dict(a)
    for m, c in b:
        d[m] = d[m] + c if m in d else c
    return _freeze(d)


def p_neg(a: Polynomial) -> Polynomial:
    return tuple((m, -c) for m, c in a)


def p_sub(a: Polynomial, b: Polynomial) -> Polynomial:
    return p_add(a, p_neg(b))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    d = dict(a)
    for cid, e in b:
        d[cid] = d.get(cid, 0) + e
    return tuple(sorted(d.items()))


def p_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    if not a or not b:
        return P_ZERO
    if len(a) == 1 and a[0][0] == MONO_ONE:
        return p_scale(b, a[0][1])
    if len(b) == 1 and b[0][0] == MONO_ONE:
        return p_scale(a, b[0][1])
    d: dict[Monomial, ComplexRational] = {}
    for ma, ca in a:
        for mb, cb in b:
            m = _mono_mul(ma, mb)
            c = ca * cb
            d[m] = d[m] + c if m in d else c
    return _freeze(d)


def p_scale(a: Polynomial, c: ComplexRational) -> Polynomial:
    if c.is_zero():
        return P_ZERO
    return tuple([(m, co * c) for m, co in a])


def p_is_const(a: Polynomial) -> ComplexRational | None:
    if a == P_ZERO:
        return ZERO
    if len(a) == 1 and a[0][0] == MONO_ONE:
        return a[0][1]
    return None


def p_is_atom(a: Polynomial) -> int | None:
    if len(a) == 1 and a[0][1] == ONE and len(a[0][0]) == 1:
        ((cid, e),) = a[0][0]
        if e == 1:
            return cid
    return None


def p_sort_key(a: Polynomial) -> tuple:
    return tuple((m, c.sort_key()) for m, c in a)


# ---------------------------------------------------------------------------
# the builtin arithmetic functors


class Op(NamedTuple):
    value: Callable[..., ComplexRational | None]
    poly: Callable[..., Polynomial | None]


def _inv(a: ComplexRational) -> ComplexRational | None:
    return None if a.is_zero() else ONE / a


def _div(a: ComplexRational, b: ComplexRational) -> ComplexRational | None:
    return None if b.is_zero() else a / b


def _p_inv(a: Polynomial) -> Polynomial | None:
    c = p_is_const(a)
    return None if c is None or c.is_zero() else p_const(ONE / c)


def _p_div(a: Polynomial, b: Polynomial) -> Polynomial | None:
    c = p_is_const(b)
    return None if c is None or c.is_zero() else p_scale(a, ONE / c)


P_IMAG_UNIT = p_const(IMAG_UNIT)

OPS: dict[str, Op] = {
    "Zero": Op(lambda: ZERO, lambda: P_ZERO),
    "ImaginaryUnit": Op(lambda: IMAG_UNIT, lambda: P_IMAG_UNIT),
    "Succ": Op(lambda a: a + ONE, lambda a: p_add(a, P_ONE)),
    "Neg": Op(operator.neg, p_neg),
    "Inv": Op(_inv, _p_inv),
    "Add": Op(operator.add, p_add),
    "Sub": Op(operator.sub, p_sub),
    "Mul": Op(operator.mul, p_mul),
    "Div": Op(_div, _p_div),
}


def folding(op: Op) -> Op:
    """``op`` with a ``poly`` rule that only folds constants: the
    application has a polynomial only when every argument's is a
    constant, and it is the constant the ``value`` rule gives."""

    def poly(*args: Polynomial) -> Polynomial | None:
        vals = [p_is_const(a) for a in args]
        if None in vals:
            return None
        v = op.value(*vals)
        return None if v is None else p_const(v)

    return Op(op.value, poly)
