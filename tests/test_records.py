"""The record maker, ``micromizar.records``.

Records print, compare and hash as the dataclasses they replaced did.
Two things read the printed form: ``tests/_oracles._attr_sort_key``
sorts adjectives by ``repr`` of their arguments, and ``Analyzer.internal``
reports the ``repr`` of a fault.
"""

import pytest

from micromizar.errors import VerifyError
from micromizar.logic import Attr, FunctorApp, TypeExpr, const
from micromizar.parser import parse_article
from micromizar.records import record
from micromizar.schematizer import SchemeAssignment
from micromizar.surface import SAdj, SApp, SBy, SNum, SVar

STPROP = (
    "StProp(pos=SourcePos(line=2, col=1), prop=SLabeled(pos=(2, 1), label='A1', formula=SForAll(pos=(2, 5), "
    "binders=(SBinders(pos=(2, 9), names=('x',), ty=SType(pos=(2, 17), adjs=(SAdj(pos=(2, 17), positive=False, "
    "name='empty', arg=None),), mode='set', arg=None)),), guard=None, body=SOr(pos=(2, 43), parts=(SPredAtom("
    "pos=(2, 39), name='=', args=(SVar(pos=(2, 37), name='x'), SVar(pos=(2, 41), name='x'))), SNot(pos=(2, 46), "
    "body=SPredAtom(pos=(2, 52), name='in', args=(SVar(pos=(2, 50), name='x'), SApp(pos=(2, 55), name='{}', "
    "args=())))))))), just=SBy(pos=(2, 58), refs=(('B1', (2, 61)), ('C', (2, 65))), linked=False))"
)


def test_records_print_as_before():
    article, errors = parse_article("environ begin\nA1: for x being non empty set holds x = x or not x in {} by B1, C;\n")
    assert errors == [] and repr(article.items[0]) == STPROP
    assert repr(FunctorApp(3, (const(0),))) == "FunctorApp(func=3, args=(Var(kind=<VarKind.CONST: 'const'>, index=0),))"
    assert (
        repr(TypeExpr(frozenset({Attr(True, 1)}), 1))
        == "TypeExpr(lower=frozenset({Attr(positive=True, attr_id=1, args=())}), mode=1, args=())"
    )
    assert repr(VerifyError((3, 1), 61)) == "VerifyError(pos=SourcePos(line=3, col=1), code=61)"


def test_a_record_is_built_compared_and_hashed_by_its_fields():
    a = SApp((1, 2), "f", (SNum((1, 4), 0),))
    assert SApp.__match_args__ == ("pos", "name", "args") and SApp.__slots__ == ("name", "args")
    assert a == SApp(args=a.args, name="f", pos=(1, 2)) != SApp((1, 2), "g", a.args)
    assert SApp((1, 2), "f", ()) != SVar((1, 2), "f") and hash(a) == hash(((1, 2), "f", a.args))
    assert SAdj((1, 1), True, "empty") == SAdj((1, 1), True, "empty", None)
    assert SBy((1, 1), ()).linked is False and Attr(True, 1).args == ()
    match a:
        case SApp(pos, "f", (SNum(_, value),)):
            assert (pos, value) == ((1, 2), 0)
        case _:
            pytest.fail("no match")
    with pytest.raises(TypeError, match=r"SApp.__init__\(\) missing 1 required positional argument: 'args'"):
        SApp((1, 2), "f")


def test_a_record_keeps_what_its_class_defines():
    @record
    class Pair:
        left: int
        right: int = 0

        def __init__(self, left, right=0):
            self.left, self.right = left, right + 1

        def __repr__(self):
            return "pair"

    assert Pair(1).right == 1 and repr(Pair(1)) == "pair" and Pair(1) == Pair(1, 0)
    # a record that may change is unhashable, as its dataclass was
    assert SchemeAssignment() == SchemeAssignment({}, {}) and SchemeAssignment.__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(SchemeAssignment())
