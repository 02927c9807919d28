"""Name resolution tests: surface trees to kernel formulas."""

import pytest

from micromizar.errors import MizarError
from micromizar.logic import (
    And,
    Attr,
    FlexAnd,
    ForAll,
    FunctorApp,
    Is,
    Neg,
    Numeral,
    Pred,
    PrivFunc,
    PrivPred,
    Qual,
    SchemePred,
    TypeExpr,
    bound,
    const,
    locus,
)
from micromizar.parser import parse_article
from micromizar.resolver import PrivDef, Resolver, Scope
from micromizar.requirements import enable_groups
from micromizar.subtyping import DefinitionDb


@pytest.fixture
def scope(req_all):
    return Scope(req_all, DefinitionDb(req_all))


@pytest.fixture
def resolver(scope):
    return Resolver(scope)


def surface_formula(text: str):
    art, errs = parse_article(f"environ begin theorem {text};")
    assert errs == [], errs
    return art.items[0].prop.formula


def rf(resolver, text: str):
    return resolver.formula(surface_formula(text))


def err_code(resolver, text: str) -> int:
    with pytest.raises(MizarError) as e:
        rf(resolver, text)
    return e.value.code


def test_levels_are_absolute_outermost_zero(resolver):
    f = rf(resolver, "for x, y being Nat holds x + y = y + x")
    add = resolver.req.require("Add")
    inner = f.body.body
    assert inner == Pred(
        resolver.req.require("Equality"),
        (FunctorApp(add, (bound(0), bound(1))), FunctorApp(add, (bound(1), bound(0)))),
    )


def test_inner_binder_shadows_outer(resolver):
    f = rf(resolver, "for x being Nat holds ex x being set st x = x")
    eq = f.body.body.body.body
    assert eq.args == (bound(1), bound(1))


def test_consts_resolve_behind_binders(resolver, scope):
    scope.const_types.append(scope.req.nat_type())
    scope.consts["c"] = 0
    f = rf(resolver, "for c being Nat holds c = c")
    assert f.body.args == (bound(0), bound(0))
    g = rf(resolver, "c = c")
    assert g.args == (const(0), const(0))


def test_less_than_desugars_to_order_and_disequality(resolver):
    le = resolver.req.require("LessOrEqual")
    eq = resolver.req.require("Equality")
    f = rf(resolver, "1 < 2")
    assert f == And((Pred(le, (Numeral(1), Numeral(2))), Neg(Pred(eq, (Numeral(1), Numeral(2))))))
    g = rf(resolver, "2 > 1")
    assert g == f
    h = rf(resolver, "2 >= 1")
    assert h == Pred(le, (Numeral(1), Numeral(2)))


def test_is_clause_splits_attributes(resolver):
    f = rf(resolver, "for x being set holds x is non empty natural")
    empty = resolver.req.require("Empty")
    natural = resolver.req.require("Natural")
    assert f.body == And((Neg(Is(bound(0), Attr(True, empty))), Is(bound(0), Attr(True, natural))))
    # ...so the spelled-out negation is literally the same formula
    g = rf(resolver, "for x being set holds not x is empty")
    assert g.body == Neg(Is(bound(0), Attr(True, empty)))


def test_is_clause_mode_tail_becomes_qualification(resolver):
    f = rf(resolver, "for x being set holds x is Element of bool x")
    q = f.body
    assert isinstance(q, Qual)
    assert q.ty.mode == resolver.req.require("Element")
    assert q.ty.args == (FunctorApp(resolver.req.require("PowerSet"), (bound(0),)),)


def test_flex_error_codes(resolver):
    assert err_code(resolver, "1 = 1 & ... & 2 in {}") == 94


def test_requirement_gate_is_95(req_file):
    req, err = enable_groups(req_file, ["NUMERALS", "REAL"])
    assert err is None
    r = Resolver(Scope(req, DefinitionDb(req)))
    assert err_code(r, "1 + 1 = 2") == 95
    assert err_code(r, "{} = {}") == 95
    req2, err = enable_groups(req_file, ["BOOLE", "SUBSET"])
    assert err is None
    r2 = Resolver(Scope(req2, DefinitionDb(req2)))
    assert err_code(r2, "1 = 1 & ... & 1 = 1") == 95


def test_unknown_names_are_91(resolver):
    assert err_code(resolver, "frob(1) = 1") == 91
    assert err_code(resolver, "1 is shiny") == 91
    with pytest.raises(MizarError) as e:
        resolver.type_expr(parse_type("Widget"))
    assert e.value.code == 91


def parse_type(text: str):
    art, errs = parse_article(f"environ begin theorem for q being {text} holds contradiction;")
    assert errs == [], errs
    return art.items[0].prop.formula.binders[0].ty


def test_wrong_arity_is_92(resolver, scope):
    scope.func_names[("double", 1)] = scope.db.fresh_id("func")
    assert err_code(resolver, "double(1, 2) = 1") == 92
    assert err_code(resolver, "in(1)") == 92
    assert err_code(resolver, "meets(1)") == 92


def test_private_definitions_expand_eagerly(resolver, scope):
    nat = scope.req.nat_type()
    add = scope.req.require("Add")
    scope.priv_funcs["f"] = PrivDef(
        scope.fresh_priv("func"), (nat,), FunctorApp(add, (locus(0), locus(0)))
    )
    eq = rf(resolver, "f(3) = 6")
    lhs = eq.args[0]
    assert isinstance(lhs, PrivFunc)
    assert lhs.expansion == FunctorApp(add, (Numeral(3), Numeral(3)))

    le = scope.req.require("LessOrEqual")
    scope.priv_preds["P"] = PrivDef(
        scope.fresh_priv("pred"), (nat,), Pred(le, (locus(0), Numeral(9)))
    )
    at = rf(resolver, "P[4]")
    assert isinstance(at, PrivPred)
    assert at.expansion == Pred(le, (Numeral(4), Numeral(9)))


def test_scheme_placeholders_resolve_opaquely(resolver, scope):
    nat = scope.req.nat_type()
    scope.scheme_preds["P"] = (0, (nat,))
    at = rf(resolver, "P[7]")
    assert at == SchemePred(0, (Numeral(7),))
    assert err_code(resolver, "P[1, 2]") == 92


def test_dollar_args_resolve_to_loci(resolver, scope):
    scope.context["dollar_types"] = (scope.req.nat_type(), scope.req.nat_type())
    f = rf(resolver, "$1 + $2 = $2 + $1")
    assert f.args[0] == FunctorApp(scope.req.require("Add"), (locus(0), locus(1)))
    assert err_code(resolver, "$3 = $3") == 92
    scope.context["dollar_types"] = None
    assert err_code(resolver, "$1 = $1") == 91


def test_type_round_up_applies_builtin_sign_clusters(resolver):
    ty = resolver.type_expr(parse_type("positive Nat"))
    neg = resolver.req.require("Negative")
    assert Attr(False, neg) in resolver.db.round_up(ty)
    # the type itself is what was written
    nat = resolver.req.nat_type()
    assert ty == TypeExpr(nat.lower | {Attr(True, resolver.req.require("Positive"))}, nat.mode)


def test_guarded_forall_nests_guard_inside(resolver):
    f = rf(resolver, "for x being Nat st x = 1 holds x + 1 = 2")
    assert isinstance(f, ForAll)
    imp = f.body
    assert isinstance(imp, Neg) and isinstance(imp.body, And)


def test_thesis_is_the_resolvers_thesis_shifted_to_its_depth(resolver, scope):
    thesis = rf(resolver, "for x being Nat holds x = 0")
    with_thesis = Resolver(scope, thesis)
    assert rf(with_thesis, "thesis") is thesis
    assert rf(with_thesis, "thesis & 1 = 1") == rf(resolver, "(for x being Nat holds x = 0) & 1 = 1")
    assert rf(with_thesis, "not thesis") == Neg(thesis)
    # under a binder and in a Fraenkel guard, the thesis keeps its own
    # binder: `y` captures nothing
    for text in [
        "for y being Nat st y = 0 holds {}",
        "{ y where y being Nat : {} } = {}",
    ]:
        got = rf(with_thesis, text.replace("{}", "thesis", 1))
        assert got == rf(resolver, text.replace("{}", "for x being Nat holds x = 0", 1))
        assert got != rf(resolver, text.replace("{}", "for x being Nat holds y = 0", 1))
    assert scope.bound_names == []
    assert err_code(resolver, "thesis") == 51
    assert err_code(resolver, "for y being Nat holds thesis") == 51


def test_fraenkel_and_choice_terms(resolver, scope):
    empty = scope.req.require("Empty")
    scope.db.existential.append(TypeExpr(frozenset([Attr(False, empty)]), scope.req.set_type().mode))
    f = rf(resolver, "the non empty set in { x where x being Nat : x = x }")
    member, collection = f.args
    assert member.ty.mode == resolver.req.require("Set")
    assert collection.binders[0] == resolver.req.nat_type()
    assert collection.body == bound(0)


def test_choice_needs_an_existence_registration(resolver):
    assert err_code(resolver, "the non empty set = the non empty set") == 53
    # bare modes are inhabited by fiat
    rf(resolver, "the set = the set")


def test_contradictory_adjectives_rejected(resolver):
    # positive rounds up to non negative, clashing with the written negative
    assert err_code(resolver, "for x being positive negative Nat holds x = x") == 52
