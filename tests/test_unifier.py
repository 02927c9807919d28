"""Universal instantiation and flex-literal matching."""

from micromizar.equalizer import refute_clause
from micromizar.flex import infer_flex_from_diff
from micromizar.logic import (
    Attr,
    FlexAnd,
    FlexConj,
    ForAll,
    FunctorApp,
    Is,
    Neg,
    Numeral,
    Pred,
    PrivPred,
    Qual,
    TypeExpr,
    bound,
    const,
    mk_and,
    mk_neg,
)
from micromizar.subtyping import DefinitionDb
from micromizar.unifier import TUPLE_CAP, Unifier, clause_refuted

FSET = frozenset()


def eq(req, a, b):
    return Pred(req.require("Equality"), (a, b))


def le(req, a, b):
    return Pred(req.require("LessOrEqual"), (a, b))


def check(req, lits, consts=None, cap=1000):
    return clause_refuted(DefinitionDb(req), lits, consts or {}, cap)[:2]


def test_single_instantiation(req_all):
    req = req_all
    fa = ForAll(req.set_type(), Neg(eq(req, bound(0), bound(0))))
    refuted, limited = check(req, [fa], {0: req.set_type()})
    assert refuted and not limited


def test_pair_instantiation(req_all):
    req = req_all
    x, y = const(0), const(1)
    fa = ForAll(req.set_type(), ForAll(req.set_type(), Neg(le(req, bound(0), bound(1)))))
    lits = [le(req, x, y), fa]
    refuted, _ = check(req, lits, {0: req.set_type(), 1: req.set_type()})
    assert refuted


def test_numeric_instance(req_all):
    req = req_all
    x = const(0)
    body = Neg(eq(req, FunctorApp(req.require("Add"), (bound(0), Numeral(1))), Numeral(5)))
    lits = [eq(req, x, Numeral(4)), ForAll(req.nat_type(), body)]
    refuted, _ = check(req, lits, {0: req.set_type()})
    assert refuted


def test_type_gate_excludes_nonmatching_classes(req_all):
    req = req_all
    x = const(0)
    imag = FunctorApp(req.require("ImaginaryUnit"), ())
    fa = ForAll(req.nat_type(), Neg(eq(req, bound(0), bound(0))))
    lits = [eq(req, x, imag), fa]
    refuted, _ = check(req, lits, {0: req.set_type()})
    assert not refuted


def test_qual_disproved_by_adjective(req_all):
    req = req_all
    x = const(0)
    natural = Attr(True, req.require("Natural"))
    lits = [
        Neg(Is(x, natural)),
        ForAll(req.set_type(), Qual(bound(0), req.nat_type())),
    ]
    refuted, _ = check(req, lits, {0: req.set_type()})
    assert refuted


def _matching_pair(req):
    left = le(req, Numeral(1), Numeral(5))
    right = le(req, Numeral(2), Numeral(5))
    f1 = infer_flex_from_diff(left, right, req)
    f2 = FlexConj(Numeral(0), f1.hi, f1.expansion, f1.inst_lo, f1.inst_hi)
    return f1, f2


def test_flex_pair_strict_rejects_endpoint_match(req_all):
    req = req_all
    f1, f2 = _matching_pair(req)
    lits = [FlexAnd(f1), Neg(FlexAnd(f2))]
    refuted, _ = check(req, lits)
    assert not refuted


def test_flex_identical_literals_conflict_in_strict_mode(req_all):
    req = req_all
    f1, _ = _matching_pair(req)
    lits = [FlexAnd(f1), Neg(FlexAnd(f1))]
    refuted, _ = check(req, lits)
    assert refuted


def test_flex_fact_used_inside_instantiated_body(req_all):
    req = req_all
    f1, _ = _matching_pair(req)
    left = le(req, Numeral(1), Numeral(5))
    right = le(req, Numeral(2), Numeral(5))
    nested = infer_flex_from_diff(left, right, req, depth=1)
    lits = [
        Neg(FlexAnd(f1)),
        ForAll(req.set_type(), FlexAnd(nested)),
        eq(req, const(0), const(0)),
    ]
    refuted, _ = check(req, lits, {0: req.set_type()})
    assert refuted


def test_tuple_budget_caps_the_search(req_all):
    req = req_all
    fa = ForAll(req.set_type(), Neg(eq(req, bound(0), bound(0))))
    refuted, limited = check(req, [fa], {0: req.set_type()}, cap=0)
    assert not refuted
    assert limited


def test_instantiation_depth_is_bounded_to_pairs(req_all):
    req = req_all
    core = Neg(eq(req, bound(2), bound(2)))
    fa = ForAll(req.set_type(), ForAll(req.set_type(), ForAll(req.set_type(), core)))
    refuted, _ = check(req, [fa], {0: req.set_type()})
    assert not refuted


def test_search_is_deterministic(req_all):
    req = req_all
    x, y = const(0), const(1)
    fa = ForAll(req.set_type(), ForAll(req.set_type(), Neg(le(req, bound(0), bound(1)))))
    lits = [le(req, x, y), mk_neg(eq(req, x, y)), fa]
    consts = {0: req.set_type(), 1: req.set_type()}
    assert check(req, lits, consts) == check(req, lits, consts)


def test_a_qual_instance_can_intern_its_type_arguments(req_all):
    # "x is Element of bool x": class_satisfies interns each instance's
    # type argument, so the search adds bool c0 and bool {} to the graph
    req = req_all
    element = TypeExpr(FSET, req.require("Element"), (FunctorApp(req.require("PowerSet"), (bound(0),)),))
    lits = [ForAll(req.set_type(), Qual(bound(0), element))]
    g = refute_clause(DefinitionDb(req), lits, {0: req.set_type()})
    assert len(g.nodes) == 2  # c0 and {}
    u = Unifier(g, tuple(lits), {0: req.set_type()})
    assert not u.refute()
    assert u.fuel == TUPLE_CAP - 2
    assert len(g.nodes) == 4
    bools = {g.term_of_class(r) for r in g.classes()[2:]}
    assert bools == {FunctorApp(req.require("PowerSet"), (t,)) for t in (const(0), FunctorApp(req.require("EmptySet"), ()))}


def test_a_term_the_search_interns_is_seen_by_later_lookups(req_all):
    # the type check of the first conjunct interns 7 with its natural
    # type, so the second conjunct is false in the very same instance
    req = req_all
    seven_is_natural = Is(Numeral(7), Attr(True, req.require("Natural")))
    element = TypeExpr(FSET, req.require("Element"), (Numeral(7),))
    lits = [ForAll(req.set_type(), mk_and([Qual(bound(0), element), mk_neg(seven_is_natural)]))]
    g = refute_clause(DefinitionDb(req), lits, {0: req.set_type()})
    assert len(g.nodes) == 2
    u = Unifier(g, tuple(lits), {0: req.set_type()})
    assert u.refute()
    assert u.fuel == TUPLE_CAP - 1
    assert len(g.nodes) == 3


def test_a_refuting_instance_under_a_negated_private_predicate(req_all):
    # for x holds not S[x] with S[x] := x = c0 & x = x; the instance c0
    # refutes it, and the replay sees through S to the conjunction
    req = req_all
    s = PrivPred(0, (bound(0),), mk_and([eq(req, bound(0), const(0)), eq(req, bound(0), bound(0))]))
    refuted, limited = check(req, [ForAll(req.set_type(), Neg(s))], {0: req.set_type()})
    assert refuted and not limited


# -- matching: only the instances whose needed literals the graph holds ----------

R = 40  # a user predicate: the graph keeps its atoms and reads nothing into them


def search(req, lits, n=3):
    """The search over the saturated clause, constants 0..n-1 being sets
    (classes 0..n-1; the empty set is class n)."""
    consts = {i: req.set_type() for i in range(n)}
    return Unifier(refute_clause(DefinitionDb(req), lits, consts), tuple(lits), consts)


def tuples(u, fa):
    return list(u._tuples(fa, fa.body.body if isinstance(fa.body, ForAll) else fa.body))


def test_a_negative_fact_matches_a_bare_literal_on_sign_false(req_all):
    fa = ForAll(req_all.set_type(), Pred(R, (bound(0),)))
    u = search(req_all, [Neg(Pred(R, (const(1),))), Pred(R, (const(2),)), fa])
    assert tuples(u, fa) == [[1]]
    assert u.refute()
    assert u.fuel == TUPLE_CAP - 1


def test_a_closed_argument_matches_its_class(req_all):
    # for x holds not R(x, c0): only x = c1 has R(x, c0); a closed term
    # the graph lacks matches no atom, so that universal gives no tuple
    facts = [Pred(R, (const(1), const(0))), Pred(R, (const(2), const(1)))]
    fa = ForAll(req_all.set_type(), Neg(Pred(R, (bound(0), const(0)))))
    missing = ForAll(req_all.set_type(), Neg(Pred(R, (bound(0), FunctorApp(30, (const(0),))))))
    u = search(req_all, [*facts, fa, missing])
    assert tuples(u, fa) == [[1]]
    assert tuples(u, missing) == []


def test_a_repeated_variable_matches_one_class_at_both_places(req_all):
    facts = [Pred(R, (const(0), const(1))), Pred(R, (const(2), const(2)))]
    fa = ForAll(req_all.set_type(), Neg(Pred(R, (bound(0), bound(0)))))
    u = search(req_all, [*facts, fa])
    assert tuples(u, fa) == [[2]]
    assert u.refute()


def test_a_nested_universal_is_tried_in_pairs_only(req_all):
    # its single instances are universals, which evaluate to None
    fa = ForAll(req_all.set_type(), ForAll(req_all.set_type(), Neg(Pred(R, (bound(1), bound(0))))))
    u = search(req_all, [Pred(R, (const(0), const(1))), fa])
    assert tuples(u, fa) == [[1, 0]]
    assert u.refute()
    assert u.fuel == TUPLE_CAP - 1


def test_a_universal_without_matched_literals_walks_every_pair(req_all):
    # an equality reads classes and values, so it is not matched
    req = req_all
    fa = ForAll(req.set_type(), ForAll(req.set_type(), Neg(eq(req, FunctorApp(30, (bound(0),)), bound(1)))))
    u = search(req, [fa])
    classes = u.g.classes()
    assert len(classes) == 4
    assert tuples(u, fa) == [[a, b] for a in classes for b in classes]
    assert not u.refute()
    assert u.fuel == TUPLE_CAP - 16
