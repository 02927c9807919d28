"""Clause refutation through the congruence graph."""

import collections
import gc
import random
import weakref

import pytest

import _oracles as orc
from conftest import ALL_GROUPS
from micromizar.arith import OPS, Op
from micromizar.equalizer import EqGraph, refute_clause
from micromizar.logic import (
    Attr,
    Choice,
    Fraenkel,
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
    Var,
    VarKind,
    bound,
    const,
    split_closed,
)
from micromizar.requirements import enable_groups
from micromizar.subtyping import ConditionalCluster, DefinitionDb, FunctorCluster

FS = frozenset()


def eq(req, a, b):
    return Pred(req.require("Equality"), (a, b))


def neq(req, a, b):
    return Neg(eq(req, a, b))


def le(req, a, b):
    return Pred(req.require("LessOrEqual"), (a, b))


def member(req, x, a):
    return Pred(req.require("Membership"), (x, a))


def run_clause(req, lits, consts=None):
    db = DefinitionDb(req)
    return refute_clause(db, lits, consts or {})


def plus(req, a, b):
    return FunctorApp(req.require("Add"), (a, b))


def times(req, a, b):
    return FunctorApp(req.require("Mul"), (a, b))


def test_two_plus_two_is_four(req_all):
    g = run_clause(req_all, [neq(req_all, plus(req_all, Numeral(2), Numeral(2)), Numeral(4))])
    assert g.contradiction


def test_two_plus_two_is_not_five(req_all):
    g = run_clause(req_all, [eq(req_all, plus(req_all, Numeral(2), Numeral(2)), Numeral(5))])
    assert g.contradiction


def test_successor_chain_without_arithmetic(req_file):
    req, note = enable_groups(req_file, ["NUMERALS"])
    assert note is None
    succ = req.require("Succ")
    two = FunctorApp(succ, (FunctorApp(succ, (Numeral(0),)),))
    g = run_clause(req, [neq(req, two, Numeral(2))])
    assert g.contradiction


def test_numerals_opaque_without_group(req_file):
    req, _ = enable_groups(req_file, ["BOOLE"])
    g = run_clause(req, [eq(req, Numeral(1), Numeral(2))])
    assert not g.contradiction
    g = run_clause(req, [neq(req, Numeral(1), Numeral(1))])
    assert g.contradiction


def test_binomial_square_expansion(req_all):
    req = req_all
    x = const(0)
    lhs = times(req, plus(req, x, Numeral(1)), plus(req, x, Numeral(1)))
    rhs = plus(req, plus(req, times(req, x, x), times(req, Numeral(2), x)), Numeral(1))
    g = run_clause(req, [neq(req, lhs, rhs)], {0: req.object_type()})
    assert g.contradiction


def test_value_conflict(req_all):
    req = req_all
    x = const(0)
    g = run_clause(
        req,
        [eq(req, x, Numeral(2)), eq(req, x, Numeral(3))],
        {0: req.object_type()},
    )
    assert g.contradiction


def test_sign_adjective_from_value(req_all):
    req = req_all
    x = const(0)
    negative = Attr(True, req.require("Negative"))
    lits = [eq(req, x, Numeral(5)), Is(x, negative)]
    g = run_clause(req, lits, {0: req.object_type()})
    assert g.contradiction
    positive = Attr(True, req.require("Positive"))
    g = run_clause(req, [eq(req, x, Numeral(5)), Is(x, positive)], {0: req.object_type()})
    assert not g.contradiction


def test_order_value_violation(req_all):
    g = run_clause(req_all, [le(req_all, Numeral(5), Numeral(3))])
    assert g.contradiction


def test_order_reflexivity(req_all):
    x = const(0)
    g = run_clause(req_all, [Neg(le(req_all, x, x))], {0: req_all.object_type()})
    assert g.contradiction


def test_order_antisymmetry(req_all):
    req = req_all
    x, y = const(0), const(1)
    lits = [le(req, x, y), le(req, y, x), neq(req, x, y)]
    g = run_clause(req, lits, {0: req.object_type(), 1: req.object_type()})
    assert g.contradiction


def test_order_totality(req_all):
    req = req_all
    x, y = const(0), const(1)
    lits = [Neg(le(req, x, y)), Neg(le(req, y, x))]
    g = run_clause(req, lits, {0: req.object_type(), 1: req.object_type()})
    assert g.contradiction


def test_order_satisfiable(req_all):
    req = req_all
    x, y = const(0), const(1)
    g = run_clause(req, [le(req, x, y)], {0: req.object_type(), 1: req.object_type()})
    assert not g.contradiction


def test_union_with_empty_set(req_all):
    req = req_all
    a = const(0)
    empty = FunctorApp(req.require("EmptySet"), ())
    u = FunctorApp(req.require("Union"), (a, empty))
    g = run_clause(req, [neq(req, u, a)], {0: req.set_type()})
    assert g.contradiction


# the boolean requirement's equalities, written out: (functor, first
# argument, second argument, what the term equals)
BOOLEAN_EQUALITIES = [
    ("Union", "{}", "b", "b"),
    ("Union", "a", "{}", "a"),
    ("Union", "a", "a", "a"),
    ("Intersection", "{}", "b", "{}"),
    ("Intersection", "a", "{}", "{}"),
    ("Intersection", "a", "a", "a"),
    ("Difference", "a", "{}", "a"),
    ("Difference", "{}", "b", "{}"),
    ("Difference", "a", "a", "{}"),
    ("SymDiff", "a", "{}", "a"),
    ("SymDiff", "{}", "b", "b"),
    ("SymDiff", "a", "a", "{}"),
]


@pytest.mark.parametrize("name, first, second, result", BOOLEAN_EQUALITIES)
def test_each_boolean_equality_is_a_row_that_refutes_its_denial(req_all, monkeypatch, name, first, second, result):
    req = req_all
    f = req.require(name)
    at = {"a": const(0), "b": const(1), "{}": FunctorApp(req.require("EmptySet"), ())}
    lits = [neq(req, FunctorApp(f, (at[first], at[second])), at[result])]
    sets = {0: req.set_type(), 1: req.set_type()}
    assert (first, second, result) in req.reductions[f]
    assert run_clause(req, lits, sets).contradiction
    # no other rule proves it
    rows = tuple(r for r in req.reductions[f] if r != (first, second, result))
    monkeypatch.setattr(req, "reductions", {**req.reductions, f: rows})
    assert not run_clause(req, lits, sets).contradiction


def test_meets_contradicts_empty_argument(req_all):
    req = req_all
    a, b = const(0), const(1)
    lits = [
        Pred(req.require("Meets"), (a, b)),
        eq(req, b, FunctorApp(req.require("EmptySet"), ())),
    ]
    g = run_clause(req, lits, {0: req.set_type(), 1: req.set_type()})
    assert g.contradiction


def test_nothing_is_in_the_empty_set(req_all):
    req = req_all
    x = const(0)
    empty = FunctorApp(req.require("EmptySet"), ())
    g = run_clause(req, [member(req, x, empty)], {0: req.set_type()})
    assert g.contradiction


def test_subset_antisymmetry(req_all):
    req = req_all
    a, b = const(0), const(1)
    sub = req.require("Subset")
    lits = [Pred(sub, (a, b)), Pred(sub, (b, a)), neq(req, a, b)]
    g = run_clause(req, lits, {0: req.set_type(), 1: req.set_type()})
    assert g.contradiction


def test_negated_subset_of_itself(req_all):
    req = req_all
    a = const(0)
    g = run_clause(req, [Neg(Pred(req.require("Subset"), (a, a)))], {0: req.set_type()})
    assert g.contradiction


def test_powerset_membership_types(req_all):
    req = req_all
    x, a, b = const(0), const(1), const(2)
    elem = req.require("Element")
    pow_b = FunctorApp(req.require("PowerSet"), (b,))
    lits = [
        member(req, x, a),
        Qual(a, TypeExpr(FS, elem, (pow_b,))),
    ]
    g = run_clause(req, lits, {0: req.set_type(), 1: req.set_type(), 2: req.set_type()})
    assert not g.contradiction
    xr = g.lookup(x)
    br = g.lookup(b)
    assert (elem, (g.find(br),)) in g.types[g.find(xr)]
    assert g.attr_sign(br, req.require("Empty"), ()) is False


def test_membership_from_nonempty_element_type(req_all):
    req = req_all
    x, a = const(0), const(1)
    elem = req.require("Element")
    lits = [
        Qual(x, TypeExpr(FS, elem, (a,))),
        Is(a, Attr(False, req.require("Empty"))),
        Neg(member(req, x, a)),
    ]
    g = run_clause(req, lits, {0: req.set_type(), 1: req.set_type()})
    assert g.contradiction


def test_negated_type_claim(req_all):
    req = req_all
    x = const(0)
    g = run_clause(req, [Neg(Qual(x, req.nat_type()))], {0: req.nat_type()})
    assert g.contradiction


def test_negated_type_claim_needs_the_adjective(req_all):
    req = req_all
    x = const(0)
    g = run_clause(req, [Neg(Qual(x, req.nat_type()))], {0: req.set_type()})
    assert not g.contradiction


def test_squaring_chain_stays_consistent(req_all):
    req = req_all
    x = const(0)
    lits = []
    prev = x
    squares = []
    for _ in range(6):
        prev = times(req, prev, prev)
        squares.append(prev)
    for i in range(len(squares)):
        for j in range(i + 1, len(squares)):
            lits.append(neq(req, squares[i], squares[j]))
    g = run_clause(req, lits, {0: req.object_type()})
    assert not g.contradiction
    assert not g.limited


def test_congruence_propagation(req_all):
    req = req_all
    x, y = const(0), const(1)
    lits = [eq(req, x, y), neq(req, times(req, x, x), times(req, y, y))]
    g = run_clause(req, lits, {0: req.object_type(), 1: req.object_type()})
    assert g.contradiction


def test_multiplication_commutes(req_all):
    req = req_all
    x, y = const(0), const(1)
    g = run_clause(
        req,
        [neq(req, times(req, x, y), times(req, y, x))],
        {0: req.object_type(), 1: req.object_type()},
    )
    assert g.contradiction


def test_imaginary_unit_squares_to_minus_one(req_all):
    req = req_all
    i = FunctorApp(req.require("ImaginaryUnit"), ())
    minus_one = FunctorApp(req.require("Sub"), (Numeral(0), Numeral(1)))
    g = run_clause(req, [neq(req, times(req, i, i), minus_one)])
    assert g.contradiction


def test_linear_equation_pins_the_unknown(req_all):
    req = req_all
    x = const(0)
    succ_x = FunctorApp(req.require("Succ"), (x,))
    lits = [eq(req, succ_x, Numeral(5)), neq(req, x, Numeral(4))]
    g = run_clause(req, lits, {0: req.nat_type()})
    assert g.contradiction


def test_zero_functor_is_the_zero_numeral(req_all):
    req = req_all
    zero = FunctorApp(req.require("Zero"), ())
    g = run_clause(req, [neq(req, zero, Numeral(0))])
    assert g.contradiction


def test_private_functor_unfolds(req_all):
    req = req_all
    x = const(0)
    body = plus(req, x, Numeral(1))
    pf = PrivFunc(0, (x,), body)
    g = run_clause(req, [neq(req, pf, body)], {0: req.object_type()})
    assert g.contradiction


def test_a_number_has_its_value_s_adjectives_as_soon_as_it_is_interned(req_all):
    # no round runs: the adjectives are set when the value is stored
    req = req_all
    g = EqGraph(DefinitionDb(req))
    names = ("ZeroAttr", "Natural", "Positive", "Negative")
    for n, signs in ((0, (True, True, False, False)), (3, (False, True, True, False))):
        rep = g.intern(Numeral(n))
        assert [g.attr_sign(rep, req.require(a), ()) for a in names] == list(signs), n


def test_a_class_that_is_zero_has_the_value_0_at_once(req_all):
    req = req_all
    g = EqGraph(DefinitionDb(req))
    c = const(0)
    g.assume(Is(c, Attr(True, req.require("ZeroAttr"))))
    rep = g.lookup(c)
    assert g.value[rep].is_zero()
    assert g.attr_sign(rep, req.require("Positive"), ()) is False


def test_registered_conditional_cluster(req_all):
    req = req_all
    db = DefinitionDb(req)
    positive = Attr(True, req.require("Positive"))
    not_zero = Attr(False, req.require("ZeroAttr"))
    db.conditional.append(ConditionalCluster(frozenset([positive]), frozenset([not_zero]), req.set_type()))
    x = const(0)
    g = EqGraph(db)
    g.assume_const_type(0, req.set_type())
    g.assume(Is(x, positive))
    g.assume(Is(x, Attr(True, req.require("ZeroAttr"))))
    g.run()
    assert g.contradiction


def test_registered_functor_cluster(req_all):
    req = req_all
    db = DefinitionDb(req)
    fid = db.fresh_id("func")
    term = FunctorApp(fid, ())
    db.funcs[fid] = None  # placeholder entry unused by the graph
    db.functor_clusters.append(FunctorCluster(term, frozenset([Attr(False, req.require("Empty"))])))
    g = EqGraph(db)
    g.assume(Is(term, Attr(True, req.require("Empty"))))
    g.run()
    assert g.contradiction


def test_deterministic_replay(req_all):
    req = req_all
    x, y = const(0), const(1)
    lits = [
        le(req, x, y),
        eq(req, plus(req, x, y), Numeral(7)),
        Is(x, Attr(True, req.require("Natural"))),
    ]
    consts = {0: req.object_type(), 1: req.object_type()}
    g1 = run_clause(req, lits, consts)
    g2 = run_clause(req, lits, consts)
    assert g1.parent == g2.parent
    assert g1.atoms == g2.atoms
    assert sorted(g1.value.items(), key=lambda kv: kv[0]) == sorted(
        g2.value.items(), key=lambda kv: kv[0]
    )
    assert g1.contradiction == g2.contradiction


def test_round_budget_marks_limited(req_all):
    req = req_all
    g = EqGraph(DefinitionDb(req))
    g.assume(eq(req, Numeral(1), Numeral(1)))
    g.run(max_rounds=0)
    assert g.limited
    assert not g.contradiction


def test_disequality_survives_a_merge_into_a_smaller_class(req_all):
    req = req_all
    g = EqGraph(DefinitionDb(req))
    a, b, c = (g.intern(const(i)) for i in range(3))
    g.assume(neq(req, const(1), const(2)))
    g.assume(eq(req, const(0), const(2)))
    g.run()
    assert not g.contradiction
    assert g.find(c) == a
    assert g.are_unequal(b, c)
    assert g.are_unequal(a, b)
    assert g.classes() == sorted({g.find(n) for n in range(len(g.nodes))})


def test_a_merge_across_a_disequality_closes_the_graph_at_once(req_all):
    req = req_all
    g = EqGraph(DefinitionDb(req))
    a, b = g.intern(const(0)), g.intern(const(1))
    g.assume(neq(req, const(1), const(0)))
    assert not g.contradiction
    g.union(b, a)
    assert g.contradiction


def test_a_refuting_merge_by_value_ends_its_own_round(req_all):
    # the values merge the two classes in the value pass, after the
    # round's re-keying: the merge itself must see the disequality
    req = req_all
    g = EqGraph(DefinitionDb(req))
    g.assume(eq(req, const(0), plus(req, Numeral(1), Numeral(1))))
    g.assume(eq(req, const(1), Numeral(2)))
    g.assume(neq(req, const(0), const(1)))
    g.round()
    assert g.contradiction


def test_adjectives_of_opposite_sign_clash_when_their_classes_merge(req_all):
    req = req_all
    empty = req.require("Empty")
    g = EqGraph(DefinitionDb(req))
    g.assume(Is(const(0), Attr(True, empty)))
    g.assume(Is(const(1), Attr(False, empty)))
    assert not g.contradiction
    g.assume(eq(req, const(0), const(1)))
    assert g.contradiction


def test_adjectives_of_opposite_sign_clash_when_their_arguments_merge(req_all):
    req = req_all
    db = DefinitionDb(req)
    aid = db.fresh_id("attr")
    lits = [
        Is(const(0), Attr(True, aid, (const(1),))),
        Is(const(0), Attr(False, aid, (const(2),))),
    ]
    assert not run_clause(req, lits).contradiction
    g = EqGraph(db)
    for lit in lits + [eq(req, const(1), const(2))]:
        g.assume(lit)
    g.run()
    assert g.contradiction


def test_atoms_of_opposite_sign_clash_when_their_arguments_merge(req_all):
    req = req_all
    lits = [SchemePred(0, (const(0), const(1))), Neg(SchemePred(0, (const(0), const(2))))]
    assert not run_clause(req, lits).contradiction
    assert run_clause(req, lits + [eq(req, const(1), const(2))]).contradiction


def test_a_merged_class_lists_each_type_once(req_all):
    req = req_all
    elem = req.require("Element")
    g = EqGraph(DefinitionDb(req))
    for x, a in ((0, 2), (1, 2), (1, 3)):
        g.assume(Qual(const(x), TypeExpr(FS, elem, (const(a),))))
    g.assume(eq(req, const(0), const(1)))
    x, a, b = (g.lookup(const(i)) for i in (0, 2, 3))
    assert list(g.types[x]) == [(elem, (a,)), (elem, (b,))]
    g.assume(eq(req, const(2), const(3)))
    g.run()
    assert not g.contradiction
    assert list(g.types[x]) == [(elem, (a,))]


def test_a_negated_private_predicate_whose_expansion_is_a_negation(req_all):
    # not S[] with S[] := c0 <> c1 asserts c0 = c1; the negation of the
    # expansion cancels instead of nesting
    req = req_all
    g = run_clause(req, [Neg(PrivPred(0, (), neq(req, const(0), const(1)))), neq(req, const(0), const(1))])
    assert g.contradiction


def test_lookup_finds_what_intern_made_and_makes_nothing(req_all):
    req = req_all
    g = EqGraph(DefinitionDb(req))
    t = plus(req, const(0), PrivFunc(0, (), FunctorApp(req.require("EmptySet"), ())))
    assert g.lookup(t) is None
    assert (g.nodes, g.node_of_key) == ([], {})
    rep = g.intern(t)
    made = len(g.nodes)
    assert made >= 3  # the sum, its summands and the facts their types bring
    assert g.lookup(t) == rep == g.intern(t)
    assert g.lookup(plus(req, const(0), const(0))) is None
    assert len(g.nodes) == made
    g.assume(eq(req, const(0), const(1)))
    g.run()
    assert g.lookup(plus(req, const(1), FunctorApp(req.require("EmptySet"), ()))) == g.find(rep)


def test_an_opaque_term_is_keyed_by_the_classes_of_its_closed_parts(req_all):
    req = req_all
    elem, powerset = req.require("Element"), req.require("PowerSet")
    element_of = lambda a: Choice(TypeExpr(FS, elem, (a,)))  # noqa: E731
    # { x where x being Element of a : x in a }, under `depth` binders
    fraenkel = lambda a, depth: Fraenkel(  # noqa: E731
        (TypeExpr(FS, elem, (a,)),), bound(depth), member(req, bound(depth), a)
    )
    g = EqGraph(DefinitionDb(req))
    choice = g.intern(element_of(FunctorApp(powerset, (const(0),))))
    comprehension = g.intern(fraenkel(const(0), 0))
    c0 = g.lookup(const(0))
    # the same terms over bound level 0, read as the class of c0
    assert g.lookup(element_of(FunctorApp(powerset, (bound(0),))), (c0,)) == choice
    assert g.lookup(fraenkel(bound(0), 1), (c0,)) == comprehension
    assert g.lookup(element_of(FunctorApp(powerset, (const(1),)))) is None
    # congruence: equal closed parts make equal terms
    other = g.intern(element_of(FunctorApp(powerset, (const(1),))))
    g.assume(eq(req, const(0), const(1)))
    g.run()
    assert g.find(other) == g.find(choice)
    assert g.term_of_class(other) == element_of(FunctorApp(powerset, (const(0),)))


def test_an_opaque_key_does_not_depend_on_the_order_of_a_set(req_all):
    # two equal adjective sets that iterate in different orders: the
    # closed parts are numbered in ``sorted_attrs`` order all the same
    req = req_all
    attrs = [Attr(True, 100 + k, (const(k),)) for k in range(16)]
    a, b = next((a, b) for a in attrs for b in attrs if list(frozenset([a, b])) != list(frozenset([b, a])))
    one, two = (Choice(TypeExpr(s, req.require("Set"))) for s in (frozenset([a, b]), frozenset([b, a])))
    assert split_closed(one, 0) == split_closed(two, 0)
    g = EqGraph(DefinitionDb(req))
    assert g.intern(one) == g.intern(two)
    assert [head[0] for head, _ in g.nodes].count("opaque") == 1


def minus(req, a, b):
    return FunctorApp(req.require("Sub"), (a, b))


def test_every_pair_of_a_class_s_polynomials_is_compared(req_all):
    # a = z - 3, a = x + y + 1, a = x + y + 2: the class of a holds three
    # polynomials, and only the two that are not its least, z - 3, differ
    # by a nonzero constant
    req = req_all
    x, y, z, a = (const(i) for i in range(4))
    xy = plus(req, x, y)
    g = run_clause(
        req,
        [
            eq(req, a, minus(req, z, Numeral(3))),
            eq(req, a, plus(req, xy, Numeral(1))),
            eq(req, a, plus(req, xy, Numeral(2))),
        ],
    )
    assert g.contradiction


def test_a_class_read_through_a_cut_is_read_again(req_all):
    # c3 = c3 + c2 puts c3's class on a cycle, so the first pass reads
    # the classes of c1, c2 and c3 through a class in progress, and what
    # it reads depends on the class the walk comes in from.  c3 - c3 = 0
    # is found in that pass; only when the cycle is read again from the
    # merged classes' side does c2 = 0 follow, refuting c1 * c2 = 2.
    # Keeping the first pass's reading of the cycle misses it.
    req = req_all
    c0, c1, c2, c3 = (const(i) for i in range(4))
    succ = req.require("Succ")
    lits = [
        eq(req, FunctorApp(succ, (times(req, c1, c2),)), FunctorApp(succ, (Numeral(2),))),
        eq(req, c2, plus(req, c0, c3)),
        eq(req, c3, plus(req, c3, c2)),
        eq(req, c1, plus(req, minus(req, c3, c3), c1)),
    ]
    assert orc.reference_refute_clause(DefinitionDb(req), lits, {}).contradiction
    assert run_clause(req, lits).contradiction


def random_arith_term(req, rng: random.Random, consts: int, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Numeral(rng.randrange(5)) if rng.random() < 0.35 else const(rng.randrange(consts))
    name = rng.choice(["Add", "Sub", "Mul", "Div", "Neg", "Succ", "Add", "Mul"])
    arity = 2 if name in ("Add", "Sub", "Mul", "Div") else 1
    return FunctorApp(req.require(name), tuple(random_arith_term(req, rng, consts, depth - 1) for _ in range(arity)))


def random_arith_clause(req, rng: random.Random) -> list:
    consts = rng.choice([3, 4])
    lits = []
    for _ in range(rng.randint(2, 5)):
        a = random_arith_term(req, rng, consts, 3)
        b = random_arith_term(req, rng, consts, rng.randrange(4))
        lits.append(eq(req, a, b) if rng.random() < 0.7 else neq(req, a, b))
    return lits


def test_the_polynomial_table_agrees_with_the_pass_over_every_class(req_all):
    # ``ReferenceGraph`` recomputes every class's polynomials each round.
    # A refuted graph stops in the round its contradiction appears, and
    # what it holds then depends on the order the rules met the facts in
    # (the table meets a later class's polynomial before the pass reaches
    # that class), so only a saturated graph's digest is compared.
    rng = random.Random(12)
    refuted = 0
    for _ in range(300):
        lits = random_arith_clause(req_all, rng)
        g = run_clause(req_all, lits)
        ref = orc.reference_refute_clause(DefinitionDb(req_all), lits, {})
        assert (g.contradiction, g.limited) == (ref.contradiction, ref.limited), lits
        if not ref.contradiction:
            assert orc.graph_digest(g) == orc.graph_digest(ref), lits
        refuted += ref.contradiction
    assert 50 < refuted < 250


def random_numeral_term(req, rng: random.Random, consts: int, depth: int):
    if depth == 0 or rng.random() < 0.35:
        r = rng.random()
        if r < 0.15:
            return FunctorApp(req.require("Zero"), ())
        return Numeral(rng.randrange(4)) if r < 0.55 else const(rng.randrange(consts))
    return FunctorApp(req.require("Succ"), (random_numeral_term(req, rng, consts, depth - 1),))


def random_numeral_clause(req, rng: random.Random) -> list:
    """Equalities, disequalities and ``zero`` adjectives over numerals,
    ``succ``, the ``Zero`` functor and constants."""
    consts = rng.choice([2, 3])

    def term():
        return random_numeral_term(req, rng, consts, 3)

    lits = []
    for _ in range(rng.randint(2, 5)):
        r = rng.random()
        if r < 0.2:
            lits.append(Is(term(), Attr(rng.random() < 0.6, req.require("ZeroAttr"))))
        else:
            lits.append(eq(req, term(), term()) if r < 0.7 else neq(req, term(), term()))
    return lits


def test_without_arithm_the_polynomial_table_only_evaluates(req_file):
    # ``ReferenceGraph`` keeps the value pass over every node and every
    # valued class, and normalizes no polynomial without ARITHM; the
    # graph's polynomial table, whose rules only fold constants there,
    # must reach the same verdicts and the same saturated graphs
    rng = random.Random(22)
    refuted = 0
    for groups in (["NUMERALS"], ["NUMERALS", "REAL"], ["NUMERALS", "REAL", "BOOLE"]):
        req, note = enable_groups(req_file, groups)
        assert note is None
        for _ in range(250):
            lits = random_numeral_clause(req, rng)
            g = run_clause(req, lits)
            ref = orc.reference_refute_clause(DefinitionDb(req), lits, {})
            assert (g.contradiction, g.limited) == (ref.contradiction, ref.limited), (groups, lits)
            if not ref.contradiction:
                assert orc.graph_digest(g) == orc.graph_digest(ref), (groups, lits)
            refuted += ref.contradiction
    assert 200 < refuted < 700


def test_a_node_s_normal_form_is_computed_once(req_file, monkeypatch):
    # the clause saturates in more than one round and merges nothing the
    # arithmetic reads: the per-round pass applies a polynomial rule to
    # every node each round, the table once per node
    calls: collections.Counter = collections.Counter()
    for name, op in list(OPS.items()):
        def poly(*args, _name=name, _rule=op.poly):
            calls[_name] += 1
            return _rule(*args)

        monkeypatch.setitem(OPS, name, Op(op.value, poly))
    req, _ = enable_groups(req_file, ALL_GROUPS)
    x, y, z = (const(i) for i in range(3))
    lits = [neq(req, plus(req, times(req, x, y), Numeral(1)), z), le(req, z, Numeral(2))]
    g = run_clause(req, lits)
    assert not g.contradiction
    arithmetic = sum(head[0] == "app" and head[1] in req.arith for head, _ in g.nodes)
    assert sum(calls.values()) == arithmetic == 2
    calls.clear()
    orc.reference_refute_clause(DefinitionDb(req), lits, {})
    assert sum(calls.values()) > arithmetic


def test_a_graph_that_ran_the_polynomial_pass_is_freed_with_its_last_reference(req_all, monkeypatch):
    # the pass's reader holds the graph, never the other way round, so
    # refcounting frees the graph without the cyclic collector
    passes = []
    poly_pass = EqGraph._poly_pass
    monkeypatch.setattr(EqGraph, "_poly_pass", lambda g: passes.append(bool(g._due)) or poly_pass(g))
    x, y = const(0), const(1)
    lits = [neq(req_all, plus(req_all, x, Numeral(1)), y), eq(req_all, y, plus(req_all, Numeral(1), x))]
    gc.disable()
    try:
        g = run_clause(req_all, lits)
        assert g.contradiction and any(passes)
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_the_empty_set_is_there_before_the_first_pass(req_all, monkeypatch):
    # {} is made when the first round starts, not by the boolean pass,
    # so a clause that nothing changes saturates in one round
    rounds = []
    round_ = EqGraph.round
    monkeypatch.setattr(EqGraph, "round", lambda g: rounds.append(len(g.nodes)) or round_(g))
    g = refute_clause(DefinitionDb(req_all), [Pred(40, (const(0),))], {0: req_all.set_type()})
    assert rounds == [1]
    assert g.lookup(FunctorApp(req_all.require("EmptySet"), ())) == 1


def test_a_disequality_of_a_class_with_itself_closes_the_graph_at_intake(req_all, monkeypatch):
    # the merge-free round re-keys nothing, so no later scan would find it
    req = req_all
    rounds = []
    round_ = EqGraph.round
    monkeypatch.setattr(EqGraph, "round", lambda g: rounds.append(g) or round_(g))
    c, d = const(0), const(1)
    for lits in ([neq(req, c, c)], [eq(req, c, d), neq(req, c, d)]):
        assert run_clause(req, lits).contradiction
    assert rounds == []
    # a disequality whose key a merge left stale is caught when re-keyed
    e = const(2)
    assert run_clause(req, [neq(req, d, e), eq(req, c, d), eq(req, c, e)]).contradiction


def test_a_clause_without_arithmetic_computes_no_class_polynomial(req_all):
    req = req_all
    x, y = const(0), const(1)
    positive = Attr(True, req.require("Positive"))
    lits = [Is(x, positive), le(req, x, y), member(req, x, y), Neg(Qual(y, req.nat_type()))]
    g = run_clause(req, lits, {0: req.set_type(), 1: req.set_type()})
    assert not g.contradiction
    assert g.canon == {} and g.polys == {}


def test_a_round_after_which_nothing_merged_re_keys_no_table(req_all, monkeypatch):
    # x = y merges at intake, so the first round re-keys; the order pass
    # then adds an atom and a disequality but merges nothing
    req = req_all
    calls, per_round = [], []
    rekey, round_ = EqGraph._rekey, EqGraph.round
    monkeypatch.setattr(EqGraph, "_rekey", lambda g, *a: calls.append(a[0]) or rekey(g, *a))

    def counted(g):
        start = len(calls)
        out = round_(g)
        per_round.append(len(calls) - start)
        return out

    monkeypatch.setattr(EqGraph, "round", counted)
    x, y, z = const(0), const(1), const(2)
    g = run_clause(req, [eq(req, x, y), Neg(le(req, x, z))], {i: req.set_type() for i in range(3)})
    assert not g.contradiction
    assert len(per_round) == 2 and per_round[0] > 0 and per_round[1] == 0


ADJECTIVES = ["Positive", "Negative", "ZeroAttr", "Natural", "Empty"]


def random_mixed_term(req, rng: random.Random, consts: int, depth: int):
    if depth == 0 or rng.random() < 0.4:
        r = rng.random()
        if r < 0.1:
            return FunctorApp(req.require("EmptySet"), ())
        return Numeral(rng.randrange(3)) if r < 0.3 else const(rng.randrange(consts))
    name = rng.choice(["Add", "Mul", "Sub", "Union", "Intersection", "Difference", "SymDiff"])
    return FunctorApp(req.require(name), tuple(random_mixed_term(req, rng, consts, depth - 1) for _ in range(2)))


def random_mixed_clause(req, rng: random.Random) -> tuple[list, dict]:
    """Adjectives under the order clusters, types, membership,
    inclusion, the four boolean functors, order, equalities,
    disequalities and arithmetic, each literal of either sign."""
    consts = rng.choice([2, 3])

    def term(depth=1):
        return random_mixed_term(req, rng, consts, depth)

    def adjective():
        return Attr(rng.random() < 0.7, req.require(rng.choice(ADJECTIVES)))

    lits = []
    for _ in range(rng.randint(2, 5)):
        kind = rng.randrange(6)
        if kind == 0:
            lit = eq(req, term(2), term(2))
        elif kind == 1:
            lit = le(req, term(), term())
        elif kind == 2:
            lit = Is(term(), adjective())
        elif kind == 3:
            attrs = frozenset(adjective() for _ in range(rng.randint(1, 2)))
            mode, args = rng.choice([(req.require("Set"), ()), (req.require("Element"), (term(0),))])
            lit = Qual(term(), TypeExpr(attrs, mode, args))
        elif kind == 4:
            lit = member(req, term(), term())
        else:
            lit = Pred(req.require("Subset"), (term(), term()))
        lits.append(lit if rng.random() < 0.6 else Neg(lit))
    types = [req.set_type(), req.nat_type(), req.object_type()]
    return lits, {i: rng.choice(types) for i in range(consts)}


def test_the_graph_agrees_with_the_upkeep_of_every_class_every_round(req_all, monkeypatch):
    # ``ReferenceTableGraph`` re-keys every table, rebuilds the cluster
    # rules and recomputes every class's polynomials each round, and
    # rounds up each seeded type again: the graph must take the same
    # rounds to the same verdict and the same saturated graph
    req = req_all
    rounds: collections.Counter = collections.Counter()
    round_ = EqGraph.round
    monkeypatch.setattr(EqGraph, "round", lambda g: rounds.update([type(g)]) or round_(g))
    positive, natural = (Attr(True, req.require(n)) for n in ("Positive", "Natural"))
    rng = random.Random(16)
    refuted = 0
    for _ in range(300):
        lits, types = random_mixed_clause(req, rng)
        db = DefinitionDb(req)
        db.conditional.append(ConditionalCluster(frozenset([natural]), frozenset([positive.negate()]), req.set_type()))
        rounds.clear()
        g = refute_clause(db, lits, types)
        ref = orc.reference_refute_clause(db, lits, types, orc.ReferenceTableGraph)
        assert (g.contradiction, g.limited, rounds[EqGraph]) == (
            ref.contradiction,
            ref.limited,
            rounds[orc.ReferenceTableGraph],
        ), lits
        if not ref.contradiction:
            assert orc.graph_digest(g) == orc.graph_digest(ref), lits
        refuted += ref.contradiction
    assert 50 < refuted < 250


def test_the_graph_agrees_with_the_passes_it_retired(req_all):
    # ``ReferenceGraph`` gives a class its number adjectives, and a zero
    # class its value, in a pass over every class each round, and keeps
    # the boolean equalities as branches per functor: the graph, which
    # sets both with the fact and applies the rows, may take other
    # rounds but must reach the same verdicts and saturated graphs
    req = req_all
    rng = random.Random(23)
    refuted = 0
    for _ in range(500):
        lits, types = random_mixed_clause(req, rng)
        db = DefinitionDb(req)
        g = refute_clause(db, lits, types)
        ref = orc.reference_refute_clause(db, lits, types)
        assert (g.contradiction, g.limited) == (ref.contradiction, ref.limited), lits
        if not ref.contradiction:
            assert orc.graph_digest(g) == orc.graph_digest(ref), lits
        refuted += ref.contradiction
    assert 60 < refuted < 200
