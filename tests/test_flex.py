from types import SimpleNamespace

import pytest

import _oracles as orc
from micromizar.flex import (
    MalformedFlex,
    NoCommonShape,
    NonNumericBound,
    expand_flex,
    flex_equal,
    flex_skeleton,
    formula_equal,
    infer_flex_from_diff,
    term_numeral_value,
)
from micromizar.logic import (
    And,
    Attr,
    FlexAnd,
    FlexConj,
    ForAll,
    FunctorApp,
    Neg,
    Numeral,
    Pred,
    PrivFunc,
    PrivPred,
    Qual,
    TypeExpr,
    bound,
    const,
    mk_and,
    mk_neg,
    mk_or,
    subst_bound,
)
from micromizar.requirements import enable_groups

SET = TypeExpr(frozenset(), 1)


@pytest.fixture(scope="module")
def ids(req_all):
    return SimpleNamespace(
        eq=req_all.require("Equality"),
        le=req_all.require("LessOrEqual"),
        add=req_all.require("Add"),
        mul=req_all.require("Mul"),
        sub=req_all.require("Sub"),
        div=req_all.require("Div"),
        zero=req_all.require("Zero"),
        succ=req_all.require("Succ"),
    )


def n(v):
    return Numeral(v)


def test_numeral_value_of_closed_terms(req_all, ids):
    assert term_numeral_value(n(7), req_all) == 7
    assert term_numeral_value(FunctorApp(ids.zero, ()), req_all) == 0
    two = FunctorApp(ids.succ, (FunctorApp(ids.succ, (FunctorApp(ids.zero, ()),)),))
    assert term_numeral_value(two, req_all) == 2
    assert term_numeral_value(FunctorApp(ids.add, (n(2), n(3))), req_all) == 5
    assert term_numeral_value(FunctorApp(ids.mul, (n(2), n(3))), req_all) == 6
    assert term_numeral_value(FunctorApp(ids.sub, (n(5), n(3))), req_all) == 2
    assert term_numeral_value(FunctorApp(ids.sub, (n(3), n(5))), req_all) is None
    # the equalizer's value: every builtin functor is evaluated, and only
    # the result has to be a natural number
    assert term_numeral_value(FunctorApp(ids.div, (n(4), n(2))), req_all) == 2
    assert term_numeral_value(FunctorApp(ids.add, (FunctorApp(ids.sub, (n(3), n(5))), n(3))), req_all) == 1
    assert term_numeral_value(const(0), req_all) is None
    assert term_numeral_value(FunctorApp(ids.add, (n(1), const(0))), req_all) is None
    assert term_numeral_value(PrivFunc(0, (), n(4)), req_all) == 4


def test_infer_recurses_into_common_head(req_all, ids):
    # "not 1+1 = 3" vs "not 2+2 = 3" must become "not i+i = 3", never a
    # generalization of the whole sum.
    left = mk_neg(Pred(ids.eq, (FunctorApp(ids.add, (n(1), n(1))), n(3))))
    right = mk_neg(Pred(ids.eq, (FunctorApp(ids.add, (n(2), n(2))), n(3))))
    fc = infer_flex_from_diff(left, right, req_all)
    assert fc.lo == n(1)
    assert fc.hi == n(2)
    assert fc.inst_lo == left
    assert fc.inst_hi == right
    i = bound(0)
    skel, level = flex_skeleton(fc)
    assert level == 0
    assert skel == mk_neg(Pred(ids.eq, (FunctorApp(ids.add, (i, i)), n(3))))
    assert fc.expansion == ForAll(
        req_all.nat_type(),
        Neg(
            And(
                (
                    Pred(ids.le, (n(1), i)),
                    Pred(ids.le, (i, n(2))),
                    Pred(ids.eq, (FunctorApp(ids.add, (i, i)), n(3))),
                )
            )
        ),
    )


def test_infer_generalizes_whole_term_on_head_mismatch(req_all, ids):
    left = Pred(ids.eq, (n(0), n(9)))
    right = Pred(ids.eq, (FunctorApp(ids.add, (n(1), n(1))), n(9)))
    fc = infer_flex_from_diff(left, right, req_all)
    assert fc.lo == n(0)
    assert fc.hi == FunctorApp(ids.add, (n(1), n(1)))
    skel, _ = flex_skeleton(fc)
    assert skel == Pred(ids.eq, (bound(0), n(9)))


def test_infer_rejects_inconsistent_pairs(req_all, ids):
    left = Pred(ids.eq, (n(1), n(1)))
    right = Pred(ids.eq, (n(2), n(3)))
    with pytest.raises(NoCommonShape):
        infer_flex_from_diff(left, right, req_all)


def test_infer_accepts_repeated_consistent_pairs(req_all, ids):
    left = Pred(ids.eq, (n(1), n(1)))
    right = Pred(ids.eq, (n(2), n(2)))
    fc = infer_flex_from_diff(left, right, req_all)
    skel, _ = flex_skeleton(fc)
    assert skel == Pred(ids.eq, (bound(0), bound(0)))
    assert (fc.lo, fc.hi) == (n(1), n(2))


def test_infer_rejects_shape_mismatches(req_all, ids):
    with pytest.raises(NoCommonShape):
        infer_flex_from_diff(Pred(ids.eq, (n(1), n(1))), Pred(ids.le, (n(2), n(2))), req_all)
    with pytest.raises(NoCommonShape):
        infer_flex_from_diff(
            Pred(ids.eq, (n(1), n(1))),
            mk_and([Pred(ids.eq, (n(2), n(2))), Pred(ids.eq, (n(3), n(3)))]),
            req_all,
        )


def test_infer_rejects_type_level_differences(req_all):
    other = TypeExpr(frozenset(), 0)
    with pytest.raises(NonNumericBound):
        infer_flex_from_diff(Qual(const(0), SET), Qual(const(0), other), req_all)


def test_infer_pairs_adjectives_in_argument_order(req_all):
    # c is 9-P 12-P set ... c is 10-P 12-P set: the adjectives pair up by
    # the numeric order of their arguments (9 with 10, 12 with 12), not by
    # how the arguments print, which put 12 before 9
    def p_type(*ks):
        attrs = frozenset(Attr(True, 7, (n(k),)) for k in ks)
        return TypeExpr(attrs, 1)

    left, right = Qual(const(0), p_type(9, 12)), Qual(const(0), p_type(10, 12))
    fc = infer_flex_from_diff(left, right, req_all)
    assert (fc.lo, fc.hi) == (n(9), n(10))
    skel, level = flex_skeleton(fc)
    assert subst_bound(skel, level, n(11)) == Qual(const(0), p_type(11, 12))
    assert orc.reference_infer_flex(Qual(const(0), p_type(1, 5)), Qual(const(0), p_type(2, 5)), req_all) == (
        infer_flex_from_diff(Qual(const(0), p_type(1, 5)), Qual(const(0), p_type(2, 5)), req_all)
    )


def test_infer_equal_endpoints_generalizes_leftmost_term(req_all, ids):
    f = Pred(ids.eq, (n(5), FunctorApp(ids.mul, (n(5), n(1)))))
    fc = infer_flex_from_diff(f, f, req_all)
    assert fc.lo == n(5)
    assert fc.hi == n(5)
    skel, _ = flex_skeleton(fc)
    assert skel == Pred(ids.eq, (bound(0), FunctorApp(ids.mul, (bound(0), n(1)))))


def test_infer_needs_requirement_groups(req_file, ids):
    table, _ = enable_groups(req_file, ["NUMERALS"])
    with pytest.raises(MalformedFlex):
        infer_flex_from_diff(
            Pred(ids.eq, (n(1), n(1))), Pred(ids.eq, (n(2), n(2))), table
        )


def test_infer_shifts_internal_binders_out_of_the_way(req_all, ids):
    # endpoints with their own quantifier: that quantifier binds level 0
    # at the flex node, the same level the skeleton variable needs.
    left = ForAll(SET, Pred(ids.eq, (bound(0), n(1))))
    right = ForAll(SET, Pred(ids.eq, (bound(0), n(2))))
    fc = infer_flex_from_diff(left, right, req_all)
    skel, level = flex_skeleton(fc)
    assert level == 0
    assert skel == ForAll(SET, Pred(ids.eq, (bound(1), bound(0))))
    assert subst_bound(skel, 0, n(1)) == left
    assert expand_flex(fc, req_all) == And(
        (
            ForAll(SET, Pred(ids.eq, (bound(0), n(1)))),
            ForAll(SET, Pred(ids.eq, (bound(0), n(2)))),
        )
    )


def test_infer_rejects_bound_escaping_its_scope(req_all, ids):
    left = ForAll(SET, Pred(ids.eq, (bound(0), bound(0))))
    right = ForAll(SET, Pred(ids.eq, (bound(0), n(3))))
    with pytest.raises(NonNumericBound):
        infer_flex_from_diff(left, right, req_all)


def test_expand_with_numeral_bounds(req_all, ids):
    left = mk_neg(Pred(ids.eq, (FunctorApp(ids.add, (n(1), n(1))), n(3))))
    right = mk_neg(Pred(ids.eq, (FunctorApp(ids.add, (n(2), n(2))), n(3))))
    fc = infer_flex_from_diff(left, right, req_all)
    assert expand_flex(fc, req_all) == And((left, right))
    wide = infer_flex_from_diff(
        Pred(ids.le, (n(0), n(7))), Pred(ids.le, (n(3), n(7))), req_all
    )
    assert expand_flex(wide, req_all) == And(
        tuple(Pred(ids.le, (n(k), n(7))) for k in range(4))
    )


def test_expand_single_instance_when_bounds_meet(req_all, ids):
    f = Pred(ids.eq, (n(5), n(5)))
    fc = infer_flex_from_diff(f, f, req_all)
    assert expand_flex(fc, req_all) == Pred(ids.eq, (n(5), n(5)))


def test_expand_symbolic_or_reversed_bounds_keeps_universal(req_all, ids):
    f0 = Pred(ids.eq, (n(1), const(0)))
    f1 = Pred(ids.eq, (const(7), const(0)))
    fc = infer_flex_from_diff(f0, f1, req_all)
    assert expand_flex(fc, req_all) == fc.expansion
    rev = infer_flex_from_diff(
        Pred(ids.eq, (n(5), n(9))), Pred(ids.eq, (n(2), n(9))), req_all
    )
    assert (rev.lo, rev.hi) == (n(5), n(2))
    assert expand_flex(rev, req_all) == rev.expansion


def test_expand_keeps_the_whole_residual(req_all, ids):
    # disjunctive instances: the negated instance contributes several
    # conjuncts to the guard, and expansion has to take them all, not
    # just the first one after the two bound guards.
    mk = lambda k: mk_or([Pred(ids.eq, (n(k), n(0))), Pred(ids.eq, (n(k), n(5)))])
    fc = infer_flex_from_diff(mk(0), mk(3), req_all)
    body = fc.expansion.body
    assert isinstance(body, Neg) and len(body.body.conjuncts) == 4
    skel, _ = flex_skeleton(fc)
    i = bound(0)
    assert skel == Neg(And((Neg(Pred(ids.eq, (i, n(0)))), Neg(Pred(ids.eq, (i, n(5)))))))
    expanded = expand_flex(fc, req_all)
    assert expanded == And(tuple(mk(k) for k in range(4)))
    # the second disjunct survives in every instance
    assert expanded.conjuncts[1] == Neg(
        And((Neg(Pred(ids.eq, (n(1), n(0)))), Neg(Pred(ids.eq, (n(1), n(5))))))
    )


def test_expansion_semantics_matches_finite_domain(req_all, ids):
    i = bound(0)
    shapes = [
        Pred(ids.eq, (i, n(2))),
        Pred(ids.le, (i, n(3))),
        mk_or([Pred(ids.eq, (i, n(0))), Pred(ids.eq, (i, n(5)))]),
        mk_neg(Pred(ids.eq, (FunctorApp(ids.add, (i, i)), n(6)))),
    ]
    dom = range(0, 10)
    for skel in shapes:
        for a in range(5):
            for b in range(5):
                left = subst_bound(skel, 0, n(a))
                right = subst_bound(skel, 0, n(b))
                fc = infer_flex_from_diff(left, right, req_all)
                want = orc.eval_formula(fc.expansion, req_all, {}, dom, 0)
                got = orc.eval_formula(expand_flex(fc, req_all), req_all, {}, dom, 0)
                assert got == want, (skel, a, b)


def test_flex_equal_modes(req_all, ids):
    p = lambda t: Pred(ids.le, (t, n(9)))
    fca = infer_flex_from_diff(p(n(1)), p(n(5)), req_all)
    fcb = FlexConj(
        FunctorApp(ids.add, (n(0), n(1))), fca.hi, fca.expansion, fca.inst_lo, fca.inst_hi
    )
    assert flex_equal(fca, fca)
    assert not flex_equal(fca, fcb)
    fcc = infer_flex_from_diff(
        Pred(ids.le, (n(1), n(8))), Pred(ids.le, (n(5), n(8))), req_all
    )
    assert not flex_equal(fca, fcc)


def test_formula_equal_unfolds_private_definitions(req_all, ids):
    body = Pred(ids.eq, (const(0), const(0)))
    priv = PrivPred(3, (const(0),), body)
    assert formula_equal(priv, body)
    assert formula_equal(body, priv)
    assert formula_equal(mk_and([priv, body]), mk_and([body, body]))
    assert not formula_equal(priv, Pred(ids.eq, (const(0), const(1))))
    two = PrivFunc(0, (), n(2))
    assert formula_equal(two, n(2))
    assert formula_equal(n(2), two)
    assert not formula_equal(two, n(3))
    assert formula_equal(Pred(ids.eq, (two, n(2))), Pred(ids.eq, (n(2), n(2))))


def test_formula_equal_of_private_applications_under_neg_and_and(req_all, ids):
    # heads differ, expansions agree: the comparison must not rebuild the
    # parent with an expansion in the place of the application
    body = Neg(Pred(ids.eq, (const(0), const(1))))
    a, b = PrivPred(0, (), body), PrivPred(1, (), body)
    assert formula_equal(Neg(a), Neg(b))
    conj = mk_and([Pred(ids.eq, (const(0), const(0))), Pred(ids.eq, (const(1), const(1)))])
    c, d = PrivPred(0, (), conj), PrivPred(1, (), conj)
    q = Pred(ids.eq, (const(2), const(2)))
    assert formula_equal(mk_and([c, q]), mk_and([d, q]))
    # same head, arguments differ, an expansion that ignores them
    s0, s1 = PrivPred(2, (const(0),), body), PrivPred(2, (const(1),), body)
    assert formula_equal(Neg(s0), Neg(s1))
    for x, y in [(Neg(a), Neg(b)), (mk_and([c, q]), mk_and([d, q])), (Neg(s0), Neg(s1))]:
        assert orc.reference_formula_equal(x, y)


def test_formula_equal_uses_flex_mode(req_all, ids):
    p = lambda t: Pred(ids.le, (t, n(9)))
    fca = infer_flex_from_diff(p(n(1)), p(n(5)), req_all)
    fcb = FlexConj(
        FunctorApp(ids.add, (n(0), n(1))), fca.hi, fca.inst_lo, fca.inst_lo, fca.inst_hi
    )
    a = mk_and([p(n(0)), FlexAnd(fca)])
    b = mk_and([p(n(0)), FlexAnd(fcb)])
    assert not formula_equal(a, b)
    assert formula_equal(a, a)


def test_malformed_expansions_are_rejected(req_all, ids):
    p = Pred(ids.eq, (n(1), n(1)))
    bad = FlexConj(n(1), n(2), p, p, p)
    with pytest.raises(MalformedFlex):
        flex_skeleton(bad)
    with pytest.raises(MalformedFlex):
        expand_flex(bad, req_all)
    wrong_guard = FlexConj(
        n(1),
        n(2),
        ForAll(
            req_all.nat_type(),
            Neg(And((Pred(ids.le, (n(9), bound(0))), Pred(ids.le, (bound(0), n(2))), p))),
        ),
        p,
        p,
    )
    with pytest.raises(MalformedFlex):
        flex_skeleton(wrong_guard)
