"""End-to-end justification checking, before any surface syntax exists."""

import collections
import itertools
import random

import pytest

import _oracles as orc
import micromizar.prechecker as prechecker
import micromizar.unifier as unifier
from micromizar.flex import infer_flex_from_diff
from micromizar.logic import (
    Attr,
    FTrue,
    FlexAnd,
    FlexConj,
    ForAll,
    FunctorApp,
    Is,
    Numeral,
    Pred,
    PrivPred,
    Qual,
    TRUE,
    TypeExpr,
    bound,
    const,
    locus,
    mk_and,
    mk_exists,
    mk_imp,
    mk_neg,
    mk_or,
    replace_term,
    shift_up,
)
from micromizar.analyzer import Analyzer
from micromizar.parser import parse_article
from micromizar.prechecker import Prechecker
from micromizar.subtyping import (
    AttrDef,
    ConditionalCluster,
    DefinitionDb,
    FuncDef,
    FunctorCluster,
    ModeDef,
    PredDef,
)

FS = frozenset()


@pytest.fixture
def db(req_all):
    return DefinitionDb(req_all)


def eq(req, a, b):
    return Pred(req.require("Equality"), (a, b))


def le(req, a, b):
    return Pred(req.require("LessOrEqual"), (a, b))


def justify(db, premises, conjecture, consts=(), **kw):
    return Prechecker(db, **kw).justify(premises, conjecture, list(consts))


def test_trivial_truth(db):
    j = justify(db, [], FTrue())
    assert j.accepted
    assert j.clause_count == 0


def test_premise_restates_goal(db, req_all):
    p = Pred(100, (const(0),))
    j = justify(db, [p], p, [req_all.set_type()])
    assert j.accepted


def test_unrelated_goal_rejected(db, req_all):
    p = Pred(100, (const(0),))
    q = Pred(101, (const(0),))
    j = justify(db, [p], q, [req_all.set_type()])
    assert not j.accepted
    assert not j.too_large


def test_conjunction_introduction(db, req_all):
    a = Pred(100, (const(0),))
    b = Pred(101, (const(0),))
    j = justify(db, [a, b], mk_and([a, b]), [req_all.set_type()])
    assert j.accepted
    assert j.clause_count == 2


def test_disjunction_elimination(db, req_all):
    a = Pred(100, (const(0),))
    b = Pred(101, (const(0),))
    j = justify(db, [mk_or([a, b]), mk_neg(a)], b, [req_all.set_type()])
    assert j.accepted


def test_arithmetic_goal(db, req_all):
    req = req_all
    two_plus_two = eq(
        req, FunctorApp(req.require("Add"), (Numeral(2), Numeral(2))), Numeral(4)
    )
    j = justify(db, [], two_plus_two)
    assert j.accepted


def test_universal_elimination(db, req_all):
    req = req_all
    fa = ForAll(req.set_type(), Pred(100, (bound(0),)))
    j = justify(db, [fa], Pred(100, (const(0),)), [req.set_type()])
    assert j.accepted


def test_existential_introduction(db, req_all):
    req = req_all
    goal = mk_exists(req.set_type(), Pred(100, (bound(0),)))
    j = justify(db, [Pred(100, (const(0),))], goal, [req.set_type()])
    assert j.accepted


def test_existential_elimination_uses_a_skolem(db, req_all):
    req = req_all
    have = mk_exists(req.set_type(), Pred(100, (bound(0),)))
    want = mk_exists(req.set_type(), Pred(100, (bound(0),)))
    j = justify(db, [have], want)
    assert j.accepted
    assert len(j.skolems) == 1


def test_implication_chaining(db, req_all):
    req = req_all
    a = Pred(100, (const(0),))
    b = Pred(101, (const(0),))
    c = Pred(102, (const(0),))
    j = justify(db, [mk_imp(a, b), mk_imp(b, c), a], c, [req.set_type()])
    assert j.accepted


def test_inhabited_type_witnesses_existence(db, req_all):
    req = req_all
    goal = mk_exists(req.nat_type(), FTrue())
    j = justify(db, [], goal)
    assert j.accepted


def test_uninhabited_type_blocks_existence(db, req_all):
    req = req_all
    weird = req.attr_type(["Natural"], extra=(Attr(True, 500),))
    goal = mk_exists(weird, FTrue())
    j = justify(db, [], goal)
    assert not j.accepted


def test_clause_cap_reports_overflow(db, req_all):
    req = req_all
    x = const(0)
    lits = [mk_or([Pred(100 + i, (x,)), Pred(200 + i, (x,))]) for i in range(5)]
    j = justify(
        db, lits, Pred(999, (x,)), [req.set_type()], clause_cap=8
    )
    assert j.too_large
    assert not j.accepted


def disjunction(n: int, base: int = 100):
    return mk_or([Pred(base + i, (const(0),)) for i in range(n)])


@pytest.mark.parametrize("k", [1, 2, 6, 7])
def test_clause_cap_boundary(db, req_all, k):
    consts = [req_all.set_type()]
    goal = Pred(999, (const(0),))
    at_cap = justify(db, [disjunction(k)], goal, consts, clause_cap=k)
    assert not at_cap.too_large
    assert at_cap.clause_count == k
    over = justify(db, [disjunction(k + 1)], goal, consts, clause_cap=k)
    assert over.too_large
    assert not over.accepted
    assert over.clause_count == 0


def test_clause_cap_boundary_on_a_product(db, req_all):
    consts = [req_all.set_type()]
    goal = Pred(999, (const(0),))
    six = [disjunction(2), disjunction(3, 200)]
    assert justify(db, six, goal, consts, clause_cap=6).clause_count == 6
    assert justify(db, six, goal, consts, clause_cap=5).too_large


def test_an_overflow_builds_no_clause(db, req_all, monkeypatch):
    def no_clauses(*args):
        raise AssertionError("a clause was built")

    monkeypatch.setattr(Prechecker, "_to_dnf", no_clauses)
    lits = [disjunction(2, 100 + 2 * i) for i in range(40)]  # 2**40 clauses
    j = justify(db, lits, Pred(999, (const(0),)), [req_all.set_type()])
    assert j.too_large
    assert not j.accepted
    assert j.clause_count == 0


def test_a_rejection_stops_at_the_first_surviving_clause(db, req_all, monkeypatch):
    checked = []

    def counting(*args):
        checked.append(args[1])
        return clause_refuted(*args)

    clause_refuted = prechecker.clause_refuted
    monkeypatch.setattr(prechecker, "clause_refuted", counting)
    consts = [req_all.set_type()]
    j = justify(db, [disjunction(2), disjunction(3, 200)], Pred(999, (const(0),)), consts)
    assert not j.accepted
    assert j.clause_count == 6
    assert len(checked) == 1
    checked.clear()
    j = justify(db, [disjunction(2)], disjunction(2), consts)
    assert j.accepted
    assert j.clause_count == len(checked) == 2


# ---------------------------------------------------------------------------
# the count and the stream against the list they replaced


class DnfGen:
    """Closed formulas for the distribution: atoms over constants and the
    levels in scope, conjunctions, disjunctions, ``not TRUE``,
    existentials with binder prefixes of one to three, nested anywhere,
    and universals, vacuous or not, over inhabited and uninhabited types,
    some of which mention an outer binder."""

    def __init__(self, rng: random.Random, req):
        self.rng = rng
        self.req = req
        self.nat = Attr(True, req.require("Natural"))
        self.outer_vacuous = 0

    def term(self, depth: int):
        r = self.rng
        if depth and r.random() < 0.6:
            return bound(r.randrange(depth))
        return const(r.randrange(2)) if r.random() < 0.7 else Numeral(r.randrange(3))

    def atom(self, depth: int):
        return Pred(100 + self.rng.randrange(3), (self.term(depth),))

    def type(self, depth: int) -> tuple[TypeExpr, bool]:
        """A type at `depth`, and whether it mentions an outer binder."""
        r, req = self.rng, self.req
        pick = r.randrange(6 if depth else 3)
        if pick == 0:
            return req.set_type(), False  # inhabited by fiat
        if pick == 1:
            return req.nat_type(), False  # a builtin witness
        if pick == 2:
            return req.attr_type(["Natural"], extra=(Attr(True, 500),)), False
        outer = (bound(r.randrange(depth)),)
        mode = req.set_type().mode
        if pick == 3:
            return TypeExpr(FS, mode, outer), True  # inhabited by fiat
        if pick == 4:
            lower = frozenset([self.nat])
            return TypeExpr(lower, mode, outer), True
        lower = frozenset([Attr(True, self.nat.attr_id, outer)])
        return TypeExpr(lower, mode), True

    def formula(self, depth: int, budget: int):
        r = self.rng
        pick = r.randrange(9 if budget > 0 else 3)
        if pick == 0:
            return self.atom(depth)
        if pick == 1:
            return mk_neg(self.atom(depth))
        if pick == 2:
            return r.choice([TRUE, mk_neg(TRUE), self.atom(depth)])
        if pick == 3:
            return mk_and([self.formula(depth, budget - 1) for _ in range(r.randrange(2, 4))])
        if pick == 4:
            return mk_or([self.formula(depth, budget - 1) for _ in range(r.randrange(2, 4))])
        if pick == 5:
            n = r.randrange(1, 4)
            tys = [self.type(depth + i)[0] for i in range(n)]
            body = mk_neg(self.formula(depth + n, budget - 1))
            for ty in reversed(tys):
                body = ForAll(ty, body)
            return mk_neg(body)
        ty, outer = self.type(depth)
        if pick == 6:
            # made at `depth` and shifted past the new binder: vacuous
            self.outer_vacuous += outer
            return ForAll(ty, shift_up(self.formula(depth, budget - 1), 1, depth))
        return ForAll(ty, self.formula(depth + 1, budget - 1))


def test_count_and_stream_agree_with_the_reference(db, req_all):
    rng = random.Random(2304)
    gen = DnfGen(rng, req_all)
    seen = {"over": 0, "none": 0, "several": 0, "local": 0}
    for _ in range(3000):
        f = gen.formula(0, 4)
        cap = rng.choice([1, 3, 8, 64])
        new = Prechecker(db, clause_cap=cap)
        ref = orc.ReferenceDnf(db, clause_cap=cap)
        new._next = ref._next = 2
        skolems, want_skolems = [], []
        prepared = new._skolemize_top(f, skolems)
        assert prepared == ref._skolemize_top(f, want_skolems), f
        assert skolems == want_skolems
        count = new._count(prepared, 0, True)
        try:
            want = ref._to_dnf(prepared)
        except orc.ClauseOverflow:
            assert count == cap + 1, f
            seen["over"] += 1
            continue
        assert count == len(want), f
        assert list(new._to_dnf(prepared)) == want, f
        assert new._next == ref._next
        seen["none"] += not want
        seen["several"] += len(want) > 1
        seen["local"] += any(local for _, local in want)
    assert min(seen.values()) > 80, seen
    assert gen.outer_vacuous > 100


def test_equality_carries_inclusions(db, req_all):
    req = req_all
    a, b = const(0), const(1)
    j = justify(
        db,
        [eq(req, a, b)],
        Pred(req.require("Subset"), (a, b)),
        [req.set_type(), req.set_type()],
    )
    assert j.accepted


def test_disequality_denies_mutual_inclusion(db, req_all):
    req = req_all
    a, b = const(0), const(1)
    sub = req.require("Subset")
    goal = mk_neg(mk_and([Pred(sub, (a, b)), Pred(sub, (b, a))]))
    j = justify(db, [mk_neg(eq(req, a, b))], goal, [req.set_type(), req.set_type()])
    assert j.accepted


def test_numeral_flex_premise_yields_middle_instance(db, req_all):
    req = req_all
    fc = infer_flex_from_diff(
        le(req, Numeral(1), Numeral(5)), le(req, Numeral(3), Numeral(5)), req
    )
    j = justify(db, [FlexAnd(fc)], le(req, Numeral(2), Numeral(5)))
    assert j.accepted


def test_numeral_flex_goal_from_instances(db, req_all):
    req = req_all
    fc = infer_flex_from_diff(
        le(req, Numeral(1), Numeral(5)), le(req, Numeral(3), Numeral(5)), req
    )
    premises = [le(req, Numeral(k), Numeral(5)) for k in (1, 2, 3)]
    j = justify(db, premises, FlexAnd(fc))
    assert j.accepted


def test_symbolic_flex_needs_matching_bounds(db, req_all):
    req = req_all
    n = const(0)
    nine = Numeral(9)
    f1 = infer_flex_from_diff(le(req, Numeral(0), nine), le(req, n, nine), req)
    f2_same = infer_flex_from_diff(le(req, Numeral(0), nine), le(req, n, nine), req)
    consts = [req.nat_type()]
    j = justify(db, [FlexAnd(f1)], FlexAnd(f2_same), consts)
    assert j.accepted
    f3_shifted = infer_flex_from_diff(le(req, Numeral(1), nine), le(req, n, nine), req)
    j = justify(db, [FlexAnd(f1)], FlexAnd(f3_shifted), consts)
    assert not j.accepted
    # the endpoints as written agree, the bounds and expansion do not
    base = le(req, Numeral(0), n)
    f4 = infer_flex_from_diff(base, base, req)
    i = bound(0)
    guard = mk_and([le(req, Numeral(7), i), le(req, i, Numeral(0)), mk_neg(le(req, i, n))])
    f5 = FlexConj(Numeral(7), Numeral(0), ForAll(req.nat_type(), mk_neg(guard)), f4.inst_lo, f4.inst_hi)
    assert not justify(db, [FlexAnd(f4)], FlexAnd(f5), consts).accepted


def test_private_predicate_unfolds(db, req_all):
    req = req_all
    x = const(0)
    body = le(req, x, Numeral(9))
    pp = PrivPred(0, (x,), body)
    j = justify(db, [pp], body, [req.set_type()])
    assert j.accepted


def test_expandable_adjective_unfolds(db, req_all):
    req = req_all
    aid = db.fresh_id("attr")
    db.attrs[aid] = AttrDef(
        0, req.set_type(), eq(req, locus(0), locus(0)), expandable=True
    )
    j = justify(db, [], Is(const(0), Attr(True, aid)), [req.set_type()])
    assert j.accepted


def test_expandable_mode_unfolds(db, req_all):
    req = req_all
    mid = db.fresh_id("mode")
    db.modes[mid] = ModeDef(
        0, req.set_type(), le(req, locus(0), locus(0)), expandable=True
    )
    goal = Qual(const(0), TypeExpr(FS, mid))
    j = justify(db, [le(req, const(0), const(0))], goal, [req.set_type()])
    assert j.accepted


def test_expandable_predicate_unfolds(db, req_all):
    req = req_all
    pid = db.fresh_id("pred")
    db.preds[pid] = PredDef(2, le(req, locus(0), locus(1)), expandable=True)
    x, y = const(0), const(1)
    j = justify(
        db,
        [Pred(pid, (x, y))],
        le(req, x, y),
        [req.set_type(), req.set_type()],
    )
    assert j.accepted


def test_skolem_types_feed_the_clause(db, req_all):
    req = req_all
    have = mk_exists(req.nat_type(), FTrue())
    goal = mk_exists(
        req.set_type(), Is(bound(0), Attr(True, req.require("Natural")))
    )
    j = justify(db, [have], goal)
    assert j.accepted


def test_prepared_formula_is_reported(db, req_all):
    req = req_all
    j = justify(db, [Pred(100, (const(0),))], Pred(100, (const(0),)), [req.set_type()])
    assert j.prepared is not None


# ---------------------------------------------------------------------------
# cited universals are prepared once


def twice(db, premises, goal, consts):
    """A second use of `premises` on one prechecker, the prechecker, and a
    fresh prechecker's answer to the same obligation."""
    pc = Prechecker(db)
    pc.justify(premises, goal, consts)
    return pc.justify(premises, goal, consts), pc, Prechecker(db).justify(premises, goal, consts)


def test_a_second_use_of_a_cited_universal_is_prepared_as_the_first(db, req_all, monkeypatch):
    req = req_all
    st, c0 = req.set_type(), const(0)
    # augmented (an equality under the subset requirement), after a premise that takes a skolem
    fa = ForAll(st, mk_imp(Pred(100, (bound(0),)), eq(req, bound(0), c0)))
    have = mk_exists(st, Pred(100, (bound(0),)))
    goal = mk_exists(st, eq(req, bound(0), c0))
    again, pc, fresh = twice(db, [have, fa], goal, [st])
    assert again == fresh and again.accepted and len(again.skolems) == 1
    assert [entry[0] for entry in pc._cited.values()] == [fa]
    unfolded = []
    monkeypatch.setattr(pc, "_unfold", lambda f, fuel: unfolded.append(f) or Prechecker._unfold(pc, f, fuel))
    assert pc.justify([have, fa], goal, [st]) == fresh
    assert fa not in unfolded


def test_a_definition_made_after_a_use_is_unfolded_at_the_next(db, req_all):
    req = req_all
    st, c0 = req.set_type(), const(0)
    pid = db.fresh_id("pred")
    fa = ForAll(st, Pred(pid, (bound(0),)))
    pc = Prechecker(db)
    assert not pc.justify([fa], Pred(100, (c0,)), [st]).accepted
    db.preds[pid] = PredDef(1, Pred(100, (locus(0),)), expandable=True)
    j = pc.justify([fa], Pred(100, (c0,)), [st])
    assert j.accepted and j == Prechecker(db).justify([fa], Pred(100, (c0,)), [st])


def test_only_a_cited_universal_is_kept(db, req_all):
    req = req_all
    st, c0 = req.set_type(), const(0)
    premises = [Pred(100, (c0,)), mk_and([Pred(101, (c0,)), Pred(102, (c0,))]), mk_exists(st, Pred(103, (bound(0),)))]
    pc = Prechecker(db)
    pc.justify(premises, Pred(104, (c0,)), [st])
    assert pc._cited == {}
    # in an article: a linked atomic step and the cited universal
    art, errs = parse_article(
        """environ begin
A1: for x being set holds x c= x;
theorem {} c= {}
proof
  1 = 1;
  then {} c= {} & 1 = 1 by A1;
  thus thesis by A1;
end;
"""
    )
    an = Analyzer(req)
    assert errs == [] and an.run(art) == []
    assert [entry[0] for entry in an.checker._cited.values()] == [an.labels["A1"]]


def test_a_vacuous_universal_premise_is_skolemized_at_every_use(db, req_all):
    req = req_all
    st = req.set_type()
    # for x holds ex y st P[y]: dropping the vacuous binder leaves an existential
    fa = ForAll(st, mk_exists(st, Pred(100, (bound(1),))))
    goal = mk_exists(st, Pred(100, (bound(0),)))
    again, pc, fresh = twice(db, [fa], goal, [])
    assert again == fresh and again.accepted and again.skolems == [(0, st)]
    assert [entry[3] for entry in pc._cited.values()] == [None]


# ---------------------------------------------------------------------------
# the verdict memo


def checked(pc, check=None) -> list:
    """The goals of the obligations `pc` checks from now on, rather than
    reads from its memo; each check is `check`, or the real one."""
    goals = []
    check = check or pc._justify

    def counting(premises, conjecture, const_types):
        goals.append(conjecture)
        return check(premises, conjecture, const_types)

    pc._justify = counting
    return goals


def obligation(req, i: int):
    """The i-th of a family of distinct obligations."""
    return [], Pred(100, (Numeral(i),)), [req.set_type()]


def nothing_new(db, registry: str) -> None:
    """Add to `registry` an entry that no obligation below reads."""
    st = db.req.set_type()
    kind = {"attrs": "attr", "modes": "mode", "funcs": "func", "preds": "pred"}.get(registry)
    if kind is not None:
        defs = {
            "attrs": AttrDef(0, st, TRUE, False),
            "modes": ModeDef(0, st, None, False),
            "funcs": FuncDef(0, st),
            "preds": PredDef(0, TRUE, False),
        }
        getattr(db, registry)[db.fresh_id(kind)] = defs[registry]
    else:
        entries = {
            "existential": st,
            "conditional": ConditionalCluster(FS, FS, st),
            "functor_clusters": FunctorCluster(Numeral(0), FS),
        }
        getattr(db, registry).append(entries[registry])


@pytest.mark.parametrize(
    "registry", ["attrs", "modes", "funcs", "preds", "existential", "conditional", "functor_clusters"]
)
def test_a_grown_registry_makes_the_next_use_a_check(db, req_all, registry):
    c0 = const(0)
    args = ([Pred(100, (c0,))], Pred(100, (c0,)), [req_all.set_type()])
    pc = Prechecker(db)
    checks = checked(pc)
    got = [pc.justify(*args) for _ in range(3)]
    assert len(checks) == 2 and got[2] is got[1]
    nothing_new(db, registry)
    again = [pc.justify(*args) for _ in range(3)]  # seen anew, stored, read
    assert len(checks) == 4 and again[0] == got[1] and again[0] is not got[1]
    assert again[2] is again[1]


def test_an_obligation_is_stored_at_its_second_sighting_and_read_at_its_third(db, req_all):
    pc = Prechecker(db)
    checks = checked(pc)
    ob = obligation(req_all, 0)
    got = [pc.justify(*ob) for _ in range(4)]
    assert len(checks) == 2 and len(pc._memo) == 1
    assert got[1] is not got[0] and got[1] == got[0] == Prechecker(db).justify(*ob)
    assert got[3] is got[2] is got[1]


def test_obligations_that_differ_only_in_a_constant_type_or_an_expansion_are_two(db, req_all):
    req = req_all
    st, nat, c0 = req.set_type(), req.nat_type(), const(0)
    is_nat = Is(c0, Attr(True, req.require("Natural")))
    pc = Prechecker(db)
    for _ in range(3):
        assert pc.justify([], is_nat, [nat]).accepted
        assert pc.justify([Pred(100, (c0,))], PrivPred(7, (c0,), Pred(100, (c0,))), [st]).accepted
    assert not pc.justify([], is_nat, [st]).accepted
    assert not pc.justify([Pred(100, (c0,))], PrivPred(7, (c0,), Pred(101, (c0,))), [st]).accepted


def admit(pc, obs) -> None:
    for ob in obs:
        pc.justify(*ob)
        pc.justify(*ob)


def test_the_memo_drops_its_least_recently_used_verdict(db, req_all):
    obs = [obligation(req_all, i) for i in range(prechecker.MEMO_CAP + 1)]
    pc = Prechecker(db)
    checks = checked(pc, lambda *args: prechecker.Justification(True))
    admit(pc, obs)
    assert len(checks) == 2 * len(obs) and len(pc._memo) == prechecker.MEMO_CAP
    pc.justify(*obs[0])
    assert len(checks) == 2 * len(obs) + 1
    # a hit makes a verdict the most recently used
    pc = Prechecker(db)
    checks = checked(pc, lambda *args: prechecker.Justification(True))
    admit(pc, obs[:-1])
    pc.justify(*obs[0])
    admit(pc, obs[-1:])
    pc.justify(*obs[0])
    assert len(checks) == 2 * len(obs)
    pc.justify(*obs[1])
    assert len(checks) == 2 * len(obs) + 1


def test_a_hash_seen_once_is_forgotten_after_seen_cap_others(db, req_all):
    obs = [obligation(req_all, i) for i in range(prechecker.SEEN_CAP + 1)]
    pc = Prechecker(db)
    checks = checked(pc, lambda *args: prechecker.Justification(True))
    for ob in obs:
        pc.justify(*ob)
    assert len(pc._seen) == prechecker.SEEN_CAP and pc._memo == {}
    for _ in range(3):  # seen again as new, then stored, then read
        pc.justify(*obs[0])
    assert len(checks) == len(obs) + 2


def test_a_check_that_raises_stores_nothing(db, req_all):
    ob = obligation(req_all, 0)
    pc = Prechecker(db)
    check = pc._justify

    def failing(*args):
        raise RuntimeError("fault")

    pc._justify = failing
    for _ in range(2):
        with pytest.raises(RuntimeError):
            pc.justify(*ob)
    assert pc._memo == {}
    checks = checked(pc, check)
    got = pc.justify(*ob)
    assert len(checks) == 1 and got == Prechecker(db).justify(*ob)
    assert pc.justify(*ob) is got and len(checks) == 1


def test_a_cited_universal_is_prepared_once_when_the_memo_misses(db, req_all, monkeypatch):
    req = req_all
    st, c0 = req.set_type(), const(0)
    fa = ForAll(st, mk_imp(Pred(100, (bound(0),)), eq(req, bound(0), c0)))
    have = mk_exists(st, Pred(100, (bound(0),)))
    pc = Prechecker(db)
    pc.justify([have, fa], mk_exists(st, eq(req, bound(0), c0)), [st])
    unfolded = []
    monkeypatch.setattr(pc, "_unfold", lambda f, fuel: unfolded.append(f) or Prechecker._unfold(pc, f, fuel))
    checks = checked(pc)
    other = mk_exists(st, eq(req, c0, bound(0)))
    got = pc.justify([have, fa], other, [st])
    assert len(checks) == 1 and unfolded and fa not in unfolded
    assert got == Prechecker(db).justify([have, fa], other, [st]) and got.accepted


# ---------------------------------------------------------------------------
# the literals every clause shares


def plus(req, a, b):
    return FunctorApp(req.require("Add"), (a, b))


def graphs_built(monkeypatch) -> list:
    """Every graph ``clause_refuted`` builds from now on, in order."""
    graphs = []

    def counting(*args):
        g = refute_clause(*args)
        graphs.append(g)
        return g

    refute_clause = unifier.refute_clause
    monkeypatch.setattr(unifier, "refute_clause", counting)
    return graphs


def test_a_disequality_under_binders_is_in_every_clause(db, req_all):
    req = req_all
    union, st = req.require("Union"), req.set_type()
    a, b = bound(0), bound(1)
    goal = ForAll(st, ForAll(st, eq(req, FunctorApp(union, (a, b)), FunctorApp(union, (b, a)))))
    # s <> t with not s c= t, and with not t c= s; the reference augments
    # under the binders first, and its skolemized goal splits in three
    assert justify(db, [], goal).clause_count == 2
    assert orc.ReferencePrechecker(db).justify([], goal, []).clause_count == 3


def test_an_existential_equality_premise_makes_one_clause(db, req_all):
    req = req_all
    nat = req.nat_type()
    have = mk_exists(nat, eq(req, bound(0), const(0)))
    want = mk_exists(nat, Pred(req.require("Subset"), (bound(0), const(0))))
    j = justify(db, [have], want, [nat])
    assert j.clause_count == 1
    assert j.accepted


def test_an_obligation_refuted_by_its_shared_literals_builds_one_graph(db, req_all, monkeypatch):
    req = req_all
    nat = req.nat_type()
    graphs = graphs_built(monkeypatch)
    a, b = bound(0), bound(1)
    j = justify(db, [], ForAll(nat, ForAll(nat, eq(req, plus(req, a, b), plus(req, b, a)))))
    assert j.accepted
    assert j.clause_count == 2
    assert len(graphs) == 1
    assert graphs[0].shared_refuted


def test_a_local_witness_does_not_refute_the_other_branches(db, req_all, monkeypatch):
    # {} is P.  The first branch's witness is an empty non-P set, so it is
    # {}, and that clause is refuted; but only with the witness's type,
    # which the second branch does not have, and that branch survives.
    req = req_all
    empty_set = FunctorApp(req.require("EmptySet"), ())
    non_p = frozenset([Attr(True, req.require("Empty")), Attr(False, 500)])
    witness = TypeExpr(non_p, req.set_type().mode, ())
    premises = [
        Is(empty_set, Attr(True, 500)),
        mk_or([mk_exists(witness, Pred(100, (bound(0),))), Pred(101, (const(0),))]),
    ]
    graphs = graphs_built(monkeypatch)
    j = justify(db, premises, Pred(102, (const(0),)), [req.set_type()])
    assert not j.accepted
    assert j.clause_count == 2
    assert [(g.contradiction, g.shared_refuted) for g in graphs] == [(True, False), (False, False)]


# Obligations without functors, over variables, two constants and the
# numerals below 3: every term denotes a number in DOMAIN, so evaluating
# over DOMAIN, the constants included, is exact, and an assignment that
# makes the premises true and the goal false is a real counterexample.
DOMAIN = range(4)


class FlatGen:
    def __init__(self, rng: random.Random, req):
        self.rng, self.req = rng, req

    def term(self, pool: int):
        pick = self.rng.randrange(3)
        if pick == 0 and pool:
            return bound(self.rng.randrange(pool))
        if pick == 1:
            return Numeral(self.rng.randrange(3))
        return const(self.rng.randrange(2))

    def body(self, pool: int, budget: int):
        rng = self.rng
        pick = rng.randrange(4 if budget else 1)
        if pick <= 1:
            p = self.req.require(rng.choice(("Equality", "Equality", "Subset", "LessOrEqual")))
            return Pred(p, (self.term(pool), self.term(pool)))
        if pick == 2:
            return mk_neg(self.body(pool, budget - 1))
        return mk_and([self.body(pool, budget - 1) for _ in range(rng.randrange(2, 4))])

    def sentence(self):
        """Up to two universals, or their negation, over a body."""
        k = self.rng.randrange(3)
        f = self.body(k, 1)
        for _ in range(k):
            f = ForAll(self.req.nat_type(), f)
        return f if self.rng.random() < 0.5 else mk_neg(f)


def counterexample(req, premises, goal) -> bool:
    f = mk_and([*premises, mk_neg(goal)])
    for vals in itertools.product(DOMAIN, repeat=2):
        closed = f
        for i, v in enumerate(vals):
            closed = replace_term(closed, const(i), Numeral(v))
        if orc.eval_formula(closed, req, {}, DOMAIN, 0):
            return True
    return False


def test_the_shared_first_step_accepts_what_the_reference_accepts(db, req_all):
    req = req_all
    rng = random.Random(14)
    flat = FlatGen(rng, req)
    st, nat = req.set_type(), req.nat_type()
    x, c0, c1, two = bound(0), const(0), const(1), Numeral(2)

    def sub(a, b):
        return Pred(req.require("Subset"), (a, b))

    # accepted only since augmentation follows skolemization: an inclusion
    # next to the equality it comes from, or to the disequality it denies
    newly = [
        ([mk_exists(nat, eq(req, x, c0))], mk_exists(nat, sub(x, c0))),
        ([ForAll(nat, mk_neg(sub(x, two)))], ForAll(nat, mk_neg(eq(req, c1, two)))),
        ([ForAll(nat, mk_neg(sub(x, c0)))], ForAll(nat, mk_neg(eq(req, x, c0)))),
    ]
    cases = [(ps, g, True) for ps, g in newly]
    for i in range(240):
        if i % 2:
            premises = [flat.sentence() for _ in range(rng.randrange(1, 3))]
            cases.append((premises, flat.sentence(), True))
        else:
            # set terms and types the evaluator cannot read: compared only
            goal = ForAll(st, ForAll(st, orc.gen_formula(rng, 2, 3)))
            premises = [mk_exists(st, orc.gen_formula(rng, 1, 2)) for _ in range(rng.randrange(3))]
            cases.append((premises, goal, False))
    seen = collections.Counter()
    for premises, goal, flat_case in cases:
        consts = [nat, nat] if flat_case else [st, st, st]
        want = orc.ReferencePrechecker(db).justify(premises, goal, consts)
        got = justify(db, premises, goal, consts)
        assert got.accepted or not want.accepted, (premises, goal)
        if got.accepted and flat_case:
            assert not counterexample(req, premises, goal), (premises, goal)
        seen["accepted", flat_case] += got.accepted
        seen["new only"] += got.accepted and not want.accepted
        seen["shared"] += got.clause_count > 1
    assert seen["new only"] >= len(newly)
    assert min(seen["accepted", True], seen["accepted", False], seen["shared"]) > 30, seen
