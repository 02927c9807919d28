"""The instantiation search against the reference walker.

Random clauses mix ground facts over three constants with universals
over every formula and term kind the evaluator reads.  Each clause's
graph is built twice, so that the search and the reference one
(``_oracles.ReferenceUnifier``, which substitutes and walks every
instance) each see the graph exactly as their own search leaves it: a
type check may intern terms.  The search tries only the instances at
which the literals an instance needs to be false can hold
(``Unifier._match``), so its tuples are the reference walk's, in the
same order, less some that the reference walk does not evaluate to
false; the tuples it tries evaluate the same on both.  ``refute`` must
give the same verdict unless a side runs out of fuel, with no more
fuel spent and no more graph nodes made.  The search looks an opaque
term up by the classes of its closed parts, read from its environment,
and the reference by the class variables of its instance; some
refutations must need such a lookup.
"""

import random
from collections import Counter
from functools import partial

import pytest

import _oracles as orc
from micromizar.equalizer import refute_clause
from micromizar.logic import (
    Attr,
    Choice,
    FlexAnd,
    FlexConj,
    ForAll,
    Fraenkel,
    FunctorApp,
    Is,
    Numeral,
    Pred,
    PrivFunc,
    PrivPred,
    Qual,
    SchemeFunctorApp,
    SchemePred,
    TypeExpr,
    Var,
    VarKind,
    bound,
    const,
    mk_and,
    map_terms,
    mk_neg,
    subst_bound,
)
from micromizar.subtyping import DefinitionDb
from micromizar.unifier import Unifier

SEED = 20240417
EXAMPLES = 40
CONSTS = 3  # constants 0..2 are interned first, so they are classes 0..2
USER_PREDS = (40, 41)
USER_FUNCS = (30, 31)
USER_ATTR = 50
OPAQUE = ("Choice", "Fraenkel", "SchemeFunctorApp")

NONE = frozenset()


class Gen:
    """Terms and formulas over the test requirement table.  At `pool`
    bound levels in scope a variable is ``bound(i)``; in a ground fact
    (pool 0) it is a constant or the class variable an instance would
    hold."""

    def __init__(self, rng: random.Random, req):
        self.rng, self.req = rng, req
        self.kinds: Counter = Counter()

    def type_(self, mode: str, *args) -> TypeExpr:
        return TypeExpr(NONE, self.req.require(mode), tuple(args))

    def var(self, pool: int):
        if pool:
            return bound(self.rng.randrange(pool))
        if self.rng.random() < 0.5:
            return Var(VarKind.EQCLASS, self.rng.randrange(CONSTS))
        return const(self.rng.randrange(CONSTS))

    def term(self, pool: int, budget: int):
        rng, req = self.rng, self.req
        pick = rng.randrange(13 if budget > 0 else 3)
        if pick == 0:
            return self.var(pool)
        if pick == 1:
            return Numeral(rng.randrange(4))
        if pick == 2:
            return const(rng.randrange(CONSTS))
        sub = lambda: self.term(pool, budget - 1)  # noqa: E731
        if pick == 3:
            return FunctorApp(rng.choice(USER_FUNCS), tuple(sub() for _ in range(rng.randrange(1, 3))))
        if pick == 4:
            return FunctorApp(req.require(rng.choice(("Add", "Mul", "Sub", "Div"))), (sub(), sub()))
        if pick == 5:
            arg = sub()
            return PrivFunc(0, (arg,), FunctorApp(req.require("Add"), (arg, Numeral(1))))
        if pick <= 8:
            return self.opaque(pool)
        return orc.gen_term(rng, pool, budget - 1)

    def opaque(self, pool: int, v=None, kind=None):
        """A choice, comprehension or scheme functor over `v`, by default a
        variable or its power set: the graph keys it by the classes of
        such closed parts."""
        if v is None:
            v = self.var(pool)
            if self.rng.random() < 0.3:
                v = FunctorApp(self.req.require("PowerSet"), (v,))
        kind = kind or self.rng.choice(OPAQUE)
        self.kinds[kind] += 1
        if kind == "Choice":
            return Choice(self.type_("Element", v))
        if kind == "Fraenkel":
            return Fraenkel((self.req.set_type(),), bound(pool), Pred(USER_PREDS[0], (bound(pool), v)))
        return SchemeFunctorApp(0, (v,))

    def flex(self, hi):
        body = lambda t: Pred(USER_PREDS[1], (t,))  # noqa: E731
        return FlexConj(Numeral(1), hi, ForAll(self.req.set_type(), body(hi)), body(Numeral(1)), body(hi))

    def atom(self, pool: int, budget: int):
        """One atomic formula; the kinds a universal's body is made of."""
        rng, req = self.rng, self.req
        # half the arguments are plain variables, so instances meet the facts
        t = lambda: self.var(pool) if rng.random() < 0.5 else self.term(pool, budget)  # noqa: E731
        kind = rng.choice(("Pred", "Equality", "Value", "LessOrEqual", "SchemePred", "Is", "Qual", "FlexAnd"))
        self.kinds[kind] += 1
        if kind == "Pred":
            if rng.random() < 0.5:
                return Pred(USER_PREDS[0], (self.opaque(pool),))
            return Pred(rng.choice(USER_PREDS), tuple(t() for _ in range(rng.randrange(1, 3))))
        if kind == "Equality":
            return Pred(req.require("Equality"), (t(), t()))
        if kind == "Value":
            return Pred(req.require("Equality"), (t(), Numeral(rng.randrange(4))))
        if kind == "LessOrEqual":
            return Pred(req.require("LessOrEqual"), (t(), t()))
        if kind == "SchemePred":
            return SchemePred(0, (t(),))
        if kind == "Is":
            if rng.random() < 0.5:
                return Is(self.var(pool), Attr(rng.random() < 0.5, USER_ATTR, (t(),)))
            return Is(t(), Attr(rng.random() < 0.5, req.require(rng.choice(("Empty", "Natural")))))
        if kind == "Qual":
            lower = frozenset([Attr(rng.random() < 0.5, req.require("Empty"))]) if rng.random() < 0.5 else NONE
            mode = rng.choice(("Element", "Set"))
            args = (self.var(pool),) if mode == "Element" else ()
            return Qual(t(), TypeExpr(lower, req.require(mode), args))
        return FlexAnd(self.flex(self.var(pool)))

    def formula(self, pool: int, budget: int):
        pick = self.rng.randrange(6 if budget > 0 else 1)
        if pick == 0:
            return self.atom(pool, budget)
        if pick == 1:
            return mk_neg(self.formula(pool, budget - 1))
        if pick == 2:
            return mk_and([self.formula(pool, budget - 1) for _ in range(self.rng.randrange(2, 4))])
        if pick == 3:
            self.kinds["PrivPred"] += 1
            arg = self.term(pool, 0)
            # an atomic expansion, as the replay of a refuting instance assumes
            return PrivPred(0, (arg,), self.atom(pool, budget - 1))
        if pick == 4:
            return orc.gen_formula(self.rng, pool, budget - 1)
        self.kinds["inner ForAll"] += 1
        return ForAll(self.req.set_type(), self.formula(pool + 1, budget - 1))

    def universal(self):
        rng, req = self.rng, self.req
        outer = rng.choice((req.set_type(), req.nat_type()))
        if rng.random() < 0.5:
            return ForAll(outer, self.formula(1, 3))
        self.kinds["pair"] += 1
        inner = rng.choice((req.set_type(), self.type_("Element", bound(0))))
        return ForAll(outer, ForAll(inner, self.formula(2, 3)))

    def clause(self):
        rng, req = self.rng, self.req
        facts = [Pred(req.require("Equality"), (const(rng.randrange(CONSTS)), Numeral(rng.randrange(4))))]
        facts.append(Pred(req.require("Membership"), (const(0), const(1))))
        signed = lambda f: f if rng.random() < 0.5 else mk_neg(f)  # noqa: E731
        for i in range(CONSTS):
            for kind in OPAQUE:
                # over the class variable an instance holds, the constant, or its power set
                v = rng.choice((Var(VarKind.EQCLASS, i), const(i), FunctorApp(req.require("PowerSet"), (const(i),))))
                facts.append(signed(Pred(USER_PREDS[0], (self.opaque(0, v, kind),))))
            for j in range(CONSTS):
                if rng.random() < 0.5:
                    facts.append(signed(Is(const(i), Attr(True, USER_ATTR, (const(j),)))))
        for _ in range(rng.randrange(3, 8)):
            f = self.atom(0, 1)
            facts.append(f if rng.random() < 0.6 else mk_neg(f))
        return facts + [self.universal() for _ in range(rng.randrange(1, 4))]


def consts(req):
    return {i: req.set_type() for i in range(CONSTS)}


def graph(req, lits):
    return refute_clause(DefinitionDb(req), list(lits), consts(req))


def needs_opaque(g, evaluate, env) -> bool:
    """Is `evaluate(env)`, which was False, no longer False when the graph
    finds no opaque term?"""
    lookup = g.lookup
    g.lookup = lambda t, env=(): None if type(t).__name__ in OPAQUE else lookup(t, env)
    try:
        return evaluate(env) is not False
    finally:
        del g.lookup


def reference_tuples(u, fa):
    """The reference search's tuples, in its order, with their instances."""
    for rep in u._candidates(fa.ty):
        inst = subst_bound(fa.body, 0, Var(VarKind.EQCLASS, rep))
        yield [rep], inst
        if isinstance(inst, ForAll):
            for rep2 in u._candidates(inst.ty):
                yield [rep, rep2], subst_bound(inst.body, 0, Var(VarKind.EQCLASS, rep2))


@pytest.fixture(scope="module")
def clauses(req_all):
    gen = Gen(random.Random(SEED), req_all)
    return [gen.clause() for _ in range(EXAMPLES)], gen.kinds


def test_every_tuple_evaluates_as_the_reference_walk(req_all, clauses):
    lits, kinds = clauses
    outcomes: Counter = Counter()
    for clause in lits:
        g_ref, g_new = graph(req_all, clause), graph(req_all, clause)
        if g_new.contradiction:
            continue
        ref = orc.ReferenceUnifier(g_ref, tuple(clause))
        new = Unifier(g_new, tuple(clause))
        refuting = []
        for fa in list(g_new.foralls):
            body = fa.body.body if isinstance(fa.body, ForAll) else fa.body
            tried = new._tuples(fa, body)
            env = next(tried, None)
            for ref_env, inst in reference_tuples(ref, fa):
                want = ref.eval(inst)
                if ref_env != env:
                    assert want is not False, (fa, ref_env)  # skipped, so never false
                    outcomes["skipped"] += 1
                    continue
                got = new._eval(body, env)
                assert got == want, (fa, env)
                outcomes[got] += 1
                if got is False:
                    refuting.append((partial(new._eval, body), env))
                env = next(tried, None)
            assert env is None  # every tuple tried is a reference tuple, in its order
            assert len(g_new.nodes) <= len(g_ref.nodes)
        # last: a search that cannot see opaque terms may intern other types
        outcomes["through an opaque leaf"] += sum(needs_opaque(g_new, f, env) for f, env in refuting)
    # the sample reaches every kind and every outcome
    assert set(kinds) >= {
        "Pred", "Equality", "Value", "LessOrEqual", "SchemePred", "Is", "Qual", "FlexAnd",
        "PrivPred", "inner ForAll", "pair", "Choice", "Fraenkel", "SchemeFunctorApp",
    }
    assert min(outcomes[k] for k in (True, False, None, "skipped", "through an opaque leaf")) > 0, outcomes


def with_constants(f):
    """A clause literal with each class variable read as the constant of
    that class: the replay of a refuting instance builds a new graph, in
    which class ids mean nothing."""
    return map_terms(f, lambda n: const(n.index) if type(n) is Var and n.kind is VarKind.EQCLASS else None)


def test_refute_agrees_with_the_reference_search(req_all, clauses):
    verdicts = Counter()
    for clause in ([with_constants(f) for f in lits] for lits in clauses[0]):
        g_ref, g_new = graph(req_all, clause), graph(req_all, clause)
        ref = orc.ReferenceUnifier(g_ref, tuple(clause), consts(req_all), tuple_cap=60)
        new = Unifier(g_new, tuple(clause), consts(req_all), tuple_cap=60)
        verdict, ref_verdict = new.refute(), ref.refute()
        if not (new.capped or ref.capped):
            assert verdict == ref_verdict
        assert new.fuel >= ref.fuel
        assert len(g_new.nodes) <= len(g_ref.nodes)
        verdicts[ref_verdict, ref.capped, new.fuel > ref.fuel] += 1
    # refuted, unrefuted and capped clauses, with and without fuel saved
    assert len(verdicts) >= 4, verdicts
