"""Instantiation search over a saturated congruence graph.

The equalizer leaves behind the clause facts it could not act on:
positive universal literals and flexible-conjunction literals.  This
module tries to close the clause by instantiating universals with the
graph's own equivalence classes (in pairs for a universal directly
over another, else singly) and evaluating each instance three-valued
against what the graph knows.  Instances are found by matching, as in
E-matching: an instance is false only if the literals its body needs
for that hold (``_must``), and for such a literal over the variables
the graph's atom and adjective tables already list the classes at
which it does (``Unifier._match``).  Only the tuples in every such set
are evaluated, in candidate order.  A universal is compiled at its
first tuple into closures over the class ids of its variables, so an
instance is not built: the graph reads bound level i as the class
``env[i]`` wherever it looks a term or a type up.  Only a flexible
conjunction is instantiated, because it is compared as a term.

Evaluation looks terms up and does not intern them: a term the graph
has not seen is simply unknown, which keeps the search sound.  Type
checks are the exception.  ``EqGraph.class_satisfies`` interns the
arguments of the type it tests, so the search can add nodes, as new
classes that carry only what their types say; no union happens, and
the candidate classes are fixed when the search starts.

Flexible conjunctions are matched as literals: a positive and a
negative one that agree make the clause contradictory.  What "agree"
means is the mode switch: the strict mode compares bounds and the
expansion, the compatibility mode only the two endpoint instances,
which accepts more and is the known-unsound behaviour kept for
comparison runs.
"""

from __future__ import annotations

from typing import Callable

from . import equalizer
from .arith import ComplexRational
from .equalizer import EqGraph, refute_clause
from .flex import FlexMode, flex_equal
from .logic import (
    And,
    Attr,
    FTrue,
    FlexAnd,
    FlexConj,
    ForAll,
    Formula,
    FunctorApp,
    Is,
    Neg,
    Numeral,
    Pred,
    PrivFunc,
    PrivPred,
    Qual,
    SchemePred,
    Term,
    TypeExpr,
    Var,
    VarKind,
    any_var,
    conjuncts,
    subst_bound,
)

TUPLE_CAP = 1000  # instances evaluated per clause


Env = list[int]  # class id of each bound level, outermost first
Eval = Callable[[Env], "bool | None"]


def _open(node) -> bool:
    """Does `node` hold a bound variable, i.e. differ between instances?"""
    return any_var(node, lambda v: v.kind is VarKind.BOUND)


def _instance(node, env: Env):
    """The syntactic instance of `node` with bound level i read as class
    ``env[i]``: the only term the search builds, a flexible conjunction."""
    return subst_bound(node, 0, *[Var(VarKind.EQCLASS, rep) for rep in env])


def _must(f: Formula, sign: bool):
    """The literals, with their signs, that must hold for `f` to
    evaluate to `sign`, seen through ``PrivPred`` as ``_formula`` does."""
    match f:
        case Neg(b):
            yield from _must(b, not sign)
        case PrivPred(_, _, exp):
            yield from _must(exp, sign)
        case And(cs) if sign:
            for c in cs:
                yield from _must(c, True)
        case Pred() | SchemePred() | Is():
            yield f, sign


class Unifier:
    def __init__(
        self,
        graph: EqGraph,
        literals: tuple[Formula, ...] = (),
        const_types: dict[int, TypeExpr] | None = None,
        flex_mode: FlexMode = FlexMode.STRICT,
        tuple_cap: int = TUPLE_CAP,
    ):
        self.g = graph
        self.req = graph.req
        self.literals = tuple(literals)
        self.const_types = dict(const_types or {})
        self.mode = flex_mode
        self.fuel = tuple_cap
        self.capped = False
        self._classes = graph.classes()
        self._cand_cache: dict[tuple[TypeExpr, tuple[int, ...]], list[int]] = {}

    # -- top level ---------------------------------------------------------

    def refute(self) -> bool:
        if self.g.contradiction:
            return True
        if self._flex_pairs():
            return True
        for fa in list(self.g.foralls):
            path = self._refute_univ(fa)
            if path is not None:
                self._replay(fa, path)
                return True
        return False

    def _flex_pairs(self) -> bool:
        fx = self.g.flexes
        for i, (s1, f1) in enumerate(fx):
            for s2, f2 in fx[i + 1 :]:
                if s1 != s2 and flex_equal(f1, f2, self.mode):
                    return True
        return False

    # -- universal instantiation ---------------------------------------------

    def _candidates(self, ty: TypeExpr, env: tuple[int, ...] = ()) -> list[int]:
        cached = self._cand_cache.get((ty, env))
        if cached is None:
            cached = [r for r in self._classes if self.g.class_satisfies(r, ty, env)]
            self._cand_cache[ty, env] = cached
        return cached

    def _refute_univ(self, fa: ForAll) -> Env | None:
        """The first instance of `fa` that evaluates to false, as the
        classes of its variables; one unit of fuel per instance tried."""
        body = fa.body.body if isinstance(fa.body, ForAll) else fa.body
        evaluate = None
        for env in self._tuples(fa, body):
            if self.fuel <= 0:
                self.capped = True
                return None
            self.fuel -= 1
            evaluate = evaluate or self._formula(body)
            if evaluate(env) is False:
                return env
        return None

    def _tuples(self, fa: ForAll, body: Formula):
        """Each candidate class, or each pair of it with a candidate of a
        directly nested universal, whose type may depend on it: only those
        at which every literal that `body` needs to be false can hold."""
        inner = fa.body if isinstance(fa.body, ForAll) else None
        matches = [m for lit, sign in _must(body, False) if (m := self._match(lit, sign, 1 + bool(inner)))]
        if not all(found for _, found in matches):
            return
        outer = [{t[at.index(0)] for t in found} for at, found in matches if 0 in at]
        for rep in self._candidates(fa.ty):
            if not all(rep in o for o in outer):
                continue
            if inner is None:
                envs = ([rep],)
            else:
                envs = ([rep, r2] for r2 in self._candidates(inner.ty, (rep,) if _open(inner.ty) else ()))
            for env in envs:
                if all(tuple([env[i] for i in at]) in found for at, found in matches):
                    yield env

    def _match(self, lit: Formula, sign: bool, levels: int) -> tuple[tuple[int, ...], set] | None:
        """The bound levels of a literal the graph indexes, and the classes
        at them under which it has `sign`; None if it is not indexed.  The
        search makes no union and a class it makes holds no atom, and it
        never writes a candidate's adjectives, so outside this set the
        literal does not have `sign`."""
        g, req = self.g, self.req
        level = {Var(VarKind.BOUND, i): i for i in range(levels)}.get
        match lit:
            case Is(t, attr) if level(t) is not None and not any(map(_open, attr.args)):
                key = (attr.attr_id, tuple([g.lookup(a) for a in attr.args]))
                want = attr.positive == sign
                return (t.index,), {(r,) for r in self._classes if g.attrs[r].get(key) is want}
            case Pred(p, args) if p not in (req.ids.Equality, req.ids.LessOrEqual):
                head = ("pred", p)
            case SchemePred(p, args):
                head = ("scheme", p)
            case _:
                return None
        slots = []  # each argument's level, or the class of a closed term (None if the graph lacks it)
        for a in args:
            i = level(a)
            if i is None and _open(a):
                return None
            slots.append((i, None if i is not None else g.lookup(a)))
        at = tuple(sorted({i for i, _ in slots if i is not None}))
        found = set()
        for (h, ids), s in g.atoms.items():
            if h != head or s is not sign or len(ids) != len(slots) or any(g.find(x) != x for x in ids):
                continue
            env: dict[int, int] = {}
            if all(x == (rep if i is None else env.setdefault(i, x)) for (i, rep), x in zip(slots, ids)):
                found.add(tuple([env[i] for i in at]))
        return at, found

    def _replay(self, fa: ForAll, path: Env) -> None:
        """Sanity harness: the found instance must refute on its own."""
        if not __debug__:
            return
        body = fa.body.body if len(path) == 2 else fa.body
        parts = [c for c in conjuncts(body) if not isinstance(c, FTrue)]
        for p in parts:
            inner = p
            while isinstance(inner, (Neg, PrivPred)):
                inner = inner.body if isinstance(inner, Neg) else inner.expansion
            if isinstance(inner, (And, ForAll, FTrue, FlexAnd)):
                return  # compound, or flex outside the graph: the three-valued check stands alone
        # a substitution keeps each part's kind, so it is made only for a replay
        terms = [self.g.term_of_class(r) for r in path]
        parts = [subst_bound(p, 0, *terms) for p in parts]
        # not this module's name, which a tracer may wrap to count clause graphs
        g2 = equalizer.refute_clause(self.g.db, [*self.literals, *parts], self.const_types)
        assert g2.contradiction or g2.limited, "instance did not replay"

    # -- compiled three-valued evaluation -----------------------------------------
    #
    # Each compiles a node into a function of the environment, which holds
    # a class for each of the node's free bound levels: ``_formula`` gives
    # True, False or None (a universal inside an instance is unknown),
    # ``_term`` the instance's class (None if the graph lacks it) and
    # ``_value`` its exact value.

    def _formula(self, f: Formula) -> Eval:
        g, req = self.g, self.req
        match f:
            case FTrue():
                return lambda env: True
            case Neg(b):
                body = self._formula(b)
                return lambda env: None if (v := body(env)) is None else not v
            case And(cs):
                parts = [self._formula(c) for c in cs]

                def conj(env):
                    out: bool | None = True
                    for part in parts:
                        v = part(env)
                        if v is False:
                            return False
                        if v is None:
                            out = None
                    return out

                return conj
            case Pred(p, (a, b)) if p == req.ids.Equality:
                return self._equality(a, b)
            case Pred(p, (a, b)) if p == req.ids.LessOrEqual:
                va, vb = self._value(a), self._value(b)
                atom = self._atom("pred", p, (a, b))

                def le(env):
                    x = va(env)
                    y = None if x is None else vb(env)
                    return atom(env) if y is None else x.lex_le(y)

                return le
            case Pred(p, args):
                return self._atom("pred", p, args)
            case SchemePred(p, args):
                return self._atom("scheme", p, args)
            case PrivPred(_, _, exp):
                return self._formula(exp)
            case Is(t, attr):
                return self._is(self._term(t), attr)
            case Qual(t, ty):
                return self._qual(t, ty)
            case FlexAnd(fc):
                if _open(f):
                    return lambda env: self._flex_lookup(_instance(f, env).flex)
                known = self._flex_lookup(fc)
                return lambda env: known
        return lambda env: None

    def _equality(self, a: Term, b: Term) -> Eval:
        g = self.g
        ca, cb = self._term(a), self._term(b)
        va, vb = self._value(a, ca), self._value(b, cb)

        def eq(env):
            x = va(env)
            y = None if x is None else vb(env)
            if y is not None:
                return x == y
            ra, rb = ca(env), cb(env)
            if ra is None or rb is None:
                return None
            return True if ra == rb else (False if g.are_unequal(ra, rb) else None)

        return eq

    def _atom(self, ns: str, pid: int, args: tuple[Term, ...]) -> Eval:
        g, classes = self.g, self._args(args)
        return lambda env: None if (reps := classes(env)) is None else g.atom_sign(ns, pid, reps)

    def _is(self, term: Callable[[Env], int | None], attr: Attr) -> Eval:
        g, args = self.g, self._args(attr.args)

        def is_(env):
            r = term(env)
            reps = None if r is None else args(env)
            s = None if reps is None else g.attr_sign(r, attr.attr_id, reps)
            return None if s is None else s == attr.positive

        return is_

    def _qual(self, t: Term, ty: TypeExpr) -> Eval:
        g, term = self.g, self._term(t)
        lower = [self._is(term, a) for a in ty.lower]

        def qual(env):
            r = term(env)
            if r is None:
                return None
            if g.class_satisfies(r, ty, env):
                return True
            return False if any(is_(env) is False for is_ in lower) else None

        return qual

    def _flex_lookup(self, fc: FlexConj) -> bool | None:
        for s, f2 in self.g.flexes:
            if flex_equal(fc, f2, self.mode):
                return s
        return None

    def _term(self, t: Term) -> Callable[[Env], int | None]:
        g = self.g
        if not _open(t):
            rep = g.lookup(t)
            # a term found stays in its class: the search makes no union
            return (lambda env: rep) if rep is not None else (lambda env: g.lookup(t))
        match t:
            case Var(VarKind.BOUND, i):
                return lambda env: env[i]
            case FunctorApp(f, args):
                classes = self._args(args)
                return lambda env: None if (reps := classes(env)) is None else g.lookup_app(f, reps)
        return lambda env: g.lookup(t, env)

    def _args(self, args: tuple[Term, ...]) -> Callable[[Env], tuple[int, ...] | None]:
        terms = [self._term(a) for a in args]

        def classes(env):
            reps = tuple([term(env) for term in terms])
            return None if None in reps else reps

        return classes

    def _value(
        self, t: Term, term: Callable[[Env], int | None] | None = None
    ) -> Callable[[Env], ComplexRational | None]:
        """The class's known value first, then the structural rule, in the
        order of ``RequirementTable.term_value``.  `term` is `t`'s compiled
        ``_term``, when the caller has one."""
        g, req = self.g, self.req
        if isinstance(t, PrivFunc):
            return self._value(t.expansion, term)
        term = term or self._term(t)
        arith = req.arith.get(t.func) if isinstance(t, FunctorApp) else None
        parts = [self._value(a) for a in t.args] if arith else []
        own = req.term_value(t) if isinstance(t, Numeral) else None

        def value(env):
            r = term(env)
            v = None if r is None else g.value.get(r)
            if v is not None or arith is None:
                return own if v is None else v
            vals = [part(env) for part in parts]
            return None if None in vals else arith.value(*vals)

        return value


def clause_refuted(
    db,
    literals,
    const_types,
    flex_mode: FlexMode = FlexMode.STRICT,
    tuple_cap: int = TUPLE_CAP,
    shared: tuple[dict[int, TypeExpr], list[Formula]] | None = None,
) -> tuple[bool, bool, bool]:
    """Saturate then search; returns (refuted, resource-limited, refuted by `shared`)."""
    g = refute_clause(db, list(literals), dict(const_types), shared)
    if g.contradiction:
        return True, False, g.shared_refuted
    u = Unifier(g, tuple(literals), dict(const_types), flex_mode, tuple_cap)
    refuted = u.refute()
    return refuted, (g.limited or u.capped), False
