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
are evaluated, in candidate order.  Each instance is read in place,
not built: the graph reads bound level i as the class ``env[i]``
wherever it looks a term or a type up.  Only a flexible conjunction
is instantiated, because it is compared as a term.

Evaluation looks terms up and does not intern them: a term the graph
has not seen is simply unknown, which keeps the search sound.  Type
checks are the exception.  ``EqGraph.class_satisfies`` interns the
arguments of the type it tests, so the search can add nodes, as new
classes that carry only what their types say; no union happens, and
the candidate classes are fixed when the search starts.

Flexible conjunctions are matched as literals: a positive and a
negative one that agree make the clause contradictory: they agree when
their bounds and expansions are equal (`flex.flex_equal`), however
their endpoints were written.

The walks over an instance (``_eval``, ``_must``, ``_match``, ``_open``)
dispatch on the exact node type, as the prechecker's do.
"""

from __future__ import annotations

from . import equalizer
from .arith import ComplexRational
from .equalizer import EqGraph, refute_clause
from .flex import flex_equal
from .logic import (
    And,
    Attr,
    FTrue,
    FlexAnd,
    ForAll,
    Formula,
    Is,
    Neg,
    Pred,
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

_BOUND, _EQCLASS = VarKind.BOUND, VarKind.EQCLASS


Env = list[int]  # class id of each bound level, outermost first


def _open(node) -> bool:
    """Does `node` hold a bound variable, i.e. differ between instances?"""
    return any_var(node, _is_bound)


def _is_bound(v: Var) -> bool:
    return v.kind is _BOUND


def _instance(node, env: Env):
    """The syntactic instance of `node` with bound level i read as class
    ``env[i]``: the only term the search builds, a flexible conjunction."""
    return subst_bound(node, 0, *[Var(_EQCLASS, rep) for rep in env])


def _must(f: Formula, sign: bool):
    """The literals, with their signs, that must hold for `f` to
    evaluate to `sign`, seen through ``PrivPred`` as ``_eval`` does."""
    k = type(f)
    if k is Neg:
        yield from _must(f.body, not sign)
    elif k is PrivPred:
        yield from _must(f.expansion, sign)
    elif k is And:
        if sign:
            for c in f.conjuncts:
                yield from _must(c, True)
    elif k is Pred or k is SchemePred or k is Is:
        yield f, sign


class Unifier:
    def __init__(
        self,
        graph: EqGraph,
        literals: tuple[Formula, ...] = (),
        const_types: dict[int, TypeExpr] | None = None,
        tuple_cap: int = TUPLE_CAP,
    ):
        self.g = graph
        self.req = graph.req
        self.literals = tuple(literals)
        self.const_types = dict(const_types or {})
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
                if s1 != s2 and flex_equal(f1, f2):
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
        for env in self._tuples(fa, body):
            if self.fuel <= 0:
                self.capped = True
                return None
            self.fuel -= 1
            if self._eval(body, env) is False:
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
        k = type(lit)
        if k is Is:
            t, attr = lit.term, lit.attr
            if type(t) is not Var or t.kind is not _BOUND or t.index >= levels or any(map(_open, attr.args)):
                return None
            key = (attr.attr_id, tuple([g.lookup(a) for a in attr.args]))
            want = attr.positive == sign
            return (t.index,), {(r,) for r in self._classes if g.attrs[r].get(key) is want}
        if k is Pred and lit.pred != req.ids.Equality and lit.pred != req.ids.LessOrEqual:
            head = ("pred", lit.pred)
        elif k is SchemePred:
            head = ("scheme", lit.pred)
        else:
            return None
        slots = []  # each argument's level, or the class of a closed term (None if the graph lacks it)
        for a in lit.args:
            if type(a) is Var and a.kind is _BOUND and a.index < levels:
                slots.append((a.index, None))
            elif _open(a):
                return None
            else:
                slots.append((None, g.lookup(a)))
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

    # -- three-valued evaluation ---------------------------------------------
    #
    # An instance is read in place: the graph looks each term up with bound
    # level i read as the class ``env[i]``.

    def _eval(self, f: Formula, env: Env) -> bool | None:
        """What the graph knows of `f` at `env`: True, False or None (a
        universal inside an instance is unknown)."""
        k = type(f)
        if k is Pred:
            p, args = f.pred, f.args
            ids = self.req.ids
            if len(args) == 2 and (p == ids.Equality or p == ids.LessOrEqual):
                a, b = args
                ra, rb = self._rep(a, env), self._rep(b, env)
                x = self._value(a, ra, env)
                y = None if x is None else self._value(b, rb, env)
                if y is not None:
                    return x == y if p == ids.Equality else x.lex_le(y)
                if ra is None or rb is None:
                    return None
                if p == ids.Equality:
                    return True if ra == rb else (False if self.g.are_unequal(ra, rb) else None)
                return self.g.atom_sign("pred", p, (ra, rb))
            return self._atom("pred", p, args, env)
        if k is Neg:
            v = self._eval(f.body, env)
            return None if v is None else not v
        if k is And:
            out: bool | None = True
            for c in f.conjuncts:
                v = self._eval(c, env)
                if v is False:
                    return False
                if v is None:
                    out = None
            return out
        if k is Is:
            r = self._rep(f.term, env)
            return None if r is None else self._is(r, f.attr, env)
        if k is Qual:
            r, ty = self._rep(f.term, env), f.ty
            if r is None:
                return None
            if self.g.class_satisfies(r, ty, env):
                return True
            return False if any(self._is(r, a, env) is False for a in ty.lower) else None
        if k is SchemePred:
            return self._atom("scheme", f.pred, f.args, env)
        if k is PrivPred:
            return self._eval(f.expansion, env)
        if k is FlexAnd:
            fc = _instance(f, env).flex if _open(f) else f.flex
            return next((s for s, f2 in self.g.flexes if flex_equal(fc, f2)), None)
        if k is FTrue:
            return True
        return None

    def _rep(self, t: Term, env: Env) -> int | None:
        """The class of `t` at `env`; None if the graph lacks it."""
        return env[t.index] if type(t) is Var and t.kind is _BOUND else self.g.lookup(t, env)

    def _reps(self, args: tuple[Term, ...], env: Env) -> tuple[int, ...] | None:
        reps = tuple([self._rep(a, env) for a in args])
        return None if None in reps else reps

    def _atom(self, ns: str, pid: int, args: tuple[Term, ...], env: Env) -> bool | None:
        reps = self._reps(args, env)
        return None if reps is None else self.g.atom_sign(ns, pid, reps)

    def _is(self, r: int, attr: Attr, env: Env) -> bool | None:
        reps = self._reps(attr.args, env)
        s = None if reps is None else self.g.attr_sign(r, attr.attr_id, reps)
        return None if s is None else s == attr.positive

    def _value(self, t: Term, rep: int | None, env: Env) -> ComplexRational | None:
        """`t`'s exact value at `env`, its class ``rep`` (None if the graph
        lacks it) and its subterms' classes read for known values first."""
        value = self.g.value
        return self.req.term_value(t, lambda s: value.get(rep if s is t else self._rep(s, env)))


def clause_refuted(
    db,
    literals,
    const_types,
    tuple_cap: int = TUPLE_CAP,
    shared: tuple[dict[int, TypeExpr], list[Formula]] | None = None,
) -> tuple[bool, bool, bool]:
    """Saturate then search; returns (refuted, resource-limited, refuted by `shared`)."""
    g = refute_clause(db, list(literals), dict(const_types), shared)
    if g.contradiction:
        return True, False, g.shared_refuted
    u = Unifier(g, tuple(literals), dict(const_types), tuple_cap)
    refuted = u.refute()
    return refuted, (g.limited or u.capped), False
