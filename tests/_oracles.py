"""Independent reference implementations used to check the real ones.

Nothing here may import algorithmic code beyond the plain data
constructors: the named-variable substitution works on names, never on
level arithmetic, and the finite-domain evaluator interprets formulas
directly over small initial segments of the naturals.  The one
exception is ``ReferenceUnifier``, the instantiation search as it was
before the unifier was compiled: it builds every instance with
``subst_bound`` and walks it, reading the graph through its public
accessors, and the compiled search must agree with it tuple by tuple.
"""

from __future__ import annotations

import random

from micromizar.flex import flex_equal
from micromizar.logic import (
    And,
    Attr,
    FTrue,
    FlexAnd,
    ForAll,
    Formula,
    FunctorApp,
    Is,
    Neg,
    Numeral,
    Pred,
    PrivPred,
    Qual,
    SchemePred,
    Term,
    TypeExpr,
    TRUE,
    Var,
    VarKind,
    bound,
    mk_and,
    mk_neg,
    subst_bound,
)
from micromizar.unifier import Unifier

# ---------------------------------------------------------------------------
# named-variable mirror of the level-based syntax


def named_of_term(t: Term, env: list[str]):
    match t:
        case Var(VarKind.BOUND, i):
            return ("var", env[i])
        case Var(kind, i):
            return ("freevar", kind.value, i)
        case Numeral(v):
            return ("num", v)
        case FunctorApp(f, args):
            return ("app", f, tuple(named_of_term(a, env) for a in args))
    raise TypeError(t)


def named_of_attr(a: Attr, env: list[str]):
    return ("attr", a.positive, a.attr_id, tuple(named_of_term(t, env) for t in a.args))


def named_of_type(ty: TypeExpr, env: list[str]):
    return (
        "type",
        ty.mode,
        tuple(named_of_term(t, env) for t in ty.args),
        tuple(sorted(named_of_attr(a, env) for a in ty.lower)),
        tuple(sorted(named_of_attr(a, env) for a in ty.upper)),
    )


def named_of(f: Formula, env: list[str]):
    """Convert to a named tree; binder at depth d is always called L<d>."""
    match f:
        case FTrue():
            return ("true",)
        case Neg(b):
            return ("neg", named_of(b, env))
        case And(cs):
            return ("and", tuple(named_of(c, env) for c in cs))
        case ForAll(ty, b):
            name = f"L{len(env)}"
            return ("forall", name, named_of_type(ty, env), named_of(b, env + [name]))
        case Pred(p, args):
            return ("pred", p, tuple(named_of_term(a, env) for a in args))
        case Is(t, a):
            return ("is", named_of_term(t, env), named_of_attr(a, env))
        case Qual(t, ty):
            return ("qual", named_of_term(t, env), named_of_type(ty, env))
    raise TypeError(f)


def named_subst(nt, name: str, repl):
    """Replace ("var", name) throughout; repl must be closed."""
    if not isinstance(nt, tuple):
        return nt
    if nt[:2] == ("var", name):
        return repl
    return tuple(named_subst(part, name, repl) if isinstance(part, tuple) else part for part in nt)


def levels_of_term(nt, names: dict[str, int]) -> Term:
    match nt:
        case ("var", name):
            return bound(names[name])
        case ("freevar", kindval, i):
            return Var(VarKind(kindval), i)
        case ("num", v):
            return Numeral(v)
        case ("app", f, args):
            return FunctorApp(f, tuple(levels_of_term(a, names) for a in args))
    raise TypeError(nt)


def levels_of_attr(nt, names: dict[str, int]) -> Attr:
    _, positive, attr_id, args = nt
    return Attr(positive, attr_id, tuple(levels_of_term(a, names) for a in args))


def levels_of_type(nt, names: dict[str, int]) -> TypeExpr:
    _, mode, args, lower, upper = nt
    return TypeExpr(
        frozenset(levels_of_attr(a, names) for a in lower),
        frozenset(levels_of_attr(a, names) for a in upper),
        mode,
        tuple(levels_of_term(a, names) for a in args),
    )


def levels_of(nt, names: dict[str, int], depth: int) -> Formula:
    """Back-convert; the binder met at nesting depth d binds level d."""
    match nt:
        case ("true",):
            return TRUE
        case ("neg", b):
            return mk_neg(levels_of(b, names, depth))
        case ("and", cs):
            return mk_and([levels_of(c, names, depth) for c in cs])
        case ("forall", name, ty, b):
            inner = dict(names)
            inner[name] = depth
            return ForAll(levels_of_type(ty, names), levels_of(b, inner, depth + 1))
        case ("pred", p, args):
            return Pred(p, tuple(levels_of_term(a, names) for a in args))
        case ("is", t, a):
            return Is(levels_of_term(t, names), levels_of_attr(a, names))
        case ("qual", t, ty):
            return Qual(levels_of_term(t, names), levels_of_type(ty, names))
    raise TypeError(nt)


# ---------------------------------------------------------------------------
# random generator for the node kinds the oracle mirrors


def gen_term(rng: random.Random, pool: int, budget: int) -> Term:
    pick = rng.randrange(5 if budget > 0 else 3)
    if pick == 0 and pool > 0:
        return bound(rng.randrange(pool))
    if pick == 1:
        return Numeral(rng.randrange(4))
    if pick == 2:
        return Var(VarKind.CONST, rng.randrange(3))
    return FunctorApp(
        rng.randrange(3),
        tuple(gen_term(rng, pool, budget - 1) for _ in range(rng.randrange(1, 3))),
    )


def gen_type(rng: random.Random, pool: int, budget: int) -> TypeExpr:
    attrs = frozenset(
        Attr(rng.random() < 0.5, rng.randrange(2), tuple(gen_term(rng, pool, 0) for _ in range(rng.randrange(2))))
        for _ in range(rng.randrange(2))
    )
    args = tuple(gen_term(rng, pool, budget - 1) for _ in range(rng.randrange(2)))
    return TypeExpr(attrs, attrs, rng.randrange(2), args)


def gen_formula(rng: random.Random, pool: int, budget: int) -> Formula:
    pick = rng.randrange(7 if budget > 0 else 3)
    if pick == 0:
        return Pred(rng.randrange(3), tuple(gen_term(rng, pool, budget) for _ in range(1, rng.randrange(2, 4))))
    if pick == 1:
        return Is(gen_term(rng, pool, budget), Attr(rng.random() < 0.5, rng.randrange(2)))
    if pick == 2:
        return Qual(gen_term(rng, pool, budget), gen_type(rng, pool, budget))
    if pick == 3:
        return mk_neg(gen_formula(rng, pool, budget - 1))
    if pick == 4:
        return mk_and([gen_formula(rng, pool, budget - 1) for _ in range(rng.randrange(2, 4))])
    if pick == 5:
        return ForAll(gen_type(rng, pool, budget - 1), gen_formula(rng, pool + 1, budget - 1))
    return TRUE


# ---------------------------------------------------------------------------
# finite-domain evaluator over an initial segment of the naturals


class CannotEvaluate(Exception):
    pass


def eval_term(t: Term, req, env: dict[int, int]) -> int:
    match t:
        case Numeral(v):
            return v
        case Var(VarKind.BOUND, i):
            if i not in env:
                raise CannotEvaluate(f"unbound level {i}")
            return env[i]
        case FunctorApp(f, args):
            vals = [eval_term(a, req, env) for a in args]
            if f == req.cid("Zero"):
                return 0
            if f == req.cid("Succ"):
                return vals[0] + 1
            if f == req.cid("Add"):
                return vals[0] + vals[1]
            if f == req.cid("Mul"):
                return vals[0] * vals[1]
            if f == req.cid("Sub"):
                if vals[0] < vals[1]:
                    raise CannotEvaluate("difference leaves the naturals")
                return vals[0] - vals[1]
    raise CannotEvaluate(t)


def eval_formula(f: Formula, req, env: dict[int, int], domain: range, depth: int) -> bool:
    match f:
        case FTrue():
            return True
        case Neg(b):
            return not eval_formula(b, req, env, domain, depth)
        case And(cs):
            return all(eval_formula(c, req, env, domain, depth) for c in cs)
        case Pred(p, (a, b)) if p == req.cid("Equality"):
            return eval_term(a, req, env) == eval_term(b, req, env)
        case Pred(p, (a, b)) if p == req.cid("LessOrEqual"):
            return eval_term(a, req, env) <= eval_term(b, req, env)
        case ForAll(_, body):
            return all(
                eval_formula(body, req, {**env, depth: v}, domain, depth + 1) for v in domain
            )
        case FlexAnd(fx):
            return eval_formula(fx.expansion, req, env, domain, depth)
    raise CannotEvaluate(f)


# ---------------------------------------------------------------------------
# the instantiation search by substitution


class ReferenceUnifier(Unifier):
    """``Unifier`` whose search substitutes each candidate class into the
    universal and walks the instance; same candidates, order and fuel."""

    def _refute_univ(self, fa: ForAll, depth: int = 0) -> list[int] | None:
        for rep in self._candidates(fa.ty):
            if self.fuel <= 0:
                self.capped = True
                return None
            self.fuel -= 1
            inst = subst_bound(fa.body, 0, Var(VarKind.EQCLASS, rep))
            if self.eval(inst) is False:
                return [rep]
            if depth == 0 and isinstance(inst, ForAll):
                tail = self._refute_univ(inst, depth + 1)
                if tail is not None:
                    return [rep] + tail
        return None

    def eval(self, f: Formula) -> bool | None:
        """What the graph knows of a formula without bound variables."""
        match f:
            case FTrue():
                return True
            case Neg(b):
                v = self.eval(b)
                return None if v is None else not v
            case And(cs):
                out: bool | None = True
                for c in cs:
                    v = self.eval(c)
                    if v is False:
                        return False
                    if v is None:
                        out = None
                return out
            case Pred(p, args):
                if p == self.req.cid("Equality") and len(args) == 2:
                    return self._eval_equality(args[0], args[1])
                if p == self.req.cid("LessOrEqual") and len(args) == 2:
                    va, vb = self._term_value(args[0]), self._term_value(args[1])
                    if va is not None and vb is not None:
                        return va.lex_le(vb)
                return self._eval_atom("pred", p, args)
            case SchemePred(p, args):
                return self._eval_atom("scheme", p, args)
            case PrivPred(_, _, exp):
                return self.eval(exp)
            case Is(t, attr):
                rep = self.g.lookup(t)
                if rep is None:
                    return None
                argreps = self._arg_classes(attr.args)
                if argreps is None:
                    return None
                stored = self.g.attr_sign(rep, attr.attr_id, argreps)
                if stored is None:
                    return None
                return stored == attr.positive
            case Qual(t, ty):
                rep = self.g.lookup(t)
                if rep is None:
                    return None
                if self.g.class_satisfies(rep, ty):
                    return True
                for a in ty.lower:
                    argreps = self._arg_classes(a.args)
                    if argreps is None:
                        continue
                    stored = self.g.attr_sign(rep, a.attr_id, argreps)
                    if stored is not None and stored != a.positive:
                        return False
                return None
            case FlexAnd(fc):
                for s, f2 in self.g.flexes:
                    if flex_equal(fc, f2, self.mode):
                        return s
                return None
        return None

    def _arg_classes(self, args: tuple[Term, ...]) -> tuple[int, ...] | None:
        out = []
        for a in args:
            r = self.g.lookup(a)
            if r is None:
                return None
            out.append(r)
        return tuple(out)

    def _eval_atom(self, ns: str, pid: int, args: tuple[Term, ...]) -> bool | None:
        argreps = self._arg_classes(args)
        if argreps is None:
            return None
        return self.g.atom_sign(ns, pid, argreps)

    def _eval_equality(self, a: Term, b: Term) -> bool | None:
        va, vb = self._term_value(a), self._term_value(b)
        if va is not None and vb is not None:
            return va == vb
        ra, rb = self.g.lookup(a), self.g.lookup(b)
        if ra is not None and rb is not None:
            if self.g.find(ra) == self.g.find(rb):
                return True
            if self.g.are_unequal(ra, rb):
                return False
        return None

    def _term_value(self, t: Term):
        return self.req.term_value(t, self._graph_value)

    def _graph_value(self, t: Term):
        rep = self.g.lookup(t)
        return None if rep is None else self.g.value.get(self.g.find(rep))
