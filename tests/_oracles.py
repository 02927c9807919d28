"""Independent reference implementations used to check the real ones.

Nothing here may import algorithmic code beyond the plain data
constructors: the named-variable substitution works on names, never on
level arithmetic, and the finite-domain evaluator interprets formulas
directly over small initial segments of the naturals.  Two exceptions
keep earlier versions of the real code as references.
``ReferenceUnifier`` is the instantiation search as it was before the
unifier was compiled: it builds every instance with ``subst_bound`` and
walks it, reading the graph through its public accessors, and the
compiled search must agree with it tuple by tuple.  The reference pair
walks (``reference_infer_flex``, ``reference_formula_equal``,
``reference_match_scheme``) are flex inference, thesis equality and
scheme matching as they were written before all three became hooks on
``logic.zip_nodes``, one hand-written walk each.  ``reference_map_terms``
and ``reference_any_var`` are the map and the occurrence test as they
were before both read ``logic._SHAPE``: one function per kind, and a
child table of their own.  ``ReferenceDnf`` is the prechecker's
skolemization and distribution as they were before the clauses were
counted first and streamed: one substitution per binder, and every
clause built into a list until ``ClauseOverflow``.  ``reference_term_key``
and ``reference_attr_key`` are the sort keys as they were before they
broke ties: the rank alone.  ``ReferenceGraph`` is the congruence
graph with polynomials as they were before they became a graph table:
one pass per round that recomputes the polynomial of every class and
compares every pair of each class's polynomials, with the ARITHM group
only, after the value pass that evaluated every arithmetic node until
the polynomial table became the graph's only arithmetic; and
``graph_digest`` is what two saturated graphs must agree on.
``ReferenceGraph`` keeps two rule families as they were before one
moved to the fact it follows from and the other became data: a pass over every class each round that gives a class with a
value its number adjectives and a ``zero`` class the value 0, and the
boolean equalities as one branch per functor, with ``_put`` and
``_add_attr`` as they were before them.  It also keeps the graph's
upkeep as it was before the graph did work only where it holds
something: every node due for the polynomials, every table re-keyed and
every cluster rule rebuilt each round, each seeded type rounded up
again; ``ReferenceTableGraph`` is that upkeep with the graph's
polynomial table, number adjectives and boolean rows, and without the
value pass or the adjective pass.  ``reference_tokenize`` is the
tokenizer as it was before it became one regular expression: one
character at a time, with a walk over the symbol table at each symbol.
``ReferencePrechecker`` is ``Prechecker.justify`` as it was before the
clauses shared a first step: augmentation, then skolemization, then
every clause refuted in a graph of its own.
"""

from __future__ import annotations

import random

from micromizar.arith import ZERO, ComplexRational, Polynomial, p_atom, p_const, p_is_const, p_sort_key, p_sub
from micromizar.equalizer import EqGraph
from micromizar.errors import MizarError, SourcePos
from micromizar.flex import MalformedFlex, NoCommonShape, NonNumericBound, flex_equal
from micromizar.logic import (
    And,
    Attr,
    Choice,
    FTrue,
    FlexAnd,
    FlexConj,
    ForAll,
    Formula,
    Fraenkel,
    FunctorApp,
    Is,
    Neg,
    Numeral,
    Pred,
    PrivFunc,
    PrivPred,
    Qual,
    SchemeFunctorApp,
    SchemePred,
    Term,
    TypeExpr,
    TRUE,
    Var,
    VarKind,
    any_var,
    bound,
    const,
    mk_and,
    mk_neg,
    replace_term,
    shift_up,
    sorted_attrs,
    subst_bound,
    uses_bound,
)
from micromizar.lexer import KEYWORDS, Token
from micromizar.prechecker import UNFOLD_FUEL, Justification, Prechecker
from micromizar.schematizer import (
    CONFLICT,
    FUNC,
    GROUND,
    HEAD_MISMATCH,
    PRED,
    PREMISE_COUNT,
    PRIV_FUNC,
    PRIV_PRED,
    SIGN_MISMATCH,
    Scheme,
    SchemeAssignment,
    SchemeMatchError,
    _strip,
    apply_assignment,
)
from micromizar.unifier import Unifier, clause_refuted

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
    _, mode, args, lower = nt
    return TypeExpr(
        frozenset(levels_of_attr(a, names) for a in lower),
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
    return TypeExpr(attrs, rng.randrange(2), args)


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
        case Pred(p, (a, b)) if p == req.cid("Subset"):
            # a natural is the set of the smaller ones: inclusion is the order
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
                    if flex_equal(fc, f2):
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


# ---------------------------------------------------------------------------
# the three pair walks as they were written by hand, one per use


class _PairTracker:
    def __init__(self, attr_order):
        self.pair: tuple[Term, Term] | None = None
        self.attr_order = attr_order

    def generalize(self, left: Term, right: Term, depth: int) -> Term:
        if self.pair is None:
            self.pair = (left, right)
        elif self.pair != (left, right):
            raise NoCommonShape("differing positions disagree on the bounds")
        return bound(depth)


def _same_head(a: Term, b: Term) -> bool:
    match (a, b):
        case (FunctorApp(f, xs), FunctorApp(g, ys)):
            return f == g and len(xs) == len(ys)
        case (PrivFunc(f, xs, _), PrivFunc(g, ys, _)):
            return f == g and len(xs) == len(ys)
        case (SchemeFunctorApp(f, xs), SchemeFunctorApp(g, ys)):
            return f == g and len(xs) == len(ys)
    return False


def _diff_term(a: Term, b: Term, tr: _PairTracker, depth: int) -> Term:
    if a == b:
        return a
    if _same_head(a, b):
        match (a, b):
            case (FunctorApp(f, xs), FunctorApp(_, ys)):
                return FunctorApp(f, tuple(_diff_term(x, y, tr, depth) for x, y in zip(xs, ys)))
            case (PrivFunc(f, xs, e1), PrivFunc(_, ys, e2)):
                return PrivFunc(
                    f,
                    tuple(_diff_term(x, y, tr, depth) for x, y in zip(xs, ys)),
                    _diff_term(e1, e2, tr, depth),
                )
            case (SchemeFunctorApp(f, xs), SchemeFunctorApp(_, ys)):
                return SchemeFunctorApp(
                    f, tuple(_diff_term(x, y, tr, depth) for x, y in zip(xs, ys))
                )
    return tr.generalize(a, b, depth)


def _diff_attr(a: Attr, b: Attr, tr: _PairTracker, depth: int) -> Attr:
    if a.attr_id != b.attr_id or a.positive != b.positive or len(a.args) != len(b.args):
        raise NonNumericBound("endpoints differ in an adjective, not a term")
    return Attr(a.positive, a.attr_id, tuple(_diff_term(x, y, tr, depth) for x, y in zip(a.args, b.args)))


def _attr_sort_key(a: Attr) -> tuple:
    return (a.attr_id, not a.positive, repr(a.args))


def _diff_type(a: TypeExpr, b: TypeExpr, tr: _PairTracker, depth: int) -> TypeExpr:
    if a == b:
        return a
    if a.mode != b.mode or len(a.args) != len(b.args):
        raise NonNumericBound("endpoints differ in a type, not a term")
    la, lb = sorted(a.lower, key=tr.attr_order), sorted(b.lower, key=tr.attr_order)
    if len(la) != len(lb):
        raise NonNumericBound("endpoints differ in a type, not a term")
    return TypeExpr(
        frozenset(_diff_attr(x, y, tr, depth) for x, y in zip(la, lb)),
        a.mode,
        tuple(_diff_term(x, y, tr, depth) for x, y in zip(a.args, b.args)),
    )


def _diff_formula(a: Formula, b: Formula, tr: _PairTracker, depth: int) -> Formula:
    match (a, b):
        case (FTrue(), FTrue()):
            return a
        case (Neg(x), Neg(y)):
            return Neg(_diff_formula(x, y, tr, depth))
        case (And(xs), And(ys)) if len(xs) == len(ys):
            return And(tuple(_diff_formula(x, y, tr, depth) for x, y in zip(xs, ys)))
        case (Pred(p, xs), Pred(q, ys)) if p == q and len(xs) == len(ys):
            return Pred(p, tuple(_diff_term(x, y, tr, depth) for x, y in zip(xs, ys)))
        case (SchemePred(p, xs), SchemePred(q, ys)) if p == q and len(xs) == len(ys):
            return SchemePred(p, tuple(_diff_term(x, y, tr, depth) for x, y in zip(xs, ys)))
        case (PrivPred(p, xs, e1), PrivPred(q, ys, e2)) if p == q and len(xs) == len(ys):
            return PrivPred(
                p,
                tuple(_diff_term(x, y, tr, depth) for x, y in zip(xs, ys)),
                _diff_formula(e1, e2, tr, depth),
            )
        case (Is(t1, a1), Is(t2, a2)):
            if a1.attr_id != a2.attr_id or a1.positive != a2.positive:
                raise NoCommonShape("adjectives differ")
            return Is(_diff_term(t1, t2, tr, depth), _diff_attr(a1, a2, tr, depth))
        case (Qual(t1, ty1), Qual(t2, ty2)):
            return Qual(_diff_term(t1, t2, tr, depth), _diff_type(ty1, ty2, tr, depth))
        case (ForAll(ty1, b1), ForAll(ty2, b2)):
            return ForAll(_diff_type(ty1, ty2, tr, depth), _diff_formula(b1, b2, tr, depth))
        case (FlexAnd(f1), FlexAnd(f2)):
            return FlexAnd(
                FlexConj(
                    _diff_term(f1.lo, f2.lo, tr, depth),
                    _diff_term(f1.hi, f2.hi, tr, depth),
                    _diff_formula(f1.expansion, f2.expansion, tr, depth),
                    _diff_formula(f1.inst_lo, f2.inst_lo, tr, depth),
                    _diff_formula(f1.inst_hi, f2.inst_hi, tr, depth),
                )
            )
    raise NoCommonShape("endpoint formulas have different shapes")


def _first_term(f: Formula) -> Term | None:
    match f:
        case FTrue():
            return None
        case Neg(b):
            return _first_term(b)
        case And(cs):
            for c in cs:
                t = _first_term(c)
                if t is not None:
                    return t
            return None
        case Pred(_, args) | SchemePred(_, args) | PrivPred(_, args, _):
            return args[0] if args else None
        case Is(t, _) | Qual(t, _):
            return t
        case ForAll(_, b):
            return _first_term(b)
        case FlexAnd(fx):
            return fx.lo
    raise TypeError(f)


def _check_bound_scope(t: Term, depth: int) -> None:
    if any_var(t, lambda v: v.kind is VarKind.BOUND and v.index >= depth):
        raise NonNumericBound("range bound mentions a variable bound inside the endpoint")


def reference_infer_flex(
    left: Formula, right: Formula, req, depth: int = 0, attr_order=_attr_sort_key
) -> FlexConj:
    """``flex.infer_flex_from_diff`` with its own endpoint diff.  It paired
    a type's adjectives in the order their arguments print; `attr_order`
    can replace that sort key."""
    if not req.flex_enabled():
        raise MalformedFlex("flexary conjunction needs NUMERALS and REAL")
    left_s = shift_up(left, 1, depth)
    right_s = shift_up(right, 1, depth)
    tr = _PairTracker(attr_order)
    if left == right:
        lo = _first_term(left_s)
        if lo is None:
            raise NonNumericBound("no term position to generalize")
        _check_bound_scope(lo, depth)
        skel = replace_term(left_s, lo, bound(depth))
        hi = lo
    else:
        skel = _diff_formula(left_s, right_s, tr, depth)
        if tr.pair is None:
            raise NoCommonShape("endpoints are distinct but no term position differs")
        lo, hi = tr.pair
        _check_bound_scope(lo, depth)
        _check_bound_scope(hi, depth)
    if subst_bound(skel, depth, lo) != left or subst_bound(skel, depth, hi) != right:
        raise NoCommonShape("generalization does not reproduce the endpoints")
    le = req.require("LessOrEqual")
    i = bound(depth)
    expansion = ForAll(
        req.nat_type(),
        mk_neg(mk_and([Pred(le, (lo, i)), Pred(le, (i, hi)), mk_neg(skel)])),
    )
    return FlexConj(lo, hi, expansion, left, right)


def _term_equal(a: Term, b: Term) -> bool:
    if isinstance(a, PrivFunc) and not isinstance(b, PrivFunc):
        return _term_equal(a.expansion, b)
    if isinstance(b, PrivFunc) and not isinstance(a, PrivFunc):
        return _term_equal(a, b.expansion)
    if isinstance(a, PrivFunc) and isinstance(b, PrivFunc):
        if a.func == b.func and all(_term_equal(x, y) for x, y in zip(a.args, b.args)) and len(
            a.args
        ) == len(b.args):
            return True
        return _term_equal(a.expansion, b.expansion)
    match (a, b):
        case (FunctorApp(f, xs), FunctorApp(g, ys)):
            return f == g and len(xs) == len(ys) and all(_term_equal(x, y) for x, y in zip(xs, ys))
        case (SchemeFunctorApp(f, xs), SchemeFunctorApp(g, ys)):
            return f == g and len(xs) == len(ys) and all(_term_equal(x, y) for x, y in zip(xs, ys))
        case _:
            return a == b


def _type_equal(a: TypeExpr, b: TypeExpr) -> bool:
    return (
        a.mode == b.mode
        and len(a.args) == len(b.args)
        and all(_term_equal(x, y) for x, y in zip(a.args, b.args))
        and a.lower == b.lower
    )


def reference_formula_equal(a: Formula, b: Formula) -> bool:
    """``flex.formula_equal`` with its own walks over formulas, types and terms."""
    if isinstance(a, PrivPred) and not isinstance(b, PrivPred):
        return reference_formula_equal(a.expansion, b)
    if isinstance(b, PrivPred) and not isinstance(a, PrivPred):
        return reference_formula_equal(a, b.expansion)
    match (a, b):
        case (FTrue(), FTrue()):
            return True
        case (Neg(x), Neg(y)):
            return reference_formula_equal(x, y)
        case (And(xs), And(ys)):
            return len(xs) == len(ys) and all(
                reference_formula_equal(x, y) for x, y in zip(xs, ys)
            )
        case (FlexAnd(f1), FlexAnd(f2)):
            return flex_equal(f1, f2)
        case (ForAll(t1, b1), ForAll(t2, b2)):
            return _type_equal(t1, t2) and reference_formula_equal(b1, b2)
        case (Pred(p, xs), Pred(q, ys)):
            return p == q and len(xs) == len(ys) and all(_term_equal(x, y) for x, y in zip(xs, ys))
        case (SchemePred(p, xs), SchemePred(q, ys)):
            return p == q and len(xs) == len(ys) and all(_term_equal(x, y) for x, y in zip(xs, ys))
        case (PrivPred(p, xs, e1), PrivPred(q, ys, e2)):
            if p == q and len(xs) == len(ys) and all(_term_equal(x, y) for x, y in zip(xs, ys)):
                return True
            return reference_formula_equal(e1, e2)
        case (Is(t1, a1), Is(t2, a2)):
            return (
                _term_equal(t1, t2)
                and a1.attr_id == a2.attr_id
                and a1.positive == a2.positive
                and len(a1.args) == len(a2.args)
                and all(_term_equal(x, y) for x, y in zip(a1.args, a2.args))
            )
        case (Qual(t1, ty1), Qual(t2, ty2)):
            return _term_equal(t1, t2) and _type_equal(ty1, ty2)
        case _:
            return False


def reference_match_scheme(scheme: Scheme, cited: tuple[Formula, ...], goal: Formula) -> SchemeAssignment:
    """``schematizer.match_scheme`` with its own walk over the pattern;
    each rebuilt instance must equal the one cited or proved."""
    if len(cited) != len(scheme.premises):
        raise SchemeMatchError(PREMISE_COUNT, scheme.name)
    m = _ReferenceMatcher(scheme)
    m.formula(scheme.conclusion, goal, 0)
    for pat, subj in zip(scheme.premises, cited):
        m.formula(pat, subj, 0)
    if __debug__:
        pairs = [(scheme.conclusion, goal), *zip(scheme.premises, cited)]
        for pat, subj in pairs:
            rebuilt = apply_assignment(pat, m.out)
            assert _strip(rebuilt) == _strip(subj), "assignment does not reproduce the instance"
    return m.out


class _ReferenceMatcher:
    def __init__(self, scheme: Scheme):
        self.scheme = scheme
        self.out = SchemeAssignment()

    def _bind_pred(
        self, k: int, args: tuple[Term, ...], subject: Formula, covered: bool, depth: int
    ) -> None:
        if len(args) != self.scheme.pred_arities[k]:
            raise SchemeMatchError(HEAD_MISMATCH, f"placeholder predicate {k} arity")
        head = subject
        subj_positive = True
        if isinstance(head, Neg):
            head = head.body
            subj_positive = False
        match head:
            case Pred(pid, sargs):
                target = (PRED, pid)
            case PrivPred(pid, sargs, _):
                target = (PRIV_PRED, pid)
            case _:
                raise SchemeMatchError(HEAD_MISMATCH, f"placeholder predicate {k} needs an atomic statement")
        if len(sargs) != len(args):
            raise SchemeMatchError(HEAD_MISMATCH, f"placeholder predicate {k} arity")
        sign = covered == subj_positive
        old = self.out.predicates.get(k)
        if old is None:
            self.out.predicates[k] = (sign, target)
        elif old[1] != target:
            raise SchemeMatchError(CONFLICT, f"placeholder predicate {k}")
        elif old[0] != sign:
            raise SchemeMatchError(SIGN_MISMATCH, f"placeholder predicate {k}")
        for pa, sa in zip(args, sargs):
            self.term(pa, sa, depth)

    def _bind_func(self, k: int, args: tuple[Term, ...], subject: Term, depth: int) -> None:
        if len(args) != self.scheme.functor_arities[k]:
            raise SchemeMatchError(HEAD_MISMATCH, f"placeholder functor {k} arity")
        if not args:
            for lvl in range(depth):
                if uses_bound(subject, lvl):
                    raise SchemeMatchError(HEAD_MISMATCH, f"placeholder functor {k} would capture")
            self._store_func(k, (GROUND, subject))
            return
        match subject:
            case FunctorApp(fid, sargs):
                target = (FUNC, fid)
            case PrivFunc(fid, sargs, _):
                target = (PRIV_FUNC, fid)
            case _:
                raise SchemeMatchError(HEAD_MISMATCH, f"placeholder functor {k} needs a functor head")
        if len(sargs) != len(args):
            raise SchemeMatchError(HEAD_MISMATCH, f"placeholder functor {k} arity")
        self._store_func(k, target)
        for pa, sa in zip(args, sargs):
            self.term(pa, sa, depth)

    def _store_func(self, k: int, target) -> None:
        old = self.out.functors.get(k)
        if old is None:
            self.out.functors[k] = target
        elif old != target:
            raise SchemeMatchError(CONFLICT, f"placeholder functor {k}")

    def formula(self, p: Formula, s: Formula, depth: int) -> None:
        match p:
            case SchemePred(k, args):
                self._bind_pred(k, args, s, True, depth)
                return
            case Neg(SchemePred(k, args)):
                self._bind_pred(k, args, s, False, depth)
                return
        match (p, s):
            case (FTrue(), FTrue()):
                return
            case (Neg(pb), Neg(sb)):
                self.formula(pb, sb, depth)
            case (And(pcs), And(scs)) if len(pcs) == len(scs):
                for pc, sc in zip(pcs, scs):
                    self.formula(pc, sc, depth)
            case (ForAll(pty, pb), ForAll(sty, sb)):
                self.type_expr(pty, sty, depth)
                self.formula(pb, sb, depth + 1)
            case (Pred(pid, pargs), Pred(sid, sargs)) if pid == sid and len(pargs) == len(sargs):
                for pa, sa in zip(pargs, sargs):
                    self.term(pa, sa, depth)
            case (PrivPred(pid, pargs, _), PrivPred(sid, sargs, _)) if (
                pid == sid and len(pargs) == len(sargs)
            ):
                for pa, sa in zip(pargs, sargs):
                    self.term(pa, sa, depth)
            case (Is(pt, pa), Is(st, sa)) if (
                pa.positive == sa.positive
                and pa.attr_id == sa.attr_id
                and len(pa.args) == len(sa.args)
            ):
                self.term(pt, st, depth)
                for x, y in zip(pa.args, sa.args):
                    self.term(x, y, depth)
            case (Qual(pt, pty), Qual(st, sty)):
                self.term(pt, st, depth)
                self.type_expr(pty, sty, depth)
            case (FlexAnd(pf), FlexAnd(sf)):
                self.term(pf.lo, sf.lo, depth)
                self.term(pf.hi, sf.hi, depth)
                self.formula(pf.expansion, sf.expansion, depth)
                self.formula(pf.inst_lo, sf.inst_lo, depth)
                self.formula(pf.inst_hi, sf.inst_hi, depth)
            case _:
                raise SchemeMatchError(HEAD_MISMATCH, type(p).__name__ + " vs " + type(s).__name__)

    def term(self, p: Term, s: Term, depth: int) -> None:
        if isinstance(p, SchemeFunctorApp):
            self._bind_func(p.func, p.args, s, depth)
            return
        match (p, s):
            case (Var(pk, pi), Var(sk, si)) if pk == sk and pi == si:
                return
            case (Numeral(a), Numeral(b)) if a == b:
                return
            case (FunctorApp(pf, pargs), FunctorApp(sf, sargs)) if (
                pf == sf and len(pargs) == len(sargs)
            ):
                for pa, sa in zip(pargs, sargs):
                    self.term(pa, sa, depth)
            case (PrivFunc(pf, pargs, _), PrivFunc(sf, sargs, _)) if (
                pf == sf and len(pargs) == len(sargs)
            ):
                for pa, sa in zip(pargs, sargs):
                    self.term(pa, sa, depth)
            case (Choice(pty), Choice(sty)):
                self.type_expr(pty, sty, depth)
            case (Fraenkel(), Fraenkel()) if p == s:
                return
            case _:
                raise SchemeMatchError(HEAD_MISMATCH, "term shapes differ")

    def type_expr(self, p: TypeExpr, s: TypeExpr, depth: int) -> None:
        if p.mode != s.mode or len(p.args) != len(s.args):
            raise SchemeMatchError(HEAD_MISMATCH, "type modes differ")
        for pa, sa in zip(p.args, s.args):
            self.term(pa, sa, depth)
        pl, sl = sorted_attrs(p.lower), sorted_attrs(s.lower)
        if len(pl) != len(sl):
            raise SchemeMatchError(HEAD_MISMATCH, "adjective clusters differ")
        for x, y in zip(pl, sl):
            if x.positive != y.positive or x.attr_id != y.attr_id or len(x.args) != len(y.args):
                raise SchemeMatchError(HEAD_MISMATCH, "adjective clusters differ")
            for xa, ya in zip(x.args, y.args):
                self.term(xa, ya, depth)


# ---------------------------------------------------------------------------
# the single-tree walks as they were before they read ``logic._SHAPE``


def reference_map_terms(node, fn):
    """``logic.map_terms`` with one hand-written function per kind."""
    return _REF_MAP[type(node)](node, fn)


def _map_args(args: tuple[Term, ...], fn) -> tuple[Term, ...]:
    return tuple([_REF_MAP[type(a)](a, fn) for a in args])


def _map_leaf(n, fn):
    r = fn(n)
    return n if r is None else r


def _map_app(t, fn):
    r = fn(t)
    return type(t)(t.func, _map_args(t.args, fn)) if r is None else r


def _map_priv_func(t: PrivFunc, fn) -> Term:
    r = fn(t)
    if r is not None:
        return r
    return PrivFunc(t.func, _map_args(t.args, fn), _REF_MAP[type(t.expansion)](t.expansion, fn))


def _map_choice(t: Choice, fn) -> Term:
    r = fn(t)
    return Choice(_map_type(t.ty, fn)) if r is None else r


def _map_fraenkel(t: Fraenkel, fn) -> Term:
    r = fn(t)
    if r is not None:
        return r
    return Fraenkel(
        tuple([_map_type(b, fn) for b in t.binders]),
        _REF_MAP[type(t.body)](t.body, fn),
        _REF_MAP[type(t.guard)](t.guard, fn),
    )


def _map_attr(a: Attr, fn) -> Attr:
    if not a.args:
        return a
    return Attr(a.positive, a.attr_id, _map_args(a.args, fn))


def _map_type(ty: TypeExpr, fn) -> TypeExpr:
    if not ty.args and not any(a.args for a in ty.lower):
        return ty
    return TypeExpr(
        frozenset([_map_attr(a, fn) for a in ty.lower]),
        ty.mode,
        _map_args(ty.args, fn),
    )


def _map_neg(f: Neg, fn) -> Formula:
    return mk_neg(_REF_MAP[type(f.body)](f.body, fn))


def _map_and(f: And, fn) -> Formula:
    return mk_and([_REF_MAP[type(c)](c, fn) for c in f.conjuncts])


def _map_forall(f: ForAll, fn) -> Formula:
    return ForAll(_map_type(f.ty, fn), _REF_MAP[type(f.body)](f.body, fn))


def _map_flex(f: FlexAnd, fn) -> Formula:
    fx = f.flex
    parts = (fx.lo, fx.hi, fx.expansion, fx.inst_lo, fx.inst_hi)
    return FlexAnd(FlexConj(*[_REF_MAP[type(x)](x, fn) for x in parts]))


def _map_pred(f, fn) -> Formula:
    r = fn(f)
    return type(f)(f.pred, _map_args(f.args, fn)) if r is None else r


def _map_priv_pred(f: PrivPred, fn) -> Formula:
    r = fn(f)
    if r is not None:
        return r
    return PrivPred(f.pred, _map_args(f.args, fn), _REF_MAP[type(f.expansion)](f.expansion, fn))


def _map_is(f: Is, fn) -> Formula:
    r = fn(f)
    return Is(_REF_MAP[type(f.term)](f.term, fn), _map_attr(f.attr, fn)) if r is None else r


def _map_qual(f: Qual, fn) -> Formula:
    r = fn(f)
    return Qual(_REF_MAP[type(f.term)](f.term, fn), _map_type(f.ty, fn)) if r is None else r


_REF_MAP = {
    Var: _map_leaf,
    Numeral: _map_leaf,
    FunctorApp: _map_app,
    SchemeFunctorApp: _map_app,
    PrivFunc: _map_priv_func,
    Choice: _map_choice,
    Fraenkel: _map_fraenkel,
    Attr: _map_attr,
    TypeExpr: _map_type,
    FTrue: _map_leaf,
    Neg: _map_neg,
    And: _map_and,
    ForAll: _map_forall,
    FlexAnd: _map_flex,
    Pred: _map_pred,
    SchemePred: _map_pred,
    PrivPred: _map_priv_pred,
    Is: _map_is,
    Qual: _map_qual,
}

_REF_CHILDREN = {
    Numeral: lambda n: (),
    FunctorApp: lambda n: n.args,
    SchemeFunctorApp: lambda n: n.args,
    PrivFunc: lambda n: (*n.args, n.expansion),
    Choice: lambda n: (n.ty,),
    Fraenkel: lambda n: (*n.binders, n.body, n.guard),
    Attr: lambda n: n.args,
    TypeExpr: lambda n: (*n.args, *n.lower),
    FTrue: lambda n: (),
    Neg: lambda n: (n.body,),
    And: lambda n: n.conjuncts,
    ForAll: lambda n: (n.ty, n.body),
    FlexAnd: lambda n: (n.flex.lo, n.flex.hi, n.flex.expansion, n.flex.inst_lo, n.flex.inst_hi),
    Pred: lambda n: n.args,
    SchemePred: lambda n: n.args,
    PrivPred: lambda n: (*n.args, n.expansion),
    Is: lambda n: (n.term, n.attr),
    Qual: lambda n: (n.term, n.ty),
}


def reference_any_var(node, pred) -> bool:
    """``logic.any_var`` with its own child table."""
    todo = [node]
    while todo:
        n = todo.pop()
        if type(n) is Var:
            if pred(n):
                return True
        else:
            todo.extend(_REF_CHILDREN[type(n)](n))
    return False


# ---------------------------------------------------------------------------
# the prechecker's distribution, building every clause


class ClauseOverflow(Exception):
    """More clauses than the cap allows."""


class ReferenceDnf(Prechecker):
    """``Prechecker`` with its skolemization and distribution as they
    were before the clause count: ``_to_dnf`` returns the list of every
    clause or raises ``ClauseOverflow`` above the cap."""

    def _skolemize_top(self, f: Formula, out: list[tuple[int, TypeExpr]]) -> Formula:
        match f:
            case And(cs):
                return mk_and([self._skolemize_top(c, out) for c in cs])
            case Neg(ForAll(ty, body)):
                c = self._alloc()
                out.append((c, ty))
                return self._skolemize_top(mk_neg(subst_bound(body, 0, const(c))), out)
            case ForAll(ty, body) if not uses_bound(body, 0) and self.db.inhabited(ty):
                return self._skolemize_top(subst_bound(body, 0, Numeral(0)), out)
            case _:
                return f

    def _to_dnf(self, f: Formula) -> list[tuple[list[Formula], dict[int, TypeExpr]]]:
        done: list[tuple[list[Formula], dict[int, TypeExpr]]] = []
        self._burst(([f], {}), done)
        return done

    def _burst(
        self,
        clause: tuple[list[Formula], dict[int, TypeExpr]],
        done: list[tuple[list[Formula], dict[int, TypeExpr]]],
    ) -> None:
        queue, local = clause
        queue = list(queue)
        out: list[Formula] = []
        while queue:
            lit = queue.pop(0)
            match lit:
                case FTrue():
                    continue
                case Neg(FTrue()):
                    return  # the branch is already absurd; nothing to refute
                case And(cs):
                    queue = list(cs) + queue
                case Neg(And(cs)):
                    for c in cs:
                        self._burst((out + [mk_neg(c)] + queue, dict(local)), done)
                    return
                case Neg(ForAll(ty, body)):
                    idx = self._alloc()
                    local = dict(local)
                    local[idx] = ty
                    queue.insert(0, mk_neg(subst_bound(body, 0, const(idx))))
                case ForAll(ty, body) if not uses_bound(body, 0) and self.db.inhabited(ty):
                    queue.insert(0, subst_bound(body, 0, Numeral(0)))
                case _:
                    if lit not in out:
                        out.append(lit)
        if len(done) >= self.clause_cap:
            raise ClauseOverflow
        done.append((out, local))


class ReferencePrechecker(Prechecker):
    """``Prechecker`` whose ``justify`` augments before it skolemizes and
    refutes every clause in a graph of its own, with nothing shared."""

    def justify(
        self,
        premises: list[Formula],
        conjecture: Formula,
        const_types: list[TypeExpr],
    ) -> Justification:
        self._next = len(const_types)
        f = mk_and([*premises, mk_neg(conjecture)])
        f = self._unfold(f, UNFOLD_FUEL)
        f = self._augment(f)
        skolems: list[tuple[int, TypeExpr]] = []
        f = self._skolemize_top(f, skolems)
        base_types = dict(enumerate(const_types))
        for idx, ty in skolems:
            base_types[idx] = ty
        count = self._count(f, 0, True)
        if count > self.clause_cap:
            return Justification(False, too_large=True, prepared=f, skolems=skolems)
        for lits, local_types in self._to_dnf(f):
            merged = dict(base_types)
            merged.update(local_types)
            refuted, limited, _ = clause_refuted(self.db, lits, merged)
            if not refuted:
                return Justification(
                    False, prepared=f, skolems=skolems, clause_count=count, limited=limited
                )
        return Justification(True, prepared=f, skolems=skolems, clause_count=count)


# ---------------------------------------------------------------------------
# the sort keys before ties were broken


def reference_term_key(t: Term) -> tuple:
    match t:
        case Var(kind, i):
            return (0, kind.value, i)
        case Numeral(v):
            return (1, v)
        case FunctorApp(f, args):
            return (2, f, tuple(reference_term_key(a) for a in args))
        case PrivFunc(f, args, _):
            return (3, f, tuple(reference_term_key(a) for a in args))
        case SchemeFunctorApp(f, args):
            return (4, f, tuple(reference_term_key(a) for a in args))
        case Choice(ty):
            return (5, _reference_type_key(ty))
        case Fraenkel(binders, body, _):
            return (6, tuple(_reference_type_key(b) for b in binders), reference_term_key(body))
    raise TypeError(t)


def reference_attr_key(a: Attr) -> tuple:
    return (a.attr_id, not a.positive, tuple(reference_term_key(t) for t in a.args))


def _reference_type_key(ty: TypeExpr) -> tuple:
    return (
        ty.mode,
        tuple(reference_term_key(t) for t in ty.args),
        tuple(sorted(reference_attr_key(a) for a in ty.lower)),
    )


# ---------------------------------------------------------------------------
# the congruence graph with a polynomial pass every round


class ReferenceGraph(EqGraph):
    """``EqGraph`` with ``_poly_pass`` as it was before polynomials were a
    graph table: every round it recomputes each class's polynomial (the
    least of its nodes', a class in progress read as its atom), merges
    classes that share one, and compares every pair of each class's
    polynomials, with the ARITHM group only.  Before that it runs
    ``_value_pass``, the graph's other arithmetic until the polynomial
    table became its only one: it evaluates every arithmetic node whose
    arguments have values and merges the classes of equal value.  Before
    the supercluster pass it runs ``_attr_value_pass``, which gives every
    class with a value that value's adjectives and every ``zero`` class
    the value 0, and ``_boole_pass`` keeps the boolean equalities as
    branches per functor.  Every node is due when made, every round
    re-keys every table and rebuilds the cluster rules, and each seeded
    type is rounded up and sorted again."""

    def _seed(self, n: int, head: tuple, children: tuple[int, ...]) -> None:
        super()._seed(n, head, children)
        if self.req.arith:
            self._due.add(n)

    def _rehash(self) -> bool:
        classes = len(self.class_nodes)
        self._rekey(self.node_of_key, self.union)
        return len(self.class_nodes) < classes

    def _normalize(self) -> bool:
        changed = self._rekey(self.atoms)
        for tables in (self.attrs, self.types):
            for table in tables.values():
                changed |= self._rekey(table)
        self._rekey(self.neg_eq)
        if any(a == b for _, (a, b) in self.neg_eq):
            self.contradiction = True
        return changed

    def _supercluster_pass(self) -> bool:
        changed = self._attr_value_pass()  # where the round ran it
        self._rules = None
        return super()._supercluster_pass() | changed

    def _put(self, table: dict, key, v, clash=None) -> bool:
        kept = table.get(key)
        if kept is None:
            table[key] = v
            if table is self.value:
                self._due.add(key)
            return True
        if kept != v:
            if clash is None:
                self.contradiction = True
            else:
                clash(kept, v)
        return False

    def _add_attr(self, rep: int, sign: bool, aid: int, args: tuple[int, ...]) -> bool:
        return self._put(self.attrs[self.find(rep)], (aid, self._ids(args)), sign)

    def _attr_value_pass(self) -> bool:
        req = self.req
        changed = False
        zero_a = req.ids.ZeroAttr
        for rep in self.classes():
            v = self.value.get(rep)
            amap = self.attrs[rep]
            if v is None:
                if zero_a is not None and amap.get((zero_a, ())) is True:
                    changed |= self._put(self.value, rep, ZERO)
                continue
            for s, aid in req.value_attrs(v):
                changed |= self._add_attr(rep, s, aid, ())
        return changed

    def _boole_pass(self) -> bool:
        req = self.req
        empty = req.ids.Empty
        if empty is None:
            return False
        changed = False
        e0 = self.find(self._empty_class)
        for rep in self.classes():
            rep = self.find(rep)  # this loop may have merged it into e0
            if rep != e0 and self.attrs[rep].get((empty, ())) is True:
                changed |= self.union(rep, e0)
                e0 = self.find(self._empty_class)
        union_f = req.ids.Union
        inter_f = req.ids.Intersection
        diff_f = req.ids.Difference
        sym_f = req.ids.SymDiff
        for n, (head, children) in enumerate(self.nodes):
            if head[0] != "app" or len(children) != 2:
                continue
            f = head[1]
            a, b = self.find(children[0]), self.find(children[1])
            rep = self.find(n)
            if f == union_f:
                if a == e0:
                    changed |= self.union(rep, b)
                if b == e0:
                    changed |= self.union(rep, a)
                if a == b:
                    changed |= self.union(rep, a)
            elif f == inter_f:
                if a == e0 or b == e0:
                    changed |= self.union(rep, e0)
                if a == b:
                    changed |= self.union(rep, a)
            elif f == diff_f:
                if b == e0:
                    changed |= self.union(rep, a)
                if a == e0 or a == b:
                    changed |= self.union(rep, e0)
            elif f == sym_f:
                if b == e0:
                    changed |= self.union(rep, a)
                if a == e0:
                    changed |= self.union(rep, b)
                if a == b:
                    changed |= self.union(rep, e0)
            e0 = self.find(self._empty_class)
        meets = req.ids.Meets
        member = req.ids.Membership
        for ((ns, pid), args), sign in list(self.atoms.items()):
            if ns != "pred":
                continue
            if pid == meets and len(args) == 2 and inter_f is not None:
                m = self.intern(
                    FunctorApp(inter_f, (Var(VarKind.EQCLASS, args[0]), Var(VarKind.EQCLASS, args[1])))
                )
                if sign:
                    changed |= self._add_attr(m, False, empty, ())
                else:
                    changed |= self.union(m, self.find(self._empty_class))
            if pid == member and sign and len(args) == 2:
                if self.find(args[1]) == self.find(self._empty_class):
                    self.contradiction = True
        return changed

    def _assume_type_expr(self, rep: int, ty: TypeExpr) -> None:
        self._add_type(rep, ty.mode, self._interned(ty.args))
        for s, aid, args in self._attr_entries(self.db.round_up(ty)):
            self._add_attr(rep, s, aid, args)

    def _value_pass(self) -> bool:
        req = self.req
        changed = False
        for n, (head, children) in enumerate(self.nodes):
            # a numeral's value is put when its node is made, and moves with it
            if head[0] == "app" and head[1] in req.arith:
                cv = [self.value.get(self.find(c)) for c in children]
                v = req.arith[head[1]].value(*cv) if all(x is not None for x in cv) else None
                if v is not None:
                    changed |= self._put(self.value, self.find(n), v)
        byval: dict[ComplexRational, int] = {}
        for rep in sorted(self.value):
            r = self.find(rep)
            v = self.value.get(r)
            if v is None:
                continue
            prev = byval.get(v)
            if prev is None:
                byval[v] = r
            elif self.find(prev) != r:
                changed |= self.union(prev, r)
        return changed

    def _poly_pass(self) -> bool:
        changed = self._value_pass()
        if "ARITHM" not in self.req.enabled:
            return changed
        arith = self.req.arith
        memo: dict[int, Polynomial] = {}
        in_progress: set[int] = set()
        node_memo: dict[int, Polynomial | None] = {}
        cuts = 0

        def class_poly(rep: int) -> Polynomial:
            nonlocal cuts
            rep = self.find(rep)
            if rep in memo:
                return memo[rep]
            if rep in in_progress:
                cuts += 1
                return p_atom(rep)
            v = self.value.get(rep)
            if v is not None:
                memo[rep] = p_const(v)
                return memo[rep]
            in_progress.add(rep)
            best: Polynomial | None = None
            for n in sorted(self.class_nodes[rep]):
                p = node_poly(n)
                if p is not None and (best is None or p_sort_key(p) < p_sort_key(best)):
                    best = p
            in_progress.discard(rep)
            if best is None:
                best = p_atom(rep)
            memo[rep] = best
            return best

        def node_poly(n: int) -> Polynomial | None:
            if n in node_memo:
                return node_memo[n]
            head, children = self.nodes[n]
            if head[0] == "num":
                p = p_const(ComplexRational.from_int(head[1]))
            elif head[0] != "app" or head[1] not in arith:
                p = None
            else:
                before = cuts
                p = arith[head[1]].poly(*[class_poly(c) for c in children])
                if cuts != before:
                    return p
            node_memo[n] = p
            return p

        seen: dict[Polynomial, int] = {}
        for rep in self.classes():
            cands = {class_poly(rep)}
            for n in self.class_nodes[rep]:
                p = node_poly(n)
                if p is not None:
                    cands.add(p)
            v = self.value.get(rep)
            cands.add(p_const(v) if v is not None else p_atom(rep))
            ordered = sorted(cands, key=p_sort_key)
            grew = False
            for p in ordered:
                c = p_is_const(p)
                if c is not None:
                    grew |= self._put(self.value, self.find(rep), c)
                prev = seen.get(p)
                if prev is None:
                    seen[p] = rep
                elif self.find(prev) != self.find(rep):
                    grew |= self.union(prev, rep)
            for i in range(len(ordered)):
                for j in range(i + 1, len(ordered)):
                    grew |= self._reference_gap(p_sub(ordered[i], ordered[j]))
            if grew:
                node_memo.clear()
                changed = True
        return changed

    def _reference_gap(self, d: Polynomial) -> bool:
        c = p_is_const(d)
        if c is not None:
            if not c.is_zero():
                self.contradiction = True
            return False
        monos = dict(d)
        consts = monos.pop((), ZERO)
        if len(monos) == 1:
            (mono, coeff), = monos.items()
            if len(mono) == 1 and mono[0][1] == 1:
                cid = mono[0][0]
                return self._put(self.value, self.find(cid), (-consts) / coeff)
        return False


class ReferenceTableGraph(ReferenceGraph):
    """``ReferenceGraph`` with the polynomial table, the number
    adjectives set with the value and the boolean rows of ``EqGraph``: a
    graph that must take the same rounds as the real one."""

    _poly_pass = EqGraph._poly_pass
    _put = EqGraph._put
    _add_attr = EqGraph._add_attr
    _boole_pass = EqGraph._boole_pass

    def _attr_value_pass(self) -> bool:
        return False  # ``_put`` sets a number's adjectives with its value


def reference_refute_clause(
    db, literals: list[Formula], const_types: dict[int, TypeExpr], graph: type[EqGraph] = ReferenceGraph
) -> EqGraph:
    g = graph(db)
    for idx in sorted(const_types):
        g.assume_const_type(idx, const_types[idx])
    for lit in literals:
        g.assume(lit)
    g.run()
    return g


def graph_digest(g: EqGraph) -> str:
    """What a saturated graph knows, in a form independent of hash order:
    its node count and, per class, the class's nodes, value, adjectives
    and types, and the atoms, every class id made canonical."""

    def ids(args: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(g.find, args))

    parts = [f"nodes {len(g.nodes)}"]
    for rep in g.classes():
        v = g.value.get(rep)
        attrs = sorted((aid, ids(args), s) for (aid, args), s in g.attrs[rep].items())
        types = sorted({(mode, ids(args)) for mode, args in g.types[rep]})
        parts.append(
            f"class {sorted(g.class_nodes[rep])} value {None if v is None else v.sort_key()} "
            f"attrs {attrs} types {types}"
        )
    atoms = sorted({(key, ids(args), s) for (key, args), s in g.atoms.items()})
    parts.append(f"atoms {atoms}")
    return "\n".join(parts)


# -- the character-at-a-time tokenizer ---------------------------------------

REF_DIGITS = frozenset("0123456789")

REF_SYMBOLS = (
    "\\+\\",
    "...",
    "<i>",
    "c=",
    "<=",
    ">=",
    "<>",
    "->",
    "\\/",
    "/\\",
    "::",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ";",
    ":",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "\\",
    "&",
    '"',
)


def reference_tokenize(text: str) -> list[Token]:
    DIGITS, SYMBOLS = REF_DIGITS, REF_SYMBOLS
    out: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def pos() -> SourcePos:
        return SourcePos(line, col)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if text.startswith("::", i):
            while i < n and text[i] != "\n":
                advance(1)
            continue
        p = pos()
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            advance(j - i)
            if word == "c" and i < n and text[i] == "=":
                advance(1)
                out.append(("sym", "c=", *p))
            elif word in KEYWORDS:
                out.append(("kw", word, *p))
            else:
                out.append(("ident", word, *p))
            continue
        if ch in DIGITS:
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            out.append(("num", text[i:j], *p))
            advance(j - i)
            continue
        if ch == "$":
            j = i + 1
            while j < n and text[j] in DIGITS:
                j += 1
            if j == i + 1:
                raise MizarError(p, 90, "expected digits after $")
            out.append(("dollar", text[i + 1 : j], *p))
            advance(j - i)
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                out.append(("sym", sym, *p))
                advance(len(sym))
                break
        else:
            raise MizarError(p, 90, f"unexpected character {ch!r}")
    out.append(("eof", "", *pos()))
    return out
