"""Flexary conjunctions: inference from endpoints, expansion, equality.

``P[a] & ... & P[b]`` is stored as five pieces (see ``FlexConj``).  The
skeleton P[i] is inferred by structurally diffing the two endpoint
formulas; every differing term position must generalize to the same
(lo, hi) pair.  Expansion with numeral bounds takes the *entire*
residual conjunction after the two bound guards, so a disjunctive body
never loses disjuncts to conjunction flattening.
"""

from __future__ import annotations

from enum import Enum

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
    SchemeFunctorApp,
    SchemePred,
    Term,
    ThesisMarker,
    TypeExpr,
    Var,
    VarKind,
    any_var,
    bound,
    mk_and,
    mk_neg,
    replace_term,
    shift_up,
    subst_bound,
)
from .requirements import RequirementTable


class FlexMode(Enum):
    STRICT = "strict"
    COMPAT = "compat"


class FlexError(Exception):
    pass


class NoCommonShape(FlexError):
    pass


class NonNumericBound(FlexError):
    pass


class MalformedFlex(FlexError):
    pass


# ---------------------------------------------------------------------------
# numeral evaluation of closed bound terms


def term_numeral_value(t: Term, req: RequirementTable) -> int | None:
    """Value of a closed term as a natural number, None when unknown."""
    v = req.term_value(t)
    return v.re.numerator if v is not None and v.is_natural() else None


# ---------------------------------------------------------------------------
# endpoint diff


class _PairTracker:
    def __init__(self):
        self.pair: tuple[Term, Term] | None = None

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
    la, lb = sorted(a.lower, key=_attr_sort_key), sorted(b.lower, key=_attr_sort_key)
    ua, ub = sorted(a.upper, key=_attr_sort_key), sorted(b.upper, key=_attr_sort_key)
    if len(la) != len(lb) or len(ua) != len(ub):
        raise NonNumericBound("endpoints differ in a type, not a term")
    return TypeExpr(
        frozenset(_diff_attr(x, y, tr, depth) for x, y in zip(la, lb)),
        frozenset(_diff_attr(x, y, tr, depth) for x, y in zip(ua, ub)),
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
    """Leftmost-outermost term position of a formula, preorder."""
    match f:
        case FTrue() | ThesisMarker():
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


def infer_flex_from_diff(
    left: Formula, right: Formula, req: RequirementTable, depth: int = 0
) -> FlexConj:
    """Build a FlexConj from the two endpoint formulas as written.

    ``depth`` is the binder depth of the flex node itself; the expansion
    quantifier binds exactly that level, so the endpoints' own internal
    binders are first shifted out of its way.  When the endpoints are
    equal every occurrence of the leftmost term is generalized;
    otherwise the differing positions are generalized greedily left to
    right and must agree on a single (lo, hi) pair.
    """
    if not req.flex_enabled():
        raise MalformedFlex("flexary conjunction needs NUMERALS and REAL")
    left_s = shift_up(left, 1, depth)
    right_s = shift_up(right, 1, depth)
    tr = _PairTracker()
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


# ---------------------------------------------------------------------------
# expansion


def flex_skeleton(fc: FlexConj) -> tuple[Formula, int]:
    """Recover (P[i], level of i) from the stored expansion.

    The residual after the two bound guards is taken *whole*; raises
    MalformedFlex when the expansion does not have the guard shape.
    """
    match fc.expansion:
        case ForAll(_, Neg(And(cs))) if len(cs) >= 3:
            match cs[0]:
                case Pred(_, (lo_t, Var(VarKind.BOUND, d))) if lo_t == fc.lo:
                    pass
                case _:
                    raise MalformedFlex("first guard is not lo <= i")
            if cs[1] != Pred(_guard_pred(cs[0]), (Var(VarKind.BOUND, d), fc.hi)):
                raise MalformedFlex("second guard is not i <= hi")
            skel = mk_neg(mk_and(list(cs[2:])))
            return skel, d
    raise MalformedFlex("expansion is not a guarded universal")


def _guard_pred(f: Formula) -> int:
    assert isinstance(f, Pred)
    return f.pred


def expand_flex(fc: FlexConj, req: RequirementTable) -> Formula:
    """Explicit conjunction P[a] & ... & P[b] for numeral bounds a <= b,
    otherwise the stored universal expansion."""
    a = term_numeral_value(fc.lo, req)
    b = term_numeral_value(fc.hi, req)
    if a is None or b is None or a > b:
        return fc.expansion
    skel, level = flex_skeleton(fc)
    return mk_and([subst_bound(skel, level, Numeral(k)) for k in range(a, b + 1)])


# ---------------------------------------------------------------------------
# equality


def flex_equal(a: FlexConj, b: FlexConj, mode: FlexMode) -> bool:
    """Strict mode compares the underlying objects (bounds and defining
    universal); compat mode compares only the two endpoint instances."""
    if mode is FlexMode.STRICT:
        return a.lo == b.lo and a.hi == b.hi and a.expansion == b.expansion
    return a.inst_lo == b.inst_lo and a.inst_hi == b.inst_hi


def term_equal(a: Term, b: Term) -> bool:
    """Structural equality with proof-local functors unfolded."""
    if isinstance(a, PrivFunc) and not isinstance(b, PrivFunc):
        return term_equal(a.expansion, b)
    if isinstance(b, PrivFunc) and not isinstance(a, PrivFunc):
        return term_equal(a, b.expansion)
    if isinstance(a, PrivFunc) and isinstance(b, PrivFunc):
        if a.func == b.func and all(term_equal(x, y) for x, y in zip(a.args, b.args)) and len(
            a.args
        ) == len(b.args):
            return True
        return term_equal(a.expansion, b.expansion)
    match (a, b):
        case (FunctorApp(f, xs), FunctorApp(g, ys)):
            return f == g and len(xs) == len(ys) and all(term_equal(x, y) for x, y in zip(xs, ys))
        case (SchemeFunctorApp(f, xs), SchemeFunctorApp(g, ys)):
            return f == g and len(xs) == len(ys) and all(term_equal(x, y) for x, y in zip(xs, ys))
        case _:
            return a == b


def type_equal(a: TypeExpr, b: TypeExpr) -> bool:
    return (
        a.mode == b.mode
        and len(a.args) == len(b.args)
        and all(term_equal(x, y) for x, y in zip(a.args, b.args))
        and a.lower == b.lower
    )


def formula_equal(a: Formula, b: Formula, mode: FlexMode) -> bool:
    """Structural equality used for thesis matching.

    Proof-local predicates compare by their expansions; flexary
    conjunctions compare per ``mode``.
    """
    if isinstance(a, PrivPred) and not isinstance(b, PrivPred):
        return formula_equal(a.expansion, b, mode)
    if isinstance(b, PrivPred) and not isinstance(a, PrivPred):
        return formula_equal(a, b.expansion, mode)
    match (a, b):
        case (FTrue(), FTrue()):
            return True
        case (Neg(x), Neg(y)):
            return formula_equal(x, y, mode)
        case (And(xs), And(ys)):
            return len(xs) == len(ys) and all(
                formula_equal(x, y, mode) for x, y in zip(xs, ys)
            )
        case (FlexAnd(f1), FlexAnd(f2)):
            return flex_equal(f1, f2, mode)
        case (ForAll(t1, b1), ForAll(t2, b2)):
            return type_equal(t1, t2) and formula_equal(b1, b2, mode)
        case (Pred(p, xs), Pred(q, ys)):
            return p == q and len(xs) == len(ys) and all(term_equal(x, y) for x, y in zip(xs, ys))
        case (SchemePred(p, xs), SchemePred(q, ys)):
            return p == q and len(xs) == len(ys) and all(term_equal(x, y) for x, y in zip(xs, ys))
        case (PrivPred(p, xs, e1), PrivPred(q, ys, e2)):
            if p == q and len(xs) == len(ys) and all(term_equal(x, y) for x, y in zip(xs, ys)):
                return True
            return formula_equal(e1, e2, mode)
        case (Is(t1, a1), Is(t2, a2)):
            return (
                term_equal(t1, t2)
                and a1.attr_id == a2.attr_id
                and a1.positive == a2.positive
                and len(a1.args) == len(a2.args)
                and all(term_equal(x, y) for x, y in zip(a1.args, a2.args))
            )
        case (Qual(t1, ty1), Qual(t2, ty2)):
            return term_equal(t1, t2) and type_equal(ty1, ty2)
        case _:
            return False
