"""Flexary conjunctions: inference from endpoints, expansion, equality.

``P[a] & ... & P[b]`` is stored as five pieces (see ``FlexConj``).  The
skeleton P[i] is inferred by structurally diffing the two endpoint
formulas; every differing term position must generalize to the same
(lo, hi) pair.  Expansion with numeral bounds takes the *entire*
residual conjunction after the two bound guards, so a disjunctive body
never loses disjuncts to conjunction flattening.

The diff and ``formula_equal`` (thesis matching) are hooks on
``logic.zip_nodes``, the kernel's one walk over two trees.
"""

from __future__ import annotations

from .logic import (
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
    ShapeMismatch,
    Term,
    TypeExpr,
    Var,
    VarKind,
    any_var,
    bound,
    mk_and,
    mk_neg,
    replace_term,
    same_head,
    shift_up,
    sorted_attrs,
    subst_bound,
    zip_nodes,
)
from .requirements import RequirementTable


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
# endpoint diff: a hook on ``zip_nodes``

_APPS = (FunctorApp, PrivFunc, SchemeFunctorApp)


def _generalize(
    left: Formula, right: Formula, depth: int
) -> tuple[Formula, tuple[Term, Term] | None]:
    """Anti-unify two endpoints: each differing term position whose head
    differs becomes the level `depth`, and all of them must hold the
    same (left, right) pair, which is returned with the skeleton."""
    pairs: list[tuple[Term, Term]] = []

    def fn(a, b):
        if isinstance(a, Term):
            if a == b:
                return a
            if type(a) in _APPS and same_head(a, b):
                return None
            if not pairs:
                pairs.append((a, b))
            elif pairs[0] != (a, b):
                raise NoCommonShape("differing positions disagree on the bounds")
            return bound(depth)
        if type(a) is TypeExpr:
            return a if a == b else _generalize_type(a, b, fn)
        if type(a) is Attr and not same_head(a, b):
            raise NonNumericBound("endpoints differ in an adjective, not a term")
        if type(a) is Is and type(b) is Is:
            x, y = a.attr, b.attr
            if x.attr_id != y.attr_id or x.positive != y.positive:
                raise NoCommonShape("adjectives differ")
        return None

    try:
        skel = zip_nodes(left, right, fn)
    except ShapeMismatch as e:
        raise NoCommonShape(f"endpoint formulas have different shapes: {e}") from None
    return skel, pairs[0] if pairs else None


def _generalize_type(a: TypeExpr, b: TypeExpr, fn) -> TypeExpr:
    """The written adjectives and the arguments are diffed pairwise, so
    that the skeleton reproduces each endpoint's type exactly."""
    la, lb = sorted_attrs(a.lower), sorted_attrs(b.lower)
    if (a.mode, len(a.args), len(la)) != (b.mode, len(b.args), len(lb)):
        raise NonNumericBound("endpoints differ in a type, not a term")
    return TypeExpr(
        frozenset([zip_nodes(x, y, fn) for x, y in zip(la, lb)]),
        a.mode,
        tuple([zip_nodes(x, y, fn) for x, y in zip(a.args, b.args)]),
    )


def _first_term(f: Formula) -> Term | None:
    """Leftmost-outermost term position of a formula, preorder."""
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
    if left == right:
        lo = _first_term(left_s)
        if lo is None:
            raise NonNumericBound("no term position to generalize")
        _check_bound_scope(lo, depth)
        skel = replace_term(left_s, lo, bound(depth))
        hi = lo
    else:
        skel, pair = _generalize(left_s, right_s, depth)
        if pair is None:
            raise NoCommonShape("endpoints are distinct but no term position differs")
        lo, hi = pair
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


def flex_equal(a: FlexConj, b: FlexConj) -> bool:
    """Two flexary conjunctions are one when their underlying objects are:
    the bounds and the defining universal, however the endpoints were
    written."""
    return a.lo == b.lo and a.hi == b.hi and a.expansion == b.expansion


_PRIVATE = (PrivFunc, PrivPred)


def formula_equal(a, b) -> bool:
    """Structural equality used for thesis matching, of nodes of any kind.

    A proof-local application is unfolded when only one side is one; two
    of them are equal when their heads and arguments are, or else their
    expansions.  Flexary conjunctions compare by `flex_equal`; ``the T``,
    Fraenkel terms and a type's written adjectives compare exactly.
    """
    try:
        zip_nodes(a, b, _equal)
    except ShapeMismatch:
        return False
    return True


def _equal(x, y):
    """`formula_equal`'s hook on ``zip_nodes``."""
    px, py = type(x) in _PRIVATE, type(y) in _PRIVATE
    if px or py:
        # `x` stands for the pair: an expansion may not fit where `x` is
        if px != py:
            zip_nodes(x.expansion if px else x, y.expansion if py else y, _equal)
            return x
        if same_head(x, y):
            try:
                for u, v in zip(x.args, y.args):
                    zip_nodes(u, v, _equal)
                return x
            except ShapeMismatch:
                pass
        zip_nodes(x.expansion, y.expansion, _equal)
        return x
    if type(x) is FlexAnd and type(y) is FlexAnd:
        if not flex_equal(x.flex, y.flex):
            raise ShapeMismatch("flexary conjunctions differ")
        return x
    if type(x) is Choice or type(x) is Fraenkel:
        if x != y:
            raise ShapeMismatch("opaque terms differ")
        return x
    if type(x) is TypeExpr and x.lower != y.lower:
        raise ShapeMismatch("adjectives differ")
    return None
