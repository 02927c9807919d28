"""Core first-order syntax: terms, attributes, types, formulas.

Everything is an immutable tree.  Formulas live in a fixed normal form
whose three invariants are enforced by the smart constructors below:

* no double negation anywhere (``mk_neg`` cancels),
* conjunctions are flat with at least two conjuncts (``mk_and`` splices
  nested ``And`` nodes and drops ``TRUE``),
* bound variables are de Bruijn *levels*: the outermost binder of a
  closed formula is 0, and deeper binders count up from there.

Levels rather than indices mean a subterm keeps its meaning when carried
under extra binders; the only renumbering ever needed is the uniform one
performed by ``subst_bound`` when a binder is removed and by ``shift_up``
when new outer binders are added.

The kernel has three traversals.  Every rewrite of the tree goes
through one structural map, ``map_terms(node, fn)``, and every
occurrence test through ``any_var(node, pred)``.  The map asks ``fn`` at
each term and atomic formula in pre-order: a node it returns replaces
the current one and is not entered, ``None`` descends into the
children.  Formulas are rebuilt through the smart constructors, so the
normal form survives any hook.  Every comparison of two trees goes
through ``zip_nodes(a, b, fn)``, which walks them together under the
same kind of hook, asked at every pair; flex inference, thesis equality
and scheme matching are hooks on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from operator import is_not


class VarKind(Enum):
    BOUND = "bound"
    CONST = "const"
    INFER = "infer"
    EQCLASS = "eqclass"
    LOCUS = "locus"


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    kind: VarKind
    index: int


@dataclass(frozen=True)
class Numeral(Term):
    value: int  # arbitrary precision, never negative


@dataclass(frozen=True)
class FunctorApp(Term):
    func: int
    args: tuple[Term, ...]


@dataclass(frozen=True)
class PrivFunc(Term):
    """Application of a proof-local ``deffunc``; carries its expansion."""

    func: int
    args: tuple[Term, ...]
    expansion: Term


@dataclass(frozen=True)
class SchemeFunctorApp(Term):
    func: int
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Choice(Term):
    """``the T``: the canonical inhabitant of a (nonempty) type."""

    ty: "TypeExpr"


@dataclass(frozen=True)
class Fraenkel(Term):
    """Set comprehension ``{ t where binders : guard }``.

    Represented structurally only; the checker never reasons inside.
    Binder k of ``binders`` binds level ``depth + k`` where depth is the
    number of binders enclosing this term.
    """

    binders: tuple["TypeExpr", ...]
    body: Term
    guard: "Formula"


def bound(i: int) -> Var:
    return Var(VarKind.BOUND, i)


def const(i: int) -> Var:
    return Var(VarKind.CONST, i)


def locus(i: int) -> Var:
    return Var(VarKind.LOCUS, i)


# ---------------------------------------------------------------------------
# attributes and types


@dataclass(frozen=True)
class Attr:
    """A (possibly negated) adjective with visible arguments."""

    positive: bool
    attr_id: int
    args: tuple[Term, ...] = ()

    def negate(self) -> "Attr":
        return Attr(not self.positive, self.attr_id, self.args)


@dataclass(frozen=True)
class TypeExpr:
    """Adjective-decorated mode application.

    ``lower`` is the cluster as written, ``upper`` its rounding-up under
    the active conditional clusters.  Constructors outside the rounding
    machinery must keep ``lower <= upper``.
    """

    lower: frozenset[Attr]
    upper: frozenset[Attr]
    mode: int
    args: tuple[Term, ...] = ()


# ---------------------------------------------------------------------------
# formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class FTrue(Formula):
    pass


TRUE = FTrue()


@dataclass(frozen=True)
class Neg(Formula):
    body: Formula

    def __post_init__(self):
        assert not isinstance(self.body, Neg), "double negation"


@dataclass(frozen=True)
class And(Formula):
    conjuncts: tuple[Formula, ...]

    def __post_init__(self):
        assert len(self.conjuncts) >= 2, "And needs >= 2 conjuncts"
        assert not any(isinstance(c, And) for c in self.conjuncts), "nested And"


@dataclass(frozen=True)
class FlexConj:
    """The five pieces of a flexary conjunction ``P[lo] & ... & P[hi]``.

    ``expansion`` is the defining universal
    ``for i being natural set holds not (lo <= i & i <= hi & not P[i])``
    and ``inst_lo`` / ``inst_hi`` are the endpoint instances exactly as
    the user wrote them.
    """

    lo: Term
    hi: Term
    expansion: Formula
    inst_lo: Formula
    inst_hi: Formula


@dataclass(frozen=True)
class FlexAnd(Formula):
    flex: FlexConj


@dataclass(frozen=True)
class ForAll(Formula):
    ty: TypeExpr
    body: Formula


@dataclass(frozen=True)
class Pred(Formula):
    pred: int
    args: tuple[Term, ...]


@dataclass(frozen=True)
class SchemePred(Formula):
    pred: int
    args: tuple[Term, ...]


@dataclass(frozen=True)
class PrivPred(Formula):
    """Application of a proof-local ``defpred``; carries its expansion."""

    pred: int
    args: tuple[Term, ...]
    expansion: Formula


@dataclass(frozen=True)
class Is(Formula):
    """Adjective assertion ``term is attr``."""

    term: Term
    attr: Attr


@dataclass(frozen=True)
class Qual(Formula):
    """Type qualification ``term is T``."""

    term: Term
    ty: TypeExpr


@dataclass(frozen=True)
class ThesisMarker(Formula):
    """Placeholder for the ``thesis`` keyword; replaced by the analyzer
    before any formula leaves it."""


# ---------------------------------------------------------------------------
# smart constructors


def mk_neg(f: Formula) -> Formula:
    if isinstance(f, Neg):
        return f.body
    return Neg(f)


def mk_and(parts: list[Formula] | tuple[Formula, ...]) -> Formula:
    """Flatten one level of nesting, drop TRUE conjuncts."""
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, FTrue):
            continue
        if isinstance(p, And):
            flat.extend(p.conjuncts)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def mk_imp(a: Formula, b: Formula) -> Formula:
    return mk_neg(mk_and([a, mk_neg(b)]))


def mk_or(parts: list[Formula]) -> Formula:
    return mk_neg(mk_and([mk_neg(p) for p in parts]))


def mk_iff(a: Formula, b: Formula) -> Formula:
    return mk_and([mk_imp(a, b), mk_imp(b, a)])


def mk_exists(ty: TypeExpr, body: Formula) -> Formula:
    return mk_neg(ForAll(ty, mk_neg(body)))


def mk_is(t: Term, attr: Attr) -> Formula:
    """Attribute literal, negative adjectives kept as outer negations.

    ``x is non empty`` and ``not x is empty`` must build the same tree,
    or thesis comparison would tell them apart.
    """
    if attr.positive:
        return Is(t, attr)
    return Neg(Is(t, attr.negate()))


# ---------------------------------------------------------------------------
# traversal: one structural map, one occurrence test
#
# ``map_terms`` and ``any_var`` accept a term, attribute, type or formula.
# The map's hook contract is in the module docstring.  Atomic formulas are
# all but Neg, And, ForAll and FlexAnd.  Attributes and types are never
# asked themselves, only their argument terms, and come back unchanged
# when they have none.  A hook may turn an atom into a negation (scheme
# instantiation does); ``mk_neg`` then cancels a double one.
#
# Levels are absolute, so no policy below tracks depth: removing the
# binder at `level` renumbers every deeper binder down by one, uniformly
# across the whole tree, and adding k outer binders shifts everything up.


def map_terms(node, fn):
    """Rebuild `node`, of any kind, under the hook `fn` (pre-order; a node
    `fn` returns replaces the current one unentered, ``None`` descends)."""
    return _MAP[type(node)](node, fn)


def _map_args(args: tuple[Term, ...], fn) -> tuple[Term, ...]:
    return tuple([_MAP[type(a)](a, fn) for a in args])


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
    return PrivFunc(t.func, _map_args(t.args, fn), _MAP[type(t.expansion)](t.expansion, fn))


def _map_choice(t: Choice, fn) -> Term:
    r = fn(t)
    return Choice(_map_type(t.ty, fn)) if r is None else r


def _map_fraenkel(t: Fraenkel, fn) -> Term:
    r = fn(t)
    if r is not None:
        return r
    return Fraenkel(
        tuple([_map_type(b, fn) for b in t.binders]),
        _MAP[type(t.body)](t.body, fn),
        _MAP[type(t.guard)](t.guard, fn),
    )


def _map_attr(a: Attr, fn) -> Attr:
    if not a.args:
        return a
    return Attr(a.positive, a.attr_id, _map_args(a.args, fn))


def _map_type(ty: TypeExpr, fn) -> TypeExpr:
    if not ty.args and not any(a.args for a in ty.lower) and not any(a.args for a in ty.upper):
        return ty
    return TypeExpr(
        frozenset([_map_attr(a, fn) for a in ty.lower]),
        frozenset([_map_attr(a, fn) for a in ty.upper]),
        ty.mode,
        _map_args(ty.args, fn),
    )


def _map_neg(f: Neg, fn) -> Formula:
    return mk_neg(_MAP[type(f.body)](f.body, fn))


def _map_and(f: And, fn) -> Formula:
    return mk_and([_MAP[type(c)](c, fn) for c in f.conjuncts])


def _map_forall(f: ForAll, fn) -> Formula:
    return ForAll(_map_type(f.ty, fn), _MAP[type(f.body)](f.body, fn))


def _map_flex(f: FlexAnd, fn) -> Formula:
    fx = f.flex
    parts = (fx.lo, fx.hi, fx.expansion, fx.inst_lo, fx.inst_hi)
    return FlexAnd(FlexConj(*[_MAP[type(x)](x, fn) for x in parts]))


def _map_pred(f, fn) -> Formula:
    r = fn(f)
    return type(f)(f.pred, _map_args(f.args, fn)) if r is None else r


def _map_priv_pred(f: PrivPred, fn) -> Formula:
    r = fn(f)
    if r is not None:
        return r
    return PrivPred(f.pred, _map_args(f.args, fn), _MAP[type(f.expansion)](f.expansion, fn))


def _map_is(f: Is, fn) -> Formula:
    r = fn(f)
    return Is(_MAP[type(f.term)](f.term, fn), _map_attr(f.attr, fn)) if r is None else r


def _map_qual(f: Qual, fn) -> Formula:
    r = fn(f)
    return Qual(_MAP[type(f.term)](f.term, fn), _map_type(f.ty, fn)) if r is None else r


_MAP = {
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
    ThesisMarker: _map_leaf,
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

_CHILDREN = {
    Numeral: lambda n: (),
    FunctorApp: lambda n: n.args,
    SchemeFunctorApp: lambda n: n.args,
    PrivFunc: lambda n: (*n.args, n.expansion),
    Choice: lambda n: (n.ty,),
    Fraenkel: lambda n: (*n.binders, n.body, n.guard),
    Attr: lambda n: n.args,
    TypeExpr: lambda n: (*n.args, *n.lower, *n.upper),
    FTrue: lambda n: (),
    ThesisMarker: lambda n: (),
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


def any_var(node, pred) -> bool:
    """Does `pred` hold of some variable occurring anywhere in `node`?"""
    todo = [node]
    while todo:
        n = todo.pop()
        if type(n) is Var:
            if pred(n):
                return True
        else:
            todo.extend(_CHILDREN[type(n)](n))
    return False


def subst_bound(node, level: int, repl: Term):
    """Replace bound level `level` by `repl`, renumbering deeper levels down.

    `level` must be the outermost open level of `node`; `repl` may only
    mention strictly more outer levels (ground terms always qualify).
    """

    def fn(n):
        if type(n) is Var and n.kind is VarKind.BOUND and n.index >= level:
            return repl if n.index == level else Var(VarKind.BOUND, n.index - 1)
        return None

    return map_terms(node, fn)


def shift_up(node, k: int, floor: int = 0):
    """Renumber bound levels >= floor up by k (for inserting k binders
    at depth floor)."""
    if k == 0:
        return node

    def fn(n):
        if type(n) is Var and n.kind is VarKind.BOUND and n.index >= floor:
            return Var(VarKind.BOUND, n.index + k)
        return None

    return map_terms(node, fn)


def subst_loci(node, terms: tuple[Term, ...]):
    """Replace locus i by terms[i] throughout a stored definiens.

    Loci are definition-time placeholders, never bound levels, so no
    renumbering happens; the replacement terms must already live at the
    use site's depth.
    """

    def fn(n):
        if type(n) is Var and n.kind is VarKind.LOCUS:
            return terms[n.index]
        return None

    return map_terms(node, fn)


def replace_term(node, needle: Term, repl: Term):
    """Replace every occurrence of the term `needle` by `repl`."""
    return map_terms(node, lambda n: repl if n == needle else None)


def abstract_const(node, const_index: int, level: int):
    """Turn occurrences of a constant into bound level `level`.

    The caller must already have shifted `node` to make room for the new
    binder (see ``shift_up``).
    """
    return replace_term(node, const(const_index), bound(level))


def uses_bound(node, level: int) -> bool:
    return any_var(node, lambda v: v.kind is VarKind.BOUND and v.index == level)


def uses_const(node, index: int) -> bool:
    return any_var(node, lambda v: v.kind is VarKind.CONST and v.index == index)


def replace_thesis(f: Formula, thesis: Formula) -> Formula:
    match f:
        case ThesisMarker():
            return thesis
        case FTrue():
            return f
        case Neg(b):
            return mk_neg(replace_thesis(b, thesis))
        case And(cs):
            return mk_and([replace_thesis(c, thesis) for c in cs])
        case ForAll(ty, body):
            return ForAll(ty, replace_thesis(body, thesis))
        case _:
            return f


# ---------------------------------------------------------------------------
# traversal of two trees at once
#
# The shape of each kind is one entry of ``_SHAPE``: the head fields that
# must be equal before ``zip_nodes`` descends, and the child fields it
# descends into, in order.  A child field holds a node, a tuple of nodes
# or, for ``TypeExpr.lower``, a set of attributes, paired in
# ``sorted_attrs`` order.  A type is compared as written: its ``upper``
# is not part of its shape, and a rebuilt type keeps the first tree's.
# ``ThesisMarker`` has no shape, so it pairs with nothing.


class ShapeMismatch(Exception):
    """Two trees differ where ``zip_nodes`` had to descend."""


_SHAPE = {
    Var: (("kind", "index"), ()),
    Numeral: (("value",), ()),
    FunctorApp: (("func",), ("args",)),
    SchemeFunctorApp: (("func",), ("args",)),
    PrivFunc: (("func",), ("args", "expansion")),
    Choice: ((), ("ty",)),
    Fraenkel: ((), ("binders", "body", "guard")),
    Attr: (("positive", "attr_id"), ("args",)),
    TypeExpr: (("mode",), ("args", "lower")),
    FTrue: ((), ()),
    Neg: ((), ("body",)),
    And: ((), ("conjuncts",)),
    ForAll: ((), ("ty", "body")),
    FlexAnd: ((), ("flex",)),
    FlexConj: ((), ("lo", "hi", "expansion", "inst_lo", "inst_hi")),
    Pred: (("pred",), ("args",)),
    SchemePred: (("pred",), ("args",)),
    PrivPred: (("pred",), ("args", "expansion")),
    # the adjective first: a head mismatch there is found before the subject
    Is: ((), ("attr", "term")),
    Qual: ((), ("term", "ty")),
}


def same_head(a, b) -> bool:
    """Are `a` and `b` of one kind with equal head fields and, where the
    kind has ``args``, as many arguments (what ``zip_nodes`` checks
    before it descends)?"""
    shape = _SHAPE.get(type(a))
    if shape is None or type(b) is not type(a):
        return False
    for h in shape[0]:
        if getattr(a, h) != getattr(b, h):
            return False
    return "args" not in shape[1] or len(a.args) == len(b.args)


def zip_nodes(a, b, fn):
    """Walk `a` and `b` together, asking `fn(x, y)` at every pair in
    pre-order.  A node `fn` returns is the pair's result and its children
    are not visited; ``None`` descends, which needs the same kind, equal
    head fields and equal child counts, or raises ``ShapeMismatch``.
    Where `fn` replaced nothing, the result is `a` itself."""
    r = fn(a, b)
    if r is not None:
        return r
    if not same_head(a, b):
        raise ShapeMismatch(f"{type(a).__name__} vs {type(b).__name__}")
    changed = {}
    for field in _SHAPE[type(a)][1]:
        x, y = getattr(a, field), getattr(b, field)
        kind = type(x)
        if kind is tuple or kind is frozenset:
            if kind is frozenset:
                x, y = sorted_attrs(x), sorted_attrs(y)
            if len(x) != len(y):
                raise ShapeMismatch(f"{type(a).__name__}.{field} differs in length")
            out = [zip_nodes(u, v, fn) for u, v in zip(x, y)]
            if any(map(is_not, out, x)):
                changed[field] = kind(out)
        else:
            out = zip_nodes(x, y, fn)
            if out is not x:
                changed[field] = out
    return replace(a, **changed) if changed else a


# ---------------------------------------------------------------------------
# deterministic sort keys (formatting, canonical iteration)


def term_key(t: Term) -> tuple:
    match t:
        case Var(kind, i):
            return (0, kind.value, i)
        case Numeral(v):
            return (1, v)
        case FunctorApp(f, args):
            return (2, f, tuple(term_key(a) for a in args))
        case PrivFunc(f, args, _):
            return (3, f, tuple(term_key(a) for a in args))
        case SchemeFunctorApp(f, args):
            return (4, f, tuple(term_key(a) for a in args))
        case Choice(ty):
            return (5, type_key(ty))
        case Fraenkel(binders, body, _):
            return (6, tuple(type_key(b) for b in binders), term_key(body))
    raise TypeError(t)


def attr_key(a: Attr) -> tuple:
    return (a.attr_id, not a.positive, tuple(term_key(t) for t in a.args))


def type_key(ty: TypeExpr) -> tuple:
    return (
        ty.mode,
        tuple(term_key(t) for t in ty.args),
        tuple(sorted(attr_key(a) for a in ty.lower)),
    )


def sorted_attrs(attrs: frozenset[Attr]) -> list[Attr]:
    return sorted(attrs, key=attr_key)
