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
performed by ``subst_bound`` when binders are removed and by ``shift_up``
when new outer binders are added.

One table, ``_SHAPE``, gives the shape of every node kind, and every
walk of the kernel reads it.  Every kind has a head, possibly empty:
two nodes of one kind pair when their head fields agree.  Every rewrite
of the tree goes through one structural map, ``map_terms(node, fn)``,
and every occurrence test through ``any_var(node, pred)``.  The map
asks ``fn`` at each term and atomic formula in pre-order, ``FTrue``
included: a node it returns replaces the current one and is not
entered, ``None`` descends into the children.  Formulas are rebuilt
through the smart constructors, so the normal form survives any hook,
and a node whose subtree the hook left alone comes back as the same
object.  Every comparison of two trees goes through
``zip_nodes(a, b, fn)``, which walks them together under the same kind
of hook, asked at every pair; flex inference, thesis equality and
scheme matching are hooks on it.

Every kind is a frozen, slotted dataclass that ``_kind`` makes from its
annotated fields.  ``__init__`` writes each field once and then the
node's hash, of a tag for the kind and the fields, whose own hashes are
cached already: hashing a node never walks its subtree, and a variable's
kind hashes by its rank, so no hash depends on ``PYTHONHASHSEED``.
Equality tests identity, then the hashes, then the fields.  One `Var`
per kind and index is shared, made by ``var`` or ``bound``, ``const``,
``eqclass`` and ``locus`` when first asked for.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from enum import Enum
from itertools import count
from operator import attrgetter, is_not


class VarKind(Enum):
    BOUND = "bound"
    CONST = "const"
    EQCLASS = "eqclass"
    LOCUS = "locus"

    def __hash__(self) -> int:
        return self.rank


for _rank, _member in enumerate(VarKind):
    _member.rank = _rank

# an enum member read through the class costs an attribute load; the hot
# walks of the kernel read these names instead
_BOUND, _CONST, _LOCUS = VarKind.BOUND, VarKind.CONST, VarKind.LOCUS

# ---------------------------------------------------------------------------
# node kinds


class _Node:
    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._values(self) == other._values(other)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # for copy and pickle, which would set the slots
        return type(self), tuple(map(self.__getattribute__, self.__slots__))


_put_hash = _Node._hash.__set__
_tags = count()


def _kind(cls):
    """A kernel kind: `cls` as a dataclass whose fields are its slots and
    ``__init__``'s parameters.  A kind that checks its fields defines
    ``__init__`` and calls ``_write`` last."""
    kind = dataclass(slots=True, init=False, eq=False)(cls)
    names = kind.__match_args__
    write = _writer(next(_tags), *[getattr(kind, f).__set__ for f in names])
    write.__code__ = write.__code__.replace(co_varnames=("self", *names))
    write.__defaults__ = tuple(f.default for f in fields(kind) if f.default is not MISSING) or None
    kind._write = write
    kind._values = attrgetter(*names or ("_hash",))
    if "__init__" not in vars(cls):
        kind.__init__ = write
    return kind


def _writer(tag, *put):
    """An ``__init__`` for as many fields as `put` has slot setters, its
    parameters renamed by ``_kind``: a template per count, no ``exec``."""
    if not put:
        def write(self):
            _put_hash(self, tag)
    elif len(put) == 1:
        (p0,) = put
        def write(self, a):
            p0(self, a)
            _put_hash(self, hash((tag, a)))
    elif len(put) == 2:
        p0, p1 = put
        def write(self, a, b):
            p0(self, a)
            p1(self, b)
            _put_hash(self, hash((tag, a, b)))
    elif len(put) == 3:
        p0, p1, p2 = put
        def write(self, a, b, c):
            p0(self, a)
            p1(self, b)
            p2(self, c)
            _put_hash(self, hash((tag, a, b, c)))
    else:
        p0, p1, p2, p3, p4 = put
        def write(self, a, b, c, d, e):
            p0(self, a)
            p1(self, b)
            p2(self, c)
            p3(self, d)
            p4(self, e)
            _put_hash(self, hash((tag, a, b, c, d, e)))
    return write


# ---------------------------------------------------------------------------
# terms


class Term(_Node):
    __slots__ = ()


@_kind
class Var(Term):
    kind: VarKind
    index: int


@_kind
class Numeral(Term):
    value: int  # arbitrary precision, never negative


@_kind
class FunctorApp(Term):
    func: int
    args: tuple[Term, ...]


@_kind
class PrivFunc(Term):
    """Application of a proof-local ``deffunc``; carries its expansion."""

    func: int
    args: tuple[Term, ...]
    expansion: Term


@_kind
class SchemeFunctorApp(Term):
    func: int
    args: tuple[Term, ...]


@_kind
class Choice(Term):
    """``the T``: the canonical inhabitant of a (nonempty) type."""

    ty: "TypeExpr"


@_kind
class Fraenkel(Term):
    """Set comprehension ``{ t where binders : guard }``.

    Represented structurally only; the checker never reasons inside.
    Binder k of ``binders`` binds level ``depth + k`` where depth is the
    number of binders enclosing this term.
    """

    binders: tuple["TypeExpr", ...]
    body: Term
    guard: "Formula"


def _shared(kind: VarKind):
    table: dict[int, Var] = {}

    def make(i: int) -> Var:
        return table.get(i) or table.setdefault(i, Var(kind, i))

    return make


# one node per variable, made when it is first asked for
bound, const, eqclass, locus = _MAKERS = tuple(map(_shared, VarKind))


def var(kind: VarKind, i: int) -> Var:
    return _MAKERS[kind.rank](i)


# ---------------------------------------------------------------------------
# attributes and types


@_kind
class Attr(_Node):
    """A (possibly negated) adjective with visible arguments."""

    positive: bool
    attr_id: int
    args: tuple[Term, ...] = ()

    def negate(self) -> "Attr":
        return Attr(not self.positive, self.attr_id, self.args)


@_kind
class TypeExpr(_Node):
    """Adjective-decorated mode application, as written.

    ``lower`` is the written cluster.  Its rounding-up under the active
    conditional clusters is not part of the type: it depends on what the
    article has registered so far, and ``DefinitionDb.round_up`` holds it.
    So two writings of one type are one term, whenever they were written.
    """

    lower: frozenset[Attr]
    mode: int
    args: tuple[Term, ...] = ()


# ---------------------------------------------------------------------------
# formulas


class Formula(_Node):
    __slots__ = ()


@_kind
class FTrue(Formula):
    pass


TRUE = FTrue()


@_kind
class Neg(Formula):
    body: Formula

    def __init__(self, body: Formula) -> None:
        assert not isinstance(body, Neg), "double negation"
        self._write(body)


@_kind
class And(Formula):
    conjuncts: tuple[Formula, ...]

    def __init__(self, conjuncts: tuple[Formula, ...]) -> None:
        assert len(conjuncts) >= 2, "And needs >= 2 conjuncts"
        assert And not in map(type, conjuncts), "nested And"
        self._write(conjuncts)


@_kind
class FlexConj(_Node):
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


@_kind
class FlexAnd(Formula):
    flex: FlexConj


@_kind
class ForAll(Formula):
    ty: TypeExpr
    body: Formula


@_kind
class Pred(Formula):
    pred: int
    args: tuple[Term, ...]


@_kind
class SchemePred(Formula):
    pred: int
    args: tuple[Term, ...]


@_kind
class PrivPred(Formula):
    """Application of a proof-local ``defpred``; carries its expansion."""

    pred: int
    args: tuple[Term, ...]
    expansion: Formula


@_kind
class Is(Formula):
    """Adjective assertion ``term is attr``."""

    term: Term
    attr: Attr


@_kind
class Qual(Formula):
    """Type qualification ``term is T``."""

    term: Term
    ty: TypeExpr


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


def conjuncts(f: Formula) -> tuple[Formula, ...]:
    """The conjuncts of `f`: `f` alone unless it is a conjunction."""
    return f.conjuncts if isinstance(f, And) else (f,)


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
# traversal: one shape table
#
# Every walk reads a node's shape from ``_SHAPE``.  ``head`` lists the
# fields that must be equal before ``zip_nodes`` descends, and ``children``
# the fields every walk descends into, in order.  A child field holds a
# node, a tuple of nodes or, for a type's adjectives, a set of attributes,
# which the map visits and ``zip_nodes`` pairs in ``sorted_attrs`` order, so
# no hook sees a set in hash order.  Every kind has a head, possibly empty,
# and every walk visits the same fields.
#
# The map's hook is ``asked`` at every term and atomic formula.  The
# connectives Neg, And, ForAll and FlexAnd, attributes and types are only
# entered.  A changed node is rebuilt from its fields in declaration order
# by ``build``: Neg and And through ``mk_neg``/``mk_and``, so the normal
# form survives any hook, everything else through its constructor.  A
# hook may turn an atom into a negation (scheme instantiation does);
# ``mk_neg`` then cancels a double one.


class _Shape:
    __slots__ = ("head", "children", "asked", "build", "fields")

    def __init__(self, head, children=(), asked=True, build=None):
        self.head = head
        self.children = children
        self.asked = asked
        self.build = build

    def bind(self, kind: type) -> None:
        """Take `kind`'s fields in declaration order, the order ``build``
        takes them in, each marked as a child or not."""
        self.fields = tuple((f, f in self.children) for f in kind.__match_args__)
        self.build = self.build or kind


_SHAPE = {
    Var: _Shape(("kind", "index")),
    Numeral: _Shape(("value",)),
    FunctorApp: _Shape(("func",), ("args",)),
    SchemeFunctorApp: _Shape(("func",), ("args",)),
    PrivFunc: _Shape(("func",), ("args", "expansion")),
    Choice: _Shape((), ("ty",)),
    Fraenkel: _Shape((), ("binders", "body", "guard")),
    Attr: _Shape(("positive", "attr_id"), ("args",), asked=False),
    TypeExpr: _Shape(("mode",), ("args", "lower"), asked=False),
    FTrue: _Shape(()),
    Neg: _Shape((), ("body",), asked=False, build=mk_neg),
    And: _Shape((), ("conjuncts",), asked=False, build=mk_and),
    ForAll: _Shape((), ("ty", "body"), asked=False),
    FlexAnd: _Shape((), ("flex",), asked=False),
    FlexConj: _Shape((), ("lo", "hi", "expansion", "inst_lo", "inst_hi"), asked=False),
    Pred: _Shape(("pred",), ("args",)),
    SchemePred: _Shape(("pred",), ("args",)),
    PrivPred: _Shape(("pred",), ("args", "expansion")),
    # the adjective first: a head mismatch there is found before the subject
    Is: _Shape((), ("attr", "term")),
    Qual: _Shape((), ("term", "ty")),
}


for _kind, _shape in _SHAPE.items():
    _shape.bind(_kind)


def map_terms(node, fn):
    """Rebuild `node`, of any kind, under the hook `fn` (pre-order; a node
    `fn` returns replaces the current one unentered, ``None`` descends).
    Where `fn` replaced nothing, the result is `node` itself."""
    shape = _SHAPE[type(node)]
    if shape.asked:
        r = fn(node)
        if r is not None:
            return r
    if not shape.children:
        return node
    fields = []
    changed = False
    for field, child in shape.fields:
        x = getattr(node, field)
        if child:
            kind = type(x)
            if kind is tuple or kind is frozenset:
                if x:
                    seq = sorted_attrs(x) if kind is frozenset else x
                    out = [map_terms(u, fn) for u in seq]
                    if any(map(is_not, out, seq)):
                        x = kind(out)
                        changed = True
            else:
                out = map_terms(x, fn)
                if out is not x:
                    x = out
                    changed = True
        fields.append(x)
    return shape.build(*fields) if changed else node


def any_var(node, pred) -> bool:
    """Does `pred` hold of some variable occurring anywhere in `node`?"""
    if type(node) is Var:
        return pred(node)
    for field in _SHAPE[type(node)].children:
        x = getattr(node, field)
        if type(x) is tuple or type(x) is frozenset:
            for u in x:
                if any_var(u, pred):
                    return True
        elif any_var(x, pred):
            return True
    return False


class ShapeMismatch(Exception):
    """Two trees differ where ``zip_nodes`` had to descend."""


def same_head(a, b) -> bool:
    """Are `a` and `b` of one kind with equal head fields and, where the
    kind has ``args``, as many arguments (what ``zip_nodes`` checks
    before it descends)?"""
    shape = _SHAPE.get(type(a))
    if shape is None or type(b) is not type(a):
        return False
    for h in shape.head:
        if getattr(a, h) != getattr(b, h):
            return False
    return "args" not in shape.children or len(a.args) == len(b.args)


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
    shape = _SHAPE[type(a)]
    changed = {}
    for field in shape.children:
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
    if not changed:
        return a
    return shape.build(*[changed[f] if f in changed else getattr(a, f) for f, _ in shape.fields])


# Policies on the map and the occurrence test.  Levels are absolute, so
# no policy below tracks depth: removing k binders from `level` on
# renumbers every deeper binder down by k, uniformly across the whole
# tree, and adding k outer binders shifts everything up.


def subst_bound(node, level: int, *repls: Term):
    """Replace bound levels `level` ... `level` + k - 1 by the k terms
    `repls`, in order, renumbering deeper levels down by k: one walk for
    what k single substitutions at `level` would do.

    `level` must be the outermost open level of `node`; each replacement
    may only mention strictly more outer levels (ground terms always
    qualify).  With no replacements, `node` comes back as it is.
    """
    k = len(repls)
    if k == 0:
        return node

    def fn(n):
        if type(n) is Var and n.kind is _BOUND and n.index >= level:
            i = n.index - level
            return repls[i] if i < k else bound(n.index - k)
        return None

    return map_terms(node, fn)


def shift_up(node, k: int, floor: int = 0):
    """Renumber bound levels >= floor up by k (for inserting k binders
    at depth floor)."""
    if k == 0:
        return node

    def fn(n):
        if type(n) is Var and n.kind is _BOUND and n.index >= floor:
            return bound(n.index + k)
        return None

    return map_terms(node, fn)


def subst_loci(node, terms: tuple[Term, ...]):
    """Replace locus i by terms[i] throughout a stored definiens.

    Loci are definition-time placeholders, never bound levels, so no
    renumbering happens; the replacement terms must already live at the
    use site's depth.
    """

    def fn(n):
        if type(n) is Var and n.kind is _LOCUS:
            return terms[n.index]
        return None

    return map_terms(node, fn)


def split_closed(t: Term, depth: int) -> tuple[Term, tuple[Term, ...]]:
    """`t`, found under `depth` binders, as a shape and its parts.  Each
    largest proper subterm that uses no level bound inside `t` (none at
    `depth` or deeper) is the k-th part and locus k of the shape, in the
    map's order, and each level bound inside `t` drops by `depth`; so
    ``subst_loci(shape, parts)`` at depth 0 is `t` again."""
    parts: list[Term] = []

    def fn(n):
        if n is t or not isinstance(n, Term):
            return None
        if not any_var(n, lambda v: v.kind is _BOUND and v.index >= depth):
            parts.append(n)
            return locus(len(parts) - 1)
        return bound(n.index - depth) if type(n) is Var else None

    return map_terms(t, fn), tuple(parts)


def replace_term(node, needle: Term, repl: Term):
    """Replace every occurrence of the term `needle` by `repl`."""
    return map_terms(node, lambda n: repl if n == needle else None)


def uses_bound(node, level: int) -> bool:
    return any_var(node, lambda v: v.kind is _BOUND and v.index == level)


def uses_const(node, index: int) -> bool:
    return any_var(node, lambda v: v.kind is _CONST and v.index == index)


# ---------------------------------------------------------------------------
# deterministic sort keys (formatting, canonical iteration)
#
# A key is a rank, which orders by kind, head, arguments and adjectives,
# and then a tie.  The rank skips a proof-local expansion and a Fraenkel
# guard, so different nodes can share it; the tie compares every field
# ``_SHAPE`` lists.  It comes last and only at the top, so a pair the rank
# orders keeps its order, and no order falls back on hashing.


def _term_rank(t: Term) -> tuple:
    match t:
        case Var(kind, i):
            return (0, kind.value, i)
        case Numeral(v):
            return (1, v)
        case FunctorApp(f, args):
            return (2, f, tuple(map(_term_rank, args)))
        case PrivFunc(f, args, _):
            return (3, f, tuple(map(_term_rank, args)))
        case SchemeFunctorApp(f, args):
            return (4, f, tuple(map(_term_rank, args)))
        case Choice(ty):
            return (5, _type_rank(ty))
        case Fraenkel(binders, body, _):
            return (6, tuple(map(_type_rank, binders)), _term_rank(body))
    raise TypeError(t)


def _attr_rank(a: Attr) -> tuple:
    return (a.attr_id, not a.positive, tuple(map(_term_rank, a.args)))


def _type_rank(ty: TypeExpr) -> tuple:
    return (ty.mode, tuple(map(_term_rank, ty.args)), tuple(sorted(map(_attr_rank, ty.lower))))


def _tie(node) -> tuple:
    """Every field of `node` in declaration order, its children as ties."""
    out = [type(node).__name__]
    for field, child in _SHAPE[type(node)].fields:
        x = getattr(node, field)
        if not child:
            out.append(x.value if type(x) is VarKind else x)
        elif type(x) is tuple:
            out.append(tuple(map(_tie, x)))
        elif type(x) is frozenset:
            out.append(tuple(sorted(map(_tie, x))))
        else:
            out.append(_tie(x))
    return tuple(out)


def term_key(t: Term) -> tuple:
    return (_term_rank(t), _tie(t))


def attr_key(a: Attr) -> tuple:
    # without arguments the rank tells every adjective apart
    return (_attr_rank(a), _tie(a) if a.args else ())


def sorted_attrs(attrs: frozenset[Attr]) -> list[Attr]:
    return sorted(attrs, key=attr_key)
