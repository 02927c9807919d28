"""Type widening, adjective rounding, and the definition database.

A type is a mode application decorated with adjectives.  Subtyping has
two independent halves: the mode must widen along its parent chain to
the target mode with identical arguments, and every adjective the
target asks for must appear in the source's rounded-up cluster.
Rounding closes the written adjectives under the conditional cluster
registrations (builtin ones from the requirement table plus whatever
the article registered) and folds in adjectives inherited from parent
modes.

Attributed types are not self-evidently inhabited; ``inhabited`` says
whether some existential registration (or a builtin witness) covers the
written cluster.  Callers that introduce a constant of a type gate on
it, and the refutation machinery only strips vacuous quantifiers over
types that pass it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .logic import (
    Attr,
    Formula,
    Term,
    TypeExpr,
    mk_neg,
    sorted_attrs,
    subst_loci,
)
from .requirements import RequirementTable


@dataclass(frozen=True)
class AttrDef:
    """``attr a-P for T means ...``: loci 0..arity-1 are the visible
    arguments, locus ``arity`` is the subject."""

    arity: int
    subject: TypeExpr
    definiens: Formula
    expandable: bool


@dataclass(frozen=True)
class ModeDef:
    """``mode M of X -> parent means ...``: loci 0..arity-1 are the
    arguments, locus ``arity`` the candidate inhabitant."""

    arity: int
    parent: TypeExpr
    definiens: Formula | None
    expandable: bool


@dataclass(frozen=True)
class FuncDef:
    arity: int
    result: TypeExpr


@dataclass(frozen=True)
class PredDef:
    arity: int
    definiens: Formula
    expandable: bool


@dataclass(frozen=True)
class ExistentialCluster:
    attrs: frozenset[Attr]
    ty: TypeExpr


@dataclass(frozen=True)
class ConditionalCluster:
    guard: frozenset[Attr]
    target: frozenset[Attr]
    ty: TypeExpr


@dataclass(frozen=True)
class FunctorCluster:
    term: Term
    attrs: frozenset[Attr]


class DefinitionDb:
    """Everything an article has defined or registered so far.

    The database only grows: every id comes from ``fresh_id`` and is
    defined once, and clusters are appended, never removed or replaced.
    So the number of modes and of conditional clusters, with the type,
    fixes what ``round_up`` returns, and it and ``adjectives`` memoize on
    those three.  One list of the clusters, memoized on their number,
    serves both ``round_up`` and ``cluster_rules``.
    """

    def __init__(self, req: RequirementTable):
        self.req = req
        self.attrs: dict[int, AttrDef] = {}
        self.modes: dict[int, ModeDef] = {}
        self.funcs: dict[int, FuncDef] = {}
        self.preds: dict[int, PredDef] = {}
        self.existential: list[ExistentialCluster] = []
        self.conditional: list[ConditionalCluster] = []
        self.functor_clusters: list[FunctorCluster] = []
        self._next = {kind: req.max_id(kind) + 1 for kind in ("mode", "func", "pred", "attr")}
        self._rounded: dict[tuple[TypeExpr, int, int], TypeExpr] = {}
        self._adjectives: dict[tuple[TypeExpr, int, int], tuple] = {}
        self._cluster_rules: tuple[int, list, tuple] = (-1, [], ())

    def fresh_id(self, kind: str) -> int:
        out = self._next[kind]
        self._next[kind] = out + 1
        return out

    # -- mode ancestry -------------------------------------------------

    def mode_parent(self, mode: int, args: tuple[Term, ...]) -> TypeExpr | None:
        req = self.req
        if mode == req.ids.Object:
            return None
        if mode == req.ids.Set:
            return req.object_type()
        if mode == req.ids.Element or mode == req.ids.SubsetMode:
            return req.set_type()
        d = self.modes.get(mode)
        if d is None:
            return None
        return subst_loci(d.parent, args)

    def ancestry(self, ty: TypeExpr) -> list[TypeExpr]:
        out = [ty]
        mode, args = ty.mode, ty.args
        seen = {mode}
        while True:
            parent = self.mode_parent(mode, args)
            if parent is None or parent.mode in seen:
                return out
            out.append(parent)
            seen.add(parent.mode)
            mode, args = parent.mode, parent.args

    # -- adjective rounding ---------------------------------------------

    def round_up(self, ty: TypeExpr) -> TypeExpr:
        key = (ty, len(self.modes), len(self.conditional))
        out = self._rounded.get(key)
        if out is None:
            out = self._rounded[key] = self._round_up(ty)
        return out

    def adjectives(self, ty: TypeExpr) -> tuple[tuple[bool, int, tuple[Term, ...]], ...]:
        """``round_up(ty).upper`` in ``sorted_attrs`` order, as (sign,
        attribute id, arguments); memoized as ``round_up`` is."""
        key = (ty, len(self.modes), len(self.conditional))
        out = self._adjectives.get(key)
        if out is None:
            out = self._adjectives[key] = _entries(self.round_up(ty).upper)
        return out

    def _clusters(self) -> tuple[list[tuple[frozenset[Attr], frozenset[Attr], TypeExpr | None]], tuple]:
        """The builtin and the registered conditional clusters as (guard,
        target, subject type or None), and the same list with each side
        as ``adjectives`` gives a type's; memoized on the number of
        registered clusters."""
        n = len(self.conditional)
        if self._cluster_rules[0] != n:
            rules = [(g, t, None) for g, t in self.req.builtin_conditional_clusters()]
            rules += [(c.guard, c.target, c.ty) for c in self.conditional]
            self._cluster_rules = (n, rules, tuple((_entries(g), _entries(t), ty) for g, t, ty in rules))
        return self._cluster_rules[1:]

    def cluster_rules(self) -> tuple[tuple[tuple, tuple, TypeExpr | None], ...]:
        """The clusters of ``_clusters``, each side as ``adjectives`` gives a type's."""
        return self._clusters()[1]

    def _round_up(self, ty: TypeExpr) -> TypeExpr:
        chain = self.ancestry(ty)
        upper = set(ty.lower) | set(ty.upper)
        for t in chain[1:]:
            upper |= t.lower
        rules, _ = self._clusters()
        changed = True
        while changed:
            changed = False
            for guard, target, subject in rules:
                if target <= upper or not guard <= upper:
                    continue
                if subject is not None and not self._covers(chain, subject, upper):
                    continue
                upper |= target
                changed = True
        return TypeExpr(ty.lower, frozenset(upper), ty.mode, ty.args)

    def _covers(self, chain: list[TypeExpr], subject: TypeExpr, upper: set[Attr]) -> bool:
        return subject.lower <= upper and any(
            t.mode == subject.mode and t.args == subject.args for t in chain
        )

    # -- subtyping -------------------------------------------------------

    def subtype(self, a: TypeExpr, b: TypeExpr) -> bool:
        if not b.lower <= self.round_up(a).upper:
            return False
        return any(t.mode == b.mode and t.args == b.args for t in self.ancestry(a))

    # -- inhabitation ------------------------------------------------------

    def inhabited(self, ty: TypeExpr) -> bool:
        """Bare mode applications are inhabited by fiat; a written
        adjective cluster needs a covering existential registration."""
        if not ty.lower:
            return True
        return any(self.subtype(w, ty) for w in self._witnesses())

    def _witnesses(self) -> list[TypeExpr]:
        req = self.req
        st = req.set_type()
        out = []

        def builtin(names: list[str]) -> None:
            if all(req.present(n) for n in names):
                attrs = frozenset(Attr(True, req.require(n)) for n in names)
                out.append(TypeExpr(attrs, attrs, st.mode, st.args))

        builtin(["Natural"])
        builtin(["Natural", "ZeroAttr"])
        builtin(["Empty"])
        builtin(["Complex"])
        for c in self.existential:
            attrs = c.ty.lower | c.attrs
            out.append(TypeExpr(attrs, attrs, c.ty.mode, c.ty.args))
        return out

    # -- definiens instantiation -------------------------------------------

    def attr_definiens(self, attr: Attr, subject: Term) -> Formula | None:
        d = self.attrs.get(attr.attr_id)
        if d is None:
            return None
        f = subst_loci(d.definiens, attr.args + (subject,))
        return f if attr.positive else mk_neg(f)

    def mode_definiens(self, mode: int, args: tuple[Term, ...], subject: Term) -> Formula | None:
        d = self.modes.get(mode)
        if d is None or d.definiens is None:
            return None
        return subst_loci(d.definiens, args + (subject,))

    def pred_definiens(self, pred: int, args: tuple[Term, ...]) -> Formula | None:
        d = self.preds.get(pred)
        if d is None:
            return None
        return subst_loci(d.definiens, args)

    def expandable_attr(self, aid: int) -> bool:
        d = self.attrs.get(aid)
        return d is not None and d.expandable

    def expandable_mode(self, mid: int) -> bool:
        d = self.modes.get(mid)
        return d is not None and d.expandable and d.definiens is not None

    def expandable_pred(self, pid: int) -> bool:
        d = self.preds.get(pid)
        return d is not None and d.expandable

    # -- term typing (no constant context; callers resolve variables) ------

    def result_type(self, func: int, args: tuple[Term, ...]) -> TypeExpr:
        builtin = self.req.functor_result_type(func)
        if builtin is not None:
            return builtin
        d = self.funcs.get(func)
        if d is None:
            return self.req.set_type()
        return subst_loci(d.result, args)


def _entries(attrs: frozenset[Attr]) -> tuple[tuple[bool, int, tuple[Term, ...]], ...]:
    """The adjectives in ``sorted_attrs`` order, as (sign, attribute id, arguments)."""
    return tuple([(a.positive, a.attr_id, a.args) for a in sorted_attrs(attrs)])
