"""Type widening, adjective rounding, and the definition database.

A type is a mode application decorated with adjectives.  Subtyping has
two independent halves: the mode must widen along its parent chain to
the target mode with identical arguments, and every adjective the
target asks for must appear in the source's rounded-up cluster.
Rounding closes the written adjectives under the conditional cluster
registrations (builtin ones from the requirement table plus whatever
the article registered) and folds in adjectives inherited from parent
modes.  A type holds only what was written; its rounded cluster is a
fact of the database (``DefinitionDb.round_up``), which grows as the
article registers clusters.

Attributed types are not self-evidently inhabited; ``inhabited`` says
whether some witness in ``DefinitionDb.existential`` covers the written
cluster.  The builtin witnesses (natural, zero natural, empty and
complex sets) come first there, then each existential registration's
type as written.  Callers that introduce a constant of a type gate on
it, and the refutation machinery only strips vacuous quantifiers over
types that pass it.
"""

from __future__ import annotations

from .logic import (
    Attr,
    Formula,
    Term,
    TypeExpr,
    mk_neg,
    sorted_attrs,
    subst_loci,
)
from .records import record
from .requirements import RequirementTable


@record
class AttrDef:
    """``attr a-P for T means ...``: loci 0..arity-1 are the visible
    arguments, locus ``arity`` is the subject."""

    arity: int
    subject: TypeExpr
    definiens: Formula
    expandable: bool


@record
class ModeDef:
    """``mode M of X -> parent means ...``: loci 0..arity-1 are the
    arguments, locus ``arity`` the candidate inhabitant."""

    arity: int
    parent: TypeExpr
    definiens: Formula | None
    expandable: bool


@record
class FuncDef:
    arity: int
    result: TypeExpr


@record
class PredDef:
    arity: int
    definiens: Formula
    expandable: bool


@record
class ConditionalCluster:
    guard: frozenset[Attr]
    target: frozenset[Attr]
    ty: TypeExpr


@record
class FunctorCluster:
    term: Term
    attrs: frozenset[Attr]


class DefinitionDb:
    """Everything an article has defined or registered so far.

    The database only grows: every id comes from ``fresh_id`` and is
    defined once, and clusters are appended, never removed or replaced
    (``tests/test_boundaries.py`` checks that no module shrinks or
    reorders a registry).  So ``version()``, the sizes of the seven
    registries, changes whenever what the database says changes: the
    prechecker's cited universals and its verdict memo rely on it.  The
    number of modes and of conditional clusters, with the type, fixes
    what ``round_up`` returns, and it and ``adjectives`` memoize on
    those three.  One list of the clusters, memoized on their number,
    serves both ``round_up`` and ``cluster_rules``.

    ``existential`` lists the types known to be inhabited: first the
    builtin witnesses the requirement groups supply, then the type of
    each existential registration.
    """

    def __init__(self, req: RequirementTable):
        self.req = req
        self.attrs: dict[int, AttrDef] = {}
        self.modes: dict[int, ModeDef] = {}
        self.funcs: dict[int, FuncDef] = {}
        self.preds: dict[int, PredDef] = {}
        self.existential: list[TypeExpr] = []
        if req.present("Object"):  # no base type without HIDDEN
            for names in (["Natural"], ["Natural", "ZeroAttr"], ["Empty"], ["Complex"]):
                if all(map(req.present, names)):
                    self.existential.append(req.attr_type(names))
        self.conditional: list[ConditionalCluster] = []
        self.functor_clusters: list[FunctorCluster] = []
        self._next = {kind: req.max_id(kind) + 1 for kind in ("mode", "func", "pred", "attr")}
        self._rounded: dict[tuple[TypeExpr, int, int], frozenset[Attr]] = {}
        self._adjectives: dict[tuple[TypeExpr, int, int], tuple] = {}
        self._cluster_rules: tuple[int, list, tuple] = (-1, [], ())

    def fresh_id(self, kind: str) -> int:
        out = self._next[kind]
        self._next[kind] = out + 1
        return out

    def version(self) -> tuple[int, ...]:
        """The size of every registry; it changes whenever one grows."""
        return (len(self.attrs), len(self.modes), len(self.funcs), len(self.preds),
                len(self.existential), len(self.conditional), len(self.functor_clusters))

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

    def round_up(self, ty: TypeExpr) -> frozenset[Attr]:
        """`ty`'s written adjectives closed under the clusters and the
        parent modes."""
        key = (ty, len(self.modes), len(self.conditional))
        out = self._rounded.get(key)
        if out is None:
            out = self._rounded[key] = self._round_up(ty)
        return out

    def adjectives(self, ty: TypeExpr) -> tuple[tuple[bool, int, tuple[Term, ...]], ...]:
        """``round_up(ty)`` in ``sorted_attrs`` order, as (sign,
        attribute id, arguments); memoized as ``round_up`` is."""
        key = (ty, len(self.modes), len(self.conditional))
        out = self._adjectives.get(key)
        if out is None:
            out = self._adjectives[key] = _entries(self.round_up(ty))
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

    def _round_up(self, ty: TypeExpr) -> frozenset[Attr]:
        chain = self.ancestry(ty)
        out = set(ty.lower)
        for t in chain[1:]:
            out |= t.lower
        rules, _ = self._clusters()
        changed = True
        while changed:
            changed = False
            for guard, target, subject in rules:
                if target <= out or not guard <= out:
                    continue
                if subject is not None and not self._covers(chain, subject, out):
                    continue
                out |= target
                changed = True
        return frozenset(out)

    def _covers(self, chain: list[TypeExpr], subject: TypeExpr, attrs: set[Attr]) -> bool:
        return subject.lower <= attrs and any(
            t.mode == subject.mode and t.args == subject.args for t in chain
        )

    # -- subtyping -------------------------------------------------------

    def subtype(self, a: TypeExpr, b: TypeExpr) -> bool:
        if not b.lower <= self.round_up(a):
            return False
        return any(t.mode == b.mode and t.args == b.args for t in self.ancestry(a))

    # -- inhabitation ------------------------------------------------------

    def inhabited(self, ty: TypeExpr) -> bool:
        """Bare mode applications are inhabited by fiat; a written
        adjective cluster needs a covering witness in ``existential``."""
        if not ty.lower:
            return True
        return any(self.subtype(w, ty) for w in self.existential)

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
