"""Instantiation search over a saturated congruence graph.

The equalizer leaves behind the clause facts it could not act on:
positive universal literals and flexible-conjunction literals.  This
module tries to close the clause by instantiating universals with the
graph's own equivalence classes (singly, then in directly nested
pairs) and evaluating the resulting ground formula three-valued
against what the graph knows.  Evaluation never adds nodes: a term the
graph has not seen is simply unknown, which keeps the search sound.

Flexible conjunctions are matched as literals: a positive and a
negative one that agree make the clause contradictory.  What "agree"
means is the mode switch: the strict mode compares bounds and the
expansion, the compatibility mode only the two endpoint instances,
which accepts more and is the known-unsound behaviour kept for
comparison runs.
"""

from __future__ import annotations

from .arith import ComplexRational
from .equalizer import EqGraph, refute_clause
from .flex import FlexMode, flex_equal
from .logic import (
    And,
    FTrue,
    FlexAnd,
    FlexConj,
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
    subst_bound,
)

TUPLE_CAP = 1000


def _contains_flex(f: Formula) -> bool:
    match f:
        case FlexAnd():
            return True
        case Neg(b):
            return _contains_flex(b)
        case And(cs):
            return any(_contains_flex(c) for c in cs)
        case ForAll(_, b):
            return _contains_flex(b)
        case _:
            return False


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
        self._cand_cache: dict[TypeExpr, list[int]] = {}

    # -- top level ---------------------------------------------------------

    def refute(self) -> bool:
        if self.g.contradiction:
            return True
        if self._flex_pairs():
            return True
        for fa in list(self.g.foralls):
            path = self._refute_univ(fa, 0)
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

    def _candidates(self, ty: TypeExpr) -> list[int]:
        cached = self._cand_cache.get(ty)
        if cached is None:
            cached = [r for r in self._classes if self.g.class_satisfies(r, ty)]
            self._cand_cache[ty] = cached
        return cached

    def _refute_univ(self, fa: ForAll, depth: int) -> list[Term] | None:
        assert depth <= 1, "instantiation is limited to pairs"
        for rep in self._candidates(fa.ty):
            if self.fuel <= 0:
                self.capped = True
                return None
            self.fuel -= 1
            inst = subst_bound(fa.body, 0, Var(VarKind.EQCLASS, rep))
            if self._eval(inst) is False:
                return [self.g.term_of_class(rep)]
            if depth == 0 and isinstance(inst, ForAll):
                tail = self._refute_univ(inst, depth + 1)
                if tail is not None:
                    return [self.g.term_of_class(rep)] + tail
        return None

    def _replay(self, fa: ForAll, path: list[Term]) -> None:
        """Sanity harness: the found instance must refute on its own."""
        if not __debug__:
            return
        f: Formula = fa
        for t in path:
            if not isinstance(f, ForAll):
                return
            f = subst_bound(f.body, 0, t)
        if _contains_flex(f):
            return  # flex facts live outside the congruence graph
        parts = [c for c in (f.conjuncts if isinstance(f, And) else (f,)) if not isinstance(c, FTrue)]
        for p in parts:
            inner = p.body if isinstance(p, Neg) else p
            if isinstance(inner, (And, ForAll, Neg, FTrue)):
                return  # compound instance: the three-valued check stands alone
        g2 = EqGraph(self.g.db)
        for i in sorted(self.const_types):
            g2.assume_const_type(i, self.const_types[i])
        for lit in self.literals:
            g2.assume(lit)
        for p in parts:
            g2.assume(p)
        g2.run()
        assert g2.contradiction or g2.limited, "instance did not replay"

    # -- three-valued evaluation ------------------------------------------------

    def _eval(self, f: Formula) -> bool | None:
        match f:
            case FTrue():
                return True
            case Neg(b):
                v = self._eval(b)
                return None if v is None else not v
            case And(cs):
                out: bool | None = True
                for c in cs:
                    v = self._eval(c)
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
                return self._eval(exp)
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
                return self._flex_lookup(fc)
            case ForAll():
                return None
        return None

    def _flex_lookup(self, fc: FlexConj) -> bool | None:
        for s, f2 in self.g.flexes:
            if flex_equal(fc, f2, self.mode):
                return s
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

    def _term_value(self, t: Term) -> ComplexRational | None:
        return self.req.term_value(t, self._graph_value)

    def _graph_value(self, t: Term) -> ComplexRational | None:
        rep = self.g.lookup(t)
        return None if rep is None else self.g.value.get(self.g.find(rep))


def clause_refuted(
    db,
    literals,
    const_types,
    flex_mode: FlexMode = FlexMode.STRICT,
    tuple_cap: int = TUPLE_CAP,
) -> tuple[bool, bool]:
    """Saturate then search; returns (refuted, resource-limited)."""
    g = refute_clause(db, list(literals), dict(const_types))
    if g.contradiction:
        return True, False
    u = Unifier(g, tuple(literals), dict(const_types), flex_mode, tuple_cap)
    refuted = u.refute()
    return refuted, (g.limited or u.capped)
