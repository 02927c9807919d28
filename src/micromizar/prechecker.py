"""Turning a justification into refutable clauses.

A step's justification is checked by refutation: the cited premises
together with the negated goal must be contradictory.  This module
prepares that input and drives the per-clause machinery:

1. definition unfolding: expandable adjectives, modes, and predicates
   are replaced by their instantiated definientia, and private
   predicates by their bodies;
2. augmentation: under the subset requirement an equality between
   terms also asserts the two inclusions (and a disequality denies
   their conjunction), and a flexible conjunction travels with its
   quantified expansion, fully instantiated when the bounds are
   numerals;
3. top-level skolemization: outer existentials become fresh typed
   constants, and a vacuous quantifier over a provably inhabited type
   is dropped;
4. full distribution into disjunctive normal form, skolemizing
   existentials that only become top-level inside one branch.

Every resulting clause must be refuted by the congruence graph or the
instantiation search; one survivor rejects the inference, and the
justification says whether that survivor hit a search budget.  Clause
counts above the cap abandon the attempt instead of looping forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .flex import FlexMode, expand_flex
from .logic import (
    And,
    FTrue,
    FlexAnd,
    ForAll,
    Formula,
    Is,
    Neg,
    Numeral,
    Pred,
    PrivPred,
    Qual,
    TypeExpr,
    const,
    mk_and,
    mk_neg,
    sorted_attrs,
    subst_bound,
    uses_bound,
)
from .subtyping import DefinitionDb
from .unifier import clause_refuted

CLAUSE_CAP = 3000
UNFOLD_FUEL = 16


class ClauseOverflow(Exception):
    """More clauses than the cap allows."""


@dataclass
class Justification:
    accepted: bool
    too_large: bool = False
    prepared: Formula | None = None
    skolems: list[tuple[int, TypeExpr]] = field(default_factory=list)
    clause_count: int = 0
    limited: bool = False  # the surviving clause hit a search budget


class Prechecker:
    def __init__(
        self,
        db: DefinitionDb,
        flex_mode: FlexMode = FlexMode.STRICT,
        clause_cap: int = CLAUSE_CAP,
    ):
        self.db = db
        self.req = db.req
        self.flex_mode = flex_mode
        self.clause_cap = clause_cap

    def justify(
        self,
        premises: list[Formula],
        conjecture: Formula,
        const_types: dict[int, TypeExpr],
        next_const: int,
    ) -> Justification:
        self._next = max(next_const, *(i + 1 for i in const_types)) if const_types else next_const
        f = mk_and([*premises, mk_neg(conjecture)])
        f = self._unfold(f, UNFOLD_FUEL)
        f = self._augment(f)
        skolems: list[tuple[int, TypeExpr]] = []
        f = self._skolemize_top(f, skolems)
        base_types = dict(const_types)
        for idx, ty in skolems:
            base_types[idx] = ty
        try:
            clauses = self._to_dnf(f)
        except ClauseOverflow:
            return Justification(False, too_large=True, prepared=f, skolems=skolems)
        for lits, local_types in clauses:
            merged = dict(base_types)
            merged.update(local_types)
            refuted, limited = clause_refuted(self.db, lits, merged, self.flex_mode)
            if not refuted:
                return Justification(
                    False, prepared=f, skolems=skolems, clause_count=len(clauses), limited=limited
                )
        return Justification(
            True, prepared=f, skolems=skolems, clause_count=len(clauses)
        )

    # -- definition unfolding ------------------------------------------------

    def _unfold(self, f: Formula, fuel: int) -> Formula:
        db = self.db
        match f:
            case FTrue():
                return f
            case Neg(b):
                return mk_neg(self._unfold(b, fuel))
            case And(cs):
                return mk_and([self._unfold(c, fuel) for c in cs])
            case ForAll(ty, b):
                return ForAll(ty, self._unfold(b, fuel))
            case PrivPred(_, _, exp):
                return self._unfold(exp, fuel)
            case Pred(p, args):
                if fuel > 0 and db.expandable_pred(p):
                    return self._unfold(db.pred_definiens(p, args), fuel - 1)
                return f
            case Is(t, a):
                if fuel > 0 and db.expandable_attr(a.attr_id):
                    return self._unfold(db.attr_definiens(a, t), fuel - 1)
                return f
            case Qual(t, ty):
                if fuel > 0 and db.expandable_mode(ty.mode):
                    parts: list[Formula] = [db.mode_definiens(ty.mode, ty.args, t)]
                    parts.extend(Is(t, a) for a in sorted_attrs(ty.lower))
                    return self._unfold(mk_and(parts), fuel - 1)
                return f
            case _:
                return f

    # -- augmentation -------------------------------------------------------

    def _augment(self, f: Formula) -> Formula:
        req = self.req
        eq_id = req.cid("Equality")
        subset_on = req.present("Subset")
        match f:
            case Neg(Pred(p, args)) if subset_on and p == eq_id and len(args) == 2:
                s1, s2 = self._subset_pair(args[0], args[1])
                return mk_and([f, mk_neg(mk_and([s1, s2]))])
            case Neg(FlexAnd(fc)):
                exp = expand_flex(fc, req)
                return mk_and([f, self._augment(mk_neg(exp))])
            case Neg(b):
                return mk_neg(self._augment(b))
            case And(cs):
                return mk_and([self._augment(c) for c in cs])
            case ForAll(ty, b):
                return ForAll(ty, self._augment(b))
            case Pred(p, args) if subset_on and p == eq_id and len(args) == 2:
                s1, s2 = self._subset_pair(args[0], args[1])
                return mk_and([f, s1, s2])
            case FlexAnd(fc):
                exp = expand_flex(fc, req)
                return mk_and([f, self._augment(exp)])
            case _:
                return f

    def _subset_pair(self, a, b) -> tuple[Formula, Formula]:
        sub = self.req.require("Subset")
        return Pred(sub, (a, b)), Pred(sub, (b, a))

    # -- skolemization ---------------------------------------------------------

    def _alloc(self) -> int:
        idx = self._next
        self._next += 1
        return idx

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

    # -- distribution -------------------------------------------------------------

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
