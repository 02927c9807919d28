"""Turning a justification into refutable clauses.

A step's justification is checked by refutation: the cited premises
together with the negated goal must be contradictory.  This module
prepares that input and drives the per-clause machinery:

1. definition unfolding: expandable adjectives, modes, and predicates
   are replaced by their instantiated definientia, and private
   predicates by their bodies;
2. top-level skolemization: outer existentials become fresh typed
   constants, one substitution for each prefix of binders, and a
   vacuous quantifier over a provably inhabited type is dropped;
3. augmentation: under the subset requirement an equality between
   terms also asserts the two inclusions (and a disequality denies
   their conjunction), and a flexible conjunction travels with its
   quantified expansion, fully instantiated when the bounds are
   numerals.  After skolemization, so that the negation of ``for x
   holds s = t`` makes two clauses that both hold ``s <> t``, not three;
4. distribution into disjunctive normal form, skolemizing existentials
   that only become top-level inside one branch.  The clauses are
   counted first, from the formula's shape alone, and then made one at
   a time, depth first.

Every clause must be refuted by the congruence graph or the
instantiation search.  The first survivor rejects the inference, no
further clause is made, and the justification says whether that
survivor hit a search budget.  A count above the cap abandons the
attempt before any clause exists.

With several clauses, the first clause's graph starts with one round
over what they all share, the constant types outside any branch and
the root literals: a contradiction there refutes every clause at once.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    Term,
    TypeExpr,
    conjuncts,
    const,
    mk_and,
    mk_neg,
    sorted_attrs,
    subst_bound,
    uses_bound,
)
from .subtyping import DefinitionDb
from .unifier import TUPLE_CAP, clause_refuted

CLAUSE_CAP = 3000
UNFOLD_FUEL = 16


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
        skolems: list[tuple[int, TypeExpr]] = []
        f = self._skolemize_top(f, skolems)
        f = self._augment(f)
        base_types = dict(const_types)
        for idx, ty in skolems:
            base_types[idx] = ty
        count = self._count(f, 0, True)
        if count > self.clause_cap:
            return Justification(False, too_large=True, prepared=f, skolems=skolems)
        # the root literals that ``_to_dnf`` neither splits nor skolemizes
        roots = [c for c in conjuncts(f) if not (type(c) is Neg and type(c.body) in (And, ForAll))]
        shared = (base_types, roots) if count > 1 else None
        for lits, local_types in self._to_dnf(f):
            merged = dict(base_types)
            merged.update(local_types)
            refuted, limited, every = clause_refuted(self.db, lits, merged, self.flex_mode, TUPLE_CAP, shared)
            if not refuted:
                return Justification(
                    False, prepared=f, skolems=skolems, clause_count=count, limited=limited
                )
            if every:
                break
            shared = None
        return Justification(True, prepared=f, skolems=skolems, clause_count=count)

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
        eq_id = req.ids.Equality
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
            case Neg(ForAll() as fa):
                typed, g = self._witness(fa)
                out.extend(typed)
                return self._skolemize_top(g, out)
            case ForAll(ty, body) if not uses_bound(body, 0) and self.db.inhabited(ty):
                return self._skolemize_top(subst_bound(body, 0, Numeral(0)), out)
            case _:
                return f

    def _witness(self, fa: ForAll) -> tuple[list[tuple[int, TypeExpr]], Formula]:
        """Skolemize ``not fa`` with its whole binder prefix: ``not for x0
        for x1 ... holds body`` gets one fresh constant per binder,
        allocated in order, and becomes ``not body`` in one substitution.
        Binder i's type is returned over the first i constants."""
        typed: list[tuple[int, TypeExpr]] = []
        consts: list[Term] = []
        f: Formula = fa
        while type(f) is ForAll:
            idx = self._alloc()
            typed.append((idx, subst_bound(f.ty, 0, *consts)))
            consts.append(const(idx))
            f = f.body
        return typed, mk_neg(subst_bound(f, 0, *consts))

    # -- distribution -------------------------------------------------------------

    def _count(self, f: Formula, depth: int, positive: bool) -> int:
        """How many clauses ``_to_dnf`` makes of `f`, or of its negation
        when not `positive`, saturated at ``clause_cap + 1``; it mirrors
        ``_to_dnf`` rule for rule and builds nothing.

        `f` sits under `depth` binders that ``_to_dnf`` would have
        substituted, which are left in place here: levels are absolute,
        so a binder at `depth` is vacuous when its body does not use
        level `depth`.  The inhabitation test sees such a binder's type
        with bound levels where ``_to_dnf`` has skolem constants; it
        compares arguments only by ``==`` against witness types, which
        are closed, so it gives the same answer for both.
        """
        match f:
            case Neg(b):
                return self._count(b, depth, not positive)
            case FTrue():
                return 1 if positive else 0
            case And(cs):
                cap = self.clause_cap + 1
                n = 1 if positive else 0
                for c in cs:
                    m = self._count(c, depth, positive)
                    n = min(n * m if positive else n + m, cap)
                return n
            case ForAll(ty, body) if not positive or (
                not uses_bound(body, depth) and self.db.inhabited(ty)
            ):
                return self._count(body, depth + 1, positive)
            case _:
                return 1

    def _to_dnf(self, f: Formula) -> Iterator[tuple[list[Formula], dict[int, TypeExpr]]]:
        """The clauses of `f`, one at a time, depth first: each is its
        literals without repeats, in first-seen order, and the types of
        the constants skolemized on its branch.  A branch that meets
        ``not TRUE`` makes no clause.  ``_count`` mirrors this rule for
        rule, and ``justify``'s shared literals at the root; change them
        together (checked by
        ``test_count_and_stream_agree_with_the_reference``)."""
        branches = [([], (f, None), {})]
        while branches:
            out, todo, local = branches.pop()
            while todo is not None:  # a linked stack: branches share its tail
                lit, todo = todo
                match lit:
                    case FTrue():
                        continue
                    case Neg(FTrue()):
                        break  # the branch is already absurd; nothing to refute
                    case And(cs):
                        for c in reversed(cs):
                            todo = (c, todo)
                    case Neg(And(cs)):
                        # the first branch goes on here; the others wait
                        for c in reversed(cs[1:]):
                            branches.append((list(out), (mk_neg(c), todo), local))
                        todo = (mk_neg(cs[0]), todo)
                    case Neg(ForAll() as fa):
                        typed, g = self._witness(fa)
                        local = {**local, **dict(typed)}
                        todo = (g, todo)
                    case ForAll(ty, body) if not uses_bound(body, 0) and self.db.inhabited(ty):
                        todo = (subst_bound(body, 0, Numeral(0)), todo)
                    case _:
                        # a scan, not a set: a node hashes its whole subtree on every call
                        if lit not in out:
                            out.append(lit)
            else:
                yield out, local
