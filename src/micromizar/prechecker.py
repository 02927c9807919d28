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
   numerals and unfolded as in step 1.  After skolemization, so that
   the negation of ``for x holds s = t`` makes two clauses that both
   hold ``s <> t``, not three;
4. distribution into disjunctive normal form, skolemizing existentials
   that only become top-level inside one branch.  The clauses are
   counted first, from the formula's shape alone, and then made one at
   a time, depth first.

Steps 1-3 run on one premise at a time, in order, then on the negated
goal, which allocates the skolem constants as for their conjunction.  A
cited universal is unfolded once for each version of the definitions,
and augmented once unless its binder is vacuous; only then can
skolemization change it.  These walks dispatch on ``type(f) is K``,
most frequent kind first: a failed ``match`` class pattern costs an
``isinstance`` and ``__match_args__`` reads, and no kernel node kind
has a subclass, so the exact type is the same test.

Every clause must be refuted by the congruence graph or the
instantiation search.  The first survivor rejects the inference, no
further clause is made, and the justification says whether that
survivor hit a search budget.  A count above the cap abandons the
attempt before any clause exists.

With several clauses, the first clause's graph starts with one round
over what they all share, the constant types outside any branch and
the root literals: a contradiction there refutes every clause at once.

A verdict depends only on the premises, the goal, the live constants'
types and the definition database, which only grows.  So ``justify``
memoizes verdicts, and forgets every obligation when
``DefinitionDb.version()`` changes.  The key ``(premises, goal,
constant types)`` is exact: kernel nodes compare every field with
``==``, private expansions included.  A node's hash is computed when it
is made, so hashing a key reads one cached hash per premise, goal and
type; only a hit compares the stored key, field by field down to the
subtrees the two share.  An obligation is admitted at its
second sighting under one version: the first files only its hash, in at
most ``SEEN_CAP`` untracked ints, so one-off obligations keep no
formula alive.  The memo is filed by that hash, keeps the key to
compare, and holds ``MEMO_CAP`` verdicts, least recently used dropped
first.  A hit returns the very ``Justification`` the check made; a
check that raises stores nothing.
"""

from __future__ import annotations

from collections.abc import Iterator

from .flex import expand_flex
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
from .records import record
from .subtyping import DefinitionDb
from .unifier import TUPLE_CAP, clause_refuted

CLAUSE_CAP = 3000
UNFOLD_FUEL = 16
MEMO_CAP = 64  # verdicts kept, least recently used dropped first
SEEN_CAP = 256  # hashes of obligations seen once, oldest dropped first


@record
class Justification:
    accepted: bool
    too_large: bool
    prepared: Formula | None
    skolems: list[tuple[int, TypeExpr]]
    clause_count: int
    limited: bool  # the surviving clause hit a search budget
    __hash__ = None

    def __init__(self, accepted, too_large=False, prepared=None, skolems=None, clause_count=0, limited=False) -> None:
        self.accepted, self.too_large, self.prepared, self.limited = accepted, too_large, prepared, limited
        self.skolems, self.clause_count = [] if skolems is None else skolems, clause_count


class Prechecker:
    def __init__(self, db: DefinitionDb, clause_cap: int = CLAUSE_CAP):
        self.db = db
        self.req = db.req
        self.clause_cap = clause_cap
        # id of a cited universal -> (it, the database version read, its
        # unfolded form, and that augmented unless it is vacuous)
        self._cited: dict[int, tuple[ForAll, tuple[int, ...], ForAll, Formula | None]] = {}
        # for the database version `_memo_version`: hash of an obligation
        # -> (it, its verdict), least recently used first, and the hashes
        # seen, oldest first
        self._memo: dict[int, tuple[tuple, Justification]] = {}
        self._memo_version = db.version()
        self._seen: dict[int, None] = {}

    def justify(
        self,
        premises: list[Formula],
        conjecture: Formula,
        const_types: list[TypeExpr],
    ) -> Justification:
        """Refute the premises with the conjecture denied.  Constant i has
        type ``const_types[i]``; those are every live constant, so the
        skolem constants are numbered from ``len(const_types)``."""
        version = self.db.version()
        if version != self._memo_version:
            self._memo_version = version
            self._memo.clear()
            self._seen.clear()
        key = (tuple(premises), conjecture, tuple(const_types))
        h = hash(key)
        seen = self._seen
        if h not in seen:
            seen[h] = None
            if len(seen) > SEEN_CAP:
                del seen[next(iter(seen))]
            return self._justify(premises, conjecture, const_types)
        memo = self._memo
        hit = memo.pop(h, None)
        if hit is not None and hit[0] == key:
            memo[h] = hit
            return hit[1]
        out = self._justify(premises, conjecture, const_types)
        memo[h] = (key, out)
        if len(memo) > MEMO_CAP:
            del memo[next(iter(memo))]
        return out

    def _justify(self, premises: list[Formula], conjecture: Formula, const_types: list[TypeExpr]) -> Justification:
        self._next = len(const_types)
        skolems: list[tuple[int, TypeExpr]] = []
        f = mk_and([*[self._premise(p, skolems) for p in premises], self._prepared(mk_neg(conjecture), skolems)])
        base_types = dict(enumerate(const_types))
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
            refuted, limited, every = clause_refuted(self.db, lits, merged, TUPLE_CAP, shared)
            if not refuted:
                return Justification(
                    False, prepared=f, skolems=skolems, clause_count=count, limited=limited
                )
            if every:
                break
            shared = None
        return Justification(True, prepared=f, skolems=skolems, clause_count=count)

    def _prepared(self, f: Formula, skolems: list[tuple[int, TypeExpr]]) -> Formula:
        """`f` unfolded, skolemized and augmented, in that order."""
        return self._augment(self._skolemize_top(self._unfold(f, UNFOLD_FUEL), skolems))

    def _premise(self, p: Formula, skolems: list[tuple[int, TypeExpr]]) -> Formula:
        """``_prepared(p)``; a cited universal's is kept for each version
        of the definitions that unfolding reads."""
        if type(p) is not ForAll:
            return self._prepared(p, skolems)
        version = self.db.version()
        hit = self._cited.get(id(p))
        if hit is None or hit[1] != version:
            u = self._unfold(p, UNFOLD_FUEL)
            hit = self._cited[id(p)] = (p, version, u, self._augment(u) if uses_bound(u.body, 0) else None)
        u, augmented = hit[2], hit[3]
        return augmented if augmented is not None else self._augment(self._skolemize_top(u, skolems))

    # -- definition unfolding ------------------------------------------------

    def _unfold(self, f: Formula, fuel: int) -> Formula:
        db, k = self.db, type(f)
        if k is Pred:
            if fuel > 0 and db.expandable_pred(f.pred):
                return self._unfold(db.pred_definiens(f.pred, f.args), fuel - 1)
        elif k is And:
            return mk_and([self._unfold(c, fuel) for c in f.conjuncts])
        elif k is Neg:
            return mk_neg(self._unfold(f.body, fuel))
        elif k is Is:
            if fuel > 0 and db.expandable_attr(f.attr.attr_id):
                return self._unfold(db.attr_definiens(f.attr, f.term), fuel - 1)
        elif k is ForAll:
            return ForAll(f.ty, self._unfold(f.body, fuel))
        elif k is Qual:
            t, ty = f.term, f.ty
            if fuel > 0 and db.expandable_mode(ty.mode):
                parts: list[Formula] = [db.mode_definiens(ty.mode, ty.args, t)]
                parts.extend(Is(t, a) for a in sorted_attrs(ty.lower))
                return self._unfold(mk_and(parts), fuel - 1)
        elif k is PrivPred:
            return self._unfold(f.expansion, fuel)
        return f

    # -- augmentation -------------------------------------------------------

    def _augment(self, f: Formula) -> Formula:
        k = type(f)
        if k is Neg:
            b = f.body
            if type(b) is Pred and self._is_subset_eq(b):
                s1, s2 = self._subset_pair(b.args[0], b.args[1])
                return mk_and([f, mk_neg(mk_and([s1, s2]))])
            if type(b) is FlexAnd:
                exp = self._unfold(expand_flex(b.flex, self.req), UNFOLD_FUEL)
                return mk_and([f, self._augment(mk_neg(exp))])
            return mk_neg(self._augment(b))
        if k is And:
            return mk_and([self._augment(c) for c in f.conjuncts])
        if k is ForAll:
            return ForAll(f.ty, self._augment(f.body))
        if k is Pred and self._is_subset_eq(f):
            s1, s2 = self._subset_pair(f.args[0], f.args[1])
            return mk_and([f, s1, s2])
        if k is FlexAnd:
            exp = self._unfold(expand_flex(f.flex, self.req), UNFOLD_FUEL)
            return mk_and([f, self._augment(exp)])
        return f

    def _is_subset_eq(self, f: Pred) -> bool:
        """Is `f` an equality that the subset requirement augments?"""
        req = self.req
        return f.pred == req.ids.Equality and len(f.args) == 2 and req.present("Subset")

    def _subset_pair(self, a, b) -> tuple[Formula, Formula]:
        sub = self.req.require("Subset")
        return Pred(sub, (a, b)), Pred(sub, (b, a))

    # -- skolemization ---------------------------------------------------------

    def _alloc(self) -> int:
        idx = self._next
        self._next += 1
        return idx

    def _skolemize_top(self, f: Formula, out: list[tuple[int, TypeExpr]]) -> Formula:
        k = type(f)
        if k is And:
            return mk_and([self._skolemize_top(c, out) for c in f.conjuncts])
        if k is Neg and type(f.body) is ForAll:
            typed, g = self._witness(f.body)
            out.extend(typed)
            return self._skolemize_top(g, out)
        if k is ForAll and not uses_bound(f.body, 0) and self.db.inhabited(f.ty):
            return self._skolemize_top(subst_bound(f.body, 0, Numeral(0)), out)
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
        k = type(f)
        if k is Neg:
            return self._count(f.body, depth, not positive)
        if k is And:
            cap = self.clause_cap + 1
            n = 1 if positive else 0
            for c in f.conjuncts:
                m = self._count(c, depth, positive)
                n = min(n * m if positive else n + m, cap)
            return n
        if k is ForAll and (not positive or (not uses_bound(f.body, depth) and self.db.inhabited(f.ty))):
            return self._count(f.body, depth + 1, positive)
        if k is FTrue:
            return 1 if positive else 0
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
                k = type(lit)
                b = lit.body if k is Neg else None
                if k is And:
                    for c in reversed(lit.conjuncts):
                        todo = (c, todo)
                elif type(b) is And:
                    # the first branch goes on here; the others wait
                    cs = b.conjuncts
                    for c in reversed(cs[1:]):
                        branches.append((list(out), (mk_neg(c), todo), local))
                    todo = (mk_neg(cs[0]), todo)
                elif type(b) is ForAll:
                    typed, g = self._witness(b)
                    local = {**local, **dict(typed)}
                    todo = (g, todo)
                elif type(b) is FTrue:
                    break  # the branch is already absurd; nothing to refute
                elif k is ForAll and not uses_bound(lit.body, 0) and self.db.inhabited(lit.ty):
                    todo = (subst_bound(lit.body, 0, Numeral(0)), todo)
                elif k is not FTrue and lit not in out:
                    # a scan: a set of the clause's literals was measured no faster
                    out.append(lit)
            else:
                yield out, local
