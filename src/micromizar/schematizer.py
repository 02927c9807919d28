"""Scheme instantiation by syntax-directed first-order matching.

A scheme is a statement pattern over placeholder functors and
predicates.  Using one means exhibiting cited premises and a goal that
instantiate the declared hypotheses and conclusion simultaneously.

The matcher is deliberately not higher-order.  A placeholder predicate
binds to a signed atomic head: meeting ``P[args]`` against ``R(...)``
or ``not R(...)`` records ``P := +R`` or ``P := -R`` and recurses on
the arguments; every later occurrence must resolve to the same signed
head.  Dropping the sign from that assignment was a soundness hole, so
a same-head/different-sign clash is reported separately from a plain
conflicting assignment.

Placeholder functors of positive arity bind functor or proof-local
functor heads the same way.  Nullary placeholder functors are the one
liberal spot: they bind an arbitrary term, provided it does not reach
an enclosing bound variable (the binding must make sense outside the
quantifier it was found under).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .logic import (
    And,
    Choice,
    FTrue,
    FlexAnd,
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
    Term,
    TypeExpr,
    Var,
    map_terms,
    mk_neg,
    sorted_attrs,
    uses_bound,
)

SIGN_MISMATCH = 62
HEAD_MISMATCH = 63
CONFLICT = 64
PREMISE_COUNT = 65

PRED = "pred"
PRIV_PRED = "defpred"
FUNC = "func"
PRIV_FUNC = "deffunc"
GROUND = "term"


@dataclass(frozen=True)
class Scheme:
    name: str
    functor_arities: tuple[int, ...]
    pred_arities: tuple[int, ...]
    premises: tuple[Formula, ...]
    conclusion: Formula


@dataclass
class SchemeAssignment:
    """Placeholder id -> signed predicate head / functor head / ground term."""

    predicates: dict[int, tuple[bool, tuple[str, int]]] = field(default_factory=dict)
    functors: dict[int, tuple[str, int] | tuple[str, Term]] = field(default_factory=dict)


class SchemeMatchError(Exception):
    def __init__(self, code: int, note: str = ""):
        super().__init__(note or str(code))
        self.code = code
        self.note = note


def match_scheme(
    scheme: Scheme, cited: tuple[Formula, ...], goal: Formula
) -> SchemeAssignment:
    """Bind the scheme's placeholders so that its conclusion becomes the
    goal and its hypotheses become the cited statements, in order."""
    if len(cited) != len(scheme.premises):
        raise SchemeMatchError(PREMISE_COUNT, scheme.name)
    m = _Matcher(scheme)
    m.formula(scheme.conclusion, goal, 0)
    for pat, subj in zip(scheme.premises, cited):
        m.formula(pat, subj, 0)
    if __debug__:
        pairs = [(scheme.conclusion, goal), *zip(scheme.premises, cited)]
        for pat, subj in pairs:
            rebuilt = apply_assignment(pat, m.out)
            assert _strip(rebuilt) == _strip(subj), "assignment does not reproduce the instance"
    return m.out


class _Matcher:
    def __init__(self, scheme: Scheme):
        self.scheme = scheme
        self.out = SchemeAssignment()

    # -- placeholder heads ----------------------------------------------------

    def _bind_pred(
        self, k: int, args: tuple[Term, ...], subject: Formula, covered: bool, depth: int
    ) -> None:
        if len(args) != self.scheme.pred_arities[k]:
            raise SchemeMatchError(HEAD_MISMATCH, f"placeholder predicate {k} arity")
        head = subject
        subj_positive = True
        if isinstance(head, Neg):
            head = head.body
            subj_positive = False
        match head:
            case Pred(pid, sargs):
                target = (PRED, pid)
            case PrivPred(pid, sargs, _):
                target = (PRIV_PRED, pid)
            case _:
                raise SchemeMatchError(
                    HEAD_MISMATCH,
                    f"placeholder predicate {k} needs an atomic statement",
                )
        if len(sargs) != len(args):
            raise SchemeMatchError(HEAD_MISMATCH, f"placeholder predicate {k} arity")
        sign = covered == subj_positive
        old = self.out.predicates.get(k)
        if old is None:
            self.out.predicates[k] = (sign, target)
        elif old[1] != target:
            raise SchemeMatchError(CONFLICT, f"placeholder predicate {k}")
        elif old[0] != sign:
            raise SchemeMatchError(SIGN_MISMATCH, f"placeholder predicate {k}")
        for pa, sa in zip(args, sargs):
            self.term(pa, sa, depth)

    def _bind_func(self, k: int, args: tuple[Term, ...], subject: Term, depth: int) -> None:
        if len(args) != self.scheme.functor_arities[k]:
            raise SchemeMatchError(HEAD_MISMATCH, f"placeholder functor {k} arity")
        if not args:
            for lvl in range(depth):
                if uses_bound(subject, lvl):
                    raise SchemeMatchError(
                        HEAD_MISMATCH,
                        f"placeholder functor {k} would capture a quantified variable",
                    )
            self._store_func(k, (GROUND, subject))
            return
        match subject:
            case FunctorApp(fid, sargs):
                target = (FUNC, fid)
            case PrivFunc(fid, sargs, _):
                target = (PRIV_FUNC, fid)
            case _:
                raise SchemeMatchError(
                    HEAD_MISMATCH, f"placeholder functor {k} needs a functor head"
                )
        if len(sargs) != len(args):
            raise SchemeMatchError(HEAD_MISMATCH, f"placeholder functor {k} arity")
        self._store_func(k, target)
        for pa, sa in zip(args, sargs):
            self.term(pa, sa, depth)

    def _store_func(self, k: int, target) -> None:
        old = self.out.functors.get(k)
        if old is None:
            self.out.functors[k] = target
        elif old != target:
            raise SchemeMatchError(CONFLICT, f"placeholder functor {k}")

    # -- structural walk ------------------------------------------------------

    def formula(self, p: Formula, s: Formula, depth: int) -> None:
        match p:
            case SchemePred(k, args):
                self._bind_pred(k, args, s, True, depth)
                return
            case Neg(SchemePred(k, args)):
                self._bind_pred(k, args, s, False, depth)
                return
        match (p, s):
            case (FTrue(), FTrue()):
                return
            case (Neg(pb), Neg(sb)):
                self.formula(pb, sb, depth)
            case (And(pcs), And(scs)) if len(pcs) == len(scs):
                for pc, sc in zip(pcs, scs):
                    self.formula(pc, sc, depth)
            case (ForAll(pty, pb), ForAll(sty, sb)):
                self.type_expr(pty, sty, depth)
                self.formula(pb, sb, depth + 1)
            case (Pred(pid, pargs), Pred(sid, sargs)) if pid == sid and len(pargs) == len(sargs):
                for pa, sa in zip(pargs, sargs):
                    self.term(pa, sa, depth)
            case (PrivPred(pid, pargs, _), PrivPred(sid, sargs, _)) if (
                pid == sid and len(pargs) == len(sargs)
            ):
                for pa, sa in zip(pargs, sargs):
                    self.term(pa, sa, depth)
            case (Is(pt, pa), Is(st, sa)) if (
                pa.positive == sa.positive
                and pa.attr_id == sa.attr_id
                and len(pa.args) == len(sa.args)
            ):
                self.term(pt, st, depth)
                for x, y in zip(pa.args, sa.args):
                    self.term(x, y, depth)
            case (Qual(pt, pty), Qual(st, sty)):
                self.term(pt, st, depth)
                self.type_expr(pty, sty, depth)
            case (FlexAnd(pf), FlexAnd(sf)):
                self.term(pf.lo, sf.lo, depth)
                self.term(pf.hi, sf.hi, depth)
                self.formula(pf.expansion, sf.expansion, depth)
                self.formula(pf.inst_lo, sf.inst_lo, depth)
                self.formula(pf.inst_hi, sf.inst_hi, depth)
            case _:
                raise SchemeMatchError(
                    HEAD_MISMATCH, type(p).__name__ + " vs " + type(s).__name__
                )

    def term(self, p: Term, s: Term, depth: int) -> None:
        if isinstance(p, SchemeFunctorApp):
            self._bind_func(p.func, p.args, s, depth)
            return
        match (p, s):
            case (Var(pk, pi), Var(sk, si)) if pk == sk and pi == si:
                return
            case (Numeral(a), Numeral(b)) if a == b:
                return
            case (FunctorApp(pf, pargs), FunctorApp(sf, sargs)) if (
                pf == sf and len(pargs) == len(sargs)
            ):
                for pa, sa in zip(pargs, sargs):
                    self.term(pa, sa, depth)
            case (PrivFunc(pf, pargs, _), PrivFunc(sf, sargs, _)) if (
                pf == sf and len(pargs) == len(sargs)
            ):
                for pa, sa in zip(pargs, sargs):
                    self.term(pa, sa, depth)
            case (Choice(pty), Choice(sty)):
                self.type_expr(pty, sty, depth)
            case (Fraenkel(), Fraenkel()) if p == s:
                return
            case _:
                raise SchemeMatchError(HEAD_MISMATCH, "term shapes differ")

    def type_expr(self, p: TypeExpr, s: TypeExpr, depth: int) -> None:
        if p.mode != s.mode or len(p.args) != len(s.args):
            raise SchemeMatchError(HEAD_MISMATCH, "type modes differ")
        for pa, sa in zip(p.args, s.args):
            self.term(pa, sa, depth)
        pl, sl = sorted_attrs(p.lower), sorted_attrs(s.lower)
        if len(pl) != len(sl):
            raise SchemeMatchError(HEAD_MISMATCH, "adjective clusters differ")
        for x, y in zip(pl, sl):
            if (
                x.positive != y.positive
                or x.attr_id != y.attr_id
                or len(x.args) != len(y.args)
            ):
                raise SchemeMatchError(HEAD_MISMATCH, "adjective clusters differ")
            for xa, ya in zip(x.args, y.args):
                self.term(xa, ya, depth)


def apply_assignment(
    f: Formula, asg: SchemeAssignment, lookup_priv=None
) -> Formula:
    """Rebuild a scheme formula under an assignment.  Proof-local heads
    need ``lookup_priv(kind, id, args)`` to supply their expansions;
    without it a placeholder expansion is used (fine for shape checks,
    not for checking)."""

    def fn(n):
        if type(n) is SchemeFunctorApp:
            kind, target = asg.functors[n.func]
            if kind == GROUND:
                return target
            args = tuple([map_terms(a, fn) for a in n.args])
            if kind == FUNC:
                return FunctorApp(target, args)
            if lookup_priv is not None:
                return lookup_priv(PRIV_FUNC, target, args)
            return PrivFunc(target, args, Numeral(0))
        if type(n) is SchemePred:
            sign, (kind, pid) = asg.predicates[n.pred]
            args = tuple([map_terms(a, fn) for a in n.args])
            if kind == PRED:
                out: Formula = Pred(pid, args)
            elif lookup_priv is not None:
                out = lookup_priv(PRIV_PRED, pid, args)
            else:
                out = PrivPred(pid, args, FTrue())
            return out if sign else mk_neg(out)
        return None

    return map_terms(f, fn)


def _strip(f: Formula) -> Formula:
    """Erase proof-local expansions so rebuilt and original instances
    compare on head and argument structure alone."""

    def fn(n):
        if type(n) is PrivFunc:
            return PrivFunc(n.func, tuple([map_terms(a, fn) for a in n.args]), Numeral(0))
        if type(n) is PrivPred:
            return PrivPred(n.pred, tuple([map_terms(a, fn) for a in n.args]), FTrue())
        return None

    return map_terms(f, fn)
