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

The walk over pattern and subject together is ``logic.zip_nodes``; the
matcher is its hook, and a shape the hook leaves to the walk and the
walk finds different is a head mismatch.
"""

from __future__ import annotations

from functools import partial

from .logic import (
    FTrue,
    ForAll,
    Formula,
    Fraenkel,
    FunctorApp,
    Neg,
    Numeral,
    Pred,
    PrivFunc,
    PrivPred,
    SchemeFunctorApp,
    SchemePred,
    ShapeMismatch,
    Term,
    map_terms,
    mk_neg,
    same_head,
    uses_bound,
    zip_nodes,
)
from .records import record

SIGN_MISMATCH = 62
HEAD_MISMATCH = 63
CONFLICT = 64
PREMISE_COUNT = 65

PRED = "pred"
PRIV_PRED = "defpred"
FUNC = "func"
PRIV_FUNC = "deffunc"
GROUND = "term"


@record
class Scheme:
    name: str
    functor_arities: tuple[int, ...]
    pred_arities: tuple[int, ...]
    premises: tuple[Formula, ...]
    conclusion: Formula


@record
class SchemeAssignment:
    """Placeholder id -> signed predicate head / functor head / ground term."""

    predicates: dict[int, tuple[bool, tuple[str, int]]]
    functors: dict[int, tuple[str, int] | tuple[str, Term]]
    __hash__ = None

    def __init__(self, predicates: dict | None = None, functors: dict | None = None) -> None:
        self.predicates = {} if predicates is None else predicates
        self.functors = {} if functors is None else functors


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
    try:
        m.match(scheme.conclusion, goal)
        for pat, subj in zip(scheme.premises, cited):
            m.match(pat, subj)
    except ShapeMismatch as e:
        raise SchemeMatchError(HEAD_MISMATCH, str(e)) from None
    if __debug__:
        pairs = [(scheme.conclusion, goal), *zip(scheme.premises, cited)]
        for pat, subj in pairs:
            rebuilt = _strip(apply_assignment(pat, m.out))
            assert rebuilt == _strip(subj), "assignment does not reproduce the instance"
    return m.out


class _Matcher:
    """The matching hook on ``zip_nodes``: placeholders bind, everything
    else must have the subject's shape."""

    def __init__(self, scheme: Scheme):
        self.scheme = scheme
        self.out = SchemeAssignment()
        self.depth = 0  # binders enclosing the pair being matched

    def match(self, p, s) -> None:
        zip_nodes(p, s, self.pair)

    def pair(self, p, s):
        kind = type(p)
        if kind is SchemePred:
            self._bind_pred(p.pred, p.args, s, True)
        elif kind is Neg and type(p.body) is SchemePred:
            self._bind_pred(p.body.pred, p.body.args, s, False)
        elif kind is SchemeFunctorApp:
            self._bind_func(p.func, p.args, s)
        elif kind is Fraenkel:
            if p != s:
                raise ShapeMismatch("Fraenkel terms differ")
        elif kind is PrivPred or kind is PrivFunc:
            # matched on head and arguments; the expansions follow from them
            if not same_head(p, s):
                raise ShapeMismatch("proof-local heads differ")
            for pa, sa in zip(p.args, s.args):
                self.match(pa, sa)
        elif kind is ForAll and type(s) is ForAll:
            self.match(p.ty, s.ty)
            self.depth += 1
            self.match(p.body, s.body)
            self.depth -= 1
        else:
            return None
        return p

    # -- placeholder heads ----------------------------------------------------

    def _bind_pred(self, k: int, args: tuple[Term, ...], subject: Formula, covered: bool) -> None:
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
            self.match(pa, sa)

    def _bind_func(self, k: int, args: tuple[Term, ...], subject: Term) -> None:
        if len(args) != self.scheme.functor_arities[k]:
            raise SchemeMatchError(HEAD_MISMATCH, f"placeholder functor {k} arity")
        if not args:
            for lvl in range(self.depth):
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
            self.match(pa, sa)

    def _store_func(self, k: int, target) -> None:
        old = self.out.functors.get(k)
        if old is None:
            self.out.functors[k] = target
        elif old != target:
            raise SchemeMatchError(CONFLICT, f"placeholder functor {k}")


def apply_assignment(f: Formula, asg: SchemeAssignment) -> Formula:
    """Rebuild a scheme formula under an assignment.  A proof-local head
    gets a placeholder expansion: the result is fit for shape checks,
    not for checking."""
    return map_terms(f, partial(_assigned, asg))


# the hooks below recurse through their callers: a nested closure that
# names itself would be a cycle that only the cyclic collector frees
def _assigned(asg: SchemeAssignment, n):
    if type(n) is SchemeFunctorApp:
        kind, target = asg.functors[n.func]
        if kind == GROUND:
            return target
        args = tuple([apply_assignment(a, asg) for a in n.args])
        if kind == FUNC:
            return FunctorApp(target, args)
        return PrivFunc(target, args, Numeral(0))
    if type(n) is SchemePred:
        sign, (kind, pid) = asg.predicates[n.pred]
        args = tuple([apply_assignment(a, asg) for a in n.args])
        out = Pred(pid, args) if kind == PRED else PrivPred(pid, args, FTrue())
        return out if sign else mk_neg(out)
    return None


def _strip(f: Formula) -> Formula:
    """Erase proof-local expansions so rebuilt and original instances
    compare on head and argument structure alone."""
    return map_terms(f, _stripped)


def _stripped(n):
    if type(n) is PrivFunc:
        return PrivFunc(n.func, tuple([_strip(a) for a in n.args]), Numeral(0))
    if type(n) is PrivPred:
        return PrivPred(n.pred, tuple([_strip(a) for a in n.args]), FTrue())
    return None
