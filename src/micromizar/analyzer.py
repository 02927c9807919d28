"""Walking proofs while tracking what remains to be proved.

Every proof block carries a thesis.  Skeleton steps transform it:
``let`` strips a universal, ``assume`` peels the antecedent off a
negated conjunction, ``thus`` discharges leading conjuncts, ``take``
instantiates an existential, ``per cases`` splits it.  A block is
complete when its thesis has shrunk to truth; anything left at ``end``
is reported as code 70.

The article itself is checked as one diffuse block: a block with no
thesis, like ``now``.  Its items are steps, and `Analyzer._step` is the
only dispatcher over step kinds, for the article and for every proof.
`walk_now` handles only ``let``, ``assume`` and ``thus`` itself,
because there they record what the block exports, and rejects the
steps that need a thesis; it passes every other step to `_step`.

Statement justifications are delegated: plain ``by`` goes through the
refutational checker, ``from`` through the scheme matcher, and an
inline ``proof`` recurses.  Resolution errors abort only the step that
raised them, so one mistake does not bury the rest of the article.  An
internal fault of the checker costs one item too: it is reported as
code 99, and the exception's repr and the place it was raised are
kept in ``Analyzer.internal``.

The same walker elaborates definitions and cluster registrations,
emitting their correctness goals (existence, coherence, uniqueness) as
ordinary justification obligations.  A definition's name and label are
published once its block has closed, proof or no proof: later text can
refer to them, its own correctness conditions cannot.

What ends with a block is decided in one place: every write to
block-scoped state goes through `Trail.write`, and a block (``with
self.trail:``) unwinds what was written in it, however it ends.
"""

from __future__ import annotations

import os

from .arith import ComplexRational
from .errors import MizarError, Pos, SourcePos, VerifyError
from .flex import formula_equal
from .formatter import Formatter
from .logic import (
    And,
    Attr,
    Choice,
    ForAll,
    Formula,
    Fraenkel,
    FTrue,
    FunctorApp,
    Is,
    Neg,
    Numeral,
    Pred,
    PrivFunc,
    Qual,
    SchemeFunctorApp,
    Term,
    TypeExpr,
    Var,
    VarKind,
    bound,
    conjuncts,
    const,
    locus,
    mk_and,
    mk_exists,
    mk_iff,
    mk_imp,
    mk_is,
    mk_neg,
    mk_or,
    replace_term,
    shift_up,
    sorted_attrs,
    subst_bound,
    subst_loci,
    uses_const,
)
from .prechecker import Prechecker
from .requirements import RequirementTable
from .resolver import PrivDef, Resolver, Scope
from .schematizer import Scheme, SchemeMatchError, match_scheme
from .subtyping import (
    AttrDef,
    ConditionalCluster,
    DefinitionDb,
    FuncDef,
    FunctorCluster,
    ModeDef,
    PredDef,
)
from .surface import (
    Article,
    DefAttr,
    DefFunc,
    DefMode,
    DefPred,
    ItDefinition,
    ItRegistration,
    ItScheme,
    RegConditional,
    RegExistential,
    RegFunctor,
    SBy,
    SFrom,
    SJust,
    SStep,
    SSubProof,
    StAssume,
    StConsider,
    StDeffunc,
    StDefpred,
    StGiven,
    StLet,
    StNow,
    StPerCases,
    StProp,
    StReconsider,
    StTake,
    StTakeEq,
    StThus,
)

TRUE = FTrue()
FALSE = Neg(FTrue())


_ABSENT = object()


class Trail:
    """The undo log of block-scoped state, as in a Prolog machine.

    `write` is the one writer of that state: it sets a dict entry or
    appends to a list (`key` unused).  ``with trail:`` opens a block: it
    marks the log's length, and on every exit it restores, newest first,
    each old value logged since.  A mark costs O(1) and an unwinding
    O(what the block wrote).  Outside every block (the article's own
    level) nothing is logged, because nothing there is ever unwound."""

    __slots__ = ("log", "marks")

    def __init__(self) -> None:
        self.log: list[tuple] = []
        self.marks: list[int] = []

    def write(self, table: dict | list, key, value) -> None:
        if type(table) is list:
            if self.marks:
                self.log.append((table, len(table), None))
            table.append(value)
        else:
            if self.marks:
                self.log.append((table, key, table.get(key, _ABSENT)))
            table[key] = value

    def __enter__(self) -> Trail:
        self.marks.append(len(self.log))
        return self

    def __exit__(self, *exc) -> None:
        log, mark = self.log, self.marks.pop()
        while len(log) > mark:
            table, key, old = log.pop()
            if type(table) is list:
                del table[key:]
            elif old is _ABSENT:
                del table[key]
            else:
                table[key] = old


def _describe(e: Exception) -> str:
    """`e`'s repr and the innermost frame it was raised in, as
    ``RuntimeError('x') at logic.py:12 in f``."""
    tb = e.__traceback__
    if tb is None:
        return repr(e)
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    return f"{e!r} at {os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name}"


class Analyzer:
    def __init__(self, req: RequirementTable, *, trace: list[str] | None = None):
        self.req = req
        self.db = DefinitionDb(req)
        self.scope = Scope(req, self.db)
        self.resolver = Resolver(self.scope)
        self.checker = Prechecker(self.db)
        self.formatter = Formatter(self.scope)
        self.errors: list[VerifyError] = []
        self.trail = Trail()
        self.labels: dict[str, Formula] = {}
        self.defined: list[tuple[int, Term]] = []  # constants introduced with := t
        self.schemes: dict[str, Scheme] = {}
        self.scheme_results: dict[int, TypeExpr] = {}
        self.scheme_premises: list[Formula] = []
        self.loci_types: list[TypeExpr] = []
        # what ``then`` links to: a slot per open block, the last current
        self.links: list[Formula | None] = [None]
        self.trace = trace
        # each item lost to a checker fault: the exception's repr and the
        # place it was raised (not the exception, whose traceback would
        # keep every frame of the failed check alive)
        self.internal: list[tuple[SourcePos, str]] = []

    # -- entry ------------------------------------------------------------

    def run(self, article: Article) -> list[VerifyError]:
        # an item's blocks unwind themselves; what it binds at the
        # article's level (a label, a private definition) survives an error
        for item in article.items:
            try:
                self._step(item, None)
            except MizarError as e:
                self.errors.append(e.to_error())
            except Exception as e:  # noqa: BLE001 - a checker fault fails one item, not the article
                self.internal.append((SourcePos(*item.pos), _describe(e)))
                self.errors.append(VerifyError(item.pos, 99))
        return self.errors

    # -- shared plumbing ----------------------------------------------------

    def _bind(self, label: str, f: Formula, pos: Pos) -> None:
        if label in self.labels:
            self.errors.append(VerifyError(pos, 93))
            return
        self.trail.write(self.labels, label, f)

    def _resolving(self, resolve, s, name: str, value):
        """`resolve(s)` with the scope's context `name` set to `value`."""
        with self.trail:
            self.trail.write(self.scope.context, name, value)
            return resolve(s)

    def _resolve(self, s, thesis: Formula | None = None) -> Formula:
        """Resolve a surface formula in which ``thesis`` means `thesis`;
        with none, the keyword is error 51."""
        if thesis is None:
            return self.resolver.formula(s)
        return Resolver(self.scope, thesis).formula(s)

    def _eq_pred(self, pos: Pos) -> int:
        eq = self.req.ids.Equality
        if eq is None:
            raise MizarError(pos, 95, "equality requirement missing")
        return eq

    # -- justifications ------------------------------------------------------

    def justify(self, goal: Formula, just: SJust, pos: Pos) -> None:
        match just:
            case SSubProof(_, steps, end_pos):
                self.walk_proof(goal, steps, end_pos)
            case SFrom():
                self._from(goal, just)
            case SBy(_, refs, linked):
                self._by(goal, refs, linked, pos)
            case _:
                raise AssertionError(f"unhandled justification {just!r}")

    def _references(self, refs, linked: bool, pos: Pos) -> list[Formula]:
        premises: list[Formula] = []
        if linked:
            if self.links[-1] is None:
                self.errors.append(VerifyError(pos, 51))
            else:
                premises.append(self.links[-1])
        for name, rpos in refs:
            f = self.labels.get(name)
            if f is None:
                self.errors.append(VerifyError(rpos, 91))
            else:
                premises.append(f)
        return premises

    def _by(self, goal: Formula, refs, linked: bool, pos: Pos) -> None:
        premises = self._references(refs, linked, pos)
        eq = self.req.ids.Equality
        if eq is not None:
            for cid, t in self.defined:
                premises.append(Pred(eq, (const(cid), t)))
        premises.extend(self.scheme_premises)
        res = self.checker.justify(premises, goal, self.scope.const_types)
        if self.trace is not None:
            self._emit_trace(goal, res, pos)
        if res.too_large:
            self.errors.append(VerifyError(pos, 66))
        elif not res.accepted:
            self.errors.append(VerifyError(pos, 67 if res.limited else 61))

    def _new_const(self, name: str, ty: TypeExpr) -> int:
        c = len(self.scope.const_types)
        self.trail.write(self.scope.const_types, None, ty)
        self.trail.write(self.scope.consts, name, c)
        return c

    def _emit_trace(self, goal: Formula, res, pos: Pos) -> None:
        where = str(SourcePos(*pos))
        self.trace.extend(self.formatter.trace_input(where, mk_neg(goal)))
        prepared = res.prepared
        if prepared is None:
            return
        if isinstance(prepared, Neg) and isinstance(prepared.body, And):
            branches = [mk_neg(c) for c in prepared.body.conjuncts]
        else:
            branches = [prepared]
        for i, branch in enumerate(branches):
            self.trace.extend(self.formatter.trace_refuting(i, where, branch, res.skolems))

    def _from(self, goal: Formula, just: SFrom) -> None:
        scheme = self.schemes.get(just.scheme)
        if scheme is None:
            self.errors.append(VerifyError(just.pos, 91))
            return
        cited = self._references(just.refs, just.linked, just.pos)
        try:
            match_scheme(scheme, tuple(cited), goal)
        except SchemeMatchError as e:
            self.errors.append(VerifyError(just.pos, e.code))

    # -- proof walking ---------------------------------------------------------

    def walk_proof(
        self, thesis: Formula, steps, end_pos: Pos, case: tuple | None = None
    ) -> None:
        """Walk a block that must prove `thesis`.  In a case block, `case`
        is the block's condition (`SLabeled`) and its resolved formula:
        the first ``then`` links to it, and its label, bound inside the
        block, is dropped when the block ends."""
        with self.trail:
            self.trail.write(self.links, None, None)
            if case is not None:
                cond, self.links[-1] = case
                if cond.label:
                    self._bind(cond.label, self.links[-1], cond.formula.pos)
            for st in steps:
                try:
                    thesis = self._step(st, thesis)
                except MizarError as e:
                    self.errors.append(e.to_error())
                    self.links[-1] = None
            if not isinstance(thesis, FTrue):
                self.errors.append(VerifyError(end_pos, 70))

    def _step(self, st: SStep, thesis: Formula | None) -> Formula | None:
        """Check one step and return what is left of `thesis`.  A thesis
        of None is a diffuse block: the article, or a ``now`` for the
        steps `walk_now` does not handle itself."""
        match st:
            case StProp():
                self._proposition(st, thesis)
                return thesis
            case StThus():
                return self._discharge(self._proposition(st, thesis), thesis, st.pos)
            case StLet():
                return self._let(st, thesis)
            case StAssume():
                for f in self._assume(st, thesis):
                    thesis = self._consume(f, thesis, st.pos)
                return thesis
            case StTake() | StTakeEq():
                return self._take(st, thesis)
            case StConsider():
                self._witness(st, lambda claim: self.justify(claim, st.just, st.pos))
                return thesis
            case StGiven():
                return self._witness(st, lambda claim: self._consume(claim, thesis, st.pos))
            case StReconsider():
                ty = self.resolver.type_expr(st.ty)
                t = self.resolver.term(st.term)
                goal = Qual(t, ty)
                self.justify(goal, st.just, st.pos)
                self.trail.write(self.defined, None, (self._new_const(st.name, ty), t))
                self.links[-1] = goal
                return thesis
            case StPerCases():
                return self._per_cases(st, thesis)
            case StNow():
                export = self.walk_now(st.steps, st.end_pos)
                if st.label:
                    self._bind(st.label, export, st.pos)
                self.links[-1] = export
                return thesis
            case StDeffunc():
                self._private(st, self.resolver.term, self.scope.priv_funcs, "func")
                return thesis
            case StDefpred():
                self._private(st, self.resolver.formula, self.scope.priv_preds, "pred")
                return thesis
            case ItScheme():
                self._scheme_item(st)
                return thesis
            case ItDefinition():
                self._definition(st)
                return thesis
            case ItRegistration():
                self._registration(st)
                return thesis
        raise AssertionError(f"unhandled step {st!r}")

    # -- individual skeleton steps ---------------------------------------------

    def _proposition(self, st: StProp | StThus, thesis: Formula | None) -> Formula:
        """Resolve, justify and bind a stated proposition."""
        f = self._resolve(st.prop.formula, thesis)
        self.justify(f, st.just, st.pos)
        if st.prop.label:
            self._bind(st.prop.label, f, st.pos)
        self.links[-1] = f
        return f

    def _assume(self, st: StAssume, thesis: Formula | None) -> list[Formula]:
        """Resolve the conditions of an ``assume``, then bind their labels
        and link the next ``then`` to them; the conditions are returned.
        A condition that does not resolve aborts the whole step: no label
        is bound and nothing is assumed."""
        fs = [self._resolve(cond.formula, thesis) for cond in st.conds]
        for cond, f in zip(st.conds, fs):
            if cond.label:
                self._bind(cond.label, f, cond.formula.pos)
        self.links[-1] = mk_and(fs) if fs else None
        return fs

    def _let(self, st: StLet, thesis: Formula | None) -> Formula:
        """Fix a constant per name for the thesis's leading binders: binder
        i's type reads the first i, the body all of them, in one walk."""
        declared = self.resolver.type_expr(st.ty)
        consts: list[Term] = []
        for name in st.names:
            if not isinstance(thesis, ForAll):
                raise MizarError(st.pos, 51, "nothing left to generalize")
            ty = subst_bound(thesis.ty, 0, *consts)
            # fixing a variable at a supertype of the bound is fine; the
            # constant keeps the tighter thesis type either way
            if not self.db.subtype(ty, declared):
                self.errors.append(VerifyError(st.pos, 52))
            consts.append(const(self._new_const(name, ty)))
            thesis = thesis.body
        self.links[-1] = None
        return subst_bound(thesis, 0, *consts)

    def _rest_after(self, f: Formula, target: Formula) -> tuple[Formula, ...] | None:
        """The conjuncts of `target` left once those of `f` match a prefix
        of them, or None where they do not."""
        ps, cs = conjuncts(f), conjuncts(target)
        if len(ps) <= len(cs) and all(map(formula_equal, ps, cs)):
            return cs[len(ps) :]
        return None

    def _consume(self, a: Formula, thesis: Formula, pos: Pos) -> Formula:
        """Strip an assumption off the front of a negated conjunction."""
        if isinstance(thesis, Neg):
            rest = self._rest_after(a, thesis.body)
            if rest is not None:
                return mk_neg(mk_and(rest))
        if formula_equal(a, mk_neg(thesis)):
            return FALSE
        self.errors.append(VerifyError(pos, 71))
        return thesis

    def _discharge(self, f: Formula, thesis: Formula, pos: Pos) -> Formula:
        if formula_equal(f, thesis) or formula_equal(f, FALSE):
            return TRUE
        rest = self._rest_after(f, thesis)
        if rest:
            return mk_and(rest)
        self.errors.append(VerifyError(pos, 71))
        return TRUE

    def _take(self, st: StTake | StTakeEq, thesis: Formula | None) -> Formula:
        if not (isinstance(thesis, Neg) and isinstance(thesis.body, ForAll)):
            raise MizarError(st.pos, 51, "thesis is not existential")
        ty = thesis.body.ty
        t = self.resolver.term(st.term)
        if not self.db.subtype(self.type_of(t), ty):
            self.errors.append(VerifyError(st.pos, 52))
        if isinstance(st, StTakeEq):
            c = self._new_const(st.name, self.type_of(t))
            self.trail.write(self.defined, None, (c, t))
            t = const(c)
        self.links[-1] = None
        return mk_neg(subst_bound(thesis.body.body, 0, t))

    def _witness(self, st: StConsider | StGiven, settle):
        """Introduce the witness of ``consider`` or ``given``.  `settle`
        receives the existential claim before the witness exists (a
        consider justifies it, a given takes it off the thesis); its
        result is returned."""
        ty = self.resolver.type_expr(st.ty)
        with self.trail:
            self.trail.write(self.scope.bound_names, None, st.name)
            conds = [self._resolve(c.formula) for c in st.conds]
        out = settle(mk_exists(ty, mk_and(conds)))
        c = self._new_const(st.name, ty)
        inst = [subst_bound(f, 0, const(c)) for f in conds]
        for cond, fi in zip(st.conds, inst):
            if cond.label:
                self._bind(cond.label, fi, cond.formula.pos)
        self.links[-1] = mk_and(inst) if inst else Qual(const(c), ty)
        return out

    def _per_cases(self, st: StPerCases, thesis: Formula) -> Formula:
        conds = [self._resolve(b.cond.formula) for b in st.blocks]
        self.justify(mk_or(conds), st.just, st.pos)
        if st.kind == "suppose":
            for block, cf in zip(st.blocks, conds):
                self.walk_proof(thesis, block.steps, block.end_pos, (block.cond, cf))
            return TRUE
        # `case` blocks each prove one summand of a literal disjunction
        if isinstance(thesis, Neg) and isinstance(thesis.body, And):
            summands = [mk_neg(c) for c in thesis.body.conjuncts]
        else:
            summands = [thesis]
        if len(summands) != len(st.blocks):
            self.errors.append(VerifyError(st.pos, 71))
            summands = [TRUE] * len(st.blocks)
        for block, cf, summand in zip(st.blocks, conds, summands):
            rest = self._rest_after(cf, summand)
            if rest:
                block_thesis = mk_and(rest)
            else:
                self.errors.append(VerifyError(block.cond.formula.pos, 71))
                block_thesis = TRUE
            self.walk_proof(block_thesis, block.steps, block.end_pos, (block.cond, cf))
        return TRUE

    # -- diffuse blocks -----------------------------------------------------

    def walk_now(self, steps, end_pos: Pos) -> Formula:
        """Walk a ``now`` and return what it proved.  Only ``let``,
        ``assume`` and ``thus`` act differently here, recording the
        export; steps that need a thesis are rejected."""
        first_fresh = len(self.scope.const_types)
        exports: list[tuple] = []  # ("let", cid, ty, level) | ("assume"/"thus", f, depth)
        lets_seen = 0
        with self.trail:
            self.trail.write(self.links, None, None)
            for st in steps:
                try:
                    match st:
                        case StLet():
                            ty = self.resolver.type_expr(st.ty)
                            for name in st.names:
                                c = self._new_const(name, ty)
                                exports.append(("let", c, ty, lets_seen))
                                lets_seen += 1
                            self.links[-1] = None
                        case StAssume():
                            exports += [("assume", f, lets_seen) for f in self._assume(st, None)]
                        case StThus():
                            exports.append(("thus", self._proposition(st, None), lets_seen))
                        case StTake() | StTakeEq() | StGiven() | StPerCases():
                            raise MizarError(st.pos, 51, "step needs a thesis to act on")
                        case _:
                            self._step(st, None)
                except MizarError as e:
                    self.errors.append(e.to_error())
                    self.links[-1] = None
            fresh = range(first_fresh, len(self.scope.const_types))  # before the block drops them
        acc: Formula | None = None
        for entry in reversed(exports):
            match entry:
                case ("thus", f, depth):
                    f = shift_up(f, depth)
                    acc = f if acc is None else mk_and([f, acc])
                case ("assume", f, depth):
                    if acc is not None:
                        acc = mk_imp(shift_up(f, depth), acc)
                case ("let", cid, ty, level):
                    if acc is not None:
                        acc = ForAll(ty, replace_term(acc, const(cid), bound(level)))
        if acc is None:
            self.errors.append(VerifyError(end_pos, 70))
            return TRUE
        for cid in fresh:
            if uses_const(acc, cid):
                # a consider/reconsider constant escaped its block
                self.errors.append(VerifyError(end_pos, 51))
                return TRUE
        return acc

    # -- private definitions ---------------------------------------------------

    def _priv_types(self, arg_types) -> tuple[TypeExpr, ...]:
        return tuple(self.resolver.type_expr(t) for t in arg_types)

    def _private(self, st: StDeffunc | StDefpred, resolve, table: dict, kind: str) -> None:
        """Elaborate ``deffunc`` or ``defpred``: `resolve` reads the body
        with the ``$`` arguments typed, and `table` records it."""
        tys = self._priv_types(st.arg_types)
        body = self._resolving(resolve, st.body, "dollar_types", tys)
        self.trail.write(table, st.name, PrivDef(self.scope.fresh_priv(kind), tys, body))

    # -- schemes ------------------------------------------------------------------

    def _scheme_item(self, it: ItScheme) -> None:
        func_arities: list[int] = []
        pred_arities: list[int] = []
        with self.trail:  # the placeholders and provided labels end with the item
            for sig in it.sigs:
                tys = self._priv_types(sig.arg_types)
                if sig.kind == "func":
                    result = self.resolver.type_expr(sig.result)
                    fid = len(func_arities)
                    self.trail.write(self.scope.scheme_funcs, sig.name, (fid, tys, result))
                    self.trail.write(self.scheme_results, fid, result)
                    # let the checker type applications of the placeholder
                    typed: Formula = Qual(
                        SchemeFunctorApp(fid, tuple(bound(i) for i in range(len(tys)))),
                        result,
                    )
                    for i in reversed(range(len(tys))):
                        typed = ForAll(tys[i], typed)
                    self.trail.write(self.scheme_premises, None, typed)
                    func_arities.append(len(tys))
                else:
                    self.trail.write(self.scope.scheme_preds, sig.name, (len(pred_arities), tys))
                    pred_arities.append(len(tys))
            statement = self._resolve(it.statement)
            premises = []
            for p in it.provided:
                f = self._resolve(p.formula)
                if p.label:
                    self._bind(p.label, f, p.formula.pos)
                premises.append(f)
            self.walk_proof(statement, it.steps, it.end_pos)
        if it.name in self.schemes:
            self.errors.append(VerifyError(it.pos, 93))
        else:
            self.schemes[it.name] = Scheme(
                it.name,
                tuple(func_arities),
                tuple(pred_arities),
                tuple(premises),
                statement,
            )

    # -- definitions ---------------------------------------------------------------

    def _loci(self, lets) -> list[str]:
        names: list[str] = []
        for group in lets:
            for name in group.names:
                ty = self.resolver.type_expr(group.ty)
                self.trail.write(self.scope.loci, name, len(self.loci_types))
                self.trail.write(self.loci_types, None, ty)
                names.append(name)
        return names

    def _close_loci(self, f: Formula, types: list[TypeExpr]) -> Formula:
        bs = tuple(bound(i) for i in range(len(types)))
        body = subst_loci(f, bs)
        for i in range(len(types) - 1, -1, -1):
            body = ForAll(subst_loci(types[i], bs), body)
        return body

    def _locus_args(self, arity: int) -> tuple[Term, ...]:
        return tuple(locus(i) for i in range(arity))

    def _definition(self, it: ItDefinition) -> None:
        """Elaborate a definition and check its correctness conditions in
        one block, then publish what its ``_def_*`` returned: a name
        table, the key, the constructor and the label's fact (or None),
        which its own conditions therefore cannot use."""
        with self.trail:
            names = self._loci(it.lets)
            match it.body:
                case DefAttr():
                    needed, published = self._def_attr(it.body, names, it.pos)
                case DefMode():
                    needed, published = self._def_mode(it.body, names, it.pos)
                case DefFunc():
                    needed, published = self._def_func(it.body, names, it.pos)
                case DefPred():
                    needed, published = self._def_pred(it.body, names, it.pos)
                case _:
                    raise AssertionError(it.body)
            self._correctness(it, needed)
        table, key, ident, fact = published
        table[key] = ident
        if fact is not None:
            self._bind(it.body.def_label, fact, it.pos)

    def _correctness(self, it, needed: dict[str, Formula]) -> None:
        for sc in it.correctness:
            goal = needed.pop(sc.kind, None)
            if goal is None:
                self.errors.append(VerifyError(sc.pos, 51))
                continue
            self.justify(goal, sc.just, sc.pos)
        for _kind in needed:
            self.errors.append(VerifyError(it.pos, 70))

    def _def_attr(self, body: DefAttr, names: list[str], pos: Pos) -> tuple[dict, tuple]:
        arity = len(names) - 1
        if arity < 0 or names[-1] != body.subject:
            raise MizarError(pos, 90, "the subject must be the last locus")
        expected = 1 if body.arg is not None else 0
        if arity != expected:
            raise MizarError(pos, 92, "attribute arguments must match the loci")
        if body.arg is not None and names[0] != body.arg:
            raise MizarError(pos, 90, "the visible argument must be the first locus")
        definiens = self._resolve(body.definiens)
        aid = self.db.fresh_id("attr")
        self.db.attrs[aid] = AttrDef(arity, self.loci_types[arity], definiens, body.expandable)
        head = Is(locus(arity), Attr(True, aid, self._locus_args(arity)))
        fact = self._close_loci(mk_iff(head, definiens), self.loci_types) if body.def_label else None
        return {}, (self.scope.attr_names, body.name, (aid, arity), fact)

    def _def_mode(self, body: DefMode, names: list[str], pos: Pos) -> tuple[dict, tuple]:
        if tuple(names) != body.args:
            raise MizarError(pos, 90, "mode arguments must match the loci")
        arity = len(names)
        if arity > 1:
            raise MizarError(pos, 92, "a mode takes at most one argument")
        parent = self.resolver.type_expr(body.parent)
        definiens = None
        if body.definiens is not None:
            definiens = self._resolving(self.resolver.formula, body.definiens, "it_term", locus(arity))
        mid = self.db.fresh_id("mode")
        self.db.modes[mid] = ModeDef(arity, parent, definiens, body.expandable)
        mode_ty = TypeExpr(frozenset(), mid, self._locus_args(arity))
        needed: dict[str, Formula] = {}
        if definiens is not None:
            inner = subst_loci(definiens, self._locus_args(arity) + (bound(arity),))
            needed["existence"] = self._close_loci(mk_exists(parent, inner), self.loci_types)
            fact = mk_iff(Qual(locus(arity), mode_ty), definiens)
        else:
            fact = mk_imp(Qual(locus(arity), mode_ty), Qual(locus(arity), parent))
        fact = self._close_loci(fact, self.loci_types + [parent]) if body.def_label else None
        return needed, (self.scope.mode_names, body.name, (mid, arity), fact)

    def _def_func(self, body: DefFunc, names: list[str], pos: Pos) -> tuple[dict, tuple]:
        if tuple(names) != body.args:
            raise MizarError(pos, 90, "functor arguments must match the loci")
        arity = len(names)
        result = self.resolver.type_expr(body.result)
        args = self._locus_args(arity)
        needed: dict[str, Formula] = {}
        if body.equals is not None:
            term = self.resolver.term(body.equals)
            fid = self.db.fresh_id("func")
            self.db.funcs[fid] = FuncDef(arity, result)
            needed["coherence"] = self._close_loci(Qual(term, result), self.loci_types)
            fact = Pred(self._eq_pred(pos), (FunctorApp(fid, args), term))
        else:
            definiens = self._resolving(self.resolver.formula, body.means, "it_term", locus(arity))
            fid = self.db.fresh_id("func")
            self.db.funcs[fid] = FuncDef(arity, result)
            inner = subst_loci(definiens, args + (bound(arity),))
            needed["existence"] = self._close_loci(mk_exists(result, inner), self.loci_types)
            eq = self._eq_pred(pos)
            second = subst_loci(definiens, args + (locus(arity + 1),))
            same = Pred(eq, (locus(arity), locus(arity + 1)))
            needed["uniqueness"] = self._close_loci(
                mk_imp(mk_and([definiens, second]), same),
                self.loci_types + [result, result],
            )
            fact = subst_loci(definiens, args + (FunctorApp(fid, args),))
        fact = self._close_loci(fact, self.loci_types) if body.def_label else None
        return needed, (self.scope.func_names, (body.name, arity), fid, fact)

    def _def_pred(self, body: DefPred, names: list[str], pos: Pos) -> tuple[dict, tuple]:
        if tuple(names) != body.args:
            raise MizarError(pos, 90, "predicate arguments must match the loci")
        arity = len(names)
        definiens = self._resolve(body.definiens)
        pid = self.db.fresh_id("pred")
        self.db.preds[pid] = PredDef(arity, definiens, body.expandable)
        fact = mk_iff(Pred(pid, self._locus_args(arity)), definiens)
        fact = self._close_loci(fact, self.loci_types) if body.def_label else None
        return {}, (self.scope.pred_names, (body.name, arity), pid, fact)

    # -- cluster registrations ----------------------------------------------------

    def _registration(self, it: ItRegistration) -> None:
        if it.lets:
            raise MizarError(it.pos, 90, "cluster registrations take no parameters")
        match it.body:
            case RegExistential():
                ty = self.resolver.type_expr(it.body.ty)
                base = TypeExpr(frozenset(), ty.mode, ty.args)
                goal = mk_exists(
                    base, mk_and([mk_is(bound(0), a) for a in sorted_attrs(ty.lower)])
                )
                self._correctness(it, {"existence": goal})
                self.db.existential.append(ty)
            case RegFunctor():
                t = self.resolver.term(it.body.term)
                attrs = frozenset(self.resolver.adjective(a) for a in it.body.adjs)
                goal = mk_and([mk_is(t, a) for a in sorted_attrs(attrs)])
                self._correctness(it, {"coherence": goal})
                self.db.functor_clusters.append(FunctorCluster(t, attrs))
            case RegConditional():
                guard = frozenset(self.resolver.adjective(a) for a in it.body.guard)
                target = frozenset(self.resolver.adjective(a) for a in it.body.target)
                ty = self.resolver.type_expr(it.body.ty)
                subject = TypeExpr(ty.lower | guard, ty.mode, ty.args)
                goal = ForAll(
                    subject, mk_and([mk_is(bound(0), a) for a in sorted_attrs(target)])
                )
                self._correctness(it, {"coherence": goal})
                self.db.conditional.append(ConditionalCluster(guard, target, ty))
            case _:
                raise AssertionError(it.body)

    # -- term typing --------------------------------------------------------------

    def type_of(self, t: Term) -> TypeExpr:
        req, db = self.req, self.db
        match t:
            case Var(VarKind.CONST, i):
                return self.scope.const_types[i]
            case Var(VarKind.LOCUS, i):
                if i < len(self.loci_types):
                    return self.loci_types[i]
                return req.set_type()
            case Numeral(v):
                # the adjectives the value has, not those it lacks
                base = req.numeral_type()
                more = frozenset(Attr(True, aid) for s, aid in req.value_attrs(ComplexRational.from_int(v)) if s)
                return TypeExpr(base.lower | more, base.mode, base.args)
            case FunctorApp(_, _):
                ty = db.result_type(t.func, t.args)
                for fc in db.functor_clusters:
                    if fc.term == t:
                        ty = TypeExpr(ty.lower | fc.attrs, ty.mode, ty.args)
                return ty
            case PrivFunc(_, _, exp):
                return self.type_of(exp)
            case SchemeFunctorApp(fid, _):
                return self.scheme_results.get(fid, req.set_type())
            case Choice(ty):
                return ty
            case Fraenkel():
                return req.set_type()
            case Var(_, _):
                return req.set_type()
        raise TypeError(t)
