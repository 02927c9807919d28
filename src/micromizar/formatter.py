"""Kernel terms, types and formulas printed as article text.

The text is the syntax `parser` reads, and it reads back: in the scope
where a formula was built, ``resolve(parse(print(f))) == f``.

Spellings come from the live `Scope` and the resolver's ``BUILTIN_*``
tables, and one is used only where the resolver reads it back as the
same node.  Levels the formula binds are named ``b<level>``.  What has
no spelling (a constructor whose name a later definition took, a
constant whose name was reused) gets an indexed name such as ``K7``.
An indexed name or a binder's takes a trailing ``_`` until nothing in
scope is called that: a binder captures nothing, and a fallback reads
back as nothing.  The builtin ``Zero`` prints as ``0``, which reads back
as the numeral.

A negation prints through the sugar the resolver builds back into the
same node: ``ex`` for ``not for``, ``implies`` and ``or`` for a negated
conjunction, ``not contradiction`` for truth.

A ``by`` step's trace is article text too: a ``::`` comment naming each
formula, then the formula on one line ending in ``;``.  A clause's
skolem constants are bound by an ``ex`` in front of it.
"""

from __future__ import annotations

from .errors import MizarError
from .logic import (
    And,
    Attr,
    Choice,
    FlexAnd,
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
    PrivPred,
    Qual,
    SchemeFunctorApp,
    SchemePred,
    Term,
    TypeExpr,
    Var,
    VarKind,
    bound,
    map_terms,
    mk_and,
    mk_exists,
    mk_neg,
    shift_up,
    sorted_attrs,
)
from .parser import BINARY_LEVELS
from .resolver import BUILTIN_ATTRS, BUILTIN_FUNCS, BUILTIN_MODES, BUILTIN_PREDS, Resolver

# builtin spellings, keyed by requirement name: the resolver's tables
# inverted, and ``Zero``, which is read back as the numeral
_FUNCS = {rname: op for (op, _), rname in BUILTIN_FUNCS.items()} | {"Zero": "0"}
_PREDS = {rname: op for (op, _), rname in BUILTIN_PREDS.items()}
_ATTRS = {rname: name for name, rname in BUILTIN_ATTRS.items()}
_MODES = {rname: name for name, (rname, _) in BUILTIN_MODES.items()}
_BUILTIN_NAMES = {op for op, _ in [*BUILTIN_FUNCS, *BUILTIN_PREDS]} | {*BUILTIN_ATTRS, *BUILTIN_MODES, "Nat"}

# binding strength, loosest first.  A term: ``the T of t`` swallows what
# follows it, then `BINARY_LEVELS`, a prefix operator, a postfix ``"``
# and a primary term.  A formula: a quantifier swallows what follows it,
# then ``implies``, ``or``, ``&`` and a unary formula.
OPEN, PREFIX, POSTFIX, PRIMARY = -1, 3, 4, 5
QUANT, IMP, OR, AND, UNARY = 0, 1, 2, 3, 4

_AT = (0, 0)  # the position of a spelling the printer tries on the resolver


class Formatter:
    """Prints kernel nodes in the live `scope`, as of the call.  While it
    prints under a binder, the binder's name is in ``scope.bound_names``,
    as it is while the resolver reads the text back."""

    def __init__(self, scope):
        self.scope = scope
        self.resolver = Resolver(scope)

    def _start(self) -> None:
        """Read the spellings from the scope, as they are now."""
        sc = self.scope
        self._funcs, self._preds, self._attrs, self._modes = (
            {sc.req.cid(rname): s for rname, s in table.items() if sc.req.present(rname)}
            for table in (_FUNCS, _PREDS, _ATTRS, _MODES)
        )
        self._taken = {
            *sc.consts, *sc.loci, *sc.bound_names, *sc.priv_funcs, *sc.priv_preds,
            *sc.scheme_funcs, *sc.scheme_preds, *sc.attr_names, *sc.mode_names,
            *(name for name, _ in sc.func_names), *(name for name, _ in sc.pred_names),
            *_BUILTIN_NAMES,
        }

    def format_term(self, t: Term) -> str:
        self._start()
        return self._print(t, OPEN)

    def format_formula(self, f: Formula) -> str:
        self._start()
        return self._print(f, QUANT)

    def trace_input(self, where: str, negated_goal: Formula) -> list[str]:
        return [f":: input @ {where}", self.format_formula(negated_goal) + ";"]

    def trace_refuting(self, index: int, where: str, f: Formula, skolems: list[tuple[int, TypeExpr]]) -> list[str]:
        """Clause `index` of the step at `where`, its skolem constants
        (id, type) bound by an ``ex`` in front of it."""
        depth, k = len(self.scope.bound_names), len(skolems)
        level = {cid: depth + i for i, (cid, _) in enumerate(skolems)}

        def bind(n):
            if type(n) is Var and n.kind is VarKind.CONST and n.index in level:
                return bound(level[n.index])
            return None

        closed = map_terms(shift_up(f, k, depth), bind)
        for _, ty in reversed(skolems):
            closed = mk_exists(map_terms(ty, bind), closed)
        return [f":: refuting {index} @ {where}", self.format_formula(closed) + ";"]

    # -- names ------------------------------------------------------------

    def _fresh(self, stem: str) -> str:
        while stem in self._taken:
            stem += "_"
        return stem

    def _reads_back(self, name: str, t: Term, args: tuple[Term, ...] | None = None) -> bool:
        """Does the resolver read `name`, applied to `args` or else bare,
        as `t` here?  The binders being printed are bound in the scope
        meanwhile, as they are when the text is read back."""
        try:
            got = self.resolver.name_term(name, _AT) if args is None else self.resolver.apply(name, args, _AT)
        except MizarError:
            return False
        return got == t

    def _var(self, t: Var) -> str:
        kind, i = t.kind, t.index
        sc = self.scope
        if kind is VarKind.BOUND and i < len(sc.bound_names) and self._reads_back(sc.bound_names[i], t):
            return sc.bound_names[i]
        if kind is VarKind.LOCUS:
            if sc.context["it_term"] == t:
                return "it"
            tys = sc.context["dollar_types"]
            if tys is not None and i < len(tys):
                return f"${i + 1}"
        names = sc.consts if kind is VarKind.CONST else sc.loci if kind is VarKind.LOCUS else {}
        for name, ident in names.items():
            if ident == i and self._reads_back(name, t):
                return name
        return self._fresh(f"{kind.value[0]}{i}")

    def _print(self, node: Term | Formula, need: int) -> str:
        """`node`, parenthesized if it binds looser than `need`."""
        text, level = self._term_at(node) if isinstance(node, Term) else self._formula_at(node)
        return text if level >= need else f"({text})"

    def _bound(self, tys, body) -> tuple[str, str]:
        """Name and bind one level per type in `tys`, each type read with
        the earlier ones bound, and print `body()` under them all."""
        sc = self.scope
        depth = len(sc.bound_names)
        try:
            out = []
            for ty in tys:
                text = self._type(ty)
                sc.bound_names.append(self._fresh(f"b{len(sc.bound_names)}"))
                out.append(f"{sc.bound_names[-1]} being {text}")
            return ", ".join(out), body()
        finally:
            del sc.bound_names[depth:]

    # -- terms ------------------------------------------------------------

    def _args(self, args: tuple[Term, ...]) -> str:
        return ", ".join(self._print(a, OPEN) for a in args)

    def _apply(self, name: str, args: tuple[Term, ...]) -> tuple[str, int]:
        return (f"{name}({self._args(args)})" if args else name), PRIMARY

    def _term_at(self, t: Term) -> tuple[str, int]:
        match t:
            case Var():
                return self._var(t), PRIMARY
            case Numeral(v):
                return str(v), PRIMARY
            case FunctorApp(fid, args):
                return self._functor(t, fid, args)
            case PrivFunc(fid, args, _):
                return self._local(t, "H", [s for s, d in self.scope.priv_funcs.items() if d.ident == fid])
            case SchemeFunctorApp(fid, args):
                return self._local(t, "F", [s for s, d in self.scope.scheme_funcs.items() if d[0] == fid])
            case Choice(ty):
                return f"the {self._type(ty)}", OPEN if ty.args else PRIMARY
            case Fraenkel(binders, body, guard):
                bs, inner = self._bound(binders, lambda: (self._print(body, OPEN), self._print(guard, QUANT)))
                return f"{{ {inner[0]} where {bs} : {inner[1]} }}", PRIMARY
        raise TypeError(t)

    def _local(self, t: PrivFunc | SchemeFunctorApp, stem: str, names: list[str]) -> tuple[str, int]:
        """`t` under the first of `names` that reads back as it."""
        name = next((s for s in names if self._reads_back(s, t, t.args)), None) or self._fresh(f"{stem}{t.func}")
        return f"{name}({self._args(t.args)})", PRIMARY

    def _functor(self, t: FunctorApp, fid: int, args: tuple[Term, ...]) -> tuple[str, int]:
        def fits(name: str) -> bool:  # a nullary identifier is read bare
            return self._reads_back(name, t, None if not args and name.isidentifier() else args)

        n = len(args)
        for (name, arity), ident in self.scope.func_names.items():
            if ident == fid and arity == n and fits(name):
                return self._apply(name, args)
        op = self._funcs.get(fid)
        if op == "0":
            return op, PRIMARY
        if op is not None and fits(op):
            if n == 2:
                level = BINARY_LEVELS[op]
                return f"{self._print(args[0], level)} {op} {self._print(args[1], level + 1)}", level
            if op == '"':
                return f'{self._print(args[0], PRIMARY)}"', POSTFIX
            if n == 1:
                return f"{op}{' ' if op.isalpha() else ''}{self._print(args[0], PREFIX)}", PREFIX
            return op, PRIMARY
        return self._apply(self._fresh(f"K{fid}"), args)

    # -- types ------------------------------------------------------------

    def _spelled(self, names: dict, ident: int, builtin: dict, stem: str) -> str:
        """An adjective's or a mode's name: the user's, else the builtin
        one unless a user name shadows it, else an indexed one.  ``Nat``
        reads back as a type of its own."""
        name = next((s for s, (i, _) in names.items() if i == ident), None)
        if name is None and builtin.get(ident) not in names:
            name = builtin.get(ident)
        return self._fresh(f"{stem}{ident}") if name in (None, "Nat") else name

    def _attr(self, a: Attr) -> str:
        name = self._spelled(self.scope.attr_names, a.attr_id, self._attrs, "V")
        arg = ""
        for t in a.args:  # bare only a name or a numeral; ``it`` is a keyword
            arg = self._print(t, OPEN)
            arg = f"{arg}-" if type(t) in (Var, Numeral) and arg != "it" else f"({arg})-"
        return f"{'' if a.positive else 'non '}{arg}{name}"

    def _type(self, ty: TypeExpr) -> str:
        name = self._spelled(self.scope.mode_names, ty.mode, self._modes, "M")
        words = [self._attr(a) for a in sorted_attrs(ty.lower)] + [name]
        if ty.args:
            words += ["of", self._args(ty.args)]
        return " ".join(words)

    # -- formulas ---------------------------------------------------------

    def _quantified(self, word: str, f: ForAll, sep: str, negate: bool) -> tuple[str, int]:
        tys = []
        while type(f) is ForAll:
            tys.append(f.ty)
            f = f.body
        bs, body = self._bound(tys, lambda: self._print(mk_neg(f) if negate else f, QUANT))
        return f"{word} {bs} {sep} {body}", QUANT

    def _formula_at(self, f: Formula) -> tuple[str, int]:
        match f:
            case Pred(pid, args):
                return self._pred(pid, args), UNARY
            case Is(t, a):
                return f"{self._print(t, OPEN)} is {self._attr(a)}", UNARY
            case Qual(t, ty):
                return f"{self._print(t, OPEN)} is {self._type(ty)}", UNARY
            case ForAll():
                return self._quantified("for", f, "holds", False)
            case And(cs):
                return " & ".join(self._print(c, UNARY) for c in cs), AND
            case Neg(FTrue()):
                return "contradiction", UNARY
            case Neg(ForAll() as body):
                return self._quantified("ex", body, "st", True)
            case Neg(And(cs)):
                m = 0
                while m < len(cs) and type(cs[-1 - m]) is Neg:
                    m += 1
                if m == len(cs):
                    return " or ".join(self._print(c.body, AND) for c in cs), OR
                cut = len(cs) - max(m, 1)
                lhs = self._print(mk_and(cs[:cut]), OR)
                return f"{lhs} implies {self._print(mk_neg(mk_and(cs[cut:])), IMP)}", IMP
            case Neg(body):
                return f"not {self._print(body, UNARY)}", UNARY
            case FlexAnd(fx):
                return f"{self._print(fx.inst_lo, UNARY)} & ... & {self._print(fx.inst_hi, UNARY)}", AND
            case PrivPred(pid, args, _):
                name = next((s for s, d in self.scope.priv_preds.items() if d.ident == pid), None)
                return f"{name or self._fresh(f'S{pid}')}[{self._args(args)}]", UNARY
            case SchemePred(pid, args):  # a private name shadows a scheme's
                sc = self.scope
                name = next((s for s, d in sc.scheme_preds.items() if d[0] == pid and s not in sc.priv_preds), None)
                return f"{name or self._fresh(f'P{pid}')}[{self._args(args)}]", UNARY
            case FTrue():
                return "not contradiction", UNARY
        raise TypeError(f)

    def _pred(self, pid: int, args: tuple[Term, ...]) -> str:
        n = len(args)
        name = next((s for (s, arity), ident in self.scope.pred_names.items() if ident == pid and arity == n), None)
        if name is not None and (name, n) not in BUILTIN_PREDS:
            return self._apply(name, args)[0]
        op = self._preds.get(pid)
        if op is not None and n == 2:
            return f"{self._print(args[0], OPEN)} {op} {self._print(args[1], OPEN)}"
        return self._apply(self._fresh(f"R{pid}"), args)[0]
