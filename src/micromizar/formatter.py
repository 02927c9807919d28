"""Rendering internal formulas back into readable text.

The core language stores everything negation-normally with de Bruijn
levels, which is the worst possible shape for a human reading a debug
trace.  This module undoes both: bound variables print as b0, b1, ...
by level, and negations are pushed back out into implication and
disjunction sugar.  A negated conjunction whose trailing conjuncts are
themselves negated prints as "A ∧ B → C ∨ D"; a negated universal
prints as an existential.

Spellings come from the live name tables, so user-defined functors and
attributes print the way the article wrote them.  Anything without a
spelling falls back to an indexed form (K7, R4, V2, M1) so distinct
constructors never collide.

Levels are absolute, so bound(i) always prints as b{base+i} no matter
where it sits; `depth` (the number of binders enclosing the point being
rendered) is threaded only to name freshly introduced binders.  `base`
shifts the whole naming scheme up, used when a clause's outer binders
were already skolemized away and their constants print as b0..b{k-1}.
"""

from __future__ import annotations

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
    ThesisMarker,
    TypeExpr,
    Var,
    VarKind,
    conjuncts,
    sorted_attrs,
)
from .resolver import BUILTIN_ATTRS, BUILTIN_FUNCS, BUILTIN_MODES, BUILTIN_PREDS

# builtin spellings, keyed by requirement name: the resolver's tables
# inverted, plus what only printing needs (``Inv`` is a postfix, and
# ``Zero`` prints as 0)
_FUNCS = {rname: (("atom", "prefix", "infix")[n], op) for (op, n), rname in BUILTIN_FUNCS.items()}
_FUNCS.update(Inv=("postfix", '"'), Zero=("atom", "0"))
_PREDS = {rname: ("infix", op) for (op, _), rname in BUILTIN_PREDS.items()}
_ATTRS = {rname: name for name, rname in BUILTIN_ATTRS.items()}
_MODES = {rname: name for name, (rname, _) in BUILTIN_MODES.items()}

WIDTH = 78


class Formatter:
    """Stateless renderer over a live resolution scope.

    ``names`` maps constant indices to display names (used to show
    skolem constants as the bound variables they stand for); any
    constant not in the map prints as cN.
    """

    def __init__(self, scope):
        self.scope = scope
        self.req = scope.req

    # -- spelling lookups (live: definitions added later still resolve) --

    def _builtin(self, table: dict, ident: int):
        for rname, spelling in table.items():
            if self.req.cid(rname) == ident:
                return spelling
        return None

    def _func_spelling(self, fid: int) -> tuple[str, str]:
        for (name, _arity), ident in self.scope.func_names.items():
            if ident == fid:
                return "plain", name
        return self._builtin(_FUNCS, fid) or ("indexed", f"K{fid}")

    def _pred_spelling(self, pid: int) -> tuple[str, str]:
        for (name, _arity), ident in self.scope.pred_names.items():
            if ident == pid:
                return "plain", name
        return self._builtin(_PREDS, pid) or ("indexed", f"R{pid}")

    def _attr_spelling(self, aid: int) -> str:
        for name, (ident, _arity) in self.scope.attr_names.items():
            if ident == aid:
                return name
        return self._builtin(_ATTRS, aid) or f"V{aid}"

    def _mode_spelling(self, mid: int) -> str:
        for name, (ident, _arity) in self.scope.mode_names.items():
            if ident == mid:
                return name
        return self._builtin(_MODES, mid) or f"M{mid}"

    # -- terms ----------------------------------------------------------

    def format_term(
        self, t: Term, names: dict[int, str] | None = None, base: int = 0, depth: int = 0
    ) -> str:
        return self._term(t, names or {}, base, depth)

    def _term(self, t: Term, names, base: int, depth: int) -> str:
        match t:
            case Var(VarKind.BOUND, i):
                return f"b{base + i}"
            case Var(VarKind.CONST, i):
                return names.get(i, f"c{i}")
            case Var(VarKind.LOCUS, i):
                return f"${i + 1}"
            case Var(_, i):
                return f"?{i}"
            case Numeral(v):
                return str(v)
            case FunctorApp(fid, args):
                kind, op = self._func_spelling(fid)
                parts = [self._term(a, names, base, depth) for a in args]
                if kind == "infix" and len(parts) == 2:
                    return f"({parts[0]} {op} {parts[1]})"
                if kind == "prefix" and len(parts) == 1:
                    return f"({op} {parts[0]})"
                if kind == "postfix" and len(parts) == 1:
                    return f"({parts[0]} {op})"
                if not parts:
                    return op
                return f"{op}({', '.join(parts)})"
            case PrivFunc(fid, args, _):
                parts = ", ".join(self._term(a, names, base, depth) for a in args)
                return f"H{fid}({parts})"
            case SchemeFunctorApp(fid, args):
                parts = ", ".join(self._term(a, names, base, depth) for a in args)
                return f"F{fid}({parts})"
            case Choice(ty):
                return f"the {self._type(ty, names, base, depth)}"
            case Fraenkel(binders, body, guard):
                bs = ", ".join(
                    f"b{base + depth + i}: {self._type(ty, names, base, depth + i)}"
                    for i, ty in enumerate(binders)
                )
                inner = depth + len(binders)
                return (
                    "{ "
                    + self._term(body, names, base, inner)
                    + f" where {bs} : "
                    + self._fmt(guard, names, base, inner)
                    + " }"
                )
        raise TypeError(t)

    def _fmt_attr(self, a: Attr, names, base, depth) -> str:
        sign = "" if a.positive else "non "
        arg = f"{self._term(a.args[0], names, base, depth)}-" if a.args else ""
        return f"{sign}{arg}{self._attr_spelling(a.attr_id)}"

    def _type(self, ty: TypeExpr, names, base: int, depth: int) -> str:
        attrs = [self._fmt_attr(a, names, base, depth) for a in sorted_attrs(ty.lower)]
        mode = self._mode_spelling(ty.mode)
        if ty.args:
            args = ", ".join(self._term(t, names, base, depth) for t in ty.args)
            mode = f"{mode} of {args}"
        return " ".join(attrs + [mode])

    # -- formulas ---------------------------------------------------------

    def format_formula(
        self, f: Formula, names: dict[int, str] | None = None, base: int = 0, depth: int = 0
    ) -> str:
        return self._fmt(f, names or {}, base, depth)

    def _collect_foralls(self, f: Formula) -> tuple[list[TypeExpr], Formula]:
        tys: list[TypeExpr] = []
        while isinstance(f, ForAll):
            tys.append(f.ty)
            f = f.body
        return tys, f

    def _binder_list(self, tys: list[TypeExpr], names, base: int, depth: int) -> str:
        return ", ".join(
            f"b{base + depth + i}: {self._type(ty, names, base, depth + i)}"
            for i, ty in enumerate(tys)
        )

    def _fmt(self, f: Formula, names, base: int, depth: int) -> str:
        match f:
            case FTrue():
                return "⊤"
            case ThesisMarker():
                return "thesis"
            case Neg(FTrue()):
                return "⊥"
            case Neg(ForAll() as body):
                tys, tail = self._collect_foralls(body)
                inner = depth + len(tys)
                if isinstance(tail, Neg):
                    rendered = self._fmt(tail.body, names, base, inner)
                else:
                    rendered = "¬" + self._fmt(tail, names, base, inner)
                return f"(∃ {self._binder_list(tys, names, base, depth)} st {rendered})"
            case Neg(And(cs)):
                m = 0
                while m < len(cs) and isinstance(cs[len(cs) - 1 - m], Neg):
                    m += 1
                if m == len(cs):
                    return (
                        "("
                        + " ∨ ".join(self._fmt(c.body, names, base, depth) for c in cs)
                        + ")"
                    )
                if m == 0:
                    lhs, rhs = cs[:-1], ["¬" + self._fmt(cs[-1], names, base, depth)]
                else:
                    lhs = cs[:-m]
                    rhs = [self._fmt(c.body, names, base, depth) for c in cs[-m:]]
                left = " ∧ ".join(self._fmt(c, names, base, depth) for c in lhs)
                return f"({left} → {' ∨ '.join(rhs)})"
            case Neg(b):
                return "¬" + self._fmt(b, names, base, depth)
            case And(cs):
                return "(" + " ∧ ".join(self._fmt(c, names, base, depth) for c in cs) + ")"
            case ForAll():
                tys, tail = self._collect_foralls(f)
                inner = depth + len(tys)
                return (
                    f"(∀ {self._binder_list(tys, names, base, depth)} st "
                    + self._fmt(tail, names, base, inner)
                    + ")"
                )
            case FlexAnd(fx):
                lo = self._fmt(fx.inst_lo, names, base, depth)
                hi = self._fmt(fx.inst_hi, names, base, depth)
                return f"({lo} ∧ ... ∧ {hi})"
            case Pred(pid, args):
                kind, op = self._pred_spelling(pid)
                parts = [self._term(a, names, base, depth) for a in args]
                if kind == "infix" and len(parts) == 2:
                    return f"({parts[0]} {op} {parts[1]})"
                if not parts:
                    return op
                return f"{op}({', '.join(parts)})"
            case SchemePred(pid, args):
                parts = ", ".join(self._term(a, names, base, depth) for a in args)
                return f"P{pid}[{parts}]"
            case PrivPred(pid, args, _):
                parts = ", ".join(self._term(a, names, base, depth) for a in args)
                return f"S{pid}[{parts}]"
            case Is(t, a):
                return (
                    f"({self._term(t, names, base, depth)} is "
                    + self._fmt_attr(a, names, base, depth)
                    + ")"
                )
            case Qual(t, ty):
                return (
                    f"({self._term(t, names, base, depth)} is "
                    + self._type(ty, names, base, depth)
                    + ")"
                )
        raise TypeError(f)

    # -- multi-line layout for the debug trace -----------------------------

    def _conjunction_lines(self, parts: list[str], indent: int) -> list[str]:
        pad = " " * indent
        inline = pad + " ∧ ".join(parts)
        if len(inline) <= WIDTH:
            return [inline]
        lines = [pad + parts[0] + " ∧"]
        deeper = " " * (indent + 2)
        for p in parts[1:-1]:
            lines.append(deeper + p + " ∧")
        lines.append(deeper + parts[-1])
        return lines

    def _block(self, f: Formula, names, base: int, indent: int, header_prefix: str) -> list[str]:
        """∃-header plus conjunction body, the shape both trace entries use."""
        if isinstance(f, Neg) and isinstance(f.body, ForAll):
            tys, tail = self._collect_foralls(f.body)
            inner = len(tys)
            if isinstance(tail, Neg):
                parts = [self._fmt(c, names, base, inner) for c in conjuncts(tail.body)]
            else:
                parts = ["¬" + self._fmt(tail, names, base, inner)]
            header = f"∃ {self._binder_list(tys, names, base, 0)} st"
            return [header_prefix + header] + self._conjunction_lines(parts, indent + 2)
        parts = [self._fmt(c, names, base, 0) for c in conjuncts(f)]
        joined = header_prefix + " ∧ ".join(parts)
        if len(joined) <= WIDTH:
            return [joined]
        return [header_prefix.rstrip()] + self._conjunction_lines(parts, indent + 2)

    def trace_input(self, negated_goal: Formula) -> list[str]:
        return self._block(negated_goal, {}, 0, 0, "input: ")

    def trace_refuting(
        self,
        index: int,
        where: str,
        f: Formula,
        skolems: list[tuple[int, TypeExpr]],
    ) -> list[str]:
        names = {cid: f"b{i}" for i, (cid, _ty) in enumerate(skolems)}
        base = len(skolems)
        lines = [f"refuting {index} @ {where}:"]
        parts = [self._fmt(c, names, base, 0) for c in conjuncts(f)]
        if skolems:
            binders = ", ".join(
                f"b{i}: {self._type(ty, names, base, 0)}" for i, (_cid, ty) in enumerate(skolems)
            )
            lines.append(f"  ∃ {binders} st")
            lines.extend(self._conjunction_lines(parts, 4))
        else:
            lines.extend(self._conjunction_lines(parts, 2))
        return lines
