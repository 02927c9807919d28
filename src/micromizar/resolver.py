"""Name resolution: surface trees to kernel formulas.

The scope carries four constructor name tables (attributes, modes,
functors, predicates), the proof-local bindings (fixed constants, loci,
private definitions, scheme placeholders), and the current stack of
quantified variable names.  Bound variables are absolute levels: the
name's index in the stack is its level, so nothing is renumbered when
the stack grows.

``thesis`` is the formula a resolver was built with: what remains to
be proved where the proposition stands.  It is closed, and shifted up
past the binders around the keyword, as a private definition's body is.
A resolver built with no thesis gives 51.

Builtin spellings route through the requirement table; using one whose
group is switched off is error 95, a name nobody defined is 91, and an
arity that disagrees with the declaration is 92.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MizarError
from .flex import MalformedFlex, NonNumericBound, NoCommonShape, infer_flex_from_diff
from .logic import (
    Attr,
    Choice,
    FlexAnd,
    ForAll,
    Formula,
    Fraenkel,
    FunctorApp,
    FTrue,
    Neg,
    Numeral,
    Pred,
    PrivFunc,
    PrivPred,
    Qual,
    Is,
    SchemeFunctorApp,
    SchemePred,
    Term,
    TypeExpr,
    bound,
    const,
    locus,
    mk_and,
    mk_exists,
    mk_iff,
    mk_imp,
    mk_is,
    mk_neg,
    mk_or,
    shift_up,
    subst_loci,
)
from .requirements import RequirementTable
from .subtyping import DefinitionDb
from .surface import (
    SAdj,
    SAnd,
    SApp,
    SBinders,
    SBracketAtom,
    SContradiction,
    SDollar,
    SExists,
    SFlex,
    SForAll,
    SFormula,
    SFraenkel,
    SIff,
    SImplies,
    SIs,
    SNot,
    SNum,
    SOr,
    SPredAtom,
    SQual,
    STerm,
    SThe,
    SThesis,
    SType,
    SVar,
)

BUILTIN_PREDS = {
    ("=", 2): "Equality",
    ("in", 2): "Membership",
    ("c=", 2): "Subset",
    ("<=", 2): "LessOrEqual",
    ("meets", 2): "Meets",
}

BUILTIN_FUNCS = {
    ("+", 2): "Add",
    ("*", 2): "Mul",
    ("-", 2): "Sub",
    ("-", 1): "Neg",
    ("/", 2): "Div",
    ('"', 1): "Inv",
    ("succ", 1): "Succ",
    ("bool", 1): "PowerSet",
    ("{}", 0): "EmptySet",
    ("<i>", 0): "ImaginaryUnit",
    ("NAT", 0): "NatSet",
    ("\\/", 2): "Union",
    ("/\\", 2): "Intersection",
    ("\\", 2): "Difference",
    ("\\+\\", 2): "SymDiff",
}

BUILTIN_ATTRS = {
    "empty": "Empty",
    "natural": "Natural",
    "zero": "ZeroAttr",
    "positive": "Positive",
    "negative": "Negative",
    "complex": "Complex",
}

BUILTIN_MODES = {
    "object": ("Object", 0),
    "set": ("Set", 0),
    "Element": ("Element", 1),
    "Subset": ("SubsetMode", 1),
}


@dataclass
class PrivDef:
    ident: int
    arg_types: tuple[TypeExpr, ...]
    body: Term | Formula


@dataclass
class Scope:
    """Everything a name can currently mean, and no block bookkeeping.

    Constant i's type is ``const_types[i]``, its only record.  A constant
    lives as long as the block that introduced it: the analyzer's trail
    drops the names and types of the block's constants when the block
    ends, and their ids are handed out again to the constants of a later
    block.  ``context`` is what the current resolution may read: the
    types of a private definition's ``$`` arguments (``dollar_types``)
    and the term ``it`` stands for (``it_term``).  The analyzer writes
    the proof-local tables and ``context`` only through that trail."""

    req: RequirementTable
    db: DefinitionDb
    attr_names: dict[str, tuple[int, int]] = field(default_factory=dict)
    mode_names: dict[str, tuple[int, int]] = field(default_factory=dict)
    func_names: dict[tuple[str, int], int] = field(default_factory=dict)
    pred_names: dict[tuple[str, int], int] = field(default_factory=dict)
    consts: dict[str, int] = field(default_factory=dict)
    const_types: list[TypeExpr] = field(default_factory=list)
    loci: dict[str, int] = field(default_factory=dict)
    bound_names: list[str] = field(default_factory=list)
    priv_funcs: dict[str, PrivDef] = field(default_factory=dict)
    priv_preds: dict[str, PrivDef] = field(default_factory=dict)
    scheme_funcs: dict[str, tuple[int, tuple[TypeExpr, ...], TypeExpr]] = field(
        default_factory=dict
    )
    scheme_preds: dict[str, tuple[int, tuple[TypeExpr, ...]]] = field(default_factory=dict)
    context: dict[str, object] = field(default_factory=lambda: {"dollar_types": None, "it_term": None})
    next_priv: dict[str, int] = field(default_factory=lambda: {"func": 0, "pred": 0})

    def fresh_priv(self, kind: str) -> int:
        out = self.next_priv[kind]
        self.next_priv[kind] = out + 1
        return out


class Resolver:
    def __init__(self, scope: Scope, thesis: Formula | None = None):
        self.scope = scope
        self.thesis = thesis
        self.req = scope.req
        self.db = scope.db

    def _require(self, name: str, pos, spelling: str) -> int:
        cid = self.req.cid(name)
        if cid is None:
            raise MizarError(pos, 95, f"{spelling!r} needs an absent requirement")
        return cid

    # -- terms -----------------------------------------------------------

    def term(self, s: STerm) -> Term:
        # exact type, most frequent kind first: no surface kind has a subclass
        k = type(s)
        if k is SApp:
            return self.apply(s.name, tuple([self.term(a) for a in s.args]), s.pos)
        if k is SVar:
            return self.name_term(s.name, s.pos)
        if k is SNum:
            return Numeral(s.value)
        sc = self.scope
        if k is SDollar:
            tys = sc.context["dollar_types"]
            if tys is None:
                raise MizarError(s.pos, 91, "placeholder argument outside a definition body")
            if not 1 <= s.index <= len(tys):
                raise MizarError(s.pos, 92, f"this definition has {len(tys)} arguments")
            return locus(s.index - 1)
        if k is SThe:
            ty = self.type_expr(s.ty)
            # a choice term denotes some member, so the type must be
            # known non-empty; quantifying over an empty type is fine
            if not self.db.inhabited(ty):
                raise MizarError(s.pos, 53)
            return Choice(ty)
        if k is SFraenkel:
            depth = len(sc.bound_names)
            try:
                tys = self._bind(s.binders)
                b = self.term(s.body)
                g = self.formula(s.guard)
            finally:
                del sc.bound_names[depth:]
            return Fraenkel(tuple(tys), b, g)
        raise AssertionError(f"unhandled term {s!r}")

    def name_term(self, name: str, pos) -> Term:
        sc = self.scope
        if name == "it":
            it = sc.context["it_term"]
            if it is None:
                raise MizarError(pos, 91, "'it' is only available inside a definiens")
            return it
        for lvl in range(len(sc.bound_names) - 1, -1, -1):
            if sc.bound_names[lvl] == name:
                return bound(lvl)
        if name in sc.consts:
            return const(sc.consts[name])
        if name in sc.loci:
            return locus(sc.loci[name])
        return self.apply(name, (), pos)

    def apply(self, name: str, args: tuple[Term, ...], pos) -> Term:
        sc = self.scope
        if name in sc.priv_funcs:
            d = sc.priv_funcs[name]
            if len(args) != len(d.arg_types):
                raise MizarError(pos, 92, f"{name} takes {len(d.arg_types)} arguments")
            # body binders sit at level 0; lift them past the binders
            # enclosing the use site before plugging in the arguments
            body = shift_up(d.body, len(sc.bound_names))
            return PrivFunc(d.ident, args, subst_loci(body, args))
        if name in sc.scheme_funcs:
            fid, tys, _ = sc.scheme_funcs[name]
            if len(args) != len(tys):
                raise MizarError(pos, 92, f"{name} takes {len(tys)} arguments")
            return SchemeFunctorApp(fid, args)
        if (name, len(args)) in sc.func_names:
            return FunctorApp(sc.func_names[(name, len(args))], args)
        builtin = BUILTIN_FUNCS.get((name, len(args)))
        if builtin is not None:
            return FunctorApp(self._require(builtin, pos, name), args)
        if any(key[0] == name for key in BUILTIN_FUNCS) or any(
            key[0] == name for key in sc.func_names
        ):
            raise MizarError(pos, 92, f"no version of {name} takes {len(args)} arguments")
        raise MizarError(pos, 91, f"unknown identifier {name!r}")

    # -- types ----------------------------------------------------------------

    def adjective(self, s: SAdj) -> Attr:
        sc = self.scope
        args: tuple[Term, ...] = () if s.arg is None else (self.term(s.arg),)
        if s.name in sc.attr_names:
            aid, arity = sc.attr_names[s.name]
            if len(args) != arity:
                raise MizarError(s.pos, 92, f"adjective {s.name} takes {arity} arguments")
            return Attr(s.positive, aid, args)
        builtin = BUILTIN_ATTRS.get(s.name)
        if builtin is not None:
            if args:
                raise MizarError(s.pos, 92, f"adjective {s.name} takes no arguments")
            return Attr(s.positive, self._require(builtin, s.pos, s.name))
        raise MizarError(s.pos, 91, f"unknown adjective {s.name!r}")

    def _checked(self, ty: TypeExpr, pos) -> TypeExpr:
        """Return a written type as it is, once its rounded-up cluster is
        found free of contradictions.

        A spelled-out type whose upward closure asserts some adjective both
        ways ("positive negative Nat") denotes nothing; letting it through
        would hand every proof a vacuously typed variable.
        """
        signs: dict[tuple[int, tuple[Term, ...]], bool] = {}
        for a in self.db.round_up(ty):
            key = (a.attr_id, a.args)
            if signs.setdefault(key, a.positive) != a.positive:
                raise MizarError(pos, 52, "contradictory adjectives on one type")
        return ty

    def type_expr(self, s: SType) -> TypeExpr:
        sc = self.scope
        attrs = frozenset(self.adjective(a) for a in s.adjs)
        args: tuple[Term, ...] = () if s.arg is None else (self.term(s.arg),)
        if s.mode == "Nat":
            if args:
                raise MizarError(s.pos, 92, "Nat takes no arguments")
            self._require("Natural", s.pos, "Nat")
            base = self.req.nat_type()
            return self._checked(TypeExpr(attrs | base.lower, base.mode, base.args), s.pos)
        if s.mode in sc.mode_names:
            mid, arity = sc.mode_names[s.mode]
            if len(args) != arity:
                raise MizarError(s.pos, 92, f"mode {s.mode} takes {arity} arguments")
            return self._checked(TypeExpr(attrs, mid, args), s.pos)
        builtin = BUILTIN_MODES.get(s.mode)
        if builtin is not None:
            name, arity = builtin
            if len(args) != arity:
                raise MizarError(s.pos, 92, f"mode {s.mode} takes {arity} arguments")
            return self._checked(TypeExpr(attrs, self._require(name, s.pos, s.mode), args), s.pos)
        raise MizarError(s.pos, 91, f"unknown mode {s.mode!r}")

    def _bind(self, binders: tuple[SBinders, ...]) -> list[TypeExpr]:
        """Bind the binders' names in order and return their types.  Each
        type is resolved with the earlier names bound, so a later group's
        type may mention an earlier variable.  The caller unbinds them,
        also when this raises."""
        tys: list[TypeExpr] = []
        for group in binders:
            for name in group.names:
                tys.append(self.type_expr(group.ty))
                self.scope.bound_names.append(name)
        return tys

    # -- formulas ---------------------------------------------------------------

    def formula(self, s: SFormula) -> Formula:
        # exact type, most frequent kind first, as in `term`
        k = type(s)
        if k is SPredAtom:
            return self.pred_atom(s.pos, s.name, s.args)
        sc = self.scope
        if k is SForAll or k is SExists:
            depth = len(sc.bound_names)
            try:
                tys = self._bind(s.binders)
                inner = self.formula(s.body)
                if k is SForAll and s.guard is not None:
                    inner = mk_imp(self.formula(s.guard), inner)
            finally:
                del sc.bound_names[depth:]
            for ty in reversed(tys):
                inner = ForAll(ty, inner) if k is SForAll else mk_exists(ty, inner)
            return inner
        if k is SAnd:
            return mk_and([self.formula(p) for p in s.parts])
        if k is SOr:
            return mk_or([self.formula(p) for p in s.parts])
        if k is SQual:
            return Qual(self.term(s.term), self.type_expr(s.ty))
        if k is SIs:
            return self.is_clause(s.pos, s.term, s.adjs)
        if k is SThesis:
            if self.thesis is None:
                raise MizarError(s.pos, 51, "'thesis' has no meaning here")
            # closed at depth 0: lift it past the binders around the keyword
            return shift_up(self.thesis, len(sc.bound_names))
        if k is SBracketAtom:
            return self.bracket_atom(s.pos, s.name, s.args)
        if k is SNot:
            return mk_neg(self.formula(s.body))
        if k is SImplies:
            return mk_imp(self.formula(s.antecedent), self.formula(s.consequent))
        if k is SIff:
            return mk_iff(self.formula(s.left), self.formula(s.right))
        if k is SFlex:
            return self._flex(s.pos, s.lo, s.hi)
        if k is SContradiction:
            return Neg(FTrue())
        raise AssertionError(f"unhandled formula {s!r}")

    def _flex(self, pos, left: SFormula, right: SFormula) -> Formula:
        lo = self.formula(left)
        hi = self.formula(right)
        try:
            fc = infer_flex_from_diff(lo, hi, self.req, depth=len(self.scope.bound_names))
        except MalformedFlex as e:
            raise MizarError(pos, 95, str(e)) from None
        except (NoCommonShape, NonNumericBound) as e:
            raise MizarError(pos, 94, str(e)) from None
        return FlexAnd(fc)

    def pred_atom(self, pos, name: str, sargs) -> Formula:
        args = tuple([self.term(a) for a in sargs])
        builtin = BUILTIN_PREDS.get((name, len(args)))
        if builtin is not None:
            return Pred(self._require(builtin, pos, name), args)
        # the remaining order relations are desugared; the parser gives
        # them two arguments
        match name:
            case "<>":
                return mk_neg(Pred(self._require("Equality", pos, "="), args))
            case ">=":
                return Pred(self._require("LessOrEqual", pos, ">="), (args[1], args[0]))
            case "<":
                le = self._require("LessOrEqual", pos, "<")
                eq = self._require("Equality", pos, "<")
                return mk_and([Pred(le, args), mk_neg(Pred(eq, args))])
            case ">":
                le = self._require("LessOrEqual", pos, ">")
                eq = self._require("Equality", pos, ">")
                back = (args[1], args[0])
                return mk_and([Pred(le, back), mk_neg(Pred(eq, back))])
        sc = self.scope
        if (name, len(args)) in sc.pred_names:
            return Pred(sc.pred_names[(name, len(args))], args)
        if name in sc.priv_preds or name in sc.scheme_preds:
            raise MizarError(pos, 90, f"{name} is used with brackets")
        if any(key[0] == name for key in BUILTIN_PREDS) or any(
            key[0] == name for key in sc.pred_names
        ):
            raise MizarError(pos, 92, f"no version of {name} takes {len(args)} arguments")
        if not args:
            # a bare identifier that resolves to nothing pred-like may
            # still be a nullary functor used as a malformed formula
            raise MizarError(pos, 91, f"unknown identifier {name!r}")
        raise MizarError(pos, 91, f"unknown predicate {name!r}")

    def bracket_atom(self, pos, name: str, sargs) -> Formula:
        sc = self.scope
        args = tuple([self.term(a) for a in sargs])
        if name in sc.priv_preds:
            d = sc.priv_preds[name]
            if len(args) != len(d.arg_types):
                raise MizarError(pos, 92, f"{name} takes {len(d.arg_types)} arguments")
            body = shift_up(d.body, len(sc.bound_names))
            return PrivPred(d.ident, args, subst_loci(body, args))
        if name in sc.scheme_preds:
            pid, tys = sc.scheme_preds[name]
            if len(args) != len(tys):
                raise MizarError(pos, 92, f"{name} takes {len(tys)} arguments")
            return SchemePred(pid, args)
        raise MizarError(pos, 91, f"unknown private predicate {name!r}")

    def is_clause(self, pos, sterm: STerm, adjs: tuple[SAdj, ...]) -> Formula:
        t = self.term(sterm)
        sc = self.scope
        last = adjs[-1]
        mode_tail = None
        if last.positive and last.arg is None:
            if last.name in sc.mode_names or last.name in BUILTIN_MODES or last.name == "Nat":
                if last.name not in sc.attr_names and last.name not in BUILTIN_ATTRS:
                    mode_tail = SType(last.pos, adjs[:-1], last.name, None)
        if mode_tail is not None:
            return Qual(t, self.type_expr(mode_tail))
        return mk_and([mk_is(t, self.adjective(a)) for a in adjs])
