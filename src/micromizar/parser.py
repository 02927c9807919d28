"""Recursive-descent parser from tokens to the surface tree.

Two spots need backtracking over the token list: a ``(`` can open
either a term or a formula, and the three cluster registration shapes
share a prefix.  Both are resolved by saving the token index and
retrying; everything else is a single token of lookahead.

Errors carry code 90.  `parse_article` recovers at the next ``;`` after
a failed item so later items still get checked.  Terms and formulas
nested deeper than ``MAX_NESTING`` are such an error, a prefix operator
(``-``, ``succ``, ``bool``, ``not``) without parentheses counting as one
level: every later stage recurses over the same tree, and past this
depth the interpreter's recursion limit would take the whole article
down with it.
"""

from __future__ import annotations

from .errors import MizarError, SourcePos
from .lexer import Token, tokenize
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
    SAdj,
    SAnd,
    SApp,
    SBinders,
    SBracketAtom,
    SBy,
    SContradiction,
    SCorrectness,
    SDollar,
    SExists,
    SFlex,
    SForAll,
    SFraenkel,
    SFrom,
    SIff,
    SImplies,
    SIs,
    SJust,
    SLabeled,
    SNot,
    SNum,
    SOr,
    SPredAtom,
    SQual,
    SStep,
    SSubProof,
    STerm,
    SThe,
    SThesis,
    SType,
    SVar,
    SchemeVarSig,
    StAssume,
    StCaseBlock,
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

PREFIX_FUNCTORS = frozenset({"bool", "succ"})
INFIX_PREDS = frozenset({"in", "meets", "divides"})
RELATIONS = ("=", "<>", "<=", ">=", "<", ">", "c=")
# binding strength of the binary term operators, loosest 0; a symbol
# never shares its text with a token of another kind
BINARY_LEVELS = {"\\/": 0, "/\\": 0, "\\+\\": 0, "\\": 0, "+": 1, "-": 1, "*": 2, "/": 2}
MAX_NESTING = 100  # nested term() and formula() entries and prefix operators


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.depth = 0
        self.seek(0)

    # -- token plumbing -------------------------------------------------------

    def seek(self, i: int) -> None:
        """Make token `i` the current one, `tok`."""
        self.i = i
        self.tok = self.toks[i]

    def peek(self, k: int = 1) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.tok
        if t.kind != "eof":
            self.i += 1
            self.tok = self.toks[self.i]
        return t

    def fail(self, note: str) -> MizarError:
        return MizarError(self.tok.pos, 90, note)

    def expect_sym(self, sym: str) -> Token:
        if not self.tok.is_sym(sym):
            raise self.fail(f"expected {sym!r}")
        return self.next()

    def expect_kw(self, word: str) -> Token:
        if not self.tok.is_kw(word):
            raise self.fail(f"expected {word!r}")
        return self.next()

    def expect_ident(self) -> Token:
        if self.tok.kind != "ident":
            raise self.fail("expected an identifier")
        return self.next()

    def at_label(self) -> bool:
        return self.tok.kind == "ident" and self.peek().is_sym(":")

    def take_label(self) -> str | None:
        if self.at_label():
            name = self.next().text
            self.next()
            return name
        return None

    def ident_list(self) -> tuple[str, ...]:
        names = [self.expect_ident().text]
        while self.tok.is_sym(","):
            self.next()
            names.append(self.expect_ident().text)
        return tuple(names)

    def enter(self) -> None:
        """Count one more nested term, formula or prefix operator; the
        caller undoes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"nested deeper than {MAX_NESTING}")

    def prefixed(self, operand):
        """Parse the operand of the prefix operator just taken.  The
        operator counts one level unless a parenthesis, which counts
        itself, opens the operand."""
        if self.tok.is_sym("("):
            return operand()
        try:
            self.enter()
            return operand()
        finally:
            self.depth -= 1

    # -- terms ----------------------------------------------------------------

    def term(self) -> STerm:
        try:
            self.enter()
            return self.binary_term(self.unary_term(), 0)
        finally:
            self.depth -= 1

    def binary_term(self, lhs: STerm, floor: int) -> STerm:
        """Fold onto `lhs` the binary operators that follow it and bind
        at least as tight as `floor`, each level left-associative."""
        level = BINARY_LEVELS.get(self.tok.text)
        while level is not None and level >= floor:
            op = self.next()
            rhs = self.unary_term()
            after = BINARY_LEVELS.get(self.tok.text)
            while after is not None and after > level:
                rhs = self.binary_term(rhs, after)
                after = BINARY_LEVELS.get(self.tok.text)
            lhs = SApp(op.pos, op.text, (lhs, rhs))
            level = after
        return lhs

    def unary_term(self) -> STerm:
        t = self.tok
        if t.is_sym("-") or (t.kind == "ident" and t.text in PREFIX_FUNCTORS):
            self.next()
            return SApp(t.pos, t.text, (self.prefixed(self.unary_term),))
        return self.postfix_term()

    def postfix_term(self) -> STerm:
        t = self.primary_term()
        while self.tok.is_sym('"'):
            op = self.next()
            t = SApp(op.pos, '"', (t,))
        return t

    def primary_term(self) -> STerm:
        t = self.tok
        if t.kind in ("num", "dollar"):
            return self.number()
        if t.is_sym("<i>"):
            self.next()
            return SApp(t.pos, "<i>", ())
        if t.is_kw("it"):
            self.next()
            return SVar(t.pos, "it")
        if t.is_kw("the"):
            self.next()
            return SThe(t.pos, self.type_expr())
        if t.is_sym("{"):
            return self.brace_term()
        if t.is_sym("("):
            self.next()
            inner = self.term()
            self.expect_sym(")")
            return inner
        if t.kind == "ident":
            self.next()
            if self.tok.is_sym("("):
                self.next()
                if self.tok.is_sym(")"):
                    self.next()
                    return SApp(t.pos, t.text, ())
                args = self.term_list(")")
                return SApp(t.pos, t.text, args)
            return SVar(t.pos, t.text)
        raise self.fail("expected a term")

    def number(self) -> SNum | SDollar:
        """The numeral or ``$`` index at the current token."""
        t = self.next()
        try:
            value = int(t.text)
        except ValueError:  # more digits than the interpreter converts
            raise MizarError(t.pos, 90, "number too long") from None
        return SNum(t.pos, value) if t.kind == "num" else SDollar(t.pos, value)

    def brace_term(self) -> STerm:
        start = self.expect_sym("{")
        if self.tok.is_sym("}"):
            self.next()
            return SApp(start.pos, "{}", ())
        body = self.term()
        self.expect_kw("where")
        binders = self.binder_groups()
        self.expect_sym(":")
        guard = self.formula()
        self.expect_sym("}")
        return SFraenkel(start.pos, body, binders, guard)

    def term_list(self, closer: str) -> tuple[STerm, ...]:
        args = [self.term()]
        while self.tok.is_sym(","):
            self.next()
            args.append(self.term())
        self.expect_sym(closer)
        return tuple(args)

    # -- types and adjectives ---------------------------------------------------

    def adjective(self) -> SAdj:
        positive = True
        start = self.tok
        if self.tok.is_kw("non"):
            positive = False
            self.next()
        arg: STerm | None = None
        if self.tok.kind in ("num", "dollar") and self.peek().is_sym("-"):
            arg = self.number()
            self.next()
        elif self.tok.kind == "ident" and self.peek().is_sym("-"):
            arg = SVar(self.tok.pos, self.next().text)
            self.next()
        elif self.tok.is_sym("("):
            self.next()
            arg = self.term()
            self.expect_sym(")")
            self.expect_sym("-")
        name = self.expect_ident()
        return SAdj(start.pos, positive, name.text, arg)

    def _at_adjective(self) -> bool:
        t = self.tok
        if t.is_kw("non") or t.kind in ("num", "dollar"):
            return True
        if t.kind == "ident":
            return t.text not in INFIX_PREDS
        if t.is_sym("("):
            return True
        return False

    def type_expr(self) -> SType:
        """Adjective units followed by a mode name, optionally ``of t``."""
        start = self.tok.pos
        units: list[SAdj] = []
        while True:
            if not self._at_adjective():
                raise self.fail("expected a type")
            adj = self.adjective()
            if adj.positive and adj.arg is None and self.tok.is_kw("of"):
                self.next()
                return SType(start, tuple(units), adj.name, self.term())
            units.append(adj)
            if not self._at_adjective():
                break
        last = units.pop()
        if not last.positive or last.arg is not None:
            raise self.fail("a type must end with a mode name")
        return SType(start, tuple(units), last.name, None)

    def binder_groups(self) -> tuple[SBinders, ...]:
        groups = [self.binder_group()]
        while self.tok.is_sym(","):
            self.next()
            groups.append(self.binder_group())
        return tuple(groups)

    def binder_group(self) -> SBinders:
        """``x, y being T``, as in quantifiers and ``let``."""
        start = self.tok.pos
        names = self.ident_list()
        return SBinders(start, names, self.be_type())

    def be_type(self) -> SType:
        if not (self.tok.is_kw("being") or self.tok.is_kw("be")):
            raise self.fail("expected 'be' or 'being'")
        self.next()
        return self.type_expr()

    def witness(self) -> tuple[str, SType, tuple[SLabeled, ...]]:
        """``x being T such that ...`` after ``consider`` and ``given``."""
        name = self.expect_ident().text
        ty = self.be_type()
        conds: tuple[SLabeled, ...] = ()
        if self.tok.is_kw("such"):
            self.next()
            self.expect_kw("that")
            conds = self.conditions()
        return name, ty, conds

    # -- formulas ----------------------------------------------------------------

    def formula(self) -> "SFormula":
        try:
            self.enter()
            return self.iff_level()
        finally:
            self.depth -= 1

    def iff_level(self):
        f = self.imp_level()
        while self.tok.is_kw("iff"):
            op = self.next()
            f = SIff(op.pos, f, self.imp_level())
        return f

    def imp_level(self):
        f = self.or_level()
        if self.tok.is_kw("implies"):
            op = self.next()
            return SImplies(op.pos, f, self.imp_level())
        return f

    def or_level(self):
        f = self.and_level()
        if not self.tok.is_kw("or"):
            return f
        parts = [f]
        pos = self.tok.pos
        while self.tok.is_kw("or"):
            self.next()
            parts.append(self.and_level())
        return SOr(pos, tuple(parts))

    def and_level(self):
        f = self.unary_formula()
        if not self.tok.is_sym("&"):
            return f
        parts = [f]
        pos = self.tok.pos
        while self.tok.is_sym("&"):
            self.next()
            if self.tok.is_sym("..."):
                dots = self.next()
                self.expect_sym("&")
                hi = self.unary_formula()
                parts[-1] = SFlex(dots.pos, parts[-1], hi)
            else:
                parts.append(self.unary_formula())
        if len(parts) == 1:
            return parts[0]
        return SAnd(pos, tuple(parts))

    def unary_formula(self):
        t = self.tok
        if t.is_kw("not"):
            self.next()
            return SNot(t.pos, self.prefixed(self.unary_formula))
        if t.is_kw("for"):
            self.next()
            binders = self.binder_groups()
            guard = None
            if self.tok.is_kw("st"):
                self.next()
                guard = self.formula()
            self.expect_kw("holds")
            return SForAll(t.pos, binders, guard, self.formula())
        if t.is_kw("ex"):
            self.next()
            binders = self.binder_groups()
            self.expect_kw("st")
            return SExists(t.pos, binders, self.formula())
        if t.is_kw("contradiction"):
            self.next()
            return SContradiction(t.pos)
        if t.is_kw("thesis"):
            self.next()
            return SThesis(t.pos)
        return self.atom_formula()

    def atom_formula(self):
        if self.tok.kind == "ident" and self.peek().is_sym("["):
            name = self.next()
            self.next()
            args = self.term_list("]") if not self.tok.is_sym("]") else ()
            if args == ():
                self.expect_sym("]")
            return SBracketAtom(name.pos, name.text, args)
        if self.tok.is_sym("("):
            mark = self.i
            try:
                return self.relational_formula()
            except MizarError:
                self.seek(mark)
            self.next()
            inner = self.formula()
            self.expect_sym(")")
            return inner
        return self.relational_formula()

    def relational_formula(self):
        start = self.tok.pos
        t = self.term()
        if self.tok.kind == "sym" and self.tok.text in RELATIONS:
            op = self.next()
            return SPredAtom(op.pos, op.text, (t, self.term()))
        if self.tok.kind == "ident" and self.tok.text in INFIX_PREDS:
            op = self.next()
            return SPredAtom(op.pos, op.text, (t, self.term()))
        if self.tok.is_kw("is"):
            self.next()
            adjs: list[SAdj] = []
            while True:
                adj = self.adjective()
                if adj.positive and adj.arg is None and self.tok.is_kw("of"):
                    self.next()
                    ty = SType(adj.pos, tuple(adjs), adj.name, self.term())
                    return SQual(start, t, ty)
                adjs.append(adj)
                if not self._at_adjective():
                    break
            return SIs(start, t, tuple(adjs))
        match t:
            case SApp(pos, name, args):
                return SPredAtom(pos, name, args)
            case SVar(pos, name):
                return SPredAtom(pos, name, ())
        raise self.fail("expected a relation")

    # -- justifications ------------------------------------------------------------

    def justification(self, linked: bool = False) -> SJust:
        t = self.tok
        if t.is_kw("by"):
            self.next()
            refs = self.ref_list()
            return SBy(t.pos, refs, linked)
        if t.is_kw("from"):
            self.next()
            name = self.expect_ident()
            refs: tuple = ()
            if self.tok.is_sym("("):
                self.next()
                refs = self.ref_list()
                self.expect_sym(")")
            return SFrom(name.pos, name.text, refs, linked)
        if t.is_kw("proof"):
            self.next()
            steps = self.steps()
            end = self.expect_kw("end")
            return SSubProof(t.pos, tuple(steps), end.pos)
        return SBy(t.pos, (), linked)

    def ref_list(self) -> tuple[tuple[str, SourcePos], ...]:
        refs = [self._ref()]
        while self.tok.is_sym(","):
            self.next()
            refs.append(self._ref())
        return tuple(refs)

    def _ref(self) -> tuple[str, SourcePos]:
        t = self.expect_ident()
        return (t.text, t.pos)

    # -- proof steps ------------------------------------------------------------------

    def steps(self) -> list[SStep]:
        out: list[SStep] = []
        while not (self.tok.is_kw("end") or self.tok.kind == "eof"):
            out.append(self.step())
        return out

    def labeled_formula(self) -> SLabeled:
        return SLabeled(self.tok.pos, self.take_label(), self.formula())

    def conditions(self) -> tuple[SLabeled, ...]:
        conds = [self.labeled_formula()]
        while self.tok.is_kw("and"):
            self.next()
            conds.append(self.labeled_formula())
        return tuple(conds)

    def step(self) -> SStep:
        t = self.tok
        linked = False
        if t.is_kw("then"):
            self.next()
            linked = True
            t = self.tok
        if t.is_kw("let"):
            self.next()
            group = self.binder_group()
            self.expect_sym(";")
            return StLet(t.pos, group.names, group.ty)
        if t.is_kw("assume"):
            self.next()
            if self.tok.is_kw("that"):
                self.next()
            conds = self.conditions()
            self.expect_sym(";")
            return StAssume(t.pos, conds)
        if t.is_kw("thus") or t.is_kw("hence"):
            self.next()
            prop = self.labeled_formula()
            just = self.justification(linked or t.is_kw("hence"))
            self.expect_sym(";")
            return StThus(t.pos, prop, just)
        if t.is_kw("take"):
            self.next()
            if self.tok.kind == "ident" and self.peek().is_sym("="):
                name = self.next().text
                self.next()
                term = self.term()
                self.expect_sym(";")
                return StTakeEq(t.pos, name, term)
            term = self.term()
            self.expect_sym(";")
            return StTake(t.pos, term)
        if t.is_kw("consider"):
            self.next()
            name, ty, conds = self.witness()
            just = self.justification(linked)
            self.expect_sym(";")
            return StConsider(t.pos, name, ty, conds, just)
        if t.is_kw("given"):
            self.next()
            name, ty, conds = self.witness()
            self.expect_sym(";")
            return StGiven(t.pos, name, ty, conds)
        if t.is_kw("reconsider"):
            self.next()
            name = self.expect_ident().text
            self.expect_sym("=")
            term = self.term()
            self.expect_kw("as")
            ty = self.type_expr()
            just = self.justification(linked)
            self.expect_sym(";")
            return StReconsider(t.pos, name, term, ty, just)
        if t.is_kw("per"):
            self.next()
            self.expect_kw("cases")
            just = self.justification(linked)
            self.expect_sym(";")
            if not (self.tok.is_kw("suppose") or self.tok.is_kw("case")):
                raise self.fail("expected 'suppose' or 'case'")
            kind = self.tok.text
            blocks = []
            while self.tok.is_kw(kind):
                bt = self.next()
                cond = self.labeled_formula()
                self.expect_sym(";")
                body = self.steps()
                end = self.expect_kw("end")
                self.expect_sym(";")
                blocks.append(StCaseBlock(bt.pos, cond, tuple(body), end.pos))
            return StPerCases(t.pos, just, kind, tuple(blocks))
        if t.is_kw("deffunc"):
            return self._deffunc_step()
        if t.is_kw("defpred"):
            return self._defpred_step()
        if t.is_kw("now") or (self.at_label() and self.peek(2).is_kw("now")):
            label = self.take_label()
            now_tok = self.expect_kw("now")
            body = self.steps()
            end = self.expect_kw("end")
            self.expect_sym(";")
            return StNow(now_tok.pos, label, tuple(body), end.pos)
        return self.proposition(t.pos, linked)

    def proposition(self, pos: SourcePos, linked: bool) -> StProp:
        prop = self.labeled_formula()
        just = self.justification(linked)
        self.expect_sym(";")
        return StProp(pos, prop, just)

    def _deffunc_step(self) -> StDeffunc:
        t = self.expect_kw("deffunc")
        name = self.expect_ident().text
        self.expect_sym("(")
        tys = self._type_list(")")
        self.expect_sym("=")
        body = self.term()
        self.expect_sym(";")
        return StDeffunc(t.pos, name, tys, body)

    def _defpred_step(self) -> StDefpred:
        t = self.expect_kw("defpred")
        name = self.expect_ident().text
        self.expect_sym("[")
        tys = self._type_list("]")
        self.expect_kw("means")
        body = self.formula()
        self.expect_sym(";")
        return StDefpred(t.pos, name, tys, body)

    def _type_list(self, closer: str) -> tuple[SType, ...]:
        if self.tok.is_sym(closer):
            self.next()
            return ()
        tys = [self.type_expr()]
        while self.tok.is_sym(","):
            self.next()
            tys.append(self.type_expr())
        self.expect_sym(closer)
        return tuple(tys)

    # -- top-level items ---------------------------------------------------------------

    def article(self) -> tuple[Article, list[MizarError]]:
        errors: list[MizarError] = []
        reqs: list[str] = []
        try:
            self.expect_kw("environ")
            while self.tok.is_kw("requirements"):
                self.next()
                reqs.extend(self.ident_list())
                self.expect_sym(";")
            self.expect_kw("begin")
        except MizarError as e:
            errors.append(e)
            self._recover()
        items: list[SStep] = []
        while self.tok.kind != "eof":
            try:
                items.append(self.item())
            except MizarError as e:
                errors.append(e)
                self._recover()
        return Article(tuple(reqs), tuple(items)), errors

    def _recover(self) -> None:
        while self.tok.kind != "eof" and not self.tok.is_sym(";"):
            self.next()
        if self.tok.is_sym(";"):
            self.next()
        while self.tok.is_kw("end"):
            self.next()
            if self.tok.is_sym(";"):
                self.next()

    def item(self) -> SStep:
        """A top-level step: a scheme, definition or registration, which
        only the top level admits, or a private definition or a
        proposition, optionally after ``theorem``."""
        t = self.tok
        if t.is_kw("scheme"):
            return self._scheme()
        if t.is_kw("definition"):
            return self._definition()
        if t.is_kw("registration"):
            return self._registration()
        if t.is_kw("deffunc"):
            return self._deffunc_step()
        if t.is_kw("defpred"):
            return self._defpred_step()
        if t.is_kw("theorem"):
            self.next()
        return self.proposition(t.pos, False)

    def _scheme(self) -> ItScheme:
        t = self.expect_kw("scheme")
        name = self.expect_ident().text
        self.expect_sym("{")
        sigs = [self._scheme_sig()]
        while self.tok.is_sym(","):
            self.next()
            sigs.append(self._scheme_sig())
        self.expect_sym("}")
        self.expect_sym(":")
        statement = self.formula()
        provided: tuple[SLabeled, ...] = ()
        if self.tok.is_kw("provided"):
            self.next()
            provided = self.conditions()
        self.expect_kw("proof")
        body = self.steps()
        end = self.expect_kw("end")
        self.expect_sym(";")
        return ItScheme(t.pos, name, tuple(sigs), statement, provided, tuple(body), end.pos)

    def _scheme_sig(self) -> SchemeVarSig:
        name = self.expect_ident()
        if self.tok.is_sym("["):
            self.next()
            tys = self._type_list("]")
            return SchemeVarSig(name.pos, name.text, "pred", tys)
        self.expect_sym("(")
        tys = self._type_list(")")
        self.expect_sym("->")
        return SchemeVarSig(name.pos, name.text, "func", tys, self.type_expr())

    def _lets(self) -> tuple[SBinders, ...]:
        lets: list[SBinders] = []
        while self.tok.is_kw("let"):
            self.next()
            lets.append(self.binder_group())
            self.expect_sym(";")
        return tuple(lets)

    def _def_label(self) -> str | None:
        if self.tok.is_sym(":"):
            self.next()
            name = self.expect_ident().text
            self.expect_sym(":")
            return name
        return None

    def _correctness(self) -> tuple[SCorrectness, ...]:
        out = []
        while self.tok.kind == "kw" and self.tok.text in (
            "existence",
            "coherence",
            "uniqueness",
        ):
            t = self.next()
            just = self.justification()
            self.expect_sym(";")
            out.append(SCorrectness(t.pos, t.text, just))
        return tuple(out)

    def _definition(self) -> ItDefinition:
        t = self.expect_kw("definition")
        lets = self._lets()
        expandable = False
        if self.tok.is_kw("expandable"):
            expandable = True
            self.next()
        if self.tok.is_kw("attr"):
            self.next()
            subject = self.expect_ident().text
            self.expect_kw("is")
            adj = self.adjective()
            if not adj.positive:
                raise self.fail("cannot define a negated adjective")
            arg = None
            if adj.arg is not None:
                match adj.arg:
                    case SVar(_, vname):
                        arg = vname
                    case _:
                        raise self.fail("adjective argument must be a declared locus")
            self.expect_kw("means")
            def_label = self._def_label()
            definiens = self.formula()
            self.expect_sym(";")
            body = DefAttr(adj.pos, subject, arg, adj.name, def_label, definiens, expandable)
        elif self.tok.is_kw("mode"):
            self.next()
            name = self.expect_ident().text
            margs: tuple[str, ...] = ()
            if self.tok.is_kw("of"):
                self.next()
                margs = self.ident_list()
            self.expect_sym("->")
            parent = self.type_expr()
            def_label = None
            definiens = None
            if self.tok.is_kw("means"):
                self.next()
                def_label = self._def_label()
                definiens = self.formula()
            self.expect_sym(";")
            body = DefMode(t.pos, name, margs, parent, def_label, definiens, expandable)
        elif self.tok.is_kw("func"):
            self.next()
            name = self.expect_ident().text
            args: tuple[str, ...] = ()
            if self.tok.is_sym("("):
                self.next()
                args = self.ident_list()
                self.expect_sym(")")
            self.expect_sym("->")
            result = self.type_expr()
            equals = None
            means = None
            def_label = None
            if self.tok.is_kw("equals"):
                self.next()
                def_label = self._def_label()
                equals = self.term()
            elif self.tok.is_kw("means"):
                self.next()
                def_label = self._def_label()
                means = self.formula()
            else:
                raise self.fail("expected 'equals' or 'means'")
            self.expect_sym(";")
            body = DefFunc(t.pos, name, args, result, def_label, equals, means)
        elif self.tok.is_kw("pred"):
            self.next()
            name = self.expect_ident().text
            args = ()
            if self.tok.is_sym("("):
                self.next()
                args = self.ident_list()
                self.expect_sym(")")
            self.expect_kw("means")
            def_label = self._def_label()
            definiens = self.formula()
            self.expect_sym(";")
            body = DefPred(t.pos, name, args, def_label, definiens, expandable)
        else:
            raise self.fail("expected attr, mode, func, or pred")
        correctness = self._correctness()
        self.expect_kw("end")
        self.expect_sym(";")
        return ItDefinition(t.pos, lets, body, correctness)

    def _registration(self) -> ItRegistration:
        t = self.expect_kw("registration")
        lets = self._lets()
        self.expect_kw("cluster")
        body = self._cluster_body()
        correctness = self._correctness()
        self.expect_kw("end")
        self.expect_sym(";")
        return ItRegistration(t.pos, lets, body, correctness)

    def _cluster_body(self):
        mark = self.i
        try:
            term = self.term()
            arrow = self.expect_sym("->")
            adjs = self._adj_list()
            self.expect_sym(";")
            return RegFunctor(arrow.pos, term, adjs)
        except MizarError:
            self.seek(mark)
        try:
            guard = self._adj_list()
            self.expect_sym("->")
            target = self._adj_list()
            kw = self.expect_kw("for")
            ty = self.type_expr()
            self.expect_sym(";")
            return RegConditional(kw.pos, guard, target, ty)
        except MizarError:
            self.seek(mark)
        pos = self.tok.pos
        ty = self.type_expr()
        self.expect_sym(";")
        return RegExistential(pos, ty)

    def _adj_list(self) -> tuple[SAdj, ...]:
        adjs = [self.adjective()]
        while self._at_adjective():
            adjs.append(self.adjective())
        return tuple(adjs)


def parse_article(text: str) -> tuple[Article, list[MizarError]]:
    try:
        tokens = tokenize(text)
    except MizarError as e:
        return Article((), ()), [e]
    return Parser(tokens).article()
