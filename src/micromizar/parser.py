"""Recursive-descent parser from tokens to the surface tree.

It reads each token once and never rewinds.  Connectives fold in one
precedence loop over `CONNECTIVES`, as term operators do over
`BINARY_LEVELS`.  A ``(`` in formula position is parsed once: its
contents may come back a bare term, which the tokens after the ``)`` go
on as a term, and a bare term becomes a predicate atom only where a
formula is required.  A cluster's shape is read off the ``->`` and
``for`` outside brackets before its ``;``.

A token is the lexer's tuple ``(kind, text, line, col)``, read by index.
No keyword or symbol shares its text with another kind of token, so
``tok[1] == "("`` tests for the symbol alone.  A position is the exact
tuple ``(line, col)`` `_pos` cuts from a token; only `item` makes a `SourcePos`.

Errors carry code 90.  Only `Parser.article` catches them, resuming at
the next ``;`` so later items still get checked.  A bad character is an
``error`` token, which no rule takes, so it costs only its item too.
Nesting deeper than ``MAX_NESTING`` is such an error.  One level is a
`term` or `formula` entry, a ``(`` in formula position, the right
operand of ``implies``, a postfix ``"``, or a prefix operator (``-``,
``succ``, ``bool``, ``not``) whose operand opens with no parenthesis:
every later stage recurses over the same tree, and past this depth the
interpreter's recursion limit would take the whole article down with it.
"""

from __future__ import annotations

from .errors import MizarError, Pos, SourcePos
from .lexer import Token
from .lexer import scan as tokenize  # looked up here at each call, where a tracer wraps it
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
    SFormula,
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
# binding strength of the binary term operators and of the connectives, loosest 0
BINARY_LEVELS = {"\\/": 0, "/\\": 0, "\\+\\": 0, "\\": 0, "+": 1, "-": 1, "*": 2, "/": 2}
CONNECTIVES = {"iff": 0, "implies": 1, "or": 2, "&": 3}
MAX_NESTING = 100  # nesting levels, as the module docstring counts them


def _pos(tok: Token) -> Pos:
    return tok[2:]


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.depth = 0
        self.i = 0
        self.tok = tokens[0]

    # -- token plumbing -------------------------------------------------------

    def peek(self, k: int = 1) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.tok
        if t[0] != "eof":
            self.i += 1
            self.tok = self.toks[self.i]
        return t

    def fail(self, note: str) -> MizarError:
        if self.tok[0] == "error":  # no rule takes a bad character: say what it is
            note = self.tok[1]
        return MizarError(self.tok[2:], 90, note)

    def expect(self, text: str) -> Token:
        """Take the keyword or symbol `text`."""
        if self.tok[1] != text:
            raise self.fail(f"expected {text!r}")
        return self.next()

    def expect_ident(self) -> Token:
        if self.tok[0] != "ident":
            raise self.fail("expected an identifier")
        return self.next()

    def at_label(self) -> bool:
        return self.tok[0] == "ident" and self.peek()[1] == ":"

    def take_label(self) -> str | None:
        if self.at_label():
            name = self.next()[1]
            self.next()
            return name
        return None

    def ident_list(self) -> tuple[str, ...]:
        names = [self.expect_ident()[1]]
        while self.tok[1] == ",":
            self.next()
            names.append(self.expect_ident()[1])
        return tuple(names)

    def enter(self) -> None:
        """Count one more nesting level; the caller undoes it, or
        `_recover` resets the count after an error."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"nested deeper than {MAX_NESTING}")

    def prefixed(self, operand):
        """Parse the operand of the prefix operator just taken.  The
        operator counts one level unless a parenthesis, which counts
        itself, opens the operand."""
        if self.tok[1] == "(":
            return operand()
        self.enter()
        t = operand()
        self.depth -= 1
        return t

    # -- terms ----------------------------------------------------------------

    def term(self) -> STerm:
        self.enter()
        t = self.binary_term(self.unary_term(), 0)
        self.depth -= 1
        return t

    def binary_term(self, lhs: STerm, floor: int) -> STerm:
        """Fold onto `lhs` the binary operators that follow it and bind
        at least as tight as `floor`, each level left-associative."""
        level = BINARY_LEVELS.get(self.tok[1])
        while level is not None and level >= floor:
            op = self.next()
            rhs = self.unary_term()
            after = BINARY_LEVELS.get(self.tok[1])
            while after is not None and after > level:
                rhs = self.binary_term(rhs, after)
                after = BINARY_LEVELS.get(self.tok[1])
            lhs = SApp(_pos(op), op[1], (lhs, rhs))
            level = after
        return lhs

    def unary_term(self) -> STerm:
        t = self.tok
        if t[1] == "-" or t[1] in PREFIX_FUNCTORS:
            self.next()
            return SApp(_pos(t), t[1], (self.prefixed(self.unary_term),))
        p = self.primary_term()
        return self.postfix(p) if self.tok[1] == '"' else p

    def postfix(self, t: STerm) -> STerm:
        """`t` under the ``"`` that follow it, each one nesting level."""
        depth = self.depth
        while self.tok[1] == '"':
            self.enter()
            t = SApp(_pos(self.next()), '"', (t,))
        self.depth = depth
        return t

    def primary_term(self) -> STerm:
        t = self.tok
        if t[0] == "ident":
            self.next()
            if self.tok[1] == "(":
                self.next()
                if self.tok[1] == ")":
                    self.next()
                    return SApp(_pos(t), t[1], ())
                args = self.term_list(")")
                return SApp(_pos(t), t[1], args)
            return SVar(_pos(t), t[1])
        if t[0] in ("num", "dollar"):
            return self.number()
        if t[1] == "<i>":
            self.next()
            return SApp(_pos(t), "<i>", ())
        if t[1] == "it":
            self.next()
            return SVar(_pos(t), "it")
        if t[1] == "the":
            self.next()
            return SThe(_pos(t), self.type_expr())
        if t[1] == "{":
            return self.brace_term()
        if t[1] == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        raise self.fail("expected a term")

    def number(self) -> SNum | SDollar:
        """The numeral or ``$`` index at the current token."""
        t = self.next()
        try:
            value = int(t[1])
        except ValueError:  # more digits than the interpreter converts
            raise MizarError(_pos(t), 90, "number too long") from None
        return SNum(_pos(t), value) if t[0] == "num" else SDollar(_pos(t), value)

    def brace_term(self) -> STerm:
        start = self.expect("{")
        if self.tok[1] == "}":
            self.next()
            return SApp(_pos(start), "{}", ())
        body = self.term()
        self.expect("where")
        binders = self.binder_groups()
        self.expect(":")
        guard = self.formula()
        self.expect("}")
        return SFraenkel(_pos(start), body, binders, guard)

    def term_list(self, closer: str) -> tuple[STerm, ...]:
        args = [self.term()]
        while self.tok[1] == ",":
            self.next()
            args.append(self.term())
        self.expect(closer)
        return tuple(args)

    # -- types and adjectives ---------------------------------------------------

    def adjective(self) -> SAdj:
        positive = True
        start = self.tok
        if self.tok[1] == "non":
            positive = False
            self.next()
        arg: STerm | None = None
        if self.tok[0] in ("num", "dollar") and self.peek()[1] == "-":
            arg = self.number()
            self.next()
        elif self.tok[0] == "ident" and self.peek()[1] == "-":
            arg = SVar(_pos(self.tok), self.next()[1])
            self.next()
        elif self.tok[1] == "(":
            self.next()
            arg = self.term()
            self.expect(")")
            self.expect("-")
        name = self.expect_ident()
        return SAdj(_pos(start), positive, name[1], arg)

    def _at_adjective(self) -> bool:
        t = self.tok
        if t[1] == "non" or t[0] in ("num", "dollar"):
            return True
        if t[0] == "ident":
            return t[1] not in INFIX_PREDS
        if t[1] == "(":
            return True
        return False

    def adjectives(self) -> tuple[SAdj, ...]:
        """One adjective and those that follow it.  A run ends before
        ``of``, a keyword, which may follow a last one naming a mode."""
        adjs = [self.adjective()]
        while self._at_adjective():
            adjs.append(self.adjective())
        return tuple(adjs)

    def type_expr(self) -> SType:
        """Adjective units followed by a mode name, optionally ``of t``."""
        start = _pos(self.tok)
        if not self._at_adjective():
            raise self.fail("expected a type")
        adjs = self.adjectives()
        mode = adjs[-1]
        if not mode.positive or mode.arg is not None:
            raise self.fail("a type must end with a mode name")
        arg = None
        if self.tok[1] == "of":
            self.next()
            arg = self.term()
        return SType(start, adjs[:-1], mode.name, arg)

    def binder_groups(self) -> tuple[SBinders, ...]:
        groups = [self.binder_group()]
        while self.tok[1] == ",":
            self.next()
            groups.append(self.binder_group())
        return tuple(groups)

    def binder_group(self) -> SBinders:
        """``x, y being T``, as in quantifiers and ``let``."""
        start = _pos(self.tok)
        names = self.ident_list()
        return SBinders(start, names, self.be_type())

    def be_type(self) -> SType:
        if self.tok[1] not in ("being", "be"):
            raise self.fail("expected 'be' or 'being'")
        self.next()
        return self.type_expr()

    def witness(self) -> tuple[str, SType, tuple[SLabeled, ...]]:
        """``x being T such that ...`` after ``consider`` and ``given``."""
        name = self.expect_ident()[1]
        ty = self.be_type()
        conds: tuple[SLabeled, ...] = ()
        if self.tok[1] == "such":
            self.next()
            self.expect("that")
            conds = self.conditions()
        return name, ty, conds

    # -- formulas ----------------------------------------------------------------

    def formula(self) -> SFormula:
        self.enter()
        f = self.as_formula(self.connectives(0))
        self.depth -= 1
        return f

    def as_formula(self, f: SFormula | STerm) -> SFormula:
        """`f`, where a bare term becomes the predicate it names."""
        if not isinstance(f, STerm):
            return f
        if type(f) is SApp:
            return SPredAtom(f.pos, f.name, f.args)
        if type(f) is SVar:
            return SPredAtom(f.pos, f.name, ())
        raise self.fail("expected a relation")

    def connectives(self, floor: int) -> SFormula | STerm:
        """A unary formula, or bare term, with the connectives that
        follow it and bind at least as tight as `floor` folded on.
        ``iff`` is left-associative, ``implies`` right-associative, and
        ``or`` and ``&`` are n-ary, ``& ... &`` making a flexible
        conjunction of its neighbours."""
        f = self.unary_formula()
        level = CONNECTIVES.get(self.tok[1])
        while level is not None and level >= floor:
            f = self.as_formula(f)
            op = self.next()
            if level == 0:
                f = SIff(_pos(op), f, self.as_formula(self.connectives(1)))
            elif level == 1:
                self.enter()
                f = SImplies(_pos(op), f, self.as_formula(self.connectives(1)))
                self.depth -= 1
            else:
                parts = [f]
                while True:
                    if level == 3 and self.tok[1] == "...":
                        dots = self.next()
                        self.expect("&")
                        parts[-1] = SFlex(_pos(dots), parts[-1], self.as_formula(self.unary_formula()))
                    else:
                        parts.append(self.as_formula(self.connectives(level + 1)))
                    if self.tok[1] != op[1]:
                        break
                    self.next()
                f = parts[0] if len(parts) == 1 else (SOr if level == 2 else SAnd)(_pos(op), tuple(parts))
            level = CONNECTIVES.get(self.tok[1])
        return f

    def unary_formula(self) -> SFormula | STerm:
        """A formula no connective reaches into, or a bare term."""
        t = self.tok
        if t[1] == "not":
            self.next()
            return SNot(_pos(t), self.as_formula(self.prefixed(self.unary_formula)))
        if t[1] == "for":
            self.next()
            binders = self.binder_groups()
            guard = None
            if self.tok[1] == "st":
                self.next()
                guard = self.formula()
            self.expect("holds")
            return SForAll(_pos(t), binders, guard, self.formula())
        if t[1] == "ex":
            self.next()
            binders = self.binder_groups()
            self.expect("st")
            return SExists(_pos(t), binders, self.formula())
        if t[1] == "contradiction":
            self.next()
            return SContradiction(_pos(t))
        if t[1] == "thesis":
            self.next()
            return SThesis(_pos(t))
        if t[0] == "ident" and self.peek()[1] == "[":
            self.next()
            self.next()
            args = self.term_list("]") if self.tok[1] != "]" else ()
            if args == ():
                self.next()
            return SBracketAtom(_pos(t), t[1], args)
        if t[1] != "(":
            return self.relation(t, self.term())
        # a formula, or a term that the tokens after ")" go on: its
        # operators count inside the parenthesis's level, as inside a
        # `term` entry, and the relation after them does not
        self.next()
        self.enter()
        inner = self.connectives(0)
        self.expect(")")
        if not isinstance(inner, STerm):
            self.depth -= 1
            return inner
        inner = self.binary_term(self.postfix(inner), 0)
        self.depth -= 1
        return self.relation(t, inner)

    def relation(self, first: Token, t: STerm) -> SFormula | STerm:
        """The relation, infix predicate or ``is`` clause on term `t`,
        whose first token is `first`, or `t` itself if none follows."""
        if self.tok[1] in RELATIONS or self.tok[1] in INFIX_PREDS:
            op = self.next()
            return SPredAtom(_pos(op), op[1], (t, self.term()))
        if self.tok[1] != "is":
            return t
        self.next()
        adjs = self.adjectives()
        mode = adjs[-1]
        if mode.positive and mode.arg is None and self.tok[1] == "of":
            self.next()
            return SQual(_pos(first), t, SType(mode.pos, adjs[:-1], mode.name, self.term()))
        return SIs(_pos(first), t, adjs)

    # -- justifications ------------------------------------------------------------

    def justification(self, linked: bool = False) -> SJust:
        t = self.tok
        if t[1] == "by":
            self.next()
            refs = self.ref_list()
            return SBy(_pos(t), refs, linked)
        if t[1] == "from":
            self.next()
            name = self.expect_ident()
            refs: tuple = ()
            if self.tok[1] == "(":
                self.next()
                refs = self.ref_list()
                self.expect(")")
            return SFrom(_pos(name), name[1], refs, linked)
        if t[1] == "proof":
            self.next()
            steps = self.steps()
            end = self.expect("end")
            return SSubProof(_pos(t), tuple(steps), _pos(end))
        return SBy(_pos(t), (), linked)

    def ref_list(self) -> tuple[tuple[str, Pos], ...]:
        refs = [self._ref()]
        while self.tok[1] == ",":
            self.next()
            refs.append(self._ref())
        return tuple(refs)

    def _ref(self) -> tuple[str, Pos]:
        t = self.expect_ident()
        return (t[1], _pos(t))

    # -- proof steps ------------------------------------------------------------------

    def steps(self) -> list[SStep]:
        out: list[SStep] = []
        while self.tok[1] != "end" and self.tok[0] != "eof":
            out.append(self.step())
        return out

    def labeled_formula(self) -> SLabeled:
        return SLabeled(_pos(self.tok), self.take_label(), self.formula())

    def conditions(self) -> tuple[SLabeled, ...]:
        conds = [self.labeled_formula()]
        while self.tok[1] == "and":
            self.next()
            conds.append(self.labeled_formula())
        return tuple(conds)

    def step(self) -> SStep:
        t = self.tok
        linked = False
        if t[1] == "then":
            self.next()
            linked = True
            t = self.tok
        if t[1] == "let":
            self.next()
            group = self.binder_group()
            self.expect(";")
            return StLet(_pos(t), group.names, group.ty)
        if t[1] == "assume":
            self.next()
            if self.tok[1] == "that":
                self.next()
            conds = self.conditions()
            self.expect(";")
            return StAssume(_pos(t), conds)
        if t[1] in ("thus", "hence"):
            self.next()
            prop = self.labeled_formula()
            just = self.justification(linked or t[1] == "hence")
            self.expect(";")
            return StThus(_pos(t), prop, just)
        if t[1] == "take":
            self.next()
            if self.tok[0] == "ident" and self.peek()[1] == "=":
                name = self.next()[1]
                self.next()
                term = self.term()
                self.expect(";")
                return StTakeEq(_pos(t), name, term)
            term = self.term()
            self.expect(";")
            return StTake(_pos(t), term)
        if t[1] == "consider":
            self.next()
            name, ty, conds = self.witness()
            just = self.justification(linked)
            self.expect(";")
            return StConsider(_pos(t), name, ty, conds, just)
        if t[1] == "given":
            self.next()
            name, ty, conds = self.witness()
            self.expect(";")
            return StGiven(_pos(t), name, ty, conds)
        if t[1] == "reconsider":
            self.next()
            name = self.expect_ident()[1]
            self.expect("=")
            term = self.term()
            self.expect("as")
            ty = self.type_expr()
            just = self.justification(linked)
            self.expect(";")
            return StReconsider(_pos(t), name, term, ty, just)
        if t[1] == "per":
            self.next()
            self.expect("cases")
            just = self.justification(linked)
            self.expect(";")
            if self.tok[1] not in ("suppose", "case"):
                raise self.fail("expected 'suppose' or 'case'")
            kind = self.tok[1]
            blocks = []
            while self.tok[1] == kind:
                bt = self.next()
                cond = self.labeled_formula()
                self.expect(";")
                body = self.steps()
                end = self.expect("end")
                self.expect(";")
                blocks.append(StCaseBlock(_pos(bt), cond, tuple(body), _pos(end)))
            return StPerCases(_pos(t), just, kind, tuple(blocks))
        if t[1] == "deffunc":
            return self._deffunc_step(_pos(t))
        if t[1] == "defpred":
            return self._defpred_step(_pos(t))
        if t[1] == "now" or (self.at_label() and self.peek(2)[1] == "now"):
            label = self.take_label()
            now_tok = self.expect("now")
            body = self.steps()
            end = self.expect("end")
            self.expect(";")
            return StNow(_pos(now_tok), label, tuple(body), _pos(end))
        return self.proposition(_pos(t), linked)

    def proposition(self, pos: Pos, linked: bool) -> StProp:
        prop = self.labeled_formula()
        just = self.justification(linked)
        self.expect(";")
        return StProp(pos, prop, just)

    def _deffunc_step(self, pos: Pos) -> StDeffunc:
        self.expect("deffunc")
        name = self.expect_ident()[1]
        self.expect("(")
        tys = self._type_list(")")
        self.expect("=")
        body = self.term()
        self.expect(";")
        return StDeffunc(pos, name, tys, body)

    def _defpred_step(self, pos: Pos) -> StDefpred:
        self.expect("defpred")
        name = self.expect_ident()[1]
        self.expect("[")
        tys = self._type_list("]")
        self.expect("means")
        body = self.formula()
        self.expect(";")
        return StDefpred(pos, name, tys, body)

    def _type_list(self, closer: str) -> tuple[SType, ...]:
        if self.tok[1] == closer:
            self.next()
            return ()
        tys = [self.type_expr()]
        while self.tok[1] == ",":
            self.next()
            tys.append(self.type_expr())
        self.expect(closer)
        return tuple(tys)

    # -- top-level items ---------------------------------------------------------------

    def article(self) -> tuple[Article, list[MizarError]]:
        errors: list[MizarError] = []
        reqs: list[str] = []
        try:
            self.expect("environ")
            while self.tok[1] == "requirements":
                self.next()
                reqs.extend(self.ident_list())
                self.expect(";")
            self.expect("begin")
        except MizarError as e:
            errors.append(e.with_traceback(None))  # a traceback holding this frame, and `errors`, is a cycle
            self._recover()
        items: list[SStep] = []
        while self.tok[0] != "eof":
            try:
                items.append(self.item())
            except MizarError as e:
                errors.append(e.with_traceback(None))  # a traceback holding this frame, and `errors`, is a cycle
                self._recover()
        return Article(tuple(reqs), tuple(items)), errors

    def _recover(self) -> None:
        """Resume at depth 0 past the next ``;`` and any ``end;`` after it."""
        self.depth = 0
        while self.tok[0] != "eof" and self.tok[1] != ";":
            self.next()
        if self.tok[1] == ";":
            self.next()
        while self.tok[1] == "end":
            self.next()
            if self.tok[1] == ";":
                self.next()

    def item(self) -> SStep:
        """A top-level step: a scheme, definition or registration, which
        only the top level admits, or a private definition or a
        proposition, optionally after ``theorem``."""
        t = self.tok
        pos = SourcePos(*t[2:])  # read by field, as a nested node's is not
        if t[1] == "scheme":
            return self._scheme(pos)
        if t[1] == "definition":
            return self._definition(pos)
        if t[1] == "registration":
            return self._registration(pos)
        if t[1] == "deffunc":
            return self._deffunc_step(pos)
        if t[1] == "defpred":
            return self._defpred_step(pos)
        if t[1] == "theorem":
            self.next()
        return self.proposition(pos, False)

    def _scheme(self, pos: SourcePos) -> ItScheme:
        self.expect("scheme")
        name = self.expect_ident()[1]
        self.expect("{")
        sigs = [self._scheme_sig()]
        while self.tok[1] == ",":
            self.next()
            sigs.append(self._scheme_sig())
        self.expect("}")
        self.expect(":")
        statement = self.formula()
        provided: tuple[SLabeled, ...] = ()
        if self.tok[1] == "provided":
            self.next()
            provided = self.conditions()
        self.expect("proof")
        body = self.steps()
        end = self.expect("end")
        self.expect(";")
        return ItScheme(pos, name, tuple(sigs), statement, provided, tuple(body), _pos(end))

    def _scheme_sig(self) -> SchemeVarSig:
        name = self.expect_ident()
        if self.tok[1] == "[":
            self.next()
            tys = self._type_list("]")
            return SchemeVarSig(_pos(name), name[1], "pred", tys)
        self.expect("(")
        tys = self._type_list(")")
        self.expect("->")
        return SchemeVarSig(_pos(name), name[1], "func", tys, self.type_expr())

    def _lets(self) -> tuple[SBinders, ...]:
        lets: list[SBinders] = []
        while self.tok[1] == "let":
            self.next()
            lets.append(self.binder_group())
            self.expect(";")
        return tuple(lets)

    def _def_label(self) -> str | None:
        if self.tok[1] == ":":
            self.next()
            name = self.expect_ident()[1]
            self.expect(":")
            return name
        return None

    def _correctness(self) -> tuple[SCorrectness, ...]:
        out = []
        while self.tok[1] in ("existence", "coherence", "uniqueness"):
            t = self.next()
            just = self.justification()
            self.expect(";")
            out.append(SCorrectness(_pos(t), t[1], just))
        return tuple(out)

    def _definition(self, pos: SourcePos) -> ItDefinition:
        t = self.expect("definition")
        lets = self._lets()
        expandable = False
        if self.tok[1] == "expandable":
            expandable = True
            self.next()
        if self.tok[1] == "attr":
            self.next()
            subject = self.expect_ident()[1]
            self.expect("is")
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
            self.expect("means")
            def_label = self._def_label()
            definiens = self.formula()
            self.expect(";")
            body = DefAttr(adj.pos, subject, arg, adj.name, def_label, definiens, expandable)
        elif self.tok[1] == "mode":
            self.next()
            name = self.expect_ident()[1]
            margs: tuple[str, ...] = ()
            if self.tok[1] == "of":
                self.next()
                margs = self.ident_list()
            self.expect("->")
            parent = self.type_expr()
            def_label = None
            definiens = None
            if self.tok[1] == "means":
                self.next()
                def_label = self._def_label()
                definiens = self.formula()
            self.expect(";")
            body = DefMode(_pos(t), name, margs, parent, def_label, definiens, expandable)
        elif self.tok[1] == "func":
            self.next()
            name = self.expect_ident()[1]
            args: tuple[str, ...] = ()
            if self.tok[1] == "(":
                self.next()
                args = self.ident_list()
                self.expect(")")
            self.expect("->")
            result = self.type_expr()
            equals = None
            means = None
            def_label = None
            if self.tok[1] == "equals":
                self.next()
                def_label = self._def_label()
                equals = self.term()
            elif self.tok[1] == "means":
                self.next()
                def_label = self._def_label()
                means = self.formula()
            else:
                raise self.fail("expected 'equals' or 'means'")
            self.expect(";")
            body = DefFunc(_pos(t), name, args, result, def_label, equals, means)
        elif self.tok[1] == "pred":
            self.next()
            name = self.expect_ident()[1]
            args = ()
            if self.tok[1] == "(":
                self.next()
                args = self.ident_list()
                self.expect(")")
            self.expect("means")
            def_label = self._def_label()
            definiens = self.formula()
            self.expect(";")
            body = DefPred(_pos(t), name, args, def_label, definiens, expandable)
        else:
            raise self.fail("expected attr, mode, func, or pred")
        correctness = self._correctness()
        self.expect("end")
        self.expect(";")
        return ItDefinition(pos, lets, body, correctness)

    def _registration(self, pos: SourcePos) -> ItRegistration:
        self.expect("registration")
        lets = self._lets()
        self.expect("cluster")
        body = self._cluster_body()
        self.expect(";")
        correctness = self._correctness()
        self.expect("end")
        self.expect(";")
        return ItRegistration(pos, lets, body, correctness)

    def _cluster_body(self):
        """A functor cluster ``term -> adjs``, a conditional one ``adjs
        -> adjs for type`` or an existential one ``type``, told apart by
        the ``->`` and ``for`` outside brackets before the ``;`` ending it."""
        found, depth, j = set(), 0, self.i
        while (text := self.toks[j][1]) not in (";", ""):
            if text in ("(", "[", "{"):
                depth += 1
            elif text in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and text in ("->", "for"):
                found.add(text)
            j += 1
        if "->" not in found:
            ty = self.type_expr()
            return RegExistential(ty.pos, ty)
        if "for" not in found:
            term = self.term()
            arrow = self.expect("->")
            return RegFunctor(_pos(arrow), term, self.adjectives())
        guard = self.adjectives()
        self.expect("->")
        target = self.adjectives()
        kw = self.expect("for")
        return RegConditional(_pos(kw), guard, target, self.type_expr())


def parse_article(text: str) -> tuple[Article, list[MizarError]]:
    return Parser(tokenize(text)).article()
