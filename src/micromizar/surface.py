"""Surface syntax tree.

Everything the parser produces lives here: names are unresolved
strings, operators keep their spellings, and every node carries the
position of its first token.  Resolution into the core language
happens later, scope by scope, because most names (local constants,
loci, scheme placeholders) only acquire meaning inside the proof
walker.

An article is a sequence of proof steps, checked like the body of a
``now``.  A theorem is a `StProp` and a top-level ``deffunc`` or
``defpred`` is the step of that name.  `ItScheme`, `ItDefinition` and
`ItRegistration` may appear only at the top level; propositions,
``deffunc`` and ``defpred`` appear both there and in proofs, and every
other step only in proofs.  The parser enforces where each kind may
appear.

A position is a token's ``(line, col)``: a `SourcePos` for a top-level
item, else the plain tuple (see `errors.SourcePos`).  Nodes are slotted
records (`records.record`) compared and hashed by value; not frozen,
which would make them dearer to build, they are never assigned to (a
boundary test holds every module to that).  Every concrete kind is a
leaf, so ``type(s) is K`` tests what the class pattern ``K()`` does.
"""

from __future__ import annotations

from .errors import Pos
from .records import record


@record
class Node:
    pos: Pos


# -- terms ---------------------------------------------------------------


class STerm(Node):
    __slots__ = ()


@record
class SNum(STerm):
    value: int


@record
class SVar(STerm):
    """Bare identifier; could be a constant, locus, or nullary functor."""

    name: str


@record
class SApp(STerm):
    """Named application, including operator spellings like "+" or
    "bool".  Arity disambiguates overloaded spellings ("-" is both
    subtraction and negation)."""

    name: str
    args: tuple[STerm, ...]


@record
class SDollar(STerm):
    """Positional locus $1..$n inside deffunc/defpred bodies."""

    index: int


@record
class SThe(STerm):
    ty: "SType"


@record
class SFraenkel(STerm):
    body: STerm
    binders: tuple["SBinders", ...]
    guard: "SFormula"


# -- types ---------------------------------------------------------------


@record
class SAdj(Node):
    positive: bool
    name: str
    arg: STerm | None = None


@record
class SType(Node):
    adjs: tuple[SAdj, ...]
    mode: str
    arg: STerm | None = None


@record
class SBinders(Node):
    names: tuple[str, ...]
    ty: SType


# -- formulas ------------------------------------------------------------


class SFormula(Node):
    __slots__ = ()


@record
class SContradiction(SFormula):
    pass


@record
class SThesis(SFormula):
    pass


@record
class SNot(SFormula):
    body: SFormula


@record
class SAnd(SFormula):
    parts: tuple[SFormula, ...]


@record
class SOr(SFormula):
    parts: tuple[SFormula, ...]


@record
class SImplies(SFormula):
    antecedent: SFormula
    consequent: SFormula


@record
class SIff(SFormula):
    left: SFormula
    right: SFormula


@record
class SFlex(SFormula):
    """``lo & ... & hi`` with literal dots."""

    lo: SFormula
    hi: SFormula


@record
class SForAll(SFormula):
    binders: tuple[SBinders, ...]
    guard: SFormula | None
    body: SFormula


@record
class SExists(SFormula):
    binders: tuple[SBinders, ...]
    body: SFormula


@record
class SPredAtom(SFormula):
    """Predicate application by spelling: "=", "in", "<", user names."""

    name: str
    args: tuple[STerm, ...]


@record
class SBracketAtom(SFormula):
    """Square-bracket application: defpred or scheme predicate usage."""

    name: str
    args: tuple[STerm, ...]


@record
class SIs(SFormula):
    term: STerm
    adjs: tuple[SAdj, ...]


@record
class SQual(SFormula):
    term: STerm
    ty: SType


# -- justifications -------------------------------------------------------


class SJust(Node):
    __slots__ = ()


@record
class SBy(SJust):
    refs: tuple[tuple[str, Pos], ...]
    linked: bool = False


@record
class SFrom(SJust):
    scheme: str
    refs: tuple[tuple[str, Pos], ...]
    linked: bool = False


@record
class SSubProof(SJust):
    steps: tuple["SStep", ...]
    end_pos: Pos


# -- proof steps ----------------------------------------------------------


class SStep(Node):
    __slots__ = ()


@record
class SLabeled(Node):
    label: str | None
    formula: SFormula


@record
class StLet(SStep):
    names: tuple[str, ...]
    ty: SType


@record
class StAssume(SStep):
    conds: tuple[SLabeled, ...]


@record
class StThus(SStep):
    prop: SLabeled
    just: SJust


@record
class StTake(SStep):
    term: STerm


@record
class StTakeEq(SStep):
    name: str
    term: STerm


@record
class StConsider(SStep):
    name: str
    ty: SType
    conds: tuple[SLabeled, ...]
    just: SJust


@record
class StGiven(SStep):
    name: str
    ty: SType
    conds: tuple[SLabeled, ...]


@record
class StReconsider(SStep):
    name: str
    term: STerm
    ty: SType
    just: SJust


@record
class StCaseBlock(Node):
    cond: SLabeled
    steps: tuple[SStep, ...]
    end_pos: Pos


@record
class StPerCases(SStep):
    just: SJust
    kind: str  # "suppose" | "case"
    blocks: tuple[StCaseBlock, ...]


@record
class StNow(SStep):
    label: str | None
    steps: tuple[SStep, ...]
    end_pos: Pos


@record
class StProp(SStep):
    prop: SLabeled
    just: SJust


@record
class StDeffunc(SStep):
    name: str
    arg_types: tuple[SType, ...]
    body: STerm


@record
class StDefpred(SStep):
    name: str
    arg_types: tuple[SType, ...]
    body: SFormula


# -- steps only the top level admits -----------------------------------------


@record
class SchemeVarSig(Node):
    name: str
    kind: str  # "pred" | "func"
    arg_types: tuple[SType, ...]
    result: SType | None = None


@record
class ItScheme(SStep):
    name: str
    sigs: tuple[SchemeVarSig, ...]
    statement: SFormula
    provided: tuple[SLabeled, ...]
    steps: tuple[SStep, ...]
    end_pos: Pos


@record
class SCorrectness(Node):
    kind: str  # "existence" | "coherence" | "uniqueness"
    just: SJust


@record
class DefAttr(Node):
    subject: str
    arg: str | None
    name: str
    def_label: str | None
    definiens: SFormula
    expandable: bool


@record
class DefMode(Node):
    name: str
    args: tuple[str, ...]
    parent: SType
    def_label: str | None
    definiens: SFormula | None
    expandable: bool


@record
class DefFunc(Node):
    name: str
    args: tuple[str, ...]
    result: SType
    def_label: str | None
    equals: STerm | None
    means: SFormula | None


@record
class DefPred(Node):
    name: str
    args: tuple[str, ...]
    def_label: str | None
    definiens: SFormula
    expandable: bool


@record
class ItDefinition(SStep):
    lets: tuple[SBinders, ...]
    body: DefAttr | DefMode | DefFunc | DefPred
    correctness: tuple[SCorrectness, ...]


@record
class RegExistential(Node):
    ty: SType


@record
class RegFunctor(Node):
    term: STerm
    adjs: tuple[SAdj, ...]


@record
class RegConditional(Node):
    guard: tuple[SAdj, ...]
    target: tuple[SAdj, ...]
    ty: SType


@record
class ItRegistration(SStep):
    lets: tuple[SBinders, ...]
    body: RegExistential | RegFunctor | RegConditional
    correctness: tuple[SCorrectness, ...]


@record
class Article:
    requirements: tuple[str, ...]
    items: tuple[SStep, ...]
