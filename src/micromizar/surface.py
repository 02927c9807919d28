"""Surface syntax tree.

Everything the parser produces lives here: names are unresolved
strings, operators keep their spellings, and every node carries the
position of its first token.  Resolution into the core language
happens later, scope by scope, because most names (local constants,
loci, scheme placeholders) only acquire meaning inside the proof
walker.

An article is a sequence of proof steps, walked like the body of a
``now``.  A theorem is a `StProp` and a top-level ``deffunc`` or
``defpred`` is the step of that name.  `ItScheme`, `ItDefinition` and
`ItRegistration` may appear only at the top level; propositions,
``deffunc`` and ``defpred`` appear both there and in proofs, and every
other step only in proofs.  The parser enforces where each kind may
appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SourcePos


@dataclass(frozen=True)
class Node:
    pos: SourcePos


# -- terms ---------------------------------------------------------------


class STerm(Node):
    pass


@dataclass(frozen=True)
class SNum(STerm):
    value: int


@dataclass(frozen=True)
class SVar(STerm):
    """Bare identifier; could be a constant, locus, or nullary functor."""

    name: str


@dataclass(frozen=True)
class SApp(STerm):
    """Named application, including operator spellings like "+" or
    "bool".  Arity disambiguates overloaded spellings ("-" is both
    subtraction and negation)."""

    name: str
    args: tuple[STerm, ...]


@dataclass(frozen=True)
class SDollar(STerm):
    """Positional locus $1..$n inside deffunc/defpred bodies."""

    index: int


@dataclass(frozen=True)
class SThe(STerm):
    ty: "SType"


@dataclass(frozen=True)
class SFraenkel(STerm):
    body: STerm
    binders: tuple["SBinders", ...]
    guard: "SFormula"


# -- types ---------------------------------------------------------------


@dataclass(frozen=True)
class SAdj(Node):
    positive: bool
    name: str
    arg: STerm | None = None


@dataclass(frozen=True)
class SType(Node):
    adjs: tuple[SAdj, ...]
    mode: str
    arg: STerm | None = None


@dataclass(frozen=True)
class SBinders(Node):
    names: tuple[str, ...]
    ty: SType


# -- formulas ------------------------------------------------------------


class SFormula(Node):
    pass


@dataclass(frozen=True)
class SContradiction(SFormula):
    pass


@dataclass(frozen=True)
class SThesis(SFormula):
    pass


@dataclass(frozen=True)
class SNot(SFormula):
    body: SFormula


@dataclass(frozen=True)
class SAnd(SFormula):
    parts: tuple[SFormula, ...]


@dataclass(frozen=True)
class SOr(SFormula):
    parts: tuple[SFormula, ...]


@dataclass(frozen=True)
class SImplies(SFormula):
    antecedent: SFormula
    consequent: SFormula


@dataclass(frozen=True)
class SIff(SFormula):
    left: SFormula
    right: SFormula


@dataclass(frozen=True)
class SFlex(SFormula):
    """``lo & ... & hi`` with literal dots."""

    lo: SFormula
    hi: SFormula


@dataclass(frozen=True)
class SForAll(SFormula):
    binders: tuple[SBinders, ...]
    guard: SFormula | None
    body: SFormula


@dataclass(frozen=True)
class SExists(SFormula):
    binders: tuple[SBinders, ...]
    body: SFormula


@dataclass(frozen=True)
class SPredAtom(SFormula):
    """Predicate application by spelling: "=", "in", "<", user names."""

    name: str
    args: tuple[STerm, ...]


@dataclass(frozen=True)
class SBracketAtom(SFormula):
    """Square-bracket application: defpred or scheme predicate usage."""

    name: str
    args: tuple[STerm, ...]


@dataclass(frozen=True)
class SIs(SFormula):
    term: STerm
    adjs: tuple[SAdj, ...]


@dataclass(frozen=True)
class SQual(SFormula):
    term: STerm
    ty: SType


# -- justifications -------------------------------------------------------


class SJust(Node):
    pass


@dataclass(frozen=True)
class SBy(SJust):
    refs: tuple[tuple[str, SourcePos], ...]
    linked: bool = False


@dataclass(frozen=True)
class SFrom(SJust):
    scheme: str
    refs: tuple[tuple[str, SourcePos], ...]
    linked: bool = False


@dataclass(frozen=True)
class SSubProof(SJust):
    steps: tuple["SStep", ...]
    end_pos: SourcePos = field(default_factory=lambda: SourcePos(1, 1))


# -- proof steps ----------------------------------------------------------


class SStep(Node):
    pass


@dataclass(frozen=True)
class SLabeled(Node):
    label: str | None
    formula: SFormula


@dataclass(frozen=True)
class StLet(SStep):
    names: tuple[str, ...]
    ty: SType


@dataclass(frozen=True)
class StAssume(SStep):
    conds: tuple[SLabeled, ...]


@dataclass(frozen=True)
class StThus(SStep):
    prop: SLabeled
    just: SJust


@dataclass(frozen=True)
class StTake(SStep):
    term: STerm


@dataclass(frozen=True)
class StTakeEq(SStep):
    name: str
    term: STerm


@dataclass(frozen=True)
class StConsider(SStep):
    name: str
    ty: SType
    conds: tuple[SLabeled, ...]
    just: SJust


@dataclass(frozen=True)
class StGiven(SStep):
    name: str
    ty: SType
    conds: tuple[SLabeled, ...]


@dataclass(frozen=True)
class StReconsider(SStep):
    name: str
    term: STerm
    ty: SType
    just: SJust


@dataclass(frozen=True)
class StCaseBlock(Node):
    cond: SLabeled
    steps: tuple[SStep, ...]
    end_pos: SourcePos


@dataclass(frozen=True)
class StPerCases(SStep):
    just: SJust
    kind: str  # "suppose" | "case"
    blocks: tuple[StCaseBlock, ...]


@dataclass(frozen=True)
class StNow(SStep):
    label: str | None
    steps: tuple[SStep, ...]
    end_pos: SourcePos


@dataclass(frozen=True)
class StProp(SStep):
    prop: SLabeled
    just: SJust


@dataclass(frozen=True)
class StDeffunc(SStep):
    name: str
    arg_types: tuple[SType, ...]
    body: STerm


@dataclass(frozen=True)
class StDefpred(SStep):
    name: str
    arg_types: tuple[SType, ...]
    body: SFormula


# -- steps only the top level admits -----------------------------------------


@dataclass(frozen=True)
class SchemeVarSig(Node):
    name: str
    kind: str  # "pred" | "func"
    arg_types: tuple[SType, ...]
    result: SType | None = None


@dataclass(frozen=True)
class ItScheme(SStep):
    name: str
    sigs: tuple[SchemeVarSig, ...]
    statement: SFormula
    provided: tuple[SLabeled, ...]
    steps: tuple[SStep, ...]
    end_pos: SourcePos


@dataclass(frozen=True)
class SCorrectness(Node):
    kind: str  # "existence" | "coherence" | "uniqueness"
    just: SJust


@dataclass(frozen=True)
class DefAttr(Node):
    subject: str
    arg: str | None
    name: str
    def_label: str | None
    definiens: SFormula
    expandable: bool


@dataclass(frozen=True)
class DefMode(Node):
    name: str
    args: tuple[str, ...]
    parent: SType
    def_label: str | None
    definiens: SFormula | None
    expandable: bool


@dataclass(frozen=True)
class DefFunc(Node):
    name: str
    args: tuple[str, ...]
    result: SType
    def_label: str | None
    equals: STerm | None
    means: SFormula | None


@dataclass(frozen=True)
class DefPred(Node):
    name: str
    args: tuple[str, ...]
    def_label: str | None
    definiens: SFormula
    expandable: bool


@dataclass(frozen=True)
class ItDefinition(SStep):
    lets: tuple[SBinders, ...]
    body: DefAttr | DefMode | DefFunc | DefPred
    correctness: tuple[SCorrectness, ...]


@dataclass(frozen=True)
class RegExistential(Node):
    ty: SType


@dataclass(frozen=True)
class RegFunctor(Node):
    term: STerm
    adjs: tuple[SAdj, ...]


@dataclass(frozen=True)
class RegConditional(Node):
    guard: tuple[SAdj, ...]
    target: tuple[SAdj, ...]
    ty: SType


@dataclass(frozen=True)
class ItRegistration(SStep):
    lets: tuple[SBinders, ...]
    body: RegExistential | RegFunctor | RegConditional
    correctness: tuple[SCorrectness, ...]


@dataclass(frozen=True)
class Article:
    requirements: tuple[str, ...]
    items: tuple[SStep, ...]
