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
dataclasses compared and hashed by value; not frozen, which would make
them dearer to build, they are never assigned to (a boundary test holds
every module to that).  Every concrete kind is a leaf, so ``type(s) is
K`` tests what the class pattern ``K()`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Pos


@dataclass(slots=True, unsafe_hash=True)
class Node:
    pos: Pos


# -- terms ---------------------------------------------------------------


class STerm(Node):
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class SNum(STerm):
    value: int


@dataclass(slots=True, unsafe_hash=True)
class SVar(STerm):
    """Bare identifier; could be a constant, locus, or nullary functor."""

    name: str


@dataclass(slots=True, unsafe_hash=True)
class SApp(STerm):
    """Named application, including operator spellings like "+" or
    "bool".  Arity disambiguates overloaded spellings ("-" is both
    subtraction and negation)."""

    name: str
    args: tuple[STerm, ...]


@dataclass(slots=True, unsafe_hash=True)
class SDollar(STerm):
    """Positional locus $1..$n inside deffunc/defpred bodies."""

    index: int


@dataclass(slots=True, unsafe_hash=True)
class SThe(STerm):
    ty: "SType"


@dataclass(slots=True, unsafe_hash=True)
class SFraenkel(STerm):
    body: STerm
    binders: tuple["SBinders", ...]
    guard: "SFormula"


# -- types ---------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class SAdj(Node):
    positive: bool
    name: str
    arg: STerm | None = None


@dataclass(slots=True, unsafe_hash=True)
class SType(Node):
    adjs: tuple[SAdj, ...]
    mode: str
    arg: STerm | None = None


@dataclass(slots=True, unsafe_hash=True)
class SBinders(Node):
    names: tuple[str, ...]
    ty: SType


# -- formulas ------------------------------------------------------------


class SFormula(Node):
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class SContradiction(SFormula):
    pass


@dataclass(slots=True, unsafe_hash=True)
class SThesis(SFormula):
    pass


@dataclass(slots=True, unsafe_hash=True)
class SNot(SFormula):
    body: SFormula


@dataclass(slots=True, unsafe_hash=True)
class SAnd(SFormula):
    parts: tuple[SFormula, ...]


@dataclass(slots=True, unsafe_hash=True)
class SOr(SFormula):
    parts: tuple[SFormula, ...]


@dataclass(slots=True, unsafe_hash=True)
class SImplies(SFormula):
    antecedent: SFormula
    consequent: SFormula


@dataclass(slots=True, unsafe_hash=True)
class SIff(SFormula):
    left: SFormula
    right: SFormula


@dataclass(slots=True, unsafe_hash=True)
class SFlex(SFormula):
    """``lo & ... & hi`` with literal dots."""

    lo: SFormula
    hi: SFormula


@dataclass(slots=True, unsafe_hash=True)
class SForAll(SFormula):
    binders: tuple[SBinders, ...]
    guard: SFormula | None
    body: SFormula


@dataclass(slots=True, unsafe_hash=True)
class SExists(SFormula):
    binders: tuple[SBinders, ...]
    body: SFormula


@dataclass(slots=True, unsafe_hash=True)
class SPredAtom(SFormula):
    """Predicate application by spelling: "=", "in", "<", user names."""

    name: str
    args: tuple[STerm, ...]


@dataclass(slots=True, unsafe_hash=True)
class SBracketAtom(SFormula):
    """Square-bracket application: defpred or scheme predicate usage."""

    name: str
    args: tuple[STerm, ...]


@dataclass(slots=True, unsafe_hash=True)
class SIs(SFormula):
    term: STerm
    adjs: tuple[SAdj, ...]


@dataclass(slots=True, unsafe_hash=True)
class SQual(SFormula):
    term: STerm
    ty: SType


# -- justifications -------------------------------------------------------


class SJust(Node):
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class SBy(SJust):
    refs: tuple[tuple[str, Pos], ...]
    linked: bool = False


@dataclass(slots=True, unsafe_hash=True)
class SFrom(SJust):
    scheme: str
    refs: tuple[tuple[str, Pos], ...]
    linked: bool = False


@dataclass(slots=True, unsafe_hash=True)
class SSubProof(SJust):
    steps: tuple["SStep", ...]
    end_pos: Pos


# -- proof steps ----------------------------------------------------------


class SStep(Node):
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class SLabeled(Node):
    label: str | None
    formula: SFormula


@dataclass(slots=True, unsafe_hash=True)
class StLet(SStep):
    names: tuple[str, ...]
    ty: SType


@dataclass(slots=True, unsafe_hash=True)
class StAssume(SStep):
    conds: tuple[SLabeled, ...]


@dataclass(slots=True, unsafe_hash=True)
class StThus(SStep):
    prop: SLabeled
    just: SJust


@dataclass(slots=True, unsafe_hash=True)
class StTake(SStep):
    term: STerm


@dataclass(slots=True, unsafe_hash=True)
class StTakeEq(SStep):
    name: str
    term: STerm


@dataclass(slots=True, unsafe_hash=True)
class StConsider(SStep):
    name: str
    ty: SType
    conds: tuple[SLabeled, ...]
    just: SJust


@dataclass(slots=True, unsafe_hash=True)
class StGiven(SStep):
    name: str
    ty: SType
    conds: tuple[SLabeled, ...]


@dataclass(slots=True, unsafe_hash=True)
class StReconsider(SStep):
    name: str
    term: STerm
    ty: SType
    just: SJust


@dataclass(slots=True, unsafe_hash=True)
class StCaseBlock(Node):
    cond: SLabeled
    steps: tuple[SStep, ...]
    end_pos: Pos


@dataclass(slots=True, unsafe_hash=True)
class StPerCases(SStep):
    just: SJust
    kind: str  # "suppose" | "case"
    blocks: tuple[StCaseBlock, ...]


@dataclass(slots=True, unsafe_hash=True)
class StNow(SStep):
    label: str | None
    steps: tuple[SStep, ...]
    end_pos: Pos


@dataclass(slots=True, unsafe_hash=True)
class StProp(SStep):
    prop: SLabeled
    just: SJust


@dataclass(slots=True, unsafe_hash=True)
class StDeffunc(SStep):
    name: str
    arg_types: tuple[SType, ...]
    body: STerm


@dataclass(slots=True, unsafe_hash=True)
class StDefpred(SStep):
    name: str
    arg_types: tuple[SType, ...]
    body: SFormula


# -- steps only the top level admits -----------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class SchemeVarSig(Node):
    name: str
    kind: str  # "pred" | "func"
    arg_types: tuple[SType, ...]
    result: SType | None = None


@dataclass(slots=True, unsafe_hash=True)
class ItScheme(SStep):
    name: str
    sigs: tuple[SchemeVarSig, ...]
    statement: SFormula
    provided: tuple[SLabeled, ...]
    steps: tuple[SStep, ...]
    end_pos: Pos


@dataclass(slots=True, unsafe_hash=True)
class SCorrectness(Node):
    kind: str  # "existence" | "coherence" | "uniqueness"
    just: SJust


@dataclass(slots=True, unsafe_hash=True)
class DefAttr(Node):
    subject: str
    arg: str | None
    name: str
    def_label: str | None
    definiens: SFormula
    expandable: bool


@dataclass(slots=True, unsafe_hash=True)
class DefMode(Node):
    name: str
    args: tuple[str, ...]
    parent: SType
    def_label: str | None
    definiens: SFormula | None
    expandable: bool


@dataclass(slots=True, unsafe_hash=True)
class DefFunc(Node):
    name: str
    args: tuple[str, ...]
    result: SType
    def_label: str | None
    equals: STerm | None
    means: SFormula | None


@dataclass(slots=True, unsafe_hash=True)
class DefPred(Node):
    name: str
    args: tuple[str, ...]
    def_label: str | None
    definiens: SFormula
    expandable: bool


@dataclass(slots=True, unsafe_hash=True)
class ItDefinition(SStep):
    lets: tuple[SBinders, ...]
    body: DefAttr | DefMode | DefFunc | DefPred
    correctness: tuple[SCorrectness, ...]


@dataclass(slots=True, unsafe_hash=True)
class RegExistential(Node):
    ty: SType


@dataclass(slots=True, unsafe_hash=True)
class RegFunctor(Node):
    term: STerm
    adjs: tuple[SAdj, ...]


@dataclass(slots=True, unsafe_hash=True)
class RegConditional(Node):
    guard: tuple[SAdj, ...]
    target: tuple[SAdj, ...]
    ty: SType


@dataclass(slots=True, unsafe_hash=True)
class ItRegistration(SStep):
    lets: tuple[SBinders, ...]
    body: RegExistential | RegFunctor | RegConditional
    correctness: tuple[SCorrectness, ...]


@dataclass(slots=True, unsafe_hash=True)
class Article:
    requirements: tuple[str, ...]
    items: tuple[SStep, ...]
