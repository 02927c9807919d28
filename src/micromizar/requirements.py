"""Requirement table: named builtin constructors gated by groups.

A requirements file assigns each named requirement slot a constructor of
some kind and an id.  An article's ``requirements`` directive enables
groups; a constructor is *present* only when it is assigned in the file
and its group is enabled.  Absence is a distinct state (``None``), never
an index value, and every lookup site has to deal with it.

The table is resolved when it is built and never changed afterwards:
the lookups, the builtin result types, the order clusters, the map from
functor ids to the arithmetic of ``arith.OPS`` and the map from functor
ids to the boolean equalities of ``REDUCTIONS`` are all stored.  So the
groups decide here what the equalizer's rule families do: how a
functor computes (``arith``), what a boolean term equals
(``reductions``) and which adjectives a number has (``value_attrs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from .arith import OPS, ZERO, ComplexRational, Op, folding
from .errors import RequirementFileError
from .logic import Attr, FunctorApp, Numeral, PrivFunc, Term, TypeExpr

GROUPS: dict[str, tuple[str, ...]] = {
    "HIDDEN": ("Object", "Set", "Equality", "Membership"),
    "BOOLE": ("Empty", "EmptySet", "Union", "Intersection", "Difference", "SymDiff", "Meets"),
    "SUBSET": ("Element", "PowerSet", "Subset", "SubsetMode"),
    "NUMERALS": ("Succ", "Natural", "NatSet", "Zero", "ZeroAttr"),
    "REAL": ("LessOrEqual", "Positive", "Negative"),
    "ARITHM": ("Add", "Mul", "Neg", "Inv", "Sub", "Div", "ImaginaryUnit", "Complex"),
}

# enabling key requires all values enabled too
GROUP_DEPS: dict[str, tuple[str, ...]] = {
    "ARITHM": ("NUMERALS", "REAL"),
}

KINDS = ("mode", "func", "pred", "attr")
VALUE_ATTRS_CAP = 4096  # values whose adjectives are kept, oldest dropped first

# The boolean requirement's equalities, Mizar's ``reduce`` rules, as rows
# (first, second, result) over the arguments "a" and "b" and the empty
# set "{}": ("a", "{}", "a") is a \/ {} = a.  A row holds of a node whose
# arguments' classes are the ones it names, so a second "a" asks for
# equal arguments; the equalizer then merges the node with the result.
REDUCTIONS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "Union": (("{}", "b", "b"), ("a", "{}", "a"), ("a", "a", "a")),
    "Intersection": (("{}", "b", "{}"), ("a", "{}", "{}"), ("a", "a", "a")),
    "Difference": (("a", "{}", "a"), ("{}", "b", "{}"), ("a", "a", "{}")),
    "SymDiff": (("a", "{}", "a"), ("{}", "b", "b"), ("a", "a", "{}")),
}

_GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}


@dataclass(frozen=True)
class Constructor:
    kind: str
    cid: int


@dataclass
class RequirementFile:
    """Parsed requirement file: name -> constructor, plus group listing."""

    assignments: dict[str, Constructor]
    groups: set[str]


def load_requirements(path: str) -> RequirementFile:
    assignments: dict[str, Constructor] = {}
    groups: set[str] = set()
    current_group: str | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("GROUP"):
                name = line[len("GROUP") :].strip()
                if name not in GROUPS:
                    raise RequirementFileError(f"line {lineno}: unknown group {name!r}")
                current_group = name
                groups.add(name)
                continue
            if "=" not in line:
                raise RequirementFileError(f"line {lineno}: expected NAME = kind:id")
            name, rhs = (part.strip() for part in line.split("=", 1))
            if name not in _GROUP_OF:
                raise RequirementFileError(f"line {lineno}: unknown requirement {name!r}")
            if current_group is None or _GROUP_OF[name] != current_group:
                raise RequirementFileError(f"line {lineno}: {name} listed outside its group")
            if name in assignments:
                raise RequirementFileError(f"line {lineno}: duplicate assignment for {name}")
            if ":" not in rhs:
                raise RequirementFileError(f"line {lineno}: expected kind:id after =")
            kind, _, num = rhs.partition(":")
            kind = kind.strip()
            if kind not in KINDS:
                raise RequirementFileError(f"line {lineno}: unknown kind {kind!r}")
            try:
                cid = int(num.strip())
            except ValueError:
                raise RequirementFileError(f"line {lineno}: bad id {num.strip()!r}") from None
            assignments[name] = Constructor(kind, cid)
    for group in groups:
        missing = [n for n in GROUPS[group] if n not in assignments]
        if missing:
            raise RequirementFileError(f"group {group} incomplete: missing {', '.join(missing)}")
    return RequirementFile(assignments, groups)


class RequirementTable:
    """Per-article view: file assignments filtered by enabled groups.

    ``arith`` maps each present builtin functor id to its ``OPS`` entry
    and is where the groups decide what the arithmetic does.  With
    ARITHM the entries keep their polynomial rules, so the equalizer
    normalizes polynomials; without it each entry only folds constants
    (``arith.folding``), so the naturals' functors only evaluate
    numerals: ``succ succ 0 = 2`` holds, but ``succ x = 3`` says nothing
    of ``x``.  ``reductions`` maps each present boolean functor id to its
    rows of ``REDUCTIONS``."""

    def __init__(self, file: RequirementFile, enabled: set[str]):
        self._file = file
        self.enabled = enabled
        self._present = {n: c for n, c in file.assignments.items() if _GROUP_OF[n] in enabled}
        self._ids = {n: c.cid for n, c in self._present.items()}
        # each requirement's id, or None, as an attribute read in hot loops
        self.ids = SimpleNamespace(**{n: self._ids.get(n) for n in _GROUP_OF})
        ops = OPS if "ARITHM" in enabled else {n: folding(op) for n, op in OPS.items()}
        self.arith: dict[int, Op] = {self._ids[n]: op for n, op in ops.items() if n in self._ids}
        self.reductions: dict[int, tuple[tuple[str, str, str], ...]] = {}
        for n, rows in REDUCTIONS.items():
            if n in self._ids:
                self.reductions.setdefault(self._ids[n], rows)  # the first name listed for an id wins
        self._result_types = self._builtin_result_types()
        self._clusters = self._order_clusters()
        self._numeral_type: TypeExpr | None = None  # made on first use: set_type() needs HIDDEN
        self._value_attrs: dict[ComplexRational, tuple[tuple[bool, int], ...]] = {}

    def present(self, name: str) -> bool:
        return name in self._present

    def constructor(self, name: str) -> Constructor | None:
        return self._present.get(name)

    def cid(self, name: str) -> int | None:
        return self._ids.get(name)

    def require(self, name: str) -> int:
        if name not in self._ids:
            raise KeyError(f"requirement {name} not present")
        return self._ids[name]

    def flex_enabled(self) -> bool:
        # flexary conjunctions lean on both the natural numbers and the order
        return self.present("NatSet") and self.present("LessOrEqual")

    def max_id(self, kind: str) -> int:
        ids = [c.cid for c in self._file.assignments.values() if c.kind == kind]
        return max(ids, default=-1)

    def term_value(
        self, t: Term, known: Callable[[Term], ComplexRational | None] | None = None
    ) -> ComplexRational | None:
        """Exact value of a term built from numerals and the builtin
        arithmetic functors, None when it has none.  ``known(s)`` may
        supply a value the caller already has for any subterm ``s``:
        the unifier passes the value the graph holds for its class."""
        if known is not None:
            v = known(t)
            if v is not None:
                return v
        match t:
            case Numeral(k):
                return ComplexRational.from_int(k) if "Natural" in self._ids else None
            case PrivFunc(_, _, exp):
                return self.term_value(exp, known)
            case FunctorApp(f, args) if f in self.arith:
                vals = [self.term_value(a, known) for a in args]
                if any(v is None for v in vals):
                    return None
                return self.arith[f].value(*vals)
        return None

    def value_attrs(self, v: ComplexRational) -> tuple[tuple[bool, int], ...]:
        """The adjectives of numbers that are present, zero, natural,
        positive and negative in that order, each with the sign ``v``
        gives it, as (sign, attribute id); memoized per value, for at
        most ``VALUE_ATTRS_CAP`` values."""
        memo = self._value_attrs
        out = memo.get(v)
        if out is None:
            if len(memo) >= VALUE_ATTRS_CAP:
                del memo[next(iter(memo))]
            ids = self.ids
            facts = (
                (v.is_zero(), ids.ZeroAttr),
                (v.is_natural(), ids.Natural),
                (not v.lex_le(ZERO), ids.Positive),
                (not ZERO.lex_le(v), ids.Negative),
            )
            out = memo[v] = tuple([(s, aid) for s, aid in facts if aid is not None])
        return out

    # -- types supplied by the builtin constructors -------------------------

    def object_type(self) -> TypeExpr:
        return TypeExpr(frozenset(), self.require("Object"))

    def set_type(self) -> TypeExpr:
        mode = self.ids.Set
        if mode is None:
            return self.object_type()
        return TypeExpr(frozenset(), mode)

    def attr_type(self, attr_names: list[str], extra: tuple[Attr, ...] = ()) -> TypeExpr:
        base = self.set_type()
        attrs = frozenset(Attr(True, self.require(n)) for n in attr_names) | frozenset(extra)
        return TypeExpr(attrs, base.mode, base.args)

    def nat_type(self) -> TypeExpr:
        return self.attr_type(["Natural"])

    def numeral_type(self) -> TypeExpr:
        if self._numeral_type is None:
            self._numeral_type = self.nat_type() if self.present("Natural") else self.set_type()
        return self._numeral_type

    def functor_result_type(self, cid: int) -> TypeExpr | None:
        """Result type of a builtin functor, None for user functors."""
        return self._result_types.get(cid)

    def _builtin_result_types(self) -> dict[int, TypeExpr]:
        out: dict[int, TypeExpr] = {}
        if "Object" not in self._ids:
            return out  # no base type without HIDDEN: set_type() reports that on use
        for names, make in (
            (("Union", "Intersection", "Difference", "SymDiff", "PowerSet", "NatSet"), self.set_type),
            (("EmptySet",), lambda: self.attr_type(["Empty"])),
            (("Succ",), self.nat_type),
            (("Zero",), lambda: self.attr_type(["ZeroAttr", "Natural"])),
            (("Add", "Mul", "Neg", "Inv", "Sub", "Div", "ImaginaryUnit"), lambda: self.attr_type(["Complex"])),
        ):
            for cid in (self._ids[n] for n in names if n in self._ids):
                if cid not in out:  # the first name listed for an id wins
                    out[cid] = make()
        return out

    def builtin_conditional_clusters(self) -> list[tuple[frozenset[Attr], frozenset[Attr]]]:
        return self._clusters

    def _order_clusters(self) -> list[tuple[frozenset[Attr], frozenset[Attr]]]:
        """Attribute implications the order requirement brings along.

        positive -> non negative, non zero; negative -> non positive,
        non zero; zero -> non positive, non negative.
        """
        if not (self.present("Positive") and self.present("Negative")):
            return []
        pos = self.require("Positive")
        neg = self.require("Negative")
        zero = self.ids.ZeroAttr
        pairs = [(pos, [neg]), (neg, [pos])]
        if zero is not None:
            pairs = [(pos, [neg, zero]), (neg, [pos, zero]), (zero, [pos, neg])]
        return [
            (frozenset({Attr(True, guard)}), frozenset(Attr(False, t) for t in targets))
            for guard, targets in pairs
        ]


def enable_groups(file: RequirementFile, names: list[str]) -> tuple[RequirementTable, str | None]:
    """Build the per-article table. Returns (table, error note or None).

    HIDDEN is always on.  A group must be listed in the file and its
    dependencies must be enabled alongside it.
    """
    enabled = {"HIDDEN"} if "HIDDEN" in file.groups else set()
    wanted = set(names) | enabled
    for name in names:
        if name not in GROUPS:
            return RequirementTable(file, enabled), f"unknown requirement group {name}"
        if name not in file.groups:
            return RequirementTable(file, enabled), f"group {name} not in the requirement file"
    for name in wanted:
        for dep in GROUP_DEPS.get(name, ()):
            if dep not in wanted:
                return (
                    RequirementTable(file, enabled),
                    f"group {name} requires {dep}",
                )
    return RequirementTable(file, wanted), None
