"""Seeded Mizar-style articles whose expected verdicts are built in.

Every workload is one article: an ``environ`` header, an optional
preamble of definitions and lemmas, then about a thousand theorems drawn
from fixed counts of *families*.  A family writes one top-level item
from a small syntax tree and states the errors the checker must report
for it, as ``(code, line)`` pairs.  The expectation follows from how the
item was built, never from running the checker:

* an accepted family only uses inferences the checker is designed to
  make: congruence closure with exact arithmetic, polynomial normal
  forms, the empty-set and subset rules, unfolding of ``expandable``
  definitions, and one instance of one cited universal per DNF clause;
* a rejected family states something false (``holds`` finds a
  countermodel), so a sound checker must answer 61 at the step;
* the overflow family has more DNF clauses than ``CLAUSE_CAP`` allows,
  so the answer is 66 whatever the statement says.

``holds`` re-derives an item's truth from its syntax tree with a tiny
evaluator (sets over a two-element universe, numbers at sample points).
Rejected items are drawn until it finds a countermodel; the benchmark's
tests run it on every item.

Terms stay shallow (depth < 10): ``parse_article`` raises
``RecursionError`` near depth 200, which would lose the whole run.

Families the checker is not designed to decide are left out even where
the statement is true: chains of ``<=`` (the order rule has no
transitivity), inclusions that need ``{} c= a``, or clauses that need two
instances of a universal.

The same seed gives byte-identical text: all randomness flows from one
``random.Random`` seeded with the workload name and the seed, and
nothing iterates over a set or a hash.  Structural choices (term shape,
lemma kinds, proof shape) follow the item's index, so seeds differ only
in the values drawn, never in the mix.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

GROUPS = ("BOOLE", "SUBSET", "NUMERALS", "REAL", "ARITHM")


# -- syntax trees ------------------------------------------------------------
#
# term:    str (variable) | int (numeral) | ("{}",) | ("<i>",)
#          | ("neg", t) | (op, t, t) with op in + - * / \/ /\ \ \+\
# formula: (rel, t, t) with rel in = <> c= in <= <
#          | ("P", name, t, ...)      user predicate, prefix form
#          | ("is", t, attr) | ("qual", t, mode, t)
#          | ("not", f) | ("&", f, ...) | ("or", f, ...)


def term_text(t) -> str:
    if isinstance(t, str):
        return t
    if isinstance(t, int):
        return str(t)
    if t[0] in ("{}", "<i>"):
        return t[0]
    if t[0] == "neg":
        return f"-{_operand(t[1])}"
    return f"{_operand(t[1])} {t[0]} {_operand(t[2])}"


def _operand(t) -> str:
    s = term_text(t)
    return s if isinstance(t, (str, int)) or len(t) == 1 else f"({s})"


def form_text(f) -> str:
    head = f[0]
    if head in ("=", "<>", "c=", "in", "<=", "<"):
        return f"{term_text(f[1])} {head} {term_text(f[2])}"
    if head == "P":
        return f"{f[1]}({', '.join(term_text(a) for a in f[2:])})"
    if head == "is":
        return f"{term_text(f[1])} is {f[2]}"
    if head == "qual":
        return f"{term_text(f[1])} is {f[2]} of {term_text(f[3])}"
    if head == "not":
        return f"not {_sub(f[1])}"
    if head == "&":
        return " & ".join(_sub(g) for g in f[1:])
    if head == "or":
        return " or ".join(_sub(g, "&") for g in f[1:])
    raise ValueError(f)


def _sub(f, allowed: str = "") -> str:
    s = form_text(f)
    return f"({s})" if f[0] in ("&", "or") and f[0] != allowed else s


# -- the generator's own semantics -------------------------------------------

UNIVERSE = (0, 1)
SETS = tuple(frozenset(c) for r in range(3) for c in itertools.combinations(UNIVERSE, r))
NUMBERS = (-2, -1, 0, 1, 2, 3)

# user constructors of the lemma preamble; the mode takes (subject, argument)
MEANING = {
    "R": lambda a, b: a <= b,
    "S": lambda a, b: b <= a,
    "E": lambda a: not a,
    "M": lambda x, a: x <= a,
}


@dataclass(frozen=True)
class Check:
    """Enough to decide the item's statement without the checker."""

    binders: tuple[tuple[str, str], ...]  # (variable, "set" | "object" | "complex")
    hyp: tuple | None
    goal: tuple
    opaque: frozenset[str] = frozenset()  # user constructors read as "always true"


def _value(t, env):
    if isinstance(t, str):
        return env[t]
    if isinstance(t, int):
        return t
    op = t[0]
    if op == "{}":
        return frozenset()
    if op == "<i>":
        return 1j
    if op == "neg":
        return -_value(t[1], env)
    a, b = _value(t[1], env), _value(t[2], env)
    if a is None or b is None:
        return None  # division by zero below
    match op:
        case "+":
            return a + b
        case "-":
            return a - b
        case "*":
            return a * b
        case "/":
            return Fraction(a) / Fraction(b) if b else None
        case "\\/":
            return a | b
        case "/\\":
            return a & b
        case "\\":
            return a - b
        case "\\+\\":
            return a ^ b
    raise ValueError(t)


def _truth(f, env, opaque) -> bool:
    head = f[0]
    if head in ("not", "&", "or"):
        parts = [_truth(g, env, opaque) for g in f[1:]]
        return not parts[0] if head == "not" else all(parts) if head == "&" else any(parts)
    if head in ("P", "is", "qual"):
        name, args = (f[1], f[2:]) if head == "P" else (f[2], (f[1], *f[3:]))
        if name in opaque:
            return True
        return MEANING[name.rstrip("0123456789")](*(_value(a, env) for a in args))
    a, b = _value(f[1], env), _value(f[2], env)
    match head:
        case "=":
            return a == b
        case "<>":
            return a != b
        case "c=":
            return a <= b
        case "in":
            return a in b
        case "<=":
            return a <= b
        case "<":
            return a < b
    raise ValueError(f)


def holds(c: Check) -> bool:
    """True when no assignment over the sample domains refutes the item."""
    domains = {"set": SETS, "object": UNIVERSE, "complex": NUMBERS}
    names = [n for n, _ in c.binders]
    for values in itertools.product(*(domains[k] for _, k in c.binders)):
        env = dict(zip(names, values))
        if c.hyp is not None and not _truth(c.hyp, env, c.opaque):
            continue
        if not _truth(c.goal, env, c.opaque):
            return False
    return True


# -- items and articles ------------------------------------------------------


@dataclass
class Item:
    family: str
    lines: list[str]
    errors: list[tuple[int, int]] = field(default_factory=list)  # (code, line offset)
    check: Check | None = None


@dataclass(frozen=True)
class Expected:
    family: str
    line: int  # line of the item's first token
    errors: tuple[tuple[int, int], ...]  # sorted (code, line)


@dataclass(frozen=True)
class Article:
    text: str
    items: tuple[Expected, ...]
    checks: tuple[Check | None, ...]


def _theorem(family: str, binders, hyp, goal, refs=(), reject: bool = False, opaque=()) -> Item:
    """A one-line theorem ``for binders st hyp holds goal by refs;``."""
    groups: list[tuple[list[str], str]] = []
    for name, kind in binders:
        ty = "complex object" if kind == "complex" else kind
        if groups and groups[-1][1] == ty:
            groups[-1][0].append(name)
        else:
            groups.append(([name], ty))
    quant = ", ".join(f"{', '.join(ns)} being {ty}" for ns, ty in groups)
    stmt = form_text(goal)
    if hyp is not None:
        stmt = f"for {quant} st {form_text(hyp)} holds {stmt}"
    elif binders:
        stmt = f"for {quant} holds {stmt}"
    just = f" by {', '.join(refs)}" if refs else ""
    check = Check(tuple(binders), hyp, goal, frozenset(opaque))
    return Item(family, [f"theorem {stmt}{just};"], [(61, 0)] if reject else [], check)


# -- algebra families ------------------------------------------------------------


def _linear(rng: random.Random, names: list[str]):
    """A random linear form as a term, with its coefficients."""
    coeffs = {n: rng.choice((1, 1, 2, 3, -1, -2)) for n in names}
    const = rng.randint(1, 4)
    t = None
    for n in names:
        c = coeffs[n]
        mono = n if abs(c) == 1 else ("*", abs(c), n)
        if t is None:
            t = ("neg", mono) if c < 0 else mono
        else:
            t = ("-" if c < 0 else "+", t, mono)
    poly = {(n,): coeffs[n] for n in names}
    poly[()] = const
    return ("+", t, const), poly


def _poly_mul(p, q):
    out: dict[tuple[str, ...], int] = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _poly_term(poly, rng: random.Random):
    monos = sorted(poly)
    rng.shuffle(monos)
    t = None
    for m in monos:
        c = poly[m]
        parts: list = ([abs(c)] if abs(c) != 1 or not m else []) + list(m)
        mono = parts[0]
        for p in parts[1:]:
            mono = ("*", mono, p)
        if t is None:
            t = ("neg", mono) if c < 0 else mono
        else:
            t = ("-" if c < 0 else "+", t, mono)
    return t if t is not None else 0


POLY_SHAPES = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))  # (variables, factors): degree <= 3


def fam_poly(rng: random.Random, variant: int, reject: bool = False) -> Item:
    """Product of two or three linear forms against its expansion: the
    polynomial normal form of both sides agrees, so the class merge
    contradicts the negated goal.  Off by one in a coefficient: false."""
    width, count = POLY_SHAPES[variant % len(POLY_SHAPES)]
    names = rng.sample(["x", "y", "z", "u", "v", "w"], width)
    factors = []
    poly = {(): 1}
    for _ in range(count):
        t, p = _linear(rng, names)
        factors.append(t)
        poly = _poly_mul(poly, p)
    if reject:
        m = rng.choice(sorted(poly))
        poly[m] += rng.choice((1, -1))
        poly = {k: c for k, c in poly.items() if c}
    lhs = factors[0]
    for f in factors[1:]:
        lhs = ("*", lhs, f)
    goal = ("=", lhs, _poly_term(poly, rng))
    used = sorted({n for f in factors for n in _vars(f)})
    return _theorem("poly", [(n, "complex") for n in used], None, goal, reject=reject)


def _vars(t):
    if isinstance(t, str):
        yield t
    elif isinstance(t, tuple):
        for a in t[1:]:
            yield from _vars(a)


def _num_expr(rng: random.Random, depth: int):
    """A full binary tree of operations over small numerals."""
    if depth == 0:
        return rng.randint(0, 12)
    op = rng.choice(("+", "+", "-", "*", "*", "/"))
    return (op, _num_expr(rng, depth - 1), _num_expr(rng, depth - 1))


def fam_numeral(rng: random.Random, variant: int, reject: bool = False) -> Item:
    """Closed arithmetic on numerals: exact values decide it.  Off by one:
    false."""
    while True:
        e = _num_expr(rng, 2 + variant % 2)
        v = _value(e, {})
        if v is not None and v == int(v) and v >= 0:
            break
    target = int(v) + (1 if reject else 0)
    return _theorem("numeral", [], None, ("=", e, target), reject=reject)


def fam_linear(rng: random.Random, variant: int, reject: bool = False) -> Item:
    """``a * x + b = c`` pins ``x``: the one-variable linear gap rule.
    Answer off by one: false."""
    x = rng.choice(["x", "y", "z", "t"])
    a, d = rng.randint(2, 5), rng.randint(0, 2)  # x = d lies in NUMBERS
    b = rng.randint(0, 9)
    hyp = ("=", ("+", ("*", a, x), b), a * d + b)
    return _theorem("linear", [(x, "complex")], hyp, ("=", x, d + (1 if reject else 0)), reject=reject)


def _set_term(rng: random.Random, names: list[str]):
    if rng.random() < 0.6:
        return rng.choice(names)
    return (rng.choice(("\\/", "/\\")), *rng.sample(names, 2))


def fam_antisym(rng: random.Random, variant: int, reject: bool = False) -> Item:
    """``c=`` both ways gives equality.  One inclusion swapped: false."""
    names = rng.sample(["A", "B", "C", "X", "Y"], 3)
    s = _set_term(rng, names[:2])
    t = names[2] if rng.random() < 0.6 else (rng.choice(("\\/", "/\\")), names[2], rng.choice(names[:2]))
    back = ("c=", s, t) if reject else ("c=", t, s)
    hyp = ("&", ("c=", s, t), back)
    goal = ("=", t, s) if rng.random() < 0.5 else ("=", s, t)
    used = sorted({*_vars(s), *_vars(t)})
    return _theorem("antisym", [(n, "set") for n in used], hyp, goal, reject=reject)


def _reduces_to(rng: random.Random, target, names: list[str], depth: int):
    """A set term that the empty-set rules rewrite to ``target``."""
    if depth == 0:
        return target
    sub = _reduces_to(rng, target, names, depth - 1)
    other = _reduces_to(rng, rng.choice(names), names, depth - 1)
    if target == ("{}",):
        rules = [
            ("/\\", sub, ("{}",)),
            ("/\\", ("{}",), other),
            ("\\", ("{}",), other),
            ("\\", other, other),
            ("\\+\\", other, other),
            ("\\/", sub, sub),
        ]
    else:
        rules = [
            ("\\/", sub, ("{}",)),
            ("\\/", ("{}",), sub),
            ("\\/", sub, sub),
            ("/\\", sub, sub),
            ("\\", sub, ("{}",)),
            ("\\+\\", sub, ("{}",)),
            ("\\+\\", ("{}",), sub),
        ]
    return rng.choice(rules)


def fam_boole(rng: random.Random, variant: int, reject: bool = False) -> Item:
    """Identities of union, intersection, difference and symmetric
    difference with ``{}`` and with the same class; one in five
    instead derives ``<> {}`` from a membership.  Wrong right-hand side
    (another variable, or ``{}`` for a variable): false."""
    names = rng.sample(["A", "B", "C", "D"], 2)
    target = ("{}",) if variant % 3 == 2 else names[0]
    lhs = _reduces_to(rng, target, names, 2 + variant % 2)
    if not reject and variant % 5 == 0 and target != ("{}",):
        binders = [("x", "object")] + [(n, "set") for n in names]
        return _theorem("boole", binders, ("in", "x", lhs), ("<>", target, ("{}",)))
    rhs = target
    if reject:
        rhs = ("{}",) if target != ("{}",) else names[0]
    return _theorem("boole", [(n, "set") for n in names], None, ("=", lhs, rhs), reject=reject)


def fam_order(rng: random.Random, variant: int, reject: bool = False) -> Item:
    """Order antisymmetry and numeral comparison.  Reversed comparison of
    two different numerals: false."""
    if variant % 2 and not reject:
        x, y = rng.sample(["x", "y", "z"], 2)
        hyp = ("&", ("<=", x, y), ("<=", y, x))
        return _theorem("order", [(x, "complex"), (y, "complex")], hyp, ("=", y, x))
    a, b = sorted(rng.sample(range(0, 40), 2))
    rel = rng.choice(("<=", "<"))
    goal = (rel, b, a) if reject else (rel, a, b)
    return _theorem("order", [], None, goal, reject=reject)


def fam_imag(rng: random.Random, variant: int, reject: bool = False) -> Item:
    """Gaussian-integer products with ``<i>``: exact complex values.
    Imaginary part off by one: false."""
    a, b, c, d = (rng.randint(0, 6) for _ in range(4))
    left = ("*", ("+", a, ("*", b, ("<i>",))), ("+", c, ("*", d, ("<i>",))))
    re, im = a * c - b * d, a * d + b * c + (1 if reject else 0)
    right = ("+", re if re >= 0 else ("neg", -re), ("*", im if im >= 0 else ("neg", -im), ("<i>",)))
    return _theorem("imag", [], None, ("=", left, right), reject=reject)


# -- the lemma preamble and the theorems that cite it -------------------------

LEMMA_GROUPS = 3


def lemma_preamble() -> list[Item]:
    """User predicates, attributes and modes, then the universal lemmas.

    ``R`` and ``E`` are opaque: only their definitional facts (``DR``,
    ``DE``) or the lemmas say what they mean.  ``S`` and ``M`` are
    ``expandable``: the prechecker unfolds them everywhere.
    """
    out: list[Item] = []
    for k in range(1, LEMMA_GROUPS + 1):
        out += [
            Item("definition", [f"definition let a, b be set; pred R{k}(a, b) means :DR{k}: a c= b; end;"]),
            Item("definition", [f"definition let a, b be set; expandable pred S{k}(a, b) means b c= a; end;"]),
            Item("definition", [f"definition let a be set; attr a is E{k} means :DE{k}: a = {{}}; end;"]),
            Item("definition", [
                f"definition let a be set; expandable mode M{k} of a -> set means it c= a;",
                "existence proof let a be set; take a; thus a c= a; end; end;",
            ]),
            Item("lemma", [f"theorem LA{k}: for a, b being set st R{k}(a, b) & R{k}(b, a) holds a = b by DR{k};"]),
            Item("lemma", [f"theorem LC{k}: for a, b being set st R{k}(a, b) holds S{k}(b, a) by DR{k};"]),
            Item("lemma", [
                f"theorem LE{k}: for a, b being set st a is E{k} holds b \\/ a = b",
                f"proof let a, b be set; assume A: a is E{k}; a = {{}} by A, DE{k}; hence thesis; end;",
            ]),
            Item("lemma", [f"theorem LM{k}: for a, b being set st a is M{k} of b & b is M{k} of a holds a = b;"]),
        ]
    return out


LEMMA_KINDS = ("LA", "LC", "LE", "LM")


def _alternative(kind: str, k: int, u: str, v: str, swap: bool = False):
    """Hypothesis and goal that one instance of lemma ``kind``+``k`` links."""
    if kind == "LA":
        second = ("P", f"R{k}", u, v) if swap else ("P", f"R{k}", v, u)
        return ("&", ("P", f"R{k}", u, v), second), ("=", u, v)
    if kind == "LC":
        return ("P", f"R{k}", u, v), ("P", f"S{k}", u, v) if swap else ("P", f"S{k}", v, u)
    if kind == "LE":
        return ("is", u, f"E{k}"), ("=", ("\\/", v, u), u if swap else v)
    second = ("qual", u, f"M{k}", v) if swap else ("qual", v, f"M{k}", u)
    return ("&", ("qual", u, f"M{k}", v), second), ("=", u, v)


def _flat(head: str, parts: list):
    return parts[0] if len(parts) == 1 else (head, *parts)


# lemma kinds of the cited lemmas, cycled through by variant.  Costs
# differ (LM < LC < LA < LE) and LA and LE spread widely, so the shares
# are fixed and put the workload's median item in the middle of the
# narrow LC band: the percentiles then do not depend on the seed.
SINGLE_KINDS = ("LM",) * 8 + ("LC",) * 8 + ("LA",) * 2 + ("LE",) * 2
MULTI_KINDS = (("LA", "LC"), ("LE", "LM"), ("LA", "LE"), ("LC", "LM"), ("LA", "LC", "LE"), ("LC", "LE", "LM"))


def _pair(rng: random.Random, names: list[str], ascending: bool) -> tuple[str, str]:
    """Two of ``names``; their order against the declaration order (which
    decides where the unifier's search meets the refuting instance) is
    fixed by the caller, not drawn."""
    u, v = sorted(rng.sample(names, 2))
    return (u, v) if ascending else (v, u)


def _picks(rng: random.Random, kinds: tuple[str, ...], variant: int) -> list[tuple[str, int]]:
    """The cited lemmas, in an order rotated by ``variant``: the unifier
    tries them in citation order, so the order sets the cost."""
    turn = variant % len(kinds)
    return [(kind, rng.randint(1, LEMMA_GROUPS)) for kind in kinds[turn:] + kinds[:turn]]


def fam_cite(rng: random.Random, variant: int, count: int, width: int, noise: int) -> Item:
    """Disjunctive hypotheses, each alternative closed by one instance of
    one of ``count`` cited lemmas; ``noise`` extra disjunctions double
    the DNF clauses again.  ``width`` variables give the unifier that
    many classes to try."""
    names = rng.sample(["a", "b", "c", "d"], width)
    if count == 1:
        kinds = (SINGLE_KINDS[variant % len(SINGLE_KINDS)],)
    else:
        options = [ks for ks in MULTI_KINDS if len(ks) == count]
        kinds = options[variant % len(options)]
    picks = _picks(rng, kinds, variant // len(MULTI_KINDS))
    hyps, goals = [], []
    for i, (kind, k) in enumerate(picks):
        u, v = _pair(rng, names, (variant // len(SINGLE_KINDS) + i) % 2 == 0)
        h, g = _alternative(kind, k, u, v)
        hyps.append(h)
        goals.append(g)
    hyp = _flat("or", hyps)
    for _ in range(noise):
        u, v = rng.sample(names, 2)
        j = rng.randint(1, LEMMA_GROUPS)
        hyp = ("&", hyp, ("or", ("P", f"R{j}", u, v), ("P", f"R{j}", v, u)))
    refs = [f"{kind}{k}" for kind, k in picks]
    return _theorem("cite", [(n, "set") for n in sorted(names)], hyp, _flat("or", goals), refs)


def fam_cite_swapped(rng: random.Random, variant: int, reject: bool = True) -> Item:
    """One alternative with an argument swapped: false."""
    names = rng.sample(["a", "b", "c", "d"], 3)
    kinds = (LEMMA_KINDS[variant // 2 % 4],) if variant % 2 else MULTI_KINDS[variant // 2 % 4]
    picks = _picks(rng, kinds, variant // 8)
    hyps, goals = [], []
    for i, (kind, k) in enumerate(picks):
        u, v = _pair(rng, names, (variant // 8 + i) % 2 == 0)
        h, g = _alternative(kind, k, u, v, swap=i == 0)
        hyps.append(h)
        goals.append(g)
    refs = [f"{kind}{k}" for kind, k in picks]
    binders = [(n, "set") for n in sorted(names)]
    return _theorem("cite_swapped", binders, _flat("or", hyps), _flat("or", goals), refs, reject=True)


def fam_cite_wrong(rng: random.Random, variant: int) -> Item:
    """Cites the lemma of another group: the hypothesis's opaque
    predicate or attribute is then unconstrained, so the goal fails in a
    model where it always holds.  (``M`` unfolds, so it has no such
    case.)"""
    names = rng.sample(["a", "b", "c", "d"], 3)
    kind = ("LA", "LC", "LE")[variant % 3]
    k, wrong = rng.sample(range(1, LEMMA_GROUPS + 1), 2)
    u, v = _pair(rng, names, variant // 3 % 2 == 0)
    h, g = _alternative(kind, k, u, v)
    opaque = {f"R{k}"} if kind != "LE" else {f"E{k}"}
    binders = [(n, "set") for n in sorted(names)]
    return _theorem("cite_wrong", binders, h, g, [f"{kind}{wrong}"], reject=True, opaque=opaque)


def fam_overflow(rng: random.Random) -> Item:
    """Twelve independent disjunctions: 4096 DNF clauses, above
    ``CLAUSE_CAP``, so the prechecker gives up with 66."""
    names = rng.sample(["a", "b", "c", "d"], 4)
    parts = []
    for i in range(12):
        u, v = rng.sample(names, 2)
        j = i % LEMMA_GROUPS + 1
        parts.append(("or", ("P", f"R{j}", u, v), ("is", u, f"E{j}")))
    item = _theorem("overflow", [(n, "set") for n in sorted(names)], ("&", *parts), ("=", names[0], names[1]))
    item.errors = [(66, 0)]
    item.check = None
    return item


# -- skeleton families ---------------------------------------------------------------


def skeleton_block(i: int) -> list[Item]:
    """Definitions with their correctness conditions, all three cluster
    kinds, a scheme and a private predicate, numbered ``i``."""
    return [
        Item("definition", [
            f"definition let a, b be set; func Un{i}(a, b) -> set means :DU{i}: it = a \\/ b;",
            "existence proof let a, b be set; take a \\/ b; thus a \\/ b = a \\/ b; end;",
            "uniqueness proof let a, b, c, d be set; assume A: c = a \\/ b & d = a \\/ b;",
            "  thus c = d by A; end;",
            "end;",
        ]),
        Item("definition", [f"definition let a be set; func G{i}(a) -> set equals :DG{i}: a /\\ a; coherence; end;"]),
        Item("definition", [
            f"definition let a be set; mode Sub{i} of a -> set means :DM{i}: it c= a;",
            "existence proof let a be set; take a; thus a c= a; end; end;",
        ]),
        Item("definition", [f"definition let a be set; attr a is Z{i} means :DZ{i}: a = {{}}; end;"]),
        Item("registration", [
            f"registration cluster Z{i} -> empty for set;",
            f"coherence proof let a be Z{i} set; A: a = {{}} by DZ{i}; hence a is empty; end; end;",
        ]),
        Item("registration", [
            f"registration cluster Z{i} set;",
            f"existence proof take {{}}; A: {{}} = {{}}; thus {{}} is Z{i} by A, DZ{i}; end; end;",
        ]),
        Item("registration", [f"registration cluster {{}} \\/ {{}} -> empty; coherence; end;"]),
        Item("scheme", [
            f"scheme Mp{i}{{P[set, set], Q[set, set]}}: for a, b being set st P[a, b] holds Q[a, b]",
            "  provided A1: for a, b being set st P[a, b] holds Q[a, b]",
            "proof let a, b be set; assume A2: P[a, b]; thus Q[a, b] by A1, A2; end;",
        ]),
        Item("defpred", [f"defpred Q{i}[set, set] means $2 = $1;"]),
    ]


def _proof(family: str, head: str, body: list[str]) -> Item:
    return Item(family, [f"theorem {head}", "proof", *(f"  {s}" for s in body), "end;"])


def _chain(rng: random.Random, names: list[str], count: int) -> list[tuple]:
    """``count`` distinct inclusions between set terms over ``names``."""
    out: list[tuple] = []
    while len(out) < count:
        f = ("c=", _set_term(rng, names), _set_term(rng, names))
        if f[1] != f[2] and f not in out:
            out.append(f)
    return out


def fam_skeleton(rng: random.Random, variant: int, block: int) -> Item:
    """One structured proof whose every justification is trivial: each
    step restates a labelled assumption or a private definition, so the
    checker's share stays small and the front end carries the item."""
    names = rng.sample(["A", "B", "C", "D", "X", "Y"], 3 + variant // 8 % 2)
    decl = f"{', '.join(names)} being set"
    let = f"let {', '.join(names)} be set;"
    hyps = _chain(rng, names, 3 + variant % 3)
    labels = [f"H{i}" for i in range(1, len(hyps) + 1)]
    shown = rng.sample(range(len(hyps)), 2)
    stmt = f"for {decl} st {form_text(('&', *hyps))} holds {form_text(('&', *(hyps[i] for i in shown)))}"
    assumes = [f"assume {lab}: {form_text(h)};" for lab, h in zip(labels, hyps)]
    thus = [f"thus {form_text(hyps[i])} by {labels[i]};" for i in shown]
    x = rng.choice(["x", "y", "z"])
    n = rng.randint(1, 9)
    shape = variant % 8
    if shape == 0:
        return _proof("sk_assume", stmt, [let, *assumes, *thus])
    if shape == 1:
        # one assumption for the whole antecedent, then `hence`
        return _proof("sk_hence", stmt, [let, f"assume {form_text(('&', *hyps))};", f"hence {form_text(('&', *(hyps[i] for i in shown)))};"])
    if shape == 2:
        body = ["defpred P[set, set] means $1 c= $2;", f"deffunc F(set) = $1 \\/ {names[0]};"]
        return _proof("sk_private", stmt, [let, *body, *assumes, *thus])
    if shape == 3:
        return _proof("sk_take", f"for {x} being complex object holds ex w being complex object st w = {x} + {n}", [
            f"let {x} be complex object;", f"deffunc F(complex object) = $1 + {n};",
            f"take w = F({x});", f"thus w = {x} + {n};",
        ])
    if shape == 4:
        h, g = hyps[0], hyps[1]
        return _proof("sk_now", f"for {decl} st {form_text(('&', h, g))} holds {form_text(h)}", [
            let, f"assume H1: {form_text(h)};", f"assume H2: {form_text(g)};",
            f"H3: now assume H0: {form_text(g)}; thus {form_text(h)} by H1; end;",
            f"thus {form_text(h)} by H1;",
        ])
    if shape == 5:
        a = names[0]
        return _proof("sk_cases", f"for {decl} st {form_text(hyps[0])} holds {a} = {{}} or {a} <> {{}}", [
            let, f"assume H1: {form_text(hyps[0])};", "per cases;",
            f"suppose H2: {a} = {{}};", "  thus thesis by H2;", "end;",
            f"suppose H2: {a} <> {{}};", "  hence thesis;", "end;",
        ])
    if shape == 6:
        a, b, c = names[:3]
        return _proof("sk_consider", f"for {decl} st {b} c= {a} holds ex {c} being set st {c} c= {a}", [
            let, f"assume H1: {b} c= {a};",
            f"consider {c} being set such that H2: {c} c= {a} by H1;",
            f"take {c};", f"thus {c} c= {a} by H2;",
        ])
    a, b = names[:2]
    return _proof("sk_scheme", f"for {a}, {b} being set st {a} = {b} holds Q{block}[{a}, {b}]", [
        f"H1: for {a}, {b} being set st {a} = {b} holds Q{block}[{a}, {b}];",
        f"thus thesis from Mp{block}(H1);",
    ])


# -- workloads -----------------------------------------------------------------------

# Each workload: why it is here, and its fixed family counts.
WORKLOADS = {
    "algebra": "equalizer-bound one-line theorems: polynomials, numerals, c= and boolean set facts",
    "lemmas": "prechecker DNF and unifier search: disjunctive hypotheses citing 1-3 universal lemmas",
    "rejects": "false goals and clause overflow: equalizer to fixpoint, unifier search to exhaustion",
    "skeleton": "structured proofs with trivial steps: lexer, parser, resolver, analyzer, schematizer",
}

ALGEBRA = [
    (fam_poly, 240, False), (fam_numeral, 220, False), (fam_numeral, 20, True),
    (fam_linear, 100, False), (fam_antisym, 100, False), (fam_boole, 220, False),
    (fam_order, 50, False), (fam_imag, 50, False),
]
REJECTS = [
    (fam_poly, 200), (fam_numeral, 150), (fam_linear, 50), (fam_antisym, 50),
    (fam_boole, 100), (fam_order, 25), (fam_imag, 25), (fam_cite_swapped, 200),
]
CITE = [((1, 2, 0), 820), ((1, 3, 1), 110), ((2, 3, 0), 58), ((3, 3, 0), 12)]  # (count, width, noise)
SKELETON_BLOCK = 100  # theorems per block of definitions
SKELETON_THEOREMS = 1000


def _false(rng: random.Random, fam, variant: int) -> Item:
    """A rejected instance of ``fam`` whose statement has a countermodel.

    Breaking one argument can leave a statement that is still true (the
    swapped alternative may be covered by another); such draws are
    discarded.
    """
    while True:
        item = fam(rng, variant, True)
        if not holds(item.check):
            return item


def _items(workload: str, rng: random.Random) -> list[Item]:
    if workload == "algebra":
        items = [fam(rng, i, rej) for fam, count, rej in ALGEBRA for i in range(count)]
        rng.shuffle(items)
        return items
    if workload == "lemmas":
        body = [fam_cite(rng, i, *shape) for shape, count in CITE for i in range(count)]
        rng.shuffle(body)
        return lemma_preamble() + body
    if workload == "rejects":
        body = [_false(rng, fam, i) for fam, count in REJECTS for i in range(count)]
        body += [fam_cite_wrong(rng, i) for i in range(195)]
        body += [fam_overflow(rng) for _ in range(5)]
        rng.shuffle(body)
        return lemma_preamble() + body
    if workload == "skeleton":
        items: list[Item] = []
        for i in range(SKELETON_THEOREMS):
            block = i // SKELETON_BLOCK + 1
            if i % SKELETON_BLOCK == 0:
                items += skeleton_block(block)
            items.append(fam_skeleton(rng, i, block))
        return items
    raise ValueError(f"unknown workload {workload!r}")


def assemble(items: list[Item]) -> Article:
    """The article text with every item's expected errors on absolute lines."""
    lines = [f"environ requirements {', '.join(GROUPS)};", "begin"]
    expected, checks = [], []
    for item in items:
        start = len(lines) + 1
        errors = tuple(sorted((code, start + off) for code, off in item.errors))
        expected.append(Expected(item.family, start, errors))
        checks.append(item.check)
        lines += item.lines
    return Article("\n".join(lines) + "\n", tuple(expected), tuple(checks))


def build(workload: str, seed: int) -> Article:
    return assemble(_items(workload, random.Random(f"{workload}:{seed}")))
