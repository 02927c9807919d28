"""Printing kernel nodes as article text that reads back.

The property pinned here is the round trip: in the scope where a
formula was built, parsing its text and resolving the parse gives the
formula back.  It is checked on every formula and term the analyzer
resolves in the benchmark's workloads and in a hand-written article of
what they never build.  Excluded, by construction of those inputs:

* a constructor whose name a later definition took over: it prints as
  an indexed name that reads back as nothing (see
  `test_an_unspelled_constructor_never_reads_back_as_another`);
* the builtin ``Zero`` functor, which prints as ``0`` and reads back as
  the numeral;
* ``EQCLASS`` variables, which never leave the checker.
"""

import os
import sys

import pytest

from micromizar.analyzer import Analyzer
from micromizar.errors import MizarError
from micromizar.formatter import Formatter
from micromizar.lexer import tokenize
from micromizar.logic import (
    And,
    Attr,
    FTrue,
    FunctorApp,
    Is,
    Neg,
    Numeral,
    Pred,
    Qual,
    Term,
    TypeExpr,
    bound,
    const,
    mk_and,
    mk_exists,
    mk_neg,
)
from micromizar.parser import Parser, parse_article
from micromizar.prechecker import Justification, Prechecker
from micromizar.requirements import enable_groups, load_requirements
from micromizar.resolver import Resolver, Scope
from micromizar.subtyping import DefinitionDb
from micromizar.surface import Article

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "mizbench")
sys.path.insert(0, BENCH)
import gen  # noqa: E402


@pytest.fixture
def scope(req_all):
    return Scope(req_all, DefinitionDb(req_all))


@pytest.fixture
def fmt(scope):
    return Formatter(scope)


def resolve(scope, text: str):
    art, errs = parse_article(f"environ begin theorem {text};")
    assert errs == [], errs
    return Resolver(scope).formula(art.items[0].prop.formula)


def read_back(resolver, text: str, term: bool = False):
    """`text` parsed whole as a term or a formula, then resolved."""
    p = Parser(tokenize(text))
    s = p.term() if term else p.formula()
    assert p.tok[0] == "eof", text
    return resolver.term(s) if term else resolver.formula(s)


def round_trips(analyzer, x) -> str | None:
    """The text of `x` if it does not read back as `x` in the analyzer's
    live scope, else None."""
    term = isinstance(x, Term)
    fmt = analyzer.formatter
    text = fmt.format_term(x) if term else fmt.format_formula(x)
    return None if read_back(analyzer.resolver, text, term) == x else text


def checked_round_trips(monkeypatch, seen: list, wrong: list) -> None:
    """Read back every formula `Analyzer._resolve` returns and every node
    `Analyzer._resolving` resolves, where it was resolved."""
    plain, resolving = Analyzer._resolve, Analyzer._resolving

    def check(self, x):
        seen.append(type(x).__name__)
        text = round_trips(self, x)
        if text is not None:
            wrong.append((text, x))
        return x

    def checked_resolving(self, resolve, s, name, value):
        return resolving(self, lambda s: check(self, resolve(s)), s, name, value)

    monkeypatch.setattr(Analyzer, "_resolve", lambda self, s, thesis=None: check(self, plain(self, s, thesis)))
    monkeypatch.setattr(Analyzer, "_resolving", checked_resolving)


SAMPLE = 250  # items of each workload: every family each generator makes appears among its first 70


@pytest.mark.parametrize("workload", ["algebra", "lemmas", "rejects", "skeleton"])
def test_every_resolved_formula_of_a_workload_reads_back(workload, monkeypatch):
    # the checker's verdicts do not change what is resolved, so it is
    # left out: this test is about the front end and the printer
    table, note = enable_groups(load_requirements(os.path.join(BENCH, "requirements.txt")), list(gen.GROUPS))
    assert note is None
    built = gen.build(workload, 1)
    assert {e.family for e in built.items[:SAMPLE]} == {e.family for e in built.items}
    article, errors = parse_article(built.text)
    assert errors == []
    monkeypatch.setattr(Prechecker, "justify", lambda self, premises, goal, types: Justification(True))
    seen, wrong = [], []
    checked_round_trips(monkeypatch, seen, wrong)
    analyzer = Analyzer(table)
    for item in article.items[:SAMPLE]:
        analyzer.run(Article(article.requirements, (item,)))
    assert analyzer.internal == []
    assert len(seen) >= SAMPLE
    assert wrong == []


# what the workloads never build: adjectives with arguments, `the`,
# Fraenkel terms, flexary conjunctions, private and scheme functors,
# `it`, `iff`, the order relations the resolver desugars, each builtin
# operator's syntax, and `thesis` under a binder and in a Fraenkel guard
ARTICLE = """environ begin
definition
  let n be Nat;
  let x be set;
  attr x is n-bounded means for y being Nat st y in x holds y <= n;
end;
definition
  let x be set;
  func twice(x) -> set equals x \\/ x;
  coherence;
end;
definition
  let x be set;
  func same(x) -> set means it = x;
  existence
  proof
    let x be set;
    take x;
    thus x = x;
  end;
  uniqueness;
end;
definition
  let x be set;
  mode Part of x -> set means it c= x;
  existence
  proof
    let x be set;
    take x;
    thus thesis;
  end;
end;
definition
  let x, y be set;
  pred overlaps(x, y) means not x /\\ y = {};
end;
theorem for x being set holds x is 3-bounded implies x is 3-bounded;
theorem for x being set, n being Nat holds x is non (n + 1)-bounded implies not x is (n + 1)-bounded;
theorem the set = the set & the Element of NAT = the Element of NAT;
theorem { x where x being Nat : x < 3 } = { y where y being Nat : y < 3 };
theorem for A being set holds
  { x + y where x being Nat, y being Element of NAT : x <> y & x in A } c=
  { x + y where x being Nat, y being Element of NAT : x <> y & x in A };
defpred P[Nat] means $1 <= 5;
defpred B[Nat] means {} is $1-bounded;
deffunc G(Nat) = $1 + 1;
deffunc C() = 7;
theorem for n being Nat holds P[1] & ... & P[n] implies P[1] & ... & P[n];
theorem for n being Nat holds 1 <= n & ... & 3 <= n implies 1 <= n;
theorem for n being Nat holds B[n] & G(n) = n + 1 & C() = 7 implies B[n];
scheme Sch { F(Nat) -> Nat, Q[Nat] } : for x being Nat holds Q[F(x)]
provided A: for y being Nat holds Q[F(y)]
proof
  let x be Nat;
  thus Q[F(x)] by A;
end;
theorem for x being set holds x = x iff x c= x;
theorem for x, y being Nat holds x < y implies not x > y & x <> y & y >= x & not y <= x;
theorem for x being Nat holds succ x = succ x & bool {} = bool {} & -x = -x & x" = x" & <i> = <i>
  & (x - 1) - (1 - x) * (x / 2) = (x - 1) - (1 - x) * (x / 2) & {} \\+\\ {} = {} \\ {};
theorem for x, y being set holds twice(x) = twice(x) & same(x) = same(x) & x is Part of x implies
  x c= x or overlaps(x, y) or not contradiction;
theorem for x being set, z being Subset of x holds ex y being set st y = z
proof
  let x be set;
  let z be Subset of x;
  take z;
  thus thesis;
end;
theorem for x being set holds for z being set holds z = x or not z = x
proof
  let x be set;
  A: for y being Nat holds thesis;
  { y where y being Nat : thesis } = { y where y being Nat : for z being set holds z = x or not z = x };
  thus thesis by A;
end;
"""


def test_a_hand_written_article_reads_back(req_all, monkeypatch):
    seen, wrong = [], []
    checked_round_trips(monkeypatch, seen, wrong)
    article, errors = parse_article(ARTICLE)
    assert errors == []
    analyzer = Analyzer(req_all)
    assert analyzer.run(article) == []
    assert wrong == []
    assert set(seen) >= {"Neg", "And", "ForAll", "FunctorApp", "Numeral"}


def test_a_constant_named_like_a_binder_is_not_captured(scope, req_all):
    scope.consts["b0"] = 0
    scope.const_types.append(req_all.set_type())
    f = resolve(scope, "for x being set holds x = b0")
    text = Formatter(scope).format_formula(f)
    assert text == "for b0_ being set holds b0_ = b0"
    assert read_back(Resolver(scope), text) == f


def test_an_unspelled_constructor_never_reads_back_as_another(req_file):
    # a table with no functor constructors leaves id 7 unspelled; a user
    # constructor of every kind is named like its indexed fallback
    bare, note = enable_groups(req_file, [])
    assert note is None
    scope = Scope(bare, DefinitionDb(bare))
    scope.consts["c"] = 0
    scope.const_types.append(bare.set_type())
    scope.func_names[("K7", 1)] = 8
    scope.pred_names[("R7", 1)] = 8
    scope.attr_names["V7"] = (8, 0)
    scope.mode_names["M7"] = (8, 0)
    fmt, resolver = Formatter(scope), Resolver(scope)
    c = const(0)
    for node, own in [
        (FunctorApp(7, (c,)), FunctorApp(8, (c,))),
        (Pred(7, (c,)), Pred(8, (c,))),
        (Is(c, Attr(True, 7)), Is(c, Attr(True, 8))),
        (Qual(c, TypeExpr(frozenset(), 7)), Qual(c, TypeExpr(frozenset(), 8))),
    ]:
        term = isinstance(node, Term)
        text = fmt.format_term(node) if term else fmt.format_formula(node)
        with pytest.raises(MizarError):
            read_back(resolver, text, term)
        text = fmt.format_term(own) if term else fmt.format_formula(own)
        assert read_back(resolver, text, term) == own


def test_numerals_and_unknown_functors(req_file):
    # a table with no functor constructors leaves id 7 unspelled
    bare, note = enable_groups(req_file, [])
    assert note is None
    f = Formatter(Scope(bare, DefinitionDb(bare)))
    assert f.format_term(Numeral(37)) == "37"
    assert f.format_term(FunctorApp(7, (bound(0),))) == "K7(b0)"


def test_builtin_infix_spellings(fmt, req_all):
    add, mul, sub = (req_all.require(n) for n in ("Add", "Mul", "Sub"))
    x, y = bound(0), bound(1)
    assert fmt.format_term(FunctorApp(add, (x, y))) == "b0 + b1"
    assert fmt.format_term(FunctorApp(mul, (FunctorApp(add, (x, y)), y))) == "(b0 + b1) * b1"
    assert fmt.format_term(FunctorApp(sub, (x, FunctorApp(sub, (x, y))))) == "b0 - (b0 - b1)"
    assert fmt.format_term(FunctorApp(sub, (FunctorApp(sub, (x, y)), x))) == "b0 - b1 - b0"


def test_truth_and_negated_pair_as_implication(fmt, req_all):
    assert fmt.format_formula(FTrue()) == "not contradiction"
    eq = req_all.require("Equality")
    a = Pred(eq, (bound(0), Numeral(1)))
    b = Pred(eq, (bound(0), Numeral(2)))
    assert fmt.format_formula(Neg(And((a, Neg(b))))) == "b0 = 1 implies b0 = 2"


def test_all_negative_conjunction_prints_as_disjunction(fmt, req_all):
    eq = req_all.require("Equality")
    a = Pred(eq, (bound(0), Numeral(1)))
    b = Pred(eq, (bound(0), Numeral(2)))
    assert fmt.format_formula(Neg(And((Neg(a), Neg(b))))) == "b0 = 1 or b0 = 2"


def test_negated_universal_prints_as_existential(fmt, req_all):
    eq = req_all.require("Equality")
    f = mk_exists(req_all.nat_type(), Pred(eq, (bound(0), bound(0))))
    assert fmt.format_formula(f) == "ex b0 being natural set st b0 = b0"


def test_bound_levels_are_absolute(fmt, scope):
    f = resolve(scope, "for x, y being Nat holds x = y")
    assert fmt.format_formula(f) == "for b0 being natural set, b1 being natural set holds b0 = b1"


def test_rendering_is_deterministic(fmt, scope):
    f = resolve(scope, "for x being Nat holds x = 1 & x = 2 implies x + x = 3")
    assert fmt.format_formula(f) == fmt.format_formula(f)


def test_injective_on_distinct_formulas(fmt, scope):
    texts = [
        "2 + 2 = 4",
        "2 + 2 = 5",
        "for x being Nat holds x = x",
        "ex x being Nat st x = x",
        "for x being Nat holds x = x or x in NAT",
        "1 <= 2 implies 2 <= 3",
        "contradiction",
    ]
    fs = [resolve(scope, t) for t in texts]
    rendered = [fmt.format_formula(f) for f in fs]
    assert len(set(rendered)) == len(rendered)
    assert [read_back(Resolver(scope), text) for text in rendered] == fs


def test_trace_input_layout(fmt, scope):
    f = resolve(scope, "for x, y being Nat holds x = 1 & y = 2 implies x + y = 3")
    lines = fmt.trace_input("A:9:7", mk_neg(f))
    assert lines == [
        ":: input @ A:9:7",
        "ex b0 being natural set, b1 being natural set st b0 = 1 & b1 = 2 & not b0 + b1 = 3;",
    ]


def test_trace_refuting_names_skolems_in_order(fmt, scope, req_all):
    eq = req_all.require("Equality")
    nat = req_all.nat_type()
    body = mk_and(
        [
            Pred(eq, (const(0), Numeral(1))),
            Neg(Pred(eq, (const(1), Numeral(2)))),
        ]
    )
    lines = fmt.trace_refuting(3, "A:9:7", body, [(0, nat), (1, nat)])
    assert lines == [
        ":: refuting 3 @ A:9:7",
        "ex b0 being natural set, b1 being natural set st b0 = 1 & not b1 = 2;",
    ]


def test_implication_keeps_positive_prefix(fmt, req_all):
    sub = req_all.require("Subset")
    s1 = Pred(sub, (bound(0), Numeral(3)))
    s2 = Pred(sub, (Numeral(3), bound(0)))
    f = mk_neg(mk_and([s1, s2]))
    assert fmt.format_formula(f) == "b0 c= 3 implies not 3 c= b0"
