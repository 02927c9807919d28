"""Rendering pinned down: the debug trace must be byte-stable."""

import pytest

from micromizar.formatter import Formatter
from micromizar.logic import (
    And,
    Attr,
    ForAll,
    FTrue,
    FunctorApp,
    Neg,
    Numeral,
    Pred,
    TypeExpr,
    bound,
    mk_and,
    mk_exists,
    mk_imp,
    mk_neg,
)
from micromizar.parser import parse_article
from micromizar.resolver import Resolver, Scope
from micromizar.subtyping import DefinitionDb


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


def test_numerals_and_unknown_functors(req_file):
    # a table with no functor constructors leaves id 7 unspelled
    from micromizar.requirements import enable_groups

    bare, note = enable_groups(req_file, [])
    assert note is None
    f = Formatter(Scope(bare, DefinitionDb(bare)))
    assert f.format_term(Numeral(37)) == "37"
    assert f.format_term(FunctorApp(7, (bound(0),))) == "K7(b0)"


def test_builtin_infix_spellings(fmt, req_all):
    add = req_all.require("Add")
    assert fmt.format_term(FunctorApp(add, (bound(0), bound(1)))) == "(b0 + b1)"


def test_truth_and_negated_pair_as_implication(fmt, req_all):
    assert fmt.format_formula(FTrue()) == "⊤"
    eq = req_all.require("Equality")
    a = Pred(eq, (bound(0), Numeral(1)))
    b = Pred(eq, (bound(0), Numeral(2)))
    assert fmt.format_formula(Neg(And((a, Neg(b))))) == "((b0 = 1) → (b0 = 2))"


def test_all_negative_conjunction_prints_as_disjunction(fmt, req_all):
    eq = req_all.require("Equality")
    a = Pred(eq, (bound(0), Numeral(1)))
    b = Pred(eq, (bound(0), Numeral(2)))
    assert fmt.format_formula(Neg(And((Neg(a), Neg(b))))) == "((b0 = 1) ∨ (b0 = 2))"


def test_negated_universal_prints_as_existential(fmt, req_all):
    eq = req_all.require("Equality")
    f = mk_exists(req_all.nat_type(), Pred(eq, (bound(0), bound(0))))
    assert fmt.format_formula(f) == "(∃ b0: natural set st (b0 = b0))"


def test_bound_levels_are_absolute(fmt, scope):
    f = resolve(scope, "for x, y being Nat holds x = y")
    assert (
        fmt.format_formula(f)
        == "(∀ b0: natural set, b1: natural set st (b0 = b1))"
    )


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
    rendered = [fmt.format_formula(resolve(scope, t)) for t in texts]
    assert len(set(rendered)) == len(rendered)


def test_trace_input_layout(fmt, scope):
    f = resolve(scope, "for x, y being Nat holds x = 1 & y = 2 implies x + y = 3")
    lines = fmt.trace_input(mk_neg(f))
    assert lines == [
        "input: ∃ b0: natural set, b1: natural set st",
        "  (b0 = 1) ∧ (b1 = 2) ∧ ¬((b0 + b1) = 3)",
    ]


def test_trace_refuting_names_skolems_in_order(fmt, scope, req_all):
    from micromizar.logic import const

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
        "refuting 3 @ A:9:7:",
        "  ∃ b0: natural set, b1: natural set st",
        "    (b0 = 1) ∧ ¬(b1 = 2)",
    ]


def test_wide_conjunctions_split_one_per_line(fmt, req_all):
    eq = req_all.require("Equality")
    parts = [Pred(eq, (Numeral(i), Numeral(i))) for i in range(12)]
    lines = fmt.trace_refuting(0, "A:1:1", mk_and(parts), [])
    assert lines[0] == "refuting 0 @ A:1:1:"
    assert lines[1] == "  (0 = 0) ∧"
    assert lines[2] == "    (1 = 1) ∧"
    assert lines[-1] == "    (11 = 11)"


def test_implication_keeps_positive_prefix(fmt, req_all):
    sub = req_all.require("Subset")
    s1 = Pred(sub, (bound(0), Numeral(3)))
    s2 = Pred(sub, (Numeral(3), bound(0)))
    f = mk_neg(mk_and([s1, s2]))
    assert fmt.format_formula(f) == "((b0 c= 3) → ¬(3 c= b0))"
