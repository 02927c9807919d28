"""Parser shape tests: token stream to surface tree."""

import gc
import random

import pytest

from micromizar.analyzer import Analyzer
from micromizar.errors import MizarError
from micromizar.lexer import tokenize
from micromizar.parser import MAX_NESTING, parse_article
from micromizar.surface import (
    ItScheme,
    RegConditional,
    RegExistential,
    RegFunctor,
    SAnd,
    SApp,
    SBracketAtom,
    SExists,
    SFlex,
    SForAll,
    SFraenkel,
    SIff,
    SImplies,
    SIs,
    SNot,
    SNum,
    SOr,
    SPredAtom,
    SQual,
    SSubProof,
    SVar,
    StAssume,
    StLet,
    StNow,
    StPerCases,
    StProp,
    StTakeEq,
    StThus,
)


def parse_formula(text: str):
    art, errs = parse_article(f"environ begin theorem {text};")
    assert errs == []
    (item,) = art.items
    return item.prop.formula


def parse_ok(text: str):
    art, errs = parse_article(text)
    assert errs == [], errs
    return art


def test_environ_requirement_names():
    art = parse_ok("environ requirements NUMERALS, REAL; requirements ARITHM; begin")
    assert art.requirements == ("NUMERALS", "REAL", "ARITHM")
    assert art.items == ()


def test_scheme_article_shape():
    art = parse_ok(
        """environ requirements NUMERALS;
begin
scheme Twist{P[set, set]}: 1 = 1
 provided A: P[1, 1] and B: not P[1, 1]
proof thus 1 = 1; end;
theorem 1 = 2
proof A1: 1 = 1; thus 1 = 2 from Twist(A1, A1); end;
"""
    )
    scheme, theorem = art.items
    assert isinstance(scheme, ItScheme)
    assert isinstance(theorem, StProp)
    (sig,) = scheme.sigs
    assert sig.kind == "pred" and len(sig.arg_types) == 2
    assert isinstance(scheme.provided[0].formula, SBracketAtom)
    assert isinstance(scheme.provided[1].formula, SNot)
    step = theorem.just.steps[1]
    assert step.just.scheme == "Twist"
    assert [r[0] for r in step.just.refs] == ["A1", "A1"]


def test_flex_conjunction_node():
    f = parse_formula("1 <= 1 & ... & 1 <= 3 implies 1 <= 2")
    assert isinstance(f, SImplies)
    assert isinstance(f.antecedent, SFlex)


def test_flex_keeps_outer_conjuncts():
    f = parse_formula("0 = 0 & 1 <= 1 & ... & 1 <= 3 & 2 = 2")
    assert isinstance(f, SAnd)
    kinds = [type(p).__name__ for p in f.parts]
    assert kinds == ["SPredAtom", "SFlex", "SPredAtom"]


def test_missing_semicolon_positions_error_at_next_token():
    art, errs = parse_article(
        """environ begin
theorem 1 = 1
proof
  let x be Nat
  thus 1 = 1;
end;
"""
    )
    assert len(errs) == 1
    assert errs[0].code == 90
    assert (errs[0].pos.line, errs[0].pos.col) == (5, 3)


def test_recovery_resumes_at_next_item():
    art, errs = parse_article(
        """environ begin
theorem 1 = + ;
theorem 2 = 2;
"""
    )
    assert len(errs) == 1
    assert len(art.items) == 1
    assert isinstance(art.items[0], StProp)


def test_a_syntax_error_leaves_no_reference_cycle():
    # the kept error has no traceback, whose frames would hold the error
    # list and the parser with every token
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        art, errs = parse_article("environ begin\ntheorem 1 = + ;\ntheorem 2 = 2;\n")
        assert [(e.code, e.pos.line) for e in errs] == [(90, 2)] and len(art.items) == 1
        del art, errs
        assert gc.collect() == 0
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def nested_theorem(depth: int) -> str:
    """``t = t`` whose innermost term sits `depth` nested terms and
    formulas down: the statement, its left side, then one per ``succ(``."""
    t = "succ(" * (depth - 2) + "0" + ")" * (depth - 2)
    return f"theorem {t} = {t};"


def check_article(text: str, req) -> list[tuple[int, int, int]]:
    art, errs = parse_article(text)
    errs = [e.to_error() for e in errs] + Analyzer(req).run(art)
    return sorted((e.code, e.pos.line, e.pos.col) for e in errs)


def test_nesting_past_the_limit_loses_only_its_item(req_all):
    parens = "(" * 200 + "1 = 1" + ")" * 200
    text = f"environ begin\n{nested_theorem(200)}\ntheorem {parens};\ntheorem 1 = 2;\n"
    # the first entry past the limit is the term after succ( number
    # MAX_NESTING - 1, and the formula after ( number MAX_NESTING
    succ_col = len("theorem ") + 1 + len("succ(") * (MAX_NESTING - 1)
    paren_col = len("theorem ") + 1 + MAX_NESTING
    assert check_article(text, req_all) == [(61, 4, 1), (90, 2, succ_col), (90, 3, paren_col)]


def test_nesting_at_the_limit_is_checked(req_all):
    at_limit = f"environ begin\n{nested_theorem(MAX_NESTING)}\n"
    assert check_article(at_limit, req_all) == []
    past = f"environ begin\n{nested_theorem(MAX_NESTING + 1)}\n"
    assert [code for code, _, _ in check_article(past, req_all)] == [90]


def test_operator_chains_count_toward_the_limit(req_all):
    minus = "- " * 500 + "1"
    nots = "not " * 1001 + "1 = 1"
    implies = " implies ".join(["1 = 1"] * 1000)
    quotes = "1" + '"' * 1500
    text = (
        f"environ begin\ntheorem {minus} = {minus};\ntheorem {nots};\n"
        f"theorem {implies};\ntheorem {quotes} = 1;\ntheorem 1 = 2;\n"
    )
    # the statement and its left side are two levels, so the minus sign
    # number MAX_NESTING - 1 is the first past the limit; each "not" is
    # one level below the statement's; the right operand of "implies"
    # number MAX_NESTING - 1 is past it at the entry into its left side,
    # and so is the '"' number MAX_NESTING - 1, at itself
    minus_col = len("theorem ") + 1 + len("- ") * (MAX_NESTING - 1)
    not_col = len("theorem ") + 1 + len("not ") * MAX_NESTING
    implies_col = len("theorem ") + 1 + len("1 = 1 implies ") * (MAX_NESTING - 1)
    quote_col = len("theorem 1") + MAX_NESTING - 1
    assert check_article(text, req_all) == [
        (61, 6, 1),
        (90, 2, minus_col),
        (90, 3, not_col),
        (90, 4, implies_col),
        (90, 5, quote_col),
    ]


def test_precedence_and_over_or_over_implies():
    f = parse_formula("1 = 1 & 2 = 2 or 3 = 3 implies 4 = 4")
    assert isinstance(f, SImplies)
    assert isinstance(f.antecedent, SOr)
    assert isinstance(f.antecedent.parts[0], SAnd)


def test_implies_right_associative_and_iff_loosest():
    f = parse_formula("1 = 1 implies 2 = 2 implies 3 = 3")
    assert isinstance(f, SImplies)
    assert isinstance(f.consequent, SImplies)
    g = parse_formula("1 = 1 implies 2 = 2 iff 3 = 3")
    assert isinstance(g, SIff)
    assert isinstance(g.left, SImplies)


def term_shape(t):
    """A term as nested tuples: ``(name, col, *args)`` for an
    application, the name of a variable, the value of a numeral."""
    if isinstance(t, SApp):
        return (t.name, t.pos[1], *map(term_shape, t.args))
    return t.name if isinstance(t, SVar) else t.value


def parse_term(text: str):
    """The left side of ``text = 0`` written on a line of its own."""
    (item,) = parse_ok(f"environ begin theorem\n{text} = 0;").items
    f = item.prop.formula
    assert isinstance(f, SPredAtom) and f.name == "="
    return term_shape(f.args[0])


def test_binary_term_trees():
    """Set operators bind loosest, then ``+ -``, then ``* /``; each
    level is left-associative, and a prefix operator takes one unary
    operand.  Each application sits at its operator's column."""
    assert parse_term('a + b * c \\/ d - e /\\ f"') == (
        "/\\",
        20,
        ("\\/", 11, ("+", 3, "a", ("*", 7, "b", "c")), ("-", 16, "d", "e")),
        ('"', 24, "f"),
    )
    assert parse_term("- a * b + succ c") == ("+", 9, ("*", 5, ("-", 1, "a"), "b"), ("succ", 11, "c"))
    assert parse_term("a - b - c * d / e \\+\\ f \\ g") == (
        "\\",
        25,
        ("\\+\\", 19, ("-", 7, ("-", 3, "a", "b"), ("/", 15, ("*", 11, "c", "d"), "e")), "f"),
        "g",
    )
    assert parse_term("(a \\/ b) * - - c + f(1 + 2, d /\\ e * 3)") == (
        "+",
        18,
        ("*", 10, ("\\/", 4, "a", "b"), ("-", 12, ("-", 14, "c"))),
        ("f", 20, ("+", 24, 1, 2), ("/\\", 31, "d", ("*", 36, "e", 3))),
    )


def test_quantifier_scope_is_maximal():
    f = parse_formula("not ex x being Nat st x = 0 & x = 1")
    assert isinstance(f, SNot)
    assert isinstance(f.body, SExists)
    assert isinstance(f.body.body, SAnd)


def test_binder_groups_and_guard():
    f = parse_formula("for x, y being Nat, z being set st x = y holds x = x")
    assert isinstance(f, SForAll)
    assert [g.names for g in f.binders] == [("x", "y"), ("z",)]
    assert f.guard is not None


def shape(node) -> str:
    """A formula or term as an s-expression: ``[rel args]`` for a
    predicate atom or an ``is`` clause, ``(op args)`` for any other
    node, a variable's name or a numeral's value."""
    match node:
        case SVar(_, name):
            return name
        case SNum(_, value):
            return str(value)
        case SApp(_, name, args):
            return f"({' '.join([name, *map(shape, args)])})"
        case SPredAtom(_, name, args):
            return f"[{' '.join([name, *map(shape, args)])}]"
        case SIs(_, term, adjs):
            return f"[is {shape(term)} {' '.join(a.name for a in adjs)}]"
        case SAnd(_, parts):
            return f"(& {' '.join(map(shape, parts))})"
        case SOr(_, parts):
            return f"(or {' '.join(map(shape, parts))})"
        case SImplies(_, a, b):
            return f"(implies {shape(a)} {shape(b)})"
        case SIff(_, a, b):
            return f"(iff {shape(a)} {shape(b)})"
        case SFlex(_, lo, hi):
            return f"(flex {shape(lo)} {shape(hi)})"
    raise AssertionError(node)


PAREN_AND_CONNECTIVE_CASES = [
    ("(1 + 2) * 3 = 9", "[= (* (+ 1 2) 3) 9]"),
    ("((1)) + 2 = 3", "[= (+ 1 2) 3]"),
    ("(1 = 1 or 2 = 2) & 3 = 3", "(& (or [= 1 1] [= 2 2]) [= 3 3])"),
    ("(x) & y", "(& [x] [y])"),
    ("(P(x))", "[P x]"),
    ("(a) is empty", "[is a empty]"),
    ('(a)" in b', '[in (" a) b]'),
    ("(1 = 1) implies (2 = 2)", "(implies [= 1 1] [= 2 2])"),
    ("a implies b implies c", "(implies [a] (implies [b] [c]))"),
    ("a iff b iff c", "(iff (iff [a] [b]) [c])"),
    ("a & b or c iff d implies e", "(iff (or (& [a] [b]) [c]) (implies [d] [e]))"),
    ("a or b & c or d", "(or [a] (& [b] [c]) [d])"),
    ("(a & ... & b) & c", "(& (flex [a] [b]) [c])"),
]


def test_a_parenthesis_opens_a_term_or_a_formula_and_connectives_nest():
    for text, want in PAREN_AND_CONNECTIVE_CASES:
        assert shape(parse_formula(text)) == want, text


def test_cluster_shapes_are_read_off_the_tokens_outside_brackets():
    art = parse_ok(
        """environ begin
registration
  cluster { a where a being set : for b being set holds a c= b } -> empty;
  coherence;
end;
registration
  cluster (succ 1)-ordered -> empty for set;
  coherence;
end;
registration
  cluster non empty Element of { a where a being set : for b being set holds a = b };
  existence;
end;
"""
    )
    functor, conditional, existential = (item.body for item in art.items)
    assert isinstance(functor, RegFunctor) and isinstance(functor.term, SFraenkel)
    assert isinstance(conditional, RegConditional)
    assert [(a.name, shape(a.arg)) for a in conditional.guard] == [("ordered", "(succ 1)")]
    assert isinstance(existential, RegExistential) and existential.ty.mode == "Element"


def test_is_clause_and_qualification():
    f = parse_formula("x is non empty")
    assert isinstance(f, SIs)
    assert f.adjs[0].positive is False
    g = parse_formula("x is Element of bool B")
    assert isinstance(g, SQual)
    assert g.ty.mode == "Element"
    h = parse_formula("n is 1-ordered")
    assert isinstance(h, SIs)
    assert h.adjs[0].arg is not None


def test_step_forms_round_trip():
    art = parse_ok(
        """environ begin
theorem ex n being Nat st n = 0
proof
  take n = 0;
  thus n = 0;
end;
theorem 1 = 1
proof
  assume that A: 1 = 2 and B: 2 = 3;
  per cases by A;
  suppose 1 = 1;
    N: now
      let q be Nat;
      thus q = q;
    end;
    hence thesis by N;
  end;
end;
"""
    )
    first, second = art.items
    assert isinstance(first.just.steps[0], StTakeEq)
    body = second.just.steps
    assert isinstance(body[0], StAssume)
    assert [c.label for c in body[0].conds] == ["A", "B"]
    pc = body[1]
    assert isinstance(pc, StPerCases) and pc.kind == "suppose"
    inner = pc.blocks[0].steps
    assert isinstance(inner[0], StNow)
    assert isinstance(inner[0].steps[0], StLet)


def test_then_links_following_statement():
    art = parse_ok(
        """environ begin
theorem 1 = 1
proof
  A: 1 = 1;
  then B: 1 = 1 by A;
  then thus 1 = 1;
end;
"""
    )
    steps = art.items[0].just.steps
    assert steps[1].just.linked is True
    assert isinstance(steps[2], StThus)
    assert steps[2].just.linked is True


def test_hence_marks_linked_justification():
    art = parse_ok(
        """environ begin
theorem 1 = 1
proof
  1 = 1;
  hence thesis;
end;
"""
    )
    steps = art.items[0].just.steps
    assert steps[0].just.linked is False
    assert steps[1].just.linked is True


def test_definition_and_registration_bodies():
    art = parse_ok(
        """environ requirements BOOLE, SUBSET;
begin
definition
  let n be Nat;
  attr n is big means :DefBig: 2 <= n;
end;
definition
  let X be set;
  mode Part of X -> set means it c= X;
  existence;
end;
registration
  cluster non empty set;
  existence proof take bool {}; thus thesis; end;
end;
registration
  let n be Nat;
  cluster n + 1 -> positive;
  coherence;
end;
registration
  cluster empty -> natural for set;
  coherence;
end;
"""
    )
    kinds = [type(getattr(i, "body", i)).__name__ for i in art.items]
    assert kinds == [
        "DefAttr",
        "DefMode",
        "RegExistential",
        "RegFunctor",
        "RegConditional",
    ]
    attr = art.items[0].body
    assert attr.def_label == "DefBig" and attr.subject == "n"
    mode = art.items[1].body
    assert mode.args == ("X",)
    reg = art.items[2]
    assert isinstance(reg.correctness[0].just, SSubProof)


def test_digits_that_int_rejects_are_90():
    # "²" passes str.isdigit(), and 5000 digits exceed what int() converts
    for statement in ("² = ²", "$² = 1", "1" * 5000 + " = 1"):
        art, errs = parse_article(f"environ begin theorem {statement};\ntheorem 2 = 2;\n")
        assert [(e.code, e.pos.line, e.pos.col) for e in errs] == [(90, 1, 23)]


def test_a_numeral_too_long_loses_only_its_item():
    art, errs = parse_article("environ begin theorem " + "1" * 5000 + " = 1;\ntheorem 2 = 2;\n")
    assert len(errs) == 1
    (item,) = art.items
    assert item.pos.line == 2


FUZZ_ARTICLES = (
    """environ begin
theorem for n being Nat holds n = 0 or n <> 0
proof
  let n be Nat;
  per cases;
  suppose A: n = 0;
    hence thesis;
  end;
  suppose B: n <> 0;
    thus thesis by B;
  end;
end;
theorem (ex n being Nat st n = 2) implies 1 + 1 = 2
proof
  given k being Nat such that A: k = 2;
  then 1 + 1 = k;
  hence 1 + 1 = 2 by A;
end;
theorem 1 = 1
proof
  A: ex n being Nat st n = 2
  proof
    take 2;
    thus 2 = 2;
  end;
  consider m being Nat such that B: m = 2 by A;
  reconsider k = m as set;
  N: now
    let x be set;
    thus x c= x;
  end;
  thus 1 = 1;
end;
""",
    """environ begin
definition
  let a be set;
  attr a is Z means :DZ: a = {};
end;
definition
  let a be set;
  mode Sub of a -> set means :DM: it c= a;
  existence
  proof
    let a be set;
    take a;
    thus a c= a;
  end;
end;
definition
  let a, b be set;
  func Un(a, b) -> set means :DU: it = a \\/ b;
end;
definition
  let a, b be set;
  pred R(a, b) means :DR: a c= b;
end;
registration
  cluster Z -> empty for set;
  coherence
  proof
    let a be Z set;
    A: a = {} by DZ;
    hence a is empty;
  end;
end;
registration
  cluster {} \\/ {} -> empty;
  coherence;
end;
theorem for a, b being set st R(a, b) holds a c= b by DR;
""",
    """environ begin
scheme Mp{P[set, set], Q[set, set]}: for a, b being set st P[a, b] holds Q[a, b]
provided A1: for a, b being set st P[a, b] holds Q[a, b]
proof
  let a, b be set;
  assume A2: P[a, b];
  thus Q[a, b] by A1, A2;
end;
deffunc F(Nat) = $1 + 1;
defpred S[set, set] means $2 = $1;
L: for a, b being set st a = b holds S[a, b];
theorem for a, b being set st a = b holds S[a, b] from Mp(L);
theorem F(1) = 2 & 1 <= 1 & ... & 1 <= 3 implies 1 <= 2;
theorem - (2 * 3) / 4 <= succ 1 & {} = {} \\/ {} & bool {} <> {};
""",
)
FUZZ_SEED = 8
FUZZ_MUTANTS = 200


def token_text(tokens) -> str:
    """Article text of a token list: a line break where the line
    number grows, otherwise one space between tokens."""
    out, line = [], 1
    for kind, text, at_line, _col in tokens:
        if kind == "eof":
            break
        out.append("\n" if at_line > line else " ")
        line = at_line
        out.append("$" + text if kind == "dollar" else text)
    return "".join(out)


def test_token_mutations_raise_only_mizar_errors(req_all):
    from micromizar.errors import MizarError
    from micromizar.lexer import tokenize
    from micromizar.surface import Article

    rng = random.Random(FUZZ_SEED)
    streams = [tokenize(text)[:-1] for text in FUZZ_ARTICLES]
    for text, tokens in zip(FUZZ_ARTICLES, streams):
        lines = lambda t: [(code, line) for code, line, _ in check_article(t, req_all)]  # noqa: E731
        assert lines(token_text(tokens)) == lines(text)
    items = 0
    for _ in range(FUZZ_MUTANTS):
        tokens = list(rng.choice(streams))
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(tokens) - 1)
            op = rng.choice(("delete", "duplicate", "swap"))
            if op == "delete":
                del tokens[i]
            elif op == "duplicate":
                tokens.insert(i, tokens[i])
            else:
                tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        try:
            art, _ = parse_article(token_text(tokens))
            analyzer = Analyzer(req_all)
            for item in art.items:
                analyzer.run(Article(art.requirements, (item,)))
                items += 1
            # a checker fault is reported as code 99 rather than raised;
            # it still fails this test
            assert analyzer.internal == []
        except MizarError:
            pass
    # the parser resumes after a broken item, so most items are checked
    assert items > 3 * FUZZ_MUTANTS


def test_a_bad_character_loses_only_its_item(req_all):
    body = "environ\nbegin\ntheorem 1 = 2;\ntheorem 2 = 2;\ntheorem 3 = 3 ? ;\ntheorem 1 = 3;\n"
    assert check_article(body, req_all) == [(61, 3, 1), (61, 6, 1), (90, 5, 15)]
    # each error `tokenize` raises, between two false theorems
    for bad in ("x ²", "1٣", "$x", "x\x0cy", "\u2028y", "$"):
        text = f"environ begin\ntheorem 1 = 2;\ntheorem {bad} = 1;\ntheorem 1 = 3;\n"
        with pytest.raises(MizarError) as err:
            tokenize(text)
        codes = check_article(text, req_all)
        assert codes == [(61, 2, 1), (61, 4, 1), (90, *err.value.pos)], bad
