"""The tokenizer against the character-at-a-time reference it
replaced (``_oracles.reference_tokenize``): the same tokens at the same
positions, or the same error, on seeded random texts."""

import gc
import random
from collections import defaultdict

import pytest

import _oracles as orc
from micromizar.errors import MizarError, SourcePos
from micromizar.lexer import KEYWORDS, SYMBOLS, tokenize
from micromizar.parser import parse_article
from test_parser import FUZZ_ARTICLES
from test_surface_kinds import below

SEED = 20231
TEXTS = 3000

PIECES = (
    sorted(KEYWORDS)
    + sorted(SYMBOLS)
    + ["x", "c", "abc", "_y2", "A1", "0", "12", "007", "$12", "$1", "c=", "c =", "abc=", "c==", "::", ":: note"]
    + ["é", "xé", "a²", "a٣"]
)
BLANKS = ("", " ", " ", "  ", "\t", "\n", "\r\n", " :: a comment\n")
RARE = ("$", "²", "٣", "@", ".", "Ⅻ")  # each an error where a token starts


def random_text(rng: random.Random) -> str:
    out = []
    for _ in range(rng.randrange(1, 25)):
        out.append(rng.choice(RARE) if rng.random() < 0.01 else rng.choice(PIECES))
        out.append(rng.choice(BLANKS))
    if rng.random() < 0.1:
        out.append(":: a comment at the end, with no line break")
    return "".join(out)


def outcome(tokenizer, text: str):
    """Every token as ``(kind, text, line, col)``, or the error."""
    try:
        tokens = tokenizer(text)
    except MizarError as e:
        return (e.code, e.pos, e.note)
    assert all(type(t) is tuple for t in tokens)
    return [(kind, word, line, col) for kind, word, line, col in tokens]


def test_tokens_and_errors_match_the_reference():
    rng = random.Random(SEED)
    errors = 0
    for _ in range(TEXTS):
        text = random_text(rng)
        expected = outcome(orc.reference_tokenize, text)
        assert outcome(tokenize, text) == expected, text
        errors += isinstance(expected, tuple)
    # both outcomes are well represented
    assert TEXTS // 20 < errors < TEXTS // 2


def test_the_rules_in_the_module_docstring():
    assert outcome(tokenize, "abc= c=d c =") == [
        ("ident", "abc", 1, 1),
        ("sym", "=", 1, 4),
        ("sym", "c=", 1, 6),
        ("ident", "d", 1, 8),
        ("ident", "c", 1, 10),
        ("sym", "=", 1, 12),
        ("eof", "", 1, 13),
    ]
    # a column counts characters; the end sits past a final comment
    assert outcome(tokenize, "é²\r\n\tx :: é") == [("ident", "é²", 1, 1), ("ident", "x", 2, 2), ("eof", "", 2, 8)]
    assert outcome(tokenize, "x ²") == (90, (1, 3), "unexpected character '²'")
    assert outcome(tokenize, "1٣") == (90, (1, 2), "unexpected character '٣'")
    assert outcome(tokenize, "\n  $x") == (90, (2, 3), "expected digits after $")
    # only "\n" ends a line: a form feed or a line separator is an error
    # where a token starts, and part of a comment
    assert outcome(tokenize, "x\x0cy") == (90, (1, 2), "unexpected character '\\x0c'")
    assert outcome(tokenize, "x\n\u2028 y") == (90, (2, 1), "unexpected character '\\u2028'")
    assert outcome(tokenize, "x :: \x0c\u2028\n y") == [("ident", "x", 1, 1), ("ident", "y", 2, 2), ("eof", "", 2, 3)]
    with pytest.raises(MizarError) as err:
        tokenize("\n  $x")
    assert str(err.value.pos) == "2:3"


def test_tokens_and_the_nodes_that_hold_them_compare_and_hash_by_value():
    text = "environ begin\ntheorem T: for x being set holds x = {} \\/ x;"
    assert tokenize(text) == tokenize(text)
    assert len({*tokenize(text), *tokenize(text)}) == len(tokenize(text))
    (first, _), (second, _) = parse_article(text), parse_article(text)
    assert first == second and hash(first) == hash(second)


def test_no_keyword_or_symbol_text_is_a_token_of_another_kind():
    """The parser tests keywords and symbols by their text alone."""
    rng = random.Random(SEED)
    kinds = defaultdict(set)
    for _ in range(TEXTS):
        try:
            tokens = tokenize(random_text(rng))
        except MizarError:
            continue
        for kind, word, _, _ in tokens:
            kinds[word].add(kind)
    assert all(kinds[word] == {"kw"} for word in KEYWORDS)
    assert all(kinds[sym] == {"sym"} for sym in SYMBOLS)


def test_tokens_are_exact_tuples_the_cyclic_collector_untracks():
    tokens = tokenize("environ begin\ntheorem T: for x being set holds x = {} \\/ x;")
    gc.collect()
    assert not any(map(gc.is_tracked, tokens))


def test_positions_below_the_top_level_are_tuples_the_collector_untracks():
    # a top-level item's position is a SourcePos, which the collector
    # tracks for as long as the tree lives; every other is an exact tuple
    bodies = [text.removeprefix("environ begin\n") for text in FUZZ_ARTICLES]
    text = "environ begin\n" + bodies[0] + "theorem 1 = ;\n" + "".join(bodies[1:])

    def source_positions() -> int:
        return sum(type(o) is SourcePos for o in gc.get_objects())

    before = source_positions()
    article, errors = parse_article(text)
    made = source_positions() - before
    gc.collect()
    inner = [node for item in article.items for node in below(item)]
    assert len(article.items) > 10 and len(errors) == 1 and len(inner) > 300
    held = [node.pos for node in inner]
    held += [node.end_pos for node in (*article.items, *inner) if hasattr(node, "end_pos")]
    assert all(type(pos) is tuple for pos in held)
    assert not any(map(gc.is_tracked, held))
    assert all(type(item.pos) is SourcePos for item in article.items)
    assert made <= len(article.items) + len(errors)
