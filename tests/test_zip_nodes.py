"""The walk over two trees, and the three pair walks built on it.

Flex inference, thesis equality and scheme matching are hooks on
``logic.zip_nodes``.  Each is checked here against the hand-written walk
it replaced (``tests/_oracles.py``) on seeded pairs: a random tree, and
the same tree after up to two random mutations.
"""

import dataclasses
import random

import pytest

import _oracles as orc
from micromizar.flex import (
    FlexError,
    NoCommonShape,
    NonNumericBound,
    formula_equal,
    infer_flex_from_diff,
)
from micromizar.logic import (
    And,
    Attr,
    Choice,
    FTrue,
    FlexAnd,
    FlexConj,
    ForAll,
    Fraenkel,
    FunctorApp,
    Is,
    Neg,
    Numeral,
    Pred,
    PrivFunc,
    PrivPred,
    Qual,
    SchemeFunctorApp,
    SchemePred,
    ShapeMismatch,
    Term,
    TypeExpr,
    Var,
    attr_key,
    bound,
    const,
    mk_and,
    mk_neg,
    sorted_attrs,
    zip_nodes,
)
from micromizar.schematizer import (
    FUNC,
    GROUND,
    PRED,
    PRIV_FUNC,
    PRIV_PRED,
    Scheme,
    SchemeAssignment,
    SchemeMatchError,
    apply_assignment,
    match_scheme,
)

# ---------------------------------------------------------------------------
# the walk itself


def attr(k, *args):
    return Attr(True, 5, tuple(Numeral(a) for a in args)) if k else Attr(False, 6, ())


def test_unchanged_walk_returns_the_first_tree_itself():
    ty = TypeExpr(frozenset({attr(1, 2), attr(0)}), 1)
    a = ForAll(ty, mk_and([Pred(0, (bound(0), Numeral(1))), Is(const(0), attr(1, 3))]))
    b = ForAll(ty, mk_and([Pred(0, (bound(0), Numeral(1))), Is(const(0), attr(1, 3))]))
    seen = []
    assert zip_nodes(a, b, lambda x, y: seen.append(type(x).__name__)) is a
    # pre-order, every pair: types, attributes and the adjective before the subject
    assert seen == [
        "ForAll", "TypeExpr", "Attr", "Numeral", "Attr", "And", "Pred", "Var",
        "Numeral", "Is", "Attr", "Numeral", "Var",
    ]


def test_a_hook_result_replaces_the_pair_and_the_rest_is_rebuilt():
    a = Neg(Pred(0, (const(0), FunctorApp(1, (Numeral(1),)))))
    b = Neg(Pred(0, (const(0), FunctorApp(1, (Numeral(2),)))))
    out = zip_nodes(a, b, lambda x, y: bound(0) if type(x) is Numeral and x != y else None)
    assert out == Neg(Pred(0, (const(0), FunctorApp(1, (bound(0),)))))
    assert out.body.args[0] is a.body.args[0]


@pytest.mark.parametrize(
    "a, b",
    [
        (Pred(0, (const(0),)), Pred(1, (const(0),))),  # head
        (Pred(0, (const(0),)), Pred(0, (const(0), const(0)))),  # arity
        (Pred(0, (const(0),)), Neg(Pred(0, (const(0),)))),  # kind
        (Is(const(0), attr(1, 1)), Is(const(0), attr(0))),  # adjective head
        (Qual(const(0), TypeExpr(frozenset({attr(0)}), 1)),
         Qual(const(0), TypeExpr(frozenset(), 1))),  # cluster
    ],
)
def test_shape_mismatches(a, b):
    with pytest.raises(ShapeMismatch):
        zip_nodes(a, b, lambda x, y: None)


def test_a_mismatch_in_the_adjective_is_found_before_the_subject():
    hit = []

    def fn(x, y):
        if type(x) is Var:
            hit.append(x)
        return None

    with pytest.raises(ShapeMismatch):
        zip_nodes(Is(const(0), attr(1, 1)), Is(const(0), attr(0)), fn)
    assert hit == []


# ---------------------------------------------------------------------------
# seeded trees and mutations


class Gen:
    """Small random kernel trees.  ``pattern`` allows scheme placeholders
    where the matcher looks (not in a proof-local expansion or a Fraenkel
    term): predicate k and functor k have arity k (k in 0, 1)."""

    def __init__(self, rng: random.Random, pattern: bool = False):
        self.rng = rng
        self.pattern = pattern
        self.plain = Gen(rng) if pattern else self

    def term(self, pool: int, budget: int) -> Term:
        r = self.rng
        pick = r.randrange(9 if budget > 0 else 4)
        if pick == 0 and pool:
            return bound(r.randrange(pool))
        if pick <= 1:
            return const(r.randrange(2))
        if pick <= 3:
            return Numeral(r.randrange(4))
        if pick <= 5:
            return FunctorApp(r.randrange(2), self.args(pool, budget, r.randrange(1, 3)))
        if pick == 6:
            args = self.args(pool, budget, r.randrange(2))
            return PrivFunc(r.randrange(2), args, self.plain.term(pool, budget - 1))
        if pick == 7 and self.pattern:
            k = r.randrange(2)
            return SchemeFunctorApp(k, self.args(pool, budget, k))
        if r.random() < 0.5:
            return Choice(self.type(pool, budget - 1))
        return Fraenkel((self.plain.type(pool, 0),), bound(pool), Pred(0, (bound(pool),)))

    def args(self, pool, budget, n):
        return tuple(self.term(pool, budget - 1) for _ in range(n))

    def attr(self, pool: int) -> Attr:
        r = self.rng
        return Attr(r.random() < 0.7, r.randrange(2), self.args(pool, 1, r.randrange(2)))

    def type(self, pool: int, budget: int) -> TypeExpr:
        r = self.rng
        lower = frozenset(self.attr(pool) for _ in range(r.randrange(3)))
        return TypeExpr(lower, r.randrange(2), self.args(pool, budget, r.randrange(2)))

    def formula(self, pool: int, budget: int):
        r = self.rng
        pick = r.randrange(11 if budget > 0 else 4)
        if pick == 0:
            return Pred(r.randrange(2), self.args(pool, budget, r.randrange(1, 3)))
        if pick == 1:
            return Is(self.term(pool, budget), self.attr(pool))
        if pick == 2:
            return Qual(self.term(pool, budget), self.type(pool, budget))
        if pick == 3:
            if self.pattern and r.random() < 0.6:
                k = r.randrange(2)
                p = SchemePred(k, self.args(pool, budget, k))
                return p if r.random() < 0.5 else Neg(p)
            return FTrue()
        if pick <= 5:
            return mk_neg(self.formula(pool, budget - 1))
        if pick == 6:
            return mk_and([self.formula(pool, budget - 1) for _ in range(r.randrange(2, 4))])
        if pick <= 8:
            return ForAll(self.type(pool, 0), self.formula(pool + 1, budget - 1))
        if pick == 9:
            args = self.args(pool, budget, r.randrange(2))
            return PrivPred(r.randrange(2), args, self.plain.formula(pool, budget - 1))
        return FlexAnd(self.flex(pool, budget - 1))

    def flex(self, pool: int, budget: int) -> FlexConj:
        f = self.formula(pool, budget)
        return FlexConj(self.term(pool, 0), self.term(pool, 0), f, f, self.formula(pool, budget))


def positions(node, path=()):
    """(path, node) for every kernel node of a tree, in a fixed order."""
    yield path, node
    if not dataclasses.is_dataclass(node):
        return
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        if isinstance(v, (tuple, frozenset)):
            items = sorted_attrs(v) if isinstance(v, frozenset) else v
            for i, x in enumerate(items):
                yield from positions(x, path + ((f.name, i),))
        elif dataclasses.is_dataclass(v):
            yield from positions(v, path + ((f.name, None),))


def replace_at(node, path, new):
    if not path:
        return new
    (name, i), rest = path[0], path[1:]
    v = getattr(node, name)
    if i is None:
        return dataclasses.replace(node, **{name: replace_at(v, rest, new)})
    items = list(sorted_attrs(v) if isinstance(v, frozenset) else v)
    items[i] = replace_at(items[i], rest, new)
    return dataclasses.replace(node, **{name: type(v)(items)})


def mutate(gen: Gen, tree, rng: random.Random):
    """One random local change: a term, a sign, a head or an arity, a
    proof-local wrapper, or a flexary conjunction's pieces."""
    path, node = rng.choice(list(positions(tree)))
    kind = rng.randrange(5)
    if isinstance(node, Term):
        if kind == 0:
            new = gen.term(0, 1)
        elif kind == 1 and isinstance(node, Numeral):
            new = Numeral(node.value + 1)
        elif kind == 2 and hasattr(node, "func"):
            new = dataclasses.replace(node, func=node.func + 1)
        elif kind == 3 and hasattr(node, "args"):
            new = dataclasses.replace(node, args=node.args[1:] if node.args else (const(0),))
        else:
            new = PrivFunc(2, (), node)
    elif isinstance(node, Attr):
        new = node.negate() if kind < 2 else Attr(node.positive, node.attr_id + kind % 2, node.args[1:])
    elif isinstance(node, TypeExpr):
        new = dataclasses.replace(node, mode=node.mode + 1) if kind < 2 else gen.type(0, 0)
    elif isinstance(node, FlexConj):
        new = dataclasses.replace(node, lo=gen.term(0, 0)) if kind < 3 else gen.flex(0, 1)
    else:
        if kind == 0:
            new = mk_neg(node)
        elif kind == 1 and hasattr(node, "pred"):
            new = dataclasses.replace(node, pred=node.pred + 1)
        elif kind == 2 and hasattr(node, "args"):
            new = dataclasses.replace(node, args=node.args[:-1] if node.args else (const(1),))
        elif kind == 3:
            new = PrivPred(2, (), node)
        else:
            new = gen.formula(0, 1)
    try:
        return replace_at(tree, path, new)
    except AssertionError:  # a double negation or nested conjunction
        return tree


def pairs(seed: int, count: int):
    rng = random.Random(seed)
    gen = Gen(rng)
    for _ in range(count):
        a = gen.formula(0, 3)
        b = a
        for _ in range(rng.randrange(3)):
            b = mutate(gen, b, rng)
        yield rng, a, b


# ---------------------------------------------------------------------------
# differential checks against the hand-written walks


def test_formula_equal_agrees_with_the_reference():
    differ = 0
    for _, a, b in pairs(1, 3000):
        want = orc.reference_formula_equal(a, b)
        assert formula_equal(a, b) == want, (a, b)
        differ += not want
    assert 1000 < differ < 5000  # both verdicts are well represented


def test_formula_equal_of_two_proof_local_applications_agrees_with_the_reference():
    # each application sits under a node of its expansion's kind (`not`
    # over a negation, `&` over a conjunction), where an expansion put in
    # the application's place would break the kernel's invariants
    rng = random.Random(2)
    gen = Gen(rng)
    q = Pred(1, (const(0), const(1)))
    crossed = 0
    for _ in range(1000):
        if rng.random() < 0.5:
            e, wrap = mk_neg(gen.formula(0, 2)), Neg
        else:
            e, wrap = mk_and([gen.formula(0, 2), gen.formula(0, 1)]), lambda x: And((x, q))
        pa = PrivPred(0, gen.args(0, 1, rng.randrange(2)), e)
        args = pa.args if rng.random() < 0.5 else gen.args(0, 1, len(pa.args))
        pb = PrivPred(rng.randrange(2), args, e if rng.random() < 0.6 else mutate(gen, e, rng))
        a, b = wrap(pa), wrap(pb)
        crossed += type(e) is type(a) and pa != pb
        assert formula_equal(a, b) == orc.reference_formula_equal(a, b), (a, b)
    assert crossed > 300


def outcome(fn, *args):
    try:
        return fn(*args)
    except FlexError as e:
        return type(e)


def test_flex_inference_agrees_with_the_reference(req_all):
    inferred = reordered = 0
    for rng, a, b in pairs(2, 3000):
        depth = rng.randrange(2)
        got = outcome(infer_flex_from_diff, a, b, req_all, depth)
        want = outcome(orc.reference_infer_flex, a, b, req_all, depth)
        if got != want:
            # the one intended change: adjectives pair in ``sorted_attrs``
            # order, not in the order their arguments print
            assert got == outcome(orc.reference_infer_flex, a, b, req_all, depth, attr_key), (a, b)
            reordered += 1
        inferred += isinstance(got, FlexConj)
    assert inferred > 1000 and reordered > 0


def random_assignment(rng: random.Random, gen: Gen) -> SchemeAssignment:
    return SchemeAssignment(
        predicates={
            0: (rng.random() < 0.5, (PRED, rng.randrange(2))),
            1: (rng.random() < 0.5, (rng.choice((PRED, PRIV_PRED)), rng.randrange(2))),
        },
        functors={
            0: (GROUND, gen.term(rng.randrange(2), 1)),
            1: (rng.choice((FUNC, PRIV_FUNC)), rng.randrange(2)),
        },
    )


def match_outcome(fn, scheme, cited, goal):
    try:
        out = fn(scheme, cited, goal)
    except SchemeMatchError as e:
        return e.code
    return out.predicates, out.functors


# one pattern/subject pair per error code, given the scheme's
# conclusion: the random trees reach code 62 about once in 2,000
FIXED_MISMATCHES = [
    # P[] is met once as P and once as not P
    (62, mk_and([SchemePred(0, ()), mk_neg(SchemePred(0, ()))]), mk_and([Pred(3, ()), Pred(3, ())])),
    # a placeholder predicate stands only for an atomic statement
    (63, SchemePred(0, ()), ForAll(TypeExpr(frozenset(), 0, ()), Pred(3, (bound(0),)))),
    # P[] is met as two predicates
    (64, mk_and([SchemePred(0, ()), SchemePred(0, ())]), mk_and([Pred(3, ()), Pred(4, ())])),
]


def test_scheme_matching_agrees_with_the_reference():
    rng = random.Random(7)
    gen = Gen(rng, pattern=True)
    matched = 0
    codes = set()
    for code, pattern, subject in FIXED_MISMATCHES:
        args = (Scheme("S", (0, 1), (0, 1), (), pattern), (), subject)
        assert match_outcome(match_scheme, *args) == match_outcome(orc.reference_match_scheme, *args) == code
        codes.add(code)
    for _ in range(2000):
        pats = [gen.formula(0, 3) for _ in range(rng.randrange(1, 3))]
        asg = random_assignment(rng, gen.plain)
        subjects = []
        for pat in pats:
            s = apply_assignment(pat, asg)
            for _ in range(rng.randrange(3)):
                s = mutate(gen.plain, s, rng)
            subjects.append(s)
        scheme = Scheme("S", (0, 1), (0, 1), tuple(pats[1:]), pats[0])
        args = (scheme, tuple(subjects[1:]), subjects[0])
        want = match_outcome(orc.reference_match_scheme, *args)
        assert match_outcome(match_scheme, *args) == want, args
        if isinstance(want, int):
            codes.add(want)
        else:
            matched += 1
    assert matched > 500 and codes == {62, 63, 64}


def test_two_faults_in_one_adjective_statement(req_all):
    # the adjective is walked before its subject, so with a fault in each
    # the adjective's is reported; the hand-written walks met the subject
    # first.  Random pairs with two faults found no other difference.
    f = SchemeFunctorApp(0, ())
    pattern = mk_and([Pred(0, (f,)), Is(f, Attr(True, 1, (Numeral(1),)))])
    subject = mk_and([Pred(0, (const(0),)), Is(const(1), Attr(True, 1, (Numeral(2),)))])
    scheme = Scheme("S", (0,), (), (), pattern)
    assert match_outcome(match_scheme, scheme, (), subject) == 63  # the adjective's head
    assert match_outcome(orc.reference_match_scheme, scheme, (), subject) == 64  # f conflicts
    left = mk_and([Pred(0, (Numeral(1),)), Is(Numeral(5), Attr(True, 1, ()))])
    right = mk_and([Pred(0, (Numeral(2),)), Is(Numeral(6), Attr(True, 1, (Numeral(0),)))])
    assert outcome(infer_flex_from_diff, left, right, req_all) is NonNumericBound
    assert outcome(orc.reference_infer_flex, left, right, req_all) is NoCommonShape
