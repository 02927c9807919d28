import copy
import json
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

import _oracles as orc
import micromizar.logic as logic
from micromizar.logic import (
    And,
    Attr,
    Choice,
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
    TypeExpr,
    TRUE,
    Var,
    VarKind,
    any_var,
    attr_key,
    bound,
    const,
    mk_and,
    mk_exists,
    mk_iff,
    mk_imp,
    mk_neg,
    mk_or,
    replace_term,
    shift_up,
    sorted_attrs,
    subst_bound,
    term_key,
    uses_bound,
    uses_const,
)
from test_zip_nodes import Gen, pairs

P = Pred(10, (const(0),))
Q = Pred(11, (const(1),))
R = Pred(12, (const(2),))
SET = TypeExpr(frozenset(), 1)


def every_kind(pool: int):
    """One formula with every node kind ``gen_formula`` never builds:
    Choice, Fraenkel, PrivFunc, SchemeFunctorApp, PrivPred, SchemePred,
    FlexAnd, attributes with arguments under Is, types with arguments.
    It mentions const(1) and, when pool > 0, the open level pool - 1;
    its own binders sit at depth pool."""
    v = bound(pool - 1) if pool else Numeral(7)
    c = const(1)
    d = pool
    ty = TypeExpr(frozenset({Attr(True, 0, (v,)), Attr(False, 1, (c,))}), 2, (c, v))
    fraenkel = Fraenkel(
        (SET, ty), FunctorApp(0, (bound(d), bound(d + 1))), Pred(1, (bound(d + 1), v, c))
    )
    priv = PrivFunc(0, (v, Choice(ty)), FunctorApp(2, (c, v)))
    app = SchemeFunctorApp(1, (priv, fraenkel))
    lo, hi = Numeral(1), FunctorApp(3, (v, c))
    step = lambda t: Pred(6, (t, c))
    guards = [Pred(4, (lo, bound(d))), Pred(4, (bound(d), hi)), mk_neg(step(bound(d)))]
    flex = FlexAnd(FlexConj(lo, hi, ForAll(SET, mk_neg(mk_and(guards))), step(lo), step(hi)))
    return mk_and(
        [
            PrivPred(3, (app,), mk_neg(Pred(5, (v, c)))),
            mk_neg(SchemePred(0, (c, v))),
            Is(c, Attr(True, 5, (v, app))),
            Qual(fraenkel, ty),
            flex,
            ForAll(ty, Pred(7, (bound(d), v, Choice(ty)))),
        ]
    )


def test_neg_cancels():
    assert mk_neg(mk_neg(P)) == P
    assert mk_neg(P) == Neg(P)
    with pytest.raises(AssertionError):
        Neg(Neg(P))


def test_and_flattens_and_drops_true():
    assert mk_and([P, mk_and([Q, R])]) == And((P, Q, R))
    assert mk_and([P]) == P
    assert mk_and([]) == TRUE
    assert mk_and([TRUE, P]) == P
    assert mk_and([TRUE, TRUE]) == TRUE
    with pytest.raises(AssertionError):
        And((P,))
    with pytest.raises(AssertionError):
        And((P, And((Q, R))))


def test_connective_desugaring():
    assert mk_imp(P, Q) == Neg(And((P, Neg(Q))))
    assert mk_or([P, Q]) == Neg(And((Neg(P), Neg(Q))))
    assert mk_or([P, mk_neg(P)]) == Neg(And((Neg(P), P)))
    assert mk_iff(P, Q) == And((mk_imp(P, Q), mk_imp(Q, P)))
    assert mk_exists(SET, P) == Neg(ForAll(SET, Neg(P)))


def test_subst_under_inner_binder():
    # body of an outer binder y: "for z holds z <= y"; the inner binder
    # sits at depth 1 so it binds level 1.  Substituting y at level 0
    # renumbers z down to level 0.
    le = 4
    f = ForAll(SET, Pred(le, (bound(1), bound(0))))
    got = subst_bound(f, 0, Numeral(5))
    assert got == ForAll(SET, Pred(le, (bound(0), Numeral(5))))


def test_subst_decrements_only_deeper_levels():
    f = And((Pred(0, (bound(0),)), Pred(1, (bound(1),)), Pred(2, (bound(2),))))
    got = subst_bound(f, 1, Numeral(9))
    assert got == And((Pred(0, (bound(0),)), Pred(1, (Numeral(9),)), Pred(2, (bound(1),))))


def test_subst_reaches_flex_fields():
    # thesis body "P[1] & ... & P[n]" with n at level 0; after `take 2+2`
    # every piece of the flex record sees the substitution and the
    # expansion binder drops from level 1 to level 0.
    le, eq, add = 4, 0, 9
    phi = lambda t: Pred(eq, (t, t))
    body = FlexAnd(
        FlexConj(
            Numeral(1),
            bound(0),
            ForAll(
                TypeExpr(frozenset(), 1),
                mk_neg(
                    mk_and(
                        [
                            Pred(le, (Numeral(1), bound(1))),
                            Pred(le, (bound(1), bound(0))),
                            mk_neg(phi(bound(1))),
                        ]
                    )
                ),
            ),
            phi(Numeral(1)),
            phi(bound(0)),
        )
    )
    four = FunctorApp(add, (Numeral(2), Numeral(2)))
    got = subst_bound(body, 0, four)
    want = FlexAnd(
        FlexConj(
            Numeral(1),
            four,
            ForAll(
                TypeExpr(frozenset(), 1),
                mk_neg(
                    mk_and(
                        [
                            Pred(le, (Numeral(1), bound(0))),
                            Pred(le, (bound(0), four)),
                            mk_neg(phi(bound(0))),
                        ]
                    )
                ),
            ),
            phi(Numeral(1)),
            phi(four),
        )
    )
    assert got == want


def test_subst_matches_named_variable_oracle():
    rng = random.Random(20260817)
    for _ in range(300):
        lvl = rng.randrange(3)
        f = orc.gen_formula(rng, lvl + 1, 4)
        t = orc.gen_term(rng, lvl, 2)
        env = [f"L{i}" for i in range(lvl + 1)]
        named = orc.named_subst(orc.named_of(f, env), f"L{lvl}", orc.named_of_term(t, env))
        want = orc.levels_of(named, {f"L{i}": i for i in range(lvl)}, lvl)
        assert subst_bound(f, lvl, t) == want


def _outer_term(gen: Gen, level: int):
    """A term that mentions only levels below `level`."""
    while True:
        t = gen.term(level, 1)
        if not any_var(t, lambda v: v.kind is VarKind.BOUND and v.index >= level):
            return t


def test_one_walk_substitutes_a_binder_prefix():
    rng = random.Random(409)
    gen = Gen(rng, pattern=True)
    several = 0
    for _ in range(3000):
        pool = rng.randrange(1, 4)
        tree = gen.formula(pool, 3)
        level = rng.randrange(pool)
        repls = [_outer_term(gen.plain, level) for _ in range(rng.randrange(1, pool - level + 1))]
        want = tree
        for t in repls:
            want = subst_bound(want, level, t)
        assert subst_bound(tree, level, *repls) == want, (tree, level, repls)
        several += len(repls) > 1
    assert subst_bound(P, 0) is P
    assert several > 500


def test_named_oracle_roundtrip_identity():
    rng = random.Random(905)
    for _ in range(150):
        n = rng.randrange(3)
        f = orc.gen_formula(rng, n, 4)
        env = [f"L{i}" for i in range(n)]
        assert orc.levels_of(orc.named_of(f, env), {name: i for i, name in enumerate(env)}, n) == f


def test_shift_then_subst_is_identity():
    rng = random.Random(77)
    cases = [(n, orc.gen_formula(rng, n, 4)) for n in (rng.randrange(3) for _ in range(200))]
    for n, f in cases + [(n, every_kind(n)) for n in range(3)]:
        for floor in range(n + 1):
            g = shift_up(f, 1, floor)
            assert subst_bound(g, floor, Numeral(99)) == f


def test_abstract_const_builds_a_binder():
    rng = random.Random(31337)
    for f in [orc.gen_formula(rng, 0, 4) for _ in range(150)] + [every_kind(0)]:
        g = replace_term(shift_up(f, 1), const(1), bound(0))
        assert not uses_const(g, 1)
        assert subst_bound(g, 0, const(1)) == f


def test_occurrence_checks():
    f = ForAll(SET, Pred(0, (bound(0), bound(1), const(3))))
    assert uses_bound(f, 0)
    assert uses_bound(f, 1)
    assert not uses_bound(f, 2)
    assert uses_const(f, 3)
    assert not uses_const(f, 0)
    ty = TypeExpr(frozenset({Attr(True, 0, (const(5),))}), 1)
    assert uses_const(Qual(Numeral(1), ty), 5)
    # only inside a Fraenkel guard (the comprehension binds level 1)
    g = ForAll(SET, Pred(0, (Fraenkel((SET,), bound(1), Pred(1, (bound(1), bound(0), const(4)))),)))
    assert uses_bound(g, 0) and uses_const(g, 4)
    assert not uses_bound(g, 2) and not uses_const(g, 1)
    # only inside a deffunc expansion
    p = Pred(0, (PrivFunc(0, (Numeral(1),), FunctorApp(1, (const(6), bound(0)))),))
    assert uses_const(p, 6) and uses_bound(p, 0)
    assert not uses_const(p, 1)
    # only inside the upper endpoint instance of a flexary conjunction
    hi_only = Pred(0, (const(8), bound(3)))
    fx = FlexAnd(FlexConj(Numeral(1), Numeral(2), TRUE, Pred(0, (Numeral(1),)), hi_only))
    assert uses_const(fx, 8) and uses_bound(fx, 3)
    assert not uses_const(fx, 1) and not uses_bound(fx, 0)


def test_term_key_orders_deterministically():
    rng = random.Random(4)
    terms = [orc.gen_term(rng, 2, 3) for _ in range(60)] + [Numeral(0), bound(1), const(0)]
    once = sorted(terms, key=term_key)
    rng.shuffle(terms)
    assert sorted(terms, key=term_key) == once


def test_sort_keys_tell_apart_what_the_rank_leaves_out():
    # the rank skips a Fraenkel guard and a proof-local expansion; without
    # a tie, adjectives differing only there would be sorted in hash
    # order, which changes with PYTHONHASHSEED
    f1 = Fraenkel((SET,), bound(0), Pred(0, (bound(0),)))
    f2 = Fraenkel((SET,), bound(0), Pred(1, (bound(0),)))
    a1, a2 = Attr(True, 0, (f1,)), Attr(True, 0, (f2,))
    assert term_key(f1) != term_key(f2)
    assert attr_key(a1) != attr_key(a2)
    assert sorted_attrs([a1, a2]) == sorted_attrs([a2, a1])
    assert term_key(PrivFunc(0, (), Numeral(1))) != term_key(PrivFunc(0, (), Numeral(2)))


def test_the_tie_keeps_every_order_of_the_rank():
    rng = random.Random(417)
    gen = Gen(rng, pattern=True)
    # nodes that tie on the rank whatever the generator draws, 224 ordered
    # pairs of them: proof-local functors that differ only in their
    # expansion, Fraenkel terms that differ only in their guard, and
    # adjectives over either
    privs = [PrivFunc(0, (bound(0),), Numeral(k)) for k in range(8)]
    fraenkels = [Fraenkel((SET,), bound(0), Pred(k, (bound(0),))) for k in range(8)]
    fixed = [*privs, *fraenkels]
    fixed_attrs = [Attr(True, 0, (t,)) for t in fixed]
    for nodes, rank in [(fixed, orc.reference_term_key), (fixed_attrs, orc.reference_attr_key)]:
        assert len({rank(n) for n in nodes[:8]}) == len({rank(n) for n in nodes[8:]}) == 1
    kinds = [
        (term_key, orc.reference_term_key, [gen.term(1, 3) for _ in range(500)]),
        (attr_key, orc.reference_attr_key, [gen.attr(1) for _ in range(150)]),
        (term_key, orc.reference_term_key, [Choice(gen.type(1, 2)) for _ in range(150)]),
        (term_key, orc.reference_term_key, fixed),
        (attr_key, orc.reference_attr_key, fixed_attrs),
    ]
    ties = 0
    for key, rank, nodes in kinds:
        keys = [key(n) for n in nodes]
        ranks = [rank(n) for n in nodes]
        for i in range(len(nodes)):
            for j in range(len(nodes)):
                assert (keys[i] == keys[j]) == (nodes[i] == nodes[j]), (nodes[i], nodes[j])
                if ranks[i] != ranks[j]:
                    assert (keys[i] < keys[j]) == (ranks[i] < ranks[j]), (nodes[i], nodes[j])
                else:
                    ties += nodes[i] != nodes[j]
    assert ties > 100


# ---------------------------------------------------------------------------
# hashing and equality

# Prints the hash of the first node of each kind in a tree holding every
# kind, and the iteration order of a set of adjectives over variables.
HASHES = """
import json
from micromizar import logic
from test_logic import every_kind
from test_zip_nodes import positions
first = {}
for _, node in positions(logic.mk_and([every_kind(1), logic.mk_neg(logic.TRUE)])):
    first.setdefault(type(node).__name__, hash(node))
attrs = frozenset(logic.Attr(True, k, (logic.bound(k), logic.const(k))) for k in range(16))
print(json.dumps([first, [a.attr_id for a in attrs]], sort_keys=True))
"""


def test_kernel_hashes_do_not_depend_on_the_hash_seed():
    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(here), str(here.parent / "src")])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", HASHES], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]
    assert set(outs[0][0]) == {kind.__name__ for kind in logic._SHAPE}


def test_a_node_hashes_once_and_compares_its_hash_first():
    # a hash or comparison that walked the chain would overflow the stack
    deep, twin = const(0), const(1)
    for _ in range(3000):
        deep, twin = FunctorApp(0, (deep,)), FunctorApp(0, (twin,))
    assert hash(deep) == hash(deep) != hash(twin)
    assert deep != twin and not deep == twin
    with pytest.raises(logic.FrozenNodeError):
        deep.func = 1
    with pytest.raises(logic.FrozenNodeError):
        del deep.args
    tree = every_kind(1)
    assert copy.deepcopy(tree) == pickle.loads(pickle.dumps(tree)) == tree


def test_a_variable_is_one_shared_node():
    assert bound(2) is logic.var(VarKind.BOUND, 2) is subst_bound(bound(3), 0, const(0))
    assert const(2) is not bound(2) and Var(kind=bound(2).kind, index=3) == bound(3)


def test_equality_is_structural_and_equal_nodes_hash_alike():
    differ = 0
    for _, a, b in pairs(8, 3000):
        same = a == b
        assert same == (logic._tie(a) == logic._tie(b)) == (b == a), (a, b)
        assert not same or hash(a) == hash(b)
        differ += not same
    assert 1000 < differ < 2800  # both verdicts are well represented
