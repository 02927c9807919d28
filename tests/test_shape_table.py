"""The shape table, ``logic._SHAPE``, and the single-tree walks that read it.

Every kernel node kind has one entry, and every field of a kind is in
it.  ``map_terms`` and ``any_var`` are checked against the walks they
replaced (``tests/_oracles.py``: one function per kind, and a child
table of their own) on seeded trees, under every hook the package
passes to the map.
"""

import dataclasses
import random

import pytest

import _oracles as orc
import micromizar.logic as logic
import micromizar.schematizer as schematizer
from micromizar.logic import (
    Attr,
    FlexConj,
    Formula,
    Is,
    Pred,
    PrivPred,
    Term,
    TypeExpr,
    Var,
    VarKind,
    const,
    locus,
    map_terms,
    mk_neg,
    replace_term,
    shift_up,
    subst_bound,
    subst_loci,
)
from micromizar.schematizer import _strip, apply_assignment
from test_zip_nodes import Gen, positions, random_assignment

# ---------------------------------------------------------------------------
# coverage of the table


def kernel_classes() -> set[type]:
    out, todo = set(), [Term, Formula]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.add(sub)
            todo.append(sub)
    return out | {Attr, TypeExpr, FlexConj}


def shape_faults(kind: type, shape) -> list[str]:
    """Fields of `kind` the shape leaves out or names twice, and fields the
    single-tree walks visit (``shape.fields``) that ``zip_nodes`` does not
    compare as children."""
    fields = [f.name for f in dataclasses.fields(kind)]
    listed = [*(shape.head or ()), *shape.children]
    name = kind.__name__
    faults = [f"{name}.{f} is not in the table" for f in fields if f not in listed]
    faults += [f"{name}.{f} is listed twice" for f in set(listed) if listed.count(f) > 1]
    faults += [f"{name} names {f}, no field" for f in listed if f not in fields]
    uncompared = [f for f, child in shape.fields if child and f not in shape.children]
    if uncompared:
        faults.append(f"{name} walks {uncompared} without comparing")
    return faults


def test_every_kernel_node_kind_has_a_shape():
    assert set(logic._SHAPE) == kernel_classes()
    assert [f for kind, shape in logic._SHAPE.items() for f in shape_faults(kind, shape)] == []


def test_a_field_missing_from_the_table_is_found():
    grown = dataclasses.make_dataclass("Pred", [("pred", int), ("args", tuple), ("weight", int)])
    assert shape_faults(grown, logic._SHAPE[Pred]) == ["Pred.weight is not in the table"]


def test_a_field_walked_without_comparing_is_found():
    grown = dataclasses.make_dataclass("Pred", [("pred", int), ("args", tuple), ("weight", int)])
    shape = logic._Shape(("pred",), ("args",))
    shape.bind(grown)
    shape.fields = tuple((f, child or f == "weight") for f, child in shape.fields)
    assert shape_faults(grown, shape) == [
        "Pred.weight is not in the table",
        "Pred walks ['weight'] without comparing",
    ]


def test_every_kind_has_a_head():
    headless = [k.__name__ for k, shape in logic._SHAPE.items() if shape.head is None]
    assert headless == []


# ---------------------------------------------------------------------------
# differential checks against the hand-written walks


@pytest.fixture
def reference(monkeypatch):
    """Run a package function with the hand-written map in place of
    ``map_terms``, in ``logic`` and in ``schematizer`` alike."""

    def run(policy, *args):
        with monkeypatch.context() as m:
            m.setattr(logic, "map_terms", orc.reference_map_terms)
            m.setattr(schematizer, "map_terms", orc.reference_map_terms)
            return policy(*args)

    return run


def _negated_atom(n):
    if type(n) is Is or type(n) is PrivPred or type(n) is Pred and n.pred == 0:
        return mk_neg(n)
    return None


def negate_atoms(f):
    """Negate some kinds of atom; one under a ``not`` loses both."""
    return logic.map_terms(f, _negated_atom)


def _locus_of_const(n):
    return locus(n.index) if type(n) is Var and n.kind is VarKind.CONST else None


def trees(seed: int, count: int):
    rng = random.Random(seed)
    gen = Gen(rng, pattern=True)
    for _ in range(count):
        yield rng, gen, gen.formula(rng.randrange(3), 3)


def test_map_terms_agrees_with_the_reference_under_every_hook(reference):
    changed = 0
    for rng, gen, tree in trees(4, 3000):
        terms = [n for _, n in positions(tree) if isinstance(n, Term)]
        needle = rng.choice(terms) if terms else const(0)
        repl = gen.plain.term(0, 1)
        loci = orc.reference_map_terms(tree, _locus_of_const)
        calls = [
            (subst_bound, tree, rng.randrange(3), repl),
            (shift_up, tree, rng.randrange(1, 3), rng.randrange(3)),
            (subst_loci, loci, (repl, gen.plain.term(0, 1))),
            (replace_term, tree, needle, repl),
            (_strip, tree),
            (apply_assignment, tree, random_assignment(rng, gen.plain)),
            (negate_atoms, tree),
        ]
        for policy, *args in calls:
            got = policy(*args)
            assert got == reference(policy, *args), (policy.__name__, args)
            changed += got != args[0]
    assert changed > 3000 * 2  # the hooks rewrite many of the trees


def test_map_terms_under_an_idle_hook_returns_the_node_itself():
    for _, _, tree in trees(5, 3000):
        for _, node in positions(tree):
            assert map_terms(node, lambda n: None) is node


def test_any_var_agrees_with_the_reference():
    preds = [
        lambda v: v.kind is VarKind.BOUND,
        lambda v: v.kind is VarKind.BOUND and v.index == 1,
        lambda v: v.kind is VarKind.CONST and v.index == 0,
        lambda v: v.kind is VarKind.LOCUS,
    ]
    found = 0
    for rng, _, tree in trees(6, 3000):
        # the reference takes every node but a flexary conjunction's record
        node = rng.choice([n for _, n in positions(tree) if type(n) is not FlexConj])
        for subject in (tree, node):
            for pred in preds:
                want = orc.reference_any_var(subject, pred)
                assert logic.any_var(subject, pred) == want, subject
                found += want
    assert 3000 < found < 3000 * 8 * 3 // 4  # both answers are well represented
