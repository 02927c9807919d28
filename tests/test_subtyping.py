import pytest

from micromizar.logic import Attr, Numeral, Pred, TypeExpr, const, locus, mk_neg
from micromizar.requirements import enable_groups, load_requirements
from micromizar.subtyping import (
    AttrDef,
    ConditionalCluster,
    DefinitionDb,
    FuncDef,
    ModeDef,
    PredDef,
)


@pytest.fixture
def db(req_all):
    return DefinitionDb(req_all)


def ty(req, *names, mode="Set", args=()):
    attrs = frozenset(Attr(True, req.require(n)) for n in names)
    return TypeExpr(attrs, req.require(mode), args)


def test_builtin_mode_chain(db, req_all):
    element_of_a = TypeExpr(frozenset(), req_all.require("Element"), (const(0),))
    assert db.subtype(element_of_a, req_all.set_type())
    assert db.subtype(element_of_a, req_all.object_type())
    assert db.subtype(req_all.set_type(), req_all.object_type())
    assert not db.subtype(req_all.set_type(), element_of_a)
    assert not db.subtype(req_all.object_type(), req_all.set_type())


def test_element_args_must_match(db, req_all):
    ea = TypeExpr(frozenset(), req_all.require("Element"), (const(0),))
    eb = TypeExpr(frozenset(), req_all.require("Element"), (const(1),))
    assert db.subtype(ea, ea)
    assert not db.subtype(ea, eb)


def test_adjectives_narrow(db, req_all):
    nat = ty(req_all, "Natural")
    assert db.subtype(nat, req_all.set_type())
    assert not db.subtype(req_all.set_type(), nat)
    assert db.subtype(nat, nat)


def test_round_up_uses_builtin_clusters(db, req_all):
    pos = ty(req_all, "Positive")
    r = db.round_up(pos)
    assert Attr(False, req_all.require("Negative")) in r
    assert Attr(False, req_all.require("ZeroAttr")) in r
    zero = ty(req_all, "ZeroAttr")
    r = db.round_up(zero)
    assert Attr(False, req_all.require("Positive")) in r
    assert Attr(False, req_all.require("Negative")) in r
    # rounding makes "positive set" a subtype of "non negative set"
    nonneg = TypeExpr(frozenset({Attr(False, req_all.require("Negative"))}), req_all.require("Set"))
    assert db.subtype(pos, nonneg)


def test_round_up_chains_registered_clusters(db, req_all):
    a = db.fresh_id("attr")
    b = db.fresh_id("attr")
    c = db.fresh_id("attr")
    st = req_all.set_type()
    db.conditional.append(
        ConditionalCluster(frozenset({Attr(True, a)}), frozenset({Attr(True, b)}), st)
    )
    db.conditional.append(
        ConditionalCluster(frozenset({Attr(True, b)}), frozenset({Attr(True, c)}), st)
    )
    start = TypeExpr(frozenset({Attr(True, a)}), st.mode)
    r = db.round_up(start)
    assert Attr(True, b) in r
    assert Attr(True, c) in r


def test_conditional_cluster_subject_gates(db, req_all):
    x = db.fresh_id("attr")
    db.conditional.append(ConditionalCluster(frozenset(), frozenset({Attr(True, x)}), ty(req_all, "Natural")))
    assert Attr(True, x) not in db.round_up(req_all.set_type())
    assert Attr(True, x) in db.round_up(ty(req_all, "Natural"))


def test_round_up_sees_a_cluster_registered_after_it(db, req_all):
    a, b = db.fresh_id("attr"), db.fresh_id("attr")
    st = req_all.set_type()
    start = TypeExpr(frozenset({Attr(True, a)}), st.mode)
    assert Attr(True, b) not in db.round_up(start)
    assert db.adjectives(start) == ((True, a, ()),)
    db.conditional.append(ConditionalCluster(frozenset({Attr(True, a)}), frozenset({Attr(True, b)}), st))
    assert Attr(True, b) in db.round_up(start)
    # the seeding memo is keyed as round_up is, and keeps sorted_attrs order
    assert db.adjectives(start) == ((True, a, ()), (True, b, ()))


def test_a_type_written_before_a_cluster_equals_one_written_after(db, req_all):
    # the rounded cluster lives in the database, not in the type, so the
    # two writings are one term and both see the new cluster
    a, b = db.fresh_id("attr"), db.fresh_id("attr")
    st = req_all.set_type()
    before = TypeExpr(frozenset({Attr(True, a)}), st.mode)
    assert Attr(True, b) not in db.round_up(before)
    db.conditional.append(ConditionalCluster(frozenset({Attr(True, a)}), frozenset({Attr(True, b)}), st))
    after = TypeExpr(frozenset({Attr(True, a)}), st.mode)
    assert before == after and hash(before) == hash(after)
    assert Attr(True, b) in db.round_up(before)
    assert Attr(True, b) in db.round_up(after)


def test_round_up_sees_a_mode_defined_after_it(db, req_all):
    mid = db.fresh_id("mode")
    even = TypeExpr(frozenset(), mid)
    natural = Attr(True, req_all.require("Natural"))
    assert natural not in db.round_up(even)
    assert db.adjectives(even) == ()
    db.modes[mid] = ModeDef(0, ty(req_all, "Natural"), None, False)
    assert natural in db.round_up(even)
    assert db.adjectives(even) == ((True, natural.attr_id, ()),)


def test_user_mode_inherits_parent_adjectives(db, req_all):
    mid = db.fresh_id("mode")
    db.modes[mid] = ModeDef(0, ty(req_all, "Natural"), None, False)
    even = TypeExpr(frozenset(), mid)
    assert db.subtype(even, ty(req_all, "Natural"))
    assert db.subtype(even, req_all.set_type())
    assert Attr(True, req_all.require("Natural")) in db.round_up(even)
    assert not db.subtype(ty(req_all, "Natural"), even)


def test_user_mode_parent_loci(db, req_all):
    mid = db.fresh_id("mode")
    parent = TypeExpr(frozenset(), req_all.require("Element"), (locus(0),))
    db.modes[mid] = ModeDef(1, parent, None, False)
    point_of_a = TypeExpr(frozenset(), mid, (const(4),))
    want = TypeExpr(frozenset(), req_all.require("Element"), (const(4),))
    assert db.subtype(point_of_a, want)
    other = TypeExpr(frozenset(), req_all.require("Element"), (const(5),))
    assert not db.subtype(point_of_a, other)


def test_inhabited_bare_modes(db, req_all):
    assert db.inhabited(req_all.set_type())
    assert db.inhabited(req_all.object_type())
    assert db.inhabited(
        TypeExpr(frozenset(), req_all.require("Element"), (const(0),))
    )


def test_inhabited_builtin_witnesses(db, req_all):
    assert db.inhabited(ty(req_all, "Natural"))
    assert db.inhabited(ty(req_all, "Empty"))
    assert db.inhabited(ty(req_all, "Complex"))
    assert db.inhabited(ty(req_all, "Natural", "ZeroAttr"))
    assert not db.inhabited(ty(req_all, "Positive"))


def test_the_builtin_witnesses_come_first_and_a_registered_one_follows(db, req_all):
    builtin = [ty(req_all, *names) for names in (["Natural"], ["Natural", "ZeroAttr"], ["Empty"], ["Complex"])]
    assert db.existential == builtin
    registered = ty(req_all, "Positive")
    db.existential.append(registered)
    assert all(db.inhabited(w) for w in builtin + [registered])


def test_a_database_without_hidden_has_no_witnesses(tmp_path):
    p = tmp_path / "req.txt"
    p.write_text(
        "GROUP BOOLE\nEmpty = attr:0\nEmptySet = func:0\nUnion = func:1\nIntersection = func:2\n"
        "Difference = func:3\nSymDiff = func:4\nMeets = pred:2\n"
    )
    table, note = enable_groups(load_requirements(str(p)), ["BOOLE"])
    assert note is None and table.present("Empty")
    assert DefinitionDb(table).existential == []


def test_inhabited_needs_matching_registration(db, req_all):
    aid = db.fresh_id("attr")
    one_ordered = TypeExpr(frozenset({Attr(True, aid, (Numeral(1),))}), req_all.require("Set"))
    assert not db.inhabited(one_ordered)
    db.existential.append(one_ordered)
    assert db.inhabited(one_ordered)
    two_ordered = TypeExpr(frozenset({Attr(True, aid, (Numeral(2),))}), req_all.require("Set"))
    assert not db.inhabited(two_ordered)


def test_inhabited_via_rounded_witness(db, req_all):
    # a witness for "positive" also inhabits "positive non negative"
    db.existential.append(ty(req_all, "Positive"))
    want = TypeExpr(
        frozenset({Attr(True, req_all.require("Positive")), Attr(False, req_all.require("Negative"))}),
        req_all.require("Set"),
    )
    assert db.inhabited(want)


def test_attr_definiens_instantiation(db, req_all):
    eq = req_all.require("Equality")
    aid = db.fresh_id("attr")
    # "attr n-sized for set means it = n"
    db.attrs[aid] = AttrDef(1, req_all.set_type(), Pred(eq, (locus(1), locus(0))), True)
    got = db.attr_definiens(Attr(True, aid, (Numeral(3),)), const(0))
    assert got == Pred(eq, (const(0), Numeral(3)))
    neg = db.attr_definiens(Attr(False, aid, (Numeral(3),)), const(0))
    assert neg == mk_neg(Pred(eq, (const(0), Numeral(3))))
    assert db.attr_definiens(Attr(True, 999), const(0)) is None
    assert db.expandable_attr(aid)
    assert not db.expandable_attr(999)


def test_pred_and_mode_definiens(db, req_all):
    eq = req_all.require("Equality")
    pid = db.fresh_id("pred")
    db.preds[pid] = PredDef(2, Pred(eq, (locus(0), locus(1))), True)
    assert db.pred_definiens(pid, (const(1), const(2))) == Pred(eq, (const(1), const(2)))
    mid = db.fresh_id("mode")
    db.modes[mid] = ModeDef(1, req_all.set_type(), Pred(eq, (locus(1), locus(0))), True)
    assert db.mode_definiens(mid, (const(3),), const(9)) == Pred(eq, (const(9), const(3)))
    assert db.expandable_mode(mid)
    assert db.mode_definiens(999, (), const(0)) is None


def test_result_types(db, req_all):
    add = req_all.require("Add")
    assert db.result_type(add, (Numeral(1), Numeral(2))) == req_all.attr_type(["Complex"])
    fid = db.fresh_id("func")
    db.funcs[fid] = FuncDef(1, TypeExpr(frozenset(), req_all.require("Element"), (locus(0),)))
    got = db.result_type(fid, (const(2),))
    assert got == TypeExpr(frozenset(), req_all.require("Element"), (const(2),))
    assert db.result_type(424242, ()) == req_all.set_type()
