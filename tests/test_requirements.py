import pytest

from micromizar.arith import ONE, OPS, ComplexRational
from micromizar.errors import RequirementFileError
from micromizar.logic import Attr, FunctorApp, Numeral, const
from micromizar.requirements import (
    Constructor,
    GROUPS,
    enable_groups,
    load_requirements,
)


def test_standard_file_loads(req_file):
    assert req_file.groups == set(GROUPS)
    assert req_file.assignments["Equality"] == Constructor("pred", 0)
    assert req_file.assignments["Empty"] == Constructor("attr", 0)
    assert req_file.assignments["Object"] == Constructor("mode", 0)
    assert req_file.assignments["EmptySet"] == Constructor("func", 0)
    assert req_file.assignments["Add"] == Constructor("func", 9)


def test_absence_is_none_not_zero(req_file):
    # SUBSET alone: Empty is assigned id 0 in the file but its group is
    # off, so every lookup has to come back empty rather than 0.
    table, note = enable_groups(req_file, ["SUBSET"])
    assert note is None
    assert table.present("Subset")
    assert table.present("Element")
    assert not table.present("Empty")
    assert table.constructor("Empty") is None
    assert table.cid("Empty") is None
    with pytest.raises(KeyError):
        table.require("Empty")
    # HIDDEN ids stay visible; pred 0 is Equality, not anything of BOOLE's
    assert table.cid("Equality") == 0


def test_hidden_always_enabled(req_file):
    table, note = enable_groups(req_file, [])
    assert note is None
    assert table.enabled == {"HIDDEN"}
    assert table.cid("Membership") == 1
    assert not table.present("Union")


def test_flex_needs_numerals_and_order(req_file):
    only_num, _ = enable_groups(req_file, ["NUMERALS"])
    assert not only_num.flex_enabled()
    only_real, _ = enable_groups(req_file, ["REAL"])
    assert not only_real.flex_enabled()
    both, _ = enable_groups(req_file, ["NUMERALS", "REAL"])
    assert both.flex_enabled()


def test_arithm_dependencies(req_file):
    _, note = enable_groups(req_file, ["ARITHM"])
    assert note == "group ARITHM requires NUMERALS"
    _, note = enable_groups(req_file, ["ARITHM", "NUMERALS"])
    assert note == "group ARITHM requires REAL"
    _, note = enable_groups(req_file, ["ARITHM", "NUMERALS", "REAL"])
    assert note is None


def test_table_without_hidden_builds(tmp_path):
    p = tmp_path / "req.txt"
    p.write_text(
        "GROUP BOOLE\nEmpty = attr:0\nEmptySet = func:0\nUnion = func:1\nIntersection = func:2\n"
        "Difference = func:3\nSymDiff = func:4\nMeets = pred:2\n"
    )
    table, note = enable_groups(load_requirements(str(p)), ["BOOLE"])
    assert note is None
    assert table.functor_result_type(table.require("Union")) is None
    with pytest.raises(KeyError):
        table.set_type()


def test_unknown_group_is_reported(req_file):
    _, note = enable_groups(req_file, ["BOGUS"])
    assert note == "unknown requirement group BOGUS"


def test_group_missing_from_file(tmp_path):
    p = tmp_path / "req.txt"
    p.write_text(
        "GROUP HIDDEN\nObject = mode:0\nSet = mode:1\nEquality = pred:0\nMembership = pred:1\n"
    )
    file = load_requirements(str(p))
    _, note = enable_groups(file, ["BOOLE"])
    assert note == "group BOOLE not in the requirement file"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("GROUP NOPE\n", "unknown group"),
        ("Zebra = func:1\n", "unknown requirement"),
        ("Object = mode:0\n", "outside its group"),
        ("GROUP REAL\nLessOrEqual = pred:4\nLessOrEqual = pred:5\n", "duplicate"),
        ("GROUP HIDDEN\nObject = wat:0\n", "unknown kind"),
        ("GROUP HIDDEN\nObject = mode:x\n", "bad id"),
        ("GROUP HIDDEN\nObject = mode:0\n", "incomplete"),
        ("GROUP HIDDEN\nObject mode:0\n", "expected NAME"),
        ("GROUP HIDDEN\nObject = mode0\n", "expected kind:id"),
    ],
)
def test_loader_rejects_malformed_files(tmp_path, text, fragment):
    p = tmp_path / "req.txt"
    p.write_text(text)
    with pytest.raises(RequirementFileError, match=fragment):
        load_requirements(str(p))


def test_comments_and_blanks_ignored(tmp_path):
    p = tmp_path / "req.txt"
    p.write_text("# heading\n\nGROUP HIDDEN  # trailing\nObject = mode:0\nSet = mode:1\nEquality = pred:0\nMembership = pred:1\n")
    file = load_requirements(str(p))
    assert file.groups == {"HIDDEN"}


def test_builtin_types(req_all):
    nat = req_all.nat_type()
    assert nat.mode == req_all.cid("Set")
    assert nat.lower == frozenset({Attr(True, req_all.cid("Natural"))})
    assert req_all.numeral_type() == nat
    zero_ty = req_all.functor_result_type(req_all.cid("Zero"))
    assert Attr(True, req_all.cid("ZeroAttr")) in zero_ty.lower
    assert Attr(True, req_all.cid("Natural")) in zero_ty.lower
    assert req_all.functor_result_type(req_all.cid("Add")).lower == frozenset(
        {Attr(True, req_all.cid("Complex"))}
    )
    assert req_all.functor_result_type(999) is None


def test_numeral_type_without_numerals(req_file):
    table, _ = enable_groups(req_file, ["BOOLE"])
    assert table.numeral_type() == table.set_type()


def test_term_value(req_all, req_file):
    add, sub, div = (req_all.require(n) for n in ("Add", "Sub", "Div"))
    assert set(req_all.arith) == {req_all.require(n) for n in OPS}
    minus_two = FunctorApp(sub, (Numeral(3), Numeral(5)))
    assert req_all.term_value(FunctorApp(add, (minus_two, Numeral(3)))) == ONE
    assert req_all.term_value(FunctorApp(div, (Numeral(1), Numeral(0)))) is None
    assert req_all.term_value(FunctorApp(add, (Numeral(1), const(0)))) is None
    known = {const(0): ComplexRational.from_int(4)}.get
    assert req_all.term_value(FunctorApp(add, (Numeral(1), const(0))), known) == ComplexRational.from_int(5)
    # a numeral has a value only with the naturals
    bare, _ = enable_groups(req_file, ["BOOLE"])
    assert bare.arith == {}
    assert bare.term_value(Numeral(1)) is None


def test_conditional_clusters_from_order(req_file):
    full, _ = enable_groups(req_file, ["NUMERALS", "REAL"])
    clusters = full.builtin_conditional_clusters()
    pos = full.cid("Positive")
    neg = full.cid("Negative")
    zer = full.cid("ZeroAttr")
    assert (frozenset({Attr(True, pos)}), frozenset({Attr(False, neg), Attr(False, zer)})) in clusters
    assert (frozenset({Attr(True, zer)}), frozenset({Attr(False, pos), Attr(False, neg)})) in clusters
    assert len(clusters) == 3
    # without NUMERALS there is no zero adjective to mention
    real_only, _ = enable_groups(req_file, ["REAL"])
    clusters = real_only.builtin_conditional_clusters()
    assert clusters == [
        (frozenset({Attr(True, pos)}), frozenset({Attr(False, neg)})),
        (frozenset({Attr(True, neg)}), frozenset({Attr(False, pos)})),
    ]
    none_table, _ = enable_groups(req_file, ["BOOLE"])
    assert none_table.builtin_conditional_clusters() == []


def test_max_id(req_all):
    assert req_all.max_id("func") == 15
    assert req_all.max_id("mode") == 3
    assert req_all.max_id("pred") == 4
    assert req_all.max_id("attr") == 5
