"""End-to-end analyzer tests: one short article per construct, checked
from text to the list of ``(code, line)`` errors.  Line 1 of every
article is ``environ begin``."""

import gc
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

import micromizar
import micromizar.analyzer as analyzer_module
from micromizar.analyzer import Analyzer
from micromizar.equalizer import EqGraph, _PolyReader
from micromizar.errors import MizarError
from micromizar.logic import Numeral, VarKind, any_var, const
from micromizar.parser import parse_article
from micromizar.prechecker import CLAUSE_CAP, UNFOLD_FUEL, Prechecker
from micromizar.requirements import enable_groups
from micromizar.surface import Article, ItDefinition, StDeffunc, StDefpred, StProp, StThus


def errors(req, body: str, trace: list[str] | None = None, cols: bool = False) -> list[tuple[int, ...]]:
    art, parse_errors = parse_article("environ begin\n" + body)
    found = [e.to_error() for e in parse_errors] + Analyzer(req, trace=trace).run(art)
    return sorted((e.code, e.pos.line, e.pos.col) if cols else (e.code, e.pos.line) for e in found)


@pytest.fixture
def check(req_all):
    return lambda body: errors(req_all, body)


def test_top_level_labels_are_cited_by_later_theorems(check):
    assert check(
        """A1: for x being set holds x c= x;
theorem T2: 1 + 1 = 2;
theorem 2 = 1 + 1 by T2;
theorem {} c= {} by A1;
theorem 1 = 1 by Nope;
"""
    ) == [(91, 6)]


def test_top_level_private_definitions(check):
    assert check(
        """deffunc F(Nat) = $1 + 1;
defpred P[Nat] means $1 <= 3;
theorem F(1) = 2;
theorem P[2];
theorem P[5];
theorem F(2) = 2;
"""
    ) == [(61, 6), (61, 7)]


def test_now_exports_its_lets_assumptions_and_theses(check):
    assert check(
        """theorem for y being set st y = {} holds {} = y
proof
  N: now
    let x be set;
    assume A: x = {};
    thus {} = x by A;
  end;
  let y be set;
  assume B: y = {};
  thus {} = y by N, B;
end;
theorem 1 = 1
proof
  N: now
    let x be set;
    thus x c= x;
  end;
  for y being set holds y c= y by N;
  for y being set holds y = {} by N;
  thus 1 = 1;
end;
"""
    ) == [(61, 20)]


def test_take_and_given_need_a_thesis(check):
    # each is rejected, and the block then has nothing to export
    assert check(
        """theorem 1 = 1
proof
  now
    take 1;
  end;
  now
    given x being Nat such that x = 1;
  end;
  thus 1 = 1;
end;
"""
    ) == [(51, 5), (51, 8), (70, 6), (70, 9)]


def test_suppose_labels_end_with_their_block(check):
    assert check(
        """theorem for n being Nat holds n = 0 or n <> 0
proof
  let n be Nat;
  per cases;
  suppose A: n = 0;
    hence thesis;
  end;
  suppose B: n <> 0;
    thus thesis by B;
  end;
  n = n by A;
end;
"""
    ) == [(91, 12)]


def test_case_blocks_prove_one_summand_each(check):
    assert check(
        """theorem for n being Nat holds n = 0 & n + 0 = 0 or n <> 0 & n + 0 = n
proof
  let n be Nat;
  per cases;
  case n = 0;
    hence n + 0 = 0;
  end;
  case A: n <> 0;
    thus n + 0 = n;
  end;
end;
"""
    ) == []


def test_take_given_consider_reconsider(check):
    assert check(
        """theorem ex n being Nat st n = 1
proof
  take n = 1;
  thus n = 1;
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
  k = 2 by B;
  k = 3 by B;
  thus 1 = 1;
end;
"""
    ) == [(61, 23)]


def test_scheme_use(check):
    assert check(
        """scheme Mp{P[set, set], Q[set, set]}: for a, b being set st P[a, b] holds Q[a, b]
provided A1: for a, b being set st P[a, b] holds Q[a, b]
proof
  let a, b be set;
  assume A2: P[a, b];
  thus Q[a, b] by A1, A2;
end;
defpred S[set, set] means $2 = $1;
L: for a, b being set st a = b holds S[a, b];
theorem for a, b being set st a = b holds S[a, b] from Mp(L);
theorem for a, b being set st a = b holds S[b, a] from Mp(L);
theorem 1 = 1 from Mp(L);
"""
    ) == [(63, 12), (63, 13)]


def test_scheme_used_after_a_cluster_widened_its_types(check):
    # the cluster rounds `Z set` up to `Z empty set` only after the scheme
    # was stored; a type holds only what was written, so the instance's
    # binder type is still the scheme's
    assert check(
        """definition
  let a be set;
  attr a is Z means :DZ: a = {};
end;
scheme Sch{P[set]}: for a being Z set holds P[a]
provided A1: for a being Z set holds P[a]
proof
  thus thesis by A1;
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
defpred S[set] means $1 = $1;
L: for a being Z set holds S[a];
theorem for a being Z set holds S[a] from Sch(L);
"""
    ) == []


def test_definitions_and_their_correctness_conditions(check):
    # the `means` functor states neither existence nor uniqueness
    assert check(
        """definition
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
  let a be set;
  func G(a) -> set equals :DG: a /\\ a;
  coherence;
end;
definition
  let a, b be set;
  func Un(a, b) -> set means :DU: it = a \\/ b;
end;
definition
  let a, b be set;
  pred R(a, b) means :DR: a c= b;
end;
theorem for a being set st a is Z holds a = {} by DZ;
theorem G({}) = {} /\\ {} by DG;
theorem for a, b being set st R(a, b) holds a c= b by DR;
theorem for a, b being set st R(a, b) holds b c= a by DR;
"""
    ) == [(61, 32), (70, 21), (70, 21)]


def test_the_three_cluster_kinds(check):
    assert check(
        """definition
  let a be set;
  attr a is Z means :DZ: a = {};
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
  cluster Z set;
  existence
  proof
    take {};
    A: {} = {};
    thus {} is Z by A, DZ;
  end;
end;
registration
  cluster {} \\/ {} -> empty;
  coherence;
end;
theorem for a being Z set holds a is empty;
"""
    ) == []


def test_a_choice_written_before_a_cluster_is_the_one_written_after(check):
    # `the Z set` in P and in the theorems is one term, though the cluster
    # between them rounds `Z set` up to `Z W set`; only P, which cites
    # nothing, fails
    assert check(
        """definition
  let a be set;
  attr a is Z means :DZ: a = {};
end;
definition
  let a be set;
  attr a is W means :DW: a c= a;
end;
definition
  let a be set;
  pred R(a) means :DR: a = {};
end;
registration
  cluster Z set;
  existence
  proof
    take {};
    A: {} = {};
    thus {} is Z by A, DZ;
  end;
end;
P: R(the Z set);
registration
  cluster Z -> W for set;
  coherence
  proof
    let a be Z set;
    A: a = {} by DZ;
    thus a is W by A, DW;
  end;
end;
theorem R(the Z set) by P;
theorem for x being set st x = the Z set holds R(x) by P;
"""
    ) == [(61, 23)]


# `Z` is empty, `T` says so, and the last proof fixes a `Z set` that
# dies with its block; lines 2-15
DEAD_Z = """definition
  let a be set;
  attr a is Z means :DZ: contradiction;
end;
theorem T: for y being set holds y is non Z
proof
  let y be set;
  thus y is non Z by DZ;
end;
theorem for a being Z set holds a = a
proof
  let a be Z set;
  thus a = a;
end;
"""


def test_a_dead_constant_types_no_later_obligation(check):
    # the dead `a` is a `Z set`; with its type still about, `T` refutes
    # that type and proves anything
    assert check(DEAD_Z + "theorem 1 = 2 by T;\n") == [(61, 16)]


def test_a_dead_constant_is_no_witness_of_a_cluster(check):
    assert check(DEAD_Z + "registration\n  cluster Z set;\n  existence;\nend;\n") == [(61, 18)]


def test_a_now_does_not_export_its_consider_constant(check):
    # were `y` exported, `x` would take its id and `N` would say x = {}
    assert check(
        DEAD_Z
        + """theorem for x being set holds x = {}
proof
  N: now
    consider y being set such that Y: y = {};
    thus y = {} by Y;
  end;
  let x be set;
  thus x = {} by N;
end;
"""
    ) == [(51, 21), (61, 23)]


PROVIDED = """scheme S{P[set]}: for x being set holds P[x]
provided A1: 1 = 2 and A2: nosuchthing = 0
proof thus thesis by A1; end;
theorem 1 = 2 by A1;
"""


def test_a_scheme_that_fails_to_resolve_binds_no_provided_label(req_all):
    # were `A1` left bound, the false theorem would cite it
    assert errors(req_all, PROVIDED, cols=True) == [(61, 5, 1), (91, 3, 28), (91, 5, 18)]


# each article's `thus` faults; `A` says the dead constant 0 is {}, and
# the next theorem's `y` is constant 0 again
FAULTED_BLOCKS = {
    "proof": """theorem for x being empty set holds x = x
proof let x be empty set; A: x = {}; thus x = x; end;
""",
    "now in a proof": """theorem for x being empty set holds x = x
proof now let x be empty set; A: x = {}; thus x = x; end; let x be empty set; thus x = x; end;
""",
}


@pytest.mark.parametrize("block", sorted(FAULTED_BLOCKS))
def test_a_fault_inside_a_block_leaves_none_of_its_labels_bound(req_all, monkeypatch, block):
    proposition = Analyzer._proposition

    def faulty(self, st, thesis):
        if isinstance(st, StThus):
            raise RuntimeError("injected")
        return proposition(self, st, thesis)

    monkeypatch.setattr(Analyzer, "_proposition", faulty)
    body = FAULTED_BLOCKS[block] + "theorem for y being set holds y = {} by A;\n"
    assert errors(req_all, body, cols=True) == [(61, 4, 1), (91, 4, 41), (99, 2, 1)]


# each definition's existence proof uses what the definition introduces:
# its label, its functor's result type, its mode; were they visible,
# each article would prove 1 = 2 without an error
Z = """definition
  let a be set;
  attr a is Z means :DZ: contradiction;
end;
"""
SELF_DEFINING = {
    "label": (
        """definition
  let x be set;
  func f(x) -> set means :D: it <> it;
  existence
  proof
    let x be set;
    A: f(x) <> f(x) by D;
    take f(x);
    thus thesis by A;
  end;
  uniqueness;
end;
theorem 1 = 2
proof
  A: f(1) <> f(1) by D;
  thus thesis by A;
end;
""",
        [(61, 10, 5), (91, 8, 8), (91, 9, 10), (91, 10, 20)],
    ),
    "functor": (
        Z
        + """definition
  let x be set;
  func h(x) -> Z set means it = it;
  existence
  proof
    let x be set;
    take h(x);
    thus h(x) = h(x);
  end;
  uniqueness by DZ;
end;
theorem 1 = 2
proof
  A: h(1) is Z;
  thus thesis by A, DZ;
end;
""",
        [(70, 14, 3), (91, 12, 10), (91, 13, 10)],
    ),
    "mode": (
        Z
        + """definition
  let x be set;
  mode Bad of x -> Z set means it = it;
  existence
  proof
    let x be set;
    take the Bad of x;
    thus thesis;
  end;
end;
theorem 1 = 2
proof
  A: the Bad of 1 is Z;
  thus thesis by A, DZ;
end;
""",
        [(61, 13, 5), (91, 12, 14)],
    ),
}


@pytest.mark.parametrize("kind", sorted(SELF_DEFINING))
def test_a_definition_is_not_visible_in_its_own_correctness_conditions(req_all, kind):
    body, expected = SELF_DEFINING[kind]
    assert errors(req_all, body, cols=True) == expected


# the regression articles of the block bookkeeping, for the oracle below
REGRESSIONS = {
    **{f"self-defining {kind}": body for kind, (body, _) in SELF_DEFINING.items()},
    "dead Z": DEAD_Z + "theorem 1 = 2 by T;\n",
    "provided": PROVIDED,
    **{f"fault in a {block}": body + "theorem for y being set holds y = {} by A;\n" for block, body in FAULTED_BLOCKS.items()},
}


def block_state(an: Analyzer) -> dict:
    """A copy of every table that a block's end restores."""
    sc = an.scope
    tables = {
        "labels": an.labels,
        "defined": an.defined,
        "loci_types": an.loci_types,
        "scheme_results": an.scheme_results,
        "scheme_premises": an.scheme_premises,
        "consts": sc.consts,
        "const_types": sc.const_types,
        "loci": sc.loci,
        "priv_funcs": sc.priv_funcs,
        "priv_preds": sc.priv_preds,
        "scheme_funcs": sc.scheme_funcs,
        "scheme_preds": sc.scheme_preds,
        "bound_names": sc.bound_names,
        "context": sc.context,
        "links": an.links[:-1],  # the last is the article's own: see `block_local`
    }
    return {name: table.copy() for name, table in tables.items()}


def block_local(link) -> bool:
    """Whether the article's ``then`` target names a constant or a locus,
    which live only inside a block."""
    return link is not None and any_var(link, lambda v: v.kind in (VarKind.CONST, VarKind.LOCUS))


def mizar_error(pos) -> MizarError:
    return MizarError(pos, 51, "injected")


def publishable(item) -> dict[str, set[str]]:
    """The names `item` may bind at the article's own level, by table."""
    out: dict[str, set[str]] = {"labels": set(), "priv_funcs": set(), "priv_preds": set()}
    match item:
        case StProp():
            out["labels"].add(item.prop.label)
        case ItDefinition():
            out["labels"].add(item.body.def_label)
        case StDeffunc():
            out["priv_funcs"].add(item.name)
        case StDefpred():
            out["priv_preds"].add(item.name)
    return out


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_a_fault_at_any_step_leaves_only_what_the_item_publishes(req_all, monkeypatch, name):
    """Raise `MizarError`, then `RuntimeError`, at the k-th `_step` call
    for every k.  After each item, the block-scoped state is what it was
    before, plus names the item binds at its own level, ``then`` links
    to nothing block-local, and the trail is empty."""
    art, parse_errors = parse_article("environ begin\n" + REGRESSIONS[name])
    assert parse_errors == []
    step = Analyzer._step
    fault = {"at": 0, "calls": 0, "raise": None}

    def faulty(self, st, thesis):
        fault["calls"] += 1
        if fault["calls"] == fault["at"]:
            raise fault["raise"](st.pos)
        return step(self, st, thesis)

    monkeypatch.setattr(Analyzer, "_step", faulty)

    def check(at, raiser) -> list[tuple]:
        fault.update({"at": at, "calls": 0, "raise": raiser})
        an = Analyzer(req_all)
        leaks = []
        for item in art.items:
            before = block_state(an)
            an.run(Article(art.requirements, (item,)))
            after = block_state(an)
            for table, names in publishable(item).items():
                for key in names & after[table].keys() - before[table].keys():
                    del after[table][key]
            if after != before or block_local(an.links[-1]) or an.trail.log or an.trail.marks:
                leaks.append((at, raiser, item.pos.line))
        assert fault["calls"] >= at
        return leaks

    assert check(0, None) == []
    steps = fault["calls"]
    leaks = [leak for at in range(1, steps + 1) for raiser in (mizar_error, RuntimeError) for leak in check(at, raiser)]
    assert steps >= len(art.items)
    assert leaks == []


def test_one_more_theorem_allocates_as_much_after_a_thousand_as_after_fifty(req_all):
    """A block costs what it binds, not what the article holds: the peak
    traced allocation of checking one more theorem, with a proof and a
    ``now``, is within 1.5x after 1,000 theorems of what it is after 50.
    Copying the labels at every block made it grow with the article."""
    theorem = "T{}: for x being set holds x = x proof let x be set; N: now thus 1 = 1; end; thus x = x; end;\n"
    peaks = []
    for n in (50, 1000):
        art, parse_errors = parse_article("environ begin\n" + "".join(theorem.format(i) for i in range(n + 1)))
        assert parse_errors == []
        an = Analyzer(req_all)
        an.run(Article(art.requirements, art.items[:-1]))
        tracemalloc.start()
        try:
            an.run(Article(art.requirements, art.items[-1:]))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert an.errors == []
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_cited_universal_proves_its_restatement_over_union(check):
    # the label is false (bool b is not b); the restatement citing it
    # needs "b \/ b = b" and the disequality to meet in one class
    assert check(
        """N: for a being set holds bool a = a \\/ a;
theorem for b being set holds bool b = b \\/ b by N;
"""
    ) == [(61, 2)]


def test_cited_universal_over_a_private_functor_and_union(check):
    assert check(
        """deffunc G(set) = bool $1;
DG: for a being set holds G(a) = a \\/ {};
theorem for a being set holds G(a) = a \\/ {} by DG;
theorem G(1) = 1 \\/ {} by DG;
"""
    ) == [(61, 3)]


# each label is false, so line 2 is rejected; the restatement citing it
# needs the universal's opaque term found over the class of its closed
# part, and the last article needs congruence on a choice
OPAQUE = [
    (
        """D: for a being set holds the Element of bool a c= a;
theorem for b being set holds the Element of bool b c= b by D;
""",
        [(61, 2)],
    ),
    (
        """D: for a being set holds the Element of a c= a;
theorem for b being set holds the Element of b c= b by D;
""",
        [(61, 2)],
    ),
    (
        """D: for a being set holds { x where x being Element of a : x in a } c= a;
theorem for b being set holds { x where x being Element of b : x in b } c= b by D;
""",
        [(61, 2)],
    ),
    ("theorem for a, b being set st a = b holds the Element of bool a = the Element of bool b;\n", []),
]


@pytest.mark.parametrize("body, expected", OPAQUE, ids=["element_of_bool", "element_of", "fraenkel", "congruence"])
def test_a_universal_over_an_opaque_term_proves_its_restatement(check, body, expected):
    assert check(body) == expected


def verdicts_under_hash_seeds(cases: str) -> list:
    """The errors of each article in the module-level list `cases`, from
    the analyzer in a fresh interpreter under hash seeds 0 and 1."""
    tests = os.path.dirname(__file__)
    child = (
        "import json, os, conftest, test_analyzer as t\n"
        "from micromizar.requirements import enable_groups, load_requirements\n"
        "req = load_requirements(os.path.join(conftest.CORPUS, 'requirements.txt'))\n"
        "req, _ = enable_groups(req, conftest.ALL_GROUPS)\n"
        f"print(json.dumps([t.errors(req, body) for body, _ in t.{cases}]))\n"
    )
    path = os.pathsep.join([tests, os.path.dirname(list(micromizar.__path__)[0])])
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))
    return runs


def test_opaque_verdicts_do_not_depend_on_string_hashing():
    runs = verdicts_under_hash_seeds("OPAQUE")
    assert runs[0] == runs[1] == [[list(e) for e in expected] for _, expected in OPAQUE]


# a product of linear forms against its expansion, the same with one
# coefficient off, and a linear hypothesis that pins its unknown
POLY = [
    ("theorem for x, y being complex object holds (x + 2) * (y - 3) = x * y - 3 * x + 2 * y - 6;\n", []),
    ("theorem for x, y being complex object holds (x + 2) * (y - 3) = x * y - 3 * x + 2 * y - 5;\n", [(61, 2)]),
    ("theorem for y being complex object st 2 * y + 3 = 3 holds y = 0;\n", []),
]


@pytest.mark.parametrize("body, expected", POLY, ids=["expansion", "off_by_one", "pin"])
def test_polynomial_theorems(check, body, expected):
    assert check(body) == expected


def test_polynomial_verdicts_do_not_depend_on_hashing():
    # the polynomial table is a dict keyed by normal forms: the order it
    # is filled and read in must never reach a verdict
    runs = verdicts_under_hash_seeds("POLY")
    assert runs[0] == runs[1] == [[list(e) for e in expected] for _, expected in POLY]


def test_trace_of_one_obligation(req_all):
    trace: list[str] = []
    assert errors(req_all, "theorem for a being set holds a c= a;\n", trace) == []
    assert trace == [
        ":: input @ 2:1",
        "ex b0 being set st not b0 c= b0;",
        ":: refuting 0 @ 2:1",
        "ex b0 being set st not b0 c= b0;",
    ]
    # the trace is article text: each line reads back, a formula as the
    # formula it prints
    analyzer = Analyzer(req_all)
    for line in trace:
        art, parse_errors = parse_article("environ begin\n" + line)
        assert parse_errors == []
        for item in art.items:
            f = analyzer.resolver.formula(item.prop.formula)
            assert analyzer.formatter.format_formula(f) + ";" == line


def test_a_search_out_of_tuples_is_67_not_61(check):
    # 32 constants and {} make 33 set classes, so the 33 * 33 paired
    # instances of B overrun TUPLE_CAP; none of them is false.  B's
    # literals relate terms built on a and b, not a and b themselves, so
    # the search matches none of them and evaluates every pair.  With two constants the search ends by itself
    # and rejects.  An instance of A is false only if a c= b both holds
    # and fails: no pair matches both, so A's search tries none and ends.
    names = ", ".join(f"x{i}" for i in range(32))
    assert check(
        f"""A: for a, b being set holds a c= b implies a c= b;
B: for a, b being set holds bool a c= bool b implies bool a c= bool b;
theorem for {names} being set holds x0 = x1 by B;
theorem for x0, x1 being set holds x0 = x1 by B;
theorem for {names} being set holds x0 = x1 by A;
"""
    ) == [(61, 5), (61, 6), (67, 4)]


def test_a_graph_out_of_rounds_is_67_not_61(req_all, monkeypatch):
    # 2 + 2 = 5 is rejected only once a round has found nothing to do,
    # and {} c= {} accepted only by the subset pass: with no round
    # allowed both graphs give up.  The negation of 1 = 1 contradicts
    # itself as it is assumed, in no round
    body = "theorem 2 + 2 = 5;\ntheorem {} c= {};\ntheorem 1 = 1;\n"
    assert errors(req_all, body) == [(61, 2)]
    run = EqGraph.run
    monkeypatch.setattr(EqGraph, "run", lambda self, max_rounds=None: run(self, max_rounds=0))
    assert errors(req_all, body) == [(67, 2), (67, 3)]


def test_the_clause_cap_gives_66(check):
    # n independent disjunctions make 2**n clauses: 2**11 are within the
    # cap (checking stops at the first, which survives), 2**12 are over
    # it and none is built
    assert 2**11 <= CLAUSE_CAP < 2**12
    eleven = " & ".join(["(a c= b or b c= a)"] * 11)
    twelve = " & ".join(["(a c= b or b c= a)"] * 12)
    assert check(
        f"""theorem for a, b being set st {eleven} holds a in b;
theorem for a, b being set st {twelve} holds a in b;
"""
    ) == [(61, 2), (66, 3)]


def test_unfolding_stops_when_its_fuel_is_spent(check):
    # P0 means c=, and each P(k+1) means Pk: Pk(a, a) reaches a c= a
    # after k + 1 unfoldings, so the last chain that unfolds in full is
    # P(UNFOLD_FUEL - 1); one more leaves P0(a, a), which nothing proves
    defs = ["definition\n  let a, b be set;\n  expandable pred P0(a, b) means a c= b;\nend;"]
    for k in range(1, UNFOLD_FUEL + 1):
        defs.append(f"definition\n  let a, b be set;\n  expandable pred P{k}(a, b) means P{k - 1}(a, b);\nend;")
    line = 2 + 4 * len(defs)
    assert check(
        "\n".join(defs)
        + f"""
theorem for a being set holds P{UNFOLD_FUEL - 1}(a, a);
theorem for a being set holds P{UNFOLD_FUEL}(a, a);
"""
    ) == [(61, line + 1)]


def test_an_internal_error_fails_one_item_not_the_article(req_all, monkeypatch):
    body = """A1: for x being set holds x c= x;
theorem 2 + 3 = 5;
theorem 2 + 2 = 5 + 1;
theorem {} c= {} by A1;
theorem T: 1 + 1 = 2;
theorem 2 = 1 + 1 by T;
"""
    assert errors(req_all, body) == [(61, 4)]
    justify = Prechecker.justify

    def faulty(self, premises, conjecture, *args):
        if Numeral(5) in getattr(conjecture, "args", ()):
            raise RuntimeError("injected")
        return justify(self, premises, conjecture, *args)

    monkeypatch.setattr(Prechecker, "justify", faulty)
    art, parse_errors = parse_article("environ begin\n" + body)
    assert parse_errors == []
    analyzer = Analyzer(req_all)
    found = sorted((e.code, e.pos.line) for e in analyzer.run(art))
    assert found == [(61, 4), (99, 3)]
    [(pos, what)] = analyzer.internal
    assert pos.line == 3
    assert what.startswith("RuntimeError('injected') at test_analyzer.py:")
    assert what.endswith(" in faulty")


def test_a_multi_name_let_reads_the_earlier_constants_into_later_binders(req_all, monkeypatch):
    left = []
    let = Analyzer._let

    def recording(self, st, thesis):
        out = let(self, st, thesis)
        left.append((list(self.scope.const_types), self.formatter.format_formula(out)))
        return out

    monkeypatch.setattr(Analyzer, "_let", recording)
    body = """theorem for a being set, b being Element of a, c being Element of bool a holds c c= a or b = b
proof
  let a, b, c be set;
  thus c c= a or b = b;
end;
"""
    assert errors(req_all, body) == []
    [(types, thesis)] = left
    a, b, c = range(len(types))
    assert types[b].args == (const(a),)
    [bool_a] = types[c].args
    assert bool_a.args == (const(a),)
    assert thesis == "c c= a or b = b"


def test_let_reports_52_for_a_mismatched_name_and_51_past_the_binders(check):
    assert check(
        """theorem for a being set, b being Nat holds b = b
proof
  let a, b be Nat;
  thus b = b;
end;
theorem for a being set holds a = a
proof
  let a, b be set;
  thus a = a;
end;
"""
    ) == [(51, 9), (52, 4), (71, 10)]


def test_thesis_under_a_binder_keeps_its_own_binders(check):
    # the thesis's `x` is not captured by `y`: A reads `... holds for x
    # being Nat holds x = 0`, which is false
    assert check(
        """theorem for x being Nat holds x = 0
proof
  A: for y being Nat st y = 0 holds thesis;
  thus thesis by A;
end;
"""
    ) == [(61, 4), (61, 5)]


def test_thesis_under_a_binder_is_the_thesis(check):
    # true steps; read with `y` for `x`, the second A would claim 1 = 0
    assert check(
        """theorem for x being Nat holds x = x
proof
  A: for y being Nat holds thesis;
  thus thesis by A;
end;
theorem ex x being Nat st x = 0
proof
  Z: 0 = 0;
  A: for y being Nat st y = 1 holds thesis by Z;
  thus thesis by Z;
end;
"""
    ) == []


def test_thesis_means_nothing_in_a_now_or_a_theorem(req_all):
    assert errors(
        req_all,
        """theorem thesis;
theorem 1 = 1
proof
  now
    thus thesis;
  end;
  thus thesis;
end;
""",
        cols=True,
    ) == [(51, 2, 9), (51, 6, 10), (70, 7, 3)]


def test_a_flexary_conjunction_over_a_conjunctive_private_predicate(req_all):
    # the expansion the prechecker adds is unfolded like the rest: the
    # private predicate's body reaches the clauses expanded
    art, parse_errors = parse_article(
        """environ begin
defpred P[Nat] means $1 <= 5 & $1 <= 6;
theorem P[1] & ... & P[4];
theorem for n being Nat holds P[1] & ... & P[n] implies P[1] & ... & P[n];
theorem P[1] & ... & P[7];
"""
    )
    assert parse_errors == []
    analyzer = Analyzer(req_all)
    assert [(e.code, e.pos.line) for e in analyzer.run(art)] == [(61, 5)]
    assert analyzer.internal == []


def test_checking_leaves_no_reference_cycles(req_all, monkeypatch):
    """Refcounting alone frees what checking makes: no nested closure
    that calls itself, no graph held by its polynomial pass.  Checked on
    every article of this module whose test takes only `check`, among
    them an arithmetic clause, a thesis match and a scheme ``from``."""
    seen = Counter()

    def count(owner, name):
        method = getattr(owner, name)

        def counted(*args):
            seen[name] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, counted)

    count(analyzer_module, "formula_equal")
    count(analyzer_module, "match_scheme")
    count(_PolyReader, "node_poly")
    garbage = []

    def check_without_collector(body):
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = errors(req_all, body)
            garbage.append(gc.collect())
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        return found

    tests = [f for name, f in globals().items() if name.startswith("test_")]
    for test in tests:
        if list(inspect.signature(test).parameters) == ["check"]:
            test(check_without_collector)
    assert len(garbage) > 10 and not any(garbage)
    assert seen["formula_equal"] and seen["match_scheme"] and seen["node_poly"]


def test_without_arithm_numerals_evaluate_but_no_equation_is_solved(req_file):
    # the NUMERALS group evaluates ``succ`` on numbers; solving for an
    # unknown needs the polynomials of ARITHM
    body = """theorem succ succ 0 = 2;
theorem for x being Nat st x = 1 holds succ x = 2;
theorem for x being Nat st succ x = 3 holds x = 2;
"""
    numerals, _ = enable_groups(req_file, ["NUMERALS"])
    arithm, _ = enable_groups(req_file, ["NUMERALS", "REAL", "ARITHM"])
    assert errors(numerals, body) == [(61, 4)]
    assert errors(arithm, body) == []
