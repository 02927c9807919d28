"""The benchmark's own tests.

    python3 -m pytest mizbench -q

They check the generator and the harness, not the verifier: the same
seed gives the same article, every built-in expectation agrees with the
generator's own semantics, a wrong expectation is caught, feeding items
one at a time changes no error, and traced counts repeat.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402
from micromizar.analyzer import Analyzer  # noqa: E402
from micromizar.parser import parse_article  # noqa: E402
from micromizar.requirements import enable_groups, load_requirements  # noqa: E402
from micromizar.surface import Article  # noqa: E402
from tracing import METRICS  # noqa: E402


def small_article(seed: int = 0) -> gen.Article:
    """Preamble plus a few items of every family, accepted and rejected."""
    rng = random.Random(seed)
    body = [fam(rng, 0, rej) for fam in (gen.fam_poly, gen.fam_numeral, gen.fam_boole) for rej in (False, True)]
    body += [gen.fam_cite(rng, 0, 2, 3, 1), gen._false(rng, gen.fam_cite_swapped, 1), gen.fam_cite_wrong(rng, 0)]
    body += gen.skeleton_block(1) + [gen.fam_skeleton(rng, i, 1) for i in range(8)]
    return gen.assemble(gen.lemma_preamble() + body)


def worker(article: gen.Article, trace: bool = False, items=None) -> dict:
    return run._worker({
        "text": article.text,
        "groups": list(gen.GROUPS),
        "items": items if items is not None else [[e.line, [list(x) for x in e.errors]] for e in article.items],
        "trace": trace,
    })


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(workload):
    a, b = gen.build(workload, 7), gen.build(workload, 7)
    assert a.text == b.text and a.items == b.items
    assert gen.build(workload, 8).text != a.text
    assert len(a.items) >= 1000


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_expectations_agree_with_semantics(workload):
    article = gen.build(workload, 0)
    checked = 0
    for expected, check in zip(article.items, article.checks):
        if check is not None:
            assert gen.holds(check) == (not expected.errors), expected
            checked += 1
    assert checked or workload == "skeleton"


def test_verdict_check_catches_a_wrong_expectation():
    article = small_article()
    assert worker(article)["failed"] == 0
    items = [[e.line, [list(x) for x in e.errors]] for e in article.items]
    flipped = next(i for i, e in enumerate(article.items) if e.family == "cite")
    items[flipped][1] = [[61, article.items[flipped].line]]
    out = worker(article, items=items)
    assert out["failed"] == 1
    assert f"line {article.items[flipped].line}" in out["notes"][0]


def test_items_one_by_one_match_one_run():
    article = small_article(1)
    table, note = enable_groups(load_requirements(os.path.join(HERE, "requirements.txt")), list(gen.GROUPS))
    assert note is None
    parsed, parse_errors = parse_article(article.text)
    assert not parse_errors
    whole = Analyzer(table).run(parsed)
    one = Analyzer(table)
    for item in parsed.items:
        one.run(Article(parsed.requirements, (item,)))
    assert one.errors == whole
    assert any(e.code == 61 for e in whole)


def test_traced_counts_repeat():
    article = small_article(2)
    first, second = worker(article, trace=True), worker(article, trace=True)
    assert first["failed"] == second["failed"] == 0
    counts = [name for name, (unit, _, _) in METRICS.items() if unit != "s" and name in first["layers"]]
    assert counts
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
    assert first["layers"]["prechecker.obligations"] > 0


def test_traced_self_times_add_up():
    out = worker(small_article(3), trace=True)
    layers = out["layers"]
    parts = ["lexer.s", "parser.self_s", "resolver.s", "analyzer.self_s", "schematizer.s",
             "prechecker.self_s", "equalizer.s", "unifier.s", "trace.remainder_s"]
    assert sum(layers[p] for p in parts) == pytest.approx(out["verify_s"])
    assert all(layers[p] >= 0 for p in parts)
    assert 0 <= layers["trace.remainder_s"] < 0.05 * out["verify_s"]


def test_benchmark_json_lists_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == sorted(gen.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in METRICS.items()
    }
