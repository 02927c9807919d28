"""Every verdict of the four benchmark workloads, item by item.

The benchmark's generator (``mizbench/gen.py``, imported, not changed)
writes each article together with the errors each item must give.  Here
``algebra``, ``lemmas``, ``rejects`` and ``skeleton`` at one seed are
checked as the benchmark's worker checks them: one ``Analyzer`` fed each
top-level item as a one-item article, each item's ``(code, line)``
errors compared with the generator's.  This is the guard on verdicts
until a golden corpus exists: the unifier's search and the equalizer's
rules are exercised by the thousands of obligations these articles
make, ``algebra``'s almost all in the equalizer, and ``skeleton`` is the
one with definitions, cluster registrations and schemes.

Each item is also checked to leave no constant alive once it ends, and
each obligation to name only live constants: the checker numbers its
skolem constants from the count of live ones.
"""

import os
import sys

import pytest

from micromizar.analyzer import Analyzer
from micromizar.logic import VarKind, any_var
from micromizar.parser import parse_article
from micromizar.prechecker import Prechecker
from micromizar.requirements import enable_groups, load_requirements
from micromizar.surface import Article

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "mizbench")
sys.path.insert(0, BENCH)
import gen  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def table():
    table, note = enable_groups(load_requirements(os.path.join(BENCH, "requirements.txt")), list(gen.GROUPS))
    assert note is None
    return table


@pytest.mark.parametrize("workload", ["algebra", "lemmas", "rejects", "skeleton"])
def test_every_item_gets_the_generator_s_verdict(table, workload, monkeypatch):
    built = gen.build(workload, SEED)
    article, parse_errors = parse_article(built.text)
    assert parse_errors == []
    assert [item.pos.line for item in article.items] == [e.line for e in built.items]
    justify = Prechecker.justify
    dead = []

    def live_only(self, premises, conjecture, const_types):
        n = len(const_types)
        if any(any_var(f, lambda v: v.kind is VarKind.CONST and v.index >= n) for f in [*premises, conjecture]):
            dead.append((n, conjecture))
        return justify(self, premises, conjecture, const_types)

    monkeypatch.setattr(Prechecker, "justify", live_only)
    analyzer = Analyzer(table)
    wrong = []
    left = []
    for item, want in zip(article.items, built.items):
        start = len(analyzer.errors)
        analyzer.run(Article(article.requirements, (item,)))
        got = sorted((e.code, e.pos.line) for e in analyzer.errors[start:])
        if got != list(want.errors):
            wrong.append((want.family, want.line, list(want.errors), got))
        if analyzer.scope.const_types:
            left.append((want.family, want.line, len(analyzer.scope.const_types)))
    assert analyzer.internal == []
    assert wrong == []
    assert left == []
    assert dead == []
