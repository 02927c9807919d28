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

The prechecker's verdict memo is checked here too: on ``lemmas`` and
``skeleton``, where most obligations repeat, every verdict it returns
must equal what a fresh prechecker computes, and the hash seed, which
decides the fingerprints it admits obligations by, must change no
verdict.
"""

import json
import os
import subprocess
import sys

import pytest

from micromizar.analyzer import Analyzer
from micromizar.logic import VarKind, any_var
from micromizar.parser import parse_article
from micromizar.prechecker import Prechecker
from micromizar.requirements import enable_groups, load_requirements
from micromizar.surface import Article

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "mizbench")
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


@pytest.mark.parametrize("workload", ["lemmas", "skeleton"])
def test_every_memo_hit_is_what_a_fresh_check_gives(table, workload, monkeypatch):
    article, _ = parse_article(gen.build(workload, SEED).text)
    justify, check = Prechecker.justify, Prechecker._justify
    checks = []
    hits = []
    wrong = []

    def counting(self, *args):
        checks.append(None)
        return check(self, *args)

    def rechecked(self, premises, conjecture, const_types):
        n = len(checks)
        got = justify(self, premises, conjecture, const_types)
        if len(checks) == n:
            fresh = Prechecker(self.db, self.clause_cap)
            hits.append(conjecture)
            if check(fresh, premises, conjecture, const_types) != got:
                wrong.append(conjecture)
        return got

    monkeypatch.setattr(Prechecker, "_justify", counting)
    monkeypatch.setattr(Prechecker, "justify", rechecked)
    analyzer = Analyzer(table)
    for item in article.items:
        analyzer.run(Article(article.requirements, (item,)))
    assert analyzer.internal == []
    assert len(hits) > 100
    assert wrong == []


# Checks the first N items of `lemmas` at SEED and prints their errors
# and every obligation's verdict, and how many verdicts the memo gave.
HASH_SEED_RUN = """
import json, sys
root, seed, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/mizbench"]
import gen
from micromizar.analyzer import Analyzer
from micromizar.parser import parse_article
from micromizar.prechecker import Prechecker
from micromizar.requirements import enable_groups, load_requirements
from micromizar.surface import Article

table, _ = enable_groups(load_requirements(root + "/mizbench/requirements.txt"), list(gen.GROUPS))
article, _ = parse_article(gen.build("lemmas", seed).text)
justify, check = Prechecker.justify, Prechecker._justify
verdicts, checks = [], []
Prechecker._justify = lambda self, *args: checks.append(None) or check(self, *args)

def recorded(self, *args):
    j = justify(self, *args)
    verdicts.append((j.accepted, j.too_large, j.clause_count, j.limited))
    return j

Prechecker.justify = recorded
analyzer = Analyzer(table)
for item in article.items[:n]:
    analyzer.run(Article(article.requirements, (item,)))
errors = [(e.code, e.pos.line, e.pos.col) for e in analyzer.errors]
print(json.dumps([errors, verdicts, len(verdicts) - len(checks)]))
"""


def test_the_hash_seed_changes_no_verdict():
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_RUN, ROOT, str(SEED), "300"],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for hash_seed in ("0", "1")
    ]
    outs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    (errors0, verdicts0, hits0), (errors1, verdicts1, hits1) = map(json.loads, outs)
    assert errors0 == errors1
    assert verdicts0 == verdicts1
    assert min(hits0, hits1) > 100
