"""Per-layer times and counts, taken from outside the package.

`Tracer.install` replaces each layer's public entry point with a timing
wrapper, at the name its caller looks it up by: ``tokenize`` in
``micromizar.parser``, ``match_scheme`` in ``micromizar.analyzer``,
``clause_refuted`` in ``micromizar.prechecker``, ``refute_clause`` in
``micromizar.unifier``, and methods on their classes.  Only a traced
worker calls it, so untraced runs execute unmodified code.

Self times partition the checking time: what the benchmark itself
timed (`parse_article` and each item's `Analyzer.run`) splits into
lexer, parser, resolver, analyzer, schematizer, prechecker, equalizer
and unifier, and the harness loop around them is `trace.remainder_s`.
The unifier's replay (`EqGraph.run` outside `refute_clause`) and the
subtyping and requirement counters cut across that partition.
"""

from __future__ import annotations

import time
from collections import defaultdict

# name -> (unit, better, the end-to-end metric and workload it should move)
METRICS = {
    "lexer.s": ("s", "lower", "verify_s on skeleton"),
    "lexer.tokens": ("count", "lower", "verify_s on skeleton"),
    "parser.self_s": ("s", "lower", "verify_s on skeleton"),
    "parser.items": ("count", "higher", "verify_s on skeleton"),
    "resolver.s": ("s", "lower", "item_ms.p50 on skeleton"),
    "resolver.calls": ("count", "lower", "item_ms.p50 on skeleton"),
    "analyzer.self_s": ("s", "lower", "item_ms.p50 on skeleton"),
    "schematizer.s": ("s", "lower", "verify_s on skeleton"),
    "schematizer.calls": ("count", "lower", "verify_s on skeleton"),
    "schematizer.failed": ("count", "lower", "verify_s on skeleton"),
    "prechecker.self_s": ("s", "lower", "item_ms.p99 on lemmas, verify_s on rejects"),
    "prechecker.obligations": ("count", "lower", "item_ms.p99 on lemmas, verify_s on rejects"),
    "prechecker.clauses": ("count", "lower", "item_ms.p99 on lemmas, verify_s on rejects"),
    "prechecker.too_large": ("count", "lower", "verify_s on rejects"),
    "equalizer.s": ("s", "lower", "verify_s and item_ms.p50 on algebra, verify_s on rejects"),
    "equalizer.graphs": ("count", "lower", "verify_s on algebra and rejects"),
    "equalizer.nodes_per_graph": ("count", "lower", "verify_s on algebra"),
    "equalizer.refuted_frac": ("frac", "higher", "verify_s on algebra"),
    "equalizer.limited": ("count", "lower", "verify_s on rejects"),
    "unifier.s": ("s", "lower", "item_ms.p99 on lemmas, verify_s on rejects"),
    "unifier.calls": ("count", "lower", "item_ms.p99 on lemmas, verify_s on rejects"),
    "unifier.tuples": ("count", "lower", "item_ms.p99 on lemmas, verify_s on rejects"),
    "unifier.refuted_frac": ("frac", "higher", "item_ms.p99 on lemmas"),
    "unifier.capped": ("count", "lower", "verify_s on rejects"),
    "unifier.replay_s": ("s", "lower", "item_ms.p99 on lemmas"),
    "requirements.lookups": ("count", "lower", "verify_s on algebra; setup_s if moved to set-up"),
    "requirements.cluster_rebuilds": ("count", "lower", "verify_s on algebra; setup_s if moved to set-up"),
    "subtyping.round_up_calls": ("count", "lower", "verify_s on algebra and lemmas"),
    "subtyping.round_up_s": ("s", "lower", "verify_s on algebra and lemmas"),
    "trace.remainder_s": ("s", "lower", "none: harness loop outside every layer"),
    "trace.overhead_frac": ("frac", "lower", "none: traced verify_s / untraced - 1"),
}

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.s: dict[str, float] = defaultdict(float)
        self.n: dict[str, int] = defaultdict(int)
        self._resolver_depth = 0
        self._in_refute = False

    def install(self) -> None:
        import micromizar.analyzer as analyzer
        import micromizar.parser as parser
        import micromizar.prechecker as prechecker
        import micromizar.unifier as unifier
        from micromizar.equalizer import EqGraph
        from micromizar.requirements import RequirementTable
        from micromizar.resolver import Resolver
        from micromizar.schematizer import SchemeMatchError
        from micromizar.subtyping import DefinitionDb

        s, n = self.s, self.n

        tokenize = parser.tokenize

        def traced_tokenize(text):
            t0 = clock()
            tokens = tokenize(text)
            s["lexer"] += clock() - t0
            n["lexer.tokens"] += len(tokens)
            return tokens

        parser.tokenize = traced_tokenize

        for name in ("formula", "term", "type_expr"):
            setattr(Resolver, name, self._outermost(getattr(Resolver, name)))

        match_scheme = analyzer.match_scheme

        def traced_match_scheme(*args):
            n["schematizer.calls"] += 1
            t0 = clock()
            try:
                return match_scheme(*args)
            except SchemeMatchError:
                n["schematizer.failed"] += 1
                raise
            finally:
                s["schematizer"] += clock() - t0

        analyzer.match_scheme = traced_match_scheme

        justify = prechecker.Prechecker.justify

        def traced_justify(self_, *args):
            t0 = clock()
            res = justify(self_, *args)
            s["justify"] += clock() - t0
            n["prechecker.obligations"] += 1
            n["prechecker.clauses"] += res.clause_count
            n["prechecker.too_large"] += res.too_large
            return res

        prechecker.Prechecker.justify = traced_justify

        clause_refuted = prechecker.clause_refuted

        def traced_clause_refuted(*args):
            t0 = clock()
            try:
                return clause_refuted(*args)
            finally:
                s["clause_refuted"] += clock() - t0

        prechecker.clause_refuted = traced_clause_refuted

        refute_clause = unifier.refute_clause

        def traced_refute_clause(*args):
            self._in_refute = True
            t0 = clock()
            try:
                g = refute_clause(*args)
            finally:
                s["equalizer"] += clock() - t0
                self._in_refute = False
            n["equalizer.graphs"] += 1
            n["equalizer.nodes"] += len(g.nodes)
            n["equalizer.refuted"] += g.contradiction
            n["equalizer.limited"] += g.limited
            return g

        unifier.refute_clause = traced_refute_clause

        refute = unifier.Unifier.refute

        def traced_refute(self_):
            fuel = self_.fuel
            out = refute(self_)
            n["unifier.calls"] += 1
            n["unifier.tuples"] += fuel - self_.fuel
            n["unifier.refuted"] += out
            n["unifier.capped"] += self_.capped
            return out

        unifier.Unifier.refute = traced_refute

        run = EqGraph.run

        def traced_run(self_, *args):
            if self._in_refute:
                return run(self_, *args)
            t0 = clock()
            try:
                return run(self_, *args)
            finally:
                s["replay"] += clock() - t0

        EqGraph.run = traced_run

        for name in ("cid", "constructor"):
            setattr(RequirementTable, name, self._counted(getattr(RequirementTable, name), "requirements.lookups"))
        RequirementTable.builtin_conditional_clusters = self._counted(
            RequirementTable.builtin_conditional_clusters, "requirements.cluster_rebuilds"
        )

        round_up = DefinitionDb.round_up

        def traced_round_up(self_, ty):
            n["subtyping.round_up_calls"] += 1
            t0 = clock()
            try:
                return round_up(self_, ty)
            finally:
                s["round_up"] += clock() - t0

        DefinitionDb.round_up = traced_round_up

    def _outermost(self, method):
        """Time and count a recursive resolver method at its outermost call."""
        s, n = self.s, self.n

        def wrapper(self_, *args):
            if self._resolver_depth:
                self._resolver_depth += 1
                try:
                    return method(self_, *args)
                finally:
                    self._resolver_depth -= 1
            self._resolver_depth = 1
            n["resolver.calls"] += 1
            t0 = clock()
            try:
                return method(self_, *args)
            finally:
                s["resolver"] += clock() - t0
                self._resolver_depth = 0

        return wrapper

    def _counted(self, method, key: str):
        n = self.n

        def wrapper(*args):
            n[key] += 1
            return method(*args)

        return wrapper

    def layers(self, parse_s: float, items_s: float, verify_s: float, items: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass, from the raw totals.

        ``parse_s`` and ``items_s`` are what the harness timed around
        `parse_article` and around the items' `Analyzer.run` calls.
        """
        s, n = self.s, self.n
        self_s = {
            "lexer.s": s["lexer"],
            "parser.self_s": parse_s - s["lexer"],
            "resolver.s": s["resolver"],
            "analyzer.self_s": items_s - s["resolver"] - s["justify"] - s["schematizer"],
            "schematizer.s": s["schematizer"],
            "prechecker.self_s": s["justify"] - s["clause_refuted"],
            "equalizer.s": s["equalizer"],
            "unifier.s": s["clause_refuted"] - s["equalizer"],
        }
        graphs, calls = n["equalizer.graphs"], n["unifier.calls"]
        out = {
            **self_s,
            "lexer.tokens": n["lexer.tokens"],
            "parser.items": items,
            "resolver.calls": n["resolver.calls"],
            "schematizer.calls": n["schematizer.calls"],
            "schematizer.failed": n["schematizer.failed"],
            "prechecker.obligations": n["prechecker.obligations"],
            "prechecker.clauses": n["prechecker.clauses"],
            "prechecker.too_large": n["prechecker.too_large"],
            "equalizer.graphs": graphs,
            "equalizer.nodes_per_graph": n["equalizer.nodes"] / graphs if graphs else 0.0,
            "equalizer.refuted_frac": n["equalizer.refuted"] / graphs if graphs else 0.0,
            "equalizer.limited": n["equalizer.limited"],
            "unifier.calls": calls,
            "unifier.tuples": n["unifier.tuples"],
            "unifier.refuted_frac": n["unifier.refuted"] / calls if calls else 0.0,
            "unifier.capped": n["unifier.capped"],
            "unifier.replay_s": s["replay"],
            "requirements.lookups": n["requirements.lookups"],
            "requirements.cluster_rebuilds": n["requirements.cluster_rebuilds"],
            "subtyping.round_up_calls": n["subtyping.round_up_calls"],
            "subtyping.round_up_s": s["round_up"],
            "trace.remainder_s": verify_s - sum(self_s.values()),
        }
        return out
