"""Benchmark of the micromizar verifier on seeded generated articles.

    python3 mizbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a checkout.  The workload (see ``gen.WORKLOADS``)
is generated from the seed; the verifier sees only the article text.
Each pass is one cold worker process (``worker.py``) that sets up,
checks the whole article item by item, and compares every verdict with
the one the generator built in.  Passes repeat while another one fits
in ``--seconds`` (at least ``MIN_PASSES``), one at a time on one thread:
a closed loop with a single client.

With ``--trace 0`` the end-to-end metrics are reported, as medians over
the passes, in reference seconds (wall time scaled by the machine's
speed during the pass, see ``worker.py``; the raw wall medians are
printed too):

* ``setup_s``: import, requirement file, ``enable_groups``;
* ``verify_s``: ``parse_article`` plus every item's ``Analyzer.run``;
* ``item_ms.p50``, ``item_ms.p99``: time to verdict per top-level item
  (each item's median over the passes, then the percentile over items);
* ``peak_rss_mb``: the worker's peak resident set.

With ``--trace 1`` untraced and traced passes alternate; the traced
ones give the per-layer metrics of ``tracing.METRICS`` (times as
medians, counts from one pass, which must repeat exactly), and the
ratio of the two gives ``trace.overhead_frac``.

Failed items (wrong verdict, or an exception other than ``MizarError``)
are counted in ``failed`` against ``attempted``; ``failed_frac`` is
their ratio and is printed with the metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
from tracing import METRICS  # noqa: E402

MIN_PASSES = 3  # medians need three; a traced run also needs two traced passes
SETUP_PROBES = 3  # extra set-up-only workers, so setup_s has enough samples
DEADLINE_S = 150  # stop starting passes here, whatever MIN_PASSES says
WORKER_TIMEOUT_S = 170


def _worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    article = gen.build(workload, seed)
    job = {
        "text": article.text,
        "groups": list(gen.GROUPS),
        "items": [[e.line, [list(x) for x in e.errors]] for e in article.items],
        "trace": False,
    }
    # set-up probes check an empty article; the first may write bytecode
    # caches, so its numbers are dropped
    probe = dict(job, text="environ begin", items=[])
    _worker(probe)
    setups = [_worker(probe)["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = time.monotonic()
    last = 0.0  # duration of the latest pass: the next one should fit in the time left
    while True:
        elapsed = time.monotonic() - start
        passes = len(plain) + len(traced)
        enough = passes >= MIN_PASSES and (not trace or len(traced) >= 2)
        if enough and elapsed + last > seconds or passes and elapsed + last > DEADLINE_S:
            break
        use_trace = trace and len(traced) < len(plain)
        result = _worker(dict(job, trace=use_trace))
        (traced if use_trace else plain).append(result)
        last = time.monotonic() - start - elapsed
    setups += [r["setup_s"] for r in plain + traced]
    runs = plain + traced
    return {
        "article": article,
        "setups": setups,
        "plain": plain,
        "traced": traced,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "notes": [n for r in runs for n in r["notes"]],
    }


def end_to_end(m: dict) -> dict[str, tuple[float, str]]:
    plain = m["plain"]
    per_item = [statistics.median(ts) for ts in zip(*(r["item_s"] for r in plain))]
    if not per_item:  # the parser crashed: every item failed, and none was timed
        per_item = [0.0, 0.0]
    return {
        "setup_s": (statistics.median(m["setups"]), "s"),
        "verify_s": (statistics.median(r["verify_s"] for r in plain), "s"),
        "item_ms.p50": (1000 * statistics.median(per_item), "ms"),
        "item_ms.p99": (1000 * _percentile(per_item, 99), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }


def per_layer(m: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics, and the names of counts that did not repeat."""
    layers = [r["layers"] for r in m["traced"]]
    out: dict[str, tuple[float, str]] = {}
    unsteady = []
    for name, (unit, _, _) in METRICS.items():
        if name == "trace.overhead_frac":
            continue
        values = [layer[name] for layer in layers]
        if unit == "s":
            out[name] = (statistics.median(values), unit)
        else:
            out[name] = (values[0], unit)
            if any(v != values[0] for v in values):
                unsteady.append(name)
    traced = statistics.median(r["verify_s"] for r in m["traced"])
    plain = statistics.median(r["verify_s"] for r in m["plain"])
    out["trace.overhead_frac"] = (traced / plain - 1, "frac")
    return out, unsteady


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "micromizar", "analyzer.py")):
        print(f"no micromizar sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    correct = m["failed"] == 0
    if args.trace:
        metrics, unsteady = per_layer(m)
        for name in unsteady:
            print(f"count {name} differs between traced passes of one article")
        correct = correct and not unsteady
    else:
        metrics = end_to_end(m)
    items = len(m["article"].items)
    print(f"workload {args.workload}: {gen.WORKLOADS[args.workload]}")
    print(f"seed {args.seed}: {items} items, {len(m['plain'])} plain and {len(m['traced'])} traced passes")
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"{name:32s} {shown} {unit}")
    if not args.trace:
        print(f"{'item_ms samples':32s} {items:14d} items (p99 has {items // 100} beyond it)")
        for name in ("setup_s", "verify_s"):
            raw = statistics.median(r[f"raw_{name}"] for r in m["plain"])
            print(f"{name + ' (raw wall)':32s} {raw:14.6f} s")
    print(f"{'failed_frac':32s} {m['failed'] / m['attempted']:14.6f} frac ({m['failed']} of {m['attempted']})")
    for note in m["notes"][:20]:
        print(f"  failed item, {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
