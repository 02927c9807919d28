"""One cold verifier process: set up, check one article, report as JSON.

`run.py` starts this script once per pass with the normal interpreter
(no ``-O``, so the checker's ``assert``-based self-checks stay on, as
they are for users) and writes the job to its standard input:
``{"text": ..., "groups": [...], "items": [[line, [[code, line], ...]], ...],
"trace": bool}``.

The set-up clock starts once the job is read, before ``micromizar`` is
imported: interpreter start-up itself does not depend on this
repository.  Set-up ends when the requirement table is ready.

Checking drives the library the way a command-line verifier would:
`parse_article`, then one `Analyzer` that is fed each top-level item as
a one-item `Article`.  ``run`` keeps nothing between calls but the
error list it appends to, so the errors match one ``run`` over the
whole article, and each item gets its own time and verdict.

Times are reported in reference seconds.  The shared machines this runs
on change speed by up to ~1.7x within seconds and drift for minutes, so
the worker times a fixed chunk of pure-Python work (`calibrate`) right
after set-up and between every ``CALIBRATE_EVERY`` items, and scales
each wall time by ``REFERENCE_CHUNK_S`` over the chunk's mean time
around it.  The chunks are not part of any reported time; the raw wall
times are reported too.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# the chunk's typical time on the 2-vCPU machine the benchmark was built
# on; it only sets the scale of the reported times
REFERENCE_CHUNK_S = 0.0015
CALIBRATE_EVERY = 10  # items between calibration chunks
SETUP_CHUNKS = 20

clock = time.perf_counter


def _chunk() -> None:
    """A fixed piece of pure-Python work: tuples, dict updates, calls."""
    d: dict[tuple[int, int], int] = {}
    for i in range(4000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + len(k)


def calibrate(times: list[float]) -> float:
    """Time one chunk, with the cyclic collector off so that the size of
    the checker's heap cannot slow it; append and return its duration."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = clock()
        _chunk()
        dt = clock() - t
    finally:
        if enabled:
            gc.enable()
    times.append(dt)
    return dt


def _scale(times: list[float]) -> float:
    return REFERENCE_CHUNK_S / statistics.mean(times)


def main() -> int:
    job = json.load(sys.stdin)
    if sys.flags.optimize:
        print("the benchmark needs assertions on: run without -O", file=sys.stderr)
        return 2
    t0 = clock()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from micromizar.analyzer import Analyzer
    from micromizar.parser import parse_article
    from micromizar.requirements import enable_groups, load_requirements
    from micromizar.surface import Article

    table, note = enable_groups(load_requirements(os.path.join(HERE, "requirements.txt")), job["groups"])
    setup_s = clock() - t0
    if note is not None:
        print(f"requirement groups: {note}", file=sys.stderr)
        return 2
    _chunk()  # the first run of a function is slower: warm up once
    setup_chunks: list[float] = []
    for _ in range(SETUP_CHUNKS):
        calibrate(setup_chunks)

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    item_s: list[float] = []
    raised: dict[int, str] = {}
    spans: list[tuple[int, int]] = []  # slice of the error list per item
    chunks: list[float] = []
    calibrate(chunks)
    t1 = clock()
    try:
        article, parse_errors = parse_article(job["text"])
    except Exception as e:  # a crash here loses the article; count every item
        print(f"parse_article raised {e!r}", file=sys.stderr)
        article, parse_errors = None, []
    t2 = clock()
    analyzer = Analyzer(table)
    errors = analyzer.errors
    items = article.items if article is not None else ()
    for k, item in enumerate(items):
        if k % CALIBRATE_EVERY == 0:
            calibrate(chunks)
        start = len(errors)
        s = clock()
        try:
            analyzer.run(Article(article.requirements, (item,)))
        except Exception as e:  # noqa: BLE001 - an internal error fails one item, not the run
            raised[k] = repr(e)
        item_s.append(clock() - s)
        spans.append((start, len(errors)))
    t3 = clock()
    verify_s = t3 - t1 - sum(chunks[1:])  # the first chunk ran before t1
    calibrate(chunks)

    failed, notes = _verdicts(job["items"], items, parse_errors, errors, spans, raised)
    scale = _scale(chunks)
    out = {
        "setup_s": setup_s * _scale(setup_chunks),
        "verify_s": verify_s * scale,
        "item_s": [t * scale for t in item_s],
        "raw_setup_s": setup_s,
        "raw_verify_s": verify_s,
        "attempted": len(job["items"]),
        "failed": failed,
        "notes": notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,  # KiB on Linux
    }
    if tracer is not None:
        layers = tracer.layers(t2 - t1, sum(item_s), verify_s, len(items))
        out["layers"] = {name: v * scale if name.endswith(("_s", ".s")) else v for name, v in layers.items()}
    print(json.dumps(out))
    return 0


def _verdicts(expected, items, parse_errors, errors, spans, raised) -> tuple[int, list[str]]:
    """Count items whose ``(code, line)`` errors differ from the expected
    ones, that raised, or that the parser lost or invented.  A parse
    error belongs to the item it falls in."""
    got: dict[int, list[tuple[int, int]]] = {line: [] for line, _ in expected}
    starts = sorted(got)
    for e in parse_errors:
        owner = starts[max(bisect.bisect_right(starts, e.pos.line) - 1, 0)]
        got[owner].append((e.code, e.pos.line))
    index: dict[int, int] = {}
    notes = []
    for k, item in enumerate(items):
        if item.pos.line not in got:
            notes.append(f"line {item.pos.line}: an item the generator did not write")
            continue
        index[item.pos.line] = k
        a, b = spans[k]
        got[item.pos.line] += [(err.code, err.pos.line) for err in errors[a:b]]
    for line, want in expected:
        k = index.get(line)
        want = sorted(map(tuple, want))
        if k is None:
            notes.append(f"line {line}: not parsed")
        elif k in raised:
            notes.append(f"line {line}: raised {raised[k]}")
        elif sorted(got[line]) != want:
            notes.append(f"line {line}: expected {want}, got {sorted(got[line])}")
    return len(notes), notes[:20]


if __name__ == "__main__":
    sys.exit(main())
