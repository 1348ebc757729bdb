"""Run one benchmark workload against the stablectl sources in ``src/``.

    python3 bench/run.py --workload poly-large --seed 1 --seconds 30 --trace 0

The run generates the workload's inputs from the seed, then sets up
(fresh package import plus building the program objects) once before the
rounds and once after each, at least five times, and reports the median
set-up time.  It runs whole rounds of the workload's operations until
``--seconds`` have passed, timing each operation, and checks the outputs
with the benchmark's reference checker outside the timed region: the
first round in full, every later round for equality with the first.
Timings are scaled by a speed probe (see ``probe``).  With ``--trace 1``
rounds alternate between untraced and traced, and the per-layer metrics
of the traced rounds are reported with the tracing overhead.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave the checkout as it was

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("model", "stability", "classic", "control", "poly", "exact", "reductions", "cli")
SETUPS = 5

# Speed probe.  On a shared host the whole machine can run well below full
# speed for tens of seconds, longer than a run.  A fixed pure-Python kernel
# of the same kind of work as the program (dicts, sets, list scans) is timed
# between operations, and every timing is scaled to a machine on which the
# probe takes NOMINAL_PROBE_S.
NOMINAL_PROBE_S = 1.0e-3
PROBE_EVERY_S = 0.25  # of operation time between two probes
_PROBE_LISTS = [[(i * 7 + j * 13) % 211 for j in range(25)] for i in range(211)]


def probe() -> float:
    """Fastest of three runs of the speed-probe kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        ranks = [{v: k for k, v in enumerate(lst)} for lst in _PROBE_LISTS]
        alive = [set(lst) for lst in _PROBE_LISTS]
        total = 0
        for u, lst in enumerate(_PROBE_LISTS):
            for v in lst:
                if v in alive[u] and u in ranks[v]:
                    total += ranks[u][v]
        best = min(best, perf_counter() - start)
    return best

UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


@dataclass(frozen=True)
class Raised:
    error: str


def import_stablectl() -> SimpleNamespace:
    """A fresh import of the package, so that every set-up pays for it."""
    for name in [n for n in sys.modules if n == "stablectl" or n.startswith("stablectl.")]:
        del sys.modules[name]
    importlib.import_module("stablectl")
    return SimpleNamespace(**{n: importlib.import_module(f"stablectl.{n}") for n in LAYERS})


def set_up(workload):
    """Import the package afresh and build the program objects of one round.

    Returns the scaled set-up time and the modules.
    """
    gc.collect()
    before = probe()
    start = perf_counter()
    mods = import_stablectl()
    workload.ops(mods)
    took = perf_counter() - start
    return took * 2 * NOMINAL_PROBE_S / (before + probe()), mods


def another_set_up(workload) -> float:
    """Time one more set-up; later rounds keep the modules they started on."""
    kept = {n: m for n, m in sys.modules.items() if n == "stablectl" or n.startswith("stablectl.")}
    took, _ = set_up(workload)
    for name in [n for n in sys.modules if n == "stablectl" or n.startswith("stablectl.")]:
        del sys.modules[name]
    sys.modules.update(kept)
    return took


def scale_block(block: list, before: float, latencies: dict | None) -> tuple:
    """Scale a block's timings by the probes around it.

    Records them in ``latencies`` unless that is None; returns the closing
    probe and the block's scaled total.
    """
    after = probe()
    scale = 2 * NOMINAL_PROBE_S / (before + after)
    for key, took in block:
        if latencies is not None:
            latencies.setdefault(key, []).append(took * scale)
    return after, scale * sum(took for _, took in block)


def run_rounds(workload, mods, seconds: float, tracer, after_round):
    """Whole rounds until ``seconds`` of round time have passed."""
    latencies, busy = {}, {False: [], True: []}
    attempted = failed = 0
    problems: list = []
    first = None
    spent = 0.0
    # A traced run needs an untraced round after the first, which also pays
    # for growing the heap, to compare traced rounds with.
    while spent < seconds or (tracer is not None and (not busy[True] or len(busy[False]) < 2)):
        traced = tracer is not None and len(busy[False]) > len(busy[True])
        start = perf_counter()
        ops = workload.ops(mods)
        # As timeit does, keep the cyclic collector out of the timings: it
        # fires at the same allocation count every round, so it would add
        # the same few long pauses to whichever operations happen to trip it.
        gc.collect()
        gc.disable()
        results, total = {}, 0.0
        block, block_s, before = [], 0.0, probe()
        timed = None if traced else latencies
        for op in ops:
            try:
                arg = op.prep() if op.prep else None
            except OSError as exc:  # an earlier command did not write its output
                results[op.key] = Raised(f"{type(exc).__name__}: {exc}")
                continue
            if traced:
                tracer.on = True
            t0 = perf_counter()
            try:
                results[op.key] = op.call(arg)
            except Exception as exc:  # a program fault; reported, not fatal
                results[op.key] = Raised(f"{type(exc).__name__}: {exc}")
            took = perf_counter() - t0
            if tracer is not None:
                tracer.on = False
            block.append((op.key, took))
            block_s += took
            if block_s >= PROBE_EVERY_S:
                before, scaled = scale_block(block, before, timed)
                total += scaled
                block, block_s = [], 0.0
        if block:
            total += scale_block(block, before, timed)[1]
        gc.enable()
        spent += perf_counter() - start
        busy[traced].append(total)
        attempted += len(ops)
        raised = {k for k, r in results.items() if isinstance(r, Raised)}
        failed += len(raised | workload.failed(results))
        problems += [f"{k}: {results[k].error}" for k in sorted(raised)]
        if first is None:
            first = results
            try:
                if raised:
                    problems.append("reference checks skipped: operations raised")
                else:
                    problems += workload.check(mods, results).problems
            except Exception as exc:  # a malformed output broke a check
                problems.append(f"check stopped: {type(exc).__name__}: {exc}")
        else:
            problems += [f"{k}: differs from the first round" for k in results if results[k] != first[k]]
        if after_round:
            after_round()
    return latencies, busy, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stablectl" / "__init__.py").is_file():
        print(f"stablectl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        workload = cls(args.seed, workdir)
        took, mods = set_up(workload)
        setups = [took]
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(mods)
        # Set-ups are spread over the run, one after each round, so that their
        # median does not hang on the state of a shared host at one moment.
        after_round = None if tracer else lambda: setups.append(another_set_up(workload))
        latencies, busy, attempted, failed, problems = run_rounds(
            workload, mods, args.seconds, tracer, after_round)
        while not tracer and len(setups) < SETUPS:
            setups.append(another_set_up(workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        # One scaled latency per operation: its median over the rounds.
        typical = [statistics.median(times) for times in latencies.values()]
        values = {
            "setup_s": statistics.median(setups),
            "queries_per_s": len(typical) / sum(typical),
            "query_p50_ms": 1e3 * statistics.median(typical),
            "query_p90_ms": 1e3 * statistics.quantiles(typical, n=10)[-1],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": round(v, 6), "unit": UNITS[k]} for k, v in values.items()}
    else:
        overhead = statistics.median(busy[True]) / statistics.median(busy[False][1:]) - 1
        metrics = tracer.metrics(len(busy[True]), overhead)

    rounds = len(busy[False]) + len(busy[True])
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, {attempted} operations, "
          f"{failed} failed, {sum(map(len, latencies.values()))} timed samples")
    for problem in problems[:50]:
        print(f"CHECK FAILED {problem}")
    for agents, calls, pairs, secs in tracer.ladder() if tracer else ():
        print(f"scaling: {agents} agents, {calls} partitions, {pairs:.0f} pairs, "
              f"{secs:.4f} s, {1e9 * secs / pairs:.0f} ns/pair")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
