"""One benchmark worker: a single-threaded closed loop over one workload.

Started by run.py as a fresh process with the package's ``src`` directory
on ``sys.path``. It sets the workload up, then runs passes of the
workload's calls, each call sent only after the previous one returned,
until the time budget is spent. It prints one JSON line with its timings,
its answer checks and its peak RSS.

    python3 perfbench/worker.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload scan --seed 1 --setup-only
    python3 perfbench/worker.py --workload big-orbit --seed 1 --memory-probe 1
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

SPANS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def attempt(call):
    """Time one call; returns (seconds, answer). Only ``call.run()`` is timed."""
    c0 = time.perf_counter()
    try:
        raw = call.run()
    except Exception:  # a raising call is a failed call; keep going
        seconds = time.perf_counter() - c0
        traceback.print_exc()
        return seconds, "raised"
    seconds = time.perf_counter() - c0
    try:
        return seconds, call.answer(raw)
    except Exception:  # output that cannot be read is a wrong answer
        traceback.print_exc()
        return seconds, "unreadable output"


def run_pass(calls, tracer=None):
    """Run every call once; returns (wall, per-call seconds, answers, failures)."""
    durations, answers, failures = [], [], []
    t0 = time.perf_counter()
    for index, call in enumerate(calls):
        if tracer is not None:
            tracer.begin_call(index)
        seconds, answer = attempt(call)
        durations.append(seconds)
        answers.append(repr(answer))
        if answer != call.expected:
            failures.append(f"{call.label}: got {answer!r}, expected {call.expected!r}")
    return time.perf_counter() - t0, durations, answers, failures


def run_passes(calls, budget, tracer=None):
    """Passes until the next one would overrun ``budget`` seconds; at least one."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(calls, tracer))
        typical = statistics.median(p[0] for p in passes)
        if time.perf_counter() - t0 + typical > budget:
            return passes


def layer_metrics(tracer, traced, untraced):
    """Per-pass layer figures from the traced passes; None marks an absent entry point."""
    n = len(traced)
    self_s = tracer.self_times()
    calls = tracer.layer_calls()
    out = {}
    for layer in self_s:
        found = tracer.found[layer]
        out[f"{layer}.self_s"] = (self_s[layer] / n if found else None, "s")
        out[f"{layer}.calls"] = (calls[layer] / n if found else None, "count")

    def ratio(a, b):
        return a / b if b else 0.0

    enumerate_found = tracer.found[("toddcoxeter", "enumerate_cosets")]
    tables_found = tracer.found[("groups", "conjugation_tables")]
    sized_found = tracer.found[("hurwitz", "orbit_size")] or tracer.found[("hurwitz", "orbit")]
    figures = {
        "toddcoxeter.elements": (enumerate_found, tracer.elements / n, "count"),
        "toddcoxeter.elements_per_s": (enumerate_found, ratio(tracer.elements, self_s["toddcoxeter"]), "1/s"),
        "toddcoxeter.capped": (enumerate_found, tracer.enumerations_capped / n, "count"),
        "groups.tables_s": (tables_found, tracer.span_seconds("groups.conjugation_tables") / n, "s"),
        "groups.tables_unavailable": (tables_found, tracer.tables_unavailable / n, "count"),
        "hurwitz.states": (sized_found, tracer.states / n, "count"),
        "hurwitz.states_per_s": (sized_found, ratio(tracer.states, self_s["hurwitz"]), "1/s"),
        # run.py fills this in from a fresh worker that makes only the largest call
        "hurwitz.bytes_per_state": (sized_found, 0.0, "B"),
        "hurwitz.capped": (sized_found, tracer.orbits_capped / n, "count"),
        "equalities.orbit_queries": (tracer.found[("hurwitz", "orbit_size")], tracer.orbit_queries / n, "count"),
    }
    for name, (found, value, unit) in figures.items():
        out[name] = (value if found else None, unit)
    traced_wall = statistics.median(sum(p[1]) for p in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - statistics.median(sum(p[1]) for p in untraced), "s")
    out["trace.unaccounted_s"] = ((sum(sum(p[1]) for p in traced) - sum(self_s.values())) / n, "s")
    return out


def probe_memory(calls, index):
    """Make call ``index`` alone, traced; returns (states, RSS growth in KB) of its largest orbit."""
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_call(index)
        attempt(calls[index])
    finally:
        tracer.uninstall()
    return tracer.largest[:2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--memory-probe", type=int, metavar="CALL")
    args = parser.parse_args(argv)

    calls = workloads.setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _STARTED
    result = {"setup_s": setup_s}
    if args.memory_probe is not None:
        result["memory"] = probe_memory(calls, args.memory_probe)
    elif not args.setup_only:
        if args.trace:
            from layertrace import Tracer

            untraced = run_passes(calls, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(calls, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            result["layers"] = layer_metrics(tracer, traced, untraced)
            os.makedirs(SPANS_DIR, exist_ok=True)
            tracer.write_spans(os.path.join(SPANS_DIR, f"spans-{args.workload}.tsv"))
            passes = untraced + traced
            result["traced_answers"] = [p[2] for p in traced]
            result["largest_call"] = tracer.largest[2]
        else:
            passes = run_passes(calls, args.seconds)
        result["durations"] = [p[1] for p in passes]
        result["answers"] = [p[2] for p in passes]
        result["failures"] = [f for p in passes for f in p[3]]
        result["call_labels"] = [c.label for c in calls]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
