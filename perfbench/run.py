"""Benchmark of the hurwitz-orbits pipeline: one workload per run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload realize --seed 1 --seconds 30 --trace 0

Each run starts a fresh single-threaded worker process (worker.py) that sets
the workload up and runs passes of its calls in a closed loop for
``--seconds``. With ``--trace 0`` the run reports the end-to-end metrics
(wall_s, slowest_call_s, peak_rss_mb, setup_s); ``setup_s`` is the median
of several fresh workers. With ``--trace 1`` the worker spends half its
time untraced and half with every layer's entry points wrapped, and the run
reports the per-layer metrics. Every answer is checked against a pinned
value; ``error_rate`` is failed calls over attempted calls.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from layertrace import LAYERS  # noqa: E402

SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # the whole run, set-up workers included, must end by then


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(root: str, extra, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *extra],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(deadline - time.monotonic(), 1.0),
        check=True,
    )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def metric(value, unit):
    entry = {"value": value, "unit": unit}
    if value is None:
        entry["absent"] = True
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hurwitzorbits", "__init__.py")):
        print(f"error: no src/hurwitzorbits under {root}; run from a source checkout", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [] if args.trace else [
            run_worker(root, common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
        ]
        res = run_worker(root, common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1

    failures = list(res["failures"])
    if args.trace and any(a != res["answers"][0] for a in res["traced_answers"]):
        failures.append("traced answers differ from untraced answers")
    durations = res["durations"]
    passes = len(durations)
    attempted = sum(len(d) for d in durations)
    failed = len(failures)
    # Host interference only ever adds time, so each call's fastest pass is
    # its least disturbed measurement.
    best = [min(d[k] for d in durations) for k in range(len(res["call_labels"]))]
    setups = probes + [res["setup_s"]]

    machine = {
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(root),
    }
    print("machine " + json.dumps(machine))
    for line in failures[:20]:
        print(f"FAIL {line}")
    for label, seconds in zip(res["call_labels"], best):
        print(f"call {seconds:10.4f} s  {label}")

    end_to_end = {
        "wall_s": (sum(best), "s", f"sum of each call's best of {passes} passes"),
        "slowest_call_s": (max(best), "s", f"best of {passes} passes"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB", "1 worker"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} workers"),
        "error_rate": (failed / attempted, "ratio", f"{failed} of {attempted} calls"),
    }
    for name, (value, unit, samples) in end_to_end.items():
        if name == "error_rate" or not args.trace:
            print(f"{args.workload:10s} {name:16s} {value:14.6f} {unit:5s} {samples}")
    if not args.trace:
        metrics = {name: metric(v, u) for name, (v, u, _) in end_to_end.items() if name != "error_rate"}
    else:
        layers = res["layers"]
        # Peak RSS is a high-water mark, so an earlier call in the same process
        # can hide the largest orbit's growth: measure it in a fresh worker.
        largest = res["largest_call"]
        if largest is not None and layers["hurwitz.bytes_per_state"][0] is not None:
            try:
                probe = run_worker(root, common + ["--memory-probe", str(largest)], deadline)
            except (subprocess.SubprocessError, ValueError, IndexError) as exc:
                print(f"error: memory probe failed: {exc}", file=sys.stderr)
                return 1
            states, growth_kb = probe["memory"]
            layers["hurwitz.bytes_per_state"] = (None if growth_kb is None else growth_kb * 1024 / states, "B")
        for name, (value, unit) in layers.items():
            shown = "absent" if value is None else f"{value:14.6f}"
            print(f"{args.workload:10s} {name:28s} {shown:>14s} {unit}")
        self_s = {layer: layers[f"{layer}.self_s"][0] or 0.0 for layer in LAYERS}
        total = sum(self_s.values()) or 1.0
        shares = sorted(((s / total, layer) for layer, s in self_s.items()), reverse=True)
        print("self-time shares: " + ", ".join(f"{layer} {share:.1%}" for share, layer in shares))
        print(f"dominant layer: {shares[0][1]}")
        metrics = {name: metric(v, u) for name, (v, u) in layers.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
