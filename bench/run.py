"""stakeclaim benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload long|wide|churn --seed N --seconds S --trace 0|1

Runs repetitions of the workload one after another, each in a fresh
process (``worker.py``), until ``--seconds`` have passed; a closed loop with
a single client. Every repetition's report is checked (``checks.py``).
Prints each metric with its unit, then, as the last line, one JSON object:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``. Each value is the median over the
run's repetitions; per-layer values take the lower median. Throughput and
set-up time are scaled to a reference host (``REFERENCE_S``); the unscaled
figures are printed too. Exits 1 if any check failed and 2 if the program
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROGRAM = ROOT / "src" / "stakeclaim" / "__init__.py"
SPEC = ROOT / "BENCHMARK.json"
REP_TIMEOUT_S = 150


def repetition(workload: str, seed: int, mode: str) -> dict:
    """Run worker.py once; its result, with "problems" listing any failure."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    # A fixed hash seed keeps dict and set layouts, and so timings, alike across runs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"{mode} repetition timed out after {REP_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"problems": [f"{mode} repetition exited {proc.returncode}"]}
    return json.loads(proc.stdout.splitlines()[-1])


# The gated times are scaled to a host on which the reference kernel of
# worker.reference_s takes this long. Contention on a shared host moves the
# kernel and the program together for minutes at a time; scaling by the
# kernel's time in the same repetition cancels most of that (bench/README.md).
REFERENCE_S = 0.05


def slowdown(r: dict) -> float:
    """How much slower than the reference host this repetition's host ran."""
    return statistics.median(r["ref_s"]) / REFERENCE_S


def throughput(reps: list[dict]) -> float:
    """Median epochs per second, scaled to the reference host."""
    return statistics.median(r["epochs"] / r["run_s"] * slowdown(r) for r in reps)


def end_to_end(reps: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(statistics.median(r["setup_s"]) / slowdown(r)
                                     for r in reps),
        "sim_epochs_per_s": throughput(reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "log_bytes_per_epoch": statistics.median(r["log_bytes"] / r["epochs"] for r in reps),
    }


def wall_clock(reps: list[dict]) -> str:
    """The unscaled figures, for the reader."""
    return (f"wall clock: {statistics.median(r['epochs'] / r['run_s'] for r in reps):.6g} "
            f"epochs/s, set-up {statistics.median(s for r in reps for s in r['setup_s']):.6g} s, "
            f"reference kernel {statistics.median(slowdown(r) for r in reps) * REFERENCE_S * 1e3:.4g}"
            f" ms (scaled to {REFERENCE_S * 1e3:g} ms)")


def per_layer(untraced: list[dict], traced: list[dict], cli: list[dict]) -> dict:
    # median_low reports one repetition's value, so counts stay whole numbers.
    out = {name: statistics.median_low(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["ledger.gc_s"] = statistics.median_low(r["gc_s"] for r in untraced)
    out["ledger.gc_collections"] = statistics.median_low(r["gc_collections"] for r in untraced)
    out["trace.sim_epochs_per_s"] = throughput(traced)
    out["trace.overhead_share"] = throughput(untraced) / out["trace.sim_epochs_per_s"] - 1
    out["cli.overhead_s"] = cli[0]["cli.overhead_s"]
    out["cli.bytes_written"] = cli[0]["cli.bytes_written"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not PROGRAM.is_file() or not SPEC.is_file():
        print(f"need {PROGRAM} and {SPEC}; run from a stakeclaim checkout", file=sys.stderr)
        return 2
    metrics_spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    done: dict[str, list[dict]] = {"run": [], "gc": [], "trace": [], "cli": []}
    problems = []
    attempted = failed = 0

    def rep(mode):
        nonlocal attempted, failed
        r = repetition(args.workload, args.seed, mode)
        attempted += 1
        failed += bool(r["problems"])
        problems.extend(f"{mode}: {p}" for p in r["problems"])
        if not r["problems"]:
            done[mode].append(r)
            if "run_s" in r:
                print(f"# {mode} repetition {len(done[mode])}: "
                      f"{r['epochs'] / r['run_s']:.6g} epochs/s wall clock, reference "
                      f"kernel {slowdown(r) * REFERENCE_S * 1e3:.4g} ms", flush=True)

    modes = ("gc", "trace") if args.trace else ("run",)
    if args.trace:
        rep("cli")
    # Start another cycle only if it should end closer to --seconds than stopping now.
    cycle_s = 0.0
    while not done[modes[0]] or time.monotonic() - start + cycle_s / 2 < args.seconds:
        cycle_start = time.monotonic()
        for mode in modes:
            rep(mode)
        if problems:
            break
        cycle_s = time.monotonic() - cycle_start

    for p in problems:
        print(f"FAILED {p}")
    metrics = {}
    if not problems:
        values = (per_layer(done["gc"], done["trace"], done["cli"]) if args.trace
                  else end_to_end(done["run"]))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in metrics_spec}
    reps = done[modes[-1]]
    print(f"# {args.workload} seed {args.seed}: {len(reps)} repetitions in "
          f"{time.monotonic() - start:.1f} s, failed_share {failed / attempted} ratio")
    if reps:
        print(f"# {wall_clock(reps)}")
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
