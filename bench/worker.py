"""One repetition of one benchmark workload, in a process of its own.

``run.py`` starts this script once per repetition, so every repetition
begins with a fresh heap and its peak RSS is its own. It prints one JSON
line with its measurements and the correctness problems it found.

Modes:

* ``run``: untraced. Sets up the world ``SETUPS`` times (generated document
  -> validated ``Scenario`` -> ``World``), then runs the last one; a fixed
  reference kernel (``reference_s``) is timed before and after.
* ``gc``: as ``run``, with only a ``gc.callbacks`` hook during the run; the
  untraced baseline of the tracing overhead and the source of the GC figures.
* ``trace``: every layer's entry points wrapped (``tracing.py``); derives the
  per-layer metrics from the spans and writes the spans to ``OUT_DIR``.
* ``cli``: ``stakeclaim run`` on the workload's scenario file, with spans
  only on ``cli.main`` and ``World.run``; writes under ``OUT_DIR`` and
  removes what it wrote.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUPS = 50

sys.path.insert(0, str(SRC))

import stakeclaim  # noqa: E402
from stakeclaim import scenario as sc  # noqa: E402

from checks import economic_digest, load_expected, report_problems  # noqa: E402
from tracing import Tracer, by_name, self_time_problems, self_times  # noqa: E402
from workloads import Workload, generate  # noqa: E402


def setup(w: Workload) -> sc.World:
    """Generated inputs -> validated Scenario -> constructed World."""
    scenario = sc.scenario_from_dict(w.doc)
    if w.claims or w.transfers:
        scenario = dataclasses.replace(
            scenario,
            claims=tuple(sc.ClaimAction(h, e) for h, e in w.claims),
            nft_transfers=tuple(sc.NftTransferAction(*t) for t in w.transfers))
    violations = sc.validate(scenario)
    if violations:
        raise ValueError(f"generated scenario is invalid: {violations}")
    return sc.World(scenario)


def timed_setups(w: Workload, wrap=None) -> tuple[list[float], sc.World]:
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        world = wrap("bench.setup", setup, w) if wrap else setup(w)
        times.append(time.perf_counter() - t0)
    gc.collect()   # earlier worlds are cyclic garbage; start the run on a clean heap
    return times, world


def reference_s(rounds: int = 3) -> list[float]:
    """Times of a fixed pure-Python kernel: dicts, small objects and JSON.

    It is the same code at every commit and runs with the collector off,
    before the set-ups and after the world is freed, so its time measures how
    fast the host runs Python at that moment, not anything the program did.
    It allocates nothing large, which would move the allocator's thresholds
    and with them the repetition's peak RSS. ``run.py`` scales the gated
    times by it.
    """
    times = []
    for _ in range(rounds):
        gc.disable()
        try:
            t0 = time.perf_counter()
            balances, lines = {}, []
            for i in range(8000):
                k = f"acct:{i & 255}"
                balances[k] = balances.get(k, 0) + i
                lines.append(json.dumps({"epoch": i >> 4, "seq": i, "emitter": k,
                                         "tag": "Transfer", "payload": {
                                             "from": k, "to": "treasury",
                                             "amount": balances[k]}},
                                        separators=(",", ":")))
            sum(map(len, lines))
            times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
    return times


def measure(w: Workload, mode: str) -> dict:
    ref_before = reference_s()
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    setup_s, world = timed_setups(w, tracer.root if tracer else None)

    gc_stats = {"collections": 0, "ns": 0, "start": 0}

    def on_gc(phase, info):
        if phase == "start":
            gc_stats["start"] = time.perf_counter_ns()
        else:
            gc_stats["collections"] += 1
            gc_stats["ns"] += time.perf_counter_ns() - gc_stats["start"]

    if mode == "gc":
        gc.callbacks.append(on_gc)
    t0 = time.perf_counter()
    report = world.run()
    run_s = time.perf_counter() - t0
    if mode == "gc":
        gc.callbacks.remove(on_gc)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    epochs = report.final_epoch + 1
    rejected = report.events_jsonl.count('"tag":"ActionRejected"')
    rep = report.to_dict()
    out = {
        "problems": report_problems(w, rep, rejected, load_expected()),
        "setup_s": setup_s,
        "run_s": run_s,
        "epochs": epochs,
        "rss_mb": rss_mb,
        "log_bytes": len(report.events_jsonl),
        "rejected": rejected,
        "economic_sha256": economic_digest(rep),
    }
    if mode == "gc":
        out["gc_s"] = gc_stats["ns"] / 1e9
        out["gc_collections"] = gc_stats["collections"]
    if tracer:
        selfs = self_times(tracer.spans)
        out["problems"] += self_time_problems(tracer.spans, selfs)
        out["layers"] = layer_metrics(tracer, selfs, report.event_count, epochs)
        tracer.write(OUT_DIR / f"spans-{w.name}-{w.seed}.jsonl")
    del report, world, rep
    gc.collect()
    out["ref_s"] = ref_before + reference_s()
    return out


def layer_metrics(tracer: Tracer, selfs: list[int], events: int, epochs: int) -> dict:
    spans = tracer.spans
    agg = by_name(spans, selfs)
    counts = tracer.counts

    def n(name):
        return agg.get(name, {}).get("n", 0)

    def self_s(*names):
        return sum(agg.get(x, {}).get("self_ns", 0) for x in names) / 1e9

    def total_s(name):
        return agg.get(name, {}).get("total_ns", 0) / 1e9

    def durations_s(name):
        return sorted((e - s) / 1e9 for x, s, e, _, _ in spans if x == name)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    epoch_ms = [d * 1e3 for d in durations_s("scenario.epoch")]
    calls = n("ledger.call")
    return {
        "ledger.calls": calls,
        "ledger.calls_reverted": counts["ledger.calls_reverted"],
        "ledger.commit_ratio": ratio(calls - counts["ledger.calls_reverted"], calls),
        "ledger.dispatches": counts["ledger.dispatches"],
        "ledger.call_self_s": self_s("ledger.call"),
        "ledger.events": events,
        "ledger.events_per_epoch": events / epochs,
        "ledger.events_jsonl_s": total_s("ledger.events_jsonl"),
        "ledger.replay_s": total_s("ledger.replay"),
        "treasury.receipts": n("treasury.receive_rewards"),
        "treasury.split_credits_s": total_s("treasury.split_credits"),
        "treasury.split_us_per_receipt":
            ratio(total_s("treasury.split_credits") * 1e6, n("treasury.split_credits")),
        "treasury.receive_rewards_s": self_s("treasury.receive_rewards"),
        "treasury.claim_s": self_s("treasury.claim"),
        "treasury.update_owner_s": self_s("treasury.update_owner"),
        "treasury.settle_exit_s": self_s("treasury.settle_exit"),
        "treasury.balance_identity_s": total_s("treasury.balance_identity"),
        "wallet.forward_rewards_s": self_s("wallet.forward_rewards"),
        "wallet.forwards": n("wallet.forward_rewards"),
        "wallet.forward_useful_ratio":
            ratio(counts["wallet.forwards_useful"], n("wallet.forward_rewards")),
        "wallet.watchdog_check_s": self_s("wallet.watchdog_check"),
        "wallet.exits_triggered": counts["wallet.exits_triggered"],
        "beacon.accrue_epoch_s": self_s("beacon.accrue_epoch"),
        "beacon.sweep_s": self_s("beacon.sweep"),
        "beacon.sweep_useful_ratio":
            ratio(counts["beacon.sweeps_useful"], n("beacon.sweep")),
        "mint.mint_s": self_s("mint.mint"),
        "mint.transfer_nft_s": self_s("mint.transfer_nft"),
        "mint.calls_reverted": counts["reverted:mint"],
        "scenario.epoch_ms_p50": statistics.median(epoch_ms),
        "scenario.epoch_ms_p99": epoch_ms[math.ceil(0.99 * len(epoch_ms)) - 1],
        "scenario.driver_self_s": self_s("scenario.epoch", "scenario.run"),
        "scenario.audit_s": self_s("scenario.audit"),
        "scenario.report_s": total_s("scenario.report"),
        "scenario.report_self_s": self_s("scenario.report"),
        "scenario.validate_s": statistics.median(durations_s("scenario.validate")),
        "scenario.world_init_s": statistics.median(durations_s("scenario.world_init")),
        "trace.spans": len(spans),
    }


def measure_cli(w: Workload) -> dict:
    """`stakeclaim run` on the scenario file; the file cannot carry claims or transfers."""
    from stakeclaim import cli

    part = w.file_part()
    work = OUT_DIR / f"cli-{w.name}-{w.seed}"
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    work.mkdir(parents=True)
    (work / "scenario.json").write_text(json.dumps(part.doc))
    tracer = Tracer()
    tracer.patch(sc.World, "run", "scenario.run")
    tracer.patch(cli, "main", "cli.main")
    try:
        code = cli.main(["run", "--scenario", str(work / "scenario.json"),
                         "--out", str(out_dir)])
        if code != 0:
            return {"problems": [f"stakeclaim run exited {code}"]}
        written = sum(p.stat().st_size for p in out_dir.iterdir())
        rep = json.loads((out_dir / "report.json").read_text())
    finally:
        shutil.rmtree(work)
    total = by_name(tracer.spans, self_times(tracer.spans))
    return {
        "problems": report_problems(part, rep, None, None),
        "cli.overhead_s":
            (total["cli.main"]["total_ns"] - total["scenario.run"]["total_ns"]) / 1e9,
        "cli.bytes_written": written,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "gc", "trace", "cli"), default="run")
    args = parser.parse_args()
    if not Path(stakeclaim.__file__).resolve().is_relative_to(SRC):
        print(f"stakeclaim imported from {stakeclaim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    w = generate(args.workload, args.seed)
    result = measure_cli(w) if args.mode == "cli" else measure(w, args.mode)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
