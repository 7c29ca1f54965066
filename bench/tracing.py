"""Span tracing for the benchmark's traced run.

The tracer wraps the public entry points of each stakeclaim module from
outside (class attributes and module globals are replaced in the worker
process only; no source file changes) and records one span per call:
``(name, start_ns, end_ns, parent_index, epoch)``. Spans of one epoch
share its epoch number (-1 before any). Garbage collections are recorded as
``gc`` spans through ``gc.callbacks``, so no layer's self time includes
the collector. Spans stay in memory until :meth:`Tracer.write`.

Times are integer nanoseconds from ``time.perf_counter_ns``, so self times
are exact: each is a span's duration minus its children's, and they sum to
the root spans' durations with no rounding.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter
from pathlib import Path

clock = time.perf_counter_ns

# handle() spans are named "<layer>.<msg.method>"; the layer is the module.
CONTRACT_LAYERS = {
    "BeaconContract": "beacon",
    "MintContract": "mint",
    "TreasuryContract": "treasury",
    "ValidatorWallet": "wallet",
}

# Handle results that say whether the call did useful work.
RESULT_COUNTERS = {
    "wallet.forward_rewards": lambda r: "wallet.forwards_useful" if r else None,
    "beacon.sweep": lambda r: "beacon.sweeps_useful" if r else None,
    "wallet.watchdog_check":
        lambda r: "wallet.exits_triggered" if r == "TriggerExit" else None,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[tuple[int, int]] = []   # (span index, epoch)
        self.counts: Counter = Counter()
        self._gc_start = 0

    # --- recording ---------------------------------------------------------

    def traced(self, fn, name: str, epoch_of=None, on_error=None, on_result=None):
        """`fn` wrapped to record a span per call.

        `epoch_of(args)` gives the span's epoch (default: the parent's);
        `on_error(args)` and `on_result(args, result)` update counters.
        Between pushing the stack and reading the clock, and between reading
        it and popping, nothing allocates, so a collection cannot fall into
        a span's interval without being its descendant.
        """
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent, epoch = stack[-1] if stack else (-1, -1)
            if epoch_of is not None:
                epoch = epoch_of(args)
            spans.append(None)
            idx = len(spans) - 1
            stack.append((idx, epoch))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, epoch)
                if on_error is not None:
                    on_error(args)
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name, start, end, parent, epoch)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        setattr(owner, attr, self.traced(getattr(owner, attr), name, **hooks))

    def root(self, name: str, fn, *args):
        """Call fn(*args) under a span of its own."""
        return self.traced(fn, name)(*args)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
            return
        parent, epoch = self.stack[-1] if self.stack else (-1, -1)
        self.spans.append(("gc", self._gc_start, clock(), parent, epoch))

    # --- wiring ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points; process-wide and never undone."""
        from stakeclaim import beacon, ledger, mint, scenario, treasury, wallet

        counts = self.counts

        def reverted(args):
            counts["ledger.calls_reverted"] += 1
            counts[f"reverted:{args[2]}"] += 1

        L = ledger.Ledger
        self.patch(L, "call", "ledger.call", epoch_of=lambda a: a[0].epoch,
                   on_error=reverted)
        self.patch(L, "advance_epoch", "scenario.epoch",
                   epoch_of=lambda a: a[0].epoch + 1)
        self.patch(L, "events_jsonl", "ledger.events_jsonl")
        for cls in (beacon.BeaconContract, mint.MintContract,
                    treasury.TreasuryContract, wallet.ValidatorWallet):
            cls.handle = self._traced_handle(cls.handle, CONTRACT_LAYERS[cls.__name__])
        self.patch(treasury, "split_credits", "treasury.split_credits")
        self.patch(scenario, "replay_balances", "ledger.replay")
        self.patch(scenario, "balance_identity", "treasury.balance_identity")
        self.patch(scenario, "validate", "scenario.validate")
        W = scenario.World
        self.patch(W, "__init__", "scenario.world_init")
        self.patch(W, "run", "scenario.run")
        self.patch(W, "audit", "scenario.audit")
        self.patch(W, "report", "scenario.report")
        gc.callbacks.append(self._on_gc)

    def _traced_handle(self, handle, layer: str):
        wrapped: dict[str, object] = {}
        counts = self.counts

        def handle_by_method(contract, state, msg, ctx):
            counts["ledger.dispatches"] += 1
            fn = wrapped.get(msg.method)
            if fn is None:
                name = f"{layer}.{msg.method}"
                counter = RESULT_COUNTERS.get(name)

                def on_result(args, result, counter=counter):
                    key = counter(result[2])
                    if key is not None:
                        counts[key] += 1

                fn = wrapped[msg.method] = self.traced(
                    handle, name, epoch_of=lambda a: a[3].epoch,
                    on_result=on_result if counter is not None else None)
            return fn(contract, state, msg, ctx)

        return handle_by_method

    def write(self, path: Path) -> None:
        """One JSON line per span: [name, start_ns, end_ns, parent, epoch]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")


# --- analysis -------------------------------------------------------------------

def self_times(spans: list) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def self_time_problems(spans: list, selfs: list[int]) -> list[str]:
    """Self times must be non-negative and sum to the root spans' durations."""
    out = []
    negative = [spans[i][0] for i, s in enumerate(selfs) if s < 0]
    if negative:
        out.append(f"{len(negative)} spans with negative self time, e.g. {negative[0]}")
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    if sum(selfs) != roots:
        out.append(f"self times sum to {sum(selfs)} ns, root spans to {roots} ns")
    return out


def by_name(spans: list, selfs: list[int]) -> dict[str, dict]:
    """name -> {"n": calls, "total_ns": summed durations, "self_ns": summed self times}."""
    out: dict[str, dict] = {}
    for (name, start, end, _, _), s in zip(spans, selfs):
        agg = out.setdefault(name, {"n": 0, "total_ns": 0, "self_ns": 0})
        agg["n"] += 1
        agg["total_ns"] += end - start
        agg["self_ns"] += s
    return out
