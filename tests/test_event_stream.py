"""The streamed event log: encoded and folded per committed batch.

The ledger keeps committed events only until ``EVENT_BATCH`` of them are
pending, then encodes them into the log's text and folds them into the
replay. Whatever the batch size, the log's bytes must be the golden runs'
(which encoded the whole Event list at once), and its event count and
replay those of encoding and folding at once the events it decodes to,
each Repeat line written out (``explain.expand``).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import pickle
import tracemalloc
import types
from pathlib import Path

import pytest

import stakeclaim as sc
from conftest import SteppedWorld, expanded, logged_events, restore, snapshot
from stakeclaim import ledger
from stakeclaim.errors import UnknownAddress
from stakeclaim.ledger import (
    Emit,
    Event,
    Handlers,
    Ledger,
    Transfer,
    encode_lines,
    replay_balances,
)
from stakeclaim.scenario import World

GOLDEN_DIR = Path(__file__).parent / "golden"


class Chatty(Handlers):
    """Logs n events and passes value on; with fail, then pays a ghost and reverts."""

    kind = "chatty"

    def initial_state(self):
        return 0

    def _op_say(self, state, msg, ctx):
        effects = [Emit("Said", {"i": i}) for i in range(msg.args["n"])]
        if msg.value:
            effects.append(Transfer("sink", msg.value))
        if msg.args.get("fail"):
            effects.append(Transfer("ghost", 1))
        return state + 1, effects, None


def chatty_ledger() -> Ledger:
    led = Ledger()
    led.register_account("user")
    led.register_account("sink")
    led.register_contract("c", Chatty())
    led.genesis("user", 100)
    return led


def say(led: Ledger, n: int, value: int = 1, fail: bool = False) -> None:
    led.call("user", "c", "say", {"n": n, "fail": fail}, value=value)


def assert_log_is_the_list_at_once(led: Ledger) -> None:
    events = logged_events(led)
    log = led.events_jsonl()
    assert expanded(log) == "".join(encode_lines(events))
    assert led.events_digest() == hashlib.sha256(log.encode()).hexdigest()
    assert led.event_count == len(events)
    assert led.flush() == replay_balances(events)


@pytest.mark.parametrize("batch", [1, 7, None])
@pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
def test_any_batch_size_gives_the_whole_list_at_once(name, batch, monkeypatch):
    if batch is not None:
        monkeypatch.setattr(ledger, "EVENT_BATCH", batch)
    world = World(sc.load_scenario(sc.golden_scenario_path(name)))
    report = world.run()
    led = world.ledger
    assert_log_is_the_list_at_once(led)
    assert (report.events_jsonl, report.events_digest, report.event_count) \
        == (led.events_jsonl(), led.events_digest(), led.event_count)
    assert report.replay_ok
    assert report.to_json() == (GOLDEN_DIR / name / "report.json").read_text()


def test_a_reverted_tree_never_reaches_the_log(monkeypatch):
    monkeypatch.setattr(ledger, "EVENT_BATCH", 7)
    led = chatty_ledger()           # 1 SupplyMint pending
    say(led, 2)                     # + Call, 2 Said, Transfer: 5 pending
    snap = snapshot(led)
    with pytest.raises(UnknownAddress):
        say(led, 4, fail=True)      # Call, 4 Said, 2 Transfers would pass 7
    assert snapshot(led) == snap
    say(led, 2)                     # 10 pending: flushed
    say(led, 0)
    seqs = [e.seq for e in logged_events(led)]
    assert seqs == list(range(len(seqs)))
    assert "ghost" not in led.events_jsonl()
    assert_log_is_the_list_at_once(led)


def test_restore_across_a_flush_gives_the_same_log(monkeypatch):
    monkeypatch.setattr(ledger, "EVENT_BATCH", 7)
    led = chatty_ledger()
    say(led, 1)
    before_flush = snapshot(led)   # 4 pending, nothing encoded

    def go_on():
        for n in (3, 0, 5, 2):
            say(led, n)
        return snapshot(led)

    after_flush = go_on()
    flushed = led._text
    say(led, 4)
    unrestored = led.events_jsonl()
    assert flushed and unrestored.startswith(flushed), "the calls should have crossed a flush"

    restore(led, before_flush)
    # Equal state; the bytes may differ in how pickle shares Call payloads.
    assert pickle.loads(go_on()) == pickle.loads(after_flush)
    say(led, 4)
    assert led.events_jsonl() == unrestored
    restore(led, after_flush)
    say(led, 4)
    assert led.events_jsonl() == unrestored
    assert_log_is_the_list_at_once(led)


def test_a_transfer_corrupted_before_its_fold_fails_replay_ok(monkeypatch):
    # The fold is not vacuous: one amount off by one in what it is fed, with
    # the log's bytes untouched, turns replay_ok false.
    scenario = sc.load_scenario(sc.golden_scenario_path("honest"))
    clean = World(scenario).run()
    assert clean.replay_ok
    monkeypatch.setattr(ledger, "EVENT_BATCH", 7)
    fold = ledger.replay_balances
    corrupted = []

    def corrupting_fold(events, into=None):
        events = list(events)
        for i, e in enumerate(events):
            if e.tag == "Transfer" and not corrupted:
                events[i] = e._replace(payload={**e.payload, "amount": e.payload["amount"] + 1})
                corrupted.append(e)
        return fold(events, into)

    monkeypatch.setattr(ledger, "replay_balances", corrupting_fold)
    report = World(scenario).run()
    assert corrupted
    assert report.events_digest == clean.events_digest
    assert not report.replay_ok


def events_held(root) -> int:
    """Event objects reachable from `root`, not through functions, types or modules."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or isinstance(ref, (type, types.ModuleType,
                                                   types.FunctionType)):
                continue
            seen.add(id(ref))
            count += type(ref) is Event
            stack.append(ref)
    return count


def test_a_default_world_holds_at_most_one_batch(monkeypatch):
    monkeypatch.setattr(ledger, "EVENT_BATCH", 64)
    scenario = sc.load_scenario(sc.golden_scenario_path("honest"))
    world = SteppedWorld(scenario)      # counted after every epoch, none in a segment
    led = world.ledger
    held = []
    substeps = world._epoch_substeps

    def counted():
        substeps()
        held.append(events_held(led))

    world._epoch_substeps = counted
    report = world.run()
    assert len(held) == scenario.horizon + 1
    assert 0 < max(held) <= 64
    assert report.event_count > 10 * 64
    assert events_held(led) <= 64


def test_the_report_makes_no_copy_of_the_log():
    # The log's text is one string grown in place: the report hands it out
    # as it is and hashes it a slice at a time, so no second copy of the
    # whole log is ever alive. The last batch is flushed before tracing
    # starts, so only the report's own allocations are traced. Stepped, as
    # a segment's epochs would add one line.
    scenario = sc.load_scenario(sc.golden_scenario_path("honest"))
    world = SteppedWorld(dataclasses.replace(scenario, horizon=1500))
    report_of = world.report
    peaks = []

    def traced_report():
        world.ledger.flush()
        tracemalloc.start()
        try:
            report = report_of()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return report

    world.report = traced_report
    log = world.run().events_jsonl
    assert len(log) > 4 * ledger.DIGEST_SLICE
    assert peaks[0] < len(log)
    assert log is world.ledger.events_jsonl()
