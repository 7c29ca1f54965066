"""The streamed event log: encoded and folded per committed batch.

The ledger keeps committed events only until ``EVENT_BATCH`` of them are
pending, then encodes them, writes their text to the log's file, and
folds them into the replay; memory keeps only the blocks a segment check
reads, and the file closes with its last holder. Whatever the batch
size, the log's bytes must be the golden runs' (which encoded the whole
Event list at once), with one header per epoch however many batches it
spans, and its event count and replay those of encoding and folding at
once the events it decodes to, each Repeat line written out
(``explain.expand``).
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
    if '"tag":"Repeat"' not in log:     # a golden's bytes are its report's digest
        assert log == "".join(encode_lines(events))
    assert led.events_digest() == hashlib.sha256(log.encode()).hexdigest()
    assert led.event_count == len(events)
    assert led.flush() == replay_balances(events)


@pytest.mark.parametrize("batch", [1, 7, None])
@pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
def test_any_batch_size_gives_the_whole_list_at_once(name, batch, monkeypatch):
    if batch is not None:       # and the log's file on disk past 256 bytes
        monkeypatch.setattr(ledger, "EVENT_BATCH", batch)
        monkeypatch.setattr(ledger, "LOG_BLOCK", 256)
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
    flushed = "".join(pickle.loads(after_flush)["_recent"][1])      # all, at epoch 0
    say(led, 4)
    unrestored = led.events_jsonl()
    assert flushed and unrestored.startswith('{"epoch":0}\n' + flushed), \
        "the calls should have crossed a flush"

    restore(led, before_flush)
    # Equal state; the bytes may differ in how pickle shares Call payloads.
    assert pickle.loads(go_on()) == pickle.loads(after_flush)
    say(led, 4)
    assert led.events_jsonl() == unrestored
    restore(led, after_flush)
    say(led, 4)
    assert led.events_jsonl() == unrestored
    assert_log_is_the_list_at_once(led)


def test_restore_across_a_write_rolls_the_file_back(monkeypatch):
    # A restore keeps the log's file and rolls the log back to the restored
    # length: what the ledger writes next goes over the bytes written since,
    # and none of those is read again.
    monkeypatch.setattr(ledger, "EVENT_BATCH", 7)
    monkeypatch.setattr(ledger, "LOG_BLOCK", 64)

    def drive(led, sizes):
        for n in sizes:
            say(led, n)
            led.advance_epoch()

    led, fresh = chatty_ledger(), chatty_ledger()
    drive(led, (1, 3))
    before = snapshot(led)
    written = pickle.loads(before)["_log_len"]
    drive(led, (5, 2, 4, 0, 6, 1))
    assert led._log_len > written, "the calls should have written"
    restore(led, before)
    drive(led, (2, 2, 2, 2))
    assert led._log_len > written, "the calls should have written again"
    drive(fresh, (1, 3, 2, 2, 2, 2))
    assert led._log_len == fresh._log_len
    assert led.events_jsonl() == fresh.events_jsonl()
    assert_log_is_the_list_at_once(led)


def test_an_epoch_across_many_batches_has_one_header(monkeypatch):
    # The epoch of the last header written carries over from batch to batch:
    # an epoch of 30 events, four batches of 7 and more, logs one header.
    monkeypatch.setattr(ledger, "EVENT_BATCH", 7)
    led = chatty_ledger()
    led.advance_epoch()
    say(led, 25)
    led.advance_epoch()
    say(led, 3)
    assert led.events_jsonl().count('{"epoch":') == 3
    assert [e.epoch for e in logged_events(led)] == [0] + [1] * 27 + [2] * 5
    assert_log_is_the_list_at_once(led)


def test_a_transfer_corrupted_before_its_fold_fails_replay_ok(monkeypatch):
    # The fold is not vacuous: one amount off by one in what it is fed, with
    # the log's bytes untouched, turns replay_ok false. The honest golden's
    # payouts are sweeps of both validators, each one TransferBatch line.
    scenario = sc.load_scenario(sc.golden_scenario_path("honest"))
    clean = World(scenario).run()
    assert clean.replay_ok
    monkeypatch.setattr(ledger, "EVENT_BATCH", 7)
    fold = ledger.replay_balances
    corrupted = []

    def corrupting_fold(events, into=None):
        events = list(events)
        for i, e in enumerate(events):
            if e.tag == "TransferBatch" and not corrupted:
                to, (first, *rest) = e.payload
                events[i] = e._replace(payload=[to, [first + 1, *rest]])
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


# What a stepped run may hold at its peak, whatever its horizon: the
# contracts' states, the Call payloads, one batch of Event objects with its
# lines, the blocks of the two epochs a segment check reads, and the log's
# file while it is still in memory, up to LOG_BLOCK bytes. About 0.3 MB on
# the runs below; the log in memory would add 1.1 MB at horizon 1,800.
RUN_PEAK = 1 << 20


def test_a_run_holds_a_bounded_tail_of_its_log():
    # The log goes to its file at each flush. The ledger keeps in hand only
    # the blocks of the last two epochs that logged, and the report
    # only the file and its length, so tracemalloc's peak over the whole run,
    # the report included, stays under one bound at a horizon of 1,800 and
    # at four times that, well below either log (each longer than the
    # bound). The text is read back only when asked for, after tracing
    # stops. Stepped, as a segment's epochs would add one line.
    scenario = sc.load_scenario(sc.golden_scenario_path("honest"))
    for horizon, at_least in ((1800, 1_100_000), (7200, 4_500_000)):
        world = SteppedWorld(dataclasses.replace(scenario, horizon=horizon))
        tracemalloc.start()
        try:
            report = world.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        log = report.events_jsonl
        assert len(log) > at_least and log.isascii()
        assert hashlib.sha256(log.encode()).hexdigest() == report.events_digest
        assert peak < RUN_PEAK, (horizon, peak, len(log))


FD_DIR = Path("/proc/self/fd")


@pytest.mark.skipif(not FD_DIR.is_dir(), reason="no per-process descriptor listing here")
def test_no_log_file_outlives_its_ledger_and_report(monkeypatch):
    # A log's file stays in memory until it holds LOG_BLOCK bytes: a
    # golden's log, about 7 kB, opens no descriptor at the default block,
    # and at 256 bytes each run's file opens one, early on. Once the worlds
    # and the reports are dropped, the files close (weakref.finalize),
    # cycles or not.
    scenario = sc.load_scenario(sc.golden_scenario_path("slashed"))

    def open_descriptors() -> int:
        gc.collect()
        return len(list(FD_DIR.iterdir()))

    before = open_descriptors()
    for block, each in ((ledger.LOG_BLOCK, 0), (256, 1)):
        monkeypatch.setattr(ledger, "LOG_BLOCK", block)
        reports = [World(scenario).run() for _ in range(50)]
        assert open_descriptors() == before + each * len(reports)
        del reports
        assert open_descriptors() == before


def test_a_report_keeps_its_log_as_the_run_left_it(monkeypatch):
    # The report's text is read on its first read, here after the world has
    # stepped on and written more to the file: it is still the log at report().
    monkeypatch.setattr(ledger, "EVENT_BATCH", 7)
    monkeypatch.setattr(ledger, "LOG_BLOCK", 256)
    world = World(sc.load_scenario(sc.golden_scenario_path("honest")))
    report = world.run()
    count = report.event_count
    for _ in range(3):
        world.step()
    now = world.ledger.events_jsonl()
    assert world.ledger.event_count > count
    assert world.ledger._log_len > report.log.length, "the steps should have written"
    assert expanded(report.events_jsonl).count("\n") == count
    assert hashlib.sha256(report.events_jsonl.encode()).hexdigest() == report.events_digest
    assert now.startswith(report.events_jsonl) and now != report.events_jsonl
