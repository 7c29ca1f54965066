"""Segments: quiet epochs advanced in closed form, byte for byte as if stepped.

After each stepped epoch, ``World.run`` advances the quiet epochs that
follow as one segment (``World._quiet_span``, ``Ledger.advance_segment``),
logged as one ``Repeat`` line. :class:`conftest.SteppedWorld`, which steps
every epoch, is the reference: on the goldens, the acceptance corpus and
hypothesis schedules whose window edges, activations, slashes, exits,
claims and horizon fall at, just before and just after segment ends, the
segmented log written out (``explain.expand``) must be the stepped log, and
both drivers must leave the same report (but for the digest of the shorter
log) and the same ledger, every field a snapshot holds but the log's length:
its contract states, and the blocks it keeps for the next segment check.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
from collections import Counter
from dataclasses import replace
from itertools import zip_longest

from hypothesis import given, settings, target
from hypothesis import strategies as st

import pytest

import stakeclaim as sc
from conftest import SteppedWorld, expanded, small_scenario, snapshot
from stakeclaim import ledger
from stakeclaim.beacon import BeaconParams
from stakeclaim.scenario import (
    BEACON,
    TREASURY,
    BehaviorWindow,
    ClaimAction,
    DepositAction,
    MintSpec,
    NftTransferAction,
    Scenario,
    SlashAction,
    TreasurySpec,
    World,
    validate,
)
from stakeclaim.errors import InvariantViolation
from stakeclaim.treasury import TreasuryContract, balance_identity
from stakeclaim.wallet import WalletStatus
from test_acceptance import CORPUS_SEED, CORPUS_SIZE, random_scenario


def segments_of(world: World) -> list[tuple[int, int]]:
    """(first, last) epoch of each segment `world` commits, recorded as it runs."""
    spans = []
    led = world.ledger
    commit = led.advance_segment

    def recording(k, *args):
        first = led.epoch + 1
        done = commit(k, *args)
        if done:
            spans.append((first, led.epoch))
        return done

    led.advance_segment = recording
    return spans


def ledger_state(world: World) -> dict:
    """Every field of `world`'s ledger that a snapshot holds, flushed, but
    the length of its log's text: a segment only shortens the log. The
    blocks kept for a segment check are joined, wherever flushes cut them."""
    world.ledger.flush()
    state = pickle.loads(snapshot(world.ledger))
    state["_recent"] = [*map("".join, state["_recent"])]
    del state["_log_len"]
    return state


def first_difference(log: str, reference: str) -> str:
    """The first line at which two different logs part."""
    for i, (a, b) in enumerate(zip_longest(log.splitlines(), reference.splitlines())):
        if a != b:
            return f"line {i}: {a!r} != {b!r}"
    return "the logs differ after their last newline"


def repeats(log: str) -> list[tuple[int, int, int]]:
    """(first epoch, epochs, lines of the block it repeats) of each Repeat line in `log`."""
    out, epoch, block = [], -1, 0
    for e in map(json.loads, log.splitlines()):
        if "epoch" in e:
            epoch, block = e["epoch"], 0
        elif e["tag"] == "Repeat":
            out.append((epoch + 1, e["payload"]["epochs"], block))
            epoch += e["payload"]["epochs"]
        else:
            block += 1
    return out


def but_the_digest(report) -> dict:
    """`report`'s fields, all but the digest of its log's text."""
    return {**report.to_dict(), "events_digest": None}


def assert_segments_match_the_reference(scenario: Scenario) -> list[tuple[int, int]]:
    """Run `scenario` with segments and stepped; both must agree. Returns the segments."""
    world = World(scenario)
    spans = segments_of(world)
    report = world.run()
    del world.ledger.advance_segment       # the recorder, no field of the ledger's
    reference_world = SteppedWorld(scenario)
    reference = reference_world.run()
    # Compared first, then reported by the first differing line: asserting
    # the == itself would have pytest diff two whole logs.
    log, stepped = expanded(report.events_jsonl), expanded(reference.events_jsonl)
    same = log == stepped
    assert same, first_difference(log, stepped)
    # One Repeat line for each segment whose epochs log anything, the End
    # line at the final epoch aside.
    per_epoch = Counter(e["epoch"] for e in map(json.loads, log.splitlines()) if e["tag"] != "End")
    assert repeats(report.events_jsonl) == [(first, last - first + 1, per_epoch[first])
                                            for first, last in spans if per_epoch[first]]
    assert report.events_digest == hashlib.sha256(report.events_jsonl.encode()).hexdigest()
    assert but_the_digest(report) == but_the_digest(reference)
    assert report.replay_ok and report.conservation_ok
    assert ledger_state(world) == ledger_state(reference_world)
    return spans


def test_goldens_match_the_stepped_reference():
    for name in sc.GOLDEN_SCENARIOS:
        assert assert_segments_match_the_reference(
            sc.load_scenario(sc.golden_scenario_path(name)))


@pytest.mark.parametrize("edge", [None, 20])
def test_epochs_after_the_last_settlement_log_nothing_and_form_one_segment(edge):
    # Once every validator is Withdrawn the keeper calls no contract, so
    # the slashed golden logs nothing after its settlement at epoch 13 but
    # the End line at the horizon.
    # Epoch 14 steps, and so does epoch 15: epoch 14 repeats no epoch, as
    # epoch 13 logged lines. The rest is one segment of zero-line epochs,
    # even across a window edge, as no performance map is sent any more.
    s = sc.load_scenario(sc.golden_scenario_path("slashed"))
    if edge is not None:
        s = replace(s, operator_schedule=(BehaviorWindow(0, 1.0, edge),
                                          BehaviorWindow(edge, 0.5)))
    spans = assert_segments_match_the_reference(s)
    assert spans[-1] == (16, s.horizon)
    # The last segment's epochs log nothing, so it writes no Repeat line.
    log = sc.run(s).events_jsonl
    *_, settled, end = expanded(log).splitlines()
    assert settled.startswith('{"epoch":13,') and end.startswith(f'{{"epoch":{s.horizon},')
    assert log.splitlines()[-2] == f'{{"epoch":{s.horizon}}}'      # End's header
    assert log.count('"tag":"Repeat"') == len(spans) - 1


def test_a_wallet_not_active_with_a_balance_ends_the_span():
    # After an epoch's sub-steps no live wallet that is not Active holds a
    # balance (step 3 forwards it) or a settlement due (step 5 settles it),
    # so only a unit paid to one by hand reaches this: the keeper would
    # forward it in the next epoch, which then repeats no epoch.
    world = World(sc.load_scenario(sc.golden_scenario_path("slashed")))
    world._epoch_substeps()
    while world.ledger.epoch < 11:      # slashed at 10, its exit due at 13
        world.step()
    assert world.ledger.contract_state("wallet:0").status is WalletStatus.EXIT_REQUESTED
    assert world._quiet_span() == 1
    world.ledger.genesis("wallet:0", 1)
    assert world._quiet_span() == 0


@pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
def test_a_run_that_forms_no_segment_logs_what_stepping_logs(name):
    # A sweep every other epoch steps every epoch: no Repeat line, and the
    # very bytes and digest of the stepped log.
    s = sc.load_scenario(sc.golden_scenario_path(name))
    s = replace(s, beacon=replace(s.beacon, sweep_period=2))
    assert validate(s) == []
    world = World(s)
    spans = segments_of(world)
    report = world.run()
    reference = SteppedWorld(s).run()
    assert spans == []
    assert report.events_jsonl == reference.events_jsonl
    assert report.to_dict() == reference.to_dict()


def test_acceptance_corpus_matches_the_stepped_reference():
    rng = random.Random(CORPUS_SEED)
    segmented = 0
    for _ in range(CORPUS_SIZE):
        s = random_scenario(rng)
        spans = assert_segments_match_the_reference(s)
        segmented += sum(last - first + 1 for first, last in spans)
    assert segmented > 1000


FACTORS = (0, 0.1, "0.25", 0.5, "0.9", 1)


@st.composite
def segment_schedules(draw) -> Scenario:
    """Small valid scenarios whose events fall at, just before and just after segment ends.

    Staking fills at epoch 1. The landmarks are the activation, the epoch
    the watchdog arms, each slash and the slashed validator's exit; window
    edges, claims, NFT transfers and the horizon are drawn from them, one
    epoch either side, or anywhere. Grace runs 1..6 and the delays up to
    12, so idle spans (validators pending or exiting) occur too.
    """
    m = draw(st.integers(1, 3))
    stake = 64_000
    reward = draw(st.integers(1, 2_000))
    grace = draw(st.integers(1, 6))
    activation_delay = draw(st.integers(1, 12))
    exit_delay = draw(st.integers(1, 12))
    activation = 1 + activation_delay
    near = [activation, activation + grace - 1]
    horizon = draw(st.integers(10, 80) | st.sampled_from(
        [e + d for e in near for d in (-1, 0, 1) if e + d >= 2]))
    slashes = tuple(SlashAction(epoch=draw(st.integers(0, horizon)),
                                validator=draw(st.integers(0, m - 1)),
                                fraction_bps=draw(st.sampled_from([1, 500, 10_000])))
                    for _ in range(draw(st.integers(0, 2))))
    near += [e for sl in slashes for e in (sl.epoch, sl.epoch + exit_delay)]
    landmarks = sorted({e + d for e in near for d in (-1, 0, 1) if 1 <= e + d <= horizon})
    epoch = st.integers(1, horizon)
    if landmarks:
        epoch = epoch | st.sampled_from(landmarks)
    bounds = [0, *sorted(set(draw(st.lists(epoch, max_size=4)))), None]
    windows = []
    for start, end in zip(bounds, bounds[1:]):
        span = draw(st.sampled_from(["gap", "every validator", "each validator"]))
        if span == "every validator":
            windows.append(BehaviorWindow(start, draw(st.sampled_from(FACTORS)), end))
        elif span == "each validator":
            windows.extend(BehaviorWindow(start, draw(st.sampled_from(FACTORS)), end, j)
                           for j in range(m))
    first = draw(st.integers(1, stake * m - 1))
    claims = tuple(ClaimAction(holder=draw(st.sampled_from(["h0", "h1"])), epoch=e + d)
                   for e in draw(st.lists(epoch, max_size=2))
                   for d in range(draw(st.integers(1, 3))) if e + d <= horizon)
    transfers = tuple(NftTransferAction(0, "h0", "h1", draw(epoch))
                      for _ in range(draw(st.integers(0, 1))))
    scenario = Scenario(
        treasury=TreasurySpec(fee_bps=draw(st.sampled_from([0, 1000, 10_000])),
                              expected_reward_per_epoch=draw(st.integers(0, reward)),
                              grace_epochs=grace,
                              escrow_required=draw(st.sampled_from([0, 500])),
                              validators=m),
        mint=MintSpec(min_contribution=1, open_epoch=0, close_epoch=2),
        beacon=BeaconParams(stake_requirement=stake, reward_per_epoch=reward,
                            activation_delay=activation_delay, exit_delay=exit_delay,
                            sweep_period=min(grace, draw(st.sampled_from([1, 1, 1, 2])))),
        deposits=(DepositAction("h0", first, 0), DepositAction("h1", stake * m - first, 1)),
        operator_schedule=tuple(windows),
        slashes=slashes,
        horizon=horizon,
        claims=claims,
        nft_transfers=transfers,
    )
    assert validate(scenario) == []
    return scenario


@settings(max_examples=150, deadline=None)
@given(segment_schedules())
def test_any_schedule_matches_the_stepped_reference(scenario):
    spans = assert_segments_match_the_reference(scenario)
    target(float(sum(last - first + 1 for first, last in spans)))


@pytest.mark.parametrize("batch", [1, 7, None])
def test_any_batch_size_gives_the_same_log_across_segments(batch, monkeypatch):
    s = sc.load_scenario(sc.golden_scenario_path("honest"))
    s = replace(s, horizon=600, claims=(ClaimAction("alice", 150),))
    reference = SteppedWorld(s).run()
    if batch is not None:
        monkeypatch.setattr(ledger, "EVENT_BATCH", batch)
    world = World(s)
    led = world.ledger
    spans = segments_of(world)
    chunks = []
    commit, flush, write = led.advance_segment, led.flush, led._write
    writes = []         # the lines of each write to the log's file
    kept = [0]          # how many writes there were after the last flush

    def marked_flush():
        replay = flush()
        kept[0] = len(writes)
        return replay

    def recorded_write(text):
        writes.append(text.count("\n"))
        write(text)

    def recorded_commit(*args):
        kept[0] = len(writes)
        done = commit(*args)
        # What a segment writes after its flush: its own lines.
        chunks.extend(writes[kept[0]:])
        return done

    led.advance_segment = recorded_commit
    led.flush = marked_flush
    led._write = recorded_write
    report = world.run()
    assert spans == [(7, 149), (153, 600)]
    assert expanded(report.events_jsonl) == expanded(reference.events_jsonl)
    assert but_the_digest(report) == but_the_digest(reference)
    # Each segment appends its one Repeat line, whatever the batch size.
    assert chunks == [1, 1]


def test_segments_end_before_each_beacon_transition():
    # Two validators pending for 12 epochs (their wallets idle), then one
    # slashed at epoch 25 and exiting for 15: each segment ends the epoch
    # before an activation or an exit matures. Epoch 26 logs the accrual
    # without the slashed validator, so epoch 27 repeats no epoch, and the
    # segment begins at 29, after epoch 28 repeats 27.
    s = small_scenario(
        treasury=TreasurySpec(fee_bps=1000, expected_reward_per_epoch=20, grace_epochs=3,
                              escrow_required=50, validators=2),
        beacon=BeaconParams(stake_requirement=6400, reward_per_epoch=100,
                            activation_delay=12, exit_delay=15, sweep_period=1),
        deposits=(DepositAction("alice", 8000, 0), DepositAction("bob", 4800, 1)),
        slashes=(SlashAction(epoch=25, validator=1, fraction_bps=500),),
        horizon=60)
    assert validate(s) == []
    spans = assert_segments_match_the_reference(s)
    assert [span for span in spans if span[1] in (12, 39)] == [(4, 12), (29, 39)]


def test_a_window_still_filling_is_stepped_until_the_watchdog_arms():
    # Grace 6, activation at epoch 2, nothing paid until epoch 4, then the
    # full 1000 a epoch: epoch 4 logs the new accrual, epochs 5 and 6
    # repeat each other, but the window still holds the unpaid epochs, and
    # when the watchdog arms at epoch 7 it sums 4000 against a threshold of
    # 4200.
    s = small_scenario(
        treasury=TreasurySpec(fee_bps=1000, expected_reward_per_epoch=700, grace_epochs=6,
                              escrow_required=50, validators=1),
        beacon=BeaconParams(stake_requirement=6400, reward_per_epoch=1000,
                            activation_delay=1, exit_delay=2, sweep_period=1),
        deposits=(DepositAction("alice", 4000, 0), DepositAction("bob", 2400, 1)),
        operator_schedule=(BehaviorWindow(0, 0, 4), BehaviorWindow(4, 1)),
        horizon=30)
    assert validate(s) == []
    assert_segments_match_the_reference(s)
    report = World(s).run()
    assert (report.validators[0].exit_cause, report.validators[0].exit_epoch) \
        == ("performance", 7)


def test_an_epoch_with_an_action_is_never_repeated():
    # Claims rejected at epochs 3 and 4 log the same lines, but epoch 4's
    # lines hold its claim: epoch 5, which has none, must not repeat them.
    s = small_scenario(
        treasury=TreasurySpec(fee_bps=0, expected_reward_per_epoch=0, grace_epochs=1,
                              escrow_required=0, validators=1),
        beacon=BeaconParams(stake_requirement=64_000, reward_per_epoch=1,
                            activation_delay=1, exit_delay=1, sweep_period=1),
        deposits=(DepositAction("h0", 1, 0), DepositAction("h1", 63_999, 1)),
        operator_schedule=(),
        claims=(ClaimAction("h0", 3), ClaimAction("h0", 4)),
        horizon=8)
    assert validate(s) == []
    assert assert_segments_match_the_reference(s) == [(7, 8)]


def identity_terms(world: World) -> tuple[int, ...]:
    """Both sides of each identity World.audit checks."""
    led = world.ledger
    tst = led.contract_state(TREASURY)
    return (led.total_balance(), led.minted_total - led.burned_total,
            led.balance_of(TREASURY), balance_identity(tst),
            led.balance_of(BEACON), sum(led.contract_state(BEACON).balances))


def test_every_identity_term_is_affine_within_a_segment():
    # The audit runs only at a segment's two ends. That is enough because
    # each term of each identity is affine in the epoch inside the segment:
    # the difference of two affine terms is zero at both ends only if it is
    # zero throughout. The stepped reference shows each term affine.
    rng = random.Random(CORPUS_SEED)
    scenarios = [sc.load_scenario(sc.golden_scenario_path(name))
                 for name in sc.GOLDEN_SCENARIOS]
    scenarios += [random_scenario(rng) for _ in range(10)]
    checked = 0
    for s in scenarios:
        world = World(s)
        spans = segments_of(world)
        world.run()
        reference = SteppedWorld(s)
        terms = {}
        audit = reference.audit

        def recording_audit():
            audit()
            terms[reference.ledger.epoch] = identity_terms(reference)

        reference.audit = recording_audit
        reference.run()
        for first, last in spans:
            span = [terms[e] for e in range(first - 1, last + 1)]
            for a, b, c in zip(span, span[1:], span[2:]):
                assert [x - 2 * y + z for x, y, z in zip(a, b, c)] == [0] * 6
                checked += 1
    assert checked > 300


def test_a_closed_form_receipt_one_unit_short_fails_the_audit_at_the_segment_end(monkeypatch):
    # The treasury's closed form reads each wallet's receipt from the World;
    # one unit short, it no longer agrees with the lines the segment
    # repeats, which alone move the treasury's balance. The audit at the
    # first segment's end must see it, not the report at the horizon. The
    # receipt handler takes its state from the same rule at k = 1, one
    # receipt, so only the segment's call, of many epochs, is cut short.
    s = sc.load_scenario(sc.golden_scenario_path("honest"))
    world = World(s)
    spans = segments_of(world)
    world.run()
    assert spans[0][1] - spans[0][0] > 0
    advance = TreasuryContract.advance

    def one_unit_short(self, state, receipts, k):
        if k > 1:
            short = next(iter(receipts))
            receipts[short] -= 1
        return advance(self, state, receipts, k)

    monkeypatch.setattr(TreasuryContract, "advance", one_unit_short)
    with pytest.raises(InvariantViolation, match=f"^epoch {spans[0][1]}: treasury balance"):
        World(s).run()
