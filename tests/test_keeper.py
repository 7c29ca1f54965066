"""The keeper: the driver pokes the watchdog and the sweep only when they can act.

Step (2) of every epoch sweeps only on the ``sweep_period`` grid
(``BeaconContract.sweep_due``) and step (4) checks an Active wallet's
watchdog only when ``ValidatorWallet.watchdog_shortfall`` is not None; the
handlers decide with the same predicates. :class:`EveryEpochKeeper` is the
keeper as it was before: it pokes every Active wallet's watchdog and sweeps
every epoch. Both keepers must give the same economic report and the same
log, once the old keeper's pokes that the predicates turn down are dropped
and ``seq`` is ignored.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import stakeclaim as sc
from conftest import small_scenario
from stakeclaim.beacon import BeaconParams
from stakeclaim.errors import WrongStatus
from stakeclaim.scenario import (
    BehaviorWindow,
    ClaimAction,
    DepositAction,
    MintSpec,
    Scenario,
    SlashAction,
    TreasurySpec,
    World,
    validate,
    wallet_name,
)
from test_acceptance import CORPUS_SEED, CORPUS_SIZE, random_scenario


class EveryEpochKeeper(World):
    """A World whose keeper pokes every Active wallet's watchdog and sweeps every epoch.

    ``declined`` holds the seq of each poke's ``Call`` line that the real
    predicates would not have sent.
    """

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        led = self.ledger
        self.declined = declined = set()
        sweep_due = self._sweep_due

        def always_sweep(epoch):
            if not sweep_due(epoch):
                declined.add(led.event_count)    # the seq of the Call line to come
            return True

        def always_check(shortfall):
            def check(state, now):
                if shortfall(state, now) is None:
                    declined.add(led.event_count)
                return ()                        # not None: poke

            return check

        self._sweep_due = always_sweep
        self._watchdogs = tuple((w, always_check(f)) for w, f in self._watchdogs)


def economics(report) -> dict:
    out = report.to_dict()
    del out["event_count"], out["events_digest"]
    return out


def split_seq(line: str) -> tuple[int, str]:
    """A log line's seq, and the line without it: '{"epoch":E,"seq":S,rest' -> (S, E,rest)."""
    epoch, seq, rest = line.split(",", 2)
    return int(seq[len('"seq":'):]), f"{epoch},{rest}"


def lines_without_seq(jsonl: str) -> list[str]:
    return [split_seq(line)[1] for line in jsonl.splitlines()]


def assert_keepers_agree(scenario: Scenario) -> None:
    new = World(scenario).run()
    old_world = EveryEpochKeeper(scenario)
    old = old_world.run()
    assert economics(new) == economics(old)
    kept = []
    for line in old.events_jsonl.splitlines():
        seq, rest = split_seq(line)
        if seq in old_world.declined:
            event = json.loads(line)
            assert event["tag"] == "Call"
            assert event["payload"]["method"] in ("watchdog_check", "sweep")
        else:
            kept.append(rest)
    assert lines_without_seq(new.events_jsonl) == kept


def test_goldens_agree_with_the_every_epoch_keeper():
    for name in sc.GOLDEN_SCENARIOS:
        assert_keepers_agree(sc.load_scenario(sc.golden_scenario_path(name)))


def test_acceptance_corpus_agrees_with_the_every_epoch_keeper():
    rng = random.Random(CORPUS_SEED)
    for _ in range(CORPUS_SIZE):
        assert_keepers_agree(random_scenario(rng))


FACTORS = (0, 0.1, "0.25", 0.5, "0.9", 1)


@st.composite
def schedules(draw) -> Scenario:
    """Small valid scenarios with drops, partial factors, slashes and sweep_period > 1."""
    m = draw(st.integers(1, 3))
    stake = 64_000
    reward = draw(st.integers(1, 2_000))
    horizon = draw(st.integers(5, 60))
    windows = []
    for j in range(m):
        cut = draw(st.integers(1, horizon))
        windows.append(BehaviorWindow(from_epoch=0, to_epoch=cut,
                                      factor=draw(st.sampled_from(FACTORS)), validator=j))
        windows.append(BehaviorWindow(from_epoch=cut, factor=draw(st.sampled_from(FACTORS)),
                                      validator=j))
    slashes = tuple(SlashAction(epoch=draw(st.integers(0, horizon)),
                                validator=draw(st.integers(0, m - 1)),
                                fraction_bps=draw(st.sampled_from([1, 500, 10_000])))
                    for _ in range(draw(st.integers(0, 2))))
    first = draw(st.integers(1, stake * m - 1))
    claims = tuple(ClaimAction(holder=draw(st.sampled_from(["h0", "h1"])),
                               epoch=draw(st.integers(0, horizon)))
                   for _ in range(draw(st.integers(0, 3))))
    scenario = Scenario(
        treasury=TreasurySpec(fee_bps=draw(st.sampled_from([0, 1000, 10_000])),
                              expected_reward_per_epoch=draw(st.integers(0, reward)),
                              grace_epochs=draw(st.integers(1, 5)),
                              escrow_required=draw(st.sampled_from([0, 500])),
                              validators=m),
        mint=MintSpec(min_contribution=1, open_epoch=0, close_epoch=2),
        beacon=BeaconParams(stake_requirement=stake, reward_per_epoch=reward,
                            activation_delay=draw(st.integers(1, 3)),
                            exit_delay=draw(st.integers(1, 3)),
                            sweep_period=draw(st.integers(1, 4))),
        deposits=(DepositAction("h0", first, 0), DepositAction("h1", stake * m - first, 1)),
        operator_schedule=tuple(windows),
        slashes=slashes,
        horizon=horizon,
        claims=claims,
    )
    assert validate(scenario) == []
    return scenario


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_any_schedule_agrees_with_the_every_epoch_keeper(scenario):
    assert_keepers_agree(scenario)


def pokes(report, method: str) -> list[int]:
    events = [json.loads(line) for line in report.events_jsonl.splitlines()]
    return [e["epoch"] for e in events
            if e["tag"] == "Call" and e["payload"]["method"] == method]


def test_the_sweep_is_called_on_its_grid_only():
    report = World(small_scenario(
        beacon=replace(small_scenario().beacon, sweep_period=4))).run()
    # Staking happens in epoch 0's last step, so the first sweep is at epoch 4.
    assert pokes(report, "sweep") == list(range(4, 21, 4))


def test_the_watchdog_is_poked_only_to_exit():
    report = sc.run(sc.load_scenario(sc.golden_scenario_path("nonpaying")))
    assert pokes(report, "watchdog_check") == [17]
    assert pokes(report, "sweep") == list(range(1, report.final_epoch + 1))


def at_threshold(expected: int) -> Scenario:
    """One validator paid 100 each epoch against an expectation of `expected` per epoch."""
    s = small_scenario()
    return replace(s, treasury=replace(s.treasury, expected_reward_per_epoch=expected))


def test_rewards_exactly_at_the_threshold_never_exit():
    # The driver-level twin of test_wallet's test_exactly_at_threshold_is_ok:
    # the window sums to the threshold every epoch, so no poke is sent.
    report = World(at_threshold(100)).run()
    assert report.validators[0].exit_cause is None
    assert pokes(report, "watchdog_check") == []


def test_one_unit_short_of_the_threshold_exits():
    # Activation at epoch 1 with grace 3: the window first fills at epoch 3.
    report = World(at_threshold(101)).run()
    assert report.validators[0].exit_cause == "performance"
    assert report.validators[0].exit_epoch == 3
    assert pokes(report, "watchdog_check") == [3]


def test_an_active_wallet_without_activation_epoch_still_reaches_the_handler():
    # The predicate never raises and never hides a state the handler rejects:
    # a healthy window with no activation epoch is still poked, and reverts.
    world = World(small_scenario())
    led = world.ledger
    world._epoch_substeps()
    for _ in range(5):
        led.advance_epoch()
    w = wallet_name(0)
    assert [f(led.contract_state(w), led.epoch) for _, f in world._watchdogs] == [None]
    led._states[w] = replace(led.contract_state(w), activation_epoch=None)
    with pytest.raises(WrongStatus, match="activation epoch"):
        led.advance_epoch()
