"""The keeper: the driver does only the work that can change something.

Step (1) sends the performance map it last built, rebuilding it only at a
window edge or when the beacon has a new validator id; step (2) sweeps only
on the ``sweep_period`` grid (``BeaconContract.sweep_due``); step (4) checks
an Active wallet's watchdog only when ``ValidatorWallet.watchdog_shortfall``
is not None, the predicates the handlers decide with; and steps (3)-(5)
walk only the wallets not yet Withdrawn. :class:`EveryEpochKeeper` is the
keeper as it was before all that: it steps every epoch, builds a fresh map
every epoch, walks every wallet, pokes every Active wallet's watchdog and
sweeps every epoch. The new keeper is the shipped ``World``, segments of
quiet epochs included.
Both keepers must give the same economic report and the same log (the
new one's written out, ``explain.expand``), once the old keeper's pokes that
the predicates turn down are dropped and ``seq`` is ignored.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import stakeclaim as sc
from conftest import SteppedWorld, expanded, small_scenario
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
from stakeclaim.wallet import WalletStatus
from test_acceptance import CORPUS_SEED, CORPUS_SIZE, random_scenario


class EveryEpochKeeper(SteppedWorld):
    """A World whose keeper does every epoch's work for every validator.

    It steps every epoch (:class:`SteppedWorld`), builds a fresh
    performance map every epoch, walks every wallet in steps (3)-(5), pokes
    every Active wallet's watchdog and sweeps every epoch. ``declined`` holds the seq of each poke's ``Call`` line that the
    real predicates would not have sent.
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

        shortfall = self._shortfall

        def always_check(state, now):
            if shortfall(state, now) is None:
                declined.add(led.event_count)
            return ()                            # not None: poke

        self._sweep_due = always_sweep
        self._shortfall = always_check

    def _performance(self, e: int, count: int) -> dict:
        return self._performance_at(e)

    @property
    def _live(self):
        return self.wallets             # every wallet, Withdrawn or not

    @_live.setter
    def _live(self, walk):
        pass


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
    for line in expanded(old.events_jsonl).splitlines():
        seq, rest = split_seq(line)
        if seq in old_world.declined:
            event = json.loads(line)
            assert event["tag"] == "Call"
            assert event["payload"][1] in ("watchdog_check", "sweep")
        else:
            kept.append(rest)
    assert lines_without_seq(expanded(new.events_jsonl)) == kept


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
    """Small valid scenarios with drops, partial factors, slashes and sweep_period > 1.

    The horizon is cut into spans at edges drawn from every epoch and from
    the epochs where something happens: activation (staking fills at epoch
    1), a slash, and a slashed validator's exit. Each span is a gap (factor
    1), one validator-null window, or one window per validator.
    """
    m = draw(st.integers(1, 3))
    stake = 64_000
    reward = draw(st.integers(1, 2_000))
    horizon = draw(st.integers(5, 60))
    activation_delay = draw(st.integers(1, 3))
    exit_delay = draw(st.integers(1, 3))
    slashes = tuple(SlashAction(epoch=draw(st.integers(0, horizon)),
                                validator=draw(st.integers(0, m - 1)),
                                fraction_bps=draw(st.sampled_from([1, 500, 10_000])))
                    for _ in range(draw(st.integers(0, 2))))
    landmarks = [e for e in (1 + activation_delay, *(s.epoch for s in slashes),
                             *(s.epoch + exit_delay for s in slashes)) if 1 <= e <= horizon]
    edge = st.integers(1, horizon)
    if landmarks:
        edge = edge | st.sampled_from(landmarks)
    bounds = [0, *sorted(set(draw(st.lists(edge, min_size=1, max_size=4)))), None]
    windows = []
    for start, end in zip(bounds, bounds[1:]):
        span = draw(st.sampled_from(["gap", "every validator", "each validator"]))
        if span == "every validator":
            windows.append(BehaviorWindow(start, draw(st.sampled_from(FACTORS)), end))
        elif span == "each validator":
            windows.extend(BehaviorWindow(start, draw(st.sampled_from(FACTORS)), end, j)
                           for j in range(m))
    first = draw(st.integers(1, stake * m - 1))
    grace = draw(st.integers(1, 5))
    claims = tuple(ClaimAction(holder=draw(st.sampled_from(["h0", "h1"])),
                               epoch=draw(st.integers(0, horizon)))
                   for _ in range(draw(st.integers(0, 3))))
    scenario = Scenario(
        treasury=TreasurySpec(fee_bps=draw(st.sampled_from([0, 1000, 10_000])),
                              expected_reward_per_epoch=draw(st.integers(0, reward)),
                              grace_epochs=grace,
                              escrow_required=draw(st.sampled_from([0, 500])),
                              validators=m),
        mint=MintSpec(min_contribution=1, open_epoch=0, close_epoch=2),
        beacon=BeaconParams(stake_requirement=stake, reward_per_epoch=reward,
                            activation_delay=activation_delay, exit_delay=exit_delay,
                            sweep_period=draw(st.integers(1, min(4, grace)))),
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
    events = [json.loads(line) for line in expanded(report.events_jsonl).splitlines()]
    return [e["epoch"] for e in events
            if e["tag"] == "Call" and e["payload"][1] == method]


def test_the_sweep_is_called_on_its_grid_only():
    s = small_scenario()
    s = replace(s, beacon=replace(s.beacon, sweep_period=4),
                treasury=replace(s.treasury, grace_epochs=4))
    assert validate(s) == []
    report = World(s).run()
    # Staking happens in epoch 0's last step, so the first sweep is at epoch 4.
    assert pokes(report, "sweep") == list(range(4, 21, 4))


def test_the_watchdog_is_poked_only_to_exit():
    report = sc.run(sc.load_scenario(sc.golden_scenario_path("nonpaying")))
    assert pokes(report, "watchdog_check") == [17]
    # Accrual and the sweep run every epoch until the validator is
    # Withdrawn, and never after: then they could move nothing.
    withdrawn = pokes(report, "on_exit_swept")
    assert withdrawn == [20] and report.final_epoch > 20
    for method in ("accrue_epoch", "sweep"):
        assert pokes(report, method) == list(range(1, withdrawn[0] + 1))


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
        world.step()
    w = wallet_name(0)
    assert world._shortfall(led.contract_state(w), led.epoch) is None
    led._states[w] = replace(led.contract_state(w), activation_epoch=None)
    with pytest.raises(WrongStatus, match="activation epoch"):
        world.step()


def test_the_performance_map_is_rebuilt_only_at_window_edges_and_new_ids():
    # Staking fills at epoch 0, so epoch 1 accrues first (a new id); the
    # windows' edges are 4, 9 and 12, and edge 0 falls before any validator.
    windows = (BehaviorWindow(0, 1.0, 4), BehaviorWindow(4, "0.5", 9),
               BehaviorWindow(12, 0))
    world = World(small_scenario(operator_schedule=windows))
    built = []
    build = world._performance_at

    def recording_build(e):
        built.append(e)
        return build(e)

    world._performance_at = recording_build
    report = world.run()
    assert built == [1, 4, 9, 12]
    assert report.validators[0].exit_cause == "performance"


def test_a_withdrawn_wallet_leaves_the_walk():
    world = World(sc.load_scenario(sc.golden_scenario_path("nonpaying")))
    walks = []
    substeps = world._epoch_substeps

    def recording_substeps():
        walks.append((world.ledger.epoch, list(world._live)))
        substeps()

    world._epoch_substeps = recording_substeps
    report = world.run()
    assert report.validators[0].settled
    assert world.ledger.contract_state(wallet_name(0)).status is WalletStatus.WITHDRAWN
    # Walks are recorded at stepped epochs only; the one after a settlement steps.
    i = next(i for i, (_, walk) in enumerate(walks) if not walk)
    events = [json.loads(line) for line in expanded(report.events_jsonl).splitlines()]
    assert walks[i][0] - 1 == next(e["epoch"] for e in events
                                   if e["tag"] == "WithdrawalFinalized")
    assert all(walk == [wallet_name(0)] for _, walk in walks[:i])
