"""Validator wallet: deposit flow, forwarding, watchdog, autonomous exit."""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import BEACON, OPERATOR, TREASURY, logged_events, make_world, snapshot
from oracle import trigger_epoch
from stakeclaim.beacon import validator_by_id
from stakeclaim.errors import BeaconNotSwept, WrongAmount, WrongCaller, WrongStatus
from stakeclaim.scenario import parse_factor
from stakeclaim.treasury import Phase
from stakeclaim.wallet import WalletStatus


def paid_calls(events):
    """(caller, target, method, value) of each Call line that carries a value.

    A call's value rides on its Call line; no Transfer line repeats it.
    """
    return [(e.emitter, e.payload["target"], e.payload["method"], e.payload["value"])
            for e in events if e.tag == "Call" and "value" in e.payload]


class TestDeposit:
    def test_treasury_deposit_creates_validator(self, world):
        world.mint("alice", 64)
        world.stake_all()
        ws = world.wallet_state()
        assert ws.status is WalletStatus.DEPOSITED
        assert ws.validator_id == 0
        v = validator_by_id(world.beacon_state, 0)
        assert v.withdrawal_address == world.wallets[0]
        assert v.operator == OPERATOR
        assert world.beacon_state.balances[0] == 64

    def test_non_treasury_caller_rejected(self, world):
        world.ledger.genesis("alice", 64, "extra")
        with pytest.raises(WrongCaller):
            world.ledger.call("alice", world.wallets[0], "deposit", {}, value=64)

    def test_second_deposit_rejected(self, world):
        world.mint("alice", 64)
        world.stake_all()
        world.ledger.genesis(TREASURY, 64, "extra")
        with pytest.raises(WrongStatus):
            world.ledger.call(TREASURY, world.wallets[0], "deposit", {}, value=64)

    def test_wrong_stake_amount(self, world):
        world.ledger.genesis(TREASURY, 63, "extra")
        with pytest.raises(WrongAmount):
            world.ledger.call(TREASURY, world.wallets[0], "deposit", {}, value=63)


class TestOneCodeManyAddresses:
    def test_each_address_deposits_and_forwards_its_own(self):
        # make_world registers one ValidatorWallet object at both addresses,
        # so a handler that read a stored address would name one withdrawal
        # address twice and forward one wallet's balance for both.
        w = make_world(m=2)
        led = w.ledger
        assert led._contracts[w.wallets[0]] is led._contracts[w.wallets[1]]
        w.mint("alice", 128)
        w.stake_all()
        accepted = [e.payload["withdrawal_address"] for e in logged_events(led)
                    if e.tag == "DepositAccepted"]
        assert accepted == w.wallets
        led.advance_epoch()
        w.accrue({0: 0, 1: 0})              # activate both, no rewards
        led.genesis(w.wallets[0], 5, "test rewards")
        led.genesis(w.wallets[1], 7, "test rewards")
        assert w.forward(1) == 7
        assert [led.balance_of(a) for a in w.wallets] == [5, 0]
        assert w.forward(0) == 5
        assert [led.balance_of(a) for a in w.wallets] == [0, 0]
        assert w.treasury_state.rewards_received == {0: 5, 1: 7}


class TestForwardRewards:
    def test_forwards_full_balance_and_records_window(self, staked_world):
        w = staked_world
        w.ledger.genesis(w.wallets[0], 1000, "rewards")
        events_before = len(logged_events(w.ledger))
        assert w.forward() == 1000
        assert paid_calls(logged_events(w.ledger)[events_before:]) == [
            (w.wallets[0], TREASURY, "receive_rewards", 1000)]
        assert w.ledger.balance_of(w.wallets[0]) == 0
        assert w.wallet_state().reward_window[w.ledger.epoch] == 1000
        assert w.treasury_state.rewards_received == {0: 1000}

    def test_zero_balance_records_zero_no_transfer(self, staked_world):
        w = staked_world
        events_before = len(logged_events(w.ledger))
        assert w.forward() == 0
        assert w.wallet_state().reward_window[w.ledger.epoch] == 0
        new = logged_events(w.ledger)[events_before:]
        assert "Transfer" not in [e.tag for e in new]
        assert paid_calls(new) == []
        assert [e for e in new if e.tag == "Call"
                and e.payload["method"] == "receive_rewards"] == []

    def test_second_forward_same_epoch_only_new_funds(self, staked_world):
        w = staked_world
        w.ledger.genesis(w.wallets[0], 300, "rewards")
        assert w.forward() == 300
        w.ledger.genesis(w.wallets[0], 44, "late rewards")
        assert w.forward() == 44
        assert w.wallet_state().reward_window[w.ledger.epoch] == 344
        assert w.treasury_state.rewards_received == {0: 344}

    def test_idle_wallet_cannot_forward(self, world):
        with pytest.raises(WrongStatus):
            world.forward()


def run_epoch(w, factor=1.0, skip_empty=False):
    """One epoch of the fixed sub-step order, driven by hand.

    With `skip_empty`, an empty wallet is not asked to forward, as the
    scenario driver does. The factor is read as a scenario file's is
    (:func:`parse_factor`), so the beacon is sent an int or a Fraction.
    """
    w.ledger.advance_epoch()
    vid = w.wallet_state().validator_id
    w.accrue({vid: parse_factor(factor)})
    w.sweep()
    ws = w.wallet_state()
    if ws.status in (WalletStatus.ACTIVE, WalletStatus.EXIT_REQUESTED) \
            and not ws.settlement_ready \
            and not (skip_empty and w.ledger.balance_of(w.wallets[0]) == 0):
        w.forward()
    if w.wallet_state().status is WalletStatus.ACTIVE:
        decision = w.watchdog()
    else:
        decision = None
    ws = w.wallet_state()
    if ws.status is WalletStatus.EXIT_REQUESTED and ws.settlement_ready:
        w.finalize()
    return decision


class TestWatchdog:
    # staked_world: reward 100/epoch, expected 2, grace 3 -> threshold 6.

    def test_exactly_at_threshold_is_ok(self):
        w = make_world(expected=100, grace=3)
        w.mint("alice", 64)
        w.stake_all()
        for _ in range(5):
            assert run_epoch(w, 1.0) == "Ok"  # window [100,100,100] vs 300
        assert w.wallet_state().status is WalletStatus.ACTIVE

    def test_total_nonpayment_triggers(self):
        w = make_world(expected=100, grace=3)
        w.mint("alice", 64)
        w.stake_all()
        decisions = [run_epoch(w, 0.0) for _ in range(3)]
        assert decisions == ["Ok", "Ok", "TriggerExit"]  # window [0,0,0] once full
        assert w.wallet_state().status is WalletStatus.EXIT_REQUESTED
        assert w.treasury_state.exit_causes[0] == "performance"

    def test_partial_shortfall_triggers(self):
        # window [100, 40, 100] against threshold 300 -> 240 < 300
        w = make_world(expected=100, grace=3)
        w.mint("alice", 64)
        w.stake_all()
        assert run_epoch(w, 1.0) == "Ok"     # window not yet full
        assert run_epoch(w, 0.4) == "Ok"
        decision = run_epoch(w, 1.0)
        ws = w.wallet_state()
        window = [ws.reward_window.get(e, 0)
                  for e in range(w.ledger.epoch - 2, w.ledger.epoch + 1)]
        assert window == [100, 40, 100]
        assert decision == "TriggerExit"

    def test_a_steady_short_window_is_quiet_for_no_epoch(self):
        # The keeper pokes the watchdog at the first short epoch, so a span
        # never asks about a window the watchdog would act on; asked for
        # one, quiet_until names the next epoch, not the epoch it armed.
        w = make_world(expected=100, grace=3)
        w.mint("alice", 64)
        w.stake_all()
        for _ in range(4):          # no reward: every slot of the window reads 0
            w.ledger.advance_epoch()
            w.accrue({0: 0})
        code, state, now = w.ledger._contracts[w.wallets[0]], w.wallet_state(), w.ledger.epoch
        assert state.activation_epoch + 3 - 1 < now and not state.reward_window
        assert code.watchdog_shortfall(state, now) == (0, 300)
        assert code.quiet_until(state, now) == now + 1

    def test_window_must_fill_before_check_arms(self):
        w = make_world(expected=100, grace=5)
        w.mint("alice", 64)
        w.stake_all()
        # zero rewards throughout, but only the 5th active epoch may trigger
        decisions = [run_epoch(w, 0.0) for _ in range(5)]
        assert decisions[:4] == ["Ok"] * 4
        assert decisions[4] == "TriggerExit"

    def test_trigger_epoch_matches_oracle(self):
        w = make_world(expected=60, grace=4, reward=100)
        w.mint("alice", 64)
        w.stake_all()
        activation = w.ledger.epoch + 1   # first run_epoch activates
        factors = {0: 1.0, 1: 1.0, 2: 0.5, 3: 0.1, 4: 0.1, 5: 0.1, 6: 0.1}
        received = {}
        fired_at = None
        for step in range(12):
            f = factors.get(step, 0.0)
            decision = run_epoch(w, f)
            received[activation + step] = int(100 * f)
            if decision == "TriggerExit":
                fired_at = w.ledger.epoch
                break
        expect = trigger_epoch(received, activation, expected=60, grace=4,
                               last_epoch=activation + 12)
        assert fired_at == expect

    @pytest.mark.parametrize("factors", [
        [0.0] * 4,                       # window [0, 0, 0]: 0 against 300
        [1.0, 0.0, 1.0, 0.0, 0.0],       # [100, 0, 100]: 200
        [1.0, 0.4, 0.0],                 # [100, 40, 0]: 140
    ])
    def test_missing_window_slots_read_as_zero(self, factors):
        """Skipping an empty wallet's forward leaves its window slot missing
        where a zero forward would write 0; the watchdog's verdict and its
        ExitTriggered payload must not tell the two apart."""
        def drive(skip_empty):
            w = make_world(expected=100, grace=3)
            w.mint("alice", 64)
            w.stake_all()
            decisions = [run_epoch(w, f, skip_empty) for f in factors]
            triggers = [e.payload for e in logged_events(w.ledger)
                        if e.tag == "ExitTriggered"]
            return decisions, triggers, w.wallet_state().reward_window

        zeros, missing = drive(False), drive(True)
        assert 0 in zeros[2].values() and 0 not in missing[2].values()
        assert zeros[:2] == missing[:2]
        assert zeros[0].count("TriggerExit") == 1 and len(zeros[1]) == 1
        assert zeros[1][0]["threshold"] == 300

    def test_watchdog_twice_same_epoch_rejected(self, staked_world):
        w = staked_world
        w.forward()
        w.watchdog()
        with pytest.raises(WrongStatus):
            w.watchdog()

    def test_watchdog_requires_active(self, world):
        with pytest.raises(WrongStatus):
            world.watchdog()

    def test_active_without_activation_epoch_rejected(self, staked_world):
        # A contract error, not an assert: it must hold under python -O too.
        w = staked_world
        w.ledger._states[w.wallets[0]] = replace(w.wallet_state(0), activation_epoch=None)
        snap = snapshot(w.ledger)
        with pytest.raises(WrongStatus, match="activation epoch"):
            w.watchdog()
        assert snapshot(w.ledger) == snap


class TestExitPath:
    def wind_down(self, w, factor=0.0):
        """Run epochs until the wallet withdraws or we give up."""
        for _ in range(20):
            run_epoch(w, factor)
            if w.wallet_state().status is WalletStatus.WITHDRAWN:
                return
        raise AssertionError("wallet never withdrew")

    def test_finalize_before_sweep_rejected(self):
        w = make_world(expected=100, grace=2, exit_delay=4)
        w.mint("alice", 64)
        w.stake_all()
        run_epoch(w, 0.0)
        run_epoch(w, 0.0)              # triggers here
        assert w.wallet_state().status is WalletStatus.EXIT_REQUESTED
        with pytest.raises(BeaconNotSwept):
            w.finalize()

    def test_clean_exit_no_shortfall(self):
        w = make_world(expected=100, grace=2)
        w.mint("alice", 64)
        w.stake_all()
        self.wind_down(w)
        ws = w.wallet_state()
        assert ws.status is WalletStatus.WITHDRAWN
        ts = w.treasury_state
        assert ts.settlements[0].returned == 64
        assert ts.settlements[0].shortfall == 0
        assert ts.phase is Phase.SETTLED
        assert w.ledger.balance_of(w.wallets[0]) == 0

    def test_slashed_exit_shortfall_from_slash_schedule(self):
        w = make_world(expected=1, grace=10)   # watchdog will not fire
        w.mint("alice", 64)
        w.stake_all()
        w.ledger.advance_epoch()
        w.accrue({0: 0})                       # activate without rewards
        w.slash(0, 2500)                       # burn floor(64 * 0.25) = 16
        assert w.wallet_state().status is WalletStatus.EXIT_REQUESTED
        assert w.treasury_state.exit_causes[0] == "slashed"
        self.wind_down(w)
        rec = w.treasury_state.settlements[0]
        assert rec.returned == 48
        assert rec.shortfall == 16     # max(0, 64 - 48), straight from the burn
        assert w.treasury_state.exit_causes[0] == "slashed"

    def test_exactly_one_trigger_per_lifetime(self):
        w = make_world(expected=100, grace=2)
        w.mint("alice", 64)
        w.stake_all()
        run_epoch(w, 0.0)
        assert run_epoch(w, 0.0) == "TriggerExit"
        triggers = [e for e in logged_events(w.ledger) if e.tag == "ExitTriggered"]
        assert len(triggers) == 1
        with pytest.raises(WrongStatus):
            w.watchdog()               # status is no longer Active

    def test_status_never_regresses(self):
        w = make_world(expected=100, grace=2)
        order = [WalletStatus.IDLE, WalletStatus.DEPOSITED, WalletStatus.ACTIVE,
                 WalletStatus.EXIT_REQUESTED, WalletStatus.WITHDRAWN]
        rank = {s: i for i, s in enumerate(order)}
        seen = [w.wallet_state().status]
        w.mint("alice", 64)
        w.stake_all()
        seen.append(w.wallet_state().status)
        for _ in range(10):
            run_epoch(w, 0.0)
            seen.append(w.wallet_state().status)
        ranks = [rank[s] for s in seen]
        assert ranks == sorted(ranks)
        assert seen[-1] is WalletStatus.WITHDRAWN


class TestZeroTrust:
    def test_exit_path_has_no_operator_messages(self):
        """From trigger to settlement, nothing originates from the operator."""
        w = make_world(expected=100, grace=2, escrow_required=10)
        w.post_escrow(10)
        w.mint("alice", 64)
        w.stake_all()
        trigger_seq = None
        for _ in range(20):
            run_epoch(w, 0.0)
            if trigger_seq is None:
                hits = [e.seq for e in logged_events(w.ledger) if e.tag == "ExitTriggered"]
                if hits:
                    trigger_seq = hits[0]
            if w.wallet_state().status is WalletStatus.WITHDRAWN:
                break
        assert w.wallet_state().status is WalletStatus.WITHDRAWN
        exit_path = [e for e in logged_events(w.ledger) if e.seq >= trigger_seq]
        assert any(e.tag == "ExitSettled" for e in exit_path)
        for e in exit_path:
            assert e.emitter != OPERATOR     # a Call line's emitter is its caller

    def test_wallet_funds_flow_only_to_treasury_and_beacon(self):
        w = make_world(expected=100, grace=2)
        w.mint("alice", 64)
        w.stake_all()
        for _ in range(10):
            run_epoch(w, 0.7)
            if w.wallet_state().status is WalletStatus.WITHDRAWN:
                break
        events = logged_events(w.ledger)
        outflows = {e.payload["to"] for e in events
                    if e.tag == "Transfer" and e.emitter == w.wallets[0]}
        outflows |= {target for emitter, target, _, _ in paid_calls(events)
                     if emitter == w.wallets[0]}
        assert outflows == {TREASURY, BEACON}   # the deposit and the forwards
