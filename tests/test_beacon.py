"""Consensus-layer model: lifecycle timing, accrual floors, slashing, sweeps."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import logged_events, make_staked_world, snapshot
from stakeclaim.beacon import (
    BeaconContract,
    BeaconParams,
    ValidatorStatus,
    validator_by_id,
)
from stakeclaim.errors import (
    InsufficientBalance,
    InvalidAmount,
    InvalidFactor,
    NotActive,
    Unauthorized,
    UnknownValidator,
    WrongAmount,
    WrongStatus,
)
from stakeclaim.ledger import CallContext, Ledger, Msg

STAKE = 32_000_000_000


def bare_beacon(activation_delay=2, exit_delay=3, sweep_period=1, reward=100,
                stake=STAKE) -> Ledger:
    led = Ledger()
    led.register_account("sys")
    led.register_account("op")
    led.register_account("depositor")
    led.register_account("wa")       # plain account as withdrawal address
    led.genesis("depositor", stake * 4)
    led.register_contract("beacon", BeaconContract(BeaconParams(
        stake_requirement=stake, reward_per_epoch=reward,
        activation_delay=activation_delay, exit_delay=exit_delay,
        sweep_period=sweep_period), driver="sys"), issuer=True)
    return led


def deposit(led: Ledger, wa="wa", operator="op") -> int:
    return led.call("depositor", "beacon", "submit_deposit",
                    {"withdrawal_address": wa, "operator": operator}, value=STAKE)


def accrue(led: Ledger, performance=None):
    return led.call("sys", "beacon", "accrue_epoch",
                    {"performance": performance or {}})


class TestDeposit:
    def test_activation_timing(self):
        led = bare_beacon(activation_delay=2)
        for _ in range(5):
            led.advance_epoch()
        vid = deposit(led)  # deposited at epoch 5, delay 2
        v = validator_by_id(led.contract_state("beacon"), vid)
        assert v.status is ValidatorStatus.PENDING
        assert v.activation_epoch == 7
        led.advance_epoch()  # 6
        accrue(led)
        assert validator_by_id(led.contract_state("beacon"), vid).status \
            is ValidatorStatus.PENDING
        led.advance_epoch()  # 7
        accrue(led)
        assert validator_by_id(led.contract_state("beacon"), vid).status \
            is ValidatorStatus.ACTIVE

    def test_wrong_amount(self):
        led = bare_beacon()
        with pytest.raises(WrongAmount):
            led.call("depositor", "beacon", "submit_deposit",
                     {"withdrawal_address": "wa", "operator": "op"}, value=STAKE - 1)

    def test_two_deposits_distinct_ids_deterministic_order(self):
        # A validator's id is its position in the list, in deposit order.
        led = bare_beacon()
        a = deposit(led, operator="op")
        b = deposit(led, operator="op2")
        assert (a, b) == (0, 1)
        st = led.contract_state("beacon")
        assert [v.operator for v in st.validators] == ["op", "op2"]
        assert [validator_by_id(st, vid).operator for vid in (a, b)] == ["op", "op2"]

    def test_vault_holds_the_stake(self):
        led = bare_beacon()
        deposit(led)
        st = led.contract_state("beacon")
        assert led.balance_of("beacon") == sum(st.balances) == STAKE


class TestAccrual:
    def setup_method(self):
        self.led = bare_beacon(activation_delay=1, reward=100)
        self.vid = deposit(self.led)
        self.led.advance_epoch()
        accrue(self.led)  # activation edge; also first accrual epoch

    def balance(self):
        return self.led.contract_state("beacon").balances[self.vid]

    def test_full_factor(self):
        start = self.balance()
        accrue_total = accrue(self.led, {self.vid: 1})
        assert accrue_total == 100
        assert self.balance() == start + 100

    def test_zero_factor_offline_operator(self):
        start = self.balance()
        assert accrue(self.led, {self.vid: 0}) == 0
        assert self.balance() == start

    def test_half_factor_floor(self):
        start = self.balance()
        assert accrue(self.led, {self.vid: Fraction(1, 2)}) == 50
        assert self.balance() == start + 50

    def test_decimal_factor_exact(self):
        # A file's 0.29 reaches the beacon as 29/100 (scenario.parse_factor),
        # and 100 * 29/100 is floored exactly, with no float in between.
        start = self.balance()
        assert accrue(self.led, {self.vid: Fraction(29, 100)}) == 29
        assert self.balance() == start + 29

    def test_factor_out_of_range(self):
        with pytest.raises(InvalidFactor):
            accrue(self.led, {self.vid: Fraction(3, 2)})
        with pytest.raises(InvalidFactor):
            accrue(self.led, {self.vid: Fraction(-1, 10)})

    @pytest.mark.parametrize("first,bad", [
        pytest.param(first, bad, id=str(bad)) for first, bad in
        ((1, True), (1, None), (1, "abc"), (Fraction(1, 2), 0.5), (1, "1/2"))])
    def test_a_factor_that_is_not_a_number_is_an_invalid_factor(self, first, bad):
        # Validator 0's factor is floored and memoised first; neither a bool
        # nor a float may share the entry of the exact factor it equals, the
        # beacon parses no string, and no factor escapes as a bare ValueError.
        other = deposit(self.led)
        self.led.advance_epoch()
        accrue(self.led)                        # activates the second validator
        snap = snapshot(self.led)
        with pytest.raises(InvalidFactor) as error:
            accrue(self.led, {self.vid: first, other: bad})
        assert str(error.value) == f"performance factor {bad!r} is not an int or a Fraction"
        assert snapshot(self.led) == snap

    def test_one_factor_shared_by_many_validators(self):
        for _ in range(3):
            deposit(self.led)
        self.led.advance_epoch()
        accrue(self.led)
        half = {vid: Fraction(1, 2) for vid in range(4)}
        assert accrue(self.led, half) == 200
        assert accrue(self.led, {**half, 3: 1}) == 250
        with pytest.raises(InvalidFactor, match="outside"):
            accrue(self.led, {**half, 2: 2})

    def test_accrual_mints_supply(self):
        minted_before = self.led.minted_total
        accrue(self.led, {self.vid: 1})
        assert self.led.minted_total == minted_before + 100

    def test_driver_only(self):
        with pytest.raises(Unauthorized):
            self.led.call("op", "beacon", "accrue_epoch", {"performance": {}})


FACTORS = (0, 1, Fraction(1, 2), Fraction(1, 3))


def typed(result: tuple) -> tuple:
    """A handler's (state, effects, result), each effect beside its class:
    as tuples, ``Issue(5, "x") == Destroy(5, "x")``."""
    state, effects, value = result
    return state, [(type(e), e) for e in effects], value


def drive_against_a_fresh_beacon(seed: int, epochs: int = 120) -> Counter:
    """Drive a beacon through deposits, activations, factor changes (a new
    map, or the one map written in place), slashes, exits and sweeps. Before
    each epoch's accrual, its handler's result on the committed state is
    compared with a freshly built contract's, which derives everything anew.
    Returns how often each kind of step ran."""
    rng = random.Random(seed)
    led = bare_beacon(activation_delay=2, exit_delay=3, sweep_period=3)
    led.genesis("depositor", STAKE * 8)
    beacon = led._contracts["beacon"]
    performance: dict = {}
    steps: Counter = Counter()
    for _ in range(epochs):
        led.advance_epoch()
        state = led.contract_state("beacon")
        ids = range(len(state.validators))
        roll = rng.random()
        if roll < 0.15 and ids:
            performance = {vid: rng.choice(FACTORS) for vid in ids if rng.random() < 0.7}
            steps["new map"] += 1
        elif roll < 0.3 and ids:
            performance[rng.choice(ids)] = rng.choice(FACTORS)
            steps["map written in place"] += 1
        msg = Msg("sys", "beacon", "accrue_epoch", {"performance": performance})
        fresh = BeaconContract(beacon.params, "sys").handle(state, msg, CallContext(led))
        kept = beacon._accrual
        assert typed(beacon.handle(state, msg, CallContext(led))) == typed(fresh)
        steps["kept accrual"] += beacon._accrual is kept
        led.call("sys", "beacon", "accrue_epoch", {"performance": performance})
        active = [vid for vid, v in enumerate(led.contract_state("beacon").validators)
                  if v.status is ValidatorStatus.ACTIVE]
        if rng.random() < 0.2 and len(ids) < 8:
            deposit(led)
            steps["deposit"] += 1
        if active and rng.random() < 0.06:
            led.call("sys", "beacon", "slash",
                     {"validator_id": rng.choice(active), "fraction_bps": 500})
            steps["slash"] += 1
        elif active and rng.random() < 0.06:
            led.call("op", "beacon", "request_exit", {"validator_id": rng.choice(active)})
            steps["exit"] += 1
        steps["paid out"] += led.call("sys", "beacon", "sweep", {}) > 0
    return steps


class TestAccrualKept:
    @pytest.mark.parametrize("seed", range(4))
    def test_a_kept_accrual_equals_a_fresh_contracts(self, seed):
        steps = drive_against_a_fresh_beacon(seed)
        # Every kind of step ran, and a third of the accruals or more reused
        # the last one's work.
        assert min(steps.values()) > 0 and len(steps) == 7
        assert steps["kept accrual"] > 40

    def test_a_map_written_in_place_is_read_anew(self):
        led = bare_beacon(activation_delay=1)
        vid = deposit(led)
        led.advance_epoch()
        performance = {vid: 1}
        assert accrue(led, performance) == 100
        performance[vid] = Fraction(1, 2)
        assert accrue(led, performance) == 50
        performance[vid] = 0.5      # equal, but not an exact factor
        with pytest.raises(InvalidFactor):
            accrue(led, performance)


class TestAccrualLog:
    def test_an_accrual_is_logged_only_when_its_amounts_change(self):
        # Each accrual is its Call and its SupplyMint; its EpochAccrual line
        # follows only when the amounts differ from the last ones logged,
        # which the state keeps, a run of no Active validator in between.
        led = bare_beacon(activation_delay=1)
        vid = deposit(led)
        logged = []
        for factor in (1, 1, Fraction(1, 2), Fraction(1, 2), 1, 1):
            led.advance_epoch()
            accrue(led, {vid: factor})
            tags = [e.tag for e in logged_events(led) if e.epoch == led.epoch]
            logged.append(tags.count("EpochAccrual"))
            assert tags.count("SupplyMint") == 1
        assert logged == [1, 0, 1, 0, 1, 0]
        assert led.contract_state("beacon").accrual_logged == {"minted": 100,
                                                               "amounts": [[vid, 100]]}
        led.call("op", "beacon", "request_exit", {"validator_id": vid})
        for _ in range(4):      # Exiting, then Withdrawable: no validator Active
            led.advance_epoch()
            accrue(led)
            assert "EpochAccrual" not in [e.tag for e in logged_events(led)
                                          if e.epoch == led.epoch]
        assert led.contract_state("beacon").accrual_logged["amounts"] == [[vid, 100]]


class TestSlash:
    def setup_method(self):
        self.led = bare_beacon(activation_delay=1)
        self.vid = deposit(self.led)
        self.led.advance_epoch()
        accrue(self.led, {self.vid: 0})  # activate without rewarding

    def test_full_slash_boundary(self):
        burned = self.led.call("sys", "beacon", "slash",
                               {"validator_id": self.vid, "fraction_bps": 10_000})
        st = self.led.contract_state("beacon")
        assert burned == STAKE
        assert st.balances[self.vid] == 0
        assert validator_by_id(st, self.vid).status is ValidatorStatus.EXITING

    def test_500_bps_floor(self):
        burned = self.led.call("sys", "beacon", "slash",
                               {"validator_id": self.vid, "fraction_bps": 500})
        assert burned == (STAKE * 500) // 10_000 == 1_600_000_000

    def test_burn_plus_balance_is_exact(self):
        before = self.led.contract_state("beacon").balances[self.vid]
        burned = self.led.call("sys", "beacon", "slash",
                               {"validator_id": self.vid, "fraction_bps": 777})
        after = self.led.contract_state("beacon").balances[self.vid]
        assert burned + after == before
        assert self.led.burned_total == burned

    def test_slash_pending_rejected(self):
        led = bare_beacon(activation_delay=5)
        vid = deposit(led)
        with pytest.raises(NotActive):
            led.call("sys", "beacon", "slash",
                     {"validator_id": vid, "fraction_bps": 100})

    def test_bad_fraction(self):
        for bps in (0, -5, 10_001):
            with pytest.raises(InvalidAmount):
                self.led.call("sys", "beacon", "slash",
                              {"validator_id": self.vid, "fraction_bps": bps})

    def test_a_bool_fraction_is_no_fraction(self):
        # True is the int 1 to a comparison: it would burn 0, log
        # "fraction_bps":true and still force the validator out.
        w = make_staked_world()
        before = snapshot(w.ledger)
        for bps in (True, False, 500.0):
            with pytest.raises(InvalidAmount):
                w.slash(0, bps)
        assert snapshot(w.ledger) == before


class TestExitAndSweep:
    def setup_method(self):
        self.led = bare_beacon(activation_delay=1, exit_delay=3)
        self.vid = deposit(self.led)
        self.led.advance_epoch()
        accrue(self.led, {self.vid: 0})  # activate without rewarding

    def test_withdrawal_address_may_exit(self):
        self.led.call("wa", "beacon", "request_exit", {"validator_id": self.vid})
        v = validator_by_id(self.led.contract_state("beacon"), self.vid)
        assert v.status is ValidatorStatus.EXITING
        assert v.exit_epoch == self.led.epoch + 3

    def test_signing_capability_holder_may_exit(self):
        self.led.call("op", "beacon", "request_exit", {"validator_id": self.vid})
        assert validator_by_id(self.led.contract_state("beacon"), self.vid).status \
            is ValidatorStatus.EXITING

    def test_third_party_unauthorized(self):
        with pytest.raises(Unauthorized):
            self.led.call("depositor", "beacon", "request_exit",
                          {"validator_id": self.vid})

    def test_exit_twice_wrong_status(self):
        self.led.call("wa", "beacon", "request_exit", {"validator_id": self.vid})
        with pytest.raises(WrongStatus):
            self.led.call("wa", "beacon", "request_exit", {"validator_id": self.vid})

    def test_unknown_validator(self):
        with pytest.raises(UnknownValidator):
            self.led.call("wa", "beacon", "request_exit", {"validator_id": 99})

    @pytest.mark.parametrize("vid", [-1, 1, False])
    def test_ids_outside_the_list_are_unknown(self, vid):
        # Ids are list positions; -1 must not reach the last validator, nor
        # False the first.
        snap = snapshot(self.led)
        with pytest.raises(UnknownValidator):
            validator_by_id(self.led.contract_state("beacon"), vid)
        with pytest.raises(UnknownValidator):
            self.led.call("wa", "beacon", "request_exit", {"validator_id": vid})
        with pytest.raises(UnknownValidator):
            self.led.call("sys", "beacon", "slash",
                          {"validator_id": vid, "fraction_bps": 100})
        assert snapshot(self.led) == snap

    def test_sweep_moves_only_excess_for_active(self):
        accrue(self.led, {self.vid: 1})  # +100 over stake
        accrue_excess = 500 - 400          # keep style simple: recompute below
        self.led.call("sys", "beacon", "sweep", {})
        assert self.led.contract_state("beacon").balances[self.vid] == STAKE
        assert self.led.balance_of("wa") == 100
        assert accrue_excess == 100  # guard against dead constant

    def test_full_exit_lifecycle_within_bound(self):
        # exit at epoch E -> withdrawable at E+3 -> swept the same epoch (period 1)
        self.led.call("wa", "beacon", "request_exit", {"validator_id": self.vid})
        exit_epoch = validator_by_id(self.led.contract_state("beacon"), self.vid).exit_epoch
        while self.led.epoch < exit_epoch:
            self.led.advance_epoch()
            accrue(self.led)  # exiting validators accrue nothing
            self.led.call("sys", "beacon", "sweep", {})
        st = self.led.contract_state("beacon")
        assert validator_by_id(st, self.vid).status is ValidatorStatus.WITHDRAWN
        assert st.balances[self.vid] == 0
        assert self.led.balance_of("wa") == STAKE
        assert self.led.balance_of("beacon") == 0

    def test_sweep_period_gates_payout(self):
        led = bare_beacon(activation_delay=1, sweep_period=4)
        vid = deposit(led)
        led.advance_epoch()
        accrue(led, {vid: 1})   # epoch 1: +100
        led.call("sys", "beacon", "sweep", {})  # epoch 1 % 4 != 0: no-op
        assert led.balance_of("wa") == 0
        for _ in range(3):
            led.advance_epoch()
            accrue(led, {vid: 1})
        led.call("sys", "beacon", "sweep", {})  # epoch 4: pays out all excess
        assert led.balance_of("wa") == 400


class TestWithdrawalAddressImmutable:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(
        ["accrue", "sweep", "slash", "exit", "advance", "deposit"]),
        max_size=8))
    def test_no_operation_sequence_mutates_withdrawal_address(self, ops):
        led = bare_beacon(activation_delay=1, exit_delay=1)
        vid = deposit(led)
        led.advance_epoch()
        accrue(led, {vid: 0})
        original = validator_by_id(led.contract_state("beacon"), vid).withdrawal_address
        for op in ops:
            try:
                if op == "accrue":
                    accrue(led, {vid: 1})
                elif op == "sweep":
                    led.call("sys", "beacon", "sweep", {})
                elif op == "slash":
                    led.call("sys", "beacon", "slash",
                             {"validator_id": vid, "fraction_bps": 100})
                elif op == "exit":
                    led.call("op", "beacon", "request_exit", {"validator_id": vid})
                elif op == "advance":
                    led.advance_epoch()
                elif op == "deposit":
                    deposit(led)
            except (NotActive, WrongStatus, Unauthorized, InvalidAmount,
                    InsufficientBalance):
                pass
            assert validator_by_id(led.contract_state("beacon"), vid) \
                .withdrawal_address == original
