"""Scenario engine: validation, loading, end-to-end runs against oracles."""

from __future__ import annotations

import gc
import json
import time
import weakref
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stakeclaim as sc
from conftest import expanded, one_field_replaced, small_scenario
from oracle import rational_shares, replay_split, trigger_epoch
from stakeclaim.errors import InvalidScenario, InvariantViolation
from stakeclaim.ledger import Event, Ledger, ReplayResult, replay_balances
from stakeclaim.scenario import (
    BehaviorWindow,
    ClaimAction,
    DepositAction,
    NftTransferAction,
    SlashAction,
    TreasurySpec,
    World,
    scenario_from_dict,
    validate,
)


class TestValidate:
    def test_well_formed_is_clean(self):
        assert validate(small_scenario()) == []

    def test_overlapping_windows_named(self):
        s = small_scenario(operator_schedule=(
            BehaviorWindow(from_epoch=0, to_epoch=10, factor=1.0),
            BehaviorWindow(from_epoch=5, factor=0.5),
        ))
        violations = validate(s)
        assert len(violations) == 1
        assert "overlap" in violations[0]
        assert "[0, 10)" in violations[0] and "[5, 21)" in violations[0]

    @pytest.mark.parametrize("factor, problem", [
        (1.5, "operator_schedule[1]: factor 1.5 outside [0, 1]"),
        ("x", "operator_schedule[1]: factor 'x' is not a number"),
    ])
    def test_bad_factor_and_overlap_both_listed(self, factor, problem):
        s = small_scenario(operator_schedule=(
            BehaviorWindow(from_epoch=0, to_epoch=10, factor=1.0),
            BehaviorWindow(from_epoch=5, factor=factor),
        ))
        assert validate(s) == [
            problem,
            "operator_schedule windows overlap for validator 0: [0, 10) and [5, 21)",
        ]

    def test_overlaps_checked_for_named_and_unnamed_validators(self):
        # Validator 0's own window splits the shared pair for it; validator 1,
        # which no window names, still sees the shared windows overlap.
        s = small_scenario(
            treasury=TreasurySpec(fee_bps=1000, expected_reward_per_epoch=20,
                                  grace_epochs=3, escrow_required=50, validators=2),
            operator_schedule=(
                BehaviorWindow(from_epoch=0, to_epoch=10, factor=1.0),
                BehaviorWindow(from_epoch=5, factor=0.5),
                BehaviorWindow(from_epoch=3, to_epoch=4, factor=0, validator=0),
            ))
        assert validate(s) == [
            "operator_schedule windows overlap for validator 0: [0, 10) and [3, 4)",
            "operator_schedule windows overlap for validator 1: [0, 10) and [5, 21)",
        ]

    def test_validator_count_is_bounded(self):
        bound = sc.treasury.VALIDATORS_MAX
        s = small_scenario(treasury=TreasurySpec(
            fee_bps=1000, expected_reward_per_epoch=20, grace_epochs=3,
            escrow_required=50, validators=bound))
        assert validate(s) == []
        assert validate(replace(s, treasury=replace(s.treasury, validators=bound + 1))) == [
            f"treasury.validators {bound + 1} is not an integer in 1..{bound}"]

    def test_horizon_is_bounded(self):
        bound = sc.scenario.HORIZON_MAX
        assert bound >= 10_000          # the long benchmark workload's horizon
        s = small_scenario(horizon=bound)
        assert validate(s) == []
        assert validate(replace(s, horizon=bound + 1)) == [
            f"horizon {bound + 1} is not an integer in 0..{bound}"]

    def test_non_overlapping_per_validator_windows_ok(self):
        s = small_scenario(
            treasury=TreasurySpec(fee_bps=1000, expected_reward_per_epoch=20,
                                  grace_epochs=3, escrow_required=50, validators=2),
            operator_schedule=(
                BehaviorWindow(from_epoch=0, factor=1.0, validator=0),
                BehaviorWindow(from_epoch=0, factor=0.5, validator=1),
            ))
        assert validate(s) == []

    @pytest.mark.parametrize("period", [6, 7, 16])
    def test_sweep_period_beyond_the_watchdog_window_is_listed(self, period):
        # Rewards reach a wallet only on the sweep grid: with the period
        # longer than grace_epochs, an operator paid in full was exited.
        s = sc.load_scenario(sc.golden_scenario_path("honest"))
        bad = replace(s, beacon=replace(s.beacon, sweep_period=period),
                      mint=replace(s.mint, open_epoch=3))
        assert validate(bad) == [
            "mint window invalid: open 3, close 2",
            f"beacon.sweep_period {period} is more than treasury.grace_epochs 5"]

    @pytest.mark.parametrize("period", [1, 5])
    def test_sweep_period_within_the_watchdog_window_never_exits_the_honest(self, period):
        s = sc.load_scenario(sc.golden_scenario_path("honest"))
        s = replace(s, beacon=replace(s.beacon, sweep_period=period))
        assert validate(s) == []
        assert [v.exit_cause for v in sc.run(s).validators] == [None, None]

    def test_sweep_rule_skipped_when_a_field_is_out_of_bounds(self):
        s = sc.load_scenario(sc.golden_scenario_path("honest"))
        assert validate(replace(s, beacon=replace(s.beacon, sweep_period=0),
                                treasury=replace(s.treasury, grace_epochs=0))) == [
            "treasury.grace_epochs 0 is not an integer >= 1",
            "beacon.sweep_period 0 is not an integer >= 1"]
        assert validate(replace(s, beacon=replace(s.beacon, sweep_period=6),
                                treasury=replace(s.treasury, grace_epochs=0))) == [
            "treasury.grace_epochs 0 is not an integer >= 1"]

    def test_slash_index_out_of_range(self):
        s = small_scenario(slashes=(SlashAction(epoch=3, validator=5, fraction_bps=100),))
        assert validate(s) == ["slashes[0].validator 5 is not an integer in 0..0"]

    def test_factor_out_of_range(self):
        s = small_scenario(operator_schedule=(BehaviorWindow(from_epoch=0, factor=1.5),))
        assert any("factor 1.5" in v for v in validate(s))

    def test_factor_bounded_before_it_is_parsed(self):
        # Fraction("1e-999999999") would build 10**999999999 and stall.
        bad = ("1e-999999999", "1E+401", "0." + "1" * 70, [0.5], True, None, "1/0", "nan")
        s = small_scenario(operator_schedule=tuple(
            BehaviorWindow(from_epoch=i, to_epoch=i + 1, factor=f) for i, f in enumerate(bad)))
        t0 = time.perf_counter()
        violations = validate(s)
        assert time.perf_counter() - t0 < 1
        assert len(violations) == len(bad), violations
        assert "operator_schedule[0]: factor '1e-999999999' has a decimal exponent " \
               "outside -400..400" in violations
        assert "operator_schedule[2]: factor is a string of 72 characters, " \
               "longer than 64" in violations
        for i in (3, 4, 5, 6, 7):
            assert f"operator_schedule[{i}]: factor {bad[i]!r} is not a number" in violations

    def test_factor_within_bounds_is_exact(self):
        ok = ("1e-400", "4e-1", 0.29, 1.0, 1, Fraction(1, 3), " 25E-2 ", "-0")
        s = small_scenario(operator_schedule=tuple(
            BehaviorWindow(from_epoch=i, to_epoch=i + 1, factor=f) for i, f in enumerate(ok)))
        assert validate(s) == []
        w = World(s)
        assert [w.factor_for(0, i) for i in range(len(ok))] == [
            Fraction(1, 10 ** 400), Fraction(2, 5), Fraction(29, 100), 1, 1,
            Fraction(1, 3), Fraction(1, 4), 0]
        assert [type(w.factor_for(0, i)) for i in (3, 4, 7)] == [int] * 3
        assert w.factor_for(0, len(ok)) == 1     # no window: full performance

    def test_an_empty_window_is_listed_past_windows_out_of_bounds(self):
        # Only a window whose own ends are out of bounds skips the empty rule.
        s = small_scenario(operator_schedule=(
            BehaviorWindow(from_epoch=0, to_epoch="3", factor=1),
            BehaviorWindow(from_epoch=5, to_epoch=5, factor=1),
            BehaviorWindow(from_epoch=99, to_epoch=2, factor=1)))
        assert validate(s) == [
            "operator_schedule[2].from_epoch 99 is not an integer in 0..20",
            "operator_schedule[0].to_epoch '3' is not an integer >= 1",
            "operator_schedule[1]: empty window [5, 5)"]

    def test_deposit_beyond_horizon(self):
        s = small_scenario(deposits=(DepositAction("alice", 6400, 99),))
        assert any("epoch 99" in v for v in validate(s))

    def test_reserved_holder_name(self):
        s = small_scenario(deposits=(DepositAction("treasury", 6400, 0),))
        assert validate(s) == ["deposits[0].holder 'treasury' is empty, reserved or not a string"]

    @pytest.mark.parametrize("overrides,problem", [
        # each ran past validate and raised in World: a TypeError in sorting the
        # holder names, or "address ... already registered"
        (dict(claims=(ClaimAction(5, 1),)), "claims[0].holder 5"),
        (dict(nft_transfers=(NftTransferAction(0, 7, "bob", 1),)),
         "nft_transfers[0].from_holder 7"),
        (dict(claims=(ClaimAction("wallet:0", 1),)), "claims[0].holder 'wallet:0'"),
        (dict(nft_transfers=(NftTransferAction(0, "mint", "bob", 1),)),
         "nft_transfers[0].from_holder 'mint'"),
        (dict(nft_transfers=(NftTransferAction(0, "alice", "wallet:0", 1),)),
         "nft_transfers[0].to 'wallet:0'"),
        # made validate itself raise TypeError: unhashable type: 'list'
        (dict(nft_transfers=(NftTransferAction(0, "alice", ["x"], 1),)),
         "nft_transfers[0].to ['x']"),
        # ran, but a deposit with an empty holder name was already rejected
        (dict(claims=(ClaimAction("", 1),)), "claims[0].holder ''"),
    ], ids=["claim-int", "transfer-from-int", "claim-wallet", "transfer-from-mint",
            "transfer-to-wallet", "transfer-to-list", "claim-empty"])
    def test_every_holder_field_is_a_holder_name(self, overrides, problem):
        assert validate(small_scenario(**overrides)) == [
            f"{problem} is empty, reserved or not a string"]

    def test_non_integer_fields_listed_and_not_range_checked(self):
        s = small_scenario(
            treasury=TreasurySpec(fee_bps=1000.5, expected_reward_per_epoch=20,
                                  grace_epochs=3, escrow_required=50, validators=1),
            deposits=(DepositAction("alice", "4000", 0), DepositAction("bob", 2400, True)),
            slashes=(SlashAction(epoch=3, validator=0.0, fraction_bps=100),),
            claims=(ClaimAction("alice", 2.0),),
            nft_transfers=(NftTransferAction("0", "alice", "bob", 1),))
        assert sorted(validate(s)) == sorted([
            "treasury.fee_bps 1000.5 is not an integer in 0..10000",
            "deposits[0].amount '4000' is not an integer >= 1",
            "deposits[1].epoch True is not an integer in 0..20",
            "slashes[0].validator 0.0 is not an integer in 0..0",
            "claims[0].epoch 2.0 is not an integer in 0..20",
            "nft_transfers[0].token_id '0' is not an integer >= 0"])

    def test_non_integer_validator_count_does_not_crash_the_checks(self):
        s = small_scenario(
            treasury=TreasurySpec(fee_bps=1000, expected_reward_per_epoch=20,
                                  grace_epochs=3, escrow_required=50, validators="2"),
            operator_schedule=(BehaviorWindow(from_epoch=0, factor=1.0, validator=0),
                               BehaviorWindow(from_epoch=0, factor=0.5, validator=1)),
            slashes=(SlashAction(epoch=3, validator=1, fraction_bps=100),))
        assert validate(s) == ["treasury.validators '2' is not an integer in 1..1024"]

    def test_run_rejects_invalid_scenario_with_first_violation(self):
        s = small_scenario(slashes=(SlashAction(epoch=3, validator=5, fraction_bps=100),))
        with pytest.raises(InvalidScenario,
                           match=r"^slashes\[0\]\.validator 5 is not an integer in 0\.\.0$"):
            sc.run(s)


class TestLoader:
    def test_unknown_top_level_key_rejected(self):
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["extra"] = 1
        with pytest.raises(InvalidScenario, match="unknown keys"):
            scenario_from_dict(doc)

    def test_unknown_nested_key_rejected(self):
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["treasury"]["bonus"] = 1
        with pytest.raises(InvalidScenario, match="unknown keys in treasury"):
            scenario_from_dict(doc)

    def test_missing_key_rejected(self):
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        del doc["slashes"]
        with pytest.raises(InvalidScenario, match="missing keys"):
            scenario_from_dict(doc)

    def test_every_problem_in_a_document_reported(self):
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["treasury"]["bonus"] = 1
        doc["mint"]["open_epoch"] = False
        doc["deposits"].append("alice")
        doc["seed"] = None
        with pytest.raises(InvalidScenario) as info:
            scenario_from_dict(doc)
        message = str(info.value)
        for needle in ("unknown keys in treasury: ['bonus']",
                       "mint.open_epoch False is not an integer >= 0",
                       "deposits[2] must be an object",
                       "seed must be an integer, got None"):
            assert needle in message

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_one_field_replaced_ends_cleanly(self, data):
        # Whatever lands in one place of a valid document, loading and
        # validating either reject it as InvalidScenario / violations or
        # yield a scenario that runs with conservation intact.
        doc = data.draw(one_field_replaced())
        try:
            s = scenario_from_dict(doc)
        except InvalidScenario:
            return
        if validate(s):
            return
        report = World(replace(s, horizon=min(s.horizon, 20))).run()
        assert report.conservation_ok and report.replay_ok

    def test_goldens_parse_and_validate(self):
        for name in sc.GOLDEN_SCENARIOS:
            s = sc.load_scenario(sc.golden_scenario_path(name))
            assert validate(s) == []


class TestEmptyScenario:
    def test_all_zero_aggregates_and_conservation(self):
        s = small_scenario(deposits=(), horizon=10,
                           treasury=TreasurySpec(fee_bps=1000,
                                                 expected_reward_per_epoch=20,
                                                 grace_epochs=3, escrow_required=0,
                                                 validators=1))
        report = sc.run(s)
        assert report.phase == "Fundraising"
        assert report.holders == []
        assert report.operator_fees_accrued == 0
        assert report.validators[0].rewards_received == 0
        assert report.conservation_ok and report.replay_ok
        assert report.minted == 0 and report.final_total == 0


class TestHonestRun:
    def test_credits_match_rational_oracle_and_exact_replay(self):
        report = sc.run(sc.load_scenario(sc.golden_scenario_path("honest")))
        assert report.phase == "Staked"
        # activation at epoch 2, rewards every epoch through 100, two validators
        receipts = []
        for _ in range(2, 101):
            receipts.extend([1000, 1000])
        fees, credits, dust, _ = replay_split(receipts, [40_000_000_000, 24_000_000_000],
                                              1000)
        by_name = {h.holder: h for h in report.holders}
        assert by_name["alice"].claimable == credits[0]
        assert by_name["bob"].claimable == credits[1]
        assert report.operator_fees_accrued == fees
        # exact conservation of receipts
        assert fees + sum(credits) + dust == sum(receipts)
        # rational-share bound per holder
        shares = rational_shares(sum(receipts), [40_000_000_000, 24_000_000_000], 1000)
        assert abs(by_name["alice"].claimable - shares[0]) < len(receipts)
        assert abs(by_name["bob"].claimable - shares[1]) < len(receipts)

    def test_credit_ratio_tracks_capital_ratio(self):
        report = sc.run(sc.load_scenario(sc.golden_scenario_path("honest")))
        by_name = {h.holder: h.claimable for h in report.holders}
        k = 2 * 99
        assert abs(by_name["alice"] / by_name["bob"] - 40 / 24) <= k / by_name["bob"]


class TestProtectionBound:
    """The watchdog protects the expectation, not the reward.

    On the honest golden (reward 1000, expected 200 per epoch, grace 5), a
    flat factor of 0.2 pays exactly the expectation and is never exited,
    so holders lose up to (reward - expected) * (1 - fee_bps / 10000) per
    validator per epoch with no exit; 0.1999 falls short and both
    validators exit once the window first fills, at epoch 6.
    """

    def run_at(self, factor: str):
        s = sc.load_scenario(sc.golden_scenario_path("honest"))
        s = replace(s, operator_schedule=(BehaviorWindow(from_epoch=0, factor=factor),))
        assert validate(s) == []
        return sc.run(s)

    def test_a_factor_meeting_the_expectation_is_never_exited(self):
        report = self.run_at("0.2")
        assert [(v.exit_cause, v.exit_epoch) for v in report.validators] == [(None, None)] * 2
        # Each validator received 200 per epoch from activation (epoch 2)
        # on, 800 per epoch short of the reward, of which holders bear 90%.
        assert [v.rewards_received for v in report.validators] == [200 * 99] * 2
        lost_per_epoch = (1000 - 200) * (10_000 - 1000) // 10_000
        assert lost_per_epoch == 720

    def test_a_factor_just_below_the_expectation_exits_when_the_window_fills(self):
        report = self.run_at("0.1999")
        assert [(v.exit_cause, v.exit_epoch) for v in report.validators] \
            == [("performance", 6)] * 2


class TestNonPayingRun:
    def test_exit_and_final_payouts_match_oracle(self):
        s = sc.load_scenario(sc.golden_scenario_path("nonpaying"))
        report = sc.run(s)
        events = [json.loads(line) for line in expanded(report.events_jsonl).splitlines()]

        activation = next(e["epoch"] for e in events if e["tag"] == "Activated")
        assert activation == 2

        # watchdog trigger epoch from the independent windowed-sum oracle
        received = {activation + i: 1000 for i in range(0, 11)}  # paid through 12
        expect_trigger = trigger_epoch(received, activation, expected=200,
                                       grace=5, last_epoch=30)
        triggered = [e for e in events if e["tag"] == "ExitTriggered"]
        assert len(triggered) == 1
        assert triggered[0]["epoch"] == expect_trigger == activation + 10 + 5

        # final holder payouts: rewards split + principal + escrow penalty,
        # replayed with the fee applied to reward receipts only
        capitals = [20_000_000_000, 12_000_000_000]
        receipts = [1000] * 11
        fees, _, _, _ = replay_split(receipts, capitals, 1000)
        penalty_pot = 32_000_000_000 + 2_000_000     # full principal + full escrow
        acc = [0, 0]
        credits = [0, 0]
        for amount in receipts + [penalty_pot]:
            fee = (amount * 1000) // 10_000 if amount != penalty_pot else 0
            net = amount - fee
            for i, c in enumerate(capitals):
                acc[i] += net * c
                credits[i] += acc[i] // sum(capitals)
                acc[i] %= sum(capitals)
        by_name = {h.holder: h for h in report.holders}
        assert by_name["alice"].claimable == credits[0]
        assert by_name["bob"].claimable == credits[1]
        assert by_name["alice"].realized_loss == 0
        assert by_name["bob"].realized_loss == 0
        assert report.operator_fees_accrued == fees
        assert report.validators[0].penalty == 2_000_000

    def test_only_wallets_holding_a_balance_are_poked(self):
        # The validator earns 1000 at epochs 2..12 and nothing from 13 on.
        report = sc.run(sc.load_scenario(sc.golden_scenario_path("nonpaying")))
        events = [Event(**json.loads(line)) for line in expanded(report.events_jsonl).splitlines()]
        balances = ReplayResult({}, 0, 0)
        poked = []
        for e in events:
            if e.tag == "Call" and e.payload["method"] == "forward_rewards":
                poked.append((e.epoch, balances.balances.get(e.payload["target"], 0)))
            replay_balances([e], into=balances)
        assert poked == [(epoch, 1000) for epoch in range(2, 13)]
        # Skipped forwards left slots missing where zeros were; the exit is unchanged.
        assert [(e.epoch, e.payload) for e in events if e.tag == "ExitTriggered"] == [
            (17, {"validator_id": 0, "window_sum": 0, "threshold": 1000})]

    def test_no_operator_messages_after_trigger(self):
        report = sc.run(sc.load_scenario(sc.golden_scenario_path("nonpaying")))
        events = [json.loads(line) for line in expanded(report.events_jsonl).splitlines()]
        trigger_seq = next(e["seq"] for e in events if e["tag"] == "ExitTriggered")
        for e in events:
            if e["seq"] < trigger_seq:
                continue
            assert e["emitter"] != "operator"
            if e["tag"] == "Call":
                assert e["payload"]["caller"] != "operator"


class TestDeterminism:
    @pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
    def test_two_runs_byte_identical(self, name):
        s = sc.load_scenario(sc.golden_scenario_path(name))
        a = sc.run(s)
        b = sc.run(s)
        assert a.events_jsonl == b.events_jsonl
        assert a.to_json() == b.to_json()
        assert a.events_digest == b.events_digest


class TestConservationChecks:
    def test_counter_drift_fails_replay_but_not_conservation(self):
        # Both counters off by the same amount still satisfy total == minted
        # - burned; only the log's own totals can tell them apart.
        world = World(sc.load_scenario(sc.golden_scenario_path("slashed")))
        assert world.run().replay_ok
        world.ledger.minted_total += 7
        world.ledger.burned_total += 7
        report = world.report()
        assert report.conservation_ok
        assert not report.replay_ok

    def test_audit_catches_a_balance_moved_without_the_counters(self):
        world = World(sc.load_scenario(sc.golden_scenario_path("honest")))
        world.run()
        world.ledger._balances["alice"] += 1
        with pytest.raises(InvariantViolation, match="total .* != minted"):
            world.step()                    # the epoch's sub-steps end in the audit


class TestLifecycleVariants:
    def test_underfilled_mint_aborts_and_refunds(self):
        s = small_scenario(deposits=(DepositAction("alice", 4000, 0),), horizon=6)
        report = sc.run(s)
        assert report.phase == "Fundraising"
        by_name = {h.holder: h for h in report.holders}
        assert by_name["alice"].capital == 4000    # token kept, inert
        assert by_name["alice"].claimable == 0
        assert report.final_total == 4000 + 50     # endowments back with owners
        # funds are back in alice's account, not the treasury
        world = World(s)
        world.run()
        assert world.ledger.balance_of("alice") == 4000
        assert world.ledger.balance_of("treasury") == 50  # escrow still posted

    def test_late_deposit_rejected_after_close(self):
        s = small_scenario(deposits=(DepositAction("alice", 4000, 0),
                                     DepositAction("bob", 2400, 5)),
                           horizon=8)
        report = sc.run(s)
        events = [json.loads(line) for line in report.events_jsonl.splitlines()]
        rejected = [e for e in events if e["tag"] == "ActionRejected"]
        assert any(e["payload"]["reason"] == "MintClosed" for e in rejected)

    def test_oversubscription_rejected_whole(self):
        s = small_scenario(deposits=(DepositAction("alice", 4000, 0),
                                     DepositAction("bob", 2400, 0),
                                     DepositAction("carol", 100, 1)))
        report = sc.run(s)
        events = [json.loads(line) for line in report.events_jsonl.splitlines()]
        rejected = [e for e in events if e["tag"] == "ActionRejected"]
        assert any(e["payload"]["caller"] == "carol"
                   and e["payload"]["reason"] in ("ExceedsCapacity", "MintClosed")
                   for e in rejected)
        assert report.phase == "Staked"

    def test_scheduled_claims_and_transfers(self):
        s = small_scenario(
            claims=(ClaimAction("alice", 10), ClaimAction("bob", 12)),
            nft_transfers=(NftTransferAction(token_id=0, from_holder="alice",
                                             to="bob", epoch=11),),
        )
        report = sc.run(s)
        by_name = {h.holder: h for h in report.holders}
        assert by_name["alice"].claimed > 0
        assert by_name["bob"].claimed > 0
        assert by_name["bob"].capital == 6400      # owns both tokens at the end
        assert by_name["alice"].capital == 0
        assert report.conservation_ok and report.replay_ok

    def test_credit_trail_rebuilds_from_the_log_alone(self):
        # Mint capitals, NFT transfers and Distributed.net_total are enough
        # to attribute every unit of credit, across resales and a settlement.
        s = small_scenario(
            treasury=TreasurySpec(fee_bps=777, expected_reward_per_epoch=90,
                                  grace_epochs=3, escrow_required=50, validators=2),
            deposits=(DepositAction("alice", 8001, 0), DepositAction("bob", 4799, 0)),
            operator_schedule=(
                BehaviorWindow(from_epoch=0, factor=1.0, validator=0),
                BehaviorWindow(from_epoch=0, to_epoch=8, factor=0.7, validator=1),
                BehaviorWindow(from_epoch=8, factor=0.0, validator=1),
            ),
            nft_transfers=(NftTransferAction(0, "alice", "carol", 5),
                           NftTransferAction(1, "bob", "alice", 9),
                           NftTransferAction(0, "carol", "bob", 14)),
            claims=(ClaimAction("alice", 10), ClaimAction("carol", 12),
                    ClaimAction("bob", 20)),
            horizon=25,
        )
        report = sc.run(s)
        capital: dict[int, int] = {}
        owner: dict[int, str] = {}
        credit: dict[str, int] = {}
        n = 0
        for line in expanded(report.events_jsonl).splitlines():
            e = json.loads(line)
            p = e["payload"]
            if e["tag"] == "Mint":
                capital[p["token_id"]], owner[p["token_id"]] = p["capital"], p["owner"]
            elif e["tag"] == "TransferNft":
                owner[p["token_id"]] = p["to"]
            elif e["tag"] == "Distributed":
                total = sum(capital.values())
                for t, c in capital.items():
                    credit[owner[t]] = (credit.get(owner[t], 0)
                                        + p["net_total"] * c // total - n * c // total)
                n = p["net_total"]
        assert report.validators[1].settled
        assert {h.holder for h in report.holders} == {"alice", "bob", "carol"}
        for h in report.holders:
            assert h.claimed + h.claimable == credit[h.holder]
            assert h.claimed > 0

    def test_same_epoch_actions_keep_their_order(self):
        # The second transfer needs the first. Carol holds token 0 only
        # within epoch 6, so her claim finds nothing.
        s = small_scenario(
            nft_transfers=(NftTransferAction(0, "alice", "carol", 6),
                           NftTransferAction(0, "carol", "bob", 6)),
            claims=(ClaimAction("carol", 6), ClaimAction("bob", 6)))
        report = sc.run(s)
        by_name = {h.holder: h for h in report.holders}
        assert by_name["bob"].capital == 6400
        assert by_name["bob"].claimed > 0 and by_name["carol"].claimed == 0
        rejected = [json.loads(line)["payload"] for line in report.events_jsonl.splitlines()
                    if '"ActionRejected"' in line]
        assert rejected == [{"action": "claim", "caller": "carol",
                             "reason": "NothingToClaim"}]

    def test_slash_before_activation_is_skipped(self):
        s = small_scenario(slashes=(SlashAction(epoch=0, validator=0,
                                                fraction_bps=10_000),))
        report = sc.run(s)
        assert report.validators[0].beacon_status == "Active"
        assert report.burned == 0

    def test_two_validators_one_degraded(self):
        s = small_scenario(
            treasury=TreasurySpec(fee_bps=1000, expected_reward_per_epoch=90,
                                  grace_epochs=3, escrow_required=50, validators=2),
            deposits=(DepositAction("alice", 8000, 0),
                      DepositAction("bob", 4800, 0)),
            operator_schedule=(
                BehaviorWindow(from_epoch=0, factor=1.0, validator=0),
                BehaviorWindow(from_epoch=0, to_epoch=8, factor=1.0, validator=1),
                BehaviorWindow(from_epoch=8, factor=0.0, validator=1),
            ),
            horizon=25,
        )
        report = sc.run(s)
        v0, v1 = report.validators
        assert v0.exit_cause is None                 # kept performing
        assert v1.exit_cause == "performance"        # starved past the window
        assert v1.settled
        assert report.phase == "Exiting"             # validator 0 still staked
        assert report.conservation_ok and report.replay_ok

    def test_epochs_override_truncates(self):
        s = small_scenario()
        full = sc.run(s)
        assert full.final_epoch == 20
        truncated = World(replace(s, horizon=5)).run()
        assert truncated.final_epoch == 5
        assert truncated.event_count < full.event_count


class TestWorldLifetime:
    def test_a_dropped_world_is_freed_without_the_collector(self):
        # The ledger holds no reference to its world, so a world and its
        # ledger form no reference cycle.
        gc.disable()
        try:
            world = World(sc.load_scenario(sc.golden_scenario_path("honest")))
            world.run()
            dropped = weakref.ref(world)
            del world
            assert dropped() is None
        finally:
            gc.enable()

    def test_sub_steps_run_inside_advance_epoch(self, monkeypatch):
        # The benchmark's per-epoch span wraps Ledger.advance_epoch, so each
        # step's sub-steps must run while it is on the stack.
        inside = []
        advance = Ledger.advance_epoch

        def watched(led, *args):
            inside.append(led.epoch)
            try:
                return advance(led, *args)
            finally:
                inside.pop()

        ran = []
        monkeypatch.setattr(Ledger, "advance_epoch", watched)
        monkeypatch.setattr(World, "_epoch_substeps",
                            lambda w: ran.append((w.ledger.epoch, list(inside))))
        world = World(small_scenario())
        world.step()
        world.step()
        assert ran == [(1, [0]), (2, [1])]


class TestOneDeclaration:
    TERMS = ("fee_bps", "expected_reward_per_epoch", "grace_epochs", "escrow_required",
             "stake_requirement", "min_contribution", "open_epoch", "close_epoch")

    def test_contracts_hold_the_scenarios_own_records(self):
        s = small_scenario(treasury=replace(small_scenario().treasury, validators=3),
                           deposits=(DepositAction("alice", 3 * 6400, 0),))
        world = World(s)
        contracts = world.ledger._contracts
        wallets = [contracts[w] for w in world.wallets]
        assert len(wallets) == 3
        for contract in (*wallets, contracts[sc.scenario.TREASURY]):
            assert contract.spec is s.treasury
            assert contract.params is s.beacon
        assert contracts[sc.scenario.MINT].spec is s.mint
        assert contracts[sc.scenario.BEACON].params is s.beacon
        assert contracts[sc.scenario.MINT].target == 3 * 6400
        assert contracts[sc.scenario.TREASURY].validators == world.wallets

    def test_a_world_checks_its_records_as_often_for_1_validator_as_for_32(self, monkeypatch):
        # One wallet code serves every wallet address, so the records every
        # contract reads are checked a fixed number of times, not per wallet.
        real = sc.errors.checked
        counts = []
        for m in (1, 32):
            calls = []

            def counting(record, calls=calls):
                calls.append(record)
                return real(record)

            for module in (sc.beacon, sc.mint, sc.scenario, sc.treasury, sc.wallet):
                if getattr(module, "checked", None) is real:
                    monkeypatch.setattr(module, "checked", counting)
            World(small_scenario(treasury=replace(small_scenario().treasury, validators=m)))
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_each_term_is_a_field_of_one_record_class(self):
        classes = {cls for module in (sc.beacon, sc.mint, sc.scenario, sc.treasury, sc.wallet)
                   for cls in vars(module).values()
                   if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == module.__name__}
        for term in self.TERMS:
            owners = [cls.__name__ for cls in classes if term in {f.name for f in fields(cls)}]
            assert len(owners) == 1, (term, owners)
