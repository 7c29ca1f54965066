"""Mutants of the bound checker, the keeper, segments and the engine, each caught by a named test.

A mutant is a small wrong version of the code, made by monkeypatching one
attribute: for ``errors.bound_problems``, the per-class plan it reads
(``errors._plan``) or the ``type`` it calls; for the loader, the bound
walk on its error path, which ``validate`` shares
(``scenario._bound_problems``); for the keeper,
``ValidatorWallet.watchdog_shortfall`` or ``BeaconContract.sweep_due``,
which the driver and the handlers share, or the ``World``'s performance map
and wallet walk; for segments, the ``World``'s quiet span, its search for
the next action, the beacon's ``next_transition``,
``ValidatorWallet.quiet_until``, or the ledger's ``fold_scaled``, its
line-advancing helper (``strided``) and the ``Repeat`` line it writes
(through ``encode_lines``); for the engine, a treasury helper, a contract's method
table (``_ops``, with one handler wrapped) or ``World.report``; for the
report, the reader both the run and the fold call (``RunReport.read``); for
the fold of the log, its table of per-tag handlers (``explain._Fold._on``);
for exact inputs, the ``type`` the ledger calls or the beacon's reward
(``BeaconContract._reward``). Each names one existing test that passes on
the real code and must fail under the mutant, with an ``AssertionError``
or a failed ``pytest.raises``: a check that no mutant fails proves nothing
(DeMillo, Lipton & Sayward, *Hints on Test Data Selection*, 1978).
"""

from __future__ import annotations

import builtins
import tempfile
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import test_bounds
import test_beacon
import test_cli
import test_explain
import test_keeper
import test_ledger
import test_mint
import test_scenario
import test_segments
import test_treasury
import test_wallet
from conftest import make_staked_world
from math import inf

from stakeclaim import errors, ledger, scenario, treasury
from stakeclaim.beacon import BeaconContract
from stakeclaim.explain import _Fold
from stakeclaim.ledger import evolve
from stakeclaim.scenario import RunReport, World
from stakeclaim.treasury import TreasuryContract
from stakeclaim.wallet import ValidatorWallet, WalletStatus

real_plan = errors._plan


def plan_with(change):
    """A plan that passes each (field, lo, hi, optional) row through `change`."""
    return lambda cls: tuple(change(*row) for row in real_plan(cls))


def bool_is_int(v):
    return int if builtins.type(v) is bool else builtins.type(v)


def float_is_int(v):
    return int if builtins.type(v) is float else builtins.type(v)


def reward_of_a_decimal_read(self, factor, rewards):
    """BeaconContract._reward reading any factor through str(), as a decimal literal."""
    exact = Fraction(str(factor))
    return self.params.reward_per_epoch * exact.numerator // exact.denominator


def in_a_temporary_directory(test):
    """A call of test(tmp_path), handed a fresh directory as pytest would."""
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            test(Path(tmp))

    return run


def set_up(cls):
    """An instance of the test class `cls`, set up as pytest sets one up."""
    case = cls()
    case.setup_method()
    return case


def watchdog_shortfall(short=lambda total, threshold: total < threshold, slots=0):
    """A watchdog predicate comparing with `short` over a window `slots` slots longer."""
    def shortfall(self, state, now):
        cfg = self.spec
        start = state.activation_epoch
        if start is not None and now - start + 1 < cfg.grace_epochs:
            return None
        total = sum(state.reward_window.get(e, 0)
                    for e in range(now - cfg.grace_epochs - slots + 1, now + 1))
        threshold = cfg.expected_reward_per_epoch * cfg.grace_epochs
        return (total, threshold) if short(total, threshold) or start is None else None

    return shortfall


def ops_with(cls, method: str, wrap) -> dict:
    """`cls`'s method table with `method`'s handler replaced by wrap(handler)."""
    return {**cls._ops, method: wrap(cls._ops[method])}


def fee_rounded_up(handler):
    """receive_rewards taking ceil(amount * fee_bps / 10000) as the operator's fee."""
    def mutant(self, state, msg, ctx):
        st, effects, result = handler(self, state, msg, ctx)
        if msg.value * self.spec.fee_bps % 10_000:
            st = evolve(st, operator_fees_accrued=st.operator_fees_accrued + 1,
                        net_total=st.net_total - 1)
        return st, effects, result

    return mutant


def fee_on_settlement(handler):
    """settle_exit taking the operator's fee out of the settlement pot."""
    def mutant(self, state, msg, ctx):
        st, effects, result = handler(self, state, msg, ctx)
        fee = (st.net_total - state.net_total) * self.spec.fee_bps // 10_000
        return evolve(st, operator_fees_accrued=st.operator_fees_accrued + fee,
                      net_total=st.net_total - fee), effects, result

    return mutant


def map_consumed(handler):
    """accrue_epoch emptying the performance map it was sent, which the driver sends again."""
    def mutant(self, state, msg, ctx):
        result = handler(self, state, msg, ctx)
        msg.args["performance"].clear()
        return result

    return mutant


def map_never_rebuilt(performance=World._performance):
    """The World's performance map, built once and sent every epoch after."""
    def mutant(self, e, count):
        if not hasattr(self, "first_map"):
            self.first_map = performance(self, e, count)
        return self.first_map

    return mutant


def exit_requested_dropped(substeps=World._epoch_substeps):
    """The sub-steps, then every ExitRequested wallet taken out of the walk."""
    def mutant(self):
        substeps(self)
        state = self.ledger.contract_state
        self._live = tuple(w for w in self._live
                           if state(w).status is not WalletStatus.EXIT_REQUESTED)

    return mutant


def report_without_log_totals(report=World.report):
    """report() with replay_ok read from the replayed balances alone."""
    def mutant(self):
        out = report(self)
        led = self.ledger
        replay = led.flush()
        out.replay_ok = all(replay.balances.get(n, 0) == led.balance_of(n)
                            for n in replay.balances)
        return out

    return mutant


def loss_counted_before_settled(read=RunReport.read):
    """RunReport.read counting each holder's realized loss in every phase, not only Settled."""
    def mutant(tst, *args, **rest):
        report = read(tst, *args, **rest)
        for h in report.holders:
            h.realized_loss = max(0, h.capital - h.settlement_credits)
        return report

    return mutant


def segment_one_epoch_longer(quiet_span=World._quiet_span):
    """The quiet span, one epoch longer whenever there is one."""
    def mutant(self):
        k = quiet_span(self)
        return k + 1 if k else 0

    return mutant


def quiet_until_without_steady_window(self, state, now):
    """ValidatorWallet.quiet_until taking any window for a steady one."""
    if self.watchdog_shortfall(state, now) is not None:
        return now + 1
    if state.reward_window.get(now, 0) >= self.spec.expected_reward_per_epoch:
        return inf
    return state.activation_epoch + self.spec.grace_epochs - 1


def fold_scaled_off_by_one(fold_scaled=ledger.fold_scaled):
    """The segment's scaled fold, one unit short on the first balance it moves."""
    def mutant(events, k, into):
        before = dict(into.balances)
        fold_scaled(events, k, into)
        moved = next(n for n, v in into.balances.items() if v != before.get(n, 0))
        into.balances[moved] -= 1
        return into

    return mutant


def walk_blind_once_a_record_is_unparsed(walk=scenario._bound_problems):
    """The bound walk finding nothing once a record is None, as the loader
    leaves one it could not parse."""
    def mutant(s):
        problems, limits = walk(s)
        records = [*(getattr(s, key) for key in scenario._RECORDS),
                   *(r for key in scenario._LISTS for r in getattr(s, key))]
        return ({} if None in records else problems), limits

    return mutant


def walk_reindexes_after_an_unparsed_item(walk=scenario._bound_problems):
    """The bound walk over the lists with their unparsed items dropped, so
    each item after one is named one index too low."""
    def mutant(s):
        return walk(replace(s, **{key: tuple(r for r in getattr(s, key) if r is not None)
                                  for key in scenario._LISTS}))

    return mutant


def repeat_written_with(change, encode_lines=ledger.encode_lines):
    """The ledger's line builder, writing each Repeat line's payload through `change`."""
    def mutant(events):
        return encode_lines([e._replace(payload=change(dict(e.payload))) if e.tag == "Repeat"
                             else e for e in events])

    return mutant


def stride_one_too_far(strided=ledger.strided):
    """The line-advancing helper, advancing every integer one stride too far."""
    def mutant(block, strides):
        at = strided(block, strides)
        return lambda t: at(t + 1)

    return mutant


def fold_with(tag: str, wrap) -> dict:
    """The fold's handler table with `tag`'s handler replaced by wrap(handler)."""
    return {**_Fold._on, tag: wrap(_Fold._on.get(tag))}


def settlement_read_as_reward(handler):
    """The fold's Distributed handler taking a settlement's (fee 0) for a reward's."""
    def mutant(self, e):
        self.last = e
        handler(self, e)

    return mutant


def slash_read_as_performance(handler):
    """The fold's Slashed handler recording the exit as a performance exit."""
    def mutant(self, e):
        handler(self, e)
        self.tst.exit_causes[self.wallet_of[e.payload["id"]]] = treasury.CAUSE_PERFORMANCE

    return mutant


def claim_zeroes_claimable(handler):
    """The fold's Claimed handler leaving the holder nothing to claim, as the
    claim handler does, whatever amount the line says was taken."""
    def mutant(self, e):
        handler(self, e)
        self.tst.claimable[e.payload["holder"]] = 0

    return mutant


# name -> (owner, attribute, its mutant, the test that must catch it)
MUTANTS = {
    "bool-accepted-as-int": (
        errors, "type", bool_is_int,
        lambda: test_bounds.test_validate_rejects("treasury", "fee_bps", True, 0, 10_000)),
    "hi-ignored": (
        errors, "_plan",
        plan_with(lambda f, lo, hi, opt: (f, lo, hi if type(hi) is str else None, opt)),
        test_scenario.TestValidate().test_horizon_is_bounded),
    "named-limit-ignored": (
        errors, "_plan",
        plan_with(lambda f, lo, hi, opt: (f, lo, None if type(hi) is str else hi, opt)),
        test_scenario.TestValidate().test_deposit_beyond_horizon),
    "none-accepted-when-not-optional": (
        errors, "_plan", plan_with(lambda f, lo, hi, opt: (f, lo, hi, True)),
        lambda: test_bounds.test_validate_rejects("deposits[0]", "amount", None, 1, None)),
    "loader-error-path-skips-field-check": (
        scenario, "_bound_problems", walk_blind_once_a_record_is_unparsed(),
        test_scenario.TestLoader().test_every_problem_in_a_document_reported),
    "loader-error-path-reindexes-list-items": (
        scenario, "_bound_problems", walk_reindexes_after_an_unparsed_item(),
        lambda: test_bounds.test_loader_names_a_rejected_field_once_at_its_index(
            "deposits[0]", "amount", 0, 1, None)),
    "watchdog-never-due": (
        ValidatorWallet, "watchdog_shortfall", lambda self, state, now: None,
        test_scenario.TestNonPayingRun().test_exit_and_final_payouts_match_oracle),
    "at-threshold-is-short": (
        ValidatorWallet, "watchdog_shortfall", watchdog_shortfall(short=lambda t, h: t <= h),
        test_wallet.TestWatchdog().test_exactly_at_threshold_is_ok),
    "at-threshold-is-short-driver": (
        ValidatorWallet, "watchdog_shortfall", watchdog_shortfall(short=lambda t, h: t <= h),
        test_keeper.test_rewards_exactly_at_the_threshold_never_exit),
    "window-one-slot-short": (
        ValidatorWallet, "watchdog_shortfall", watchdog_shortfall(slots=-1),
        test_wallet.TestWatchdog().test_trigger_epoch_matches_oracle),
    "sweep-skipped-on-grid": (
        BeaconContract, "sweep_due",
        lambda self, epoch: epoch % self.params.sweep_period != 0,
        test_beacon.TestExitAndSweep().test_sweep_period_gates_payout),
    "sweep-skipped-on-grid-driver": (
        BeaconContract, "sweep_due",
        lambda self, epoch: epoch % self.params.sweep_period != 0,
        test_keeper.test_the_sweep_is_called_on_its_grid_only),
    "no-settlement-on-nft-transfer": (
        treasury, "settle_token", lambda st, token_id, owner: None,
        test_mint.TestTransferNft().test_accrual_follows_ownership_across_transfer),
    "fee-rounded-up": (
        TreasuryContract, "_ops", ops_with(TreasuryContract, "receive_rewards", fee_rounded_up),
        lambda: test_treasury.TestClaims().test_operator_fee_payouts_match_oracle(
            make_staked_world())),
    "fee-taken-on-settlement": (
        TreasuryContract, "_ops", ops_with(TreasuryContract, "settle_exit", fee_on_settlement),
        test_treasury.TestSettleExit().test_shortfall_fully_covered_by_escrow),
    "shared-performance-map-written": (
        BeaconContract, "_ops", ops_with(BeaconContract, "accrue_epoch", map_consumed),
        test_scenario.TestNonPayingRun().test_exit_and_final_payouts_match_oracle),
    "log-totals-check-dropped": (
        World, "report", report_without_log_totals(),
        test_scenario.TestConservationChecks().test_counter_drift_fails_replay_but_not_conservation),
    "realized-loss-counted-before-settled": (
        RunReport, "read", loss_counted_before_settled(),
        in_a_temporary_directory(
            lambda tmp: test_cli.TestRun().test_golden_reports_frozen("honest", tmp))),
    "performance-map-never-rebuilt": (
        World, "_performance", map_never_rebuilt(),
        test_keeper.test_goldens_agree_with_the_every_epoch_keeper),
    "exit-requested-wallet-dropped-from-walk": (
        World, "_epoch_substeps", exit_requested_dropped(),
        test_scenario.TestNonPayingRun().test_exit_and_final_payouts_match_oracle),
    "segment-one-epoch-too-long": (
        World, "_quiet_span", segment_one_epoch_longer(),
        test_segments.test_goldens_match_the_stepped_reference),
    "beacon-transition-missed": (
        scenario, "next_transition", lambda state, now: inf,
        test_segments.test_segments_end_before_each_beacon_transition),
    "steady-window-condition-dropped": (
        ValidatorWallet, "quiet_until", quiet_until_without_steady_window,
        test_segments.test_a_window_still_filling_is_stepped_until_the_watchdog_arms),
    "action-epoch-repeated": (
        scenario, "bisect_left", bisect_right,
        test_segments.test_an_epoch_with_an_action_is_never_repeated),
    "scaled-fold-off-by-one": (
        ledger, "fold_scaled", fold_scaled_off_by_one(),
        test_segments.test_goldens_match_the_stepped_reference),
    "repeat-one-epoch-short": (
        ledger, "encode_lines", repeat_written_with(lambda p: {**p, "epochs": p["epochs"] - 1}),
        test_segments.test_goldens_match_the_stepped_reference),
    "repeat-one-epoch-long": (
        ledger, "encode_lines", repeat_written_with(lambda p: {**p, "epochs": p["epochs"] + 1}),
        test_segments.test_goldens_match_the_stepped_reference),
    "repeat-stride-one-unit-off": (
        ledger, "encode_lines",
        repeat_written_with(lambda p: {**p, "net_total": p["net_total"] + 1}),
        test_segments.test_goldens_match_the_stepped_reference),
    "segment-lines-one-stride-ahead": (
        ledger, "strided", stride_one_too_far(),
        lambda: test_ledger.TestSegment().test_copies_match_a_naive_reference_and_stepping(7)),
    "fold-settlement-read-as-reward": (
        _Fold, "_on", fold_with("Distributed", settlement_read_as_reward),
        test_explain.test_the_fold_follows_resales_claims_and_both_exit_causes),
    "fold-transfer-nft-ignored": (
        _Fold, "_on", fold_with("TransferNft", lambda handler: lambda self, e: None),
        test_explain.test_the_fold_follows_resales_claims_and_both_exit_causes),
    "ledger-takes-a-float-amount": (
        ledger, "type", float_is_int,
        lambda: test_ledger.TestIntegerAmounts().test_an_amount_that_is_not_an_int_is_invalid(
            "call value", 1.5)),
    "beacon-reads-a-float-factor": (
        BeaconContract, "_reward", reward_of_a_decimal_read,
        lambda: set_up(test_beacon.TestAccrual)
        .test_a_factor_that_is_not_a_number_is_an_invalid_factor(Fraction(1, 2), 0.5)),
    "fold-slash-read-as-performance": (
        _Fold, "_on", fold_with("Slashed", slash_read_as_performance),
        test_explain.test_an_exit_due_but_not_yet_swept_reads_withdrawable),
    "fold-claim-zeroes-claimable": (
        _Fold, "_on", fold_with("Claimed", claim_zeroes_claimable),
        lambda: test_explain.test_one_unit_added_to_an_amount_the_fold_reads_fails_replay_ok(
            test_explain.run_with_resales_claims_and_both_exit_causes, "Claimed", "amount")),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_caught(mutant, monkeypatch):
    owner, attribute, patched, caught_by = MUTANTS[mutant]
    caught_by()                     # passes on the real code
    monkeypatch.setattr(owner, attribute, patched, raising=False)
    # A failed pytest.raises ("DID NOT RAISE") is a catch as much as a failed assert.
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        caught_by()
