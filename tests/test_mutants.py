"""Mutants of the bound checker, the keeper, segments and the engine, each caught by a named test.

A mutant is a small wrong version of the code, made by monkeypatching one
attribute: for ``errors.bound_problems``, the per-class plan it reads
(``errors._plan``) or the ``type`` it calls; for the loader, the bound walk
on its error path, which ``validate`` shares
(``scenario._bound_problems``); for the keeper,
``ValidatorWallet.watchdog_shortfall`` or ``BeaconContract.sweep_due``,
which the driver and the handlers share, or the ``World``'s performance map
and wallet walk; for segments, the ``World``'s quiet span, its search for
the next action, the beacon's ``next_transition``,
``ValidatorWallet.quiet_until``, or the ledger's segment commit
(``Ledger.advance_segment``), the headers and the ``Repeat`` line it
writes (through ``encode_lines``) and the blocks it reads, as the ledger's
flush keeps them (``Ledger.flush``); for the engine, a
treasury helper, a contract's method table (``_ops``, with one handler
wrapped) or ``World.report``; for the report, the reader both the run and
the fold call (``RunReport.read``); for the fold of the log, its table of
per-tag handlers (``explain._Fold._on``) or its check of an accrual that
logs no line (``explain._Fold.carry``); for the live audit, ``World.audit``; for exact inputs, the ``type``
the ledger calls or the beacon's reward (``BeaconContract._reward``); for
the accrual the beacon keeps, its derivation (``BeaconContract._derive``)
or the key of a factor map (``beacon.factor_key``); for the state maps
written per token or per holder, the shared map's write
(``ledger.SharedMap.set``); for a call's value, the ledger's replay
(``ledger.replay_balances``) or a call tree's log (``CallContext.log``).
Each names one existing test that passes on the real code and must fail
under the mutant, with an ``AssertionError`` or a failed
``pytest.raises``, or with an exception group of only those
(hypothesis raises one when it finds several failures): a check that no
mutant fails proves nothing (DeMillo, Lipton & Sayward, *Hints on Test Data
Selection*, 1978).
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
import test_shared_map
import test_treasury
import test_wallet
from conftest import make_staked_world
from math import inf

from stakeclaim import beacon, errors, ledger, scenario, treasury
from stakeclaim.beacon import BeaconContract
from stakeclaim.explain import _Fold
from stakeclaim.ledger import CallContext, Ledger, SharedMap, evolve
from stakeclaim.scenario import RunReport, World
from stakeclaim.treasury import TreasuryContract
from stakeclaim.wallet import ValidatorWallet, WalletStatus

try:
    BaseExceptionGroup
except NameError:       # Python 3.10: the backport hypothesis itself depends on
    from exceptiongroup import BaseExceptionGroup

# A failed assert, or a failed pytest.raises ("DID NOT RAISE").
CATCHES = (AssertionError, pytest.fail.Exception)

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


def accrual_kept_past_transitions(derive=BeaconContract._derive):
    """The beacon's derivation, its accrual kept as if no status could change again."""
    def mutant(self, *args):
        accrual, effects = derive(self, *args)
        return accrual._replace(due=inf), effects

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


def audit_without_the_vault(self):
    """World.audit without its third identity, the beacon vault against the
    sum of the validator balances."""
    led = self.ledger
    if led.total_balance() != led.minted_total - led.burned_total:
        raise errors.InvariantViolation("total != minted - burned")
    if led.balance_of(scenario.TREASURY) != scenario.balance_identity(
            led.contract_state(scenario.TREASURY)):
        raise errors.InvariantViolation("treasury balance != identity")


def segment_moves_one_unit_short(advance_segment=Ledger.advance_segment):
    """The ledger's segment commit, one unit short on the first live balance it moves."""
    def mutant(self, k, states):
        before = dict(self._balances)
        done = advance_segment(self, k, states)
        moved = next((n for n, v in self._balances.items() if v != before[n]), None)
        if moved is not None:
            self._balances[moved] -= 1
        return done

    return mutant


def segment_epoch_count_unchecked(advance_segment=Ledger.advance_segment):
    """The ledger's segment commit, taking the epoch before the last to have
    logged as many lines as the last, whatever it logged."""
    def mutant(self, k, states):
        self._prev_seq = 2 * self._epoch_seq - self._seq
        return advance_segment(self, k, states)

    return mutant


def segment_keeps_one_epoch(advance_segment=Ledger.advance_segment):
    """The ledger's segment commit, keeping after a segment of lines only
    the block of its last epoch, not of the two stepping would keep."""
    def mutant(self, k, states):
        done = advance_segment(self, k, states)
        if done and k:
            self._recent[0] = []
        return done

    return mutant


def recent_one_line_short(flush=Ledger.flush):
    """The ledger's flush, keeping the block of the epoch before the last
    without its first line."""
    def mutant(self):
        replay = flush(self)
        self._recent[0] = ["".join(self._recent[0]).partition("\n")[2]]
        return replay

    return mutant


def repeat_of_the_wrong_block(advance_segment=Ledger.advance_segment):
    """The ledger's segment commit, checking the last epoch's block against
    itself, not against the block of the epoch before: its Repeat then
    repeats an epoch that need not repeat the one before."""
    def mutant(self, k, states):
        self.flush()
        self._recent[0] = self._recent[1]
        return advance_segment(self, k, states)

    return mutant


def call_value_not_replayed(replay=ledger.replay_balances):
    """The ledger's replay, folding each Call line as if it carried no value."""
    def mutant(events, into=None):
        return replay([e._replace(payload={k: v for k, v in e.payload.items() if k != "value"})
                       if e.tag == "Call" else e for e in events], into)

    return mutant


def call_value_also_transferred(log=CallContext.log):
    """A call tree's log, writing after each Call line with a value a
    Transfer line of that value, as a bare move logs one."""
    def mutant(self, emitter, tag, payload):
        log(self, emitter, tag, payload)
        if tag == "Call" and "value" in payload:
            log(self, emitter, "Transfer", {"to": payload["target"], "amount": payload["value"]})

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
    def mutant(events, epoch=-1):
        return encode_lines([e._replace(payload=change(dict(e.payload))) if e.tag == "Repeat"
                             else e for e in events], epoch)

    return mutant


def header_epoch_off_by_one(encode_lines=ledger.encode_lines):
    """The ledger's line builder, writing each header after epoch 0's one epoch high."""
    def mutant(events, epoch=-1):
        return [f'{{"epoch":{int(line[9:-2]) + 1}}}\n'
                if line.startswith('{"epoch":') and line != '{"epoch":0}\n' else line
                for line in encode_lines(events, epoch)]

    return mutant


def fold_with(tag: str, wrap) -> dict:
    """The fold's handler table with `tag`'s handler replaced by wrap(handler)."""
    return {**_Fold._on, tag: wrap(_Fold._on.get(tag))}


def settlement_read_as_reward(handler):
    """The fold's ExitSettled handler taking the operator's fee out of the
    pot, as the fold does out of a reward."""
    def mutant(self, e):
        t, before = self.tst, self.tst.net_total
        handler(self, e)
        fee = (t.net_total - before) * self.spec.fee_bps // 10_000
        t.net_total -= fee
        t.operator_fees_accrued += fee

    return mutant


def slash_read_as_performance(handler):
    """The fold's Slashed handler recording the exit as a performance exit."""
    def mutant(self, e):
        handler(self, e)
        self.tst.exit_causes = self.tst.exit_causes.set(self.wallet_of[e.payload["id"]],
                                                         treasury.CAUSE_PERFORMANCE)

    return mutant


def unchecked(handler):
    """A fold handler with its checks dropped: it applies its line and never
    finds it inconsistent."""
    def mutant(self, e):
        consistent = self.consistent
        handler(self, e)
        self.consistent = consistent

    return mutant


def claim_unchecked(handler):
    """The fold's Transfer handler booking a holder's claim without checking
    that it took what was due (``treasury.claimable_of``)."""
    def mutant(self, e):
        consistent = self.consistent
        handler(self, e)
        if self.last.payload.get("method") == "claim":
            self.consistent = consistent

    return mutant


def accrual_epoch_unchecked(handler):
    """The fold's Call handler taking an accrual at any epoch."""
    def mutant(self, e):
        consistent = self.consistent
        handler(self, e)
        if e.payload.get("method") == "accrue_epoch":
            self.consistent = consistent

    return mutant


def written_in_place(write=SharedMap.set):
    """SharedMap.set also turning the map it was called on into the new one."""
    def mutant(self, key, value):
        new = write(self, key, value)
        self._index, self._spine, self._tail, self._len = new._index, new._spine, new._tail, new._len
        return new

    return mutant


def every_chunk_copied(write=SharedMap.set):
    """SharedMap.set copying every chunk, as a copy of the whole map does."""
    def mutant(self, key, value):
        new = write(self, key, value)
        new._spine = tuple(tuple([*chunk]) for chunk in new._spine)
        new._tail = tuple([*new._tail])
        return new

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
        lambda: test_bounds.test_validate_rejects("deposits[0]", "amount", None, 1,
                                             test_bounds.UINT256)),
    "loader-error-path-skips-field-check": (
        scenario, "_bound_problems", walk_blind_once_a_record_is_unparsed(),
        test_scenario.TestLoader().test_every_problem_in_a_document_reported),
    "loader-error-path-reindexes-list-items": (
        scenario, "_bound_problems", walk_reindexes_after_an_unparsed_item(),
        lambda: test_bounds.test_loader_names_a_rejected_field_once_at_its_index(
            "deposits[0]", "amount", 0, 1, test_bounds.UINT256)),
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
    "accrual-kept-past-a-transition": (
        BeaconContract, "_derive", accrual_kept_past_transitions(),
        lambda: test_beacon.drive_against_a_fresh_beacon(0)),
    "accrual-keyed-on-the-map-object": (
        beacon, "factor_key", lambda performance: (id(performance),),
        lambda: test_beacon.drive_against_a_fresh_beacon(0)),
    "log-totals-check-dropped": (
        World, "report", report_without_log_totals(),
        test_scenario.TestConservationChecks().test_counter_drift_fails_replay_but_not_conservation),
    "realized-loss-counted-before-settled": (
        RunReport, "read", loss_counted_before_settled(),
        in_a_temporary_directory(
            lambda tmp: test_cli.TestRun().test_golden_reports_frozen("honest", tmp))),
    "audit-skips-the-beacon-vault": (
        World, "audit", audit_without_the_vault,
        test_scenario.TestConservationChecks()
        .test_audit_catches_a_beacon_vault_apart_from_its_validator_balances),
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
    "segment-moves-one-unit-short": (
        Ledger, "advance_segment", segment_moves_one_unit_short(),
        lambda: test_ledger.TestSegment().test_copies_match_a_naive_reference_and_stepping(7)),
    "segment-epoch-count-unchecked": (
        Ledger, "advance_segment", segment_epoch_count_unchecked(),
        lambda: test_ledger.TestSegment().test_a_refused_segment_changes_nothing(
            lambda: test_ledger.poked_ledger(2, 1), 7)),
    "segment-keeps-one-epoch": (
        Ledger, "advance_segment", segment_keeps_one_epoch(),
        test_ledger.TestSegment()
        .test_a_second_segment_with_no_epoch_between_is_checked_like_any_other),
    "recent-trimmed-one-line-short": (
        Ledger, "flush", recent_one_line_short(),
        lambda: test_ledger.TestSegment().test_copies_match_a_naive_reference_and_stepping(7)),
    "repeat-one-epoch-short": (
        ledger, "encode_lines", repeat_written_with(lambda p: {**p, "epochs": p["epochs"] - 1}),
        test_segments.test_goldens_match_the_stepped_reference),
    "repeat-one-epoch-long": (
        ledger, "encode_lines", repeat_written_with(lambda p: {**p, "epochs": p["epochs"] + 1}),
        test_segments.test_goldens_match_the_stepped_reference),
    # A Repeat's payload holds its epochs and nothing else.
    "repeat-stride-one-unit-off": (
        ledger, "encode_lines", repeat_written_with(lambda p: {**p, "value": 1}),
        test_segments.test_goldens_match_the_stepped_reference),
    "call-value-not-replayed": (
        ledger, "replay_balances", call_value_not_replayed(),
        test_ledger.test_a_call_tree_logs_each_value_once_on_its_call_line),
    "call-value-also-transferred": (
        CallContext, "log", call_value_also_transferred(),
        test_ledger.test_a_call_tree_logs_each_value_once_on_its_call_line),
    "header-epoch-off-by-one": (
        ledger, "encode_lines", header_epoch_off_by_one(),
        test_ledger.TestEpochs().test_hooks_run_in_fixed_order_deterministically),
    "repeat-of-the-wrong-block": (
        Ledger, "advance_segment", repeat_of_the_wrong_block(),
        lambda: test_ledger.TestSegment().test_a_refused_segment_changes_nothing(
            lambda: test_ledger.tally_ledger(7, "x", total=True), 7)),
    "fold-settlement-read-as-reward": (
        _Fold, "_on", fold_with("ExitSettled", settlement_read_as_reward),
        test_explain.test_the_fold_follows_resales_claims_and_both_exit_causes),
    "fold-second-genesis-read": (
        _Fold, "_on", fold_with("Genesis", lambda handler: lambda self, e: None),
        lambda: test_explain.test_a_log_that_does_not_begin_with_its_terms_does_not_fold(
            "second-Genesis")),
    "fold-abort-refund-unchecked": (
        _Fold, "_on", fold_with("Transfer", unchecked),
        lambda: test_explain.test_a_refund_paid_to_another_name_fails_replay_ok(
            test_explain.run_with_the_mint_aborted, test_explain.first(test_explain.ABORT_REFUND, 1),
            0, "bob")),
    "fold-escrow-refund-unchecked": (
        _Fold, "_on", fold_with("EscrowRefunded", unchecked),
        lambda: test_explain.test_a_refund_paid_to_another_name_fails_replay_ok(
            test_explain.run_with_the_escrow_refunded,
            test_explain.first('"tag":"EscrowRefunded"', -1), None, "alice")),
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
    "fold-claim-unchecked": (
        _Fold, "_on", fold_with("Transfer", claim_unchecked),
        lambda: test_explain.test_one_unit_added_to_a_claim_or_a_deposit_fails_replay_ok(
            test_explain.run_with_resales_claims_and_both_exit_causes, test_explain.CLAIM, 1,
            "amount")),
    **{f"fold-{tag}-unchecked": (
        _Fold, "_on", fold_with(tag, unchecked),
        test_explain.test_one_unit_added_to_any_int_field_fails_replay_ok)
       for tag in ("ExitSettled", "Swept", "ExitTriggered", "Staked")},
    # The rebuilt beacon balances also catch a +1 on an accrual or a receipt.
    "fold-EpochAccrual-unchecked": (
        _Fold, "_on", fold_with("EpochAccrual", unchecked),
        test_explain.test_an_accrual_line_deleted_or_restated_fails_replay_ok),
    "fold-Call-unchecked": (
        _Fold, "_on", fold_with("Call", unchecked),
        lambda: test_explain.test_a_reward_receipt_one_unit_short_fails_replay_ok("honest")),
    "fold-accrual-epochs-unchecked": (
        _Fold, "_on", fold_with("Call", accrual_epoch_unchecked),
        lambda: test_explain.test_an_epoch_deleted_whole_fails_replay_ok("honest")),
    "fold-carried-accrual-unchecked": (
        _Fold, "carry", lambda self: setattr(self, "accruing", None),
        test_explain.test_an_accrual_line_deleted_or_restated_fails_replay_ok),
    "fold-Activated-unchecked": (
        _Fold, "_on", fold_with("Activated", unchecked),
        test_explain.test_a_validator_activated_off_its_epoch_fails_replay_ok),
    "token-map-writes-in-place": (
        SharedMap, "set", written_in_place(),
        test_shared_map.test_every_version_reads_like_its_dict),
    "token-map-copies-every-chunk": (
        SharedMap, "set", every_chunk_copied(),
        test_shared_map.test_a_write_shares_every_chunk_but_one_with_its_input),
}


def assert_caught(check) -> None:
    """`check` fails with one of ``CATCHES``, or with an exception group
    whose every leaf is one: hypothesis raises a group when it finds more
    than one distinct failure. Any other exception propagates."""
    with pytest.raises((*CATCHES, BaseExceptionGroup)) as raised:
        check()
    if isinstance(raised.value, BaseExceptionGroup):
        rest = raised.value.split(CATCHES)[1]
        if rest is not None:
            raise rest


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_caught(mutant, monkeypatch):
    owner, attribute, patched, caught_by = MUTANTS[mutant]
    caught_by()                     # passes on the real code
    monkeypatch.setattr(owner, attribute, patched, raising=False)
    assert_caught(caught_by)


def fail_with(*errors):
    """A check that fails as hypothesis does when it finds several failures."""
    def check():
        raise BaseExceptionGroup("found 2 distinct failures", list(errors))
    return check


@pytest.mark.parametrize("errors", [
    (AssertionError("one"), AssertionError("two")),
    (AssertionError("one"), pytest.fail.Exception("DID NOT RAISE")),
], ids=["two-asserts", "an-assert-and-a-failed-raises"])
def test_a_group_of_only_failed_checks_is_a_catch(errors):
    assert_caught(fail_with(*errors))


def test_a_group_with_any_other_error_is_not_a_catch():
    with pytest.raises(BaseExceptionGroup) as raised:
        assert_caught(fail_with(AssertionError("one"), KeyError("two")))
    assert [type(e) for e in raised.value.exceptions] == [KeyError]
