"""Mutants of the bound checker and of the keeper's predicates, each caught by a named test.

A mutant is a small wrong version of the code, made by monkeypatching one
attribute: for ``errors.bound_problems``, the per-class plan it reads
(``errors._plan``) or the ``type`` it calls; for the keeper,
``ValidatorWallet.watchdog_shortfall`` or ``BeaconContract.sweep_due``,
which the driver and the handlers share. Each names one existing test that
passes on the real code and must fail under the mutant: a check that no
mutant fails proves nothing (DeMillo, Lipton & Sayward, *Hints on Test
Data Selection*, 1978).
"""

from __future__ import annotations

import builtins

import pytest

import test_bounds
import test_beacon
import test_keeper
import test_scenario
import test_wallet
from stakeclaim import errors
from stakeclaim.beacon import BeaconContract
from stakeclaim.wallet import ValidatorWallet

real_plan = errors._plan


def plan_with(change):
    """A plan that passes each (field, lo, hi, optional) row through `change`."""
    return lambda cls: tuple(change(*row) for row in real_plan(cls))


def bool_is_int(v):
    return int if builtins.type(v) is bool else builtins.type(v)


def watchdog_shortfall(short=lambda total, threshold: total < threshold, slots=0):
    """A watchdog predicate comparing with `short` over a window `slots` slots longer."""
    def shortfall(self, state, now):
        cfg = self.config
        start = state.activation_epoch
        if start is not None and now - start + 1 < cfg.grace_epochs:
            return None
        total = sum(state.reward_window.get(e, 0)
                    for e in range(now - cfg.grace_epochs - slots + 1, now + 1))
        threshold = cfg.expected_reward_per_epoch * cfg.grace_epochs
        return (total, threshold) if short(total, threshold) or start is None else None

    return shortfall


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
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_caught(mutant, monkeypatch):
    owner, attribute, patched, caught_by = MUTANTS[mutant]
    caught_by()                     # passes on the real code
    monkeypatch.setattr(owner, attribute, patched, raising=False)
    with pytest.raises(AssertionError):
        caught_by()
