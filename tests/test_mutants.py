"""Mutants of the bound checker, each caught by a named test.

A mutant is a small wrong version of ``errors.bound_problems``, made by
monkeypatching the per-class plan it reads (``errors._plan``) or the
``type`` it calls. Each names one existing test that passes on the real
checker and must fail under the mutant: a check that no mutant fails
proves nothing (DeMillo, Lipton & Sayward, *Hints on Test Data Selection*,
1978).
"""

from __future__ import annotations

import builtins

import pytest

import test_bounds
import test_scenario
from stakeclaim import errors

real_plan = errors._plan


def plan_with(change):
    """A plan that passes each (field, lo, hi, optional) row through `change`."""
    return lambda cls: tuple(change(*row) for row in real_plan(cls))


def bool_is_int(v):
    return int if builtins.type(v) is bool else builtins.type(v)


# name -> (errors attribute, its mutant, the test that must catch it)
MUTANTS = {
    "bool-accepted-as-int": (
        "type", bool_is_int,
        lambda: test_bounds.test_validate_rejects("treasury", "fee_bps", True, 0, 10_000)),
    "hi-ignored": (
        "_plan", plan_with(lambda f, lo, hi, opt: (f, lo, hi if type(hi) is str else None, opt)),
        test_scenario.TestValidate().test_horizon_is_bounded),
    "named-limit-ignored": (
        "_plan", plan_with(lambda f, lo, hi, opt: (f, lo, None if type(hi) is str else hi, opt)),
        test_scenario.TestValidate().test_deposit_beyond_horizon),
    "none-accepted-when-not-optional": (
        "_plan", plan_with(lambda f, lo, hi, opt: (f, lo, hi, True)),
        lambda: test_bounds.test_validate_rejects("deposits[0]", "amount", None, 1, None)),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_caught(mutant, monkeypatch):
    attribute, patched, caught_by = MUTANTS[mutant]
    caught_by()                     # passes on the real checker
    monkeypatch.setattr(errors, attribute, patched, raising=False)
    with pytest.raises(AssertionError):
        caught_by()
