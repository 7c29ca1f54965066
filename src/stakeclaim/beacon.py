"""Minimal proof-of-stake consensus layer.

Just enough protocol to exercise the staking arrangement end to end:
validator lifecycle with activation and exit queues, per-epoch reward
issuance scaled by an operator performance factor, periodic sweeps of
rewards and exit balances to each validator's withdrawal address, and
slashing.

The beacon is registered on the ledger as an issuer contract: its own
account is the deposit vault, reward accrual is the only place units are
created, and slashing is the only place they are destroyed. The invariant
``sum(balances) == vault balance`` ties the consensus view to the ledger.
A performance factor reaches the beacon exact, an int or a Fraction in
[0, 1] parsed once by ``scenario.parse_factor``: the beacon parses nothing.

As in the Ethereum consensus specs' ``BeaconState``, balances live in one
int list indexed by validator id, apart from the validator records: the
per-epoch accrual, the sweep and a slash each copy that list once, and a
record is replaced only on a status transition.

Accrual costs O(changes), not O(validators) Python work: the contract keeps
the last accrual it derived (:class:`Accrual`: each validator's reward, the
total minted and the ``EpochAccrual`` payload) beside the validators list
it came from, and walks the validators again only when the list, the
factor map's contents or a status can have changed. In between, an accrual
adds the kept reward vector to the balances.

The accrual is logged as its amounts change, not every epoch. Each accrual
is its driver's ``Call`` and, when it mints, its ``SupplyMint``; an
``EpochAccrual`` line (the Active validators' ``[id, reward]`` pairs, in id
order, and their sum as ``minted``) follows only when those amounts differ
from the last ones logged. The last payload logged is part of the state
(``BeaconState.accrual_logged``), not of the contract's memo, so the log
stays a function of the state; a reader of the log carries the last
amounts forward to each accrual that logs none.

Withdrawal addresses are write-once: validator records are frozen
dataclasses and no operation constructs a record with a different
withdrawal address. Contract withdrawal addresses receive lifecycle
callbacks (``deposit_accepted``, ``on_validator_activated``,
``on_forced_exit``, ``on_exit_swept``) so a wallet can track its validator
without polling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import inf
from operator import add
from typing import NamedTuple

from .errors import UINT256_MAX, InvalidAmount, InvalidFactor, NotActive, Unauthorized, UnknownValidator, WrongAmount, WrongStatus, bounded, checked
from .ledger import Call, CallContext, Destroy, Emit, Handlers, Issue, Msg, Transfer, evolve


class ValidatorStatus(Enum):
    PENDING = "PendingActivation"
    ACTIVE = "Active"
    EXITING = "Exiting"
    WITHDRAWABLE = "Withdrawable"
    WITHDRAWN = "Withdrawn"


@dataclass(frozen=True)
class BeaconParams:
    """Protocol constants; all strictly positive."""

    stake_requirement: int = bounded(1, UINT256_MAX)
    reward_per_epoch: int = bounded(1, UINT256_MAX)
    activation_delay: int = bounded(1, UINT256_MAX)
    exit_delay: int = bounded(1, UINT256_MAX)
    sweep_period: int = bounded(1)


@dataclass(frozen=True)
class BeaconValidator:
    """One validator record. Its id is its position in
    ``BeaconState.validators``, and its balance is ``BeaconState.balances[id]``.

    The withdrawal address is set once, at deposit.
    """

    withdrawal_address: str
    operator: str
    status: ValidatorStatus
    activation_epoch: int
    exit_epoch: int | None = None


@dataclass
class BeaconState:
    validators: list[BeaconValidator] = field(default_factory=list)   # id == list index
    balances: list[int] = field(default_factory=list)                 # by validator id
    accrual_logged: dict | None = None      # the last EpochAccrual payload logged, if any


class Accrual(NamedTuple):
    """What one accrual derives from a validators list and a factor map, kept
    for the accruals after it (:meth:`BeaconContract._derive`)."""

    validators: list[BeaconValidator]   # the list after the transitions, held so its id stays its own
    key: tuple                          # the factor map's factor_key
    due: int | float                    # next_transition of the list: when a status may change; inf if none
    vector: list[int]                   # each validator's reward per epoch, 0 unless Active
    minted: int                         # sum(vector)
    payload: dict | None                # the EpochAccrual payload; None if no validator is Active


def factor_key(performance: dict) -> tuple:
    """What accrual reads of a factor map: a copy of its contents, and each
    factor's exact type, so that neither a bool nor a float passes for an
    equal int or Fraction. Compared by value, a map written in place reads anew."""
    return dict(performance), list(map(type, performance.values()))


def validator_by_id(state: BeaconState, vid: int) -> BeaconValidator:
    """Validator `vid`'s record: ids are list positions by construction.

    Anything but an int in 0..len-1 raises UnknownValidator, a bool too;
    without the bounds check, -1 would index the last validator.
    """
    if type(vid) is not int or not 0 <= vid < len(state.validators):
        raise UnknownValidator(f"no validator with id {vid}")
    return state.validators[vid]


def next_transition(validators: list[BeaconValidator], now: int) -> int | float:
    """The first epoch after `now` at which accrual or a sweep may change
    the status of one of `validators`, as they stand after `now`'s
    accrual; inf if none can.

    A Pending validator activates at its activation epoch and an Exiting
    one becomes Withdrawable at its exit epoch; a Withdrawable one is paid
    out by a sweep, taken to come at `now` + 1.
    """
    out = inf
    for v in validators:
        status = v.status
        if status is ValidatorStatus.PENDING:
            out = min(out, v.activation_epoch)
        elif status is ValidatorStatus.EXITING:
            out = min(out, v.exit_epoch)
        elif status is ValidatorStatus.WITHDRAWABLE:
            return now + 1
    return out


class BeaconContract(Handlers):
    """Message handler for the consensus layer.

    Per-epoch operations (accrue_epoch, sweep, slash) are restricted to the
    driver address; deposits are permissionless; exits require the
    withdrawal address or the validator's signing-capability holder.
    """

    kind = "beacon"

    def __init__(self, params: BeaconParams, driver: str):
        self.params = checked(params)
        self.driver = driver
        # The last accrual derived; a memo of what _derive read, kept by reference.
        self._accrual: Accrual | None = None

    def initial_state(self) -> BeaconState:
        return BeaconState()

    # --- operations -----------------------------------------------------

    def _op_submit_deposit(self, state: BeaconState, msg: Msg, ctx: CallContext):
        if msg.value != self.params.stake_requirement:
            raise WrongAmount(
                f"stake must be exactly {self.params.stake_requirement}, got {msg.value}")
        wa = msg.args["withdrawal_address"]
        operator = msg.args["operator"]
        has_code = ctx.is_contract(wa)  # raises UnknownAddress for unregistered targets
        vid = len(state.validators)
        record = BeaconValidator(
            withdrawal_address=wa,
            operator=operator,
            status=ValidatorStatus.PENDING,
            activation_epoch=ctx.epoch + self.params.activation_delay,
        )
        st = evolve(state, validators=[*state.validators, record],
                    balances=[*state.balances, msg.value])
        effects = [Emit("DepositAccepted", {
            "id": vid, "withdrawal_address": wa, "from": msg.caller,
            "activation_epoch": ctx.epoch + self.params.activation_delay,
        })]
        if has_code:
            effects.append(Call(wa, "deposit_accepted", {"validator_id": vid}))
        return st, effects, vid

    def _op_accrue_epoch(self, state: BeaconState, msg: Msg, ctx: CallContext):
        """Activate due validators, open due exits, then mint epoch rewards.

        args: performance maps validator id to a factor in [0, 1], an
        int or a Fraction; missing ids default to 1. The map is only read:
        the driver sends the same one for as long as no factor can change.
        Each distinct factor is checked and floored once per derivation
        (:meth:`_reward`); any other factor raises InvalidFactor. Returns
        the total minted.

        The loop over the validators (:meth:`_derive`) runs only when its
        result can differ from the last one's: the validators list is
        another object (the beacon copies it on every write), the map's
        contents differ (:func:`factor_key`), or the epoch has reached a
        status transition of the list. Otherwise the accrual adds the kept
        reward vector to the balances.

        An ``EpochAccrual`` line is emitted only when its payload differs
        from the last one logged (``BeaconState.accrual_logged``, compared
        by value), so an accrual that rewards as the last one logged is
        the ``Call`` and its ``SupplyMint`` alone.
        """
        self._require_driver(msg)
        performance = msg.args.get("performance", {})
        key = factor_key(performance)
        accrual = self._accrual
        if accrual is not None and accrual.validators is state.validators \
                and ctx.epoch < accrual.due and accrual.key == key:
            effects = []
        else:
            accrual, effects = self._derive(state.validators, performance, key, ctx)
            self._accrual = accrual
        balances = state.balances
        if accrual.minted:
            balances = list(map(add, balances, accrual.vector))
            effects.append(Issue(accrual.minted, "epoch rewards"))
        payload, logged = accrual.payload, state.accrual_logged
        if payload is not None and payload is not logged and payload != logged:
            effects.append(Emit("EpochAccrual", payload))
            logged = payload
        return evolve(state, validators=accrual.validators, balances=balances,
                      accrual_logged=logged), effects, accrual.minted

    def _derive(self, validators: list[BeaconValidator], performance: dict, key: tuple,
                ctx: CallContext) -> tuple[Accrual, list]:
        """One pass over `validators` at the context's epoch: the accrual
        they and `performance` (whose :func:`factor_key` is `key`) give, and
        the effects of the status transitions due.

        A Pending validator whose activation epoch has come becomes Active
        (an ``Activated`` event, and ``on_validator_activated`` to a contract
        withdrawal address), and an Exiting one whose exit epoch has come
        becomes Withdrawable. The list is copied on the first transition.
        """
        # factor -> reward; only an int or a Fraction is looked up, so neither
        # a bool nor a float shares the entry of an equal exact factor.
        rewards: dict = {}
        effects = []
        vector = []
        amounts = []
        minted = 0
        now = ctx.epoch
        out = validators
        for i, v in enumerate(validators):
            status = v.status
            if status is ValidatorStatus.PENDING and v.activation_epoch <= now:
                status = ValidatorStatus.ACTIVE
                effects.append(Emit("Activated", {"id": i}))
                if ctx.is_contract(v.withdrawal_address):
                    effects.append(Call(v.withdrawal_address, "on_validator_activated"))
            elif status is ValidatorStatus.EXITING and v.exit_epoch <= now:
                status = ValidatorStatus.WITHDRAWABLE
            if status is not v.status:
                if out is validators:
                    out = list(validators)
                out[i] = evolve(v, status=status)
            if status is not ValidatorStatus.ACTIVE:
                vector.append(0)
                continue
            factor = performance.get(i, 1)
            kind = type(factor)
            reward = rewards.get(factor) if kind is int or kind is Fraction else None
            if reward is None:
                reward = self._reward(factor, rewards)
            vector.append(reward)
            minted += reward
            amounts.append([i, reward])
        payload = {"minted": minted, "amounts": amounts} if amounts else None
        return Accrual(out, key, next_transition(out, now), vector, minted, payload), effects

    def _reward(self, factor, rewards: dict) -> int:
        """floor(reward_per_epoch * factor), memoised in `rewards` under the factor.

        Raises InvalidFactor unless `factor` is an int or a Fraction in [0, 1].
        """
        kind = type(factor)
        if kind is not int and kind is not Fraction:
            raise InvalidFactor(f"performance factor {factor!r} is not an int or a Fraction")
        if not 0 <= factor <= 1:
            raise InvalidFactor(f"performance factor {factor} outside [0, 1]")
        rewards[factor] = self.params.reward_per_epoch * factor.numerator // factor.denominator
        return rewards[factor]

    def _op_slash(self, state: BeaconState, msg: Msg, ctx: CallContext):
        self._require_driver(msg)
        vid = msg.args["validator_id"]
        bps = msg.args["fraction_bps"]
        if type(bps) is not int or not 0 < bps <= 10_000:     # a bool too
            raise InvalidAmount(f"slash fraction {bps!r} bps is not an int in (0, 10000]")
        v = validator_by_id(state, vid)
        if v.status is not ValidatorStatus.ACTIVE:
            raise NotActive(f"validator {vid} is {v.status.value}")
        balances = list(state.balances)
        burned = (balances[vid] * bps) // 10_000
        balances[vid] -= burned
        validators = list(state.validators)
        validators[vid] = evolve(v, status=ValidatorStatus.EXITING,
                                 exit_epoch=ctx.epoch + self.params.exit_delay)
        st = evolve(state, validators=validators, balances=balances)
        effects = []
        if burned:
            effects.append(Destroy(burned, f"slash validator {vid}"))
        effects.append(Emit("Slashed", {
            "id": vid, "burned": burned, "fraction_bps": bps,
            "exit_epoch": ctx.epoch + self.params.exit_delay,
        }))
        if ctx.is_contract(v.withdrawal_address):
            effects.append(Call(v.withdrawal_address, "on_forced_exit"))
        return st, effects, burned

    def _op_request_exit(self, state: BeaconState, msg: Msg, ctx: CallContext):
        vid = msg.args["validator_id"]
        v = validator_by_id(state, vid)
        if msg.caller not in (v.withdrawal_address, v.operator):
            raise Unauthorized(
                f"{msg.caller} may not exit validator {vid}")
        if v.status is not ValidatorStatus.ACTIVE:
            raise WrongStatus(f"validator {vid} is {v.status.value}")
        exit_epoch = ctx.epoch + self.params.exit_delay
        validators = list(state.validators)
        validators[vid] = evolve(v, status=ValidatorStatus.EXITING, exit_epoch=exit_epoch)
        st = evolve(state, validators=validators)
        effects = [Emit("ExitRequested", {"id": vid, "by": msg.caller,
                                          "exit_epoch": exit_epoch})]
        return st, effects, exit_epoch

    def sweep_due(self, epoch: int) -> bool:
        """True on the sweep period grid, the only epochs a sweep moves anything."""
        return epoch % self.params.sweep_period == 0

    def _op_sweep(self, state: BeaconState, msg: Msg, ctx: CallContext):
        """Pay out due balances; a no-op unless :meth:`sweep_due`.

        Active validators shed only their excess over the stake
        requirement; withdrawable ones are paid out in full and become
        Withdrawn.
        """
        self._require_driver(msg)
        if not self.sweep_due(ctx.epoch):
            return state, [], 0
        stake = self.params.stake_requirement
        validators = state.validators       # copied on the first payout in full
        balances = list(state.balances)
        effects = []
        total = 0
        for i, v in enumerate(validators):
            status = v.status
            if status is ValidatorStatus.ACTIVE:
                excess = balances[i] - stake
                if excess > 0:
                    balances[i] = stake
                    effects.append(Transfer(v.withdrawal_address, excess))
                    total += excess
            elif status is ValidatorStatus.WITHDRAWABLE:
                amount = balances[i]
                balances[i] = 0
                if validators is state.validators:
                    validators = list(validators)
                validators[i] = evolve(v, status=ValidatorStatus.WITHDRAWN)
                if amount > 0:
                    effects.append(Transfer(v.withdrawal_address, amount))
                effects.append(Emit("Swept", {"id": i, "to": v.withdrawal_address,
                                              "amount": amount, "kind": "exit"}))
                effects.append(Emit("Withdrawn", {"id": i}))
                if ctx.is_contract(v.withdrawal_address):
                    effects.append(Call(v.withdrawal_address, "on_exit_swept"))
                total += amount
        return evolve(state, validators=validators, balances=balances), effects, total

    # --- helpers ----------------------------------------------------------

    def _require_driver(self, msg: Msg) -> None:
        if msg.caller != self.driver:
            raise Unauthorized(f"{msg.caller} is not the protocol driver")
