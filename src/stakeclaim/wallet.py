"""Validator smart-contract wallet.

Custodies one validator's stake, forwards every reward that lands in its
account to the treasury, and watches its own reward stream: if the trailing
window of received rewards falls below the configured expectation, it exits
the validator on its own. Nothing on that path needs, or accepts, a
message from the operator. The operator holds a signing capability on the
beacon side (recorded at deposit) and that is the full extent of their
authority.

One ValidatorWallet object serves every wallet address, as EIP-1167
minimal proxies share one implementation: a handler reads the address it
runs at from ``msg.target``, and each address keeps its own state and balance.

``forward_rewards``, ``watchdog_check`` and ``finalize_withdrawal`` are
deliberately permissionless: any keeper may poke them, and the outcome is a
pure function of wallet state, so the poker gains nothing. Rewards land in
the wallet without running its code (as withdrawals do on Ethereum,
EIP-4895), so a keeper pokes ``forward_rewards`` only when the wallet holds
a balance: a zero forward would only record a 0 in the reward window, and
the watchdog reads a missing window slot as 0 anyway. Likewise the keeper
reads :meth:`ValidatorWallet.watchdog_shortfall` on committed state and
pokes ``watchdog_check`` only when it is not None (the split of Chainlink
Automation's ``checkUpkeep``/``performUpkeep``); the handler decides with
the same predicate and keeps every guard, so any poke stays safe. Status moves
Idle -> Deposited -> Active -> ExitRequested -> Withdrawn, never backward,
and a wallet triggers at most one exit in its lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import inf

from .beacon import BeaconParams
from .errors import BeaconNotSwept, WrongAmount, WrongCaller, WrongStatus, checked
from .ledger import Call, CallContext, Emit, Handlers, Msg, evolve
from .treasury import CAUSE_PERFORMANCE, CAUSE_SLASHED, TreasurySpec


class WalletStatus(Enum):
    IDLE = "Idle"
    DEPOSITED = "Deposited"
    ACTIVE = "Active"
    EXIT_REQUESTED = "ExitRequested"
    WITHDRAWN = "Withdrawn"


@dataclass
class WalletState:
    status: WalletStatus = WalletStatus.IDLE
    validator_id: int | None = None
    activation_epoch: int | None = None
    reward_window: dict[int, int] = field(default_factory=dict)
    last_check_epoch: int = -1
    exit_epoch: int | None = None
    settlement_ready: bool = False


class ValidatorWallet(Handlers):
    kind = "wallet"

    def __init__(self, spec: TreasurySpec, params: BeaconParams, *,
                 treasury: str, beacon: str, operator: str):
        self.spec = checked(spec)
        self.params = checked(params)
        self.treasury = treasury
        self.beacon = beacon
        self.operator = operator

    def initial_state(self) -> WalletState:
        return WalletState()

    # --- staking ------------------------------------------------------------

    def _op_deposit(self, state: WalletState, msg: Msg, ctx: CallContext):
        """Treasury-only: submit the attached stake to the beacon.

        The beacon deposit pins this wallet as the validator's immutable
        withdrawal address and hands the signing capability to the
        operator.
        """
        if msg.caller != self.treasury:
            raise WrongCaller(f"{msg.caller} is not the treasury")
        if state.status is not WalletStatus.IDLE:
            raise WrongStatus(f"wallet is {state.status.value}")
        stake = self.params.stake_requirement
        if msg.value != stake:
            raise WrongAmount(f"stake must be exactly {stake}, got {msg.value}")
        st = evolve(state, status=WalletStatus.DEPOSITED)
        effects = [
            Emit("Deposited", {"stake": msg.value}),
            Call(self.beacon, "submit_deposit",
                 {"withdrawal_address": msg.target, "operator": self.operator},
                 value=msg.value),
        ]
        return st, effects, None

    def _op_deposit_accepted(self, state: WalletState, msg: Msg, ctx: CallContext):
        self._require_beacon(msg)
        if state.status is not WalletStatus.DEPOSITED:
            raise WrongStatus(f"wallet is {state.status.value}")
        return evolve(state, validator_id=msg.args["validator_id"]), [], None

    def _op_on_validator_activated(self, state: WalletState, msg: Msg, ctx: CallContext):
        self._require_beacon(msg)
        if state.status is not WalletStatus.DEPOSITED:
            raise WrongStatus(f"wallet is {state.status.value}")
        return evolve(state, status=WalletStatus.ACTIVE,
                      activation_epoch=ctx.epoch), [], None

    # --- reward forwarding ------------------------------------------------------

    def _op_forward_rewards(self, state: WalletState, msg: Msg, ctx: CallContext):
        """Push the wallet's whole liquid balance to the treasury.

        Records the forwarded amount into the per-epoch reward window, so
        repeated calls within one epoch forward only newly arrived funds
        and accumulate into the same window slot. Once the exit sweep has
        landed, the balance is settlement money and nothing is forwarded.
        """
        if state.status not in (WalletStatus.ACTIVE, WalletStatus.EXIT_REQUESTED):
            raise WrongStatus(f"wallet is {state.status.value}")
        now = ctx.epoch
        amount = 0 if state.settlement_ready else ctx.balance_of(msg.target)
        # Only the trailing grace_epochs slots ever matter.
        cutoff = now - self.spec.grace_epochs + 1
        window = {e: r for e, r in state.reward_window.items() if e >= cutoff}
        window[now] = window.get(now, 0) + amount
        st = evolve(state, reward_window=window)
        effects = [Call(self.treasury, "receive_rewards", {}, value=amount)] if amount > 0 else []
        return st, effects, amount

    # --- the watchdog -------------------------------------------------------------

    def watchdog_shortfall(self, state: WalletState, now: int) -> tuple[int, int] | None:
        """(window_sum, threshold) if the watchdog would exit at epoch `now`, else None.

        Reads sum(window) < expected_reward_per_epoch * grace_epochs over the
        trailing grace_epochs, current epoch included. The check arms only
        once the window is fully populated since activation, so
        activation-queue delay cannot cause a spurious exit. Read-only, and
        it never raises: an Active state without an activation epoch is not
        None, so a keeper pokes it and the handler's own guard reverts.
        """
        spec = self.spec
        grace = spec.grace_epochs
        start = state.activation_epoch
        if start is not None and now - start + 1 < grace:
            return None
        # The window holds at most grace_epochs slots (forward_rewards trims
        # it), often fewer, and a missing slot reads as 0; a plain loop over
        # them is the cheapest sum, and the keeper runs this for every Active
        # wallet every epoch.
        oldest = now - grace + 1
        window_sum = 0
        for e, reward in state.reward_window.items():
            if oldest <= e <= now:
                window_sum += reward
        threshold = spec.expected_reward_per_epoch * grace
        if window_sum >= threshold and start is not None:
            return None
        return window_sum, threshold

    def quiet_until(self, state: WalletState, now: int) -> int | float:
        """The first epoch after `now` at which the keeper may have to do
        more for this Active wallet than forward what it forwarded at `now`.

        Read-only, like :meth:`watchdog_shortfall`; it assumes each later
        epoch brings the wallet what `now` did. `now` + 1 unless the window
        is steady (its trailing grace_epochs slots all hold that amount) and
        the watchdog would not act at `now`. A steady window's sum stays the
        same, so the watchdog can change its answer only by arming: never
        (inf) if the amount meets the expectation, else at the epoch it arms.
        """
        spec = self.spec
        grace = spec.grace_epochs
        window = state.reward_window
        amount = window.get(now, 0)
        for e in range(now - grace + 1, now):
            if window.get(e, 0) != amount:
                return now + 1
        if self.watchdog_shortfall(state, now) is not None:
            return now + 1
        if amount >= spec.expected_reward_per_epoch:
            return inf
        return state.activation_epoch + grace - 1

    def advance(self, state: WalletState, now: int, k: int) -> WalletState:
        """The state after k more epochs that each forward what `now` did.

        ``forward_rewards`` k times over, in closed form, for a wallet whose
        window is steady (:meth:`quiet_until`): the window's trailing
        grace_epochs slots, each holding that amount, move k epochs on.
        Nothing else in the state changes. The caller passes only a wallet
        that forwarded a nonzero amount at `now`. Pure, like a handler.
        """
        amount = state.reward_window[now]
        end = now + k
        return evolve(state, reward_window=dict.fromkeys(
            range(end - self.spec.grace_epochs + 1, end + 1), amount))

    def _op_watchdog_check(self, state: WalletState, msg: Msg, ctx: CallContext):
        """Exit autonomously when :meth:`watchdog_shortfall` says the window fell short.

        Returns "Ok" or "TriggerExit".
        """
        now = ctx.epoch
        if state.status is not WalletStatus.ACTIVE:
            raise WrongStatus(f"wallet is {state.status.value}")
        if now <= state.last_check_epoch:
            raise WrongStatus(f"watchdog already ran at epoch {state.last_check_epoch}")
        if state.activation_epoch is None:
            raise WrongStatus("wallet is Active without an activation epoch")
        shortfall = self.watchdog_shortfall(state, now)
        if shortfall is None:
            # The reward window is shared with the new state, never copied.
            return evolve(state, last_check_epoch=now), [], "Ok"
        window_sum, threshold = shortfall
        st = evolve(state, last_check_epoch=now, status=WalletStatus.EXIT_REQUESTED, exit_epoch=now)
        effects = [
            Emit("ExitTriggered", {"validator_id": st.validator_id,
                                   "window_sum": window_sum,
                                   "threshold": threshold}),
            Call(self.beacon, "request_exit", {"validator_id": st.validator_id}),
            Call(self.treasury, "on_exit_initiated", {"cause": CAUSE_PERFORMANCE}),
        ]
        return st, effects, "TriggerExit"

    def _op_on_forced_exit(self, state: WalletState, msg: Msg, ctx: CallContext):
        """Beacon notification that a slash pushed the validator out."""
        self._require_beacon(msg)
        if state.status is not WalletStatus.ACTIVE:
            raise WrongStatus(f"wallet is {state.status.value}")
        st = evolve(state, status=WalletStatus.EXIT_REQUESTED, exit_epoch=ctx.epoch)
        effects = [Call(self.treasury, "on_exit_initiated",
                        {"cause": CAUSE_SLASHED})]
        return st, effects, None

    def _op_on_exit_swept(self, state: WalletState, msg: Msg, ctx: CallContext):
        self._require_beacon(msg)
        if state.status is not WalletStatus.EXIT_REQUESTED:
            raise WrongStatus(f"wallet is {state.status.value}")
        return evolve(state, settlement_ready=True), [], None

    def _op_finalize_withdrawal(self, state: WalletState, msg: Msg, ctx: CallContext):
        """Hand everything to the treasury for settlement.

        Returns (returned, shortfall) where shortfall is what slashing ate
        out of the original stake.
        """
        if state.status is not WalletStatus.EXIT_REQUESTED:
            raise WrongStatus(f"wallet is {state.status.value}")
        if not state.settlement_ready:
            raise BeaconNotSwept("exit balance has not been swept to the wallet yet")
        returned = ctx.balance_of(msg.target)
        shortfall = max(0, self.params.stake_requirement - returned)
        st = evolve(state, status=WalletStatus.WITHDRAWN)
        effects = [
            Emit("WithdrawalFinalized", {"returned": returned, "shortfall": shortfall}),
            Call(self.treasury, "settle_exit", {}, value=returned),
        ]
        return st, effects, (returned, shortfall)

    def _require_beacon(self, msg: Msg) -> None:
        if msg.caller != self.beacon:
            raise WrongCaller(f"{msg.caller} is not the beacon")
