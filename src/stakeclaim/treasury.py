"""Token records and reward accounting for the staking arrangement.

The treasury keeps each NFT's capital (``capital``: token -> capital, the
value the mint's ``register_nft`` call paid) and who owns it
(``owned``), receives every unit a validator wallet forwards, and
accounts for it in integer arithmetic. The operator's cut of a reward
is ``amount * fee_bps // 10000``; everything else is "net" and belongs to
the token owners in proportion to contributed capital.

Holder credits are closed-form, not split eagerly. The capital map is frozen
once the phase leaves Fundraising, and distributions happen only after
that, so with N the cumulative net amount distributed (``net_total``) and
S the capital total, token i's cumulative credit is exactly::

    accrued(i) = floor(N * C_i / S)

This is the reward-per-token accumulator of Batog, Boca & Johnson
(*Scalable Reward Distribution on the Ethereum Blockchain*, 2018) in exact
integer form. A receipt only adds its net to N: no per-token work. Each
token keeps a checkpoint ``paid[i]``, the part of ``accrued(i)`` already
credited to a seller. A token is settled (the difference added to its
seller's cumulative ``credited``, the checkpoint moved up) only when it
changes hands, so every credit lands with whoever owned the token when the
distribution happened. A holder may claim ``credited`` less
``claimed_total`` plus its tokens' pending credit, found through the owner
index (``owned``: owner -> ascending token ids, the analogue of ERC-721
Enumerable's per-owner token list), the one record of who owns a token,
kept on register and transfer (:func:`moved`), so a claim costs O(owned).
These maps are SharedMaps: a write copies one chunk, so a raise of n
tokens costs O(n), not O(n^2). So are the maps written per validator (its
reward receipts, exit cause and settlement), so a receipt or an exit costs
the same at any validator count.

The undistributed sub-unit remainder is dust: ``N - sum(accrued(i))``,
always below the token count. Per distribution of ``amount`` the split is
exact::

    fee + sum(delta accrued(i)) + delta dust == amount

Exit settlements raise N the same way but take no operator fee: the fee
is defined over rewards only, so principal returns, escrow shortfall
coverage, and non-performance penalties are distributed whole. They are
the one O(tokens) step, because each owner's ``settlement_credits`` must
be attributed at that moment (:func:`split_credits`).

No line logs a distribution. The terms, ``fee_bps`` among them, are
stated once, on the run's ``Genesis`` line, and each amount once, on the
line that moves it: a reward is the value of its wallet's ``Call`` to
``receive_rewards``, and a settlement the pot its ``ExitSettled`` states.
N and the fees are a fold of those lines (``explain.rebuild_report``): N
is the running sum of the receipts' nets and the settlements' pots, and
with the tokens' capitals (the values of the mint's ``register_nft``
calls) it gives every token's credit.

Phase machine: Fundraising -> Staked -> Exiting -> Settled, never skipping
or reversing. An aborted raise refunds depositors and simply never leaves
Fundraising.

The master conservation check is :func:`balance_identity`: at rest, the
treasury's ledger balance always equals principal + sum(claimable) + dust
+ escrow_balance + operator_fees_accrued. The holder part reduces exactly
to ``sum(credited) - sum(claimed_total) + N - sum(paid)``, which is what is
computed, not shortened by ``sum(credited) == sum(paid)``: an entry of any
of the three maps off by one unit breaks it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

from .beacon import BeaconParams
from .errors import (
    UINT256_MAX,
    AlreadySettled,
    EscrowMissing,
    InvalidAmount,
    NotOperator,
    NothingToClaim,
    Underfunded,
    UnknownToken,
    UnknownValidator,
    WrongCaller,
    WrongPhase,
    WrongStatus,
    bounded,
    checked,
)
from .ledger import Call, CallContext, Emit, Handlers, Msg, SharedMap, Transfer, evolve

CAUSE_PERFORMANCE = "performance"
CAUSE_SLASHED = "slashed"


class Phase(Enum):
    FUNDRAISING = "Fundraising"
    STAKED = "Staked"
    EXITING = "Exiting"
    SETTLED = "Settled"


# Bound on TreasurySpec.validators: a World registers one wallet per
# validator and visits each every epoch.
VALIDATORS_MAX = 1024


@dataclass(frozen=True)
class TreasurySpec:
    """Arrangement terms, fixed before the mint opens; the treasury and every wallet read them."""

    fee_bps: int = bounded(0, 10_000)                          # operator fee ratio in basis points
    expected_reward_per_epoch: int = bounded(0, UINT256_MAX)   # watchdog expectation, per epoch
    grace_epochs: int = bounded(1)                             # watchdog window length
    escrow_required: int = bounded(0, UINT256_MAX)
    validators: int = bounded(1, VALIDATORS_MAX)


@dataclass(frozen=True)
class SettlementRecord:
    returned: int
    shortfall: int
    escrow_cover: int
    penalty: int


@dataclass
class TreasuryState:
    capital: SharedMap = field(default_factory=SharedMap)    # token -> its capital
    owned: SharedMap = field(default_factory=SharedMap)      # owner -> its token ids, ascending
    sum_capital: int = 0
    principal: int = 0
    operator_fees_accrued: int = 0
    fees_claimed_total: int = 0
    credited: SharedMap = field(default_factory=SharedMap)   # holder -> settled on its resales
    claimed_total: SharedMap = field(default_factory=SharedMap)
    net_total: int = 0                                        # N: cumulative net distributed
    paid: SharedMap = field(default_factory=SharedMap)       # token -> accrued already settled
    escrow_balance: int = 0
    escrow_refunded: int = 0
    phase: Phase = Phase.FUNDRAISING
    rewards_received: SharedMap = field(default_factory=SharedMap)   # wallet index -> its receipts
    exit_causes: SharedMap = field(default_factory=SharedMap)        # wallet index -> its cause
    settlements: SharedMap = field(default_factory=SharedMap)        # wallet index -> its record
    settlement_credits: dict[str, int] = field(default_factory=dict)


def balance_identity(state: TreasuryState) -> int:
    """What the treasury's ledger balance must equal at rest.

    sum(claimable) + dust == sum(credited) - sum(claimed_total) + N - sum(paid).
    """
    return (state.principal + sum(state.credited.values()) - sum(state.claimed_total.values())
            + state.net_total - sum(state.paid.values())
            + state.escrow_balance + state.operator_fees_accrued)


def accrued(state: TreasuryState, token_id: int) -> int:
    """Token's cumulative credit, settled or not: floor(N * C_i / S)."""
    return state.net_total * state.capital[token_id] // state.sum_capital


def claimable_of(state: TreasuryState, holder: str) -> int:
    """What `holder` could claim now: credited less claimed, plus its tokens' pending credit."""
    return state.credited.get(holder, 0) - state.claimed_total.get(holder, 0) + sum(
        accrued(state, t) - state.paid.get(t, 0) for t in state.owned.get(holder, ()))


def split_credits(before: int, after: int, capital: SharedMap, owned: SharedMap,
                  sum_capital: int) -> tuple[dict[str, int], int]:
    """Each owner's credit as N rises from `before` to `after`.

    Returns ({owner: credit}, undistributed). An owner's credit sums its
    tokens' credits, each floored on its own, floor(after * C_i / S) -
    floor(before * C_i / S); sum(credits) + undistributed == after - before.
    """
    capital = dict(capital.items())     # one copy at C speed, then a dict lookup per token
    credits = {owner: sum(after * capital[t] // sum_capital - before * capital[t] // sum_capital
                          for t in tokens) for owner, tokens in owned.items()}
    return credits, after - before - sum(credits.values())


def moved(owned: SharedMap, token_id: int, frm: str | None, to: str) -> SharedMap:
    """The owner index `owned` with `token_id` moved from `frm` (None for a
    fresh mint) to `to`, each owner's ids kept ascending; an owner left
    with no token leaves the index."""
    if frm is not None:
        kept = tuple(t for t in owned[frm] if t != token_id)
        owned = owned.set(frm, kept) if kept else owned.delete(frm)
    tokens = owned.get(to, ())
    i = bisect_left(tokens, token_id)
    return owned.set(to, tokens[:i] + (token_id,) + tokens[i:])


def settle_token(st: TreasuryState, token_id: int, owner: str) -> None:
    """Credit the token's pending credit to `owner`, its seller, and move
    its checkpoint, the only writes of either: new `paid` and `credited`
    maps on `st`, a new state."""
    total = accrued(st, token_id)
    due = total - st.paid.get(token_id, 0)
    if due:
        st.paid = st.paid.set(token_id, total)
        st.credited = st.credited.set(owner, st.credited.get(owner, 0) + due)


def credit_settlement(st: TreasuryState, before: int) -> None:
    """Add each owner's credit as N rose from `before` to ``st.net_total``
    to its ``settlement_credits``. Sets a fresh map on `st`, a new state."""
    credits, _ = split_credits(before, st.net_total, st.capital, st.owned, st.sum_capital)
    st.settlement_credits = dict(st.settlement_credits)
    for owner, credit in credits.items():
        if credit:
            st.settlement_credits[owner] = st.settlement_credits.get(owner, 0) + credit


class TreasuryContract(Handlers):
    kind = "treasury"

    def __init__(self, spec: TreasurySpec, params: BeaconParams, wallets: tuple[str, ...],
                 *, operator: str, mint: str):
        self.spec = checked(spec)
        self.params = checked(params)
        if len(wallets) != spec.validators:     # one wallet address per validator
            raise ValueError(f"TreasurySpec.validators {spec.validators} != {len(wallets)} wallets")
        self.validators = tuple(wallets)
        self._index = {w: j for j, w in enumerate(self.validators)}    # wallet -> its index
        self.operator = operator
        self.mint = mint                        # the only address allowed to register tokens

    def initial_state(self) -> TreasuryState:
        return TreasuryState()

    def _wallet_index(self, msg: Msg) -> int:
        """The index of the wallet that sent `msg`; UnknownValidator for any other caller."""
        j = self._index.get(msg.caller)
        if j is None:
            raise UnknownValidator(f"{msg.caller} is not a registered validator wallet")
        return j

    # --- token records (mint-only) ------------------------------------------

    def _op_register_nft(self, state: TreasuryState, msg: Msg, ctx: CallContext):
        """Book a new token with the call's value as its capital: only what was paid."""
        if msg.caller != self.mint:
            raise WrongCaller("only the mint registers tokens")
        if state.phase is not Phase.FUNDRAISING:
            raise WrongPhase(f"cannot register in phase {state.phase.value}")
        if msg.value <= 0:
            raise InvalidAmount("a token's registration must carry its capital")
        token_id, capital = msg.args["token_id"], msg.value
        return evolve(state, capital=state.capital.set(token_id, capital),
                      owned=moved(state.owned, token_id, None, msg.args["owner"]),
                      sum_capital=state.sum_capital + capital,
                      principal=state.principal + capital), [], None

    def _op_update_owner(self, state: TreasuryState, msg: Msg, ctx: CallContext):
        """Move a token from its seller, the mint's `from`, to `to`."""
        if msg.caller != self.mint:
            raise WrongCaller("only the mint moves tokens")
        token_id = msg.args["token_id"]
        frm = msg.args["from"]
        if token_id not in state.owned.get(frm, ()):
            raise UnknownToken(f"{frm} holds no token {token_id}")
        st = evolve(state, owned=moved(state.owned, token_id, frm, msg.args["to"]))
        settle_token(st, token_id, frm)
        return st, [], None

    def _op_abort_refund(self, state: TreasuryState, msg: Msg, ctx: CallContext):
        if msg.caller != self.mint:
            raise WrongCaller("only the mint aborts")
        if state.phase is not Phase.FUNDRAISING:
            raise WrongPhase(f"cannot abort in phase {state.phase.value}")
        owners = sorted((t, owner) for owner, tokens in state.owned.items() for t in tokens)
        effects = [Transfer(owner, state.capital[t]) for t, owner in owners]
        return evolve(state, principal=0), effects, None

    # --- escrow and staking -------------------------------------------------

    def _op_post_escrow(self, state: TreasuryState, msg: Msg, ctx: CallContext):
        if msg.caller != self.operator:
            raise NotOperator("only the operator posts escrow")
        if msg.value <= 0:
            raise InvalidAmount("escrow post must carry value")
        if state.phase not in (Phase.FUNDRAISING, Phase.STAKED):
            raise WrongPhase(f"cannot post escrow in phase {state.phase.value}")
        st = evolve(state, escrow_balance=state.escrow_balance + msg.value)
        return st, [Emit("EscrowPosted", {"amount": msg.value,
                                          "total": st.escrow_balance})], None

    def _op_stake_all(self, state: TreasuryState, msg: Msg, ctx: CallContext):
        """Deploy the raised principal to every validator wallet.

        Permissionless: preconditions, not the caller, gate it.
        """
        stake = self.params.stake_requirement
        escrow = self.spec.escrow_required
        if state.phase is not Phase.FUNDRAISING:
            raise WrongPhase(f"cannot stake in phase {state.phase.value}")
        target = stake * len(self.validators)
        if state.principal != target:
            raise Underfunded(f"raised {state.principal} of {target}")
        if state.escrow_balance < escrow:
            raise EscrowMissing(f"escrow {state.escrow_balance} below required {escrow}")
        st = evolve(state, principal=0, phase=Phase.STAKED)
        effects = [
            Emit("PhaseChanged", {"from": Phase.FUNDRAISING.value,
                                  "to": Phase.STAKED.value}),
            Emit("Staked", {"validators": len(self.validators), "stake_each": stake}),
        ]
        for wallet in self.validators:
            effects.append(Call(wallet, "deposit", {}, value=stake))
        return st, effects, None

    # --- reward flow ---------------------------------------------------------

    def _op_receive_rewards(self, state: TreasuryState, msg: Msg, ctx: CallContext):
        self._wallet_index(msg)
        if state.phase not in (Phase.STAKED, Phase.EXITING):
            raise WrongPhase(f"cannot receive rewards in phase {state.phase.value}")
        if msg.value <= 0:
            raise InvalidAmount("reward receipt must carry value")
        return self.advance(state, {msg.caller: msg.value}, 1), [], None

    def advance(self, state: TreasuryState, receipts: dict[str, int], k: int) -> TreasuryState:
        """The state after k epochs in each of which every wallet of
        `receipts` forwards its amount, in that order.

        The one reward-receipt rule: ``receive_rewards`` is one wallet's
        receipt at k = 1. Each receipt's fee and net are the same every
        epoch, so the reward totals, the fees and N each rise by k times one
        epoch's step. The caller sends receipts only in a phase that takes
        them, and positive amounts only. Pure, like a handler.
        """
        rewards = state.rewards_received
        fees = net = 0
        for wallet, amount in receipts.items():
            j = self._index[wallet]
            fee = (amount * self.spec.fee_bps) // 10_000
            rewards = rewards.set(j, rewards.get(j, 0) + k * amount)
            fees += fee
            net += amount - fee
        return evolve(state, rewards_received=rewards,
                      operator_fees_accrued=state.operator_fees_accrued + k * fees,
                      net_total=state.net_total + k * net)

    def _op_claim(self, state: TreasuryState, msg: Msg, ctx: CallContext):
        """Pull-payment of the caller's :func:`claimable_of`; only its ``claimed_total`` moves.

        The ``Transfer`` that pays it is the claim's one log line.
        """
        amount = claimable_of(state, msg.caller)
        if amount <= 0:
            raise NothingToClaim(f"{msg.caller} has nothing to claim")
        claimed = state.claimed_total.get(msg.caller, 0) + amount
        st = evolve(state, claimed_total=state.claimed_total.set(msg.caller, claimed))
        return st, [Transfer(msg.caller, amount)], amount

    def _op_claim_operator_fees(self, state: TreasuryState, msg: Msg, ctx: CallContext):
        if msg.caller != self.operator:
            raise NotOperator(f"{msg.caller} is not the operator")
        amount = state.operator_fees_accrued
        if amount <= 0:
            raise NothingToClaim("no fees accrued")
        st = evolve(state, operator_fees_accrued=0,
                    fees_claimed_total=state.fees_claimed_total + amount)
        return st, [Transfer(msg.caller, amount)], amount

    # --- exit path -------------------------------------------------------------

    def _op_on_exit_initiated(self, state: TreasuryState, msg: Msg, ctx: CallContext):
        j = self._wallet_index(msg)
        if j in state.exit_causes:
            raise WrongStatus(f"validator {j} already exiting")
        if state.phase not in (Phase.STAKED, Phase.EXITING):
            raise WrongPhase(f"no exits in phase {state.phase.value}")
        st = evolve(state, exit_causes=state.exit_causes.set(j, msg.args["cause"]))
        effects = []
        if st.phase is Phase.STAKED:
            st.phase = Phase.EXITING
            effects.append(Emit("PhaseChanged", {"from": Phase.STAKED.value,
                                                 "to": Phase.EXITING.value}))
        return st, effects, None

    def _op_settle_exit(self, state: TreasuryState, msg: Msg, ctx: CallContext):
        """Distribute an exited validator's returned funds to the holders.

        Shortfall against the stake requirement is absorbed by escrow first;
        a performance-triggered exit additionally pays out this validator's
        share of the remaining escrow as a penalty. No operator fee on any
        of it. When the last validator settles, leftover escrow returns to
        the operator and the phase becomes Settled.
        """
        j = self._wallet_index(msg)
        if state.phase is not Phase.EXITING:
            raise WrongPhase(f"cannot settle in phase {state.phase.value}")
        if j in state.settlements:
            raise AlreadySettled(f"validator {j} already settled")
        cause = state.exit_causes.get(j)
        if cause is None:
            raise WrongStatus(f"validator {j} never initiated an exit")

        st = evolve(state)
        returned = msg.value
        shortfall = max(0, self.params.stake_requirement - returned)
        escrow_cover = min(shortfall, st.escrow_balance)
        st.escrow_balance -= escrow_cover
        penalty = 0
        if cause == CAUSE_PERFORMANCE:
            unsettled = len(self.validators) - len(st.settlements)
            penalty = st.escrow_balance // unsettled
            st.escrow_balance -= penalty
        st.settlements = state.settlements.set(
            j, SettlementRecord(returned, shortfall, escrow_cover, penalty))

        effects = [Emit("ExitSettled", {
            "validator_index": j, "cause": cause, "returned": returned,
            "shortfall": shortfall, "escrow_cover": escrow_cover,
            "penalty": penalty,
        })]
        before = st.net_total
        st.net_total += returned + escrow_cover + penalty
        credit_settlement(st, before)

        if len(st.settlements) == len(self.validators):
            st.phase = Phase.SETTLED
            effects.append(Emit("PhaseChanged", {"from": Phase.EXITING.value,
                                                 "to": Phase.SETTLED.value}))
            if st.escrow_balance > 0:
                refund = st.escrow_balance
                st.escrow_balance = 0
                st.escrow_refunded = refund
                effects.append(Transfer(self.operator, refund))
                effects.append(Emit("EscrowRefunded", {"amount": refund}))
        return st, effects, None
