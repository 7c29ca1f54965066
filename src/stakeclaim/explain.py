"""The report, rebuilt from the event log alone.

The log is a list of epoch blocks, each a header ``{"epoch":e}`` and its
event lines, and a segment of quiet epochs is one ``Repeat`` line
(``Ledger.advance_segment``). :func:`expand` is the log's one reader: it
yields each event with the epoch and seq its place gives it, decodes a
repeated block once and yields it again for each epoch, and checks each
header and ``Repeat`` against the lines around it. It also checks the
shape and the amounts of each line the ledger writes (below) where it
decodes it, so once per line of the log: a repeated block's lines are
checked once, not once per epoch they stand for.

:func:`rebuild_report` folds the events of a run's ``events.jsonl`` into
the treasury's own state, a :class:`treasury.TreasuryState`, with the
treasury's own helpers, then reads it as the run does
(:meth:`RunReport.read`). The log holds every input: its first line, and
only that one, is the ``Genesis`` line, which states the terms, each
section read through its record's declared bounds (``TreasurySpec``,
``MintSpec``, ``BeaconParams``), and the horizon the run is to reach. The
terms name the wallets, ``treasury.validators`` of them, so a run that
never stakes still has its validator rows. A log that does not begin with
``Genesis``, or holds a second one, or whose terms are out of their
bounds, does not fold. A run's last line is the ``End`` line its report
wrote, at its ``final_epoch``; a log whose last line is not one, such as
the evidence an invariant violation leaves, folds as the run cut at its
last line, whose epoch is the ``final_epoch`` (:func:`rebuild` says which
it was).

Each line changes the state as the handler that logged it did. A line
the ledger writes is read by position (``ledger.LEDGER_TAGS``): a
``Call`` is ``[target, method]``, or ``[target, method, value]`` when it
carries value, a ``Transfer`` ``[to, amount]``, a ``SupplyMint`` or
``SupplyBurn`` ``[amount, memo]``, each a list of exactly those items,
each an int or a str as named, its amount above 0, or the line does not
fold; a ``TransferBatch`` ``[[to, ...], [amount, ...]]``, two lists of
one length, is read as the ``Transfer`` lines of its pairs, in order, so
every rule below about "the ``Transfer`` before" a line reads a batch's
last pair. No line restates an amount the line right before it
carries, or a number the terms fix, so the fold reads it there: ``Mint``
registers a token whose capital is the value of the mint's ``register_nft`` ``Call`` before it;
``TransferNft`` moves a token and settles its credit to the seller; a
reward receipt, a ``Call`` to ``receive_rewards`` that wallet j emits with
a ``value``, raises N by that value less its fee and the fees by the fee,
``value * fee_bps // 10000`` as written here (the fold does not call the
treasury's rule, so a wrong rule there rebuilds another report), and
wallet j's forwarded total, which the fold keeps as the wallet does, by
the value; an
``ExitSettled`` raises N by its pot, what it returned, its escrow cover
and its penalty, with no fee, and credits it per owner; the treasury's
``Transfer`` right after a holder's ``Call`` to ``claim`` adds to its
claimed total, and one after the operator's ``Call`` to
``claim_operator_fees`` takes the fees; ``Staked``, ``PhaseChanged`` and
the escrow events do the rest. A claim, a fee claim or an escrow refund
books what its line says it took, never what the state says was due, so
a tampered amount stays in the state; as such a ``Transfer`` also moves
the treasury's balance, the fold checks too that it took what was due. A
line the ledger writes names its sender as its emitter. ``Slashed`` and
``ExitTriggered`` give a wallet's exit cause and epoch, the beacon's
events its validator id and status (an exit due by the final epoch and not
yet swept reads Withdrawable), and the holders are every name the log
endows, sees calling, names in a rejected action (its caller, and a
resale's recipient) or gives a token.

``SupplyMint``, ``SupplyBurn``, ``Transfer`` and a ``Call``'s ``value``
are replayed (:func:`ledger.replay_balances`): ``ok`` holds when the
replayed total is minted - burned, and ``replay_ok`` when no replayed
balance is negative, the treasury's is the rebuilt state's
:func:`treasury.balance_identity`, no line lies past the horizon, and
every line agrees with the state before it, with the line it restates
and with the terms:

* each ``Mint`` follows the mint's paid ``register_nft`` ``Call``, falls
  in the mint's window, pays at least its smallest contribution and takes
  the next token id, and each ``TransferNft`` moves a token its seller
  holds;
* a reward receipt leaves its wallet's replayed balance at 0: a wallet
  forwards all it holds, so its receipts restate the sweeps it was paid;
* a claim's ``Transfer`` pays its caller what it could claim
  (:func:`treasury.claimable_of`), and a fee claim's the fees accrued;
* ``Staked`` stakes the terms' validators at the stake requirement, the
  principal raised, once the escrow required is posted, each
  ``Deposited`` is one stake, and ``EscrowPosted`` adds its amount to the
  last total;
* an abort's refunds pay each token's owner its capital, in token order,
  and its ``MintAborted`` states the principal they refunded; the escrow
  refund pays the operator the escrow left;
* an accrual is the driver's ``Call`` to ``accrue_epoch`` and the beacon
  lines after it, at most one ``SupplyMint`` among them; its
  ``EpochAccrual`` line, logged only when the amounts change, rewards the
  Active validators, in id order, its minted is their sum and, when
  positive, its ``SupplyMint``, and it differs from the last one; an
  accrual without one rewards as the last one
  logged (:meth:`_Fold.carry`): their ids are the Active validators and
  their minted its ``SupplyMint``, or, with no validator Active, it mints
  nothing. The beacon accrues once an epoch, from the epoch after
  ``Staked`` until every validator is Withdrawn;
* each validator's beacon balance is rebuilt: the stake at its
  ``DepositAccepted``, plus each accrual's reward for it, less its
  ``Slashed`` burn, ``balance * fraction_bps // 10000`` and the
  ``SupplyBurn`` before it, and less its payouts. The beacon pays out on
  the sweep period's grid only, to a validator's wallet: an Active one's
  balance less the stake, an exiting one's whole balance once its exit is
  due, which a ``Swept`` line then restates, the ``Transfer`` before it;
  the beacon's replayed balance is their sum at the end of each epoch;
  and a ``TransferBatch`` holds two pairs or more;
* a ``DepositAccepted`` activates the activation delay after its epoch,
  and a ``Slashed`` or ``ExitRequested`` exit falls due the exit delay
  after its own;
* an ``ExitTriggered`` names its own wallet's validator and states the
  watchdog's threshold, the expected reward per epoch times the grace
  epochs, and its window sum, below it: the values of its wallet's
  receipts over the last grace epochs, its own included, which the fold
  keeps by epoch;
* an ``ExitSettled`` returns what its wallet's ``WithdrawalFinalized``
  did, each states the shortfall below one stake, and its cause, escrow
  cover and penalty are those the treasury settles by;
* validator ids are positions, each status moves only from the one before
  it (Pending at its activation epoch, Active, Exiting once its exit is
  due), and ``Withdrawn`` follows its ``Swept``;
* an ``End`` line is ``system``'s, with an empty payload.

``event_count`` counts the events :func:`expand` yields, and
``events_digest`` hashes the lines as read, each as it passes.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator
from operator import itemgetter
from typing import NamedTuple

from .beacon import BeaconParams, ValidatorStatus
from .errors import checked
from .ledger import (BATCH, LEDGER_TAGS, REPEAT, REPEAT_KEYS, SYSTEM, Event, ReplayResult,
                     replay_balances)
from .mint import MintSpec
from .scenario import (_RECORDS, BEACON, END, GENESIS, HORIZON_MAX, MINT, OPERATOR, TREASURY,
                       RunReport, is_holder_name, wallet_name)
from .treasury import (CAUSE_PERFORMANCE, CAUSE_SLASHED, Phase, SettlementRecord, TreasurySpec,
                       TreasuryState, balance_identity, claimable_of, credit_settlement, moved,
                       settle_token)


# What a line the fold cannot read raises in its handler: a field missing,
# of the wrong type or out of its bounds.
_UNREADABLE = (LookupError, TypeError, ValueError, AttributeError)


def _terms(p: dict) -> tuple[TreasurySpec, MintSpec, BeaconParams, int]:
    """The terms a Genesis payload states, the scenario file's sections and
    its horizon; ValueError unless each is in its declared bounds."""
    horizon = p["horizon"]
    if p.keys() != {*_RECORDS, "horizon"} or type(horizon) is not int \
            or not 0 <= horizon <= HORIZON_MAX:
        raise ValueError(f"Genesis holds {sorted(p)}, horizon {horizon!r}")
    return (*(checked(cls(**p[key])) for key, cls in _RECORDS.items()), horizon)


class _Fold:
    """The running state of :func:`rebuild_report`, one handler per tag (``_on``),
    from the terms its first line, `genesis`, states."""

    def __init__(self, genesis: Event | None):
        if genesis is None or (genesis.epoch, genesis.seq, genesis.emitter, genesis.tag) \
                != (0, 0, SYSTEM, GENESIS):
            raise ValueError("the log does not begin with its Genesis line")
        try:
            self.spec, self.mint, self.params, self.horizon = _terms(genesis.payload)
        except _UNREADABLE as exc:
            raise ValueError(f"the line at seq 0 does not fold: {exc!r}") from None
        self.replay = ReplayResult({}, 0, 0)
        self.tst = TreasuryState()          # the treasury's facts, as its handlers keep them
        self.names: set[str] = set()
        self.wallets = {wallet_name(j): j for j in range(self.spec.validators)}   # name -> index
        self.wallet_of: dict[int, int] = {}  # validator id -> wallet index
        self.vid_of: dict[int, int] = {}     # wallet index -> validator id
        self.balance: dict[int, int] = {}    # validator id -> beacon balance
        self.next_accrual: int | None = None     # the epoch of the next accrual, while one is due
        self.status: dict[int, str] = {}     # validator id -> beacon status
        self.activation_at: dict[int, int] = {}  # validator id -> the epoch it activates
        self.exit_at: dict[int, int] = {}    # validator id -> the epoch its exit is due
        self.exit_epoch: dict[int, int] = {}     # wallet index -> the epoch its exit began
        self.forwarded: dict[int, int] = {}      # wallet index -> the rewards it forwarded
        # wallet index -> epoch -> its receipts in that epoch, for its last
        # grace_epochs epochs with one: what its watchdog's window can hold
        self.windows: dict[int, dict[int, int]] = {}
        self.returned: dict[str, int] = {}   # wallet name -> what its withdrawal returned
        self.refunds: list | None = None     # an abort's (owner, capital) still to pay, last first
        self.accrual: dict | None = None     # the last EpochAccrual payload, carried forward
        self.accruing: int | None = None     # in an accrual's lines: what its SupplyMint minted
        self.last = genesis                  # the event before the one being folded
        self.consistent = True      # no line has disagreed with the state before it

    def step(self, e: Event) -> None:
        if self.accruing is not None and e.emitter != BEACON:   # past the accrual's lines
            self.carry()
        if e.epoch != self.last.epoch:
            self.end_epoch()
        if e.tag in LEDGER_TAGS:
            if e.tag == BATCH:      # its pairs, in order, as the Transfer lines they stand for
                for name, amount in zip(*e.payload):
                    self.step(Event(e.epoch, e.seq, e.emitter, "Transfer", [name, amount]))
                self.consistent &= len(e.payload[0]) > 1
                return
            replay_balances((e,), self.replay)
        handler = self._on.get(e.tag)
        if handler is not None:
            handler(self, e)
        self.last = e

    def carry(self) -> None:
        """End an accrual that logged no ``EpochAccrual``: it rewarded as
        the last one logged, so their ids are the Active validators and
        their minted its ``SupplyMint``; with none Active, it minted nothing."""
        active = [vid for vid, status in self.status.items()
                  if status == ValidatorStatus.ACTIVE.value]
        p = self.accrual
        if active:
            self.consistent &= p is not None and self.accruing == p["minted"]
            self.accrue(p, active)
        else:
            self.consistent &= self.accruing == 0
        self.accruing = None

    def accrue(self, p: dict | None, active: list[int]) -> None:
        """Reward each validator the amount an ``EpochAccrual`` payload `p`
        gives it, if it names exactly the `active` validators, in id order."""
        ok = p is not None and [vid for vid, _ in p["amounts"]] == active
        if ok:
            balance = self.balance
            for vid, reward in p["amounts"]:
                balance[vid] += reward
        self.consistent &= ok

    def end_epoch(self) -> None:
        """The beacon's vault, its replayed balance, holds its validators' balances."""
        self.consistent &= self.replay.balances.get(BEACON, 0) == sum(self.balance.values())

    # --- one handler per tag ---------------------------------------------

    def _on_Genesis(self, e: Event) -> None:
        raise ValueError("a second Genesis line")

    def _named(self, name: str) -> None:
        """A line's emitter: the holder an endowment credits, or a caller."""
        if is_holder_name(name):
            self.names.add(name)

    def _on_SupplyMint(self, e: Event) -> None:
        if e.emitter == BEACON:     # an accrual's issue, one at most
            self.consistent &= self.accruing == 0
            self.accruing = e.payload[0]
        self._named(e.emitter)

    def _on_Call(self, e: Event) -> None:
        self._named(e.emitter)
        p, t = e.payload, self.tst       # [target, method] or [target, method, value]
        method = p[1]
        if method == "receive_rewards" and len(p) == 3:     # wallet j's reward receipt
            j, value = self.wallets[e.emitter], p[2]
            fee = value * self.spec.fee_bps // 10_000
            self.forwarded[j] = self.forwarded.get(j, 0) + value
            t.net_total += value - fee
            t.operator_fees_accrued += fee
            window = self.windows.setdefault(j, {})
            window[e.epoch] = window.get(e.epoch, 0) + value
            if len(window) > self.spec.grace_epochs:    # its oldest epoch is in no window to come
                del window[next(iter(window))]
            # a wallet forwards all it holds, so the sweeps it got are its receipts
            self.consistent &= value > 0 and self.replay.balances[e.emitter] == 0
        elif method == "accrue_epoch" and p[0] == BEACON:
            # one a epoch, from the epoch after the stake while a validator is not Withdrawn
            self.consistent &= e.epoch == self.next_accrual
            self.next_accrual = e.epoch + 1
            self.accruing = 0
        elif method == "abort_refund" and p[0] == TREASURY:
            # the refunds to come: each token's capital to its owner, in token order
            self.consistent &= e.emitter == MINT
            owners = sorted((token, owner) for owner, tokens in t.owned.items() for token in tokens)
            self.refunds = [(owner, t.capital[token]) for token, owner in reversed(owners)]

    def _on_ActionRejected(self, e: Event) -> None:
        self.names.add(e.payload["caller"])
        if "to" in e.payload:       # a resale's recipient
            self.names.add(e.payload["to"])

    def _on_Mint(self, e: Event) -> None:
        # its capital: the value of the mint's register_nft Call right before it
        p, t, m, last = e.payload, self.tst, self.mint, self.last
        token_id = len(t.capital)       # ids are positions: the next one
        paid = (last.tag, last.emitter) == ("Call", e.emitter) and len(last.payload) == 3 \
            and last.payload[1] == "register_nft"
        capital = last.payload[2] if paid else 0
        if not (p["token_id"] == token_id and capital >= m.min_contribution
                and m.open_epoch <= e.epoch < m.close_epoch):   # no token the mint would issue
            self.consistent = False
            return
        t.capital = t.capital.set(token_id, capital)
        t.owned = moved(t.owned, token_id, None, p["owner"])
        t.sum_capital += capital
        t.principal += capital

    def _on_TransferNft(self, e: Event) -> None:
        p, t = e.payload, self.tst
        self.names.add(p["to"])
        if p["token_id"] not in t.owned.get(p["from"], ()):     # no such token of the seller's
            self.consistent = False
            return
        t.owned = moved(t.owned, p["token_id"], p["from"], p["to"])
        settle_token(t, p["token_id"], p["from"])

    def _on_MintAborted(self, e: Event) -> None:
        # after its abort_refund Call and every refund it owed
        self.consistent &= self.refunds == [] and self.tst.principal == e.payload["refunded"]
        self.refunds = None
        self.tst.principal = 0

    def _on_Staked(self, e: Event) -> None:
        p, t, spec = e.payload, self.tst, self.spec
        stake = self.params.stake_requirement
        self.consistent &= (p["validators"], p["stake_each"]) == (spec.validators, stake) \
            and t.principal == spec.validators * stake \
            and t.escrow_balance >= spec.escrow_required
        t.principal = 0
        self.next_accrual = e.epoch + 1

    def _on_EscrowPosted(self, e: Event) -> None:
        t, p = self.tst, e.payload
        self.consistent &= p["total"] == t.escrow_balance + p["amount"]
        t.escrow_balance = p["total"]

    def _on_EscrowRefunded(self, e: Event) -> None:
        # the escrow left, paid to the operator by the treasury's Transfer right before it
        t, amount, last = self.tst, e.payload["amount"], self.last
        self.consistent &= (last.tag, last.emitter, last.payload) \
            == ("Transfer", e.emitter, [OPERATOR, amount]) and amount == t.escrow_balance
        t.escrow_refunded = amount
        t.escrow_balance -= amount

    def _on_PhaseChanged(self, e: Event) -> None:
        self.tst.phase = Phase(e.payload["to"])

    def _on_Transfer(self, e: Event) -> None:
        # A sweep, on the sweep period's grid; an abort's refund; or a claim
        # or a fee claim, the treasury's Transfer right after the Call that
        # asked for it. A claim books what it says it took, which must be
        # what was due: a tampered amount moves the claimed total and the
        # balance together, so balance_identity alone cannot see it.
        if e.emitter == BEACON:
            self._paid_out(e)
            return
        if e.emitter != TREASURY:
            return
        t, last = self.tst, self.last
        to, amount = e.payload
        if self.refunds:
            self.consistent &= (to, amount) == self.refunds.pop()
            return
        if last.tag != "Call" or last.payload[0] != TREASURY:
            return
        caller, method = last.emitter, last.payload[1]
        if method == "claim":
            self.consistent &= to == caller and amount == claimable_of(t, caller)
            t.claimed_total = t.claimed_total.set(caller, t.claimed_total.get(caller, 0) + amount)
        elif method == "claim_operator_fees":
            self.consistent &= to == caller and amount == t.operator_fees_accrued
            t.operator_fees_accrued -= amount
            t.fees_claimed_total += amount

    def _on_Deposited(self, e: Event) -> None:
        self.consistent &= e.payload["stake"] == self.params.stake_requirement

    def _on_DepositAccepted(self, e: Event) -> None:
        p = e.payload
        vid = p["id"]
        self.consistent &= vid == len(self.status) \
            and p["activation_epoch"] == e.epoch + self.params.activation_delay
        self.wallet_of[vid] = self.wallets[p["withdrawal_address"]]
        self.vid_of[self.wallet_of[vid]] = vid
        self.balance[vid] = self.params.stake_requirement
        self.status[vid] = ValidatorStatus.PENDING.value
        self.activation_at[vid] = p["activation_epoch"]

    def _on_Activated(self, e: Event) -> None:
        vid = e.payload["id"]
        self.consistent &= e.epoch == self.activation_at.get(vid)
        self._moves(vid, ValidatorStatus.PENDING, ValidatorStatus.ACTIVE)

    def _on_Slashed(self, e: Event) -> None:
        p = e.payload
        vid, burned = p["id"], p["burned"]
        self.consistent &= self._follows(e, "SupplyBurn", burned) \
            and burned == self.balance[vid] * p["fraction_bps"] // 10_000
        self.balance[vid] -= burned
        if self._exits(e):
            j = self.wallet_of[p["id"]]
            self.tst.exit_causes = self.tst.exit_causes.set(j, CAUSE_SLASHED)
            self.exit_epoch[j] = e.epoch

    def _on_ExitTriggered(self, e: Event) -> None:
        # the watchdog's window: wallet j's receipts of the grace epochs up to this one
        j, spec, p = self.wallets[e.emitter], self.spec, e.payload
        oldest = e.epoch - spec.grace_epochs + 1
        window_sum = sum(value for epoch, value in self.windows.get(j, {}).items()
                         if epoch >= oldest)
        self.consistent &= self.wallet_of.get(p["validator_id"]) == j \
            and p["threshold"] == spec.expected_reward_per_epoch * spec.grace_epochs \
            and p["window_sum"] == window_sum < p["threshold"]
        self.tst.exit_causes = self.tst.exit_causes.set(j, CAUSE_PERFORMANCE)
        self.exit_epoch[j] = e.epoch

    def _on_ExitRequested(self, e: Event) -> None:
        self._exits(e)

    def _on_Swept(self, e: Event) -> None:
        # an exit's payout: the beacon's Transfer right before it, to the validator's wallet
        p = e.payload
        self.consistent &= self._follows(e, "Transfer", p["amount"]) \
            and self.wallets.get(p["to"]) == self.wallet_of.get(p["id"]) \
            and self.balance.get(p["id"]) == 0

    def _on_Withdrawn(self, e: Event) -> None:
        vid, last = e.payload["id"], self.last
        self.consistent &= last.tag == "Swept" and last.payload["id"] == vid
        if self._moves(vid, ValidatorStatus.EXITING, ValidatorStatus.WITHDRAWN):
            self.consistent &= self.exit_at[vid] <= e.epoch
        if all(status == ValidatorStatus.WITHDRAWN.value for status in self.status.values()):
            self.next_accrual = None        # no validator left to accrue or sweep

    def _on_EpochAccrual(self, e: Event) -> None:
        # an accrual's last line, logged when its amounts differ from the last ones
        p, active = e.payload, ValidatorStatus.ACTIVE.value
        self.consistent &= \
            p["minted"] == sum(reward for _, reward in p["amounts"]) == self.accruing \
            and p != self.accrual
        self.accrue(p, [vid for vid, status in self.status.items() if status == active])
        self.accrual = p
        self.accruing = None

    def _on_End(self, e: Event) -> None:
        self.consistent &= e.emitter == SYSTEM and e.payload == {}

    def _on_WithdrawalFinalized(self, e: Event) -> None:
        p = e.payload
        self.consistent &= p["shortfall"] == max(0, self.params.stake_requirement - p["returned"])
        self.returned[e.emitter] = p["returned"]

    def _on_ExitSettled(self, e: Event) -> None:
        # The treasury's settlement rule: escrow covers the shortfall first,
        # and a performance exit pays this validator's share of the rest as a
        # penalty. The pot raises N with no fee, credited per owner.
        p, t = e.payload, self.tst
        j, returned, cover, penalty = (p["validator_index"], p["returned"], p["escrow_cover"],
                                       p["penalty"])
        cause = t.exit_causes.get(j)
        shortfall = max(0, self.params.stake_requirement - returned)
        due = min(shortfall, t.escrow_balance)
        unsettled = self.spec.validators - len(t.settlements)
        share = (t.escrow_balance - due) // unsettled \
            if cause == CAUSE_PERFORMANCE and unsettled > 0 else 0
        self.consistent &= self.returned.get(wallet_name(j)) == returned \
            and j not in t.settlements and p["cause"] == cause \
            and (p["shortfall"], cover, penalty) == (shortfall, due, share)
        t.settlements = t.settlements.set(j, SettlementRecord(returned, p["shortfall"], cover,
                                                                penalty))
        t.escrow_balance -= cover + penalty
        before = t.net_total
        t.net_total += returned + cover + penalty
        credit_settlement(t, before)

    _on = {name[4:]: f for name, f in list(vars().items()) if name.startswith("_on_")}

    def _follows(self, e: Event, tag: str, amount: int) -> bool:
        """True if `amount` is 0, or the line before `e` is a `tag` of it
        from `e`'s emitter: a ``Transfer`` or a ``SupplyBurn``."""
        last = self.last
        return amount == 0 or (last.tag, last.emitter) == (tag, e.emitter) \
            and last.payload[_AMOUNT_AT[tag]] == amount

    def _paid_out(self, e: Event) -> None:
        """A sweep's payout, on the sweep period's grid, to a validator's
        wallet: an Active one's balance less the stake, an exiting one's
        whole balance once its exit is due."""
        to, amount = e.payload
        vid = self.vid_of.get(self.wallets.get(to))
        if vid is None:     # no validator's wallet
            self.consistent = False
            return
        status, balance = self.status[vid], self.balance[vid]
        if status == ValidatorStatus.ACTIVE.value:
            left = self.params.stake_requirement
        elif status == ValidatorStatus.EXITING.value and self.exit_at[vid] <= e.epoch:
            left = 0
        else:
            left = balance
        self.consistent &= e.epoch % self.params.sweep_period == 0 \
            and amount > 0 and amount == balance - left
        self.balance[vid] = left

    def _moves(self, vid: int, was: ValidatorStatus, to: ValidatorStatus) -> bool:
        """Move validator `vid` from status `was` to `to`; if it is not at
        `was`, the line disagrees with the state: False, and nothing moves."""
        ok = self.status.get(vid) == was.value
        if ok:
            self.status[vid] = to.value
        self.consistent &= ok
        return ok

    def _exits(self, e: Event) -> bool:
        """A Slashed or ExitRequested line: its Active validator starts its
        exit, due the exit delay after it."""
        vid = e.payload["id"]
        if not self._moves(vid, ValidatorStatus.ACTIVE, ValidatorStatus.EXITING):
            return False
        self.exit_at[vid] = e.payload["exit_epoch"]
        self.consistent &= self.exit_at[vid] == e.epoch + self.params.exit_delay
        return True

    def wallet_facts(self, final_epoch: int
                     ) -> Iterator[tuple[int | None, int, str | None, int | None]]:
        """Each wallet's (validator id, rewards forwarded, beacon status,
        exit epoch) at `final_epoch`."""
        ids = {j: vid for vid, j in self.wallet_of.items()}
        for j in range(len(self.wallets)):
            vid = ids.get(j)
            status = self.status.get(vid)
            if status == ValidatorStatus.EXITING.value and self.exit_at[vid] <= final_epoch:
                status = ValidatorStatus.WITHDRAWABLE.value
            yield vid, self.forwarded.get(j, 0), status, self.exit_epoch.get(j)


# The types, by position, of the payload of each line the ledger writes but
# a TransferBatch: a Call's value is there only when it carries one.
_SHAPES = {
    "Call": ((str, str), (str, str, int)),
    "Transfer": ((str, int),),
    "SupplyMint": ((int, str),),
    "SupplyBurn": ((int, str),),
}

# The position of the amount in each of those payloads, an int > 0 wherever
# the ledger writes one.
_AMOUNT_AT = {"Call": 2, "Transfer": 1, "SupplyMint": 0, "SupplyBurn": 0}


def _check_ledger_line(tag: str, p) -> None:
    """ValueError unless `p` is a payload the ledger writes for `tag`, one
    of ``LEDGER_TAGS``: the list of its tag's length and types, its amount
    an int > 0; a ``TransferBatch`` ``[[to, ...], [amount, ...]]``, two
    lists of one length, each pair then a ``Transfer``'s."""
    if tag == BATCH:
        if type(p) is not list or len(p) != 2 or type(p[0]) is not list \
                or type(p[1]) is not list or len(p[0]) != len(p[1]):
            raise ValueError(f"a {BATCH} is two lists, to and amount, of one length: {p!r:.80}")
        for pair in zip(*p):
            _check_ledger_line("Transfer", list(pair))
        return
    shapes = _SHAPES[tag]
    if type(p) is not list or tuple(map(type, p)) not in shapes:
        named = " or ".join(f"[{', '.join(t.__name__ for t in shape)}]" for shape in shapes)
        raise ValueError(f"a {tag} payload is {named}, not {p!r:.80}")
    at = _AMOUNT_AT[tag]
    if at < len(p) and p[at] <= 0:
        raise ValueError(f"the amount of a {tag} is an int > 0, not {p[at]!r}")


_EVENT_KEYS = {"emitter", "tag", "payload"}


def _decoded(line: str) -> dict:
    """`line` decoded: a header ``{"epoch"}``, an int >= 0, or an event
    ``{"emitter","tag","payload"}``; ValueError if it is neither."""
    d = json.loads(line)
    if type(d) is dict and (d.keys() == _EVENT_KEYS or d.keys() == {"epoch"}
                            and type(d["epoch"]) is int and d["epoch"] >= 0):
        return d
    raise ValueError(f"not a log line: {line.strip()[:80]}")


def expand(lines: Iterable[str]) -> Iterator[Event]:
    """The events of the log `lines`, each with its epoch and seq, and each
    ``Repeat`` line's events written out in full.

    A header ``{"epoch":e}`` opens the block of epoch e; the event lines
    after it, up to the next header, are that epoch's. A Repeat
    ``{"emitter":"system","tag":"Repeat","payload":{"epochs":k}}`` says that
    the last epoch's block repeats for the next k epochs: its events are
    decoded once and yielded k more times, each time one epoch later, as
    the same objects. Events after a Repeat and before the next header are
    of the last epoch it stands for. An event's seq is its position among
    the events. Raises ValueError if a line is not a header or an event
    line; if a header's epoch is not past the last epoch, that of the last
    header or of the last epoch a Repeat stands for; if a block is empty, a
    header with no event after it; if an event comes before the first
    header; if a Repeat's payload holds any other key than ``epochs`` or
    not an int >= 1, or it follows no block; if it stands for an epoch
    past ``scenario.HORIZON_MAX``, the last a run can reach, before it
    yields the first; or, naming its seq, if a line the ledger writes holds
    another payload than it writes (:func:`_check_ledger_line`), a line
    the fold cannot read. Holds one epoch's events at a time.
    """
    return map(itemgetter(0), _expanded(lines))


def _expanded(lines: Iterable[str]) -> Iterator[tuple[Event, str]]:
    """:func:`expand`'s events, each with the line that states it."""
    epoch, seq = -1, 0
    block: list | None = None     # the last epoch's (emitter, tag, payload, line); None before a header
    for line in lines:
        d = _decoded(line)
        if "epoch" in d:
            if block == []:
                raise ValueError(f"the header of epoch {epoch} opens no block")
            if d["epoch"] <= epoch:
                raise ValueError(f"the header of epoch {d['epoch']} follows epoch {epoch}")
            epoch, block = d["epoch"], []
            continue
        emitter, tag, p = d["emitter"], d["tag"], d["payload"]
        if block is None:
            raise ValueError(f"an event before the first header: {line.strip()[:80]}")
        if (emitter, tag) != (SYSTEM, REPEAT):
            if tag in LEDGER_TAGS:
                try:
                    _check_ledger_line(tag, p)
                except ValueError as exc:
                    raise ValueError(f"the line at seq {seq} does not fold: {exc!r}") from None
            block.append((emitter, tag, p, line))
            yield Event(epoch, seq, emitter, tag, p), line
            seq += 1
            continue
        if type(p) is not dict or p.keys() != REPEAT_KEYS or type(p["epochs"]) is not int \
                or p["epochs"] < 1:
            raise ValueError(f"the Repeat in epoch {epoch} is not an int epochs >= 1")
        if not block:
            raise ValueError(f"the Repeat in epoch {epoch} follows no block")
        k = p["epochs"]
        if epoch + k > HORIZON_MAX:     # no run logs it, and it would write without end
            raise ValueError(f"the Repeat in epoch {epoch} runs past epoch {HORIZON_MAX}")
        for _ in range(k):
            epoch += 1
            for emitter, tag, p, line in block:
                yield Event(epoch, seq, emitter, tag, p), line
                seq += 1
    if block == []:
        raise ValueError(f"the header of epoch {epoch} opens no block")


def event_lines(lines: Iterable[str]) -> Iterator[str]:
    """Each event of ``expand(lines)`` as one line of its own, its epoch and
    seq put in front of its event line: for a log the ledger wrote,
    ``json.dumps({"epoch","seq","emitter","tag","payload"},
    separators=(",", ":"))`` and a newline, the log of stepping every epoch
    as ``stakeclaim explain --expand`` prints it."""
    for e, line in _expanded(lines):
        body = line[1:].rstrip("\r\n")
        yield f'{{"epoch":{e.epoch},"seq":{e.seq},{body}\n'


class Rebuilt(NamedTuple):
    """A log's fold: the report, and whether the log ends with its ``End``
    line; if not, the report is that of the run cut at its last line."""

    report: dict
    ended: bool


def rebuild(lines: Iterable[str]) -> Rebuilt:
    """:meth:`RunReport.to_dict` of the run that logged `lines`, and
    whether the log ended.

    `lines` are the log's lines as ``events.jsonl`` holds them, each with
    its newline (iterating the open file, or ``splitlines(keepends=True)``);
    they are read once, each hashed as it passes into :func:`expand`.
    Raises ValueError if they do not expand (:func:`expand`), if the first
    is not a ``Genesis`` line of terms in their bounds, or, naming its seq,
    at the first line the fold cannot read: a second ``Genesis``, a field
    missing or of the wrong type, or a wallet or validator that no line
    before it made. A line the ledger writes whose payload is not the list
    of its tag's length and types, each amount above 0, does not expand,
    and its ValueError names its seq in the same words.

    A run's log ends with the ``End`` line ``World.report`` writes, at the
    final epoch. A log whose last line is no ``End``, such as the evidence
    an invariant violation leaves, folds as the run cut at its last line:
    ``final_epoch`` is that line's epoch, and ``horizon`` the one the terms
    state, which the run did not reach.
    """
    digest = hashlib.sha256()

    def hashed() -> Iterator[str]:
        for line in lines:
            digest.update(line.encode())
            yield line

    events = expand(hashed())
    fold = _Fold(next(events, None))
    horizon = fold.horizon
    count = 1
    for e in events:
        fold.consistent &= e.epoch <= horizon       # no line after the run ended
        try:
            fold.step(e)
        except _UNREADABLE as exc:
            raise ValueError(f"the line at seq {e.seq} does not fold: {exc!r}") from None
        count += 1
    if fold.accruing is not None:       # the log ends in an accrual's lines
        fold.carry()
    fold.end_epoch()
    last = fold.last
    # every epoch up to the last had its accrual, while one was due
    fold.consistent &= fold.next_accrual is None or fold.next_accrual > last.epoch
    replay, tst = fold.replay, fold.tst
    balances = replay.balances
    final_total = sum(balances.values())
    report = RunReport.read(
        tst, sorted(fold.names), fold.wallet_facts(last.epoch),
        horizon=horizon,
        final_epoch=last.epoch,
        conservation_ok=final_total == replay.minted - replay.burned,
        replay_ok=(fold.consistent and min(balances.values(), default=0) >= 0
                   and balances.get(TREASURY, 0) == balance_identity(tst)),
        minted=replay.minted,
        burned=replay.burned,
        final_total=final_total,
        event_count=count,
        events_digest=digest.hexdigest(),
    ).to_dict()
    return Rebuilt(report, (last.emitter, last.tag) == (SYSTEM, END))


def rebuild_report(lines: Iterable[str]) -> dict:
    """The report :func:`rebuild` folds from `lines`, ended or cut."""
    return rebuild(lines).report
