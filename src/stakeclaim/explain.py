"""The report, rebuilt from the event log alone.

A segment of quiet epochs is logged as one ``Repeat`` line
(``Ledger.advance_segment``); :func:`expand` writes each out in full, with
the ledger's own line-advancing helper (``ledger.strided``), and checks it
against the lines around it.

:func:`rebuild_report` folds the expanded lines of a run's ``events.jsonl`` into
the treasury's own state, a :class:`treasury.TreasuryState`, with the
treasury's own helpers, then reads it as the run does
(:meth:`RunReport.read`). The one input the log does not hold is the
horizon, where a finished run ends (its ``final_epoch``).

Each line changes the state as the handler that logged it did. No line
restates an amount the line right before it carries, so the fold reads
it there: ``Mint`` registers a token whose capital is the value of the
mint's ``register_nft`` ``Call`` before it, ``TransferNft`` moves a token
and settles its credit to the seller, ``Distributed`` raises N and the
fees (right after an ``ExitSettled`` it is a settlement, credited per
owner), the treasury's ``Transfer`` right after a holder's ``Call`` to
``claim`` adds to its claimed total, and one after the operator's
``Call`` to ``claim_operator_fees`` takes the fees; ``Staked``,
``PhaseChanged`` and the escrow events do the rest. A claim, a fee claim
or an escrow refund books what its line says it took, never what the
state says was due, so a tampered amount stays in the state; as a
claim's ``Transfer`` also moves the treasury's balance, the fold checks
too that it took what was due. A line the ledger writes names its sender
as its emitter: a reward receipt is a ``Call`` to ``receive_rewards``
that wallet j emits with a ``value``. ``Slashed``
and ``ExitTriggered`` give a wallet's exit cause and epoch, the beacon's
events its validator id and status (an exit due by the horizon and not
yet swept reads Withdrawable), and the holders are every name the log
endows, sees calling, names in a rejected action (its caller, and a
resale's recipient) or gives a token.

``SupplyMint``, ``SupplyBurn``, ``Transfer`` and a ``Call``'s ``value``
are replayed (:func:`ledger.replay_balances`): ``ok`` holds when the
replayed total is minted - burned, and ``replay_ok`` when no replayed
balance is negative, the treasury's is the rebuilt state's
:func:`treasury.balance_identity`, no line lies past the horizon, and
every line agrees with the state before it and with the line it
restates:

* each ``Mint`` follows the mint's paid ``register_nft`` ``Call`` and
  takes the next token id, and each ``TransferNft`` moves a token its
  seller holds;
* each ``Distributed`` follows a receipt ``Call`` (a reward) or an
  ``ExitSettled`` (a settlement), and raises N by that line's amount less
  its fee;
* a claim's ``Transfer`` pays its caller what it could claim
  (:func:`treasury.claimable_of`), and a fee claim's the fees accrued;
* a reward receipt leaves its wallet's replayed balance at 0: a wallet
  forwards all it holds, so its receipts restate the sweeps it was paid;
* ``Staked`` deploys the principal raised, ``MintAborted`` refunds it,
  each ``Deposited`` is one stake, and ``EscrowPosted`` adds its amount
  to the last total;
* an ``EpochAccrual`` rewards the Active validators, in id order, and
  its minted is their sum and, when positive, the beacon's ``SupplyMint``
  right before it; a ``Slashed`` line's burn is the ``SupplyBurn`` before
  it, and a ``Swept`` line's payout the ``Transfer`` before it, to the
  validator's wallet;
* an ``ExitSettled`` returns what its wallet's ``WithdrawalFinalized``
  did, and each states the shortfall below one stake;
* validator ids are positions, each status moves only from the one before
  it (Pending at its activation epoch, Active, Exiting once its exit is
  due), ``Withdrawn`` follows its ``Swept``, and an ``ExitTriggered``
  names its own wallet's validator.

``event_count`` counts the expanded lines, and ``events_digest`` hashes
the lines as read, each as it passes.

One name reaches the report without a line of its own: before the raise
fills, no event names a validator wallet, so a run that never stakes
rebuilds no validator rows.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator

from .beacon import ValidatorStatus
from .ledger import LEDGER_TAGS, REPEAT, REPEAT_KEYS, SYSTEM, Event, ReplayResult, replay_balances, strided
from .scenario import HORIZON_MAX, TREASURY, RunReport, is_holder_name, wallet_name
from .treasury import (CAUSE_PERFORMANCE, CAUSE_SLASHED, Phase, SettlementRecord, TreasuryState,
                       balance_identity, claimable_of, credit_settlement, moved, settle_token)


class _Fold:
    """The running state of :func:`rebuild_report`, one handler per tag (``_on``)."""

    def __init__(self):
        self.replay = ReplayResult({}, 0, 0)
        self.tst = TreasuryState()          # the treasury's facts, as its handlers keep them
        self.names: set[str] = set()
        self.wallets: dict[str, int] = {}    # wallet name -> index
        self.wallet_of: dict[int, int] = {}  # validator id -> wallet index
        self.status: dict[int, str] = {}     # validator id -> beacon status
        self.activation_at: dict[int, int] = {}  # validator id -> the epoch it activates
        self.exit_at: dict[int, int] = {}    # validator id -> the epoch its exit is due
        self.exit_epoch: dict[int, int] = {}     # wallet index -> the epoch its exit began
        self.returned: dict[str, int] = {}   # wallet name -> what its withdrawal returned
        self.stake_each = 0                  # each validator's stake, once staked
        self.last = Event(0, -1, "", "", {})     # the event before the one being folded
        self.consistent = True      # no line has disagreed with the state before it

    def step(self, e: Event) -> None:
        if e.tag in LEDGER_TAGS:
            replay_balances((e,), self.replay)
        handler = self._on.get(e.tag)
        if handler is not None:
            handler(self, e)
        self.last = e

    # --- one handler per tag ---------------------------------------------

    def _on_SupplyMint(self, e: Event) -> None:
        # the emitter: the holder an endowment credits, or (as _on_Call) a caller
        if is_holder_name(e.emitter):
            self.names.add(e.emitter)

    def _on_Call(self, e: Event) -> None:
        self._on_SupplyMint(e)
        p = e.payload
        if p["method"] == "receive_rewards" and "value" in p:     # wallet j's reward receipt
            j = self.wallets[e.emitter]
            rewards = self.tst.rewards_received
            rewards[j] = rewards.get(j, 0) + p["value"]
            # a wallet forwards all it holds, so the sweeps it got are its receipts
            self.consistent &= self.replay.balances[e.emitter] == 0

    def _on_ActionRejected(self, e: Event) -> None:
        self.names.add(e.payload["caller"])
        if "to" in e.payload:       # a resale's recipient
            self.names.add(e.payload["to"])

    def _on_Mint(self, e: Event) -> None:
        # its capital: the value of the mint's register_nft Call right before it
        p, t, last = e.payload, self.tst, self.last
        token_id = len(t.capital)       # ids are positions: the next one
        paid = (last.tag, last.emitter, last.payload.get("method")) \
            == ("Call", e.emitter, "register_nft")
        capital = last.payload.get("value", 0) if paid else 0
        if not (p["token_id"] == token_id and capital > 0):    # no token the treasury would book
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
        self.consistent &= self.tst.principal == e.payload["refunded"]
        self.tst.principal = 0

    def _on_Staked(self, e: Event) -> None:
        p = e.payload
        if p["validators"] < 1:     # no wallet for a later line to name
            raise ValueError(f"{p['validators']} validators staked")
        self.consistent &= self.tst.principal == p["validators"] * p["stake_each"]
        self.tst.principal = 0
        self.stake_each = p["stake_each"]
        self.wallets = {wallet_name(j): j for j in range(p["validators"])}

    def _on_EscrowPosted(self, e: Event) -> None:
        t, p = self.tst, e.payload
        self.consistent &= p["total"] == t.escrow_balance + p["amount"]
        t.escrow_balance = p["total"]

    def _on_EscrowRefunded(self, e: Event) -> None:
        self.tst.escrow_refunded = e.payload["amount"]
        self.tst.escrow_balance -= e.payload["amount"]

    def _on_PhaseChanged(self, e: Event) -> None:
        self.tst.phase = Phase(e.payload["to"])

    def _on_Distributed(self, e: Event) -> None:
        t, p, last = self.tst, e.payload, self.last
        q = last.payload
        settlement = last.tag == "ExitSettled"
        if settlement:                      # the pot the exit settled
            amount = q["returned"] + q["escrow_cover"] + q["penalty"]
        else:                               # a reward: the receipt Call right before it
            amount = q.get("value", 0)
            self.consistent &= (last.tag, q.get("method")) == ("Call", "receive_rewards") \
                and amount > 0
        before, t.net_total = t.net_total, p["net_total"]
        self.consistent &= t.net_total == before + amount - p["fee"]
        t.operator_fees_accrued += p["fee"]
        if settlement:
            credit_settlement(t, before)

    def _on_Transfer(self, e: Event) -> None:
        # A claim or a fee claim: the treasury's Transfer right after the
        # Call that asked for it. It books what it says it took, which must
        # be what was due: a tampered amount moves the claimed total and
        # the balance together, so balance_identity alone cannot see it.
        last = self.last
        if e.emitter != TREASURY or last.tag != "Call" or last.payload["target"] != TREASURY:
            return
        t, p, caller, method = self.tst, e.payload, last.emitter, last.payload["method"]
        if method == "claim":
            self.consistent &= p["to"] == caller and p["amount"] == claimable_of(t, caller)
            t.claimed_total = t.claimed_total.set(caller,
                                                  t.claimed_total.get(caller, 0) + p["amount"])
        elif method == "claim_operator_fees":
            self.consistent &= p["to"] == caller and p["amount"] == t.operator_fees_accrued
            t.operator_fees_accrued -= p["amount"]
            t.fees_claimed_total += p["amount"]

    def _on_Deposited(self, e: Event) -> None:
        self.consistent &= e.payload["stake"] == self.stake_each

    def _on_DepositAccepted(self, e: Event) -> None:
        vid = e.payload["id"]
        self.consistent &= vid == len(self.status)      # ids are positions: the next one
        self.wallet_of[vid] = self.wallets[e.payload["withdrawal_address"]]
        self.status[vid] = ValidatorStatus.PENDING.value
        self.activation_at[vid] = e.payload["activation_epoch"]

    def _on_Activated(self, e: Event) -> None:
        vid = e.payload["id"]
        self.consistent &= e.epoch == self.activation_at.get(vid)
        self._moves(vid, ValidatorStatus.PENDING, ValidatorStatus.ACTIVE)

    def _on_Slashed(self, e: Event) -> None:
        p = e.payload
        self.consistent &= self._follows(e, "SupplyBurn", p["burned"])
        if self._exits(e):
            j = self.wallet_of[p["id"]]
            self.tst.exit_causes[j] = CAUSE_SLASHED
            self.exit_epoch[j] = e.epoch

    def _on_ExitTriggered(self, e: Event) -> None:
        j = self.wallets[e.emitter]
        self.consistent &= self.wallet_of.get(e.payload["validator_id"]) == j
        self.tst.exit_causes[j] = CAUSE_PERFORMANCE
        self.exit_epoch[j] = e.epoch

    def _on_ExitRequested(self, e: Event) -> None:
        self._exits(e)

    def _on_Swept(self, e: Event) -> None:
        # an exit's payout: the beacon's Transfer right before it, to the validator's wallet
        p = e.payload
        self.consistent &= self._follows(e, "Transfer", p["amount"]) \
            and self.wallets.get(p["to"]) == self.wallet_of.get(p["id"])

    def _on_Withdrawn(self, e: Event) -> None:
        vid, last = e.payload["id"], self.last
        self.consistent &= last.tag == "Swept" and last.payload["id"] == vid
        if self._moves(vid, ValidatorStatus.EXITING, ValidatorStatus.WITHDRAWN):
            self.consistent &= self.exit_at[vid] <= e.epoch

    def _on_EpochAccrual(self, e: Event) -> None:
        p, active = e.payload, ValidatorStatus.ACTIVE.value
        self.consistent &= [vid for vid, _ in p["amounts"]] \
            == [vid for vid, status in self.status.items() if status == active] \
            and p["minted"] == sum(reward for _, reward in p["amounts"]) \
            and self._follows(e, "SupplyMint", p["minted"])

    def _on_WithdrawalFinalized(self, e: Event) -> None:
        p = e.payload
        self.consistent &= p["shortfall"] == max(0, self.stake_each - p["returned"])
        self.returned[e.emitter] = p["returned"]

    def _on_ExitSettled(self, e: Event) -> None:
        p = e.payload
        self.consistent &= self.returned.get(wallet_name(p["validator_index"])) == p["returned"] \
            and p["shortfall"] == max(0, self.stake_each - p["returned"])
        self.tst.settlements[p["validator_index"]] = SettlementRecord(
            p["returned"], p["shortfall"], p["escrow_cover"], p["penalty"])
        self.tst.escrow_balance -= p["escrow_cover"] + p["penalty"]

    _on = {name[4:]: f for name, f in list(vars().items()) if name.startswith("_on_")}

    def _follows(self, e: Event, tag: str, amount: int) -> bool:
        """True if `amount` is 0, or the line before `e` is a `tag` of it from `e`'s emitter."""
        last = self.last
        return amount == 0 or (last.tag, last.emitter, last.payload.get("amount")) \
            == (tag, e.emitter, amount)

    def _moves(self, vid: int, was: ValidatorStatus, to: ValidatorStatus) -> bool:
        """Move validator `vid` from status `was` to `to`; if it is not at
        `was`, the line disagrees with the state: False, and nothing moves."""
        ok = self.status.get(vid) == was.value
        if ok:
            self.status[vid] = to.value
        self.consistent &= ok
        return ok

    def _exits(self, e: Event) -> bool:
        """A Slashed or ExitRequested line: its Active validator starts its exit."""
        vid = e.payload["id"]
        if not self._moves(vid, ValidatorStatus.ACTIVE, ValidatorStatus.EXITING):
            return False
        self.exit_at[vid] = e.payload["exit_epoch"]
        return True

    def wallet_facts(self, final_epoch: int) -> Iterator[tuple[int | None, str | None, int | None]]:
        """Each wallet's (validator id, beacon status, exit epoch) at `final_epoch`."""
        ids = {j: vid for vid, j in self.wallet_of.items()}
        for j in range(len(self.wallets)):
            vid = ids.get(j)
            status = self.status.get(vid)
            if status == ValidatorStatus.EXITING.value and self.exit_at[vid] <= final_epoch:
                status = ValidatorStatus.WITHDRAWABLE.value
            yield vid, status, self.exit_epoch.get(j)


def _event(line: str) -> Event:
    """`line` decoded; ValueError if it is not a log line."""
    try:
        e = Event(**json.loads(line))
        if type(e.epoch) is int and type(e.seq) is int:
            return e
    except TypeError:       # not an object with exactly an Event's keys
        pass
    raise ValueError(f"not a log line: {line.strip()[:80]}")


def expand(lines: Iterable[str]) -> Iterator[str]:
    """The log `lines` with each ``Repeat`` line written out in full.

    A Repeat ``{"epoch":e,"seq":s,...,"payload":{"epochs":k,"lines":n,...}}``
    stands for the n lines before it repeated k times, with ``epoch``,
    ``seq`` and each further payload key advanced by 1, n and that key's
    value each time. Raises ValueError if those n lines are not exactly
    epoch e-1, all of it, up to seq s-1; if it stands for an epoch past
    ``scenario.HORIZON_MAX``, the last a run can reach, before it writes
    the first; if the line after it does not carry seq s + k·n and an
    epoch past e+k-1; or if a line is not a log line. Holds one epoch's
    lines at a time.
    """
    block: list[str] = []     # the lines of the last epoch written so far
    block_epoch = last_seq = None
    after = None              # (seq, least epoch) of the line after a Repeat
    for line in lines:
        e = _event(line)
        if after is not None and (e.seq != after[0] or e.epoch < after[1]):
            raise ValueError(f"the line at seq {e.seq} does not follow the Repeat before it")
        after = None
        if (e.emitter, e.tag) != (SYSTEM, REPEAT):
            if e.epoch != block_epoch:
                block, block_epoch = [], e.epoch
            block.append(line)
            last_seq = e.seq
            yield line
            continue
        p = e.payload
        if type(p) is not dict or not all(type(v) is int for v in p.values()):
            raise ValueError(f"the Repeat at seq {e.seq} is not a map of ints")
        k, n = p.get("epochs", 0), p.get("lines")
        if k < 1 or (n, block_epoch, last_seq) != (len(block), e.epoch - 1, e.seq - 1):
            raise ValueError(f"the Repeat at seq {e.seq} does not follow one whole epoch")
        if e.epoch + k - 1 > HORIZON_MAX:       # no run logs it, and it would write without end
            raise ValueError(f"the Repeat at seq {e.seq} runs past epoch {HORIZON_MAX}")
        strides = {key: v for key, v in p.items() if key not in REPEAT_KEYS}
        at = strided("".join(block), {"epoch": 1, "seq": n, **strides})
        for t in range(1, k + 1):
            block = at(t).splitlines(keepends=True)
            yield from block
        block_epoch, last_seq = e.epoch + k - 1, e.seq + k * n - 1
        after = (e.seq + k * n, e.epoch + k)


def rebuild_report(lines: Iterable[str], horizon: int) -> dict:
    """:meth:`RunReport.to_dict` of the run that logged `lines`, which ended at `horizon`.

    `lines` are the log's lines as ``events.jsonl`` holds them, each with
    its newline (iterating the open file, or ``splitlines(keepends=True)``);
    they are read once, each hashed as it passes into :func:`expand`.
    Raises ValueError if they do not expand (:func:`expand`), or, naming
    its seq, at the first line the fold cannot read: a field missing or of
    the wrong type, or a wallet or validator that no line before it made.
    """
    digest = hashlib.sha256()

    def hashed() -> Iterator[str]:
        for line in lines:
            digest.update(line.encode())
            yield line

    fold = _Fold()
    count = 0
    for line in expand(hashed()):
        e = _event(line)
        fold.consistent &= e.epoch <= horizon       # no line after the run ended
        try:
            fold.step(e)
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"the line at seq {e.seq} does not fold: {exc!r}") from None
        count += 1
    replay, tst = fold.replay, fold.tst
    balances = replay.balances
    final_total = sum(balances.values())
    return RunReport.read(
        tst, sorted(fold.names), fold.wallet_facts(horizon),
        horizon=horizon,
        final_epoch=horizon,
        conservation_ok=final_total == replay.minted - replay.burned,
        replay_ok=(fold.consistent and min(balances.values(), default=0) >= 0
                   and balances.get(TREASURY, 0) == balance_identity(tst)),
        minted=replay.minted,
        burned=replay.burned,
        final_total=final_total,
        event_count=count,
        events_digest=digest.hexdigest(),
    ).to_dict()
