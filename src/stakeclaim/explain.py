"""The report, rebuilt from the event log alone.

:func:`rebuild_report` folds the lines of a run's ``events.jsonl`` into
every field of :meth:`RunReport.to_dict`. The one input the log does not
hold is the horizon, where a finished run ends (its ``final_epoch``).

Each field comes from the events that change it:

* holders: ``Mint`` gives each token's capital (their sum is S) and first
  owner, ``TransferNft`` its later owners, and ``Distributed.net_total`` N.
  Token i has earned ``floor(N * C_i / S)`` in all, credited to whoever
  owned it as N rose; ``Claimed`` splits a holder's credit into claimed
  and claimable. The ``Distributed`` right after an ``ExitSettled`` is a
  settlement, attributed per owner (``settlement_credits``). The holders
  are every name the log gives an endowment, a ``Call``, a rejected action
  or a token;
* validators: ``Staked`` gives their count, ``DepositAccepted`` each
  wallet's validator id, ``Activated``, ``Slashed``, ``ExitRequested`` and
  ``Withdrawn`` its beacon status (an exit due by the horizon and not yet
  swept reads Withdrawable), ``ExitTriggered`` (a performance exit) or
  ``Slashed`` its exit cause and epoch, and ``ExitSettled`` its settlement.
  A receipt is the ``Transfer`` right after wallet j's ``Call`` to
  ``receive_rewards``; their sum is ``rewards_received[j]``;
* the operator: ``Distributed.fee``, ``OperatorFeesClaimed`` and
  ``EscrowRefunded``; the phase: the last ``PhaseChanged``;
* conservation: ``SupplyMint``, ``SupplyBurn`` and ``Transfer`` replayed
  (:func:`ledger.replay_balances`). ``ok`` holds when the replayed total is
  minted - burned; ``replay_ok`` when no replayed balance is negative and
  the treasury's replayed balance is what the log's own accounting says it
  holds: principal + N - claimed + escrow + fees not yet claimed
  (:func:`treasury.balance_identity`, with the holders' part summed);
* ``event_count`` and ``events_digest``: the lines themselves.

Two names reach the report without a line of their own: before the raise
fills, no event names a validator wallet, so a run that never stakes
rebuilds no validator rows; and the recipient of a rejected token
transfer is not logged, so a holder named only there is missing.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable

from .beacon import ValidatorStatus
from .ledger import Event, ReplayResult, replay_balances
from .scenario import TREASURY, is_holder_name, wallet_name
from .treasury import CAUSE_PERFORMANCE, CAUSE_SLASHED, Phase, moved, split_credits

_REPLAYED = frozenset(("SupplyMint", "SupplyBurn", "Transfer"))


class _Fold:
    """The running state of :func:`rebuild_report`, one handler per tag (``_on``)."""

    def __init__(self):
        self.replay = ReplayResult({}, 0, 0)
        self.names: set[str] = set()
        self.capital: dict[int, int] = {}            # token -> its capital
        self.owned: dict[str, tuple[int, ...]] = {}  # owner -> its token ids
        self.sum_capital = 0
        self.principal = 0
        self.marks: dict[int, int] = {}      # token -> its credit already counted to an owner
        self.credit: dict[str, int] = {}     # holder -> credit counted so far
        self.claimed: dict[str, int] = {}
        self.settlement_credits: dict[str, int] = {}
        self.net_total = 0
        self.fees = self.fees_claimed = 0
        self.escrow = self.escrow_refunded = 0
        self.phase = Phase.FUNDRAISING.value
        self.wallets: dict[str, int] = {}    # wallet name -> index
        self.wallet_of: dict[int, int] = {}  # validator id -> wallet index
        self.status: dict[int, str] = {}     # validator id -> beacon status
        self.exit_at: dict[int, int] = {}    # validator id -> the epoch its exit is due
        self.exits: dict[int, tuple[str, int]] = {}   # wallet index -> (cause, epoch)
        self.rewards: dict[int, int] = {}
        self.settlements: dict[int, dict] = {}
        self.last = Event(0, -1, "", "", {})     # the event before the one being folded

    def step(self, e: Event) -> None:
        if e.tag in _REPLAYED:
            replay_balances((e,), self.replay)
        handler = self._on.get(e.tag)
        if handler is not None:
            handler(self, e)
        self.last = e

    def _count(self, token_id: int, owner: str) -> None:
        """Credit `owner` with what the token earned since its last mark."""
        total = self.net_total * self.capital[token_id] // self.sum_capital
        self.credit[owner] = self.credit.get(owner, 0) + total - self.marks.get(token_id, 0)
        self.marks[token_id] = total

    # --- one handler per tag ---------------------------------------------

    def _on_SupplyMint(self, e: Event) -> None:
        if is_holder_name(e.payload["to"]):
            self.names.add(e.payload["to"])

    def _on_Call(self, e: Event) -> None:
        if is_holder_name(e.payload["caller"]):
            self.names.add(e.payload["caller"])

    def _on_Transfer(self, e: Event) -> None:
        last = self.last
        if last.tag == "Call" and last.payload["method"] == "receive_rewards":
            j = self.wallets[last.payload["caller"]]
            self.rewards[j] = self.rewards.get(j, 0) + e.payload["amount"]

    def _on_ActionRejected(self, e: Event) -> None:
        self.names.add(e.payload["caller"])

    def _on_Mint(self, e: Event) -> None:
        p = e.payload
        self.capital[p["token_id"]] = p["capital"]
        self.owned = moved(self.owned, p["token_id"], None, p["owner"])
        self.sum_capital += p["capital"]
        self.principal += p["capital"]

    def _on_TransferNft(self, e: Event) -> None:
        p = e.payload
        token_id = p["token_id"]
        self._count(token_id, p["from"])
        self.owned = moved(self.owned, token_id, p["from"], p["to"])
        self.names.add(p["to"])

    def _on_MintAborted(self, e: Event) -> None:
        self.principal = 0

    def _on_Staked(self, e: Event) -> None:
        self.principal = 0
        self.wallets = {wallet_name(j): j for j in range(e.payload["validators"])}

    def _on_EscrowPosted(self, e: Event) -> None:
        self.escrow = e.payload["total"]

    def _on_EscrowRefunded(self, e: Event) -> None:
        self.escrow_refunded = e.payload["amount"]
        self.escrow = 0

    def _on_PhaseChanged(self, e: Event) -> None:
        self.phase = e.payload["to"]

    def _on_Distributed(self, e: Event) -> None:
        p = e.payload
        if self.last.tag == "ExitSettled":
            credits, _ = split_credits(self.net_total, p["net_total"],
                                       self.capital, self.owned, self.sum_capital)
            for owner, credit in credits.items():
                if credit:
                    self.settlement_credits[owner] = self.settlement_credits.get(owner, 0) + credit
        self.fees += p["fee"]
        self.net_total = p["net_total"]

    def _on_Claimed(self, e: Event) -> None:
        holder = e.payload["holder"]
        self.claimed[holder] = self.claimed.get(holder, 0) + e.payload["amount"]

    def _on_OperatorFeesClaimed(self, e: Event) -> None:
        self.fees_claimed += e.payload["amount"]

    def _on_DepositAccepted(self, e: Event) -> None:
        vid = e.payload["id"]
        self.wallet_of[vid] = self.wallets[e.payload["withdrawal_address"]]
        self.status[vid] = ValidatorStatus.PENDING.value

    def _on_Activated(self, e: Event) -> None:
        self.status[e.payload["id"]] = ValidatorStatus.ACTIVE.value

    def _on_Slashed(self, e: Event) -> None:
        vid = e.payload["id"]
        self.status[vid] = ValidatorStatus.EXITING.value
        self.exit_at[vid] = e.payload["exit_epoch"]
        self.exits[self.wallet_of[vid]] = (CAUSE_SLASHED, e.epoch)

    def _on_ExitTriggered(self, e: Event) -> None:
        self.exits[self.wallets[e.emitter]] = (CAUSE_PERFORMANCE, e.epoch)

    def _on_ExitRequested(self, e: Event) -> None:
        self.status[e.payload["id"]] = ValidatorStatus.EXITING.value
        self.exit_at[e.payload["id"]] = e.payload["exit_epoch"]

    def _on_Withdrawn(self, e: Event) -> None:
        self.status[e.payload["id"]] = ValidatorStatus.WITHDRAWN.value

    def _on_ExitSettled(self, e: Event) -> None:
        p = e.payload
        self.settlements[p["validator_index"]] = p
        self.escrow -= p["escrow_cover"] + p["penalty"]

    _on = {name[4:]: f for name, f in list(vars().items()) if name.startswith("_on_")}

    # --- the report --------------------------------------------------------

    def holders(self) -> list[dict]:
        for owner, tokens in self.owned.items():
            for token_id in tokens:
                self._count(token_id, owner)
        out = []
        for h in sorted(self.names):
            cap = sum(self.capital[t] for t in self.owned.get(h, ()))
            claimed = self.claimed.get(h, 0)
            settled = self.settlement_credits.get(h, 0)
            out.append({
                "holder": h,
                "capital": cap,
                "claimed": claimed,
                "claimable": self.credit.get(h, 0) - claimed,
                "settlement_credits": settled,
                "realized_loss": max(0, cap - settled) if self.phase == Phase.SETTLED.value else 0,
            })
        return out

    def validators(self, final_epoch: int) -> list[dict]:
        ids = {j: vid for vid, j in self.wallet_of.items()}
        out = []
        for j in range(len(self.wallets)):
            vid = ids.get(j)
            status = self.status.get(vid)
            if status == ValidatorStatus.EXITING.value and self.exit_at[vid] <= final_epoch:
                status = ValidatorStatus.WITHDRAWABLE.value
            cause, epoch = self.exits.get(j, (None, None))
            settlement = self.settlements.get(j, {})
            out.append({
                "index": j,
                "validator_id": vid,
                "rewards_received": self.rewards.get(j, 0),
                "beacon_status": status,
                "exit_cause": cause,
                "exit_epoch": epoch,
                "settled": j in self.settlements,
                **{key: settlement.get(key) for key in
                   ("returned", "shortfall", "escrow_cover", "penalty")},
            })
        return out


def rebuild_report(lines: Iterable[str], horizon: int) -> dict:
    """:meth:`RunReport.to_dict` of the run that logged `lines`, which ended at `horizon`.

    `lines` are the log's lines as ``events.jsonl`` holds them, each with
    its newline (iterating the open file, or ``splitlines(keepends=True)``).
    """
    fold = _Fold()
    digest = hashlib.sha256()
    count = 0
    for line in lines:
        digest.update(line.encode())
        count += 1
        fold.step(Event(**json.loads(line)))
    replay = fold.replay
    balances = replay.balances
    final_total = sum(balances.values())
    holders = fold.holders()
    treasury = (fold.principal + fold.net_total - sum(fold.claimed.values())
                + fold.escrow + fold.fees - fold.fees_claimed)
    return {
        "horizon": horizon,
        "final_epoch": horizon,
        "phase": fold.phase,
        "holders": holders,
        "operator": {
            "fees_accrued": fold.fees - fold.fees_claimed,
            "fees_claimed": fold.fees_claimed,
            "escrow_refunded": fold.escrow_refunded,
        },
        "validators": fold.validators(horizon),
        "conservation": {
            "ok": final_total == replay.minted - replay.burned,
            "replay_ok": (min(balances.values(), default=0) >= 0
                          and balances.get(TREASURY, 0) == treasury),
            "minted": replay.minted,
            "burned": replay.burned,
            "final_total": final_total,
        },
        "event_count": count,
        "events_digest": digest.hexdigest(),
    }
