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

Each line changes the state as the handler that logged it did: ``Mint``
registers a token, ``TransferNft`` moves it and settles its credit to the
seller, ``Distributed`` raises N and the fees (right after an
``ExitSettled`` it is a settlement, credited per owner), ``Claimed``
settles the holder's tokens, and ``Staked``, ``PhaseChanged``, the escrow
and fee events do the rest. A claim, a fee claim or an escrow refund
subtracts what its line says it took where the handler zeroes the
balance, so a tampered amount stays in the state. A reward receipt is
the ``Transfer`` right after wallet j's ``Call`` to ``receive_rewards``.
``Slashed`` and ``ExitTriggered`` give a wallet's exit cause and epoch,
the beacon's events its validator id and status (an exit due by the
horizon and not yet swept reads Withdrawable), and the holders are every
name the log gives an endowment, a ``Call``, a rejected action or a token.

``SupplyMint``, ``SupplyBurn`` and ``Transfer`` are replayed
(:func:`ledger.replay_balances`): ``ok`` holds when the replayed total is
minted - burned, and ``replay_ok`` when no replayed balance is negative,
the treasury's is the rebuilt state's :func:`treasury.balance_identity`,
and every line agrees with the state before it: each ``Distributed``
raises N by its amount less its fee, ``Staked`` deploys the principal
raised, and ``MintAborted`` refunds it. ``event_count`` counts the
expanded lines, and ``events_digest`` hashes the text as read.

Two names reach the report without a line of their own: before the raise
fills, no event names a validator wallet, so a run that never stakes
rebuilds no validator rows; and the recipient of a rejected token
transfer is not logged, so a holder named only there is missing.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator

from .beacon import ValidatorStatus
from .ledger import REPEAT, REPEAT_KEYS, SYSTEM, Event, ReplayResult, replay_balances, strided
from .scenario import TREASURY, RunReport, is_holder_name, wallet_name
from .treasury import (CAUSE_PERFORMANCE, CAUSE_SLASHED, Phase, SettlementRecord, TreasuryState,
                       balance_identity, claimable_of, credit_settlement, moved, settle_token)

_REPLAYED = frozenset(("SupplyMint", "SupplyBurn", "Transfer"))


class _Fold:
    """The running state of :func:`rebuild_report`, one handler per tag (``_on``)."""

    def __init__(self):
        self.replay = ReplayResult({}, 0, 0)
        self.tst = TreasuryState()          # the treasury's facts, as its handlers keep them
        self.names: set[str] = set()
        self.wallets: dict[str, int] = {}    # wallet name -> index
        self.wallet_of: dict[int, int] = {}  # validator id -> wallet index
        self.status: dict[int, str] = {}     # validator id -> beacon status
        self.exit_at: dict[int, int] = {}    # validator id -> the epoch its exit is due
        self.exit_epoch: dict[int, int] = {}     # wallet index -> the epoch its exit began
        self.last = Event(0, -1, "", "", {})     # the event before the one being folded
        self.consistent = True      # no line has disagreed with the state before it

    def step(self, e: Event) -> None:
        if e.tag in _REPLAYED:
            replay_balances((e,), self.replay)
        handler = self._on.get(e.tag)
        if handler is not None:
            handler(self, e)
        self.last = e

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
            rewards = self.tst.rewards_received
            rewards[j] = rewards.get(j, 0) + e.payload["amount"]

    def _on_ActionRejected(self, e: Event) -> None:
        self.names.add(e.payload["caller"])

    def _on_Mint(self, e: Event) -> None:
        p, t = e.payload, self.tst
        t.capital[p["token_id"]] = p["capital"]
        t.owned = moved(t.owned, p["token_id"], None, p["owner"])
        t.sum_capital += p["capital"]
        t.principal += p["capital"]

    def _on_TransferNft(self, e: Event) -> None:
        p, t = e.payload, self.tst
        t.owned = moved(t.owned, p["token_id"], p["from"], p["to"])
        settle_token(t, p["token_id"], p["from"])
        self.names.add(p["to"])

    def _on_MintAborted(self, e: Event) -> None:
        self.consistent &= self.tst.principal == e.payload["refunded"]
        self.tst.principal = 0

    def _on_Staked(self, e: Event) -> None:
        p = e.payload
        self.consistent &= self.tst.principal == p["validators"] * p["stake_each"]
        self.tst.principal = 0
        self.wallets = {wallet_name(j): j for j in range(p["validators"])}

    def _on_EscrowPosted(self, e: Event) -> None:
        self.tst.escrow_balance = e.payload["total"]

    def _on_EscrowRefunded(self, e: Event) -> None:
        self.tst.escrow_refunded = e.payload["amount"]
        self.tst.escrow_balance -= e.payload["amount"]

    def _on_PhaseChanged(self, e: Event) -> None:
        self.tst.phase = Phase(e.payload["to"])

    def _on_Distributed(self, e: Event) -> None:
        t, p = self.tst, e.payload
        before, t.net_total = t.net_total, p["net_total"]
        self.consistent &= t.net_total == before + p["amount"] - p["fee"]
        t.operator_fees_accrued += p["fee"]
        if self.last.tag == "ExitSettled":
            credit_settlement(t, before)

    def _on_Claimed(self, e: Event) -> None:
        # As the claim handler, but what is left is what the holder could
        # claim less what the line says it took, not 0: a tampered amount
        # stays in the state and breaks balance_identity.
        t, h, amount = self.tst, e.payload["holder"], e.payload["amount"]
        left = claimable_of(t, h) - amount
        for token_id in t.owned.get(h, ()):
            settle_token(t, token_id, h)
        t.claimable[h] = left
        t.claimed_total[h] = t.claimed_total.get(h, 0) + amount

    def _on_OperatorFeesClaimed(self, e: Event) -> None:
        self.tst.operator_fees_accrued -= e.payload["amount"]
        self.tst.fees_claimed_total += e.payload["amount"]

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
        j = self.wallet_of[vid]
        self.tst.exit_causes[j] = CAUSE_SLASHED
        self.exit_epoch[j] = e.epoch

    def _on_ExitTriggered(self, e: Event) -> None:
        j = self.wallets[e.emitter]
        self.tst.exit_causes[j] = CAUSE_PERFORMANCE
        self.exit_epoch[j] = e.epoch

    def _on_ExitRequested(self, e: Event) -> None:
        self.status[e.payload["id"]] = ValidatorStatus.EXITING.value
        self.exit_at[e.payload["id"]] = e.payload["exit_epoch"]

    def _on_Withdrawn(self, e: Event) -> None:
        self.status[e.payload["id"]] = ValidatorStatus.WITHDRAWN.value

    def _on_ExitSettled(self, e: Event) -> None:
        p = e.payload
        self.tst.settlements[p["validator_index"]] = SettlementRecord(
            p["returned"], p["shortfall"], p["escrow_cover"], p["penalty"])
        self.tst.escrow_balance -= p["escrow_cover"] + p["penalty"]

    _on = {name[4:]: f for name, f in list(vars().items()) if name.startswith("_on_")}

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
    epoch e-1, all of it, up to seq s-1; if the line after it does not
    carry seq s + k·n and an epoch past e+k-1; or if a line is not a log
    line. Holds one epoch's lines at a time.
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
    its newline (iterating the open file, or ``splitlines(keepends=True)``).
    Raises ValueError if they do not expand (:func:`expand`).
    """
    lines = list(lines)
    fold = _Fold()
    count = 0
    for line in expand(lines):
        fold.step(_event(line))
        count += 1
    text = "".join(lines)
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
        events_digest=hashlib.sha256(text.encode()).hexdigest(),
        events_jsonl=text,
    ).to_dict()
