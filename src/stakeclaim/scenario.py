"""Scenario-driven runs.

A scenario describes one complete arrangement: the treasury terms, the mint
window, the consensus parameters, who deposits what and when, how well the
operator performs over time, and any slashing events. :func:`run` wires a
fresh ledger, executes epochs 0..horizon, and returns a
:class:`RunReport`.

Every epoch executes the same fixed sub-step order:

1. beacon accrual (activations and exit maturation first),
   then any slashes scheduled for this epoch; accrual and the sweep are
   sent only while some validator is not yet Withdrawn, a terminal status
   after which neither could move anything; the performance map sent
   to the accrual is rebuilt only at an epoch where some window starts or
   ends, or when the beacon has a new validator id, since no factor can
   change otherwise, and in between the same map is sent again
2. beacon sweep, on the ``sweep_period`` grid only
   (``BeaconContract.sweep_due``, the predicate the handler uses): off
   the grid a sweep moves nothing
3. wallet reward forwarding, in validator index order, for each wallet
   that holds a balance (each receipt only raises the treasury's reward
   accumulator); an empty wallet is not poked, since a zero forward moves
   nothing and the watchdog reads a missing window slot as 0
4. wallet watchdog checks, for each Active wallet whose
   ``ValidatorWallet.watchdog_shortfall`` (the predicate the handler
   decides with) is not None; a check that would return "Ok" changes
   nothing that any report or later step reads
5. exit/withdrawal settlement
6. scheduled user actions: escrow post, mint-window abort, deposits,
   token transfers, claims, and the stake trigger once the raise fills

Steps (3)-(5) visit only the wallets not yet Withdrawn: Withdrawn is a
terminal status, and a wallet leaves the walk once its
``finalize_withdrawal`` commits.

The watchdog runs after forwarding on purpose: the current epoch's rewards
count toward its window, so a healthy operator is never one epoch away
from a false trigger. Runs are fully schedule-driven, so two runs of the
same scenario produce byte-identical event logs and reports; the file's
integer ``seed`` is accepted for file compatibility and ignored.

Quiet epochs are advanced in closed form, not stepped: a next-event time
advance (Law & Kelton, *Simulation Modeling and Analysis*, ch. 1). After
each stepped epoch e, :meth:`World.run` finds the next epoch at which
anything can change (:meth:`World._quiet_span`) and advances the epochs
before it as one segment. An epoch is quiet when the sweep runs every
epoch (``sweep_period`` 1) and the raise is over; no action is scheduled
in it or at e; no window edge falls in it; no validator changes status
(``beacon.next_transition``); and every live wallet is either Active with
a steady reward window and a watchdog that cannot act
(``ValidatorWallet.quiet_until``) or gets no poke at all. The horizon
ends the span. Each quiet epoch then repeats epoch e: the same calls with
the same amounts, so the treasury's N and fees, the reward totals, the
treasury's balance and the minted total rise by the same step each epoch,
the wallets' windows slide, and the beacon's state is unchanged. The
segment's states are closed forms (``ValidatorWallet.advance``,
``TreasuryContract.advance``); each epoch's block is epoch e's own, as no
line states a running total, and its balance and supply moves k times
those epoch e's lines make (``Ledger.advance_segment``, which counts epoch
e's lines, first checks that epoch e-1's block is the same string, and
steps on if not). The log holds the segment as one ``Repeat`` line.
``explain.expand(log)`` yields the events of stepping, epochs and seqs
included; the replay and every report field but ``events_digest`` are
those of stepping.

:meth:`World.audit` runs at both ends of every segment, not at each
epoch inside it, and that is enough. Inside a segment every term of every
identity it checks is affine in the epoch: the ledger's total and the
treasury's balance rise by fixed steps, as do N and the fees in
:func:`treasury.balance_identity`, and every other term (escrow, principal,
credited, claimed, checkpoints, the beacon's vault and balances) is
constant. The difference of two affine functions is affine, and an affine
function that is zero at two distinct epochs is zero at every epoch between them.

A scenario file is a :class:`Scenario` as strict JSON, plus a ``seed``:
its keys are Scenario's fields, of which ``claims`` and ``nft_transfers``
may be left out (each defaults to none), and each section's keys are its
record class's fields. Unknown keys anywhere are rejected, and every
integer field must hold a JSON integer (not a float, a string or a
boolean). :func:`scenario_from_dict` checks the document's shape;
:func:`validate` checks every field's type and bounds, then the rules that
relate fields. Every problem in a document is reported, not just the
first.

Each integer bound is declared once, on its field (``errors.bounded``).
The sections ``treasury``, ``mint`` and ``beacon`` are the very records
the contracts read (``TreasurySpec``, ``MintSpec``, :class:`BeaconParams`),
so :func:`validate` and the contract constructors' guards check the same
declarations. Epochs are bounded by ``horizon`` and validator indices by
``treasury.validators``.

A run's log states its terms once, on its first line: the ``Genesis``
line (seq 0, from ``system``) holds those three sections, each its
record's fields, and the horizon run. Every party agreed to them before
the mint opened, as a contract's constructor arguments are public on a
chain; the schedules (deposits, operator performance, slashes, claims and
resales) are not terms, and show only through the lines they cause. The
run's report ends its log: the ``End`` line (from ``system``, with an
empty payload) at the final epoch, so a log without one is a run cut
short.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from math import inf
from operator import attrgetter
from pathlib import Path

from .beacon import BeaconContract, BeaconParams, ValidatorStatus, next_transition, validator_by_id
from .errors import UINT256_MAX, ContractError, InvalidScenario, InvariantViolation, bound_problems, bounded
from .ledger import SYSTEM, Ledger, LogText, evolve, replay_balances  # noqa: F401  (bench/tracing.py patches scenario.replay_balances)
from .mint import MintContract, MintSpec
from .treasury import (Phase, TreasuryContract, TreasurySpec, TreasuryState, balance_identity,
                       claimable_of)
from .wallet import ValidatorWallet, WalletStatus

OPERATOR = "operator"
MINT = "mint"
TREASURY = "treasury"
BEACON = "beacon"
# The fixed addresses of every World; no holder may take one.
RESERVED = frozenset((SYSTEM, OPERATOR, MINT, TREASURY, BEACON))
# Every validator wallet's address starts with it; no holder name may.
WALLET_PREFIX = "wallet:"
# The tag of a run's first line, which states its terms, and of its last,
# which ends it at the final epoch.
GENESIS = "Genesis"
END = "End"


def wallet_name(index: int) -> str:
    return f"{WALLET_PREFIX}{index}"


def is_holder_name(name) -> bool:
    """A name a holder may take: a non-empty str, neither reserved nor a wallet's."""
    return (type(name) is str and name != "" and name not in RESERVED
            and not name.startswith(WALLET_PREFIX))


# --- scenario description ----------------------------------------------------

# Bound on horizon (and on `stakeclaim run --epochs`): a stepped epoch logs
# about 0.24 kB per validator (a stepped run of the benchmark's wide
# workload at seed 0: a median block of 3,835 B over 16 validators) and
# about 0.55 kB with one, and a run with a sweep_period above 1 steps every
# epoch; a segment of quiet epochs logs one Repeat line, so quiet epochs add
# next to nothing. The benchmark's long workload runs 10,000.
HORIZON_MAX = 100_000


@dataclass(frozen=True)
class DepositAction:
    holder: str
    amount: int = bounded(1, UINT256_MAX)
    epoch: int = bounded(0, "horizon")


@dataclass(frozen=True)
class BehaviorWindow:
    """Performance factor over [from_epoch, to_epoch); to_epoch None = open-ended.

    validator None applies to every validator.
    """

    from_epoch: int = bounded(0, "horizon")
    factor: float
    to_epoch: int | None = bounded(1, default=None)     # a window ending at 0 is empty
    validator: int | None = bounded(0, "validator", default=None)

    @cached_property
    def exact_factor(self) -> int | Fraction:
        """:func:`parse_factor` of `factor`, parsed once for validate and the World."""
        return parse_factor(self.factor)


@dataclass(frozen=True)
class SlashAction:
    epoch: int = bounded(0, "horizon")
    validator: int = bounded(0, "validator")
    fraction_bps: int = bounded(1, 10_000)


@dataclass(frozen=True)
class ClaimAction:
    holder: str
    epoch: int = bounded(0, "horizon")


@dataclass(frozen=True)
class NftTransferAction:
    token_id: int = bounded(0)
    from_holder: str
    to: str
    epoch: int = bounded(0, "horizon")


@dataclass(frozen=True)
class Scenario:
    treasury: TreasurySpec
    mint: MintSpec
    beacon: BeaconParams
    deposits: tuple[DepositAction, ...]
    operator_schedule: tuple[BehaviorWindow, ...]
    slashes: tuple[SlashAction, ...]
    horizon: int = bounded(0, HORIZON_MAX)
    claims: tuple[ClaimAction, ...] = ()
    nft_transfers: tuple[NftTransferAction, ...] = ()

    @cached_property
    def holder_names(self) -> frozenset:
        """Every holder name of a deposit, claim or NFT transfer, for validate
        and the World; TypeError if one is unhashable."""
        return frozenset().union(*[map(attrgetter(name), getattr(self, where))
                                   for where, name in HOLDER_FIELDS])


# --- strict JSON loading -------------------------------------------------------

# The file's sections: each a record, or a list of records, of its class.
_RECORDS = {"treasury": TreasurySpec, "mint": MintSpec, "beacon": BeaconParams}
_LISTS = {"deposits": DepositAction, "operator_schedule": BehaviorWindow, "slashes": SlashAction,
          "claims": ClaimAction, "nft_transfers": NftTransferAction}
# Every field of a _LISTS record that names a holder, as (section, field).
HOLDER_FIELDS = (("deposits", "holder"), ("claims", "holder"),
                 ("nft_transfers", "from_holder"), ("nft_transfers", "to"))


def _name(where: str | tuple[str, int]) -> str:
    """A record's name; list items are passed as (list name, index) and
    formatted only when there is something to report."""
    return where if isinstance(where, str) else f"{where[0]}[{where[1]}]"


def _keys(cls, *extra: str) -> tuple[frozenset, frozenset]:
    """The keys of a `cls` object in a file, and those it requires."""
    return (frozenset([*(f.name for f in fields(cls)), *extra]),
            frozenset([*(f.name for f in fields(cls) if f.default is MISSING), *extra]))


# Each file object's keys, read off its dataclass; a document is a Scenario and a seed.
_KEYS = {cls: _keys(cls) for cls in (*_RECORDS.values(), *_LISTS.values())}
_KEYS[Scenario] = _keys(Scenario, "seed")


def _shape_problems(section, where: str | tuple[str, int], cls) -> list[str]:
    """Why `section` is not an object with a `cls` object's keys, if it is not."""
    if not isinstance(section, dict):
        return [f"{_name(where)} must be an object"]
    all_keys, required = _KEYS[cls]
    out = []
    if unknown := section.keys() - all_keys:
        out.append(f"unknown keys in {_name(where)}: {sorted(unknown)}")
    if missing := required - section.keys():
        out.append(f"missing keys in {_name(where)}: {sorted(missing)}")
    return out


def _record(section, where: str | tuple[str, int], cls, problems: list[str]):
    """`section` as a `cls`, or None with its shape problems appended."""
    if not (isinstance(section, dict) and section.keys() == _KEYS[cls][0]):
        if found := _shape_problems(section, where, cls):
            problems.extend(found)
            return None
    return cls(**section)


def _records(items, where: str, cls, problems: list[str]) -> tuple:
    if not isinstance(items, list):
        problems.append(f"{where} must be a list")
        return ()
    return tuple(_record(x, (where, i), cls, problems) for i, x in enumerate(items))


def scenario_from_dict(doc: dict) -> Scenario:
    """Parse a scenario document, checking its shape alone: objects, lists,
    unknown and missing keys, and ``seed`` (no record declares it). Each
    field's type and bounds are :func:`validate`'s to check.

    Every shape problem is raised in one :class:`InvalidScenario`, next to
    the bound problems of what did parse (:func:`_bound_problems`), so it
    names every mistyped bounded field too.
    """
    if problems := _shape_problems(doc, "scenario", Scenario):
        raise InvalidScenario(*problems)
    parts = {"horizon": doc["horizon"]}
    for key, cls in _RECORDS.items():
        parts[key] = _record(doc[key], key, cls, problems)
    for key, cls in _LISTS.items():
        if key in doc:
            parts[key] = _records(doc[key], key, cls, problems)
    s = Scenario(**parts)
    if type(doc["seed"]) is not int:
        problems.append(f"scenario.seed must be an integer, got {doc['seed']!r}")
    if problems:
        raise InvalidScenario(*problems, *_bound_problems(s)[0].values())
    return s


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; ValueError if a key repeats, as json keeps the last."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} repeats in one object")
        doc[key] = value
    return doc


def load_scenario(path: str | Path) -> Scenario:
    """The scenario file at `path`: JSON in UTF-8 (RFC 8259), no object repeating a key."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_object)
    except (OSError, ValueError, RecursionError) as exc:   # ValueError: bad JSON or UTF-8
        raise InvalidScenario(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(doc)


# --- semantic validation ----------------------------------------------------------

def _by_epoch(actions) -> dict[int, tuple]:
    """epoch -> the actions scheduled for it, in their original order."""
    out: dict[int, list] = {}
    for a in actions:
        out.setdefault(a.epoch, []).append(a)
    return {e: tuple(acts) for e, acts in out.items()}


# Bounds on a decimal-string performance factor, checked before Fraction
# parses it: Fraction("1e-999999999") would build 10**999999999. A float's
# decimal form (at most 24 characters, exponent within -324..308) is always
# inside both.
FACTOR_MAX_CHARS = 64
FACTOR_MAX_EXPONENT = 400
# The exponent of any string Fraction accepts (fractions._RATIONAL_FORMAT).
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_factor(factor) -> int | Fraction:
    """A window's factor as an exact int or Fraction in [0, 1], which the
    beacon is sent as it is: the one reading of a factor.

    A float or a string is read as a decimal literal through str(), so 0.3
    is 3/10, not its binary float neighbour. Raises ValueError, with a
    message that starts with "factor", unless `factor` is an int, a float,
    a Fraction or a decimal string within FACTOR_MAX_CHARS characters and a
    decimal exponent within +-FACTOR_MAX_EXPONENT, and it is in [0, 1]. A
    bool is not a number here.
    """
    kind = type(factor)
    if kind is str:
        if len(factor) > FACTOR_MAX_CHARS:
            raise ValueError(f"factor is a string of {len(factor)} characters, "
                             f"longer than {FACTOR_MAX_CHARS}")
        exp = _EXPONENT.search(factor)
        if exp and abs(int(exp.group(1))) > FACTOR_MAX_EXPONENT:
            raise ValueError(f"factor {factor!r} has a decimal exponent outside "
                             f"-{FACTOR_MAX_EXPONENT}..{FACTOR_MAX_EXPONENT}")
    elif kind is not int and kind is not float and kind is not Fraction:
        raise ValueError(f"factor {factor!r} is not a number")
    try:
        exact = factor if kind is int or kind is Fraction else Fraction(str(factor))
    except (ValueError, ZeroDivisionError):     # "abc", "1/0", nan, ...
        raise ValueError(f"factor {factor!r} is not a number") from None
    if not 0 <= exact <= 1:
        raise ValueError(f"factor {factor} outside [0, 1]")
    return exact.numerator if exact.denominator == 1 else exact


def _holder_problems(s: Scenario) -> list[str]:
    """Each holder field that is not a non-empty string clear of the reserved names.

    The distinct names are checked first: a schedule of claims and NFT
    transfers has thousands of holder fields but few names.
    """
    try:
        if all(map(is_holder_name, s.holder_names)):
            return []
    except TypeError:           # an unhashable name
        pass
    return [f"{where}[{i}].{name} {getattr(r, name)!r} is empty, reserved or not a string"
            for where, name in HOLDER_FIELDS
            for i, r in enumerate(getattr(s, where)) if not is_holder_name(getattr(r, name))]


def _bound_problems(s: Scenario) -> tuple[dict[str, str], dict]:
    """{field path: message} for each bounded field of `s` out of bounds, and
    the limits `s` sets: the horizon and the last validator index, each None
    when the field setting it is out of bounds. A record that is None (not
    parsed) is skipped, and a list item keeps its index in the document."""
    t = s.treasury
    out = {**bound_problems(s, ""), **bound_problems(t, "treasury")}
    m = None if t is None or "treasury.validators" in out else t.validators
    limits = {"horizon": None if "horizon" in out else s.horizon,
              "validator": m - 1 if m else None}
    for key in (*_RECORDS, *_LISTS):
        if key != "treasury":               # checked above: it sets a limit
            out.update(bound_problems(getattr(s, key), key, limits))
    return out, limits


def validate(s: Scenario) -> list[str]:
    """Return every constraint violation, not just the first.

    Each field's type is checked here, once: first each field's declared
    bounds (:func:`_bound_problems`, which rejects any non-int), then the
    rules that relate fields and type the rest: holder names, the mint
    window's order, the sweep period against the watchdog's window, and
    window factors (:func:`parse_factor`), ends and overlaps. A limit
    (horizon, validator count) out of its own bounds bounds nothing, and a
    field out of bounds is left out of the rules that depend on it.
    """
    t, mi = s.treasury, s.mint
    bounds, limits = _bound_problems(s)
    horizon, last = limits["horizon"], limits["validator"]
    out = [*bounds.values(), *_holder_problems(s)]

    if "mint.open_epoch" not in bounds and "mint.close_epoch" not in bounds \
            and mi.open_epoch >= mi.close_epoch:
        out.append(f"mint window invalid: open {mi.open_epoch}, close {mi.close_epoch}")
    # Rewards reach a wallet only on the sweep grid: a watchdog window
    # shorter than the period can hold none of them, and an operator paid
    # in full would be exited.
    if "beacon.sweep_period" not in bounds and "treasury.grace_epochs" not in bounds \
            and s.beacon.sweep_period > t.grace_epochs:
        out.append(f"beacon.sweep_period {s.beacon.sweep_period} is more than "
                   f"treasury.grace_epochs {t.grace_epochs}")

    windows_ok = not any(path.startswith("operator_schedule[") for path in bounds)
    for i, w in enumerate(s.operator_schedule):
        try:
            w.exact_factor              # parse_factor, once: the World reads it cached
        except ValueError as exc:
            out.append(f"operator_schedule[{i}]: {exc}")
        if w.to_epoch is not None and f"operator_schedule[{i}].from_epoch" not in bounds \
                and f"operator_schedule[{i}].to_epoch" not in bounds \
                and w.to_epoch <= w.from_epoch:
            out.append(f"operator_schedule[{i}]: empty window [{w.from_epoch}, {w.to_epoch})")
            windows_ok = False

    # Validators the schedule does not name have only the validator-null
    # windows, so the lowest of them stands for all of them.
    checked: list[int] = []
    if last is not None and windows_ok and horizon is not None:
        named = {w.validator for w in s.operator_schedule}
        named.discard(None)
        unnamed = 0
        while unnamed in named:
            unnamed += 1
        if unnamed <= last:
            named.add(unnamed)
        checked = sorted(named)
    seen_overlaps = set()
    for j in checked:
        windows = sorted((w for w in s.operator_schedule if w.validator in (None, j)),
                         key=lambda w: w.from_epoch)
        for a, b2 in zip(windows, windows[1:]):
            a_end = a.to_epoch if a.to_epoch is not None else horizon + 1
            if a_end > b2.from_epoch:
                key = (a.from_epoch, a.to_epoch, b2.from_epoch, b2.to_epoch)
                if key not in seen_overlaps:
                    seen_overlaps.add(key)
                    out.append(
                        f"operator_schedule windows overlap for validator {j}: "
                        f"[{a.from_epoch}, {a_end}) and [{b2.from_epoch}, "
                        f"{b2.to_epoch if b2.to_epoch is not None else horizon + 1})")
    return out


# --- reporting ------------------------------------------------------------------

@dataclass
class HolderReport:
    holder: str
    capital: int
    claimed: int
    claimable: int
    settlement_credits: int
    realized_loss: int


@dataclass
class ValidatorReport:
    index: int
    validator_id: int | None
    rewards_received: int
    beacon_status: str | None
    exit_cause: str | None
    exit_epoch: int | None
    settled: bool
    returned: int | None = None         # the SettlementRecord's fields, once settled
    shortfall: int | None = None
    escrow_cover: int | None = None
    penalty: int | None = None


@dataclass
class RunReport:
    """A run's outcome, and its log as it stood at :meth:`World.report`.

    The log is not held as text: the report keeps a handle on the
    ledger's log file and the file's length then (``log``), reads them
    back on the first read of :attr:`events_jsonl`, and keeps the file
    open while it lives. A
    report taken before a snapshot's restore (``tests/conftest.py``) is
    not read after it: the restored ledger writes over the file from its
    restored length.
    """

    horizon: int
    final_epoch: int
    phase: str
    holders: list[HolderReport]
    operator_fees_accrued: int
    operator_fees_claimed: int
    escrow_refunded: int
    validators: list[ValidatorReport]
    conservation_ok: bool
    replay_ok: bool
    minted: int
    burned: int
    final_total: int
    event_count: int
    events_digest: str
    # The log as it stood at report() (Ledger.log_text): the ledger's file,
    # which the report only reads, and its length then; empty for a report
    # rebuilt from a log. Equal logs have equal digests,
    # so two reports compare on those.
    log: LogText = field(default=LogText(), repr=False, compare=False)

    @cached_property
    def events_jsonl(self) -> str:
        """The whole log, read back on first read."""
        return "".join(self.log.chunks())

    @classmethod
    def read(cls, tst: TreasuryState, holders: Iterable[str],
             wallets: Iterable[tuple[int | None, int, str | None, int | None]],
             **rest) -> RunReport:
        """The report of a run whose treasury ended in `tst`.

        `holders` are the holders' names in report order, `wallets` each
        wallet's (validator id, rewards forwarded, beacon status, exit
        epoch) in index order, and `rest` the fields the treasury does not
        hold: the epochs, the conservation checks and the log. A holder's
        claimable is :func:`treasury.claimable_of`; its realized loss,
        capital not returned as settlement credit, counts only once Settled.
        """
        settled = tst.phase is Phase.SETTLED
        # Plain dicts for the per-token reads below: one C-speed copy each.
        tst = evolve(tst, capital=dict(tst.capital.items()), paid=dict(tst.paid.items()))
        rows = []
        for h in holders:
            cap = sum(tst.capital[t] for t in tst.owned.get(h, ()))
            credit = tst.settlement_credits.get(h, 0)
            rows.append(HolderReport(h, cap, tst.claimed_total.get(h, 0), claimable_of(tst, h),
                                     credit, max(0, cap - credit) if settled else 0))
        validators = []
        for j, (vid, rewards, status, exit_epoch) in enumerate(wallets):
            record = tst.settlements.get(j)
            validators.append(ValidatorReport(
                index=j, validator_id=vid, rewards_received=rewards,
                beacon_status=status, exit_cause=tst.exit_causes.get(j), exit_epoch=exit_epoch,
                settled=record is not None, **(vars(record) if record else {})))
        return cls(phase=tst.phase.value, holders=rows,
                   operator_fees_accrued=tst.operator_fees_accrued,
                   operator_fees_claimed=tst.fees_claimed_total,
                   escrow_refunded=tst.escrow_refunded, validators=validators, **rest)

    def to_dict(self) -> dict:
        # Records' fields are all scalars: copy their instance dicts, not asdict's deep copy.
        return {
            "horizon": self.horizon,
            "final_epoch": self.final_epoch,
            "phase": self.phase,
            "holders": [vars(h).copy() for h in self.holders],
            "operator": {
                "fees_accrued": self.operator_fees_accrued,
                "fees_claimed": self.operator_fees_claimed,
                "escrow_refunded": self.escrow_refunded,
            },
            "validators": [vars(v).copy() for v in self.validators],
            "conservation": {
                "ok": self.conservation_ok,
                "replay_ok": self.replay_ok,
                "minted": self.minted,
                "burned": self.burned,
                "final_total": self.final_total,
            },
            "event_count": self.event_count,
            "events_digest": self.events_digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["holder_id,capital,claimed_total,final_credit,realized_loss"]
        for h in self.holders:
            lines.append(f"{h.holder},{h.capital},{h.claimed},{h.claimable},{h.realized_loss}")
        return "\n".join(lines) + "\n"


# --- the world ----------------------------------------------------------------------

def _accruing(validators) -> bool:
    """True while the beacon has a validator not yet Withdrawn, a terminal
    status: until then steps (1) and (2) call the beacon, and after it no
    accrual or sweep can move anything."""
    return any(v.status is not ValidatorStatus.WITHDRAWN for v in validators)


class World:
    """One wired-up arrangement plus the driver that advances it. It trusts a
    scenario that passed :func:`validate`, which :func:`run` and the CLI run first."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.ledger = Ledger()
        led = self.ledger

        led.register_account(SYSTEM)
        # The terms, first: plain copies of the records' fields.
        led.emit(SYSTEM, GENESIS, {"treasury": dict(vars(scenario.treasury)),
                                   "mint": dict(vars(scenario.mint)),
                                   "beacon": dict(vars(scenario.beacon)),
                                   "horizon": scenario.horizon})
        led.register_account(OPERATOR)
        self.holders = sorted(scenario.holder_names)
        for h in self.holders:
            led.register_account(h)
        endow: dict[str, int] = {}
        for d in scenario.deposits:
            endow[d.holder] = endow.get(d.holder, 0) + d.amount
        for h in self.holders:
            if endow.get(h, 0) > 0:
                led.genesis(h, endow[h], "depositor endowment")
        if scenario.treasury.escrow_required > 0:
            led.genesis(OPERATOR, scenario.treasury.escrow_required, "operator escrow")

        b = scenario.beacon
        beacon = BeaconContract(b, driver=SYSTEM)
        led.register_contract(BEACON, beacon, issuer=True)

        # Every contract reads the scenario's own records; only the addresses
        # are added. One wallet code serves every wallet address.
        t = scenario.treasury
        self.wallets = wallets = tuple(wallet_name(j) for j in range(t.validators))
        self._wallet = ValidatorWallet(t, b, treasury=TREASURY, beacon=BEACON, operator=OPERATOR)
        for w in wallets:
            led.register_contract(w, self._wallet)
        self._treasury = TreasuryContract(t, b, wallets, operator=OPERATOR, mint=MINT)
        led.register_contract(TREASURY, self._treasury)
        # The keeper's read-only predicates: each handler's own, read on
        # committed state, so a poke is sent only when it would act.
        self._sweep_due = beacon.sweep_due
        self._shortfall = self._wallet.watchdog_shortfall
        # Steps (3)-(5) walk only the wallets not yet Withdrawn, a terminal status.
        self._live = wallets
        self._mint = MintContract(scenario.mint, t, b, treasury=TREASURY)
        led.register_contract(MINT, self._mint)

        # Each validator's windows, in schedule order, with factors parsed once.
        self._windows: list[list[tuple]] = [[] for _ in wallets]
        for w in scenario.operator_schedule:
            window = (w.from_epoch, w.to_epoch, w.exact_factor)
            for j, windows in enumerate(self._windows):
                if w.validator in (None, j):
                    windows.append(window)
        # Every factor_for(j, e) is constant between consecutive window edges.
        self._edges = sorted({e for w in scenario.operator_schedule
                              for e in (w.from_epoch, w.to_epoch) if e is not None})
        # The performance map last built, the beacon's validator count then,
        # and the first epoch at which one of its factors may change.
        self._perf: dict = {}
        self._perf_count = 0
        self._perf_until = 0
        # The log's length in events after the End line report() wrote last.
        self._ended_at = None

    # --- driving ---------------------------------------------------------

    def step(self) -> None:
        """Advance one epoch and run its sub-steps inside ``Ledger.advance_epoch``."""
        self.ledger.advance_epoch(self._epoch_substeps)

    def run(self) -> RunReport:
        led = self.ledger
        horizon = self.scenario.horizon
        self._epoch_substeps()          # epoch 0
        while led.epoch < horizon:
            self.step()
            k = self._quiet_span()
            if k:
                self._advance_segment(k)
        return self.report()

    def _quiet_span(self) -> int:
        """How many epochs after the current one are quiet; 0 if the next one must step.

        An epoch is quiet when it can only repeat the current one: the
        sweep runs every epoch and the raise is over; no action is
        scheduled, no window edge falls and no validator changes status;
        and each live wallet either is Active with a steady window and a
        watchdog that stays quiet (``ValidatorWallet.quiet_until``) or
        gets no poke at all (no balance to forward, nothing to settle).
        The horizon ends the span.

        It does not test that the current epoch repeats the one before;
        ``Ledger.advance_segment`` does, from the whole of both epochs'
        lines, and refuses the segment if not (101 of 163 over the
        acceptance corpus, the goldens and long and wide at seed 0), so
        that check is a condition of correctness, not a spare guard.
        """
        s = self.scenario
        led = self.ledger
        if s.beacon.sweep_period != 1 or led.contract_state(TREASURY).phase is Phase.FUNDRAISING:
            return 0
        e = led.epoch
        actions = self._action_epochs
        i = bisect_left(actions, e)     # an action at e would be repeated with its lines
        bst = led.contract_state(BEACON)
        # A window edge matters only while step (1) sends the performance map.
        end = min(s.horizon + 1, self._perf_until if _accruing(bst.validators) else inf,
                  actions[i] if i < len(actions) else inf, next_transition(bst.validators, e))
        for w in self._live:
            if end <= e + 1:
                return 0
            wst = led.contract_state(w)
            if wst.status is WalletStatus.ACTIVE:
                end = min(end, self._wallet.quiet_until(wst, e))
            elif wst.settlement_ready or led.balance_of(w):
                return 0
        return max(0, end - e - 1)

    def _advance_segment(self, k: int) -> None:
        """Advance the k quiet epochs after the current one, which each
        repeat it, in closed form (``Ledger.advance_segment``), then audit.

        Each epoch, every Active wallet's validator earns what it forwarded
        in the current epoch: the beacon mints it and sweeps it to the
        wallet, which forwards it to the treasury. So only the wallets that
        forwarded (``ValidatorWallet.advance``) and the treasury
        (``TreasuryContract.advance``, from those receipts) change state;
        the beacon's state is the same after each such epoch. The ledger
        moves the balances and the supply as the current epoch's lines say,
        so the audit's treasury identity checks the treasury's closed form
        against the log. If the ledger refuses the segment (see
        :meth:`_quiet_span`), nothing changes and no audit runs.
        """
        led = self.ledger
        e = led.epoch
        amounts = []
        states = {}
        for w in self._live:
            wst = led.contract_state(w)
            amount = wst.reward_window.get(e, 0) if wst.status is WalletStatus.ACTIVE else 0
            if amount:
                amounts.append(amount)
                states[w] = self._wallet.advance(wst, e, k)
        states[TREASURY] = self._treasury.advance(led.contract_state(TREASURY), amounts, k)
        if led.advance_segment(k, states):
            self.audit()

    @cached_property
    def _schedule(self) -> tuple[dict[int, tuple], ...]:
        """Slashes, deposits, NFT transfers and claims, each by epoch.

        Within an epoch, actions keep their list order. Built on the first
        epoch a run executes rather than in __init__: only a run reads it,
        and constructing a World stays as cheap as before.
        """
        s = self.scenario
        return tuple(_by_epoch(actions)
                     for actions in (s.slashes, s.deposits, s.nft_transfers, s.claims))

    @cached_property
    def _action_epochs(self) -> list[int]:
        """Every epoch with a scheduled slash, deposit, NFT transfer or claim, ascending."""
        return sorted(set().union(*self._schedule))

    def _epoch_substeps(self) -> None:
        led = self.ledger
        e = led.epoch
        s = self.scenario
        slashes_at, deposits_at, transfers_at, claims_at = self._schedule

        # (1) accrual, then scheduled slashes
        validators = led.contract_state(BEACON).validators
        accruing = _accruing(validators)
        if accruing:
            led.call(SYSTEM, BEACON, "accrue_epoch",
                     {"performance": self._performance(e, len(validators))})
        for sl in slashes_at.get(e, ()):
            wst = led.contract_state(self.wallets[sl.validator])
            if wst.validator_id is None:
                continue
            v = validator_by_id(led.contract_state(BEACON), wst.validator_id)
            if v.status is ValidatorStatus.ACTIVE:
                led.call(SYSTEM, BEACON, "slash",
                         {"validator_id": wst.validator_id,
                          "fraction_bps": sl.fraction_bps})

        # (2) sweep, on the sweep period grid only
        if accruing and self._sweep_due(e):
            led.call(SYSTEM, BEACON, "sweep", {})

        # (3) reward forwarding, only from wallets that hold something; the
        # balance is read first, as most epochs bring a wallet nothing
        live = self._live
        for w in live:
            if led.balance_of(w):
                wst = led.contract_state(w)
                if wst.status in (WalletStatus.ACTIVE, WalletStatus.EXIT_REQUESTED) \
                        and not wst.settlement_ready:
                    led.call(SYSTEM, w, "forward_rewards", {})

        # (4) watchdogs, only where the check would exit (or revert)
        for w in live:
            wst = led.contract_state(w)
            if wst.status is WalletStatus.ACTIVE and self._shortfall(wst, e) is not None:
                led.call(SYSTEM, w, "watchdog_check", {})

        # (5) settlements; a wallet leaves the walk once its settlement commits
        settled = []
        for w in live:
            wst = led.contract_state(w)
            if wst.status is WalletStatus.EXIT_REQUESTED and wst.settlement_ready:
                led.call(SYSTEM, w, "finalize_withdrawal", {})
                settled.append(w)
        if settled:
            self._live = tuple(w for w in live if w not in settled)

        # (6) scheduled user actions
        if e == 0 and s.treasury.escrow_required > 0:
            led.call(OPERATOR, TREASURY, "post_escrow", {},
                     value=s.treasury.escrow_required)
        mst = led.contract_state(MINT)
        if (led.contract_state(TREASURY).phase is Phase.FUNDRAISING
                and not mst.aborted and e >= s.mint.close_epoch
                and mst.minted_total < self._mint.target):
            led.call(SYSTEM, MINT, "abort", {})
        for d in deposits_at.get(e, ()):
            self._try(d.holder, MINT, "mint", {}, value=d.amount)
        for tr in transfers_at.get(e, ()):
            self._try(tr.from_holder, MINT, "transfer_nft",
                      {"token_id": tr.token_id, "to": tr.to})
        for c in claims_at.get(e, ()):
            self._try(c.holder, TREASURY, "claim", {})
        mst = led.contract_state(MINT)
        tst = led.contract_state(TREASURY)
        if (tst.phase is Phase.FUNDRAISING and not mst.aborted
                and mst.minted_total == self._mint.target
                and tst.escrow_balance >= s.treasury.escrow_required):
            led.call(SYSTEM, TREASURY, "stake_all", {})

        self.audit()

    def _try(self, caller: str, target: str, method: str, args: dict,
             value: int = 0) -> None:
        """Attempt a scheduled action; a rejection is recorded, with its
        args (a resale's ``token_id`` and ``to``), not fatal."""
        try:
            self.ledger.call(caller, target, method, args, value=value)
        except ContractError as exc:
            self.ledger.emit(SYSTEM, "ActionRejected", {
                "action": method, "caller": caller, "reason": type(exc).__name__, **args,
            })

    def _performance(self, e: int, count: int) -> dict:
        """validator id -> factor at epoch e: the map step (1) sends.

        Rebuilt (:meth:`_performance_at`) only when it can change: at the
        first window edge after the epoch it was built at, or when the
        beacon's validator count (`count`) differs from the one it was
        built with, as each new id is a wallet's. Otherwise the map last
        sent is sent again; the beacon only reads it. Epochs only move
        forward on the World's ledger.
        """
        if count != self._perf_count or e >= self._perf_until:
            self._perf = self._performance_at(e)
            self._perf_count = count
            edges = self._edges
            i = bisect_right(edges, e)
            self._perf_until = edges[i] if i < len(edges) else inf
        return self._perf

    def _performance_at(self, e: int) -> dict:
        """validator id -> :meth:`factor_for` at epoch e, for each wallet holding an id."""
        led = self.ledger
        perf = {}
        for j, w in enumerate(self.wallets):
            wst = led.contract_state(w)
            if wst.validator_id is not None:
                perf[wst.validator_id] = self.factor_for(j, e)
        return perf

    def factor_for(self, j: int, epoch: int) -> int | Fraction:
        """Performance factor for validator index j at an epoch; default 1.

        The first window in schedule order that covers the epoch wins; its
        factor is the window's :attr:`BehaviorWindow.exact_factor`.
        """
        for start, end, factor in self._windows[j]:
            if start <= epoch and (end is None or epoch < end):
                return factor
        return 1

    # --- live invariants -----------------------------------------------------

    def audit(self) -> None:
        """Conservation and accounting identities, checked every epoch."""
        led = self.ledger
        total = led.total_balance()
        if total != led.minted_total - led.burned_total:
            raise InvariantViolation(
                f"epoch {led.epoch}: total {total} != minted {led.minted_total} "
                f"- burned {led.burned_total}")

        tst = led.contract_state(TREASURY)
        if led.balance_of(TREASURY) != balance_identity(tst):
            raise InvariantViolation(
                f"epoch {led.epoch}: treasury balance {led.balance_of(TREASURY)} != "
                f"identity {balance_identity(tst)}")
        bst = led.contract_state(BEACON)
        vault = sum(bst.balances)
        if led.balance_of(BEACON) != vault:
            raise InvariantViolation(
                f"epoch {led.epoch}: beacon vault {led.balance_of(BEACON)} != "
                f"validator balances {vault}")

    # --- report ------------------------------------------------------------------

    def report(self) -> RunReport:
        """The run's report, at the current epoch. The log ends with an
        ``End`` line at that epoch, unless it already does: a world stepped
        on after a report logs on after its ``End``, and ends again at its
        next report."""
        led = self.ledger
        if led.event_count != self._ended_at:
            led.emit(SYSTEM, END, {})
            self._ended_at = led.event_count
        bst = led.contract_state(BEACON)
        wallets = []
        for w in self.wallets:
            wst = led.contract_state(w)
            vid = wst.validator_id
            status = None if vid is None else validator_by_id(bst, vid).status.value
            wallets.append((vid, wst.forwarded, status, wst.exit_epoch))

        # The ledger folded every flushed batch as it committed; this folds the rest.
        replay = led.flush()
        # Log totals vs the counters: replayed balances sum to minted - burned by construction.
        names = set(replay.balances) | set(self.holders) | set(self.wallets) | RESERVED
        replay_ok = (replay.minted == led.minted_total
                     and replay.burned == led.burned_total
                     and all(replay.balances.get(n, 0) == led.balance_of(n) for n in names))

        # Every owner, claimer and transfer recipient is in holder_names.
        return RunReport.read(
            led.contract_state(TREASURY), self.holders, wallets,
            horizon=self.scenario.horizon,
            final_epoch=led.epoch,
            conservation_ok=led.total_balance() == led.minted_total - led.burned_total,
            replay_ok=replay_ok,
            minted=led.minted_total,
            burned=led.burned_total,
            final_total=led.total_balance(),
            event_count=led.event_count,
            events_digest=led.events_digest(),
            log=led.log_text(),
        )


def run(scenario: Scenario) -> RunReport:
    """Validate, wire, and execute one scenario."""
    violations = validate(scenario)
    if violations:
        raise InvalidScenario(*violations)
    return World(scenario).run()
