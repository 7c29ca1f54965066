"""Simulated smart-contract chain.

The :class:`Ledger` holds accounts with integer balances, a registry of
contracts, an epoch clock, and an append-only event log. Contracts are
message-driven state machines: a handler is a pure function of
``(state, message, context)`` that returns a new state plus a list of
outbound effects (value transfers, events, nested calls, issuance). The
ledger applies effects; handlers never mutate anything directly. This makes
atomicity trivial: a call tree executes against one :class:`CallContext`,
which buffers its writes and is committed only if every step succeeds, so
any revert leaves the chain bit-identical to its pre-call state.

The handler contract, which every contract in this package keeps:

* A handler never mutates the state it receives, whether it returns or
  raises. That state may be the committed one, so an in-place write would
  survive a revert.
* New states are shallow copies (:func:`evolve`) that share every field
  with the state they came from, so a handler copies a dict or list field
  before writing to it and leaves the fields it does not write shared.
* Logged payloads are read-only once emitted. ``Call`` events share one
  payload dict per (caller, target, method) across the whole log.

Design constraints honoured throughout:

* Amounts are non-negative integers in a fixed base unit. Every amount
  that reaches a balance (a genesis, a call's value, a transfer, an issue
  or a destruction) is checked to be an exact int, so no float or bool
  touches any balance. Total supply changes only via explicit issuance or
  destruction, each logged, so conservation is checkable from the event
  log alone: :func:`replay_balances` rebuilds every balance and the
  supply totals, to check against the ledger's own counters.
* Nested calls are capped at depth ``CALL_DEPTH_LIMIT``; exceeding it
  reverts the tree.
* Epochs only move forward. The ledger schedules nothing: the driver
  hands :meth:`Ledger.advance_epoch` its work for the new epoch, as a keeper
  pokes contracts on a chain, so two identically-driven runs produce
  byte-identical event logs.
* An address is a contract exactly when it has code, that is, when it was
  registered with one (:meth:`Ledger.is_contract`).

Records are immutable, picklable named tuples: :class:`Event` for log
entries, :class:`Msg` for inbound messages, and :class:`Transfer`,
:class:`Emit`, :class:`Call`, :class:`Issue` and :class:`Destroy` for
effects. One is built per event, message and effect, so they are kept
cheap. Effects are told apart by exact class, never by comparing them: as
tuples, ``Issue(5, "x") == Destroy(5, "x")``.

The log serialises one event per line, each line exactly
``json.dumps({"epoch", "seq", "emitter", "tag", "payload"},
separators=(",", ":"))``; :func:`encode_lines` is the one line builder,
used by :meth:`Ledger.events_jsonl`. It writes
flat payloads and lists of int lists from cached encodings, encodes a
payload object shared by several events once, and hands anything else to
a single JSON encoder, so the bytes, and every digest over them, are those
of ``json.dumps``.

The log streams. Committed events wait in a pending batch until
``EVENT_BATCH`` of them have built up; the ledger then encodes the batch,
appends it to the log's one text string (grown in place, never joined),
folds it into a running :func:`replay_balances`, and drops the Event
objects. :meth:`Ledger.flush` does the same for a partial batch;
:meth:`Ledger.events_jsonl` (that string itself) and
:meth:`Ledger.events_digest` (sha256 fed ``DIGEST_SLICE`` characters at a
time) flush first. The log's bytes do not depend on the batch size, and
no Event object outlives its batch.

A segment is one commit of many epochs (:meth:`Ledger.advance_segment`):
the driver vouches that each repeats the last epoch's events, and gives
the states, balances and supply after them in closed form. The ledger
checks the last epoch's lines, its own, against the epoch before advanced
by one stride (:func:`strided`), and logs the whole segment as one
``Repeat`` line: ``{"epoch":e+1,"seq":s,"emitter":"system","tag":"Repeat",
"payload":{"epochs":k,"lines":n,...}}`` says that the n lines before it
repeat k times, with ``epoch``, ``seq`` and each further key of the
payload advanced by 1, n and its value. It is not an event and takes no
seq: ``seq`` counts on through the events it stands for, which
``explain.expand`` writes out again. The segment's last epoch is then no
longer text, so the ledger keeps its lines, one epoch's, in hand for the
next check. It folds the last epoch's events into the replay k times over
(:func:`fold_scaled`), apart from the balances it is given, so the replay
still checks them.

A ledger instance is single-threaded but self-contained; independent
instances can run in parallel threads or processes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NamedTuple, Protocol

from .errors import (
    InsufficientBalance,
    InvalidAmount,
    ReentrancyLimitExceeded,
    Unauthorized,
    UnknownAddress,
    UnknownContract,
    UnknownMethod,
)

CALL_DEPTH_LIMIT = 8

# The emitter and tag of the line that stands for a segment's epochs, and
# the keys no stride may take: the two every line advances and the line's
# own two. Every other key of its payload is a stride.
SYSTEM = "system"
REPEAT = "Repeat"
REPEAT_KEYS = frozenset(("epoch", "seq", "epochs", "lines"))

# Committed events the ledger holds before it encodes and folds them as one
# batch. Larger batches share more of encode_lines' per-call caches; smaller
# ones hold fewer Event objects.
EVENT_BATCH = 4096

# Characters of the log's text encoded and hashed at a time by
# Ledger.events_digest: the one transient copy the digest makes.
DIGEST_SLICE = 1 << 19

# json.dumps(o, separators=(",", ":")) without building an encoder per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode

# Record(*fields) for the ledger's hot paths, skipping the NamedTuple's
# Python-level __new__: _new_record(Event, (epoch, seq, emitter, tag, payload)).
_new_record = tuple.__new__


class Event(NamedTuple):
    """One log entry, totally ordered by (epoch, seq). seq is global."""

    epoch: int
    seq: int
    emitter: str
    tag: str
    payload: dict


def encode_lines(events) -> list[str]:
    """Each event as its JSON line, newline included.

    The line is ``{"epoch":..,"seq":..,"emitter":..,"tag":..,"payload":..}``
    with no spaces, exactly ``json.dumps`` of that dict with
    ``separators=(",", ":")``: this format is the regression surface.
    epoch and seq are the ledger's ints. The part from ``"emitter"`` to
    ``"payload":`` is encoded once per str (emitter, tag) pair. ``Call``
    payloads, which the ledger shares one per route, are encoded once per
    object: the encoding is cached by id next to the payload itself, so the
    id cannot be reused while cached. Other payloads are mostly one-off and
    are not kept. A flat payload (str keys, values of exact type int or
    str, or lists of lists of exact ints) is written from encoded keys and
    strings cached for this call; any other payload goes through the JSON
    encoder. The caches live only as long as the call.
    """
    heads: dict = {}
    keys: dict = {}
    strs: dict = {}
    calls: dict = {}
    out = []
    for epoch, seq, emitter, tag, payload in events:
        head = heads.get((emitter, tag))
        if head is None:
            head = f',"emitter":{_encode(emitter)},"tag":{_encode(tag)},"payload":'
            if type(emitter) is str and type(tag) is str:
                heads[(emitter, tag)] = head
        cached = calls.get(id(payload))
        if cached is not None:
            body = cached[1]
        else:
            body = None
            if type(payload) is dict:
                parts = []
                for k, v in payload.items():
                    ek = keys.get(k)
                    if ek is None:
                        if type(k) is not str:
                            break
                        ek = keys[k] = encode_basestring_ascii(k) + ":"
                    t = type(v)
                    if t is int:
                        parts.append(ek + str(v))
                    elif t is str:
                        ev = strs.get(v)
                        if ev is None:
                            ev = strs[v] = encode_basestring_ascii(v)
                        parts.append(ek + ev)
                    elif t is list and _int_rows(v):
                        parts.append(ek + str(v).replace(" ", ""))
                    else:
                        break
                else:
                    body = "{" + ",".join(parts) + "}"
            if body is None:
                body = _encode(payload)
            if tag == "Call":
                calls[id(payload)] = (payload, body)
        out.append(f'{{"epoch":{epoch},"seq":{seq}{head}{body}}}\n')
    return out


def _int_rows(v: list) -> bool:
    """True if `v` is a list of lists of exact ints: str(v) less spaces is its JSON."""
    for row in v:
        if type(row) is not list:
            return False
        for x in row:
            if type(x) is not int:
                return False
    return True


class Msg(NamedTuple):
    """An inbound message as seen by the contract handler running at address `target`."""

    caller: str
    target: str
    method: str
    args: dict
    value: int = 0


# --- outbound effects -------------------------------------------------------

class Transfer(NamedTuple):
    """Move `amount` from the emitting contract's account to `to`."""

    to: str
    amount: int


class Emit(NamedTuple):
    """Append an event with the emitting contract as the emitter."""

    tag: str
    payload: dict


class Call(NamedTuple):
    """Invoke another contract; the emitting contract becomes the caller.

    The callee always gets its own copy of `args` (empty for None).
    """

    target: str
    method: str
    args: dict | None = None
    value: int = 0


class Issue(NamedTuple):
    """Create new units in the emitter's own account (issuers only)."""

    amount: int
    memo: str


class Destroy(NamedTuple):
    """Destroy units held in the emitter's own account (issuers only)."""

    amount: int
    memo: str


HandlerResult = tuple[Any, list, Any]


class Contract(Protocol):
    def initial_state(self) -> Any: ...

    def handle(self, state: Any, msg: Msg, ctx: "CallContext") -> HandlerResult: ...


class Handlers:
    """Base of contracts whose method ``m`` is handled by ``_op_m``.

    The method table is built once per class, and :meth:`handle` is the one
    dispatcher: it raises UnknownMethod for any method not in the table.
    ``kind`` names the contract in that error.
    """

    kind = "contract"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._ops = {name[4:]: getattr(cls, name)
                    for name in dir(cls) if name.startswith("_op_")}

    def handle(self, state: Any, msg: Msg, ctx: "CallContext") -> HandlerResult:
        op = self._ops.get(msg.method)
        if op is None:
            raise UnknownMethod(f"{self.kind} has no method {msg.method!r}")
        return op(self, state, msg, ctx)


_new_object = object.__new__


def evolve(obj, **changes):
    """A shallow copy of `obj` with `changes` applied to its fields.

    The one state copy of every handler. The copy shares each field not in
    `changes` with `obj`, so a handler copies a dict or list field before
    writing to it. It writes the instance dict directly, so it also copies
    frozen dataclasses, and it runs no __init__ or __post_init__.
    """
    new = _new_object(type(obj))
    d = new.__dict__
    d.update(obj.__dict__)
    d.update(changes)
    return new


class CallContext:
    """One call tree's context: the clock, the tree's buffered writes, and reads through them.

    One per call tree; the epoch cannot move while a tree runs. Handlers
    read only ``epoch``, :meth:`balance_of` and :meth:`is_contract`, and
    write through the effects they return; the ledger applies those here.
    Commit applies the writes; dropping the context reverts them. Events
    are built as the tree runs, numbered on from the ledger's next seq:
    nothing else appends to the log while a tree runs.
    """

    __slots__ = ("epoch", "_ledger", "_balances", "_states", "_events",
                 "_minted", "_burned", "_seq")

    def __init__(self, ledger: "Ledger"):
        self.epoch = ledger.epoch
        self._ledger = ledger
        self._balances: dict[str, int] = {}
        self._states: dict[str, Any] = {}
        self._events: list[Event] = []
        self._minted = 0
        self._burned = 0
        self._seq = ledger._seq

    def balance_of(self, name: str) -> int:
        if name not in self._ledger._balances:
            raise UnknownAddress(name)
        if name in self._balances:
            return self._balances[name]
        return self._ledger._balances[name]

    def is_contract(self, name: str) -> bool:
        return self._ledger.is_contract(name)

    def move(self, src: str, dst: str, amount: int) -> None:
        if type(amount) is not int or amount <= 0:
            raise InvalidAmount(f"transfer amount must be a positive integer, got {amount!r}")
        if dst not in self._ledger._balances:
            raise UnknownAddress(dst)
        have = self.balance_of(src)
        if have < amount:
            raise InsufficientBalance(f"{src} has {have}, needs {amount}")
        self._balances[src] = have - amount
        self._balances[dst] = self.balance_of(dst) + amount
        self.log(src, "Transfer", {"from": src, "to": dst, "amount": amount})

    def issue(self, name: str, amount: int, memo: str) -> None:
        if type(amount) is not int or amount < 0:
            raise InvalidAmount(f"issue amount must be a non-negative integer, got {amount!r}")
        if amount == 0:
            return
        self._balances[name] = self.balance_of(name) + amount
        self._minted += amount
        self.log(name, "SupplyMint", {"to": name, "amount": amount, "memo": memo})

    def destroy(self, name: str, amount: int, memo: str) -> None:
        if type(amount) is not int or amount < 0:
            raise InvalidAmount(f"destroy amount must be a non-negative integer, got {amount!r}")
        if amount == 0:
            return
        have = self.balance_of(name)
        if have < amount:
            raise InsufficientBalance(f"{name} has {have}, cannot destroy {amount}")
        self._balances[name] = have - amount
        self._burned += amount
        self.log(name, "SupplyBurn", {"from": name, "amount": amount, "memo": memo})

    def log(self, emitter: str, tag: str, payload: dict) -> None:
        events = self._events
        events.append(_new_record(
            Event, (self.epoch, self._seq + len(events), emitter, tag, payload)))

    def commit(self) -> None:
        led = self._ledger
        led._balances.update(self._balances)
        led._states.update(self._states)
        led.minted_total += self._minted
        led.burned_total += self._burned
        led._log(self._events)


class Ledger:
    """One simulated chain instance.

    Not thread-safe; use one instance per thread. All state lives on the
    instance, so independent scenarios can run concurrently without any
    shared globals.
    """

    def __init__(self):
        self._balances: dict[str, int] = {}     # every registered address
        self._contracts: dict[str, Contract] = {}
        self._states: dict[str, Any] = {}
        self._issuers: set[str] = set()
        self.epoch = 0
        self.minted_total = 0
        self.burned_total = 0
        self._seq = 0
        self._pending: list[Event] = []     # committed, not yet encoded or folded
        self._text = ""                     # the log's text: every flushed batch, encoded
        # The lines of the last epoch a segment repeated, and where the text
        # after its Repeat line starts.
        self._held = ""
        self._held_at = 0
        self._replay = ReplayResult({}, 0, 0)     # the fold of every flushed event
        # (caller, target, method) -> the one shared payload of its Call events
        self._call_payloads: dict[tuple[str, str, str], dict] = {}

    # --- registration -------------------------------------------------

    def register_account(self, name: str) -> str:
        """Register an externally-owned account with zero balance."""
        self._register(name)
        return name

    def register_contract(self, name: str, contract: Contract, issuer: bool = False) -> str:
        """Register a contract and its initial state.

        `issuer=True` grants the contract the right to create and destroy
        units in its own account (the consensus layer uses this for reward
        issuance and slashing; nothing else may).
        """
        self._register(name)
        self._contracts[name] = contract
        self._states[name] = contract.initial_state()
        if issuer:
            self._issuers.add(name)
        return name

    def _register(self, name: str) -> None:
        if name in self._balances:
            raise ValueError(f"address {name!r} already registered")
        self._balances[name] = 0

    # --- reads ----------------------------------------------------------

    def is_contract(self, name: str) -> bool:
        """True if `name` has code: it was registered as a contract."""
        if name not in self._balances:
            raise UnknownAddress(name)
        return name in self._contracts

    def balance_of(self, name: str) -> int:
        if name not in self._balances:
            raise UnknownAddress(name)
        return self._balances[name]

    def contract_state(self, name: str) -> Any:
        """Committed state of a contract. Callers must treat it read-only."""
        if name not in self._contracts:
            raise UnknownContract(name)
        return self._states[name]

    def total_balance(self) -> int:
        return sum(self._balances.values())

    # --- direct operations (outside any call tree) ----------------------

    def genesis(self, to: str, amount: int, memo: str = "genesis") -> None:
        """Endow an account with newly created units; logged as a Mint."""
        if to not in self._balances:
            raise UnknownAddress(to)
        if type(amount) is not int or amount <= 0:
            raise InvalidAmount(f"genesis amount must be a positive integer, got {amount!r}")
        self._balances[to] += amount
        self.minted_total += amount
        self._append_event(to, "SupplyMint", {"to": to, "amount": amount, "memo": memo})

    def emit(self, emitter: str, tag: str, payload: dict) -> None:
        """Append a driver-level event outside any call tree."""
        if emitter not in self._balances:
            raise UnknownAddress(emitter)
        if tag == REPEAT and emitter == SYSTEM:
            raise ValueError("a system Repeat line is the ledger's own, not an event")
        self._append_event(emitter, tag, payload)

    # --- contract dispatch ----------------------------------------------

    def call(self, caller: str, target: str, method: str,
             args: dict | None = None, value: int = 0) -> Any:
        """Dispatch a message to a contract and commit the whole call tree.

        Any LedgerError or ContractError raised anywhere in the tree
        propagates to the caller and nothing is applied: no balance, no
        contract state, no event. A `value` that is not an int >= 0 is
        InvalidAmount.
        """
        if caller not in self._balances:
            raise UnknownAddress(caller)
        ctx = CallContext(self)
        result = self._dispatch(ctx, caller, target, method, dict(args or {}), value, 0)
        ctx.commit()
        return result

    def _dispatch(self, ctx: CallContext, caller: str, target: str, method: str,
                  args: dict, value: int, depth: int) -> Any:
        if depth > CALL_DEPTH_LIMIT:
            raise ReentrancyLimitExceeded(f"call depth exceeded {CALL_DEPTH_LIMIT}")
        contract = self._contracts.get(target)
        if contract is None:
            raise UnknownContract(target)
        log = ctx.log
        key = (caller, target, method)
        payload = self._call_payloads.get(key)
        if payload is None:
            payload = self._call_payloads[key] = {
                "caller": caller, "target": target, "method": method}
        log(caller, "Call", payload)
        if value or type(value) is not int:     # move rejects any value but a positive int
            ctx.move(caller, target, value)
        states = ctx._states
        state = states[target] if target in states else self._states[target]
        states[target], effects, result = contract.handle(
            state, _new_record(Msg, (caller, target, method, args, value)), ctx)
        for eff in effects:
            kind = type(eff)
            if kind is Emit:
                log(target, eff.tag, eff.payload)
            elif kind is Call:
                self._dispatch(ctx, target, eff.target, eff.method,
                               dict(eff.args or ()), eff.value, depth + 1)
            elif kind is Transfer:
                ctx.move(target, eff.to, eff.amount)
            elif kind is Issue:
                if target not in self._issuers:
                    raise Unauthorized(f"{target} is not an issuer")
                ctx.issue(target, eff.amount, eff.memo)
            elif kind is Destroy:
                if target not in self._issuers:
                    raise Unauthorized(f"{target} is not an issuer")
                ctx.destroy(target, eff.amount, eff.memo)
            else:
                raise TypeError(f"unknown effect {eff!r}")
        return result

    # --- time -------------------------------------------------------------

    def advance_epoch(self, substeps: Callable[[], None] | None = None) -> int:
        """Move the clock one epoch, then run `substeps`, the driver's work
        for the new epoch, if given. Returns the new epoch."""
        self.epoch += 1
        if substeps is not None:
            substeps()
        return self.epoch

    def advance_segment(self, k: int, n: int, strides: dict[str, int], states: dict[str, Any],
                        balance_steps: dict[str, int], minted_step: int) -> bool:
        """Commit k epochs at once, each a repeat of the last epoch's n events.

        The caller vouches that each of the next k epochs would log the last
        epoch's n lines again with the integers under the keys ``"epoch"``
        and ``"seq"`` advanced by 1 and n, and those under each key of
        `strides` by its stride; that each would change every account of
        `balance_steps` by its amount and mint `minted_step`; and that the
        contract states after the k epochs are `states` (for the contracts
        named) and the committed ones (for the rest).

        The lines are the log's own, read after a flush, and checked first:
        the epoch before the last, advanced by one stride, must read as the
        last epoch's lines. The caller does not test that, so this check is
        a condition of correctness, not a spare guard. If it fails or the
        log holds fewer than 2n lines, False is returned and nothing
        changes, though the pending batch may have been flushed.
        Otherwise, in one step: one ``Repeat`` line stands for the k·n
        lines (none if k or n is 0), and the last of the k epochs' lines
        are held for the next segment's check; the last epoch's events,
        decoded from its lines, are folded into the replay k times over
        (:func:`fold_scaled`); the balances, supply counters, epoch, seq and
        `states` are set. Returns True.
        """
        if strides.keys() & REPEAT_KEYS:
            raise ValueError(f"a stride may not be named any of {sorted(REPEAT_KEYS)}")
        tail = self._tail(n)
        if tail is None:
            return False
        before, last = tail
        every = {"epoch": 1, "seq": n, **strides}
        if strided(before, every)(1) != last:
            return False

        if k and n:
            self._append_text(encode_lines((Event(
                self.epoch + 1, self._seq, SYSTEM, REPEAT,
                {"epochs": k, "lines": n, **strides}),))[0])
            self._held, self._held_at = strided(last, every)(k), len(self._text)
        fold_scaled([Event(**json.loads(line)) for line in last.splitlines()], k, self._replay)
        self.epoch += k
        self._seq += k * n
        self._states.update(states)
        balances = self._balances
        for name, step in balance_steps.items():
            balances[name] += k * step
        self.minted_total += k * minted_step
        return True

    def _tail(self, n: int) -> tuple[str, str] | None:
        """The log's last 2n lines, written out and flushed, as two blocks of n;
        None if it holds fewer.

        They are the text's, unless fewer than 2n lines follow the last
        Repeat line: then the held epoch, the last the Repeat stands for,
        goes before them.
        """
        self.flush()
        text = self._text
        cut = _lines_back(text, 2 * n, self._held_at)
        if cut is None:
            text = self._held + text[self._held_at:]
            cut = _lines_back(text, 2 * n, 0)
            if cut is None:
                return None
        mid = _lines_back(text, n, cut)
        return text[cut:mid], text[mid:]

    # --- event log ---------------------------------------------------------

    def _append_event(self, emitter: str, tag: str, payload: dict) -> None:
        self._log((_new_record(Event, (self.epoch, self._seq, emitter, tag, payload)),))

    def _log(self, events: list[Event] | tuple[Event, ...]) -> None:
        """Append committed events, numbered on from the next seq, to the log."""
        self._seq += len(events)
        pending = self._pending
        pending += events
        if len(pending) >= EVENT_BATCH:
            self.flush()

    @property
    def event_count(self) -> int:
        """How many events the log holds, flushed or not."""
        return self._seq

    def flush(self) -> ReplayResult:
        """Encode and fold the committed events not yet flushed; drop them.

        The batch's lines (:func:`encode_lines`) are appended to the log's
        text, and :func:`replay_balances` folds the batch into the running
        replay. Returns that replay, of the whole log so far; the object is
        the ledger's own, and later flushes fold into it.
        """
        pending = self._pending
        if pending:
            self._append_text("".join(encode_lines(pending)))
            replay_balances(pending, self._replay)
            self._pending = []
        return self._replay

    def _append_text(self, chunk: str) -> None:
        """Append encoded lines to the log's text.

        With the local as the string's only reference, CPython's += grows
        it in place instead of copying the whole log: no caller may hold the
        text while it appends.
        """
        text = self._text
        self._text = ""
        text += chunk
        self._text = text

    def events_jsonl(self) -> str:
        """The whole log as JSON lines, one event or ``Repeat`` line per line
        (:func:`encode_lines`).

        The ledger's own string, not a copy. While a caller holds it, the
        next flush appends to a copy and leaves the caller's text as it was.
        """
        self.flush()
        return self._text

    def events_digest(self) -> str:
        """sha256 of :meth:`events_jsonl`'s UTF-8, encoded one slice at a time."""
        self.flush()
        text = self._text
        h = hashlib.sha256()
        for start in range(0, len(text), DIGEST_SLICE):
            h.update(text[start:start + DIGEST_SLICE].encode())
        return h.hexdigest()


# --- post-hoc conservation check from the log alone --------------------------

@dataclass
class ReplayResult:
    balances: dict[str, int]
    minted: int
    burned: int


def replay_balances(events, into: ReplayResult | None = None) -> ReplayResult:
    """Reconstruct balances and the supply totals from events only.

    Folds SupplyMint, SupplyBurn and Transfer events, onto `into` in place
    if given (so a log can be folded batch by batch), else onto a fresh
    result. For a well-behaved ledger the balances equal the live ones, and
    the minted and burned totals equal ``Ledger.minted_total`` /
    ``burned_total``, kept apart.
    """
    if into is None:
        into = ReplayResult({}, 0, 0)
    balances = into.balances
    minted = burned = 0
    for e in events:
        p = e.payload
        if e.tag == "SupplyMint":
            balances[p["to"]] = balances.get(p["to"], 0) + p["amount"]
            minted += p["amount"]
        elif e.tag == "SupplyBurn":
            balances[p["from"]] = balances.get(p["from"], 0) - p["amount"]
            burned += p["amount"]
        elif e.tag == "Transfer":
            balances[p["from"]] = balances.get(p["from"], 0) - p["amount"]
            balances[p["to"]] = balances.get(p["to"], 0) + p["amount"]
    into.minted += minted
    into.burned += burned
    return into


def fold_scaled(events, k: int, into: ReplayResult) -> ReplayResult:
    """:func:`replay_balances` of `events` repeated k times, folded onto `into`.

    The events are folded once onto an empty result, and k times that
    result is added.
    """
    once = replay_balances(events)
    balances = into.balances
    for name, amount in once.balances.items():
        balances[name] = balances.get(name, 0) + k * amount
    into.minted += k * once.minted
    into.burned += k * once.burned
    return into


def strided(block: str, strides: dict[str, int]) -> Callable[[int], str]:
    """The function t -> `block` with each integer under a key of `strides`
    advanced by t times its stride: the one line-advancing helper, which the
    segment check and ``explain.expand`` share.

    `block` is cut once at those integers. Only a JSON key is a quote, the
    key and ``":`` unescaped: inside an encoded string a quote is ``\\"``.
    """
    keys = "|".join(re.escape(key) for key in strides)
    parts = re.split(f'"({keys})":(-?\\d+)', block)
    heads = [f'{text}"{key}":' for text, key in zip(parts[0::3], parts[1::3])]
    fields = [(int(v), strides[key]) for key, v in zip(parts[1::3], parts[2::3])]
    end = parts[-1]

    def at(t: int) -> str:
        return "".join([head + str(v + t * s) for head, (v, s) in zip(heads, fields)]) + end

    return at


def _lines_back(text: str, count: int, floor: int) -> int | None:
    """Where the last `count` lines of `text` start; None if fewer than
    `count` lines lie past `floor`, a line's start."""
    cut = len(text)
    for _ in range(count):
        if cut <= floor:
            return None
        cut = text.rfind("\n", 0, cut - 1) + 1
    return cut
