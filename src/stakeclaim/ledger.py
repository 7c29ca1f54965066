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
  before writing to it and leaves the fields it does not write shared; a
  field written per token or per holder is a :class:`SharedMap` instead.
* Logged payloads are read-only once emitted. ``Call`` events without
  value share one payload dict per (target, method) across the whole
  log, and the beacon's state keeps the last ``EpochAccrual`` payload it
  logged.

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

The log is a list of epoch blocks. A header line ``{"epoch":e}`` opens
the block of each epoch that logs anything, and each event of it is one
line, exactly ``json.dumps({"emitter", "tag", "payload"},
separators=(",", ":"))``: no event line states its epoch or its seq. Its
epoch is its header's, and its seq its position among the events,
counting those a ``Repeat`` line stands for, as a block header states
its number once and a receipt's log entries carry only an address,
topics and data (Wood, *Ethereum Yellow Paper*, §4.3 and §4.3.1).
:func:`encode_lines` is the one line builder, used by
:meth:`Ledger.flush`, whose headers carry on from one batch to the next.
It writes flat payloads from cached
encodings, hands anything else to a single JSON encoder, and encodes a
shared payload object (a ``Call``'s without value) once per batch, so the
bytes, and every digest over them, are those of ``json.dumps``. The tags
of the lines the ledger writes itself (``LEDGER_TAGS``) are no
contract's or driver's to emit, so such a line names its sender once, as
its emitter, as an EVM log entry names its address (Wood, *Ethereum
Yellow Paper*, §4.3.1): a ``Transfer``, ``TransferBatch``,
``SupplyMint`` or ``SupplyBurn`` line's emitter is the account it debits
or credits, and a ``Call`` line's is its caller. Their payloads are
``{"to","amount"}``, ``{"to":[...],"amount":[...]}``,
``{"amount","memo"}`` and ``{"target","method"}``, or
``{"target","method","value"}`` for a call that carries value. As a
message call carries its value as a parameter (§8), that ``Call`` line
is the value's one line: no ``Transfer`` line repeats it, and
:func:`replay_balances` moves it from the caller to the target. A
handler's run of two or more ``Transfer`` effects in a row is paid one
at a time, in order, and logged as one ``TransferBatch`` line, whose
lists pair each payee with its amount, as a block's withdrawals are one
list on Ethereum (EIP-4895); a single transfer is a ``Transfer`` line,
which stays on the encoder's flat path.

The log streams. Committed events wait in a pending batch until
``EVENT_BATCH`` of them have built up; :meth:`Ledger.flush` then encodes
the batch, writes its text to the log's file at the log's length, folds
the batch into a running :func:`replay_balances`, and drops the Event
objects. The file (:class:`LogFile`) is a spooled temporary file, made at
the first write: it stays in memory until it holds ``LOG_BLOCK`` bytes,
then becomes an unlinked file, closed once neither the ledger nor a report
holds it. So a log shorter than ``LOG_BLOCK`` opens no file, and what a run
holds in memory does not grow with its log. :meth:`Ledger.log_text` is the
log as it stands (:class:`LogText`): the file and its length, read back a
block at a time. :meth:`Ledger.events_digest` hashes those blocks, and only
:meth:`Ledger.events_jsonl` joins them, when asked. The log's bytes do not
depend on the batch size, and no Event object outlives its batch.

A segment is one commit of many epochs (:meth:`Ledger.advance_segment`):
the driver says how many epochs repeat the last one and which contract
states they leave. The ledger keeps where its last two epochs began, so it
counts their events itself, and keeps the blocks of the last two epochs
that logged apart from the file, two strings as each flush wrote them. It
checks that the last epoch's block, its own, is the whole block of the
epoch before, string for string: no event line states an epoch, a seq or
a running total. It then logs the whole segment as one ``Repeat`` line:
``{"emitter":"system","tag":"Repeat","payload":{"epochs":k}}`` says that
the last epoch's block repeats for the next k epochs. It is not an event
and takes no seq: ``seq`` counts on through the events it stands for,
which ``explain.expand`` yields again, and lines after it and before the
next header are of its last epoch. The blocks the ledger keeps are then
those of the segment's last two epochs, as they were. Every balance and
supply move of the segment is k times :func:`replay_balances` of the last
block, applied to the live balances, the supply counters and the running
replay alike: no balance moves on the driver's word, and but for its
log's text, a segment leaves the ledger as stepping would.

A ledger instance is single-threaded but self-contained; independent
instances can run in parallel threads or processes.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import weakref
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import chain, islice
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
# the key of its payload, which is all it holds.
SYSTEM = "system"
REPEAT = "Repeat"
REPEAT_KEYS = frozenset(("epochs",))

# The tag of the line that logs a handler's run of two or more transfers.
BATCH = "TransferBatch"

# The tags of the lines the ledger writes itself, which replay_balances folds
# or the fold of the log reads as the ledger's: no contract or driver emits one.
LEDGER_TAGS = frozenset(("Transfer", BATCH, "SupplyMint", "SupplyBurn", "Call"))

# Committed events the ledger holds before it encodes and folds them as one
# batch, the log's one chunk. Larger batches share more of encode_lines'
# per-call caches; smaller ones hold fewer Event objects and payloads.
EVENT_BATCH = 512

# The log's file stays in memory until it holds more than this many bytes,
# and is read back in blocks of at most this many.
LOG_BLOCK = 1 << 16

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


def encode_lines(events, epoch: int = -1) -> list[str]:
    """Each event as its JSON line, newline included, after a header line
    ``{"epoch":e}`` wherever the epoch changes: before an event whose epoch
    is not that of the one before it, or for the first, not `epoch`, the
    epoch of the last header written (-1 for none).

    The event line is ``{"emitter":..,"tag":..,"payload":..}`` with no
    spaces, exactly ``json.dumps`` of that dict with ``separators=(",",
    ":")``: this format is the regression surface. The part up to
    ``"payload":`` is encoded once per str (emitter, tag) pair. A flat
    payload (str keys, values of exact type int or str) is written from
    encoded keys and strings cached for this call; any other payload goes
    through the JSON encoder. Both a payload that went through the encoder
    and a ``Call`` payload without value, which the ledger shares one per
    route, are encoded once per object. Their
    encoding is cached by id next to the payload itself, so the id cannot
    be reused while cached. The caches live only as long as the call.
    """
    heads: dict = {}
    keys: dict = {}
    strs: dict = {}
    shared: dict = {}
    out = []
    for e, _, emitter, tag, payload in events:
        if e != epoch:
            epoch = e
            out.append(f'{{"epoch":{e}}}\n')
        head = heads.get((emitter, tag))
        if head is None:
            head = f'{{"emitter":{_encode(emitter)},"tag":{_encode(tag)},"payload":'
            if type(emitter) is str and type(tag) is str:
                heads[(emitter, tag)] = head
        cached = shared.get(id(payload))
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
                    else:
                        break
                else:
                    body = "{" + ",".join(parts) + "}"
            if body is None:
                body = _encode(payload)
                shared[id(payload)] = (payload, body)
            elif tag == "Call" and "value" not in payload:
                shared[id(payload)] = (payload, body)
        out.append(f'{head}{body}}}\n')
    return out


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


# Entries per chunk of a SharedMap: a write copies at most one chunk and the spine.
CHUNK_BITS = 5
_CHUNK = 1 << CHUNK_BITS
_MASK = _CHUNK - 1


class SharedMap(Mapping):
    """An immutable map whose versions share structure, for the state fields
    written once per token or per holder (Bagwell, *Ideal Hash Trees*, 2001).

    ``set`` returns a new map. Values sit in insertion order in a spine of
    full chunks of ``_CHUNK`` and a shorter tail: a new key copies the tail,
    an overwrite its chunk and the spine, and every other chunk is shared.
    Keys find their positions in an index dict that versions share and only
    extend; a version of n entries reads positions below n only, and a write
    copies the index first if another version took position n. ``items()``
    and ``values()`` are one-pass iterators at C speed. Like a ledger, not
    thread-safe. Equal to any mapping with the same items; pickles as them.
    """

    __slots__ = ("_index", "_spine", "_tail", "_len")

    def __init__(self, items=()):
        self._index, self._spine, self._tail, self._len = {}, (), (), 0
        if items:
            d = dict(items)
            values = tuple(d.values())
            full = len(values) & ~_MASK
            self._index = dict(zip(d, range(len(d))))
            self._spine = tuple(values[i:i + _CHUNK] for i in range(0, full, _CHUNK))
            self._tail = values[full:]
            self._len = len(d)

    def __getitem__(self, key):
        i = self._index.get(key, self._len)
        if i < self._len:
            c = i >> CHUNK_BITS
            return (self._spine[c] if c < len(self._spine) else self._tail)[i & _MASK]
        raise KeyError(key)

    def get(self, key, default=None):
        i = self._index.get(key, self._len)
        if i < self._len:
            c = i >> CHUNK_BITS
            return (self._spine[c] if c < len(self._spine) else self._tail)[i & _MASK]
        return default

    def __contains__(self, key):
        return self._index.get(key, self._len) < self._len

    def __len__(self):
        return self._len

    def __iter__(self):     # a list: a later write may extend the index
        return iter(list(islice(self._index, self._len)))

    def items(self):
        return zip(list(islice(self._index, self._len)), chain(*self._spine, self._tail))

    def values(self):
        return chain(*self._spine, self._tail)

    def __reduce__(self):
        return SharedMap, (list(self.items()),)

    def __repr__(self):
        return f"SharedMap({dict(self.items())!r})"

    def set(self, key, value) -> "SharedMap":
        """This map with `key` mapped to `value`, a new key last; this map
        itself if `key` already holds `value`."""
        index, spine, tail, n = self._index, self._spine, self._tail, self._len
        i = index.get(key, n)
        if i < n:
            c = i >> CHUNK_BITS
            in_spine = c < len(spine)
            chunk = spine[c] if in_spine else tail
            if chunk[i & _MASK] is value:
                return self
            chunk = list(chunk)
            chunk[i & _MASK] = value
            if in_spine:
                spine = list(spine)
                spine[c] = tuple(chunk)
                spine = tuple(spine)
            else:
                tail = tuple(chunk)
        else:
            if len(index) == n:
                index[key] = n
            elif index.get(key) != n:   # position n is another key's: copy the index
                index = dict(zip(index, range(n)))
                index[key] = n
            tail += (value,)
            if len(tail) == _CHUNK:
                spine, tail = spine + (tail,), ()
            n += 1
        new = _new_object(SharedMap)
        new._index, new._spine, new._tail, new._len = index, spine, tail, n
        return new

    def delete(self, key) -> "SharedMap":
        """This map without `key`, rebuilt: O(n), for the rare removal."""
        d = dict(self.items())
        del d[key]
        return SharedMap(d)


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

    def pay(self, src: str, dst: str, amount: int) -> None:
        """Move `amount`, a positive int, from `src` to `dst`, logging
        nothing: a call's value, which its ``Call`` line carries."""
        if type(amount) is not int or amount <= 0:
            raise InvalidAmount(f"transfer amount must be a positive integer, got {amount!r}")
        if dst not in self._ledger._balances:
            raise UnknownAddress(dst)
        have = self.balance_of(src)
        if have < amount:
            raise InsufficientBalance(f"{src} has {have}, needs {amount}")
        self._balances[src] = have - amount
        self._balances[dst] = self.balance_of(dst) + amount

    def move(self, src: str, dst: str, amount: int) -> None:
        """:meth:`pay`, logged as the ``Transfer`` line `src` emits."""
        self.pay(src, dst, amount)
        self.log(src, "Transfer", {"to": dst, "amount": amount})

    def move_all(self, src: str, run: list[Transfer]) -> None:
        """A handler's run of Transfer effects from `src`, paid one at a
        time, in order (:meth:`pay`), and logged as one ``Transfer`` line,
        or as one ``TransferBatch`` line for two or more."""
        if len(run) == 1:
            self.move(src, *run[0])
            return
        for to, amount in run:
            self.pay(src, to, amount)
        self.log(src, BATCH, {"to": [t.to for t in run], "amount": [t.amount for t in run]})

    def issue(self, name: str, amount: int, memo: str) -> None:
        if type(amount) is not int or amount < 0:
            raise InvalidAmount(f"issue amount must be a non-negative integer, got {amount!r}")
        if amount == 0:
            return
        self._balances[name] = self.balance_of(name) + amount
        self._minted += amount
        self.log(name, "SupplyMint", {"amount": amount, "memo": memo})

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
        self.log(name, "SupplyBurn", {"amount": amount, "memo": memo})

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


class LogFile:
    """A ledger's log file: in memory up to ``LOG_BLOCK`` bytes, then
    unlinked on disk, so nothing is left there, and closed once neither the
    ledger nor a report holds it."""

    __slots__ = ("file", "__weakref__")

    def __init__(self):
        self.file = tempfile.SpooledTemporaryFile(max_size=LOG_BLOCK)
        weakref.finalize(self, self.file.close)


class LogText(NamedTuple):
    """A log as it stood: the first `length` bytes of its file (None while
    the ledger has written none). The ledger only appends to the file, so
    later writes leave those bytes as they are; a restored snapshot writes
    over them (``tests/conftest.py``)."""

    file: LogFile | None = None
    length: int = 0

    def blocks(self) -> Iterator[bytes]:
        """The text's bytes, ``LOG_BLOCK`` at a time."""
        for at in range(0, self.length, LOG_BLOCK):
            f = self.file.file
            f.seek(at)
            yield f.read(min(LOG_BLOCK, self.length - at))

    def chunks(self) -> Iterator[str]:
        """The text, a block at a time. The log is ASCII, so no block ends
        inside a character."""
        for block in self.blocks():
            yield block.decode()

    def digest(self) -> str:
        """sha256 of the text's bytes."""
        h = hashlib.sha256()
        for block in self.blocks():
            h.update(block)
        return h.hexdigest()


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
        self._prev_seq = 0                  # the seq at which the epoch before it began
        self._epoch_seq = 0                 # the seq at which the current epoch began
        self._pending: list[Event] = []     # committed, not yet encoded or folded
        # The log's text: a file, made at its first write, of _log_len bytes.
        self._log_file: LogFile | None = None
        self._log_len = 0
        self._header_epoch = -1             # the epoch of the last header written; -1 for none
        # What a segment check reads, as flushed: the blocks of the last
        # epoch that logged, _header_epoch, and of the epoch before it (none
        # if it logged nothing), [before, last], each its event lines' text
        # as the flushes that wrote it cut it. A block grown by one string
        # per flush would leave wide's big first epoch fragmenting the heap.
        self._recent: list[list[str]] = [[], []]
        self._replay = ReplayResult({}, 0, 0)     # the fold of every flushed event
        # (target, method) -> the one shared payload of its Call events without value
        self._call_payloads: dict[tuple[str, str], dict] = {}

    # --- registration -------------------------------------------------

    def register_account(self, name: str) -> str:
        """Register an externally-owned account with zero balance."""
        self._register(name)
        return name

    def register_contract(self, name: str, contract: Contract, issuer: bool = False) -> str:
        """Register a contract and its initial state.

        `issuer=True` grants the contract the right to create and destroy
        units in its own account (the consensus layer uses this for reward
        issuance and slashing; nothing else may). No contract may run at
        ``SYSTEM``, whose ``Repeat`` lines are the ledger's own.
        """
        if name == SYSTEM:
            raise ValueError(f"{SYSTEM!r} is the ledger's own emitter, not a contract's")
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
        """Endow an account with newly created units; logged as a SupplyMint it emits."""
        if to not in self._balances:
            raise UnknownAddress(to)
        if type(amount) is not int or amount <= 0:
            raise InvalidAmount(f"genesis amount must be a positive integer, got {amount!r}")
        self._balances[to] += amount
        self.minted_total += amount
        self._append_event(to, "SupplyMint", {"amount": amount, "memo": memo})

    def emit(self, emitter: str, tag: str, payload: dict) -> None:
        """Append a driver-level event outside any call tree."""
        if emitter not in self._balances:
            raise UnknownAddress(emitter)
        if tag in LEDGER_TAGS or (tag == REPEAT and emitter == SYSTEM):
            raise ValueError(f"a {emitter} {tag} line is the ledger's own, not an event")
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
        if value or type(value) is not int:     # pay rejects any value but a positive int
            ctx.pay(caller, target, value)
            payload = {"target": target, "method": method, "value": value}
        else:
            key = (target, method)
            payload = self._call_payloads.get(key)
            if payload is None:
                payload = self._call_payloads[key] = {"target": target, "method": method}
        log(caller, "Call", payload)
        states = ctx._states
        state = states[target] if target in states else self._states[target]
        states[target], effects, result = contract.handle(
            state, _new_record(Msg, (caller, target, method, args, value)), ctx)
        run = None      # the Transfer effects in a row, paid and logged once the row ends
        for eff in effects:
            kind = type(eff)
            if kind is Transfer:
                if run is None:
                    run = [eff]
                else:
                    run.append(eff)
                continue
            if run is not None:
                ctx.move_all(target, run)
                run = None
            if kind is Emit:
                if eff.tag in LEDGER_TAGS:
                    raise Unauthorized(f"{target} may not emit {eff.tag!r}, a line the ledger writes")
                log(target, eff.tag, eff.payload)
            elif kind is Call:
                self._dispatch(ctx, target, eff.target, eff.method,
                               dict(eff.args or ()), eff.value, depth + 1)
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
        if run is not None:
            ctx.move_all(target, run)
        return result

    # --- time -------------------------------------------------------------

    def advance_epoch(self, substeps: Callable[[], None] | None = None) -> int:
        """Move the clock one epoch, then run `substeps`, the driver's work
        for the new epoch, if given. Returns the new epoch."""
        self.epoch += 1
        self._prev_seq, self._epoch_seq = self._epoch_seq, self._seq
        if substeps is not None:
            substeps()
        return self.epoch

    def advance_segment(self, k: int, states: dict[str, Any]) -> bool:
        """Commit k epochs at once, each a repeat of the last epoch's events.

        The caller vouches that each of the next k epochs would log the last
        epoch's block again, its n event lines, n being the events logged
        since the epoch began; and that the contract states after the k
        epochs are `states` (for the contracts named) and the committed ones
        (for the rest). Balances and supply are not the caller's to state:
        they move as the lines say.

        k is an int >= 0 and `states` names registered contracts only; else
        ValueError, and nothing changes.
        The lines are the log's own, and checked first. Unless the epoch
        before the last logged exactly n lines, False is returned and
        nothing changes, the pending batch included. Then, after a flush,
        the two epochs' blocks, which the ledger keeps, must be equal
        strings. The caller does not test that, so this check is a
        condition of correctness, not a spare guard: if it fails, False is
        returned and nothing but the flush has happened. Otherwise, in one
        step: one ``Repeat`` line stands for the k·n events (none if k or n
        is 0), and the blocks kept are those of the segment's last two
        epochs, as stepping would keep them; k times :func:`replay_balances`
        of the last block moves the live balances, the supply counters and
        the running replay; the epoch, seq and `states` are set. Returns
        True.
        """
        if type(k) is not int or k < 0:
            raise ValueError(f"a segment is an int k >= 0 of epochs, got {k!r}")
        if not states.keys() <= self._contracts.keys():
            raise ValueError(f"no contract is named {sorted(states.keys() - self._contracts.keys())}")
        n = self._seq - self._epoch_seq
        if self._epoch_seq - self._prev_seq != n:
            return False
        self.flush()
        before, last = map("".join, self._recent)
        if n and before != last:    # the blocks of the epochs e-1 and e
            return False

        if k and n:
            self._write(encode_lines(
                (Event(self.epoch, self._seq, SYSTEM, REPEAT, {"epochs": k}),), self.epoch)[0])
            self._header_epoch += k
        once = replay_balances([Event(0, 0, **json.loads(line)) for line in last.splitlines()]
                               if n else ())
        for moved in (self._balances, self._replay.balances):
            for name, amount in once.balances.items():
                moved[name] = moved.get(name, 0) + k * amount
        self.minted_total += k * once.minted
        self.burned_total += k * once.burned
        self._replay.minted += k * once.minted
        self._replay.burned += k * once.burned
        self.epoch += k
        self._seq += k * n
        self._prev_seq += k * n
        self._epoch_seq += k * n
        self._states.update(states)
        return True

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

        The batch's lines (:func:`encode_lines`, whose headers carry on from
        the last one written) go to the log's file, and
        :func:`replay_balances` folds the batch into the running replay.
        Every flush, of a batch or of none, then leaves the ledger the
        blocks a segment check reads (``_recent``). Returns the replay of
        the whole log so far; the object is the ledger's own, and later
        flushes fold into it.
        """
        pending = self._pending
        if pending:
            text = "".join(encode_lines(pending, self._header_epoch))
            self._write(text)
            replay_balances(pending, self._replay)
            self._pending = []
            self._keep(pending, text)
        return self._replay

    def _keep(self, events: list[Event], text: str) -> None:
        """Fold a flushed batch, `events` written as `text`, into ``_recent``."""
        last = self._recent[1]
        epoch = events[-1].epoch
        if epoch == self._header_epoch:     # no header: the last block goes on
            last.append(text)
            return
        header = text.rfind('\n{"epoch":') + 1     # no payload holds a raw newline
        i = len(events) - 2
        while i >= 0 and events[i].epoch == epoch:
            i -= 1
        if i < 0:           # the batch opens the last block
            prev, prev_epoch = last, self._header_epoch
        else:               # the block before ends in the batch
            prev_epoch = events[i].epoch
            if prev_epoch == self._header_epoch:
                prev = [*last, text[:header]]
            else:
                start = text.rfind('\n{"epoch":', 0, header - 1) + 1
                prev = [text[text.index("\n", start) + 1:header]]
        self._recent = [prev if prev_epoch == epoch - 1 else [],
                        [text[text.index("\n", header) + 1:]]]
        self._header_epoch = epoch

    def _write(self, text: str) -> None:
        """Write `text`, whole lines, to the log's file at the log's length."""
        if self._log_file is None:
            self._log_file = LogFile()
        f = self._log_file.file
        f.seek(self._log_len)
        self._log_len += f.write(text.encode())

    def log_text(self) -> LogText:
        """The whole log, flushed: its file and the file's length. A
        snapshot: later writes go after that length."""
        self.flush()
        return LogText(self._log_file, self._log_len)

    def events_jsonl(self) -> str:
        """The whole log as JSON lines, one header, event or ``Repeat`` line
        per line (:func:`encode_lines`), read back from its file into a new
        string."""
        return "".join(self.log_text().chunks())

    def events_digest(self) -> str:
        """sha256 of :meth:`events_jsonl`'s UTF-8, hashed a block at a time."""
        return self.log_text().digest()


# --- post-hoc conservation check from the log alone --------------------------

@dataclass
class ReplayResult:
    balances: dict[str, int]
    minted: int
    burned: int


def replay_balances(events, into: ReplayResult | None = None) -> ReplayResult:
    """Reconstruct balances and the supply totals from events only.

    Folds SupplyMint, SupplyBurn, Transfer, TransferBatch and Call events,
    onto `into` in place if given (so a log can be folded batch by batch),
    else onto a fresh result. Each credits or debits its emitter: a
    Transfer moves its amount from the emitter to its ``to``, a
    TransferBatch each of its amounts to the ``to`` at the same position
    (ValueError if the two lists differ in length), and a Call its
    ``value``, if it carries one, to its ``target``. For a well-behaved
    ledger the balances equal the live ones, and the minted and burned
    totals equal ``Ledger.minted_total`` / ``burned_total``, kept apart.
    """
    if into is None:
        into = ReplayResult({}, 0, 0)
    balances = into.balances
    minted = burned = 0
    for e in events:
        p, name = e.payload, e.emitter
        if e.tag == "SupplyMint":
            balances[name] = balances.get(name, 0) + p["amount"]
            minted += p["amount"]
        elif e.tag == "SupplyBurn":
            balances[name] = balances.get(name, 0) - p["amount"]
            burned += p["amount"]
        elif e.tag == "Transfer":
            balances[name] = balances.get(name, 0) - p["amount"]
            balances[p["to"]] = balances.get(p["to"], 0) + p["amount"]
        elif e.tag == BATCH:
            for to, amount in zip(p["to"], p["amount"], strict=True):
                balances[name] = balances.get(name, 0) - amount
                balances[to] = balances.get(to, 0) + amount
        elif e.tag == "Call" and "value" in p:
            balances[name] = balances.get(name, 0) - p["value"]
            balances[p["target"]] = balances.get(p["target"], 0) + p["value"]
    into.minted += minted
    into.burned += burned
    return into
