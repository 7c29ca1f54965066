"""Ledger core: transfers, atomic dispatch, epochs, event log, conservation."""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (REGISTRY_FIELDS, expanded, logged_events, make_world, restore, snapshot,
                      to_json, transfer)
from stakeclaim.errors import (
    ContractError,
    InsufficientBalance,
    InvalidAmount,
    ReentrancyLimitExceeded,
    Unauthorized,
    UnknownAddress,
    UnknownContract,
    UnknownMethod,
)
from stakeclaim.ledger import (
    CALL_DEPTH_LIMIT,
    LEDGER_TAGS,
    Call,
    Destroy,
    Emit,
    Event,
    Issue,
    Ledger,
    Msg,
    Transfer,
    encode_lines,
    replay_balances,
)


def fresh_ledger(**balances: int) -> Ledger:
    led = Ledger()
    for name, amount in balances.items():
        led.register_account(name)
        if amount:
            led.genesis(name, amount)
    return led


class TestTransfer:
    def test_exact_drain(self):
        led = fresh_ledger(a=5, b=0)
        transfer(led, "a", "b", 5)
        assert led.balance_of("a") == 0
        assert led.balance_of("b") == 5

    def test_zero_amount_rejected(self):
        led = fresh_ledger(a=5, b=0)
        with pytest.raises(InvalidAmount):
            transfer(led, "a", "b", 0)

    def test_insufficient_leaves_state_unchanged(self):
        led = fresh_ledger(a=5, b=0)
        snap = snapshot(led)
        with pytest.raises(InsufficientBalance):
            transfer(led, "a", "b", 6)
        assert snapshot(led) == snap

    def test_unknown_addresses(self):
        led = fresh_ledger(a=5)
        with pytest.raises(UnknownAddress):
            transfer(led, "a", "ghost", 1)
        with pytest.raises(UnknownAddress):
            transfer(led, "ghost", "a", 1)

    def test_transfer_logged(self):
        led = fresh_ledger(a=5, b=0)
        transfer(led, "a", "b", 3)
        last = logged_events(led)[-1]
        assert last.tag == "Transfer"
        assert (last.emitter, last.payload) == ("a", ["b", 3])


# --- toy contracts for dispatch tests ----------------------------------------

class Shout(Emit):
    """Not an effect: effects are dispatched on their exact class."""


class Counter:
    """Increments on poke; optionally calls a peer or explodes."""

    def initial_state(self):
        return 0

    def handle(self, state, msg: Msg, ctx):
        if msg.method == "poke":
            return state + 1, [Emit("Poked", {"count": state + 1})], state + 1
        if msg.method == "poke_then_call":
            return state + 1, [Call(msg.args["peer"], msg.args["peer_method"],
                                    msg.args.get("peer_args", {}))], None
        if msg.method == "pay":
            return state, [Transfer(msg.args["to"], msg.args["amount"])], None
        if msg.method == "boom":
            raise ContractError("boom")
        if msg.method == "issue":
            return state, [Issue(msg.args["amount"], "test")], None
        if msg.method == "destroy":
            return state, [Destroy(msg.args["amount"], "test")], None
        if msg.method == "recurse":
            return state + 1, [Call(msg.args["self"], "recurse", msg.args)], None
        if msg.method == "call_bare":
            return state, [Call(msg.args["peer"], "scribble")], None
        if msg.method == "scribble":
            msg.args["scribbled"] = True
            return state, [], dict(msg.args)
        if msg.method == "bogus":
            return state, [Emit("Poked", {}), ("Poked", {})], None
        if msg.method == "subclassed":
            return state, [Shout("Poked", {})], None
        if msg.method == "forge":
            return state + 1, [Emit(msg.args["tag"], {"to": "user", "amount": 5})], None
        raise ContractError(f"no method {msg.method}")


def dispatch_ledger():
    led = fresh_ledger(user=100)
    led.register_contract("c1", Counter())
    led.register_contract("c2", Counter())
    return led


# Each way an amount reaches a balance: entry(ledger, amount), on a ledger
# of amount_ledger().
AMOUNT_ENTRIES = {
    "genesis": lambda led, amount: led.genesis("user", amount),
    "call value": lambda led, amount: led.call("user", "c1", "poke", value=amount),
    "transfer": lambda led, amount: led.call("user", "c1", "pay", {"to": "user", "amount": amount}),
    "issue": lambda led, amount: led.call("user", "c1", "issue", {"amount": amount}),
    "destroy": lambda led, amount: led.call("user", "c1", "destroy", {"amount": amount}),
}


def amount_ledger() -> Ledger:
    """A user holding 90 and an issuer contract c1 holding 10."""
    led = fresh_ledger(user=100)
    led.register_contract("c1", Counter(), issuer=True)
    transfer(led, "user", "c1", 10)
    return led


class TestIntegerAmounts:
    @pytest.mark.parametrize("amount", [1.5, True, 0.0])
    @pytest.mark.parametrize("entry", AMOUNT_ENTRIES)
    def test_an_amount_that_is_not_an_int_is_invalid(self, entry, amount):
        led = amount_ledger()
        snap = snapshot(led)
        with pytest.raises(InvalidAmount) as error:
            AMOUNT_ENTRIES[entry](led, amount)
        assert str(error.value).endswith(f" integer, got {amount!r}")
        assert snapshot(led) == snap
        AMOUNT_ENTRIES[entry](led, 1)           # the entry itself is open to an int
        assert snapshot(led) != snap


class TestDispatch:
    def test_happy_path_commits(self):
        led = dispatch_ledger()
        result = led.call("user", "c1", "poke")
        assert result == 1
        assert led.contract_state("c1") == 1
        tags = [e.tag for e in logged_events(led) if e.tag != "SupplyMint"]
        assert tags == ["Call", "Poked"]

    def test_unknown_contract(self):
        led = dispatch_ledger()
        with pytest.raises(UnknownContract):
            led.call("user", "nope", "poke")

    def test_value_moves_with_call(self):
        # and is logged once, on the Call line
        led = dispatch_ledger()
        led.call("user", "c1", "poke", value=40)
        assert led.balance_of("user") == 60
        assert led.balance_of("c1") == 40
        assert [(e.emitter, e.tag, e.payload) for e in logged_events(led)[1:]] == [
            ("user", "Call", ["c1", "poke", 40]),
            ("c1", "Poked", {"count": 1})]

    def test_nested_revert_rolls_back_everything(self):
        # c1 state bump + value move + nested boom at depth 2: all undone.
        led = dispatch_ledger()
        snap = snapshot(led)
        with pytest.raises(ContractError):
            led.call("user", "c1", "poke_then_call",
                     {"peer": "c2", "peer_method": "boom"}, value=10)
        assert snapshot(led) == snap

    def test_nested_insufficient_balance_rolls_back(self):
        led = dispatch_ledger()
        snap = snapshot(led)
        with pytest.raises(InsufficientBalance):
            led.call("user", "c1", "poke_then_call",
                     {"peer": "c2", "peer_method": "pay",
                      "peer_args": {"to": "user", "amount": 999}})
        assert snapshot(led) == snap

    def test_nested_call_commits_both_states(self):
        led = dispatch_ledger()
        led.call("user", "c1", "poke_then_call",
                 {"peer": "c2", "peer_method": "poke"})
        assert led.contract_state("c1") == 1
        assert led.contract_state("c2") == 1

    def test_reentrancy_depth_limit(self):
        led = dispatch_ledger()
        snap = snapshot(led)
        with pytest.raises(ReentrancyLimitExceeded):
            led.call("user", "c1", "recurse", {"self": "c1"})
        assert snapshot(led) == snap

    @pytest.mark.parametrize("target", ["mint", "treasury", "beacon", "wallet:0"])
    def test_unknown_method_is_its_own_error(self, target):
        w = make_world()
        snap = snapshot(w.ledger)
        with pytest.raises(UnknownMethod, match="has no method 'nope'"):
            w.ledger.call("alice", target, "nope", {}, value=1)
        assert snapshot(w.ledger) == snap
        assert not issubclass(UnknownMethod, InvalidAmount)

    def test_default_call_args_are_never_shared(self):
        # The callee gets its own empty dict for Call's default args (None);
        # scribbling on it leaves the default as it was for every later Call.
        led = dispatch_ledger()
        led.call("user", "c1", "call_bare", {"peer": "c2"})
        led.call("user", "c1", "call_bare", {"peer": "c2"})
        assert Call("c2", "scribble").args is None
        with pytest.raises(TypeError):
            Call("c2", "scribble").args["x"] = 1

    @pytest.mark.parametrize("method", ["bogus", "subclassed"])
    def test_unknown_effect_raises_and_reverts(self, method):
        led = dispatch_ledger()
        snap = snapshot(led)
        with pytest.raises(TypeError, match="unknown effect"):
            led.call("user", "c1", method)
        assert snapshot(led) == snap

    def test_issue_restricted_to_issuers(self):
        led = dispatch_ledger()
        with pytest.raises(Unauthorized):
            led.call("user", "c1", "issue", {"amount": 5})
        led.register_contract("bank", Counter(), issuer=True)
        led.call("user", "bank", "issue", {"amount": 5})
        assert led.balance_of("bank") == 5
        assert led.minted_total == 105  # genesis 100 + issued 5

    def test_is_contract_raises_on_an_unregistered_name(self):
        led = dispatch_ledger()
        assert led.is_contract("c1")
        assert not led.is_contract("user")
        with pytest.raises(UnknownAddress):
            led.is_contract("ghost")


class TestEpochs:
    def test_single_advance(self):
        led = Ledger()
        assert led.epoch == 0
        assert led.advance_epoch() == 1

    def test_thousand_advances(self):
        led = Ledger()
        for _ in range(1000):
            led.advance_epoch()
        assert led.epoch == 1000

    def test_hooks_run_in_fixed_order_deterministically(self):
        # The sub-steps handed to advance_epoch run after the clock moves.
        def build():
            led = fresh_ledger(a=1000, b=0)

            def substeps():
                transfer(led, "a", "b", 1)
                transfer(led, "b", "a", 1)

            for _ in range(10):
                led.advance_epoch(substeps)
            return led.events_jsonl(), logged_events(led)

        (log, events), again = build(), build()
        assert log == again[0]
        moves = [(e.epoch, e.emitter) for e in events if e.tag == "Transfer"]
        assert moves == [(epoch, src) for epoch in range(1, 11) for src in "ab"]


class TestEventLog:
    def test_jsonl_field_order(self):
        led = fresh_ledger(a=5, b=0)
        transfer(led, "a", "b", 2)
        header, *lines = led.events_jsonl().splitlines()
        assert header == '{"epoch":0}'
        assert [list(json.loads(line)) for line in lines] == [["emitter", "tag", "payload"]] * 2

    def test_a_header_opens_each_epoch_that_logs_and_no_other(self):
        # Epochs 1 and 3 log nothing; an event's epoch is its header's.
        led = fresh_ledger(a=10, b=0)
        for logs in (False, True, False, True, True):
            led.advance_epoch(lambda: transfer(led, "a", "b", 1) if logs else None)
        lines = led.events_jsonl().splitlines()
        assert [json.loads(line)["epoch"] for line in lines if "epoch" in json.loads(line)] \
            == [0, 2, 4, 5]
        assert [e.epoch for e in logged_events(led)] == [0, 2, 4, 5]

    def test_seq_is_total_order(self):
        led = fresh_ledger(a=10, b=0)
        transfer(led, "a", "b", 1)
        led.advance_epoch()
        transfer(led, "a", "b", 1)
        events = logged_events(led)
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) == list(range(len(seqs)))
        epochs = [e.epoch for e in events]
        assert epochs == sorted(epochs)

    def test_reverted_tree_leaves_no_events(self):
        led = dispatch_ledger()
        before = len(logged_events(led))
        with pytest.raises(ContractError):
            led.call("user", "c1", "boom")
        assert len(logged_events(led)) == before

    @pytest.mark.parametrize("tag", sorted(LEDGER_TAGS))
    def test_a_line_the_ledger_writes_is_no_one_elses_event(self, tag):
        # A forged balance move would be folded by the replay as a real one.
        led = dispatch_ledger()
        before = snapshot(led)
        with pytest.raises(Unauthorized, match=f"'{tag}'"):
            led.call("user", "c1", "forge", {"tag": tag})
        with pytest.raises(ValueError, match=f"user {tag} line"):
            led.emit("user", tag, {"to": "user", "amount": 5})
        assert snapshot(led) == before
        led.call("user", "c1", "forge", {"tag": "Forged"})      # any other tag is an event
        assert logged_events(led)[-1].tag == "Forged"

    def test_no_contract_runs_at_the_system_address(self):
        # A contract at system could emit a Repeat line that reads as the
        # ledger's own, as Ledger.emit refuses to log.
        led = dispatch_ledger()
        before = snapshot(led)
        with pytest.raises(ValueError, match="'system'"):
            led.register_contract("system", Counter())
        assert snapshot(led) == before
        with pytest.raises(UnknownAddress):
            led.is_contract("system")


# Text that a format string, a pattern over the log or a careless escape
# misreads: a header, or a Repeat, inside a payload.
HOSTILE = ["{", "{0}", "}", "{{}}", '"', "\\", '\\"', "é€💸", '"epoch":5', '"seq":1',
           ',"lines":3}', "\n", '\n{"epoch":5}\n', '{"emitter":"system","tag":"Repeat"']


class Name(str):
    """A str subclass: json writes it as the string it holds."""


json_text = st.text(max_size=6) | st.text(max_size=6).map(Name) \
    | st.sampled_from(["amount", "to", "é", "\u2028", "\x00\x1f", '"\\', "💸"])
json_scalars = (st.none() | st.booleans() | st.integers() | st.floats() | json_text
                | st.integers(min_value=-2 ** 70, max_value=2 ** 70))
json_keys = json_text | st.integers(min_value=-5, max_value=5) | st.booleans() | st.none()
payloads = st.dictionaries(
    json_keys,
    st.recursive(json_scalars,
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(json_keys, inner, max_size=3),
                 max_leaves=6),
    max_size=4)
flat_payloads = st.dictionaries(json_text, st.integers() | json_text, max_size=4)


class Int(int):
    """An int subclass whose str() is not its JSON."""

    def __repr__(self) -> str:
        return "Int"


# Lists of int lists (EpochAccrual's shape), with rows and items that are not.
int_rows = st.lists(st.lists(st.integers() | st.integers(-3, 3).map(Int) | st.booleans(),
                             max_size=3) | st.integers(), max_size=3)
row_payloads = st.dictionaries(json_text, st.integers() | json_text | int_rows, max_size=3)

# Positional payloads, as the ledger's own lines are: lists of ints and
# strings, and lists that also hold, at any position, a scalar of another
# type (a bool, a float, None, a subclass) or a list or dict (a
# TransferBatch's two lists). Their strings are escaped, non-ASCII or
# HOSTILE text, and their ints reach past 2**64.
list_items = st.integers() | st.integers(-2 ** 70, 2 ** 70) | json_text \
    | st.sampled_from(HOSTILE)
list_scalars = list_items | json_scalars | st.integers(-3, 3).map(Int)
flat_lists = st.lists(list_items, max_size=4)
list_payloads = st.lists(list_scalars, max_size=4) | st.lists(
    st.recursive(list_scalars, lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(json_keys, inner, max_size=3), max_leaves=6),
    max_size=4)
# A Call's payload without value, [target, method].
routes = st.lists(json_text, min_size=2, max_size=2)
any_payloads = payloads | flat_payloads | row_payloads | flat_lists | list_payloads | routes


def event_tags(max_size: int):
    """Any text up to `max_size` characters that a contract or a driver may
    emit as a tag: none of the ledger's own (``LEDGER_TAGS``)."""
    return st.text(max_size=max_size).filter(lambda tag: tag not in LEDGER_TAGS)


def dumps_line(e: Event) -> str:
    return json.dumps({"emitter": e.emitter, "tag": e.tag, "payload": e.payload},
                      separators=(",", ":"))


def dumps_log(events, epoch: int = -1) -> list[str]:
    """The oracle of ``encode_lines(events, epoch)``: each event's line,
    after a header wherever the epoch changes."""
    out = []
    for e in events:
        if e.epoch != epoch:
            epoch = e.epoch
            out.append(json.dumps({"epoch": epoch}, separators=(",", ":")) + "\n")
        out.append(dumps_line(e) + "\n")
    return out


class TestEventEncoding:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.sampled_from(["a", "é", Name("a")]),
                              st.sampled_from(["Transfer", "Call", "Tag\u00e9", "x\n"]),
                              any_payloads),
                    max_size=8),
           st.integers(min_value=0, max_value=10 ** 9), st.lists(st.booleans(), max_size=8),
           st.integers(min_value=-1, max_value=1))
    def test_lines_equal_json_dumps(self, entries, epoch, later, carried):
        # Several events per call, so one encoder and its cached heads serve
        # them all. Each may be an epoch after the one before, and
        # the first's header is left out if the last header written was its.
        epochs = [epoch + sum(later[:i + 1]) for i in range(len(entries))]
        events = [Event(e, seq, em, tag, p) for seq, (e, (em, tag, p))
                  in enumerate(zip(epochs, entries))]
        lines = encode_lines(events, epoch + carried)
        assert lines == dumps_log(events, epoch + carried)
        assert [to_json(e) for e in events] == [line[:-1] for line in lines
                                                if not line.startswith('{"epoch":')]

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b"]), event_tags(4),
                              payloads | flat_payloads), max_size=6))
    def test_events_jsonl_is_each_events_to_json(self, entries):
        led = fresh_ledger(a=5, b=0)
        for emitter, tag, payload in entries:
            led.emit(emitter, tag, payload)
            led.advance_epoch()
        events = list(led._pending)      # the Event objects, before events_jsonl encodes them
        assert led.events_jsonl() == "".join(dumps_log(events))

    @settings(max_examples=100)
    @given(st.lists(any_payloads, min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                              st.sampled_from(["Call", "EpochAccrual"])), max_size=10))
    def test_shared_payload_objects_encode_like_copies(self, pool, picks):
        # One payload object logged by several events in one batch, a Call's
        # or one that holds lists of int lists, as the beacon's state shares
        # its last EpochAccrual payload, encodes as copies of it would: the
        # encoder's circular-reference markers are cleared after each line.
        events = [Event(0, seq, "a", tag, pool[i % len(pool)])
                  for seq, (i, tag) in enumerate(picks)]
        assert encode_lines(events) == dumps_log(events)

    def test_payloads_built_on_the_fly_keep_their_own_encoding(self):
        # A payload freed after its line must not pass its encoding, or a
        # circular-reference marker under its id, on to a later payload that
        # reuses its id.
        n = 1000
        for tag, payload in (("Call", lambda i: {"i": i}), ("Call", lambda i: ["c", str(i)]),
                             ("EpochAccrual", lambda i: {"amounts": [[0, i]]})):
            lines = encode_lines(Event(0, i, "a", tag, payload(i)) for i in range(n))
            assert lines == dumps_log([Event(0, i, "a", tag, payload(i)) for i in range(n)])

    def test_a_failed_encode_leaves_the_next_batch_as_json_dumps(self):
        # The encoder raises json.dumps' error, and the next call encodes the
        # same payload, now valid, as json.dumps does: an encoder kept from
        # the failed call would still hold the failed lines' markers.
        bad = {"x": [set()]}
        with pytest.raises(TypeError) as dumped:
            json.dumps(bad, separators=(",", ":"))
        with pytest.raises(TypeError) as encoded:
            encode_lines([Event(0, 0, "a", "Bad", bad)])
        assert str(encoded.value) == str(dumped.value)
        bad["x"][0] = 1
        event = Event(0, 0, "a", "Bad", bad)
        assert encode_lines([event]) == dumps_log([event])

    def test_circular_payload_still_rejected(self):
        p: dict = {"self": []}
        p["self"].append(p)
        with pytest.raises(ValueError, match="Circular reference"):
            to_json(Event(0, 0, "a", "Loop", p))

    def test_records_survive_snapshot_and_pickle(self):
        led = dispatch_ledger()
        led.call("user", "c1", "poke", value=3)
        snap = snapshot(led)
        jsonl = led.events_jsonl()
        led.call("user", "c1", "poke")
        restore(led, snap)
        restored = led._pending          # the snapshot's batch, not yet encoded
        assert led.events_jsonl() == jsonl
        assert restored and all(type(e) is Event for e in restored)
        for record in (Msg("a", "c", "m", {"k": 1}), Transfer("a", 1), Emit("T", {}),
                       Call("a", "m"), Issue(1, "x"), restored[-1]):
            assert pickle.loads(pickle.dumps(record)) == record
        assert pickle.loads(pickle.dumps(Call("a", "m"))).args is Call("a", "m").args

    def test_a_snapshot_holds_every_field_of_a_ledger_but_its_registries(self):
        fields = vars(Ledger()).keys()
        assert REGISTRY_FIELDS.keys() < fields
        led = tally_ledger(7, "x")
        snap = snapshot(led)
        assert pickle.loads(snap).keys() == fields - REGISTRY_FIELDS.keys()
        # A segment moves the clock, the seqs, balances, supply, replay and
        # log; a restore brings every one of them back.
        assert tally_segment(led, 5, 7)
        restore(led, snap)
        assert pickle.loads(snapshot(led)) == pickle.loads(snap)


# --- segments: many epochs committed at once -----------------------------------

class Tally:
    """Each poke mints 6 to itself, pays 3 of it to ``user`` and adds `step`
    to its running total. It logs `step`, `note` as tag, memo, key and
    strings, a header's and a Repeat's text, and, if `total`, the running
    total, which differs from epoch to epoch."""

    def __init__(self, step: int, note: str, total: bool = False):
        self.step, self.note, self.total = step, note, total

    def initial_state(self):
        return 24

    def handle(self, state, msg: Msg, ctx):
        total, note = state + self.step, self.note
        payload = {"epoch": 5, "step": self.step, note: note, "seq": note,
                   "hostile": [*HOSTILE, {"epoch": 5, "lines": True, "seq": "1"}]}
        if self.total:
            payload["total"] = total
        return total, [Issue(6, note), Transfer("user", 3), Emit(note, payload)], None


def poke(led: Ledger):
    """`led`'s sub-steps: one poke of its Tally (4 events)."""
    return lambda: led.call("user", "tally", "poke")


def tally_ledger(step: int, note: str, total: bool = False) -> Ledger:
    """A ledger whose every epoch pokes a Tally (:func:`poke`), stepped to epoch 2."""
    return poked_ledger(1, 1, step=step, note=note, total=total)


def poked_ledger(*pokes: int, step: int = 7, note: str = "x", total: bool = False) -> Ledger:
    """A fresh ledger with a Tally, stepped one epoch for each of `pokes`,
    whose Tally is poked that many times in it."""
    led = fresh_ledger(user=0)
    led.register_contract("tally", Tally(step, note, total), issuer=True)
    for times in pokes:
        led.advance_epoch(lambda: [poke(led)() for _ in range(times)])
    return led


def tally_segment(led: Ledger, k: int, step: int) -> bool:
    """advance_segment for k more pokes of `led`'s Tally, whose total rises by `step` each."""
    return led.advance_segment(k, {"tally": led.contract_state("tally") + k * step})


def blocks(events: list[Event]) -> list[str]:
    """The blocks of the last epoch that logged in `events` and of the epoch
    before it, each its event lines ("" for none): what ``Ledger._recent``
    must hold, each block joined."""
    if not events:
        return ["", ""]
    last = events[-1].epoch
    return ["".join(to_json(e) + "\n" for e in events if e.epoch == epoch)
            for epoch in (last - 1, last)]


def ledger_state(led: Ledger) -> dict:
    """What the ledger holds, flushed, with its log written out: every
    snapshotted field but the file's length, and the expanded log. The
    blocks it keeps for a segment check, wherever flushes cut them, must
    be the log's last."""
    events = logged_events(led)
    state = pickle.loads(snapshot(led))
    state["_recent"] = [*map("".join, state["_recent"])]
    assert state["_recent"] == blocks(events)
    del state["_log_len"]
    return {**state, "log": expanded(led.events_jsonl())}


def repeat_line(k: int) -> str:
    return json.dumps({"emitter": "system", "tag": "Repeat", "payload": {"epochs": k}},
                      separators=(",", ":")) + "\n"


def old_line(e: Event) -> str:
    return json.dumps(e._asdict(), separators=(",", ":")) + "\n"


def assert_segment_copies_like_stepping(step: int, note: str, k: int) -> None:
    led, stepped = tally_ledger(step, note), tally_ledger(step, note)
    for _ in range(2):
        # A segment, one stepped epoch, and a segment checked against the
        # last epoch of the one before.
        head = led.events_jsonl()
        whole = expanded(head)
        block = head.splitlines(keepends=True)[-4:]
        last = logged_events(led)[-4:]
        assert tally_segment(led, k, step)
        reference = [old_line(e._replace(epoch=e.epoch + t, seq=e.seq + 4 * t))
                     for t in range(1, k + 1) for e in last]
        assert led.events_jsonl() == head + repeat_line(k)
        assert expanded(led.events_jsonl()) == whole + "".join(reference)
        assert [*map("".join, led._recent)] == ["".join(block)] * 2    # the last two epochs
        for _ in range(k):
            stepped.advance_epoch(poke(stepped))
        assert ledger_state(led) == ledger_state(stepped)
        for each in (led, stepped):
            each.advance_epoch(poke(each))


class TestSegment:
    @pytest.mark.parametrize("step", [7, 0, -7])
    def test_copies_match_a_naive_reference_and_stepping(self, step):
        # Two segments of 500 epochs of 4 lines, each one Repeat line.
        # A step of -7 takes the Tally's total below zero in the first.
        assert_segment_copies_like_stepping(step, "".join(HOSTILE), 500)

    @settings(max_examples=60, deadline=None)
    @given(event_tags(8) | st.sampled_from(HOSTILE), st.integers(-30, 30),
           st.integers(1, 5))
    def test_any_note_copies_like_stepping(self, note, step, k):
        assert_segment_copies_like_stepping(step, note, k)

    @pytest.mark.parametrize("build, step", [
        # A line of the last epoch states a running total, which differs by
        # a stride from the epoch before's: the two blocks differ.
        (lambda: tally_ledger(7, "".join(HOSTILE), total=True), 7),
        (lambda: poked_ledger(1), 7),
        (lambda: poked_ledger(1, 1, 2), 7),
        # The last epoch's lines are the tail of the one before, advanced one
        # epoch, but that epoch logged more lines.
        (lambda: poked_ledger(2, 1), 7),
    ], ids=["stride", "first-epoch-that-logs-lines", "epoch-longer-than-the-one-before",
            "epoch-shorter-than-the-one-before"])
    def test_a_refused_segment_changes_nothing(self, build, step):
        led, untouched = build(), build()
        epoch, count = led.epoch, led.event_count
        assert not tally_segment(led, 50, step)
        for each in (led, untouched):
            each.flush()
        assert pickle.loads(snapshot(led)) == pickle.loads(snapshot(untouched))
        assert (led.epoch, led.event_count) == (epoch, count)

    def test_an_epoch_of_no_lines_repeats_only_another(self):
        # Epoch 2 logs nothing after epoch 1's poke, so it repeats nothing:
        # refused before any flush. Epoch 3, after epoch 2, repeats it.
        led, untouched = poked_ledger(1, 0), poked_ledger(1, 0)
        assert not led.advance_segment(5, {})
        assert pickle.loads(snapshot(led)) == pickle.loads(snapshot(untouched))
        stepped = poked_ledger(1, 0, 0)
        led.advance_epoch()
        assert led.advance_segment(5, {})
        for _ in range(5):
            stepped.advance_epoch()
        assert led.epoch == 8
        assert ledger_state(led) == ledger_state(stepped)

    def test_a_second_segment_with_no_epoch_between_is_checked_like_any_other(self):
        # A segment keeps the last two of its epochs, as stepping does, so
        # a second ask reads them as it would two stepped epochs.
        led, stepped = tally_ledger(7, "x"), tally_ledger(7, "x")
        for k in (5, 3):
            assert tally_segment(led, k, 7)
            for _ in range(k):
                stepped.advance_epoch(poke(stepped))
            assert ledger_state(led) == ledger_state(stepped)
        assert led.events_jsonl().count('"tag":"Repeat"') == 2

    def test_a_segment_is_checked_against_the_epoch_before_the_next(self):
        # After an idle epoch and a poked one, the epoch before the poke
        # logged no lines, so the segment is refused.
        led = tally_ledger(7, "x")
        assert tally_segment(led, 5, 7)
        led.advance_epoch()
        led.advance_epoch(poke(led))
        led.flush()
        before = pickle.loads(snapshot(led))
        assert not tally_segment(led, 5, 7)
        assert pickle.loads(snapshot(led)) == before

    def test_epochs_that_log_nothing_advance_as_a_segment(self):
        # n = 0: each epoch repeats an epoch of no lines, so a segment only
        # moves the clock.
        led, stepped = fresh_ledger(user=5), fresh_ledger(user=5)
        for each in (led, stepped):
            each.advance_epoch()
            each.advance_epoch()
        assert led.advance_segment(10_000, {})
        for _ in range(10_000):
            stepped.advance_epoch()
        assert led.epoch == 10_002
        assert ledger_state(led) == ledger_state(stepped)

    def test_a_segment_of_epochs_that_log_nothing_writes_no_line(self):
        # After a segment of pokes, two idle epochs, then a segment of idle
        # ones: it writes nothing, and keeps the blocks of the last epoch
        # that logged, as the idle epochs do.
        led, stepped = tally_ledger(7, "x"), tally_ledger(7, "x")
        assert tally_segment(led, 5, 7)
        for _ in range(5):
            stepped.advance_epoch(poke(stepped))
        for each in (led, stepped):
            each.advance_epoch()
            each.advance_epoch()
        text, recent = led.events_jsonl(), [*map("".join, led._recent)]
        assert led.advance_segment(10, {})
        for _ in range(10):
            stepped.advance_epoch()
        assert (led.events_jsonl(), [*map("".join, led._recent)]) == (text, recent)
        assert ledger_state(led) == ledger_state(stepped)

    @pytest.mark.parametrize("k", [-1, True, 1.0], ids=["k-negative", "k-bool", "k-float"])
    def test_a_segment_is_an_int_count_of_epochs(self, k):
        # Taken, a bool or a float would log a Repeat line explain.expand
        # refuses, and a negative k would move the clock, the seqs and
        # supply backwards.
        led = tally_ledger(7, "x")
        before = ledger_state(led)
        with pytest.raises(ValueError, match="segment"):
            led.advance_segment(k, {"tally": led.contract_state("tally") + 7})
        assert ledger_state(led) == before

    def test_a_segment_sets_the_states_of_contracts_only(self):
        # An account has no state, and an unregistered name no address: a
        # state stored under either is one contract_state refuses to read.
        led = tally_ledger(7, "x")
        before = ledger_state(led)
        with pytest.raises(ValueError, match=r"no contract is named \['ghost', 'user'\]"):
            led.advance_segment(3, {"tally": led.contract_state("tally") + 21, "user": 99,
                                    "ghost": 1})
        assert ledger_state(led) == before

    def test_the_repeat_line_is_not_an_event_a_driver_may_emit(self):
        led = fresh_ledger(user=5)
        led.register_account("system")
        with pytest.raises(ValueError, match="Repeat"):
            led.emit("system", "Repeat", {"epochs": 1})
        led.emit("user", "Repeat", {})     # only the system's is the ledger's


# --- a call's value: carried by its Call line, replayed from it ----------------

RELAYS = ("r0", "r1", "r2")


class Relay:
    """Runs the call tree in its args: pays each (to, amount) of ``pays``,
    then makes each call (target, value, pays, calls) of ``calls``."""

    def initial_state(self):
        return 0

    def handle(self, state, msg: Msg, ctx):
        effects = [Transfer(to, amount) for to, amount in msg.args["pays"]]
        effects += [Call(target, "relay", {"pays": pays, "calls": calls}, value)
                    for target, value, pays, calls in msg.args["calls"]]
        return state + 1, effects, None


def relay_ledger() -> Ledger:
    """``user`` and three Relays, each endowed with 60."""
    led = fresh_ledger(user=60)
    for name in RELAYS:
        led.register_contract(name, Relay())
        led.genesis(name, 60)
    return led


def relay(led: Ledger, tree) -> None:
    """``user``'s call of `tree`, a (target, value, pays, calls) of :class:`Relay`."""
    target, value, pays, calls = tree
    led.call("user", target, "relay", {"pays": pays, "calls": calls}, value)


def tree_lines(tree, caller: str, balances: dict, lines: list, depth: int = 0) -> None:
    """The oracle of :func:`relay`: append the lines `tree` logs to `lines`
    and move `balances`, as the ledger must, or raise the error it must."""
    target, value, pays, calls = tree
    if depth > CALL_DEPTH_LIMIT:
        raise ReentrancyLimitExceeded
    if type(value) is not int or value < 0:
        raise InvalidAmount
    call = [target, "relay"]
    if value:
        tree_moved(balances, caller, target, value)
        call.append(value)
    lines.append((caller, "Call", call))
    for to, amount in pays:
        tree_moved(balances, target, to, amount)
    if len(pays) == 1:      # a run of two or more is one TransferBatch line
        lines.append((target, "Transfer", list(pays[0])))
    elif pays:
        lines.append((target, "TransferBatch", [[to for to, _ in pays],
                                                [amount for _, amount in pays]]))
    for child in calls:
        tree_lines(child, target, balances, lines, depth + 1)


def tree_moved(balances: dict, src: str, dst: str, amount: int) -> None:
    if balances[src] < amount:
        raise InsufficientBalance
    balances[src] -= amount
    balances[dst] += amount


# A call's value: an int from 0 to 30, or, about one time in five, no int >= 0.
call_values = st.sampled_from([*range(31), -1, True, False, 1.5, 2.0, "3", None])
tree_pays = st.lists(st.tuples(st.sampled_from(("user", *RELAYS)), st.integers(1, 20)),
                     max_size=2)
call_trees = st.recursive(
    st.tuples(st.sampled_from(RELAYS), call_values, tree_pays, st.just([])),
    lambda inner: st.tuples(st.sampled_from(RELAYS), call_values, tree_pays,
                            st.lists(inner, max_size=3)),
    max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(call_trees)
def test_a_call_tree_logs_each_value_once_on_its_call_line(tree):
    # Value at any depth rides on its Call line: the tree logs the oracle's
    # lines, so no Transfer line repeats a Call's value, and replaying them,
    # at once or flush by flush, gives the live balances. A value that is
    # not an int >= 0, like a balance too small, reverts the whole tree and
    # writes no line.
    led = relay_ledger()
    genesis, before = len(logged_events(led)), snapshot(led)
    balances = {name: led.balance_of(name) for name in ("user", *RELAYS)}
    lines: list = []
    try:
        tree_lines(tree, "user", balances, lines)
    except (InvalidAmount, InsufficientBalance, ReentrancyLimitExceeded) as error:
        with pytest.raises(type(error)):
            relay(led, tree)
        assert snapshot(led) == before
        return
    relay(led, tree)
    events = logged_events(led)
    assert [(e.emitter, e.tag, e.payload) for e in events[genesis:]] == lines
    assert {name: led.balance_of(name) for name in balances} == balances
    assert replay_balances(events).balances == balances
    assert led.flush().balances == balances


class TestConservation:
    def test_supply_identity_after_activity(self):
        led = dispatch_ledger()
        led.register_contract("bank", Counter(), issuer=True)
        led.call("user", "bank", "issue", {"amount": 50})
        led.call("user", "c1", "poke", value=30)
        led.call("user", "c1", "pay", {"to": "user", "amount": 10})
        assert led.total_balance() == led.minted_total - led.burned_total

    def test_replay_reconstructs_balances(self):
        led = dispatch_ledger()
        led.call("user", "c1", "poke", value=25)
        led.advance_epoch()
        led.call("user", "c1", "pay", {"to": "user", "amount": 5})
        replay = replay_balances(logged_events(led))
        for name in ("user", "c1", "c2"):
            assert replay.balances.get(name, 0) == led.balance_of(name)
        assert (replay.minted, replay.burned) == (led.minted_total, led.burned_total)

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                              st.sampled_from(["a", "b", "c"]),
                              st.integers(min_value=1, max_value=50)),
                    max_size=30))
    def test_transfers_conserve_total(self, moves):
        led = fresh_ledger(a=100, b=100, c=100)
        for src, dst, amount in moves:
            if src == dst:
                continue
            try:
                transfer(led, src, dst, amount)
            except InsufficientBalance:
                pass
        assert led.total_balance() == 300
        assert all(led.balance_of(n) >= 0 for n in ("a", "b", "c"))
