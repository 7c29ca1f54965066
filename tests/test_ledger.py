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
        assert (last.emitter, last.payload) == ("a", {"to": "b", "amount": 3})


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
        led = dispatch_ledger()
        led.call("user", "c1", "poke", value=40)
        assert led.balance_of("user") == 60
        assert led.balance_of("c1") == 40

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

    def test_call_events_share_one_payload_per_route(self):
        led = dispatch_ledger()
        for _ in range(2):
            led.call("user", "c1", "poke_then_call", {"peer": "c2", "peer_method": "poke"})
        # The batch not yet encoded holds the logged Event objects themselves.
        calls = [e.payload for e in led._pending if e.tag == "Call"]
        assert calls == [{"target": "c1", "method": "poke_then_call"},
                         {"target": "c2", "method": "poke"}] * 2
        assert calls[0] is calls[2] and calls[1] is calls[3]
        assert calls[0] is not calls[1]

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
            return led.events_jsonl()

        log = build()
        assert log == build()
        moves = [(e["epoch"], e["emitter"]) for e in map(json.loads, log.splitlines())
                 if e["tag"] == "Transfer"]
        assert moves == [(epoch, src) for epoch in range(1, 11) for src in "ab"]


class TestEventLog:
    def test_jsonl_field_order(self):
        led = fresh_ledger(a=5, b=0)
        transfer(led, "a", "b", 2)
        line = led.events_jsonl().splitlines()[-1]
        assert line.startswith('{"epoch":0,"seq":')
        parsed = json.loads(line)
        assert list(parsed) == ["epoch", "seq", "emitter", "tag", "payload"]

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


def event_tags(max_size: int):
    """Any text up to `max_size` characters that a contract or a driver may
    emit as a tag: none of the ledger's own (``LEDGER_TAGS``)."""
    return st.text(max_size=max_size).filter(lambda tag: tag not in LEDGER_TAGS)


def dumps_line(e: Event) -> str:
    return json.dumps({"epoch": e.epoch, "seq": e.seq, "emitter": e.emitter,
                       "tag": e.tag, "payload": e.payload}, separators=(",", ":"))


class TestEventEncoding:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.sampled_from(["a", "é", Name("a")]),
                              st.sampled_from(["Transfer", "Tag\u00e9", "x\n"]),
                              payloads | flat_payloads | row_payloads),
                    max_size=8),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_lines_equal_json_dumps(self, entries, epoch):
        # Several events per call, so one payload's cached keys and strings
        # serve the next ones.
        events = [Event(epoch, seq, em, tag, p) for seq, (em, tag, p) in enumerate(entries)]
        lines = encode_lines(events)
        assert lines == [dumps_line(e) + "\n" for e in events]
        assert [to_json(e) for e in events] == [line[:-1] for line in lines]

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b"]), event_tags(4),
                              payloads | flat_payloads), max_size=6))
    def test_events_jsonl_is_each_events_to_json(self, entries):
        led = fresh_ledger(a=5, b=0)
        for emitter, tag, payload in entries:
            led.emit(emitter, tag, payload)
            led.advance_epoch()
        events = list(led._pending)      # the Event objects, before events_jsonl encodes them
        assert led.events_jsonl() == "".join(to_json(e) + "\n" for e in events)
        assert led.events_jsonl() == "".join(dumps_line(e) + "\n" for e in events)

    @settings(max_examples=100)
    @given(st.lists(payloads | flat_payloads | row_payloads, min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                              st.sampled_from(["Call", "EpochAccrual"])), max_size=10))
    def test_shared_payload_objects_encode_like_copies(self, pool, picks):
        # One payload object logged by several events, a Call's or one that
        # holds lists of int lists, is encoded once.
        events = [Event(0, seq, "a", tag, pool[i % len(pool)])
                  for seq, (i, tag) in enumerate(picks)]
        assert encode_lines(events) == [dumps_line(e) + "\n" for e in events]

    def test_payloads_built_on_the_fly_keep_their_own_encoding(self):
        # A payload freed after its line must not pass its cached encoding
        # on to a later payload that reuses its id.
        n = 1000
        for tag, payload in (("Call", lambda i: {"i": i}),
                             ("EpochAccrual", lambda i: {"amounts": [[0, i]]})):
            lines = encode_lines(Event(0, i, "a", tag, payload(i)) for i in range(n))
            assert lines == [dumps_line(Event(0, i, "a", tag, payload(i))) + "\n"
                             for i in range(n)]

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

# Text that a format string, a pattern over the log or a careless escape misreads.
HOSTILE = ["{", "{0}", "}", "{{}}", '"', "\\", '\\"', "é€💸", '"epoch":5', '"seq":1',
           ',"net_total":3}', "\n"]


class Tally:
    """Each poke mints 6 to itself and pays 3 of it to ``user``. It logs the
    epoch and its running total (`step` more each poke) under keys a segment
    advances, beside `note` as tag, memo, key and strings."""

    def __init__(self, step: int, note: str):
        self.step, self.note = step, note

    def initial_state(self):
        return 24

    def handle(self, state, msg: Msg, ctx):
        total, note, epoch = state + self.step, self.note, msg.args["epoch"]
        payload = {"epoch": epoch, "net_total": total, note: note, "seq": note,
                   "hostile": [*HOSTILE, {"epoch": epoch, "net_total": True, "seq": "1"}]}
        return total, [Issue(6, note), Transfer("user", 3), Emit(note, payload)], None


def poke(led: Ledger):
    """`led`'s sub-steps: one poke of its Tally (4 events)."""
    return lambda: led.call("user", "tally", "poke", {"epoch": led.epoch})


def tally_ledger(step: int, note: str) -> Ledger:
    """A ledger whose every epoch pokes a Tally (:func:`poke`), stepped to epoch 2."""
    return poked_ledger(1, 1, step=step, note=note)


def poked_ledger(*pokes: int, step: int = 7, note: str = "x") -> Ledger:
    """A fresh ledger with a Tally, stepped one epoch for each of `pokes`,
    whose Tally is poked that many times in it."""
    led = fresh_ledger(user=0)
    led.register_contract("tally", Tally(step, note), issuer=True)
    for times in pokes:
        led.advance_epoch(lambda: [poke(led)() for _ in range(times)])
    return led


def tally_segment(led: Ledger, k: int, step: int) -> bool:
    """advance_segment for k more pokes of `led`'s Tally, whose stride is `step`."""
    return led.advance_segment(k, {"net_total": step},
                               {"tally": led.contract_state("tally") + k * step})


def ledger_state(led: Ledger) -> dict:
    """What the ledger holds, flushed, with its log written out: the expanded
    log (not the file's length or the chunks kept in hand), seq, epoch,
    balances, supply, states and replay, but not the epoch it holds for its
    next segment."""
    log = expanded(led.events_jsonl())
    state = pickle.loads(snapshot(led))
    for kept in ("_held", "_held_epoch", "_chunks", "_chunk_ends", "_log_len"):
        del state[kept]
    return {**state, "log": log}


def advanced(obj, t: int, strides: dict[str, int]):
    """`obj`, decoded from a line, with each int under a key of `strides` advanced t strides."""
    if type(obj) is list:
        return [advanced(v, t, strides) for v in obj]
    if type(obj) is dict:
        return {key: v + t * strides[key] if key in strides and type(v) is int
                else advanced(v, t, strides) for key, v in obj.items()}
    return obj


def repeat_line(epoch: int, seq: int, k: int, n: int, step: int) -> str:
    return json.dumps({"epoch": epoch, "seq": seq, "emitter": "system", "tag": "Repeat",
                       "payload": {"epochs": k, "lines": n, "net_total": step}},
                      separators=(",", ":")) + "\n"


def assert_segment_copies_like_stepping(step: int, note: str, k: int) -> None:
    led, stepped = tally_ledger(step, note), tally_ledger(step, note)
    for first in (3, k + 4):
        # A segment, one stepped epoch, and a segment checked against the held epoch.
        head = led.events_jsonl()
        whole = expanded(head)
        last = head.splitlines()[-4:]
        assert tally_segment(led, k, step)
        strides = {"epoch": 1, "seq": 4, "net_total": step}
        reference = [encode_lines([Event(**advanced(json.loads(line), t, strides))])[0]
                     for t in range(1, k + 1) for line in last]
        assert led.events_jsonl() == head + repeat_line(first, 4 * first - 4, k, 4, step)
        assert expanded(led.events_jsonl()) == whole + "".join(reference)
        assert led._held == "".join(reference[-4:])
        for _ in range(k):
            stepped.advance_epoch(poke(stepped))
        assert ledger_state(led) == ledger_state(stepped)
        for each in (led, stepped):
            each.advance_epoch(poke(each))


class TestSegment:
    @pytest.mark.parametrize("step", [7, 0, -7])
    def test_copies_match_a_naive_reference_and_stepping(self, step):
        # Two segments of 500 epochs of 4 lines, each one Repeat line.
        # A stride of -7 takes the total below zero in the first.
        assert_segment_copies_like_stepping(step, "".join(HOSTILE), 500)

    @settings(max_examples=60, deadline=None)
    @given(event_tags(8) | st.sampled_from(HOSTILE), st.integers(-30, 30),
           st.integers(1, 5))
    def test_any_note_copies_like_stepping(self, note, step, k):
        assert_segment_copies_like_stepping(step, note, k)

    @pytest.mark.parametrize("build, step", [
        (lambda: tally_ledger(7, "".join(HOSTILE)), 8),
        (lambda: poked_ledger(1), 7),
        (lambda: poked_ledger(1, 1, 2), 7),
        # The last epoch's lines are the tail of the one before, advanced one
        # stride, but that epoch logged more lines.
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
        assert not led.advance_segment(5, {}, {})
        assert pickle.loads(snapshot(led)) == pickle.loads(snapshot(untouched))
        stepped = poked_ledger(1, 0, 0)
        led.advance_epoch()
        assert led.advance_segment(5, {}, {})
        for _ in range(5):
            stepped.advance_epoch()
        assert led.epoch == 8
        assert ledger_state(led) == ledger_state(stepped)

    def test_a_second_segment_with_no_epoch_between_is_refused(self):
        led = tally_ledger(7, "x")
        assert tally_segment(led, 5, 7)
        before = pickle.loads(snapshot(led))
        assert not tally_segment(led, 5, 7)
        assert pickle.loads(snapshot(led)) == before

    def test_a_segment_is_checked_against_the_epoch_it_ended_on(self):
        # The held epoch is the one before the next only while no epoch
        # steps between: after an idle epoch and a poked one, the epoch
        # before the poke logged no lines, so the segment is refused.
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
        assert led.advance_segment(10_000, {}, {})
        for _ in range(10_000):
            stepped.advance_epoch()
        assert led.epoch == 10_002
        assert ledger_state(led) == ledger_state(stepped)

    def test_a_segment_of_epochs_that_log_nothing_writes_no_line(self):
        # After a segment of pokes, two idle epochs, then a segment of idle
        # ones: it writes nothing, and the held epoch stays the last poked.
        led, stepped = tally_ledger(7, "x"), tally_ledger(7, "x")
        assert tally_segment(led, 5, 7)
        for _ in range(5):
            stepped.advance_epoch(poke(stepped))
        for each in (led, stepped):
            each.advance_epoch()
            each.advance_epoch()
        text, held = led.events_jsonl(), led._held
        assert led.advance_segment(10, {}, {})
        for _ in range(10):
            stepped.advance_epoch()
        assert (led.events_jsonl(), led._held) == (text, held)
        assert ledger_state(led) == ledger_state(stepped)

    @pytest.mark.parametrize("key", ["epoch", "seq", "epochs", "lines"])
    def test_a_stride_may_not_take_a_key_of_the_repeat_line(self, key):
        led = tally_ledger(7, "x")
        before = pickle.loads(snapshot(led))
        with pytest.raises(ValueError, match="stride"):
            led.advance_segment(5, {key: 7}, {})
        assert pickle.loads(snapshot(led)) == before

    def test_the_repeat_line_is_not_an_event_a_driver_may_emit(self):
        led = fresh_ledger(user=5)
        led.register_account("system")
        with pytest.raises(ValueError, match="Repeat"):
            led.emit("system", "Repeat", {"epochs": 1, "lines": 1})
        led.emit("user", "Repeat", {})     # only the system's is the ledger's


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
