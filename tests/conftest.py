"""Shared test world builder.

Unit tests drive the contracts step by step with small round numbers, so a
compact hand-wired world (no scenario engine, no epoch sub-steps) keeps
each test explicit about what happens when. The ledger operations only
tests use (snapshots, a bare transfer, one event's line, the expanded
log) live here too.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import strategies as st

from stakeclaim import golden_scenario_path
from stakeclaim.beacon import BeaconContract, BeaconParams
from stakeclaim.explain import event_lines, expand
from stakeclaim.ledger import CallContext, Event, Ledger, encode_lines
from stakeclaim.mint import MintContract
from stakeclaim.scenario import BehaviorWindow, DepositAction, MintSpec, Scenario, TreasurySpec, World
from stakeclaim.treasury import TreasuryContract, TreasuryState, accrued, balance_identity
from stakeclaim.wallet import ValidatorWallet

SYSTEM = "system"
OPERATOR = "operator"
MINT = "mint"
TREASURY = "treasury"
BEACON = "beacon"


@dataclass
class Mini:
    """A wired arrangement driven manually by tests."""

    ledger: Ledger
    stake: int
    m: int
    fee_bps: int
    wallets: list[str] = field(default_factory=list)

    # -- driving shortcuts --------------------------------------------------

    def mint(self, holder: str, amount: int):
        return self.ledger.call(holder, MINT, "mint", {}, value=amount)

    def post_escrow(self, amount: int):
        return self.ledger.call(OPERATOR, TREASURY, "post_escrow", {}, value=amount)

    def stake_all(self):
        return self.ledger.call(SYSTEM, TREASURY, "stake_all", {})

    def accrue(self, performance: dict | None = None):
        return self.ledger.call(SYSTEM, BEACON, "accrue_epoch",
                                {"performance": performance or {}})

    def sweep(self):
        return self.ledger.call(SYSTEM, BEACON, "sweep", {})

    def forward(self, j: int = 0):
        return self.ledger.call(SYSTEM, self.wallets[j], "forward_rewards", {})

    def watchdog(self, j: int = 0):
        return self.ledger.call(SYSTEM, self.wallets[j], "watchdog_check", {})

    def finalize(self, j: int = 0):
        return self.ledger.call(SYSTEM, self.wallets[j], "finalize_withdrawal", {})

    def slash(self, vid: int, bps: int):
        return self.ledger.call(SYSTEM, BEACON, "slash",
                                {"validator_id": vid, "fraction_bps": bps})

    def claim(self, holder: str):
        return self.ledger.call(holder, TREASURY, "claim", {})

    def transfer_nft(self, token_id: int, frm: str, to: str):
        return self.ledger.call(frm, MINT, "transfer_nft",
                                {"token_id": token_id, "to": to})

    # -- state reads ---------------------------------------------------------

    @property
    def treasury_state(self):
        return self.ledger.contract_state(TREASURY)

    @property
    def mint_state(self):
        return self.ledger.contract_state(MINT)

    @property
    def beacon_state(self):
        return self.ledger.contract_state(BEACON)

    def wallet_state(self, j: int = 0):
        return self.ledger.contract_state(self.wallets[j])

    def check_treasury_identity(self):
        assert self.ledger.balance_of(TREASURY) == balance_identity(self.treasury_state)


def make_world(m: int = 1, stake: int = 64, fee_bps: int = 1000,
               expected: int = 2, grace: int = 3, escrow_required: int = 0,
               min_contribution: int = 1, open_epoch: int = 0, close_epoch: int = 100,
               reward: int = 100, activation_delay: int = 1, exit_delay: int = 2,
               sweep_period: int = 1,
               holders: dict[str, int] | None = None) -> Mini:
    led = Ledger()
    led.register_account(SYSTEM)
    led.register_account(OPERATOR)
    for name, endowment in (holders or {"alice": 1000, "bob": 1000}).items():
        led.register_account(name)
        if endowment:
            led.genesis(name, endowment)
    led.genesis(OPERATOR, 10_000)

    # The three records a World hands its contracts.
    terms = TreasurySpec(fee_bps=fee_bps, expected_reward_per_epoch=expected,
                         grace_epochs=grace, escrow_required=escrow_required, validators=m)
    params = BeaconParams(stake_requirement=stake, reward_per_epoch=reward,
                          activation_delay=activation_delay, exit_delay=exit_delay,
                          sweep_period=sweep_period)
    window = MintSpec(min_contribution=min_contribution, open_epoch=open_epoch,
                      close_epoch=close_epoch)
    led.register_contract(BEACON, BeaconContract(params, driver=SYSTEM), issuer=True)
    wallets = [f"wallet:{j}" for j in range(m)]
    code = ValidatorWallet(terms, params, treasury=TREASURY, beacon=BEACON, operator=OPERATOR)
    for w in wallets:
        led.register_contract(w, code)      # one wallet code at every wallet address
    led.register_contract(TREASURY, TreasuryContract(
        terms, params, tuple(wallets), operator=OPERATOR, mint=MINT))
    led.register_contract(MINT, MintContract(window, terms, params, treasury=TREASURY))
    return Mini(ledger=led, stake=stake, m=m, fee_bps=fee_bps, wallets=wallets)


class SteppedWorld(World):
    """The reference driver: a World that steps every epoch, never a segment.

    Tests that watch individual calls run on it, and the shipped driver's
    segments are checked against it.
    """

    def _quiet_span(self) -> int:
        return 0


# The Ledger fields a snapshot leaves out, each with its reason: registries
# that no call tree writes, so restoring them could only undo a registration,
# and the log's file, which no pickle holds.
# Every other instance field is snapshotted, so a field added to Ledger is
# covered unless it is named here.
REGISTRY_FIELDS = {
    "_contracts": "contract code, registered once and never written by a call",
    "_issuers": "the issuer set, fixed when a contract registers",
    "_log_file": "the log's open file: a restore keeps it, and the restored _log_len "
                 "rolls the log back, as the next write goes at that length",
}


def snapshot(led: Ledger) -> bytes:
    """All of `led`'s mutable state, every instance field but the
    ``REGISTRY_FIELDS``, pickled; pair with :func:`restore`.

    The bytes are not canonical. A restored state holds unpickled copies
    of the event strings and of the payloads states share, while those
    built after the restore are other objects, so pickle shares them
    differently: equal states can pickle to different bytes once
    :func:`restore` has run. Compare snapshots taken across a restore with
    ``pickle.loads``, not as bytes. A report taken
    before a restore is not read after it: the restored ledger writes its
    log over the file the report reads.
    """
    return pickle.dumps({name: value for name, value in vars(led).items()
                         if name not in REGISTRY_FIELDS})


def restore(led: Ledger, snap: bytes) -> None:
    vars(led).update(pickle.loads(snap))


def transfer(led: Ledger, src: str, dst: str, amount: int) -> None:
    """Move value between registered addresses as one committed tree. Zero amounts rejected."""
    ctx = CallContext(led)
    ctx.move(src, dst, amount)
    ctx.commit()


def to_json(e: Event) -> str:
    """`e`'s event line of ``Ledger.events_jsonl``, without the newline:
    the line under its epoch's header, which states its epoch."""
    return encode_lines((e,), e.epoch)[0][:-1]


def dust_of(state: TreasuryState) -> int:
    """Net units distributed to no token yet: N - sum(accrued)."""
    return state.net_total - sum(accrued(state, t) for t in state.capital)


def expanded(log: str) -> str:
    """`log`'s events, each a line with its epoch and seq, each Repeat
    line's written out (``explain.event_lines``): the log of stepping; an
    inconsistent log fails the test."""
    try:
        return "".join(event_lines(log.splitlines(keepends=True)))
    except ValueError as exc:
        pytest.fail(f"the log does not expand: {exc}")


def logged_events(led: Ledger) -> list[Event]:
    """Every event on `led`'s log so far, with its epoch and seq (``explain.expand``)."""
    try:
        return list(expand(led.events_jsonl().splitlines(keepends=True)))
    except ValueError as exc:
        pytest.fail(f"the log does not expand: {exc}")


def small_scenario(**overrides) -> Scenario:
    """A valid one-validator scenario: horizon 20, mint window [0, 2)."""
    base = Scenario(
        treasury=TreasurySpec(fee_bps=1000, expected_reward_per_epoch=20,
                              grace_epochs=3, escrow_required=50, validators=1),
        mint=MintSpec(min_contribution=1, open_epoch=0, close_epoch=2),
        beacon=BeaconParams(stake_requirement=6400, reward_per_epoch=100,
                            activation_delay=1, exit_delay=2, sweep_period=1),
        deposits=(DepositAction("alice", 4000, 0), DepositAction("bob", 2400, 0)),
        operator_schedule=(BehaviorWindow(from_epoch=0, factor=1.0),),
        slashes=(),
        horizon=20,
    )
    return replace(base, **overrides)


# --- malformed scenario documents ----------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-10 ** 12, max_value=10 ** 12)
    | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5)


def json_paths(node, prefix=()):
    """Every key path into a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*prefix, key)
        if isinstance(child, (dict, list)):
            yield from json_paths(child, (*prefix, key))


@st.composite
def one_field_replaced(draw) -> dict:
    """The honest golden document, plus a slash, a claim and a resale, with
    one place replaced by arbitrary JSON."""
    doc = json.loads(golden_scenario_path("honest").read_text())
    doc["slashes"] = [{"epoch": 10, "validator": 0, "fraction_bps": 500}]
    doc["claims"] = [{"holder": "alice", "epoch": 15}]
    doc["nft_transfers"] = [{"token_id": 0, "from_holder": "alice", "to": "carol", "epoch": 5}]
    path = draw(st.sampled_from(list(json_paths(doc))))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(json_values)
    return doc


@pytest.fixture
def world() -> Mini:
    """Default single-validator world: stake 64, 10% fee, alice and bob funded."""
    return make_world()


@pytest.fixture
def staked_world() -> Mini:
    """World already staked with capitals alice=40, bob=24 and validator active."""
    return make_staked_world()


def make_staked_world() -> Mini:
    """The staked_world fixture's world, for callers outside a fixture."""
    w = make_world(escrow_required=10)
    w.post_escrow(10)
    w.mint("alice", 40)
    w.mint("bob", 24)
    w.stake_all()
    w.ledger.advance_epoch()          # epoch 1: activation_delay=1 reached
    w.accrue()                        # activates the validator
    return w
