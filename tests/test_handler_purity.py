"""Handlers never mutate the state they are handed.

A new contract state is a shallow copy that shares every field it does not
write with the state it came from, so the state a handler receives may be
the committed one. A handler that wrote a shared dict or list in place
would change committed state behind the ledger's back, and a reverted call
would leave its write behind. Every contract class's ``handle`` is wrapped
here over the acceptance corpus, with claims and NFT transfers added so
that rejected calls and the claim and resale paths run too, and over the
three goldens, on the stepped reference so that every epoch's calls are
made: the pickle of the state passed in, and of the message's arguments,
must be the same when the handler returns and when it raises.
The arguments count because the driver sends one performance map to
``accrue_epoch`` for as long as no factor can change. Every registration
and every resale must also return a fresh owner index
(``TreasuryState.owned``), and every accrual that mints a fresh balance
list (``BeaconState.balances``). The functions that advance a segment in
closed form, and the predicates that bound it, leave the committed states
they read untouched as well.
"""

from __future__ import annotations

import pickle
import random
from collections import Counter
from dataclasses import replace

import stakeclaim as sc
from stakeclaim.beacon import BeaconContract
from stakeclaim.mint import MintContract
from stakeclaim import scenario
from stakeclaim.beacon import next_transition
from stakeclaim.scenario import ClaimAction, NftTransferAction, World
from stakeclaim.treasury import TreasuryContract
from stakeclaim.wallet import ValidatorWallet
from conftest import SteppedWorld
from test_acceptance import CORPUS_SEED, CORPUS_SIZE, random_scenario

CONTRACTS = (BeaconContract, MintContract, TreasuryContract, ValidatorWallet)


def with_claims_and_transfers(s, rng: random.Random):
    """`s` plus claims by every holder and resales of its tokens, some of
    them rejected (nothing to claim yet, a seller who no longer owns the
    token)."""
    holders = sorted({d.holder for d in s.deposits})
    claims = tuple(ClaimAction(h, rng.randint(0, s.horizon))
                   for h in holders for _ in range(2))
    transfers = tuple(NftTransferAction(t, rng.choice(holders), rng.choice(holders),
                                        rng.randint(0, s.horizon))
                      for t in range(len(s.deposits)))
    return replace(s, claims=claims, nft_transfers=transfers)


def guard_handlers(monkeypatch) -> tuple[dict, list, Counter]:
    """Wrap every contract class's handle.

    Returns (outcome counts, mutations, writes); the outcome counts also
    count the accruals sent a performance map already sent. writes counts each method's
    returns under (method, "") and, under (method, field), the returns whose
    state holds another object in that field than the input state did; the
    accruals that mint are counted again under "minting accrue_epoch".
    """
    outcomes = {"returned": 0, "raised": 0, "map sent again": 0}
    mutated: list[tuple[str, str, str]] = []
    writes: Counter = Counter()
    maps: dict[int, dict] = {}      # id -> each performance map sent, kept so ids stay unique

    for cls in CONTRACTS:
        def guarded(self, state, msg, ctx, inner=cls.handle):
            before = pickle.dumps(state)
            args_before = pickle.dumps(msg.args)
            if msg.method == "accrue_epoch":
                performance = msg.args.get("performance")
                outcomes["map sent again"] += id(performance) in maps
                maps[id(performance)] = performance
            outcome = "raised"
            try:
                result = inner(self, state, msg, ctx)
                outcome = "returned"
                old = vars(state)
                fresh = [name for name, value in vars(result[0]).items()
                         if value is not old[name]]
                methods = [msg.method]
                if msg.method == "accrue_epoch" and result[2]:
                    methods.append("minting accrue_epoch")
                for method in methods:
                    writes[method, ""] += 1
                    writes.update((method, name) for name in fresh)
                return result
            finally:
                outcomes[outcome] += 1
                if pickle.dumps(state) != before:
                    mutated.append((type(self).__name__, msg.method, outcome))
                if pickle.dumps(msg.args) != args_before:
                    mutated.append((type(self).__name__, msg.method, f"{outcome}, args"))

        monkeypatch.setattr(cls, "handle", guarded)
    return outcomes, mutated, writes


def test_handlers_leave_their_input_state_untouched(monkeypatch):
    outcomes, mutated, writes = guard_handlers(monkeypatch)
    rng = random.Random(CORPUS_SEED)
    corpus = [random_scenario(rng) for _ in range(CORPUS_SIZE)]
    extras = random.Random(CORPUS_SEED + 1)
    scenarios = [with_claims_and_transfers(s, extras) for s in corpus]
    scenarios += [sc.load_scenario(sc.golden_scenario_path(name))
                  for name in sc.GOLDEN_SCENARIOS]
    rejected = 0
    for s in scenarios:
        assert sc.validate(s) == []
        report = SteppedWorld(s).run()   # every epoch's calls, none in a segment
        assert report.conservation_ok and report.replay_ok
        rejected += report.events_jsonl.count('"tag":"ActionRejected"')
    assert mutated == []
    # The owner index is written, as a fresh map, on every registration and
    # every resale, and the input states above stayed as they were.
    for method in ("register_nft", "update_owner"):
        assert writes[method, "owned"] == writes[method, ""] > 0
    # Likewise the balances on every accrual that mints.
    assert writes["minting accrue_epoch", "balances"] == writes["minting accrue_epoch", ""] > 0
    # Both outcomes were exercised: returns and reverted calls alike.
    assert outcomes["returned"] > 10_000
    assert outcomes["raised"] == rejected > 100
    # The arguments check saw performance maps shared across epochs.
    assert outcomes["map sent again"] > 1000


def test_segment_functions_leave_their_input_state_untouched(monkeypatch):
    # The closed-form advances and the quiet-span predicates are pure like
    # the handlers: they read committed states, which must stay as they were.
    calls: Counter = Counter()
    mutated = []

    def guarded(name, inner, state_at):
        def check(*args):
            state = args[state_at]
            before = pickle.dumps(state)
            result = inner(*args)
            calls[name] += 1
            if pickle.dumps(state) != before:
                mutated.append(name)
            return result

        return check

    for cls, name in ((ValidatorWallet, "advance"), (ValidatorWallet, "quiet_until"),
                      (TreasuryContract, "advance")):
        monkeypatch.setattr(cls, name, guarded(f"{cls.__name__}.{name}",
                                               getattr(cls, name), 1))
    monkeypatch.setattr(scenario, "next_transition",
                        guarded("next_transition", next_transition, 0))
    rng = random.Random(CORPUS_SEED)
    scenarios = [random_scenario(rng) for _ in range(CORPUS_SIZE)]
    scenarios += [sc.load_scenario(sc.golden_scenario_path(name))
                  for name in sc.GOLDEN_SCENARIOS]
    for s in scenarios:
        report = World(s).run()
        assert report.conservation_ok and report.replay_ok
    assert mutated == []
    assert min(calls[name] for name in ("ValidatorWallet.advance", "ValidatorWallet.quiet_until",
                                        "TreasuryContract.advance", "next_transition")) > 50
