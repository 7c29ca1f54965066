"""Handlers never mutate the state they are handed.

A new contract state is a shallow copy that shares every field it does not
write with the state it came from, so the state a handler receives may be
the committed one. A handler that wrote a shared dict or list in place
would change committed state behind the ledger's back, and a reverted call
would leave its write behind. Every contract class's ``handle`` is wrapped
here over the acceptance corpus, with claims and NFT transfers added so
that rejected calls and the claim and resale paths run too, and over the
three goldens: the pickle of the state passed in must be the same when the
handler returns and when it raises. Every registration and every resale
must also return a fresh owner index (``TreasuryState.owned``).
"""

from __future__ import annotations

import pickle
import random
from collections import Counter
from dataclasses import replace

import stakeclaim as sc
from stakeclaim.beacon import BeaconContract
from stakeclaim.mint import MintContract
from stakeclaim.scenario import ClaimAction, NftTransferAction, World
from stakeclaim.treasury import TreasuryContract
from stakeclaim.wallet import ValidatorWallet
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

    Returns (outcome counts, mutations, writes). writes counts each method's
    returns under (method, "") and, under (method, field), the returns whose
    state holds another object in that field than the input state did.
    """
    outcomes = {"returned": 0, "raised": 0}
    mutated: list[tuple[str, str, str]] = []
    writes: Counter = Counter()

    for cls in CONTRACTS:
        def guarded(self, state, msg, ctx, inner=cls.handle):
            before = pickle.dumps(state)
            outcome = "raised"
            try:
                result = inner(self, state, msg, ctx)
                outcome = "returned"
                old = vars(state)
                writes[msg.method, ""] += 1
                writes.update((msg.method, name) for name, value in vars(result[0]).items()
                              if value is not old[name])
                return result
            finally:
                outcomes[outcome] += 1
                if pickle.dumps(state) != before:
                    mutated.append((type(self).__name__, msg.method, outcome))

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
        report = World(s).run()
        assert report.conservation_ok and report.replay_ok
        rejected += report.events_jsonl.count('"tag":"ActionRejected"')
    assert mutated == []
    # The owner index is written, as a fresh map, on every registration and
    # every resale, and the input states above stayed as they were.
    for method in ("register_nft", "update_owner"):
        assert writes[method, "owned"] == writes[method, ""] > 0
    # Both outcomes were exercised: returns and reverted calls alike.
    assert outcomes["returned"] > 10_000
    assert outcomes["raised"] == rejected > 100
