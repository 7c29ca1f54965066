"""Treasury accounting under arbitrary interleavings, against a remainder-carry oracle.

The state machine drives a staked arrangement through reward receipts,
exit settlements, NFT transfers at any time, holder claims and operator
fee claims, in any order. Its model splits every distribution eagerly,
token by token, carrying each token's sub-unit remainder and crediting
each share to whoever owns the token at that moment; it shares no code
with the treasury's closed-form accumulator. After every step each
holder's claimed + claimable must equal the model, the treasury's
ledger balance must equal :func:`balance_identity`, the credit settled on
resales must equal what the checkpoints moved, and the treasury's owner
index must equal a scan of the mint's token owners.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import stakeclaim as sc
from conftest import OPERATOR, TREASURY, make_world
from stakeclaim.errors import InvariantViolation, NothingToClaim
from stakeclaim.scenario import ClaimAction, NftTransferAction, World
from stakeclaim.treasury import balance_identity, claimable_of

HOLDERS = ("alice", "bob", "carol", "dave")
M = 3


class TreasuryMachine(RuleBasedStateMachine):
    @initialize(fee_bps=st.integers(min_value=0, max_value=10_000),
                tokens=st.lists(st.tuples(st.integers(min_value=1, max_value=60),
                                          st.sampled_from(HOLDERS)),
                                min_size=1, max_size=6),
                escrow=st.integers(min_value=0, max_value=40))
    def setup(self, fee_bps, tokens, escrow):
        capitals = [c for c, _ in tokens]
        capitals[-1] += -sum(capitals) % M         # target = stake * M exactly
        self.stake = sum(capitals) // M
        self.w = make_world(m=M, stake=self.stake, fee_bps=fee_bps,
                            escrow_required=escrow,
                            holders={h: 1_000 for h in HOLDERS})
        if escrow:
            self.w.post_escrow(escrow)
        for capital, (_, owner) in zip(capitals, tokens):
            self.w.mint(owner, capital)
        self.w.stake_all()

        self.fee_bps = fee_bps
        self.capitals = capitals
        self.total = sum(capitals)
        self.owners = [owner for _, owner in tokens]
        self.carry = [0] * len(capitals)
        self.earned = {h: 0 for h in HOLDERS}
        self.settlement_credited = {h: 0 for h in HOLDERS}
        self.claimed = {h: 0 for h in HOLDERS}
        self.fees = 0
        self.escrow = escrow
        self.settled: set[int] = set()

    # --- model ------------------------------------------------------------

    def distribute(self, amount: int, fee: int, settlement: bool = False) -> None:
        net = amount - fee
        for i, c in enumerate(self.capitals):
            self.carry[i] += net * c
            share = self.carry[i] // self.total
            self.carry[i] -= share * self.total
            self.earned[self.owners[i]] += share
            if settlement:
                self.settlement_credited[self.owners[i]] += share
        self.fees += fee

    # --- rules ------------------------------------------------------------

    @precondition(lambda self: len(self.settled) < M)
    @rule(j=st.integers(min_value=0, max_value=M - 1),
          amount=st.integers(min_value=1, max_value=10 ** 6))
    def receipt(self, j, amount):
        wallet = self.w.wallets[j]
        self.w.ledger.genesis(wallet, amount, "test rewards")
        self.w.ledger.call(wallet, TREASURY, "receive_rewards", {}, value=amount)
        self.distribute(amount, amount * self.fee_bps // 10_000)

    @precondition(lambda self: len(self.settled) < M)
    @rule(data=st.data(), cause=st.sampled_from(["performance", "slashed"]))
    def settle(self, data, cause):
        j = data.draw(st.sampled_from(sorted(set(range(M)) - self.settled)))
        returned = data.draw(st.integers(min_value=0, max_value=2 * self.stake))
        led, wallet = self.w.ledger, self.w.wallets[j]
        led.call(wallet, TREASURY, "on_exit_initiated", {"cause": cause})
        if returned:
            led.genesis(wallet, returned, "test exit balance")
        led.call(wallet, TREASURY, "settle_exit", {}, value=returned)

        cover = min(max(0, self.stake - returned), self.escrow)
        self.escrow -= cover
        penalty = self.escrow // (M - len(self.settled)) if cause == "performance" else 0
        self.escrow -= penalty
        self.settled.add(j)
        self.distribute(returned + cover + penalty, 0, settlement=True)

    @rule(data=st.data(), to=st.sampled_from(HOLDERS))
    def transfer(self, data, to):
        token = data.draw(st.integers(min_value=0, max_value=len(self.owners) - 1))
        self.w.transfer_nft(token, self.owners[token], to)
        self.owners[token] = to

    @rule(holder=st.sampled_from(HOLDERS))
    def claim(self, holder):
        due = self.earned[holder] - self.claimed[holder]
        if due == 0:
            with pytest.raises(NothingToClaim):
                self.w.claim(holder)
            return
        assert self.w.claim(holder) == due
        self.claimed[holder] += due

    @rule()
    def claim_operator_fees(self):
        if self.fees == 0:
            with pytest.raises(NothingToClaim):
                self.w.ledger.call(OPERATOR, TREASURY, "claim_operator_fees", {})
            return
        assert self.w.ledger.call(OPERATOR, TREASURY, "claim_operator_fees", {}) \
            == self.fees
        self.fees = 0

    # --- invariants -------------------------------------------------------

    @invariant()
    def holders_match_the_oracle(self):
        ts = self.w.treasury_state
        for h in HOLDERS:
            assert ts.claimed_total.get(h, 0) + claimable_of(ts, h) == self.earned[h]
            assert ts.claimed_total.get(h, 0) == self.claimed[h]
            assert ts.settlement_credits.get(h, 0) == self.settlement_credited[h]
        assert ts.operator_fees_accrued == self.fees

    @invariant()
    def owner_index_matches_a_scan_of_the_mint(self):
        ts = self.w.treasury_state
        scan: dict[str, tuple[int, ...]] = {}
        for t, owner in sorted(self.w.mint_state.owners.items()):
            scan[owner] = scan.get(owner, ()) + (t,)
        # Equal maps: an owner who has sold everything has no entry left.
        assert ts.owned == scan
        # Every token with a capital is indexed, once.
        assert sorted(ts.capital) == sorted(t for tokens in ts.owned.values() for t in tokens)
        for h in HOLDERS:
            assert ts.owned.get(h, ()) == tuple(
                i for i, owner in enumerate(self.owners) if owner == h)

    @invariant()
    def treasury_identity_holds(self):
        self.w.check_treasury_identity()

    @invariant()
    def credited_is_what_the_checkpoints_moved(self):
        # Only a resale moves a checkpoint, and it credits the seller
        # exactly what it moved.
        ts = self.w.treasury_state
        assert sum(ts.credited.values()) == sum(ts.paid.values())


TreasuryMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=30,
                                             deadline=None)
TestTreasuryMachine = TreasuryMachine.TestCase


# --- the live audit fails on a one-unit accounting error ---------------------------

@pytest.fixture(scope="module")
def settled_world() -> World:
    """The honest golden with a claim and a resale, so all three maps have entries."""
    s = sc.load_scenario(sc.golden_scenario_path("honest"))
    s = replace(s, claims=(ClaimAction("alice", 10),),
                nft_transfers=(NftTransferAction(0, "alice", "bob", 12),))
    world = World(s)
    world.run()
    return world


@pytest.mark.parametrize("field", ["paid", "credited", "claimed_total"])
def test_audit_catches_one_unit_bumped(settled_world, field):
    led = settled_world.ledger
    committed = led.contract_state(TREASURY)
    settled_world.audit()
    bumped = deepcopy(committed)   # states share fields; bump a private copy
    entries = getattr(bumped, field)
    assert entries, f"no {field} entry to bump"
    key = min(entries)
    setattr(bumped, field, entries.set(key, entries[key] + 1))
    led._states[TREASURY] = bumped
    try:
        assert led.balance_of(TREASURY) != balance_identity(bumped)
        with pytest.raises(InvariantViolation, match="identity"):
            settled_world.audit()
    finally:
        led._states[TREASURY] = committed
