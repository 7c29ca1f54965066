"""Mint contract: fills, overshoots, ownership transfer, under-fill abort."""

from __future__ import annotations

import itertools

import pytest

from conftest import MINT, TREASURY, logged_events, make_world, snapshot
from stakeclaim.errors import (
    BelowMinimum,
    ExceedsCapacity,
    MintClosed,
    NotOwner,
    NothingToClaim,
    UnknownToken,
    WrongStatus,
)
from stakeclaim.treasury import Phase, claimable_of


class TestMintFill:
    def test_first_mint_token_zero(self, world):
        token = world.mint("alice", 40)
        assert token == 0
        st = world.mint_state
        assert st.owners[0] == "alice"
        assert st.minted_total == 40
        tst = world.treasury_state
        assert tst.capital == {0: 40} and tst.owned == {"alice": (0,)}
        assert world.ledger.balance_of(TREASURY) == 40
        assert world.ledger.balance_of(MINT) == 0

    def test_overshoot_rejected_whole(self, world):
        world.mint("alice", 40)
        snap = snapshot(world.ledger)
        with pytest.raises(ExceedsCapacity):
            world.mint("bob", 32)
        assert snapshot(world.ledger) == snap

    def test_exact_fill_then_capacity_error(self, world):
        world.mint("alice", 40)
        assert world.mint("bob", 24) == 1
        assert world.mint_state.minted_total == 64
        with pytest.raises(ExceedsCapacity):
            world.mint("alice", 1)

    def test_fill_sequences_always_land_exactly_on_target(self):
        # Oracle: replay every composition of 8 from parts {1..8} against a
        # tiny mint and confirm an accepted fill never passes the target and
        # a completed fill equals it exactly.
        target = 8
        parts = range(1, target + 1)
        for length in (1, 2, 3):
            for combo in itertools.product(parts, repeat=length):
                w = make_world(stake=target, holders={"alice": 100})
                expected_total = 0
                for amount in combo:
                    if expected_total + amount <= target:
                        w.mint("alice", amount)
                        expected_total += amount
                    else:
                        with pytest.raises(ExceedsCapacity):
                            w.mint("alice", amount)
                st = w.mint_state
                assert st.minted_total == expected_total <= target
                assert sum(w.treasury_state.capital.values()) == expected_total
                if expected_total == target:
                    with pytest.raises(ExceedsCapacity):
                        w.mint("alice", 1)

    def test_below_minimum(self):
        w = make_world(min_contribution=10)
        with pytest.raises(BelowMinimum):
            w.mint("alice", 9)

    def test_window_closed(self):
        w = make_world(open_epoch=2, close_epoch=4)
        with pytest.raises(MintClosed):
            w.mint("alice", 5)        # before open
        w.ledger.advance_epoch()
        w.ledger.advance_epoch()
        w.mint("alice", 5)            # open at epoch 2
        w.ledger.advance_epoch()
        w.ledger.advance_epoch()
        with pytest.raises(MintClosed):
            w.mint("alice", 5)        # at close epoch

    def test_capital_sum_matches_principal_after_every_mint(self, world):
        for holder, amount in (("alice", 10), ("bob", 20), ("alice", 34)):
            world.mint(holder, amount)
            st = world.treasury_state
            assert sum(st.capital.values()) == st.principal
            world.check_treasury_identity()


class TestTransferNft:
    def test_ownership_swap(self, world):
        world.mint("alice", 40)
        world.transfer_nft(0, "alice", "bob")
        assert world.mint_state.owners[0] == "bob"
        assert world.treasury_state.owned == {"bob": (0,)}

    def test_self_transfer_noop_without_events(self, world):
        world.mint("alice", 40)
        before = len(logged_events(world.ledger))
        world.transfer_nft(0, "alice", "alice")
        events = logged_events(world.ledger)
        assert len(events) - before == 1  # just the Call record
        assert events[-1].tag == "Call"
        assert world.mint_state.owners[0] == "alice"

    def test_not_owner(self, world):
        world.mint("alice", 40)
        with pytest.raises(NotOwner):
            world.transfer_nft(0, "bob", "bob")

    def test_unknown_token(self, world):
        with pytest.raises(UnknownToken):
            world.transfer_nft(7, "alice", "bob")

    @pytest.mark.parametrize("token_id", [True, 1.0, -1, 2],
                             ids=["True", "1.0", "-1", "len(tokens)"])
    def test_an_id_that_is_not_a_minted_position_is_an_unknown_token(self, world, token_id):
        # True and 1.0 equal token 1 as dict keys, and -1 counts from the
        # end of a sequence; none of them is a token id, and no token moves.
        world.mint("alice", 40)
        world.mint("bob", 24)
        snap = snapshot(world.ledger)
        with pytest.raises(UnknownToken):
            world.ledger.call("bob", MINT, "transfer_nft", {"token_id": token_id, "to": "alice"})
        assert snapshot(world.ledger) == snap

    def test_treasury_refuses_a_seller_that_does_not_hold_the_token(self, world):
        # The treasury takes the seller from the mint's `from` and checks it
        # against its owner index: bob holds another token, carol holds none.
        world.mint("alice", 40)
        world.mint("bob", 24)
        snap = snapshot(world.ledger)
        for token_id, frm in ((0, "bob"), (0, "carol"), (7, "alice")):
            with pytest.raises(UnknownToken):
                world.ledger.call(MINT, TREASURY, "update_owner",
                                  {"token_id": token_id, "from": frm, "to": "bob"})
            assert snapshot(world.ledger) == snap

    def test_accrual_follows_ownership_across_transfer(self):
        # Rewards accrued before the transfer stay claimable by the old
        # owner; rewards accrued after go to the new owner.
        w = make_world(fee_bps=0, reward=64)
        w.mint("alice", 64)
        w.stake_all()
        w.ledger.advance_epoch()
        w.accrue()                   # activation + 64 reward
        w.sweep()
        w.forward()                  # epoch-1 rewards -> alice's token
        ts = w.treasury_state
        assert (claimable_of(ts, "alice"), claimable_of(ts, "bob")) == (64, 0)

        w.transfer_nft(0, "alice", "bob")
        w.ledger.advance_epoch()
        w.accrue()
        w.sweep()
        w.forward()                  # epoch-2 rewards -> bob now owns the token
        ts = w.treasury_state
        assert claimable_of(ts, "alice") == 64
        assert claimable_of(ts, "bob") == 64

        assert w.claim("alice") == 64
        assert w.claim("bob") == 64
        with pytest.raises(NothingToClaim):
            w.claim("alice")


class TestAbort:
    def test_underfilled_close_refunds_everyone(self):
        w = make_world(close_epoch=3)
        w.mint("alice", 40)
        w.mint("bob", 10)
        alice_before = w.ledger.balance_of("alice")
        bob_before = w.ledger.balance_of("bob")
        for _ in range(3):
            w.ledger.advance_epoch()
        refunded = w.ledger.call("system", MINT, "abort", {})
        assert refunded == 50
        assert w.ledger.balance_of("alice") == alice_before + 40
        assert w.ledger.balance_of("bob") == bob_before + 10
        assert w.ledger.balance_of(TREASURY) == 0
        assert w.treasury_state.principal == 0
        assert w.treasury_state.phase is Phase.FUNDRAISING
        assert w.mint_state.aborted
        w.check_treasury_identity()

    def test_mint_after_abort_closed(self):
        w = make_world(close_epoch=1)
        w.mint("alice", 5)
        w.ledger.advance_epoch()
        w.ledger.call("system", MINT, "abort", {})
        with pytest.raises(MintClosed):
            w.mint("alice", 5)

    def test_abort_before_close_rejected(self):
        w = make_world(close_epoch=5)
        w.mint("alice", 5)
        with pytest.raises(WrongStatus):
            w.ledger.call("system", MINT, "abort", {})

    def test_abort_after_full_fill_rejected(self):
        w = make_world(close_epoch=2)
        w.mint("alice", 64)
        w.ledger.advance_epoch()
        w.ledger.advance_epoch()
        with pytest.raises(WrongStatus):
            w.ledger.call("system", MINT, "abort", {})

    def test_abort_twice_rejected(self):
        w = make_world(close_epoch=1)
        w.mint("alice", 5)
        w.ledger.advance_epoch()
        w.ledger.call("system", MINT, "abort", {})
        with pytest.raises(WrongStatus):
            w.ledger.call("system", MINT, "abort", {})


def test_token_ids_never_reused_across_transfers_and_mints(world):
    a = world.mint("alice", 10)
    b = world.mint("bob", 10)
    world.transfer_nft(a, "alice", "bob")
    c = world.mint("alice", 10)
    assert (a, b, c) == (0, 1, 2)
    assert set(world.mint_state.owners) == {0, 1, 2}
