"""Treasury accounting: fee split, dust carry, claims, staking, settlement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BEACON, MINT, OPERATOR, SYSTEM, TREASURY, Mini, dust_of, logged_events, make_world, snapshot
from oracle import rational_shares, replay_split
from stakeclaim.errors import (
    AlreadySettled,
    EscrowMissing,
    InvalidAmount,
    NotOperator,
    NothingToClaim,
    Underfunded,
    UnknownMethod,
    UnknownValidator,
    WrongCaller,
    WrongPhase,
    WrongStatus,
)
from stakeclaim.beacon import BeaconParams
from stakeclaim.ledger import Msg
from stakeclaim.treasury import (
    Phase,
    TreasuryContract,
    TreasurySpec,
    TreasuryState,
    accrued,
    claimable_of,
    split_credits,
)
from stakeclaim.wallet import WalletStatus


def holders_claimable(ts) -> dict[str, int]:
    """Every current token owner's claimable credit, settled or pending."""
    return {owner: claimable_of(ts, owner) for owner in ts.owned}


def receive(w: Mini, amount: int, j: int = 0):
    """Deliver a reward receipt by funding the wallet and forwarding."""
    if w.wallet_state(j).status is WalletStatus.DEPOSITED:
        w.ledger.advance_epoch()
        w.accrue({w.wallet_state(j).validator_id: 0})  # activate, no reward
    w.ledger.genesis(w.wallets[j], amount, "test rewards")
    return w.ledger.call(SYSTEM, w.wallets[j], "forward_rewards", {})


class TestConstructor:
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_rejects_a_wallet_count_other_than_validators(self, count):
        # The wallet tuple and TreasurySpec.validators are one count: no
        # treasury is built where they disagree.
        spec = TreasurySpec(fee_bps=1000, expected_reward_per_epoch=2, grace_epochs=3,
                            escrow_required=0, validators=2)
        params = BeaconParams(stake_requirement=64, reward_per_epoch=100, activation_delay=1,
                              exit_delay=2, sweep_period=1)
        with pytest.raises(ValueError, match=f"^TreasurySpec.validators 2 != {count} wallets$"):
            TreasuryContract(spec, params, tuple(f"wallet:{j}" for j in range(count)),
                             operator=OPERATOR, mint="mint")


class TestRegisterNft:
    def test_a_registration_without_value_is_refused(self):
        # The treasury books as capital what the mint's call paid, never a
        # sum an argument names: with nothing paid, nothing is booked.
        w = make_world()
        w.mint("alice", 40)
        before = snapshot(w.ledger)
        with pytest.raises(InvalidAmount):
            w.ledger.call(MINT, TREASURY, "register_nft",
                          {"token_id": 1, "owner": "bob", "capital": 24})
        assert snapshot(w.ledger) == before
        assert w.treasury_state.principal == w.ledger.balance_of(TREASURY) == 40


class TestSplitCredits:
    # One token per owner in the first three, so each credit is one token's share.
    def test_worked_example_40_24(self):
        credits, dust = split_credits(0, 900, {0: 40, 1: 24}, {"alice": (0,), "bob": (1,)}, 64)
        assert credits == {"alice": 562, "bob": 337}
        assert dust == 1

    def test_exact_split_no_dust(self):
        credits, dust = split_credits(0, 100, {0: 1, 1: 1}, {"a": (0,), "b": (1,)}, 2)
        assert credits == {"a": 50, "b": 50}
        assert dust == 0

    def test_remainders_release_on_later_splits(self):
        capital, owned = {0: 40, 1: 24}, {"alice": (0,), "bob": (1,)}
        first, _ = split_credits(0, 900, capital, owned, 64)
        second, _ = split_credits(900, 1800, capital, owned, 64)
        assert first == {"alice": 562, "bob": 337}
        assert second == {"alice": 563, "bob": 338}  # the carried halves pay out

    def test_floors_each_token_not_each_owner(self):
        # a's two tokens earn 2 * 1 // 3 == 0 each; flooring a's summed
        # capital instead, 2 * 2 // 3, would credit a with 1.
        credits, dust = split_credits(0, 2, {0: 1, 1: 1, 2: 1}, {"a": (0, 1), "b": (2,)}, 3)
        assert credits == {"a": 0, "b": 0}
        assert dust == 2


class TestReceiveRewards:
    def test_fee_and_split_frozen_values(self, staked_world):
        w = staked_world
        receive(w, 1000)
        ts = w.treasury_state
        assert ts.operator_fees_accrued == 100
        assert holders_claimable(ts) == {"alice": 562, "bob": 337}
        assert dust_of(ts) == 1
        assert w.wallet_state().forwarded == 1000
        w.check_treasury_identity()

    def test_remainders_carry_into_next_receipt(self, staked_world):
        w = staked_world
        receive(w, 1000)   # net 900 -> [562, 337], 2 half-units carried
        receive(w, 1000)   # net 900 -> [563, 338], carry released
        ts = w.treasury_state
        assert holders_claimable(ts) == {"alice": 562 + 563, "bob": 337 + 338}
        assert dust_of(ts) == 0
        # cumulative credit is exactly floor(cumulative_net * C_i / sum_C)
        assert accrued(ts, 0) == claimable_of(ts, "alice") == (1800 * 40) // 64
        assert accrued(ts, 1) == claimable_of(ts, "bob") == (1800 * 24) // 64
        w.check_treasury_identity()

    def test_stranger_is_unknown_validator(self, staked_world):
        with pytest.raises(UnknownValidator):
            staked_world.ledger.call("alice", TREASURY, "receive_rewards", {}, value=5)

    def test_zero_amount_rejected_no_receipt(self, staked_world):
        w = staked_world
        with pytest.raises(UnknownMethod):
            w.ledger.call(SYSTEM, w.wallets[0], "forward_", {})  # bogus method also rejected
        snap = snapshot(w.ledger)
        with pytest.raises(InvalidAmount):
            w.ledger.call(w.wallets[0], TREASURY, "receive_rewards", {}, value=0)
        assert snapshot(w.ledger) == snap

    def test_wrong_phase_before_staking(self, world):
        world.mint("alice", 64)
        world.ledger.genesis(world.wallets[0], 1, "test")
        with pytest.raises(WrongPhase):
            world.ledger.call(world.wallets[0], TREASURY, "receive_rewards", {}, value=1)

    def test_zero_fee_boundary(self):
        w = make_world(fee_bps=0)
        w.mint("alice", 40)
        w.mint("bob", 24)
        w.stake_all()
        receive(w, 1000)
        ts = w.treasury_state
        assert ts.operator_fees_accrued == 0
        assert sum(holders_claimable(ts).values()) + dust_of(ts) == 1000

    def test_single_holder_gets_exactly_net(self):
        w = make_world(fee_bps=2500)
        w.mint("alice", 64)
        w.stake_all()
        receive(w, 1000)
        ts = w.treasury_state
        assert ts.operator_fees_accrued == 250
        assert holders_claimable(ts) == {"alice": 750}
        assert dust_of(ts) == 0

    def test_full_fee_boundary(self):
        w = make_world(fee_bps=10_000)
        w.mint("alice", 64)
        w.stake_all()
        receive(w, 1000)
        ts = w.treasury_state
        assert ts.operator_fees_accrued == 1000
        assert claimable_of(ts, "alice") == 0


@settings(max_examples=100, deadline=None)
@given(fee_bps=st.integers(min_value=0, max_value=10_000),
       amounts=st.lists(st.integers(min_value=1, max_value=10 ** 30), min_size=1, max_size=4),
       k=st.integers(min_value=1, max_value=12),
       phase=st.sampled_from([Phase.STAKED, Phase.EXITING]),
       net_total=st.integers(min_value=0, max_value=10 ** 30),
       fees=st.integers(min_value=0, max_value=10 ** 30))
def test_closed_form_is_k_rounds_of_receipts(fee_bps, amounts, k, phase, net_total, fees):
    # TreasuryContract.advance is k rounds of receive_rewards, a receipt of
    # each amount a round: N and the fees rise alike, and nothing else in
    # the state moves.
    wallets = tuple(f"wallet:{j}" for j in range(len(amounts)))
    spec = TreasurySpec(fee_bps=fee_bps, expected_reward_per_epoch=0, grace_epochs=1,
                        escrow_required=0, validators=len(wallets))
    params = BeaconParams(stake_requirement=64, reward_per_epoch=1, activation_delay=1,
                          exit_delay=2, sweep_period=1)
    treasury = TreasuryContract(spec, params, wallets, operator=OPERATOR, mint=MINT)
    start = TreasuryState(phase=phase, net_total=net_total, operator_fees_accrued=fees)
    stepped = start
    for _ in range(k):
        for wallet, amount in zip(wallets, amounts):
            stepped, effects, _ = treasury.handle(
                stepped, Msg(wallet, TREASURY, "receive_rewards", {}, amount), None)
            assert effects == []
    assert treasury.advance(start, amounts, k) == stepped


class TestClaims:
    def test_claim_transfers_and_zeroes(self, staked_world):
        w = staked_world
        receive(w, 1000)
        before = w.ledger.balance_of("alice")
        assert w.claim("alice") == 562
        assert w.ledger.balance_of("alice") == before + 562
        assert claimable_of(w.treasury_state, "alice") == 0
        w.check_treasury_identity()

    def test_a_claim_moves_no_checkpoint(self, staked_world):
        # A token's checkpoint moves only when the token changes hands: a
        # claim writes the claimer's claimed total and nothing else.
        w = staked_world
        receive(w, 1000)
        w.transfer_nft(1, "bob", "alice")       # a resale: token 1 gets a checkpoint
        receive(w, 777)
        before = w.treasury_state
        assert before.paid == {1: 337}
        assert w.claim("alice") == claimable_of(before, "alice") > 0
        after = w.treasury_state
        assert after.paid is before.paid
        assert after.credited is before.credited == {"bob": 337}
        assert after.claimed_total == {"alice": claimable_of(before, "alice")}
        assert claimable_of(after, "alice") == 0
        w.check_treasury_identity()

    def test_double_claim(self, staked_world):
        w = staked_world
        receive(w, 1000)
        w.claim("alice")
        with pytest.raises(NothingToClaim):
            w.claim("alice")

    def test_operator_fee_payouts_match_oracle(self, staked_world):
        w = staked_world
        amounts = [1000, 777, 31, 4999, 12, 1000]
        for a in amounts:
            receive(w, a)
        # A receipt is the value of a wallet's Call to receive_rewards, its
        # one line: it raises N by that value less its fee, and logs no fee.
        events = logged_events(w.ledger)
        receipts = [e.payload["value"] for e in events
                    if e.tag == "Call" and e.payload["method"] == "receive_rewards"]
        assert receipts == amounts
        assert "Distributed" not in {e.tag for e in events}
        floored = sum((a * 1000) // 10_000 for a in amounts)
        assert w.treasury_state.net_total == sum(amounts) - floored
        assert sum(amounts) == w.wallet_state().forwarded
        fees, _, _, _ = replay_split(amounts, [40, 24], 1000)
        paid = w.ledger.call(OPERATOR, TREASURY, "claim_operator_fees", {})
        assert paid == fees == floored
        assert w.treasury_state.operator_fees_accrued == 0
        # bounded against the real-valued formula: |paid - R*F| < receipt count
        exact = sum(amounts) * 1000 / 10_000
        assert abs(paid - exact) < len(amounts)

    def test_operator_fee_zero_fee_never_claimable(self):
        w = make_world(fee_bps=0)
        w.mint("alice", 64)
        w.stake_all()
        receive(w, 1000)
        with pytest.raises(NothingToClaim):
            w.ledger.call(OPERATOR, TREASURY, "claim_operator_fees", {})

    def test_non_operator_cannot_claim_fees(self, staked_world):
        receive(staked_world, 1000)
        with pytest.raises(NotOperator):
            staked_world.ledger.call("alice", TREASURY, "claim_operator_fees", {})


class TestStakeAll:
    def test_happy_path(self):
        w = make_world(m=2, stake=32, escrow_required=10)
        w.post_escrow(10)
        w.mint("alice", 40)
        w.mint("bob", 24)
        w.stake_all()
        ts = w.treasury_state
        assert ts.phase is Phase.STAKED
        assert ts.principal == 0
        assert w.ledger.balance_of(BEACON) == 64
        for j in range(2):
            assert w.wallet_state(j).status is WalletStatus.DEPOSITED
        assert len(w.beacon_state.validators) == 2
        w.check_treasury_identity()

    def test_escrow_missing(self):
        w = make_world(escrow_required=10)
        w.mint("alice", 64)
        snap = snapshot(w.ledger)
        with pytest.raises(EscrowMissing):
            w.stake_all()
        assert snapshot(w.ledger) == snap

    def test_underfunded(self, world):
        world.mint("alice", 40)
        with pytest.raises(Underfunded):
            world.stake_all()

    def test_second_stake_is_wrong_phase(self, world):
        world.mint("alice", 64)
        world.stake_all()
        with pytest.raises(WrongPhase):
            world.stake_all()


def settle(w: Mini, returned: int, cause: str = "performance", j: int = 0):
    """Drive settle_exit directly through the wallet address."""
    w.ledger.call(w.wallets[j], TREASURY, "on_exit_initiated", {"cause": cause})
    if returned:
        w.ledger.genesis(w.wallets[j], returned, "test exit balance")
    return w.ledger.call(w.wallets[j], TREASURY, "settle_exit", {}, value=returned)


class TestSettleExit:
    def test_full_principal_identity_payout(self, staked_world):
        w = staked_world
        settle(w, 64, cause="slashed")
        ts = w.treasury_state
        assert holders_claimable(ts) == {"alice": 40, "bob": 24}
        assert dust_of(ts) == 0
        assert ts.phase is Phase.SETTLED
        w.check_treasury_identity()

    def test_shortfall_fully_covered_by_escrow(self):
        w = make_world(stake=6400, escrow_required=200,
                       holders={"alice": 10_000, "bob": 10_000})
        w.post_escrow(200)
        w.mint("alice", 4000)
        w.mint("bob", 2400)
        w.stake_all()
        settle(w, 6300, cause="slashed")   # short 100, escrow 200
        ts = w.treasury_state
        assert holders_claimable(ts) == {"alice": 4000, "bob": 2400}  # made whole exactly
        assert ts.escrow_balance == 0                        # 100 used, 100 refunded
        assert ts.escrow_refunded == 100
        assert ts.settlements[0].escrow_cover == 100
        w.check_treasury_identity()

    def test_shortfall_beyond_escrow_borne_pro_rata(self):
        w = make_world(stake=6400, escrow_required=40,
                       holders={"alice": 10_000, "bob": 10_000})
        w.post_escrow(40)
        w.mint("alice", 4000)
        w.mint("bob", 2400)
        w.stake_all()
        settle(w, 6300, cause="slashed")   # short 100, escrow only 40
        ts = w.treasury_state
        pot = 6300 + 40
        expect_alice = (pot * 4000) // 6400
        expect_bob = (pot * 2400) // 6400
        assert holders_claimable(ts) == {"alice": expect_alice, "bob": expect_bob}
        assert dust_of(ts) == pot - expect_alice - expect_bob
        assert ts.escrow_balance == 0 and ts.escrow_refunded == 0
        w.check_treasury_identity()

    def test_performance_exit_pays_escrow_penalty(self):
        w = make_world(stake=6400, escrow_required=64,
                       holders={"alice": 10_000, "bob": 10_000})
        w.post_escrow(64)
        w.mint("alice", 4000)
        w.mint("bob", 2400)
        w.stake_all()
        settle(w, 6400, cause="performance")
        ts = w.treasury_state
        # full principal + full escrow as penalty, split 4000:2400
        assert ts.settlements[0].penalty == 64
        assert holders_claimable(ts) == {"alice": 4040, "bob": 2424}
        assert dust_of(ts) == 0
        w.check_treasury_identity()

    def test_settle_twice_rejected(self, staked_world):
        w = staked_world
        settle(w, 64, cause="slashed")
        w2 = w.ledger
        with pytest.raises(WrongPhase):
            # phase is already Settled; a second settle cannot slip through
            w2.call(w.wallets[0], TREASURY, "settle_exit", {}, value=0)

    def test_settle_same_validator_twice_in_exiting_phase(self):
        w = make_world(m=2, stake=32)
        w.mint("alice", 40)
        w.mint("bob", 24)
        w.stake_all()
        settle(w, 32, cause="slashed", j=0)
        assert w.treasury_state.phase is Phase.EXITING
        with pytest.raises(AlreadySettled):
            w.ledger.call(w.wallets[0], TREASURY, "settle_exit", {}, value=0)

    def test_settle_before_exiting_phase_rejected(self, staked_world):
        w = staked_world
        with pytest.raises(WrongPhase):
            w.ledger.call(w.wallets[0], TREASURY, "settle_exit", {}, value=0)

    def test_multi_validator_settlement_reaches_settled(self):
        w = make_world(m=2, stake=32, escrow_required=10)
        w.post_escrow(10)
        w.mint("alice", 40)
        w.mint("bob", 24)
        w.stake_all()
        settle(w, 32, cause="performance", j=0)
        assert w.treasury_state.phase is Phase.EXITING
        assert w.treasury_state.settlements[0].penalty == 5   # 10 // 2 unsettled
        settle(w, 32, cause="performance", j=1)
        ts = w.treasury_state
        assert ts.phase is Phase.SETTLED
        assert ts.settlements[1].penalty == 5                 # 5 // 1 remaining
        assert ts.escrow_balance == 0
        w.check_treasury_identity()


class TestGuards:
    """Each guard refuses its call and leaves the chain as it was."""

    def refused(self, w: Mini, error, match: str, caller: str, method: str, args: dict,
                value: int = 0):
        before = snapshot(w.ledger)
        with pytest.raises(error, match=match):
            w.ledger.call(caller, TREASURY, method, args, value=value)
        assert snapshot(w.ledger) == before

    def test_only_the_mint_moves_a_token(self, world):
        world.mint("alice", 40)
        self.refused(world, WrongCaller, "moves tokens", "alice", "update_owner",
                     {"token_id": 0, "from": "alice", "to": "bob"})

    def test_only_the_mint_aborts(self, world):
        world.mint("alice", 40)
        self.refused(world, WrongCaller, "aborts", "alice", "abort_refund", {})

    def test_no_abort_once_staked(self, staked_world):
        self.refused(staked_world, WrongPhase, "cannot abort", MINT, "abort_refund", {})

    def test_an_escrow_post_without_value_is_refused(self, world):
        self.refused(world, InvalidAmount, "must carry value", OPERATOR, "post_escrow", {})

    def test_no_settlement_without_an_exit(self):
        # Validator 0's exit makes the phase Exiting; validator 1 never exited.
        w = make_world(m=2, stake=32)
        w.mint("alice", 40)
        w.mint("bob", 24)
        w.stake_all()
        w.ledger.call(w.wallets[0], TREASURY, "on_exit_initiated", {"cause": "slashed"})
        assert w.treasury_state.phase is Phase.EXITING
        w.ledger.genesis(w.wallets[1], 32, "test exit balance")
        self.refused(w, WrongStatus, "never initiated", w.wallets[1], "settle_exit", {},
                     value=32)


class TestPhaseMachine:
    def test_no_skip_from_fundraising_to_exiting(self, world):
        world.mint("alice", 64)
        with pytest.raises(WrongPhase):
            world.ledger.call(world.wallets[0], TREASURY, "on_exit_initiated",
                              {"cause": "performance"})

    def test_settled_is_terminal(self, staked_world):
        w = staked_world
        settle(w, 64, cause="slashed")
        w.ledger.genesis(w.wallets[0], 5, "test")
        for caller, method, kwargs in (
            (SYSTEM, "stake_all", {}),
            (w.wallets[0], "receive_rewards", {"value": 5}),
            (OPERATOR, "post_escrow", {"value": 5}),
        ):
            with pytest.raises(WrongPhase):
                w.ledger.call(caller, TREASURY, method, {}, **kwargs)


# --- property tests -------------------------------------------------------------

capitals_strategy = st.lists(st.integers(min_value=1, max_value=10_000),
                             min_size=1, max_size=6)


class TestDistributionProperties:
    @settings(max_examples=80, deadline=None)
    @given(capitals=capitals_strategy,
           amounts=st.lists(st.integers(min_value=1, max_value=10 ** 9),
                            min_size=1, max_size=30),
           fee_bps=st.integers(min_value=0, max_value=10_000))
    def test_per_receipt_identity_and_oracle_match(self, capitals, amounts, fee_bps):
        capital = dict(enumerate(capitals))
        owned = {f"h{i}": (i,) for i in capital}      # one token per owner
        total_cap = sum(capitals)
        _, _, _, o_steps = replay_split(amounts, capitals, fee_bps)
        dust = 0
        credits = [0] * len(capitals)
        fees = 0
        net_total = 0
        for amount, (_, o_shares, _) in zip(amounts, o_steps):
            fee = (amount * fee_bps) // 10_000
            net = amount - fee
            per_owner, undistributed = split_credits(net_total, net_total + net,
                                                     capital, owned, total_cap)
            per_token = [per_owner[f"h{i}"] for i in capital]
            # exact conservation per receipt, and each token's step per receipt
            assert fee + sum(per_token) + undistributed == amount
            assert per_token == o_shares
            for i, share in enumerate(per_token):
                credits[i] += share
            fees += fee
            dust += undistributed
            net_total += net
        o_fees, o_credits, o_dust, _ = replay_split(amounts, capitals, fee_bps)
        assert (fees, credits, dust) == (o_fees, o_credits, o_dust)
        # cumulative conservation, zero tolerance
        assert fees + sum(credits) + dust == sum(amounts)
        # cumulative credit is exactly the floor of the cumulative pro-rata
        for i, c in enumerate(capitals):
            assert credits[i] == (net_total * c) // total_cap
        # per-holder bound against the exact rational share: < receipt count
        shares = rational_shares(sum(amounts), capitals, fee_bps)
        for got, want in zip(credits, shares):
            assert abs(got - want) < max(len(amounts), 1)

    @settings(max_examples=40, deadline=None)
    @given(capitals=capitals_strategy,
           scale=st.integers(min_value=2, max_value=1000),
           total=st.integers(min_value=1, max_value=10 ** 9),
           fee_bps=st.integers(min_value=0, max_value=10_000))
    def test_rational_shares_invariant_under_capital_scaling(
            self, capitals, scale, total, fee_bps):
        base = rational_shares(total, capitals, fee_bps)
        scaled = rational_shares(total, [c * scale for c in capitals], fee_bps)
        assert base == scaled

    @settings(max_examples=40, deadline=None)
    @given(capitals=st.lists(st.integers(min_value=1, max_value=1000),
                             min_size=2, max_size=4),
           amounts=st.lists(st.integers(min_value=10 ** 3, max_value=10 ** 6),
                            min_size=5, max_size=40))
    def test_pro_rata_fairness_bound(self, capitals, amounts):
        _, credits, _, _ = replay_split(amounts, capitals, 0)
        k = len(amounts)
        for i in range(len(capitals)):
            for j in range(len(capitals)):
                if credits[j] == 0:
                    continue
                cap_ratio = capitals[i] / capitals[j]
                ratio_err = abs(credits[i] / credits[j] - cap_ratio)
                # each credit is within one unit of exact pro-rata
                assert ratio_err <= (cap_ratio + 1) / credits[j] + 1e-9
                if k >= cap_ratio + 1:
                    assert ratio_err <= k / credits[j] + 1e-9
