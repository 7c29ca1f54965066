"""Acceptance criteria, one test per criterion.

Each test prints an "ACCEPTANCE n PASS" line once its assertions hold, so
running `pytest tests/test_acceptance.py -v -s` yields one line per
criterion. Criteria 1-3 share a deterministic corpus of 50 randomized
scenarios (m <= 4, horizons well under 500 epochs) built from a fixed
seed; the independent oracles live in oracle.py and recompute everything
with explicit loops and exact rationals.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import stakeclaim as sc
from conftest import (BEACON, MINT, OPERATOR, SYSTEM, TREASURY, SteppedWorld, dust_of, expanded,
                      logged_events, make_world, restore, snapshot, transfer)
from oracle import rational_shares, replay_mixed, trigger_epoch
from stakeclaim.beacon import BeaconParams, validator_by_id
from stakeclaim.cli import main as cli_main
from stakeclaim.errors import ContractError, LedgerError
from stakeclaim.scenario import (
    BehaviorWindow,
    DepositAction,
    MintSpec,
    Scenario,
    SlashAction,
    TreasurySpec,
    World,
)
from stakeclaim.treasury import accrued

CORPUS_SEED = 20260808
CORPUS_SIZE = 50


def random_scenario(rng: random.Random) -> Scenario:
    m = rng.randint(1, 4)
    stake = rng.choice([64_000, 256_000, 3_200_000])
    target = stake * m
    n_holders = rng.randint(1, 6)
    weights = [rng.randint(1, 20) for _ in range(n_holders)]
    total_w = sum(weights)
    capitals = [target * w // total_w for w in weights[:-1]]
    capitals.append(target - sum(capitals))
    close = rng.randint(2, 4)
    horizon = rng.randint(30, 180)
    reward = rng.randint(200, 5000)
    deposits = tuple(
        DepositAction(holder=f"h{i}", amount=c, epoch=rng.randint(0, close - 1))
        for i, c in enumerate(capitals))
    schedule = []
    for j in range(m):
        if rng.random() < 0.5:
            cut = rng.randint(5, horizon)
            degraded = rng.choice([0.0, 0.1, 0.25, 0.5, 0.9])
            schedule.append(BehaviorWindow(from_epoch=0, to_epoch=cut,
                                           factor=1.0, validator=j))
            schedule.append(BehaviorWindow(from_epoch=cut, factor=degraded,
                                           validator=j))
        else:
            schedule.append(BehaviorWindow(from_epoch=0, factor=1.0, validator=j))
    slashes = ()
    if rng.random() < 0.3:
        slashes = (SlashAction(epoch=rng.randint(5, horizon),
                               validator=rng.randrange(m),
                               fraction_bps=rng.choice([1, 100, 500, 5000, 10_000])),)
    return Scenario(
        treasury=TreasurySpec(
            fee_bps=rng.choice([0, 100, 777, 1000, 2500, 5000, 9999, 10_000]),
            expected_reward_per_epoch=rng.randint(0, reward),
            grace_epochs=rng.randint(2, 6),
            escrow_required=rng.choice([0, 1000, 500_000]),
            validators=m),
        mint=MintSpec(min_contribution=1, open_epoch=0, close_epoch=close),
        beacon=BeaconParams(stake_requirement=stake, reward_per_epoch=reward,
                            activation_delay=rng.randint(1, 3),
                            exit_delay=rng.randint(1, 4),
                            sweep_period=rng.randint(1, 2)),
        deposits=deposits,
        operator_schedule=tuple(schedule),
        slashes=slashes,
        horizon=horizon,
    )


@pytest.fixture(scope="module")
def corpus():
    """50 randomized runs on the stepped reference plus their worlds, with total runtime recorded."""
    rng = random.Random(CORPUS_SEED)
    scenarios = [random_scenario(rng) for _ in range(CORPUS_SIZE)]
    for s in scenarios:
        assert sc.validate(s) == []
    t0 = time.perf_counter()
    runs = []
    for s in scenarios:
        world = SteppedWorld(s)         # every call is seen: no epoch is a segment
        steps = record_distributions(world)
        report = world.run()
        runs.append((s, world, report, steps))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def trigger(e) -> tuple[str, int] | None:
    """(its name, the amount it distributes) if `e` sets off a distribution, else None."""
    p = e.payload
    if e.tag == "ExitSettled":
        return "ExitSettled", p["returned"] + p["escrow_cover"] + p["penalty"]
    if e.tag == "Call" and p["method"] == "receive_rewards":
        return "receive_rewards", p["value"]
    return None


def record_distributions(world: World) -> list[tuple]:
    """Wrap the world's Ledger.call and log to watch every distribution as it commits.

    For each committed call that logged a trigger or moved the treasury's
    cumulative net N, keeps (triggers, its fee, {token: accrued credit},
    dust), the fee and the rest read from the committed treasury state
    right after the call. A trigger (:func:`trigger`) is a receipt, the
    wallet's Call to receive_rewards, or a settlement, its ExitSettled
    event: the one line that states a distribution's amount.
    """
    led = world.ledger
    inner = led.call
    log = led._log
    committed = []          # every Event the ledger logs, as it commits them
    steps = []

    def keep(events):
        committed.extend(events)
        log(events)

    def call(*args, **kwargs):
        before = led.contract_state(TREASURY)
        first = len(committed)
        result = inner(*args, **kwargs)
        triggers = [t for t in map(trigger, committed[first:]) if t is not None]
        tst = led.contract_state(TREASURY)
        if triggers or tst.net_total != before.net_total:
            steps.append((triggers, tst.operator_fees_accrued - before.operator_fees_accrued,
                          {t: accrued(tst, t) for t in tst.capital}, dust_of(tst)))
        return result

    led._log = keep
    led.call = call
    return steps


def events_of(report) -> list[dict]:
    return [json.loads(line) for line in expanded(report.events_jsonl).splitlines()]


def test_criterion_1_operator_fee_equation(corpus):
    """S = sum_j R_j * F, within the floor-rounding bound, in under 5 s."""
    runs, elapsed = corpus
    for s, world, report, _ in runs:
        fee_bps = s.treasury.fee_bps
        r_total = sum(v.rewards_received for v in report.validators)
        # Each receipt is the wallet's Call to receive_rewards, which
        # carries its value; its fee floors value * F.
        receipts = [e.payload["value"] for e in logged_events(world.ledger)
                    if e.tag == "Call" and e.payload["method"] == "receive_rewards"]
        receipt_count = len(receipts)
        assert sum(receipts) == r_total
        assert sum(value * fee_bps // 10_000 for value in receipts) \
            == report.operator_fees_claimed + report.operator_fees_accrued
        paid = report.operator_fees_claimed
        if report.operator_fees_accrued > 0:
            paid += world.ledger.call(OPERATOR, TREASURY, "claim_operator_fees", {})
        exact = Fraction(r_total) * Fraction(fee_bps, 10_000)
        if receipt_count == 0:
            assert paid == 0
        else:
            assert abs(paid - exact) < receipt_count
    assert elapsed < 5.0, f"50 scenarios took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: operator fee equation on {len(runs)} scenarios "
          f"(runtime {elapsed:.2f}s < 5s)")


def test_criterion_2_holder_share_equation(corpus):
    """r_i recomputed by the exact-rational oracle; conservation is exact.

    Checked per distribution and per token: after every committed call that
    carried a receipt or a settlement, each token's step of accrued credit
    (read from the committed treasury state) must equal the step of an
    independent remainder-carry replay, with zero tolerance.
    """
    runs, _ = corpus
    runs_with_receipts = 0
    for s, world, report, steps in runs:
        # Every distribution in the log was seen as a step: a driver that
        # bypassed the Ledger.call wrapper would record none and pass below.
        assert len(steps) == sum(1 for e in logged_events(world.ledger) if trigger(e))
        tst = world.ledger.contract_state(TREASURY)
        token_order = sorted(tst.capital)
        capitals = [tst.capital[t] for t in token_order]

        stream = [(triggers[0][1], triggers[0][0] == "receive_rewards")
                  for triggers, _, _, _ in steps]
        o_fees, o_reward, o_settle, o_dust, o_steps = replay_mixed(
            stream, capitals, s.treasury.fee_bps)
        receipts = []
        prev = [0] * len(capitals)
        prev_dust = 0
        for (triggers, fee, acc, dust), (o_fee, o_shares, o_dust_after) in zip(
                steps, o_steps):
            # one receipt or one settlement per call, logged once
            assert len(triggers) == 1
            (kind, amount), = triggers
            assert sorted(acc) == token_order
            now = [acc[t] for t in token_order]
            step = [a - b for a, b in zip(now, prev)]
            # per-distribution conservation, zero tolerance
            assert fee + sum(step) + (dust - prev_dust) == amount
            # per-token, per-distribution equality with the oracle
            assert (fee, step, dust) == (o_fee, o_shares, o_dust_after)
            if kind == "receive_rewards":
                receipts.append(amount)
            prev, prev_dust = now, dust
        if not receipts:
            continue
        runs_with_receipts += 1
        assert sum(fee for _, fee, _, _ in steps) == o_fees
        # all credits + fee + dust == everything distributed, zero tolerance
        assert o_fees + sum(o_reward) + sum(o_settle) + o_dust \
            == sum(amount for amount, _ in stream)
        # what the report says each holder got is the oracle's credit
        owed: dict[str, int] = {}
        owner_of = {t: owner for owner, tokens in tst.owned.items() for t in tokens}
        for t, r, z in zip(token_order, o_reward, o_settle):
            owner = owner_of[t]
            owed[owner] = owed.get(owner, 0) + r + z
        for h in report.holders:
            assert h.claimed + h.claimable == owed.get(h.holder, 0)
        # rational oracle: every holder within < receipt_count
        shares = rational_shares(sum(receipts), capitals, s.treasury.fee_bps)
        for got, want in zip(o_reward, shares):
            assert abs(got - want) < len(receipts)
    assert runs_with_receipts >= len(runs) // 2
    print(f"\nACCEPTANCE 2 PASS: holder share equation, exact conservation and "
          f"< receipt-count rational bound on {len(runs)} scenarios")


def test_criterion_3_conservation(corpus):
    """Total == minted - burned live, and the log's supply totals == the counters."""
    runs, _ = corpus
    golden_runs = [(sc.load_scenario(sc.golden_scenario_path(name)),)
                   for name in sc.GOLDEN_SCENARIOS]
    checked = 0
    for s, world, report, _ in runs:
        assert report.conservation_ok and report.replay_ok
        led = world.ledger
        replay = sc.replay_balances(logged_events(led))
        assert (replay.minted, replay.burned) == (led.minted_total, led.burned_total)
        checked += 1
    for (s,) in golden_runs:
        report = sc.run(s)
        assert report.conservation_ok and report.replay_ok
        checked += 1
    print(f"\nACCEPTANCE 3 PASS: exact conservation, live and by event-log "
          f"replay, on {checked} scenarios")


def test_criterion_4_triggered_exit():
    """Non-paying golden: exact trigger epoch, exact payouts, no operator."""
    s = sc.load_scenario(sc.golden_scenario_path("nonpaying"))
    report = sc.run(s)
    events = events_of(report)

    activation = next(e["epoch"] for e in events if e["tag"] == "Activated")
    triggered = [e for e in events if e["tag"] == "ExitTriggered"]
    assert len(triggered) == 1
    assert triggered[0]["epoch"] == activation + 10 + s.treasury.grace_epochs

    # independent windowed-sum oracle agrees on the epoch
    received = {activation + i: 1000 for i in range(11)}
    assert trigger_epoch(received, activation, s.treasury.expected_reward_per_epoch,
                         s.treasury.grace_epochs, s.horizon) == triggered[0]["epoch"]

    # exact payouts: C_i + pre-trigger net rewards + escrow penalty share
    capitals = [20_000_000_000, 12_000_000_000]
    total_cap = sum(capitals)
    acc = [0, 0]
    credits = [0, 0]
    for _ in range(11):                       # reward receipts
        net = 1000 - (1000 * s.treasury.fee_bps) // 10_000
        for i, c in enumerate(capitals):
            acc[i] += net * c
            credits[i] += acc[i] // total_cap
            acc[i] %= total_cap
    pot = 32_000_000_000 + 2_000_000          # principal + full escrow penalty
    for i, c in enumerate(capitals):
        acc[i] += pot * c
        credits[i] += acc[i] // total_cap
        acc[i] %= total_cap
    by_name = {h.holder: h for h in report.holders}
    assert by_name["alice"].claimable == credits[0]
    assert by_name["bob"].claimable == credits[1]
    assert report.validators[0].penalty == 2_000_000
    assert report.validators[0].shortfall == 0

    # zero operator-originated messages on the exit path
    trigger_seq = triggered[0]["seq"]
    for e in events:
        if e["seq"] >= trigger_seq:
            assert e["emitter"] != "operator"     # a Call line's emitter is its caller
    print("\nACCEPTANCE 4 PASS: triggered exit at exactly activation+10+grace, "
          "exact payouts, zero operator messages on the exit path")


def test_criterion_5_slashing_with_escrow():
    """Escrow absorbs shortfall first; residual loss follows the floor oracle."""
    base = json.loads(sc.golden_scenario_path("slashed").read_text())

    # Case A: shortfall <= escrow -> every holder made whole exactly.
    covered = json.loads(json.dumps(base))
    covered["treasury"]["escrow_required"] = 5_000_000
    covered["slashes"] = [{"epoch": 10, "validator": 0, "fraction_bps": 1}]
    s = sc.scenario_from_dict(covered)
    report = sc.run(s)
    v = report.validators[0]
    burn = (32_000_001_000 * 1) // 10_000     # epoch-10 accrual included
    assert v.shortfall == burn - 1000         # the unswept reward offsets 1000
    by_name = {h.holder: h for h in report.holders}
    assert v.escrow_cover == v.shortfall
    assert by_name["alice"].realized_loss == 0
    assert by_name["bob"].realized_loss == 0
    assert by_name["alice"].settlement_credits >= 20_000_000_000
    assert by_name["bob"].settlement_credits >= 12_000_000_000

    # Case B: shortfall > escrow -> residual loss exactly per the floor oracle.
    report_b = sc.run(sc.load_scenario(sc.golden_scenario_path("slashed")))
    vb = report_b.validators[0]
    assert vb.shortfall == 1_599_999_050
    assert vb.escrow_cover == 2_000_000
    capitals = [20_000_000_000, 12_000_000_000]
    total_cap = sum(capitals)
    acc = [0, 0]
    credits = [0, 0]
    for _ in range(8):                        # receipts epochs 2..9
        net = 1000 - 100
        for i, c in enumerate(capitals):
            acc[i] += net * c
            credits[i] += acc[i] // total_cap
            acc[i] %= total_cap
    settle_credits = [0, 0]
    pot = 30_400_000_950 + 2_000_000
    for i, c in enumerate(capitals):
        acc[i] += pot * c
        settle_credits[i] += acc[i] // total_cap
        acc[i] %= total_cap
    by_name = {h.holder: h for h in report_b.holders}
    assert by_name["alice"].claimable == credits[0] + settle_credits[0]
    assert by_name["bob"].claimable == credits[1] + settle_credits[1]
    assert by_name["alice"].realized_loss == capitals[0] - settle_credits[0]
    assert by_name["bob"].realized_loss == capitals[1] - settle_credits[1]
    print("\nACCEPTANCE 5 PASS: escrow makes holders whole when it covers the "
          "shortfall; residual loss matches the floor oracle exactly")


def test_criterion_6_immutability_exhaustive():
    """No operation sequence (depth <= 4) mutates a withdrawal address or
    any treasury config field on a staked 1-validator instance."""

    def build():
        w = make_world(stake=64, fee_bps=1000, expected=2, grace=2,
                       escrow_required=5, reward=10, activation_delay=1,
                       exit_delay=2,
                       holders={"alice": 400, "bob": 400, "carol": 400})
        w.post_escrow(5)
        w.mint("alice", 40)
        w.mint("bob", 24)
        w.stake_all()
        w.ledger.advance_epoch()
        w.accrue()
        return w

    w = build()
    led = w.ledger
    def config():
        """Every term and address the treasury and the mint hold, as text, so
        a field changed in place shows too."""
        return repr([vars(led._contracts[name]) for name in (TREASURY, MINT)])

    config_fingerprint = config()

    def watched_address():
        return validator_by_id(led.contract_state(BEACON), 0).withdrawal_address

    original_wa = watched_address()

    def check():
        assert watched_address() == original_wa
        assert config() == config_fingerprint

    def epoch_cycle():
        led.advance_epoch()
        w.accrue()
        w.sweep()

    vocabulary = [
        lambda: transfer(led, "alice", "bob", 1),
        lambda: w.mint("carol", 1),
        lambda: w.transfer_nft(0, "alice", "bob"),
        lambda: w.claim("alice"),
        lambda: led.call(OPERATOR, TREASURY, "claim_operator_fees", {}),
        lambda: led.call(OPERATOR, TREASURY, "post_escrow", {}, value=1),
        lambda: led.call(SYSTEM, TREASURY, "stake_all", {}),
        lambda: w.forward(0),
        lambda: w.watchdog(0),
        lambda: w.finalize(0),
        lambda: led.call(OPERATOR, BEACON, "request_exit", {"validator_id": 0}),
        lambda: w.slash(0, 500),
        epoch_cycle,
    ]

    nodes = 0

    def dfs(depth: int, snap: bytes):
        nonlocal nodes
        for op in vocabulary:
            restore(led, snap)
            try:
                op()
            except (ContractError, LedgerError):
                pass
            nodes += 1
            check()
            if depth < 4:
                dfs(depth + 1, snapshot(led))

    dfs(1, snapshot(led))
    expected_nodes = sum(len(vocabulary) ** d for d in (1, 2, 3, 4))
    assert nodes == expected_nodes
    print(f"\nACCEPTANCE 6 PASS: {nodes} operation sequences (depth <= 4, "
          f"{len(vocabulary)}-op vocabulary) left the withdrawal address and "
          f"configs untouched")


def test_criterion_7_determinism(tmp_path):
    """Two CLI runs of every golden produce byte-identical outputs."""
    for name in sc.GOLDEN_SCENARIOS:
        paths = []
        for attempt in ("a", "b"):
            out = tmp_path / name / attempt
            code = cli_main(["run", "--scenario", str(sc.golden_scenario_path(name)),
                             "--out", str(out)])
            assert code == 0
            paths.append(out)
        a, b = paths
        events_a = (a / "events.jsonl").read_bytes()
        assert events_a == (b / "events.jsonl").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        frozen = json.loads((Path(__file__).parent / "golden" / name /
                             "report.json").read_text())
        assert hashlib.sha256(events_a).hexdigest() == frozen["events_digest"]
    print("\nACCEPTANCE 7 PASS: byte-identical events.jsonl and report.json "
          "across repeated runs of every golden scenario")
