"""The report is a fold of the log: ``explain.rebuild_report`` rebuilds every field.

The fold reads nothing but the log's lines, whose first states the
terms and the horizon, and its result must equal ``RunReport.to_dict()``
exactly, field for field. It
runs over the acceptance corpus with claims and resales added (as
``test_handler_purity`` does), over the three goldens as the CLI writes
them, and over one scenario built to reach every path of the credit trail.
It folds the events the log's lines stand for (``explain.expand``), which
refuses a header or a ``Repeat`` line that does not fit the lines around it.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections.abc import Iterator
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

import stakeclaim as sc
from stakeclaim.cli import main as cli_main
from stakeclaim.explain import event_lines, expand, rebuild, rebuild_report
from stakeclaim.ledger import Event, encode_lines
from stakeclaim.scenario import (
    MINT,
    OPERATOR,
    RESERVED,
    TREASURY,
    BehaviorWindow,
    ClaimAction,
    DepositAction,
    NftTransferAction,
    RunReport,
    SlashAction,
    TreasurySpec,
    World,
    validate,
)
from conftest import SteppedWorld, small_scenario
from test_acceptance import CORPUS_SEED, CORPUS_SIZE, random_scenario
from test_handler_purity import with_claims_and_transfers
from test_ledger import poke, tally_ledger, tally_segment

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def assert_rebuilt(report) -> None:
    """The fold of `report`'s log is `report`, naming the first field that differs."""
    got = rebuild_report(report.events_jsonl.splitlines(keepends=True))
    want = report.to_dict()
    differ = [key for key in want if got[key] != want[key]]
    assert not differ, f"{differ[0]}: rebuilt {got[differ[0]]!r}, reported {want[differ[0]]!r}"
    assert got.keys() == want.keys()


def line_of(e: dict) -> str:
    """A decoded log line, a header or an event, written back."""
    return json.dumps(e, separators=(",", ":")) + "\n"


def seq_of(lines: list[str], i: int) -> int:
    """The seq of the event on line i: how many events the lines before it stand for."""
    return sum(1 for _ in expand(lines[:i + 1])) - 1


def is_header(line: str) -> bool:
    return line.startswith('{"epoch":')


@pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
def test_the_fold_rebuilds_each_golden_report(name, tmp_path):
    code = cli_main(["run", "--scenario", str(sc.golden_scenario_path(name)),
                     "--out", str(tmp_path)])
    assert code == 0
    frozen = json.loads((GOLDEN / name / "report.json").read_text())
    with open(tmp_path / "events.jsonl", encoding="utf-8", newline="") as log:
        assert rebuild_report(log) == frozen



@pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
def test_the_fold_reads_a_one_shot_generator(name):
    # rebuild_report reads its lines once, as they come, and hashes each as
    # it passes: a generator, which cannot be read twice, rebuilds the report.
    report = sc.run(sc.load_scenario(sc.golden_scenario_path(name)))
    pulled = []

    def lines():
        for line in report.events_jsonl.splitlines(keepends=True):
            pulled.append(line)
            yield line

    assert rebuild_report(lines()) == report.to_dict()
    assert "".join(pulled) == report.events_jsonl

def test_the_fold_rebuilds_every_corpus_report():
    rng = random.Random(CORPUS_SEED)
    corpus = [random_scenario(rng) for _ in range(CORPUS_SIZE)]
    extras = random.Random(CORPUS_SEED + 1)
    # A claim is logged as its Call, then the Transfer that pays it.
    seen = {'"tag":"TransferNft"': 0, '"method":"claim"}': 0, '"tag":"ActionRejected"': 0,
            '"tag":"Slashed"': 0, '"tag":"ExitTriggered"': 0, '"tag":"ExitSettled"': 0}
    statuses = set()
    for s in corpus:
        report = sc.run(with_claims_and_transfers(s, extras))
        assert_rebuilt(report)
        for marker in seen:
            seen[marker] += report.events_jsonl.count(marker)
        statuses.update(v.beacon_status for v in report.validators)
    # Every path of the fold was taken, none vacuously.
    assert min(seen.values()) > 0, seen
    assert {"Active", "Exiting", "Withdrawn"} <= statuses


def resales_claims_and_both_exit_causes() -> sc.Scenario:
    # Tokens change hands before and after claims; one validator is
    # slashed, the other exits for performance; a claim and a resale are
    # rejected, the resale to dave, whom no other line names.
    return small_scenario(
        treasury=TreasurySpec(fee_bps=777, expected_reward_per_epoch=90,
                              grace_epochs=3, escrow_required=50, validators=2),
        deposits=(DepositAction("alice", 8001, 0), DepositAction("bob", 4799, 0)),
        operator_schedule=(
            BehaviorWindow(from_epoch=0, factor=1.0, validator=0),
            BehaviorWindow(from_epoch=0, to_epoch=8, factor=0.7, validator=1),
            BehaviorWindow(from_epoch=8, factor=0.0, validator=1),
        ),
        slashes=(SlashAction(epoch=16, validator=0, fraction_bps=500),),
        nft_transfers=(NftTransferAction(0, "alice", "carol", 5),
                       NftTransferAction(1, "bob", "alice", 9),
                       NftTransferAction(1, "bob", "dave", 10),
                       NftTransferAction(0, "carol", "bob", 14)),
        claims=(ClaimAction("alice", 10), ClaimAction("carol", 12),
                ClaimAction("erin", 13), ClaimAction("bob", 20)),
        horizon=25,
    )


def run_with_resales_claims_and_both_exit_causes() -> RunReport:
    return sc.run(resales_claims_and_both_exit_causes())


def test_the_fold_follows_resales_claims_and_both_exit_causes():
    report = run_with_resales_claims_and_both_exit_causes()
    assert [v.exit_cause for v in report.validators] == ["slashed", "performance"]
    assert report.events_jsonl.count('"tag":"ActionRejected"') == 2
    assert {h.holder for h in report.holders} == {"alice", "bob", "carol", "dave", "erin"}
    assert_rebuilt(report)


def exit_due_at_the_horizon() -> sc.Scenario:
    """Sweeps every other epoch, and a slash whose exit falls due at the horizon."""
    return small_scenario(beacon=sc.BeaconParams(stake_requirement=6400, reward_per_epoch=100,
                                                 activation_delay=1, exit_delay=3,
                                                 sweep_period=2),
                          slashes=(SlashAction(epoch=10, validator=0, fraction_bps=500),),
                          horizon=13)


def test_an_exit_due_but_not_yet_swept_reads_withdrawable():
    # Sweeps run every other epoch: the run ends on the epoch the exit
    # falls due, before the sweep that pays it out.
    report = sc.run(exit_due_at_the_horizon())
    assert report.validators[0].beacon_status == "Withdrawable"
    assert_rebuilt(report)


def test_a_log_without_its_end_folds_as_the_run_cut_at_its_last_line():
    # The run above, cut after epoch 12: its exit falls due at 13, which
    # the cut log never reaches, so the validator still reads Exiting. The
    # report is the one a run to epoch 12 writes, but for the horizon the
    # terms state, and for the End line only a report writes.
    s = exit_due_at_the_horizon()
    lines = sc.run(s).events_jsonl.splitlines(keepends=True)
    cut = lines[:lines.index('{"epoch":13}\n')]
    assert json.loads(cut[-1])["tag"] != "End"
    report, ended = rebuild(cut)
    shorter = sc.run(replace(s, horizon=12))
    assert not ended and shorter.validators[0].beacon_status == "Exiting"
    assert report == {**shorter.to_dict(), "horizon": 13, "event_count": shorter.event_count - 1,
                      "events_digest": hashlib.sha256("".join(cut).encode()).hexdigest()}
    assert rebuild(lines).ended


@pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
def test_every_prefix_of_a_log_folds_as_the_run_cut_at_its_last_line(name):
    # Only the whole log ends with its End line. Every shorter prefix folds
    # as a cut run whose final_epoch is the last epoch its last line
    # reaches (for a Repeat, the last it stands for), or does not fold.
    lines = sc.run(sc.load_scenario(sc.golden_scenario_path(name))) \
        .events_jsonl.splitlines(keepends=True)
    folded = reaches = 0
    for n in range(1, len(lines) + 1):
        last = json.loads(lines[n - 1])
        if "epoch" in last:         # a prefix ending at a header opens an empty block
            reaches = last["epoch"]
        elif last["tag"] == "Repeat":
            reaches += last["payload"]["epochs"]
        try:
            report, ended = rebuild(lines[:n])
        except ValueError:
            continue
        folded += 1
        assert ended is (n == len(lines)) and report["final_epoch"] == reaches, n
    assert folded > len(lines) // 2


@pytest.mark.parametrize("tag", ["SupplyMint", "Call"])
@pytest.mark.parametrize("name", ["wallet:7", *sorted(RESERVED), "dave"])
def test_validate_and_the_fold_agree_on_who_is_a_holder(name, tag):
    # validate rejects a holder name exactly when the fold does not count a
    # name its log endows or sees calling as a holder's.
    s = small_scenario(deposits=(*small_scenario().deposits, DepositAction(name, 1, 0)))
    rejected = any(p.startswith("deposits[2].holder ") for p in validate(s))
    payload = ({"amount": 1, "memo": "m"} if tag == "SupplyMint"
               else {"target": MINT, "method": "mint"})
    terms = World(small_scenario()).ledger.events_jsonl().splitlines(keepends=True)[:2]
    rebuilt = rebuild_report([*terms, *encode_lines([Event(0, 1, name, tag, payload)], 0)])
    assert ({h["holder"] for h in rebuilt["holders"]} == {name}) is not rejected
    assert rejected is (name != "dave")


def escrow_refunded() -> sc.Scenario:
    """A slash that costs nothing, so the whole escrow returns to the operator."""
    return small_scenario(slashes=(SlashAction(epoch=5, validator=0, fraction_bps=1),))


def run_with_the_escrow_refunded() -> RunReport:
    report = sc.run(escrow_refunded())
    assert report.escrow_refunded == 50
    return report


def run_with_the_mint_aborted() -> RunReport:
    """A raise that does not fill: the mint refunds it when its window closes."""
    report = sc.run(small_scenario(deposits=(DepositAction("alice", 4000, 0),
                                             DepositAction("bob", 100, 0))))
    assert report.phase == "Fundraising" and '"tag":"MintAborted"' in report.events_jsonl
    return report


def test_the_fold_rebuilds_a_run_that_never_stakes():
    # No line but the terms names a wallet before the raise fills.
    report = run_with_the_mint_aborted()
    assert len(report.validators) == 1 and report.validators[0].validator_id is None
    assert_rebuilt(report)


def run_with_the_operator_fees_claimed() -> RunReport:
    """No scenario action claims the operator's fees; the operator claims
    them once the run is over."""
    world = World(resales_claims_and_both_exit_causes())
    world.run()
    world.ledger.call(OPERATOR, TREASURY, "claim_operator_fees", {})
    report = world.report()
    assert report.operator_fees_claimed > 0 and report.operator_fees_accrued == 0
    return report


def test_the_fold_follows_an_operator_fee_claim():
    assert_rebuilt(run_with_the_operator_fees_claimed())


def first(marker: str, then: int = 0):
    """The index of the first line holding `marker`, or of the line `then` after it."""
    return lambda lines: then + next(i for i, line in enumerate(lines) if marker in line)


def tagged(tag: str):
    return first(f'"tag":"{tag}"')


def last_before(marker: str, before: str):
    """The index of the last line holding `marker` before the first holding `before`."""
    def at(lines):
        end = first(before)(lines)
        return max(i for i, line in enumerate(lines[:end]) if marker in line)

    return at


# The Call lines that ask for a claim, a fee claim, a token or an abort's
# refunds, and for a reward receipt: a claim's amount is the Transfer right
# after its Call, a token's capital and a receipt's amount are their Call's
# value.
CLAIM = '"method":"claim"}'
FEE_CLAIM = '"method":"claim_operator_fees"}'
REGISTER = '"method":"register_nft",'
ABORT_REFUND = '"method":"abort_refund"}'
RECEIPT = '"method":"receive_rewards",'


# Each id names an amount as the report books it. The log states it once:
# each case finds it on the line that carries it.
@pytest.mark.parametrize("run,at,key", [
    (run_with_resales_claims_and_both_exit_causes, first(CLAIM, then=1), "amount"),
    (run_with_resales_claims_and_both_exit_causes, tagged("EscrowPosted"), "total"),
    # A refund or a fee claim must be taken off the balance, not zero it.
    (run_with_the_escrow_refunded, tagged("EscrowPosted"), "total"),
    (run_with_the_operator_fees_claimed, first(FEE_CLAIM, then=1), "amount"),
    # The principal raised must be what is staked, or what is refunded.
    (run_with_resales_claims_and_both_exit_causes, first(REGISTER), "value"),
    (run_with_resales_claims_and_both_exit_causes, tagged("Staked"), "validators"),
    (run_with_the_mint_aborted, first(REGISTER), "value"),
    # Token ids are positions: a Mint takes the next one, and a resale
    # moves a token its seller holds.
    (run_with_resales_claims_and_both_exit_causes, tagged("Mint"), "token_id"),
    (run_with_resales_claims_and_both_exit_causes, tagged("TransferNft"), "token_id"),
    # A settlement raises N by its pot, which must be the treasury's rule's,
    # and each receipt by its value less its fee, repeated ones too.
    (run_with_resales_claims_and_both_exit_causes, tagged("ExitSettled"), "penalty"),
    (run_with_the_escrow_refunded, last_before(RECEIPT, '"tag":"Repeat"'), "value"),
    # A line that restates another must say what that one says: a reward is
    # its Call's value, an accrual's minted its rewards and its SupplyMint,
    # and a settlement's returned its wallet's withdrawal.
    (run_with_resales_claims_and_both_exit_causes, first(RECEIPT), "value"),
    (run_with_resales_claims_and_both_exit_causes, tagged("EpochAccrual"), "minted"),
    (run_with_resales_claims_and_both_exit_causes, tagged("ExitSettled"), "returned"),
], ids=["Claimed.amount", "EscrowPosted.total",
        "EscrowPosted.total-refunded", "OperatorFeesClaimed.amount", "Mint.capital",
        "Staked.validators", "Mint.capital-aborted", "Mint.token_id", "TransferNft.token_id",
        "ExitSettled.penalty", "Repeat.receipt-value",
        "Distributed.amount", "EpochAccrual.minted", "ExitSettled.returned"])
def test_one_unit_added_to_an_amount_the_fold_reads_fails_replay_ok(run, at, key):
    # The treasury's replayed balance must be what the rebuilt state says
    # it holds, so the first such line, one unit off, breaks replay_ok.
    report = run()
    lines = report.events_jsonl.splitlines(keepends=True)
    assert rebuild_report(lines)["conservation"]["replay_ok"]
    i = at(lines)
    e = json.loads(lines[i])
    e["payload"][key] += 1
    lines[i] = line_of(e)
    assert not rebuild_report(lines)["conservation"]["replay_ok"]


@pytest.mark.parametrize("run", [run_with_resales_claims_and_both_exit_causes,
                                 run_with_the_operator_fees_claimed], ids=["claims", "fee-claim"])
def test_a_fee_reckoned_by_other_terms_fails_replay_ok(run):
    # No line states a fee: the fold reckons each receipt's from the terms'
    # fee_bps, and a claim of credit or of the fees restates them. Under
    # terms with no fee, it pays out what the fold does not rebuild.
    report = run()
    lines = report.events_jsonl.splitlines(keepends=True)
    e = json.loads(lines[1])
    assert e["tag"] == "Genesis" and e["payload"]["treasury"]["fee_bps"] > 0
    e["payload"]["treasury"]["fee_bps"] = 0
    lines[1] = line_of(e)
    assert not rebuild_report(lines)["conservation"]["replay_ok"]


@pytest.mark.parametrize("run,at,pair,to", [
    (run_with_the_mint_aborted, first(ABORT_REFUND, then=1), 0, "bob"),
    (run_with_the_mint_aborted, first(ABORT_REFUND, then=1), 1, "alice"),
    (run_with_the_escrow_refunded, first('"tag":"EscrowRefunded"', then=-1), None, "alice"),
    (run_with_resales_claims_and_both_exit_causes, tagged("TransferBatch"), 1, "wallet:0"),
], ids=["abort-refund", "abort-refund-last", "escrow-refund", "sweep"])
def test_a_refund_paid_to_another_name_fails_replay_ok(run, at, pair, to):
    # An abort refunds each token's capital to its owner, in token order,
    # and the escrow left returns to the operator: paid to anyone else, the
    # amounts and the balances still add up. The abort's refunds are one
    # TransferBatch line, as is a sweep of two validators, and each pair is
    # read in order as the Transfer it stands for: a sweep paid to the
    # other wallet leaves one wallet's receipt short and the other's over.
    report = run()
    lines = report.events_jsonl.splitlines(keepends=True)
    i = at(lines)
    e = json.loads(lines[i])
    assert e["tag"] == ("Transfer" if pair is None else "TransferBatch")
    assert rebuild_report(lines)["conservation"]["replay_ok"]
    names, key = (e["payload"], "to") if pair is None else (e["payload"]["to"], pair)
    assert names[key] != to
    names[key] = to
    lines[i] = line_of(e)
    assert not rebuild_report(lines)["conservation"]["replay_ok"]


@pytest.mark.parametrize("run,marker,then,key", [
    (run_with_resales_claims_and_both_exit_causes, CLAIM, 1, "amount"),
    (run_with_the_operator_fees_claimed, FEE_CLAIM, 1, "amount"),
    (run_with_resales_claims_and_both_exit_causes, REGISTER, 0, "value"),
], ids=["claim-Transfer.amount", "fee-claim-Transfer.amount", "register_nft-Call.value"])
def test_one_unit_added_to_a_claim_or_a_deposit_fails_replay_ok(
        run, marker, then, key):
    # A claim's Transfer moves the treasury's balance and is the claim's
    # record: one unit more takes both off together, and only the check
    # that it took what was due (claimable_of, or the fees accrued) sees
    # it. A token's capital is what its register_nft Call paid, which the
    # mint holds only once. Each such line is tampered on its own.
    report = run()
    lines = report.events_jsonl.splitlines(keepends=True)
    found = [i + then for i, line in enumerate(lines) if marker in line]
    assert found and all('"tag":"Transfer"' in lines[i] for i in found if then)
    for i in found:
        e = json.loads(lines[i])
        e["payload"][key] += 1
        tampered = [*lines[:i], line_of(e), *lines[i + 1:]]
        assert not rebuild_report(tampered)["conservation"]["replay_ok"], i


def test_one_unit_added_to_a_reward_receipt_fails_replay_ok():
    # A reward receipt is a wallet's Call to receive_rewards with a value.
    # One unit more, at the first receipt or the last, moves a unit its
    # wallet never held, and raises N and the fees as the unit was paid.
    report = run_with_resales_claims_and_both_exit_causes()
    lines = report.events_jsonl.splitlines(keepends=True)
    receipts = [i for i, line in enumerate(lines) if '"method":"receive_rewards","value":' in line]
    assert len(receipts) > 1
    for i in (receipts[0], receipts[-1]):
        e = json.loads(lines[i])
        e["payload"]["value"] += 1
        tampered = [*lines[:i], line_of(e), *lines[i + 1:]]
        assert not rebuild_report(tampered)["conservation"]["replay_ok"]


@pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
def test_a_reward_receipt_one_unit_short_fails_replay_ok(name):
    # A wallet forwards all it holds: one unit less, at the first receipt
    # or the last, leaves that unit in the wallet, and in a run without
    # claims every balance and identity adds up all the same.
    lines = sc.run(sc.load_scenario(sc.golden_scenario_path(name))) \
        .events_jsonl.splitlines(keepends=True)
    receipts = [i for i, line in enumerate(lines) if '"method":"receive_rewards","value":' in line]
    for i in (receipts[0], receipts[-1]):
        tampered = [*lines[:i], changed(lines[i], lambda e: e["payload"].update(
            value=e["payload"]["value"] - 1)), *lines[i + 1:]]
        assert not rebuild_report(tampered)["conservation"]["replay_ok"]


@pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
def test_an_epoch_deleted_whole_fails_replay_ok(name):
    # The beacon accrues once an epoch, from the epoch after the stake until
    # every validator is Withdrawn. A stepped epoch's block deleted, its
    # header and all, leaves every balance, identity and restated amount
    # of the rest as they were, but no accrual at that epoch.
    lines = sc.run(sc.load_scenario(sc.golden_scenario_path(name))) \
        .events_jsonl.splitlines(keepends=True)
    start = lines.index('{"epoch":5}\n')
    end = next(i for i in range(start + 1, len(lines)) if is_header(lines[i]))
    assert '"method":"accrue_epoch"' in lines[start + 1]
    assert not rebuild_report([*lines[:start], *lines[end:]])["conservation"]["replay_ok"]


def test_an_accrual_line_deleted_or_restated_fails_replay_ok():
    # An EpochAccrual is logged when the amounts change, and the fold
    # carries the last one to each accrual that logs none. Deleted, each
    # leaves an accrual whose SupplyMint or Active validators the carried
    # amounts do not fit; logged again where the amounts did not change,
    # it is no line the beacon writes.
    lines = run_with_resales_claims_and_both_exit_causes().events_jsonl.splitlines(keepends=True)
    assert rebuild_report(lines)["conservation"]["replay_ok"]
    accruals = [i for i, line in enumerate(lines) if '"tag":"EpochAccrual"' in line]
    assert len(accruals) == 2      # both validators Active, then validator 0 alone
    for i in accruals:
        assert not rebuild_report([*lines[:i], *lines[i + 1:]])["conservation"]["replay_ok"], i
    # The first accrual that logs none: its SupplyMint, with the last
    # EpochAccrual after it.
    minted = [i for i, line in enumerate(lines) if '"emitter":"beacon","tag":"SupplyMint"' in line]
    i = next(i for i in minted if i > accruals[0] and '"tag":"EpochAccrual"' not in lines[i + 1])
    again = [*lines[:i + 1], lines[accruals[0]], *lines[i + 1:]]
    assert not rebuild_report(again)["conservation"]["replay_ok"]


@pytest.mark.parametrize("change", [
    lambda p: {"to": [p["to"]], "amount": [p["amount"]]},
    lambda p: {"to": [p["to"], p["to"]], "amount": [p["amount"]]},
    lambda p: {"to": p["to"], "amount": [p["amount"]]},
], ids=["one-pair", "lengths-differ", "to-not-a-list"])
def test_a_claim_paid_by_a_batch_the_ledger_does_not_write_fails(change):
    # The ledger logs a run of two or more transfers as one TransferBatch
    # and a single one as a Transfer: a claim's payout as a batch of one
    # pair pays what the claim was due, but is no line of the ledger's. A
    # batch whose lists differ, or are not lists, does not fold.
    report = run_with_resales_claims_and_both_exit_causes()
    lines = report.events_jsonl.splitlines(keepends=True)
    i = first(CLAIM, then=1)(lines)
    e = json.loads(lines[i])
    e.update(tag="TransferBatch", payload=change(e["payload"]))
    lines[i] = line_of(e)
    try:
        replay_ok = rebuild_report(lines)["conservation"]["replay_ok"]
    except ValueError as exc:
        assert str(exc).startswith(f"the line at seq {seq_of(lines, i)} does not fold"), exc
    else:
        assert not replay_ok


def swapping_factors() -> sc.Scenario:
    """Two validators at factors 1 and 1/2 that swap at epoch 10: its two
    EpochAccrual lines mint the same sum, each validator's reward the
    other's in the other line."""
    return small_scenario(
        treasury=TreasurySpec(fee_bps=1000, expected_reward_per_epoch=20, grace_epochs=3,
                              escrow_required=50, validators=2),
        deposits=(DepositAction("alice", 8000, 0), DepositAction("bob", 4800, 0)),
        operator_schedule=(BehaviorWindow(from_epoch=0, to_epoch=10, factor=1.0, validator=0),
                           BehaviorWindow(from_epoch=10, factor=0.5, validator=0),
                           BehaviorWindow(from_epoch=0, to_epoch=10, factor=0.5, validator=1),
                           BehaviorWindow(from_epoch=10, factor=1.0, validator=1)))


@pytest.mark.parametrize("tamper", ["swapped", "second-deleted"])
def test_an_accrual_paid_to_the_other_validator_fails_replay_ok(tamper):
    # The fold rebuilds each validator's beacon balance from its accruals,
    # and a sweep pays out its excess over the stake. Each accrual's
    # amounts swapped between the two validators, or the second accrual
    # deleted, so that the first is carried past the swap, leaves every id
    # and every sum as it was: only the sweeps' payouts tell.
    lines = sc.run(swapping_factors()).events_jsonl.splitlines(keepends=True)
    assert rebuild_report(lines)["conservation"]["replay_ok"]
    accruals = [i for i, line in enumerate(lines) if '"tag":"EpochAccrual"' in line]
    assert [json.loads(lines[i])["payload"] for i in accruals] \
        == [{"minted": 150, "amounts": [[0, 100], [1, 50]]},
            {"minted": 150, "amounts": [[0, 50], [1, 100]]}]
    if tamper == "swapped":
        for i in accruals:
            lines[i] = changed(lines[i], lambda e: e["payload"].update(
                amounts=[[0, e["payload"]["amounts"][1][1]], [1, e["payload"]["amounts"][0][1]]]))
    else:
        del lines[accruals[1]]
    assert not rebuild_report(lines)["conservation"]["replay_ok"]


def test_a_validator_activated_off_its_epoch_fails_replay_ok():
    # Its activation epoch is the activation delay after its deposit: an
    # Activated line an epoch early, the last of the epoch before, is not
    # the beacon's, though the accruals after it name the validator Active
    # all the same.
    report = run_with_resales_claims_and_both_exit_causes()
    lines = report.events_jsonl.splitlines(keepends=True)
    i = first('"tag":"Activated"')(lines)
    header = max(j for j in range(i) if is_header(lines[j]))
    assert not is_header(lines[header - 1])     # the epoch before logged
    lines.insert(header, lines.pop(i))
    assert not rebuild_report(lines)["conservation"]["replay_ok"]


# (tag, key) -> why one unit added to that int field of a line can leave
# replay_ok true: the number is stated on that line alone, and nothing the
# fold holds restates it. The sweep below keeps this list exact.
UNCHECKED = {
    ("SupplyMint", "amount"):
        "a genesis endowment is an input no line restates (a beacon issue is its accrual's minted)",
    ("ActionRejected", "token_id"):
        "a rejected resale changes nothing, and may name any id (an UnknownToken)",
    ("ExitTriggered", "window_sum"):
        "the receipts in the watchdog's window are not summed from the log",
    ("Slashed", "fraction_bps"):
        "the burn is checked against the validator's rebuilt beacon balance, but a basis "
        "point more burns no unit more of a balance below 10,000 units, as in the small runs",
    # The terms that no line of some run restates.
    ("Genesis", "treasury.fee_bps"):
        "a fee floors value * fee_bps / 10000, so one point more moves no fee of a receipt "
        "below 10,000 units, and only a claim restates the fees",
    ("Genesis", "treasury.expected_reward_per_epoch"):
        "only an ExitTriggered's threshold restates it, and a run with no performance exit has none",
    ("Genesis", "treasury.grace_epochs"):
        "only an ExitTriggered's threshold restates it, and a run with no performance exit has none",
    ("Genesis", "mint.min_contribution"):
        "a deposit pays at least it, so only a deposit of exactly it restates it",
    ("Genesis", "mint.close_epoch"):
        "a deposit comes before it, so no line of a raise that fills restates it",
    ("Genesis", "beacon.reward_per_epoch"):
        "a validator earns it times its performance factor, which is no term",
    ("Genesis", "beacon.exit_delay"):
        "only an exit restates it, and a run with no exit has none",
    ("Genesis", "horizon"):
        "the run ends at it, and a later end leaves every line of the run before it",
}


IntPath = tuple[int | str, ...]


def int_paths(value, path: IntPath = ()) -> Iterator[IntPath]:
    """The path of each int in `value`: () for `value` itself, else its keys
    and positions in the dicts and lists it is nested in (a Genesis section's
    terms, an EpochAccrual's [id, reward])."""
    if type(value) is int:
        yield path
    elif type(value) is list:
        for j, item in enumerate(value):
            yield from int_paths(item, (*path, j))
    elif type(value) is dict:
        for key, item in value.items():
            yield from int_paths(item, (*path, key))


def int_fields(lines: list[str]) -> dict[tuple[str, str], list[tuple[int, IntPath]]]:
    """(tag, field) -> (line index, path) of every int under a key in an
    event line's payload, the field being the key and any keys nested under
    it, dotted ("treasury.fee_bps")."""
    fields: dict[tuple[str, str], list[tuple[int, IntPath]]] = {}
    for i, line in enumerate(lines):
        e = json.loads(line)
        if "epoch" in e:        # a header: its int is swept apart
            continue
        for key, value in e["payload"].items():
            for path in int_paths(value):
                name = ".".join([key, *(at for at in path if type(at) is str)])
                fields.setdefault((e["tag"], name), []).append((i, path))
    return fields


def one_unit_added(payload: dict, key: str, path: IntPath) -> None:
    """Add 1 to the int at `path` under `key` (:func:`int_paths`), in place."""
    inner, at = payload, key
    for j in path:
        inner, at = inner[at], j
    inner[at] += 1


def test_one_unit_added_to_any_int_field_fails_replay_ok():
    # Every int field of every line kind, each int of it, nested in dicts
    # and lists too, at its first and its last line, and the epoch of the
    # first and the last header, in six logs: a +1 must make replay_ok
    # false (or make the log refuse to expand), unless UNCHECKED names the
    # field and says why.
    runs = [sc.run(sc.load_scenario(sc.golden_scenario_path(name)))
            for name in sc.GOLDEN_SCENARIOS]
    runs += [run_with_resales_claims_and_both_exit_causes(), run_with_the_escrow_refunded(),
             run_with_the_operator_fees_claimed()]
    missed = set()
    for report in runs:
        lines = report.events_jsonl.splitlines(keepends=True)
        headers = [i for i, line in enumerate(lines) if is_header(line)]
        fields = {**int_fields(lines),
                  ("header", "epoch"): [(i, ()) for i in (headers[0], headers[-1])]}
        for (tag, key), at in fields.items():
            ends = {at[0][0], at[-1][0]}
            for i, path in (x for x in at if x[0] in ends):
                e = json.loads(lines[i])
                one_unit_added(e if tag == "header" else e["payload"], key.split(".")[0], path)
                tampered = [*lines[:i], line_of(e), *lines[i + 1:]]
                try:
                    kept = rebuild_report(tampered)["conservation"]["replay_ok"]
                except ValueError:
                    kept = False
                if kept:
                    missed.add((tag, key))
    assert missed - UNCHECKED.keys() == set(), "a +1 left replay_ok true"
    assert UNCHECKED.keys() - missed == set(), "now checked: take off UNCHECKED"


@pytest.mark.parametrize("marker, change", [
    ('"method":"receive_rewards"', lambda e: e.update(emitter="alice")),
    ('"tag":"ExitTriggered"', lambda e: e.update(emitter="alice")),
    ('"tag":"DepositAccepted"', lambda e: e["payload"].update(withdrawal_address="alice")),
    ('"tag":"Staked"', lambda e: e["payload"].update(validators=-1)),
    ('"tag":"Staked"', lambda e: e["payload"].update(validators=0)),
    ('"tag":"Genesis"', lambda e: e["payload"]["treasury"].update(validators=0)),
    ('"tag":"Genesis"', lambda e: e["payload"]["beacon"].pop("sweep_period")),
    ('"tag":"Genesis"', lambda e: e["payload"].update(horizon="30")),
    ('"tag":"ExitTriggered"', lambda e: e["payload"].pop("validator_id")),
    (REGISTER, lambda e: e["payload"].update(value="x")),
], ids=["rewards-Call-from-a-holder", "ExitTriggered-from-a-holder",
        "DepositAccepted-to-a-holder", "Staked.validators=-1", "Staked.validators=0",
        "Genesis.treasury.validators=0", "Genesis-no-sweep_period", "Genesis.horizon-a-string",
        "ExitTriggered-no-validator_id", "Mint.capital-a-string"])
def test_a_line_the_fold_cannot_read_fails_replay_ok_or_names_its_seq(marker, change):
    # The fold never ends in a KeyError or a TypeError: a line naming a
    # wallet or validator no line made, or a field missing or mistyped,
    # makes replay_ok false or raises the ValueError of an unreadable log,
    # naming the seq of that line.
    report = sc.run(sc.load_scenario(sc.golden_scenario_path("nonpaying")))
    lines = report.events_jsonl.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if marker in line)
    e = json.loads(lines[i])
    change(e)
    lines[i] = line_of(e)
    try:
        replay_ok = rebuild_report(lines)["conservation"]["replay_ok"]
    except ValueError as exc:
        named = re.match(r"the line at seq (\d+) ", str(exc))
        assert named and int(named[1]) == seq_of(lines, i), exc
    else:
        assert not replay_ok


# Each way a log can fail to state its terms first, and why it does not fold.
NO_TERMS_FIRST = {
    "empty": "does not begin with its Genesis line",
    "no-Genesis": "does not begin with its Genesis line",
    "Genesis-at-seq-1": "does not begin with its Genesis line",
    "second-Genesis": "a second Genesis line",
}


@pytest.mark.parametrize("case", NO_TERMS_FIRST)
def test_a_log_that_does_not_begin_with_its_terms_does_not_fold(case):
    # The terms are stated once, first: the fold reads every line by them.
    # Line 0 is epoch 0's header, line 1 the Genesis line.
    lines = sc.run(small_scenario()).events_jsonl.splitlines(keepends=True)
    if case == "empty":
        lines = []
    elif case == "no-Genesis":
        del lines[1]
    elif case == "Genesis-at-seq-1":
        lines[1], lines[2] = lines[2], lines[1]
    else:
        lines.append(lines[1])
    with pytest.raises(ValueError, match=NO_TERMS_FIRST[case]):
        rebuild_report(lines)


def test_every_log_line_the_readme_shows_is_a_line_of_the_honest_golden():
    # Written as the log writes it, or as `stakeclaim explain --expand`
    # prints it (explain.event_lines).
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    shown = [line + "\n" for block in blocks for line in block.splitlines()
             if line.startswith(('{"epoch"', '{"emitter"'))]
    assert len(shown) >= 4
    log = sc.run(sc.load_scenario(sc.golden_scenario_path("honest"))).events_jsonl
    lines = log.splitlines(keepends=True)
    written, printed = set(lines), set(event_lines(lines))
    assert any(line in printed for line in shown)
    assert [line for line in shown if line not in written | printed] == []


def lines_around_a_repeat(report: RunReport) -> tuple[list[str], int]:
    """`report`'s log lines, and the index of its first Repeat line with a line after it."""
    lines = report.events_jsonl.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines[:-1]) if '"tag":"Repeat"' in line)
    return lines, i


def changed(line: str, change) -> str:
    e = json.loads(line)
    change(e)
    return json.dumps(e, separators=(",", ":")) + "\n"


# The escrow-refunded run's first Repeat stands for one epoch, 4, and the
# header of epoch 5 follows it.
@pytest.mark.parametrize("at, change", [
    (0, lambda e: e["payload"].update(epochs=e["payload"]["epochs"] + 1)),
    (0, lambda e: e["payload"].update(epochs=e["payload"]["epochs"] - 1)),
    (0, lambda e: e["payload"].update(epochs=0)),
    # A Repeat states no count of lines: its block is the last epoch's, whole.
    (0, lambda e: e["payload"].update(lines=6)),
    (0, lambda e: e["payload"].update(lines=5)),
    (0, lambda e: e["payload"].update(net_total="1")),
    (0, lambda e: e["payload"].update(net_total=1)),
    (0, lambda e: e["payload"].pop("epochs")),
    # No line but a header states an epoch, and none a seq.
    (0, lambda e: e.update(epoch=4)),
    (0, lambda e: e.update(seq=0)),
    (1, lambda e: e.update(seq=0)),
    (1, lambda e: e.update(epoch=e["epoch"] - 1)),
    # A header for the block's last line: the Repeat follows an empty block.
    (-1, lambda e: (e.clear(), e.update(epoch=4))),
], ids=["epochs+1", "epochs-1", "epochs=0", "lines+1", "lines-1", "stride-not-an-int",
        "stride", "no-lines",
        "epoch+1", "seq+1", "next-seq+1", "next-epoch-overlaps", "epoch-before-split"])
def test_a_repeat_that_does_not_fit_the_lines_around_it_does_not_expand(at, change):
    # `at` picks the Repeat line (0), the line after it (1) or the line before it (-1).
    report = run_with_the_escrow_refunded()
    lines, i = lines_around_a_repeat(report)
    assert json.loads(lines[i + 1]) == {"epoch": 5}
    assert "".join(event_lines(lines)) \
        == "".join(event_lines(SteppedWorld(escrow_refunded()).run().events_jsonl
                               .splitlines(keepends=True)))
    lines[i + at] = changed(lines[i + at], change)
    with pytest.raises(ValueError):
        list(expand(lines))
    with pytest.raises(ValueError):
        rebuild_report(lines)


def two_repeats_in_a_row() -> tuple[list[str], str]:
    """A log whose two segments, asked at one epoch, wrote two Repeat lines
    in a row, with a stepped epoch after them; and the log of stepping."""
    led, stepped = tally_ledger(7, "x"), tally_ledger(7, "x")
    for k in (5, 3):
        assert tally_segment(led, k, 7)
    for _ in range(8):
        stepped.advance_epoch(poke(stepped))
    for each in (led, stepped):
        each.advance_epoch(poke(each))
    return led.events_jsonl().splitlines(keepends=True), stepped.events_jsonl()


@pytest.mark.parametrize("key", ["lines", "epochs", "seq"])
def test_two_repeats_in_a_row_expand_as_stepping_would(key):
    # One more epoch runs into the header after; a lines count or a seq
    # is no key of a Repeat line.
    lines, stepped = two_repeats_in_a_row()
    assert "".join(event_lines(lines)) == "".join(event_lines(stepped.splitlines(keepends=True)))
    i = max(i for i, line in enumerate(lines) if '"tag":"Repeat"' in line)
    assert '"tag":"Repeat"' in lines[i - 1]

    def one_more(e):
        at = e if key == "seq" else e["payload"]
        at[key] = at.get(key, 0) + 1

    lines[i] = changed(lines[i], one_more)
    with pytest.raises(ValueError):
        list(expand(lines))


@pytest.mark.parametrize("epochs, expands", [(2, True), (3, False)])
def test_a_repeat_ends_by_the_last_epoch_a_run_can_reach(epochs, expands):
    # One line at epoch HORIZON_MAX - 2, then a Repeat of it for the epochs
    # after: two epochs end on HORIZON_MAX, three would pass it.
    last = sc.scenario.HORIZON_MAX
    lines = [*encode_lines([Event(last - 2, 0, "alice", "Note", {})]),
             f'{{"emitter":"system","tag":"Repeat","payload":{{"epochs":{epochs}}}}}\n']
    if expands:
        assert [(e.epoch, e.seq) for e in expand(lines)] \
            == [(last - 2, 0), (last - 1, 1), (last, 2)]
    else:
        with pytest.raises(ValueError, match=f"runs past epoch {last}"):
            list(expand(lines))


def test_a_repeat_of_a_trillion_epochs_raises_before_its_first_line():
    # Written out, it would never end: at most 10**6 lines are taken.
    report = sc.run(sc.load_scenario(sc.golden_scenario_path("honest")))
    lines = report.events_jsonl.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if '"tag":"Repeat"' in line)
    lines[i] = changed(lines[i], lambda e: e["payload"].update(epochs=10**12))
    with pytest.raises(ValueError, match="runs past epoch"):
        for _ in islice(expand(lines), 10**6):
            pass
    with pytest.raises(ValueError, match="runs past epoch"):
        rebuild_report(lines)


E = '{"emitter":"a","tag":"b","payload":{}}\n'
REPEAT = '{"emitter":"system","tag":"Repeat","payload":{"epochs":1}}\n'


@pytest.mark.parametrize("lines, match", [
    (['{"epoch":1}\n', E, '{"epoch":1}\n', E], "header of epoch 1 follows epoch 1"),
    (['{"epoch":2}\n', E, '{"epoch":1}\n', E], "header of epoch 1 follows epoch 2"),
    (['{"epoch":0}\n', E, REPEAT, '{"epoch":1}\n', E], "header of epoch 1 follows epoch 1"),
    (['{"epoch":0}\n', '{"epoch":1}\n', E], "header of epoch 0 opens no block"),
    (['{"epoch":0}\n', E, '{"epoch":1}\n'], "header of epoch 1 opens no block"),
    (['{"epoch":0}\n', REPEAT, E], "follows no block"),
    ([REPEAT, '{"epoch":0}\n', E], "before the first header"),
    ([E], "before the first header"),
], ids=["header-repeated", "header-earlier", "header-inside-a-repeat", "empty-block",
        "empty-last-block", "repeat-after-a-header", "repeat-first", "event-first"])
def test_a_block_out_of_order_or_empty_does_not_expand(lines, match):
    # Headers strictly increase, past the epochs a Repeat stands for too;
    # each opens a block of one event or more, and a Repeat repeats one.
    with pytest.raises(ValueError, match=match):
        list(expand(lines))


def test_events_after_a_repeat_are_of_its_last_epoch_and_a_repeat_repeats_them():
    # Seqs count on through the events a Repeat stands for.
    lines = ['{"epoch":3}\n', E, REPEAT.replace("1", "2"), E, REPEAT, '{"epoch":9}\n', E]
    assert [(e.epoch, e.seq) for e in expand(lines)] \
        == [(3, 0), (4, 1), (5, 2), (5, 3), (6, 4), (6, 5), (9, 6)]


@pytest.mark.parametrize("line", ["[1, 2]\n", "7\n", '{"epoch": 0}\n', "{not json\n",
                                  '{"epoch":"0","seq":0,"emitter":"a","tag":"b","payload":{}}\n'])
def test_a_line_that_is_not_a_log_line_does_not_expand(line):
    # Each after a header and an event, as the second line of a block or
    # the first of the next: a header alone is a block with no event.
    with pytest.raises(ValueError):
        list(expand(['{"epoch":0}\n', '{"emitter":"a","tag":"b","payload":{}}\n', line]))
