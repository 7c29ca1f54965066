"""The report is a fold of the log: ``explain.rebuild_report`` rebuilds every field.

The fold reads nothing but the log's lines, whose first states the
terms and the horizon, and its result must equal ``RunReport.to_dict()``
exactly, field for field. It
runs over the acceptance corpus with claims and resales added (as
``test_handler_purity`` does), over the three goldens as the CLI writes
them, and over one scenario built to reach every path of the credit trail.
It folds the log written out (``explain.expand``), which refuses a
``Repeat`` line that does not fit the lines around it.
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
from stakeclaim.explain import expand, rebuild, rebuild_report
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
    cut = [line for line in lines if json.loads(line)["epoch"] <= 12]
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
    folded = 0
    for n in range(1, len(lines) + 1):
        last = json.loads(lines[n - 1])
        reaches = last["epoch"] + (last["payload"]["epochs"] - 1 if last["tag"] == "Repeat" else 0)
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
    terms = World(small_scenario()).ledger.events_jsonl().splitlines(keepends=True)[0]
    rebuilt = rebuild_report([terms, *encode_lines([Event(0, 1, name, tag, payload)])])
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
    lines[i] = encode_lines([Event(**e)])[0]
    assert not rebuild_report(lines)["conservation"]["replay_ok"]


@pytest.mark.parametrize("run", [run_with_resales_claims_and_both_exit_causes,
                                 run_with_the_operator_fees_claimed], ids=["claims", "fee-claim"])
def test_a_fee_reckoned_by_other_terms_fails_replay_ok(run):
    # No line states a fee: the fold reckons each receipt's from the terms'
    # fee_bps, and a claim of credit or of the fees restates them. Under
    # terms with no fee, it pays out what the fold does not rebuild.
    report = run()
    lines = report.events_jsonl.splitlines(keepends=True)
    e = json.loads(lines[0])
    assert e["tag"] == "Genesis" and e["payload"]["treasury"]["fee_bps"] > 0
    e["payload"]["treasury"]["fee_bps"] = 0
    lines[0] = encode_lines([Event(**e)])[0]
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
    lines[i] = encode_lines([Event(**e)])[0]
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
        tampered = [*lines[:i], encode_lines([Event(**e)])[0], *lines[i + 1:]]
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
        tampered = [*lines[:i], encode_lines([Event(**e)])[0], *lines[i + 1:]]
        assert not rebuild_report(tampered)["conservation"]["replay_ok"]


def test_an_accrual_line_deleted_or_restated_fails_replay_ok():
    # An EpochAccrual is logged when the amounts change, and the fold
    # carries the last one to each accrual that logs none. Deleted, each
    # leaves an accrual whose SupplyMint or Active validators the carried
    # amounts do not fit; logged again where the amounts did not change,
    # it is no line the beacon writes.
    lines = list(expand(run_with_resales_claims_and_both_exit_causes().events_jsonl
                        .splitlines(keepends=True)))
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
    lines[i] = encode_lines([Event(**e)])[0]
    try:
        replay_ok = rebuild_report(lines)["conservation"]["replay_ok"]
    except ValueError as exc:
        assert str(exc).startswith(f"the line at seq {e['seq']} does not fold"), exc
    else:
        assert not replay_ok


def test_a_validator_activated_off_its_epoch_fails_replay_ok():
    # Its activation epoch is the activation delay after its deposit: an
    # Activated line an epoch late is not the beacon's, though the
    # accruals after it name the validator Active all the same.
    report = run_with_resales_claims_and_both_exit_causes()
    lines = report.events_jsonl.splitlines(keepends=True)
    i = first('"tag":"Activated"')(lines)
    lines[i] = changed(lines[i], lambda e: e.update(epoch=e["epoch"] + 1))
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
        "the validator's beacon balance, which it is a share of, is not rebuilt from the log",
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
    """(tag, field) -> (line index, path) of every int under a key in a
    line's payload, the field being the key and any keys nested under it,
    dotted ("treasury.fee_bps")."""
    fields: dict[tuple[str, str], list[tuple[int, IntPath]]] = {}
    for i, line in enumerate(lines):
        e = json.loads(line)
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
    # and lists too, at its first and its last line, in six logs: a +1 must make
    # replay_ok false (or make the log refuse to expand), unless UNCHECKED
    # names the field and says why.
    runs = [sc.run(sc.load_scenario(sc.golden_scenario_path(name)))
            for name in sc.GOLDEN_SCENARIOS]
    runs += [run_with_resales_claims_and_both_exit_causes(), run_with_the_escrow_refunded(),
             run_with_the_operator_fees_claimed()]
    missed = set()
    for report in runs:
        lines = report.events_jsonl.splitlines(keepends=True)
        for (tag, key), at in int_fields(lines).items():
            ends = {at[0][0], at[-1][0]}
            for i, path in (x for x in at if x[0] in ends):
                e = json.loads(lines[i])
                one_unit_added(e["payload"], key.split(".")[0], path)
                tampered = [*lines[:i], encode_lines([Event(**e)])[0], *lines[i + 1:]]
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
    lines[i] = encode_lines([Event(**e)])[0]
    try:
        replay_ok = rebuild_report(lines)["conservation"]["replay_ok"]
    except ValueError as exc:
        named = re.match(r"the line at seq (\d+) ", str(exc))
        assert named and int(named[1]) == e["seq"], exc
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
    lines = list(expand(sc.run(small_scenario()).events_jsonl.splitlines(keepends=True)))
    if case == "empty":
        lines = []
    elif case == "no-Genesis":
        lines = lines[1:]
    elif case == "Genesis-at-seq-1":
        lines[0] = changed(lines[0], lambda e: e.update(seq=1))
    else:
        last = json.loads(lines[-1])
        lines.append(changed(lines[0], lambda e: e.update(epoch=last["epoch"],
                                                          seq=last["seq"] + 1)))
    with pytest.raises(ValueError, match=NO_TERMS_FIRST[case]):
        rebuild_report(lines)


def test_every_log_line_the_readme_shows_is_a_line_of_the_honest_golden():
    # Written as the log writes it, or, inside a quiet stretch, as expand does.
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    shown = [line + "\n" for block in blocks for line in block.splitlines()
             if line.startswith('{"epoch"')]
    assert len(shown) >= 4
    log = sc.run(sc.load_scenario(sc.golden_scenario_path("honest"))).events_jsonl
    lines = log.splitlines(keepends=True)
    written, expanded = set(lines), set(expand(lines))
    assert [line for line in shown if line not in written | expanded] == []


def lines_around_a_repeat(report: RunReport) -> tuple[list[str], int]:
    """`report`'s log lines, and the index of its first Repeat line with a line after it."""
    lines = report.events_jsonl.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines[:-1]) if '"tag":"Repeat"' in line)
    return lines, i


def changed(line: str, change) -> str:
    e = json.loads(line)
    change(e)
    return json.dumps(e, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("at, change", [
    (0, lambda e: e["payload"].update(epochs=e["payload"]["epochs"] + 1)),
    (0, lambda e: e["payload"].update(epochs=e["payload"]["epochs"] - 1)),
    (0, lambda e: e["payload"].update(epochs=0)),
    (0, lambda e: e["payload"].update(lines=e["payload"]["lines"] + 1)),
    (0, lambda e: e["payload"].update(lines=e["payload"]["lines"] - 1)),
    (0, lambda e: e["payload"].update(net_total="1")),
    (0, lambda e: e["payload"].update(net_total=1)),
    (0, lambda e: e["payload"].pop("lines")),
    (0, lambda e: e.update(epoch=e["epoch"] + 1)),
    (0, lambda e: e.update(seq=e["seq"] + 1)),
    (1, lambda e: e.update(seq=e["seq"] + 1)),
    (1, lambda e: e.update(epoch=e["epoch"] - 1)),
    (-1, lambda e: e.update(epoch=e["epoch"] - 1)),
], ids=["epochs+1", "epochs-1", "epochs=0", "lines+1", "lines-1", "stride-not-an-int",
        "stride", "no-lines",
        "epoch+1", "seq+1", "next-seq+1", "next-epoch-overlaps", "epoch-before-split"])
def test_a_repeat_that_does_not_fit_the_lines_around_it_does_not_expand(at, change):
    # `at` picks the Repeat line (0), the line after it (1) or the line before it (-1).
    report = run_with_the_escrow_refunded()
    lines, i = lines_around_a_repeat(report)
    assert "".join(expand(lines)) == SteppedWorld(escrow_refunded()).run().events_jsonl
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
    lines, stepped = two_repeats_in_a_row()
    assert "".join(expand(lines)) == stepped
    i = max(i for i, line in enumerate(lines) if '"tag":"Repeat"' in line)
    assert '"tag":"Repeat"' in lines[i - 1]

    def one_more(e):
        (e if key == "seq" else e["payload"])[key] += 1

    lines[i] = changed(lines[i], one_more)
    with pytest.raises(ValueError):
        list(expand(lines))


@pytest.mark.parametrize("epochs, expands", [(2, True), (3, False)])
def test_a_repeat_ends_by_the_last_epoch_a_run_can_reach(epochs, expands):
    # One line at epoch HORIZON_MAX - 2, then a Repeat of it from the epoch
    # after: two epochs end on HORIZON_MAX, three would pass it.
    last = sc.scenario.HORIZON_MAX
    lines = [encode_lines([Event(last - 2, 0, "alice", "Note", {})])[0],
             f'{{"epoch":{last - 1},"seq":1,"emitter":"system","tag":"Repeat",'
             f'"payload":{{"epochs":{epochs},"lines":1}}}}\n']
    if expands:
        assert [json.loads(line)["epoch"] for line in expand(lines)] == [last - 2, last - 1, last]
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


@pytest.mark.parametrize("line", ["[1, 2]\n", "7\n", '{"epoch": 0}\n', "{not json\n",
                                  '{"epoch":"0","seq":0,"emitter":"a","tag":"b","payload":{}}\n'])
def test_a_line_that_is_not_a_log_line_does_not_expand(line):
    with pytest.raises(ValueError):
        list(expand([line]))
