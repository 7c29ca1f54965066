"""The report is a fold of the log: ``explain.rebuild_report`` rebuilds every field.

The fold reads nothing but the log's lines and the horizon, and its
result must equal ``RunReport.to_dict()`` exactly, field for field. It
runs over the acceptance corpus with claims and resales added (as
``test_handler_purity`` does), over the three goldens as the CLI writes
them, and over one scenario built to reach every path of the credit trail.
It folds the log written out (``explain.expand``), which refuses a
``Repeat`` line that does not fit the lines around it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import stakeclaim as sc
from stakeclaim.cli import main as cli_main
from stakeclaim.explain import expand, rebuild_report
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

GOLDEN = Path(__file__).parent / "golden"


def assert_rebuilt(report) -> None:
    """The fold of `report`'s log is `report`, naming the first field that differs."""
    got = rebuild_report(report.events_jsonl.splitlines(keepends=True), report.horizon)
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
        assert rebuild_report(log, frozen["horizon"]) == frozen


def test_the_fold_rebuilds_every_corpus_report():
    rng = random.Random(CORPUS_SEED)
    corpus = [random_scenario(rng) for _ in range(CORPUS_SIZE)]
    extras = random.Random(CORPUS_SEED + 1)
    seen = {"TransferNft": 0, "Claimed": 0, "ActionRejected": 0, "Slashed": 0,
            "ExitTriggered": 0, "ExitSettled": 0}
    statuses = set()
    for s in corpus:
        report = sc.run(with_claims_and_transfers(s, extras))
        assert_rebuilt(report)
        for tag in seen:
            seen[tag] += report.events_jsonl.count(f'"tag":"{tag}"')
        statuses.update(v.beacon_status for v in report.validators)
    # Every path of the fold was taken, none vacuously.
    assert min(seen.values()) > 0, seen
    assert {"Active", "Exiting", "Withdrawn"} <= statuses


def resales_claims_and_both_exit_causes() -> sc.Scenario:
    # Tokens change hands before and after claims; one validator is
    # slashed, the other exits for performance; a claim and a resale are
    # rejected. (The recipient of a rejected resale is not logged, so it
    # goes to a holder the log names elsewhere.)
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
                       NftTransferAction(1, "bob", "carol", 10),
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
    assert {h.holder for h in report.holders} == {"alice", "bob", "carol", "erin"}
    assert_rebuilt(report)


def test_an_exit_due_but_not_yet_swept_reads_withdrawable():
    # Sweeps run every other epoch: the run ends on the epoch the exit
    # falls due, before the sweep that pays it out.
    s = small_scenario(beacon=sc.BeaconParams(stake_requirement=6400, reward_per_epoch=100,
                                              activation_delay=1, exit_delay=3,
                                              sweep_period=2),
                       slashes=(SlashAction(epoch=10, validator=0, fraction_bps=500),),
                       horizon=13)
    report = sc.run(s)
    assert report.validators[0].beacon_status == "Withdrawable"
    assert_rebuilt(report)


@pytest.mark.parametrize("tag", ["SupplyMint", "Call"])
@pytest.mark.parametrize("name", ["wallet:7", *sorted(RESERVED), "dave"])
def test_validate_and_the_fold_agree_on_who_is_a_holder(name, tag):
    # validate rejects a holder name exactly when the fold does not count a
    # name its log endows or sees calling as a holder's.
    s = small_scenario(deposits=(*small_scenario().deposits, DepositAction(name, 1, 0)))
    rejected = any(p.startswith("deposits[2].holder ") for p in validate(s))
    payload = ({"to": name, "amount": 1, "memo": "m"} if tag == "SupplyMint"
               else {"caller": name, "target": MINT, "method": "mint"})
    rebuilt = rebuild_report(encode_lines([Event(0, 0, name, tag, payload)]), 0)
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
    report = sc.run(small_scenario(deposits=(DepositAction("alice", 4000, 0),)))
    assert report.phase == "Fundraising" and '"tag":"MintAborted"' in report.events_jsonl
    return report


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


@pytest.mark.parametrize("run,tag,key", [
    (run_with_resales_claims_and_both_exit_causes, "Claimed", "amount"),
    (run_with_resales_claims_and_both_exit_causes, "EscrowPosted", "total"),
    (run_with_resales_claims_and_both_exit_causes, "Distributed", "fee"),
    # A refund or a fee claim must be taken off the balance, not zero it.
    (run_with_the_escrow_refunded, "EscrowPosted", "total"),
    (run_with_the_operator_fees_claimed, "OperatorFeesClaimed", "amount"),
    # The principal raised must be what is staked, or what is refunded.
    (run_with_resales_claims_and_both_exit_causes, "Mint", "capital"),
    (run_with_resales_claims_and_both_exit_causes, "Staked", "validators"),
    (run_with_the_mint_aborted, "Mint", "capital"),
    # Each Distributed raises N by its amount less its fee, repeated ones too.
    (run_with_resales_claims_and_both_exit_causes, "Distributed", "net_total"),
    (run_with_the_escrow_refunded, "Repeat", "net_total"),
], ids=["Claimed.amount", "EscrowPosted.total", "Distributed.fee",
        "EscrowPosted.total-refunded", "OperatorFeesClaimed.amount", "Mint.capital",
        "Staked.validators", "Mint.capital-aborted", "Distributed.net_total",
        "Repeat.net_total"])
def test_one_unit_added_to_an_amount_the_fold_reads_fails_replay_ok(run, tag, key):
    # The treasury's replayed balance must be what the rebuilt state says
    # it holds, so the first such line, one unit off, breaks replay_ok.
    report = run()
    lines = report.events_jsonl.splitlines(keepends=True)
    assert rebuild_report(lines, report.horizon)["conservation"]["replay_ok"]
    i = next(i for i, line in enumerate(lines) if f'"tag":"{tag}"' in line)
    e = json.loads(lines[i])
    e["payload"][key] += 1
    lines[i] = encode_lines([Event(**e)])[0]
    assert not rebuild_report(lines, report.horizon)["conservation"]["replay_ok"]


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
    (0, lambda e: e.update(epoch=e["epoch"] + 1)),
    (0, lambda e: e.update(seq=e["seq"] + 1)),
    (1, lambda e: e.update(seq=e["seq"] + 1)),
    (1, lambda e: e.update(epoch=e["epoch"] - 1)),
    (-1, lambda e: e.update(epoch=e["epoch"] - 1)),
], ids=["epochs+1", "epochs-1", "epochs=0", "lines+1", "lines-1", "stride-not-an-int",
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
        rebuild_report(lines, report.horizon)


@pytest.mark.parametrize("line", ["[1, 2]\n", "7\n", '{"epoch": 0}\n', "{not json\n",
                                  '{"epoch":"0","seq":0,"emitter":"a","tag":"b","payload":{}}\n'])
def test_a_line_that_is_not_a_log_line_does_not_expand(line):
    with pytest.raises(ValueError):
        list(expand([line]))
