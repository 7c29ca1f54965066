"""Correctness gate applied to every benchmark repetition.

A report passes when

* the program's own conservation and log-replay checks hold;
* each validator exited, and was settled, exactly when the generated
  schedule says it must (operator offline -> "performance", slash ->
  "slashed", otherwise no exit);
* on workloads where credits follow a closed form (``Workload.pro_rata_exact``),
  an independent pro-rata oracle built from the generated inputs and the
  report alone, never the event log, matches every holder to the unit;
* for the seeds recorded in ``expected.json``, the report's economic fields
  (everything but ``event_count`` and ``events_digest``) and the number of
  rejected scheduled actions equal the recorded values. A deliberate change
  of the log format therefore does not trip this check.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import Workload

EXPECTED_PATH = Path(__file__).with_name("expected.json")
LOG_FIELDS = ("event_count", "events_digest")


def economic_digest(report: dict) -> str:
    """sha256 of the report's economic fields, independent of the log format."""
    econ = {k: v for k, v in report.items() if k not in LOG_FIELDS}
    return hashlib.sha256(json.dumps(econ, sort_keys=True).encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def report_problems(w: Workload, report: dict, rejected: int | None,
                    expected: dict | None) -> list[str]:
    """Every way `report` (a ``RunReport.to_dict()``) disagrees with `w`; empty if none.

    `rejected` is the run's count of rejected scheduled actions, or None
    when it was not counted; `expected` is ``load_expected()`` or None.
    """
    out = []
    cons = report["conservation"]
    if not cons["ok"]:
        out.append("conservation_ok is false")
    if not cons["replay_ok"]:
        out.append("replay_ok is false")
    for v in report["validators"]:
        j = v["index"]
        cause = ("performance" if j in w.drop_epochs
                 else "slashed" if j in w.slash_epochs else None)
        if v["exit_cause"] != cause or v["settled"] != (cause is not None):
            out.append(f"validator {j}: exit_cause {v['exit_cause']!r}, settled "
                       f"{v['settled']}; expected {cause!r}, {cause is not None}")
    if w.pro_rata_exact:
        out.extend(pro_rata_problems(w, report))
        if rejected:
            out.append(f"{rejected} scheduled actions rejected; expected none")
    recorded = (expected or {}).get(w.name, {}).get(str(w.seed))
    if recorded is not None:
        if economic_digest(report) != recorded["economic_sha256"]:
            out.append("economic fields differ from the recorded report")
        if rejected is not None and rejected != recorded["rejected"]:
            out.append(f"{rejected} rejected actions; recorded {recorded['rejected']}")
    return out


def pro_rata_problems(w: Workload, report: dict) -> list[str]:
    """Check every holder's credit against floor(N * C_i / S), summed over its tokens.

    N is everything distributed to holders: the rewards received net of the
    operator fee, plus each settlement (returned stake, escrow cover and
    penalty). Rewards, fees and settlements are rederived from the inputs
    and compared with the report before N is built from them.
    """
    doc = w.doc
    t, b = doc["treasury"], doc["beacon"]
    m, horizon = t["validators"], doc["horizon"]
    out = []

    active_from = max(d["epoch"] for d in doc["deposits"]) + b["activation_delay"]
    rewards = 0
    for v in report["validators"]:
        until = w.drop_epochs.get(v["index"], horizon + 1)
        want = b["reward_per_epoch"] * (until - active_from)
        if v["rewards_received"] != want:
            out.append(f"validator {v['index']}: rewards_received "
                       f"{v['rewards_received']} != {want}")
        rewards += want
    if rewards * t["fee_bps"] % 10_000:
        out.append("workload error: fees do not floor exactly")
    fees = rewards * t["fee_bps"] // 10_000
    if report["operator"]["fees_accrued"] != fees:
        out.append(f"operator fees {report['operator']['fees_accrued']} != {fees}")

    escrow = t["escrow_required"]
    settled = 0
    distributed = rewards - fees
    by_index = {v["index"]: v for v in report["validators"]}
    for j in sorted(w.drop_epochs, key=lambda j: (w.drop_epochs[j], j)):
        penalty = escrow // (m - settled)
        escrow -= penalty
        settled += 1
        v = by_index[j]
        got = (v["returned"], v["shortfall"], v["escrow_cover"], v["penalty"])
        if got != (b["stake_requirement"], 0, 0, penalty):
            out.append(f"validator {j}: settlement {got} != "
                       f"{(b['stake_requirement'], 0, 0, penalty)}")
        distributed += b["stake_requirement"] + penalty

    total_capital = sum(w.capitals)
    capital: dict[str, int] = {}
    credit: dict[str, int] = {}
    for c, owner in zip(w.capitals, w.owners):
        capital[owner] = capital.get(owner, 0) + c
        credit[owner] = credit.get(owner, 0) + distributed * c // total_capital
    claimers = {h for h, e in w.claims if e == horizon}
    names = {d["holder"] for d in doc["deposits"]}
    names.update(x for _, src, dst, _ in w.transfers for x in (src, dst))
    if sorted(names) != [h["holder"] for h in report["holders"]]:
        out.append("report lists other holders than the inputs")
    for h in report["holders"]:
        name = h["holder"]
        if h["capital"] != capital.get(name, 0):
            out.append(f"{name}: capital {h['capital']} != {capital.get(name, 0)}")
        want = credit.get(name, 0)
        if h["claimed"] + h["claimable"] != want:
            out.append(f"{name}: claimed {h['claimed']} + claimable "
                       f"{h['claimable']} != floor(N*C/S) = {want}")
        if name in claimers and h["claimable"]:
            out.append(f"{name}: claimed at the horizon but {h['claimable']} left")
    return out
