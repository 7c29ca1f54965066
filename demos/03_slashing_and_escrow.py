"""Slashing: who eats the loss, and in what order.

A 5% slash at epoch 10 burns part of the stake and force-exits the
validator. The operator's escrow absorbs the shortfall first; whatever it
cannot cover lands on the holders pro-rata. A second run with a tiny
1-basis-point slash shows the escrow covering everything.
"""

from dataclasses import replace

import stakeclaim as sc
from stakeclaim.explain import expand
from stakeclaim.scenario import SlashAction

scenario = sc.load_scenario(sc.golden_scenario_path("slashed"))
print("== SLASHING AND ESCROW" + " =" * 22)

covered = replace(
    scenario,
    treasury=replace(scenario.treasury, escrow_required=5_000_000),
    slashes=(SlashAction(epoch=10, validator=0, fraction_bps=1),),
)

for label, s in (
    ("5% slash, escrow overwhelmed", scenario),
    ("1 bps slash, escrow covers it", covered),
):
    report = sc.run(s)
    events = [e._asdict() for e in expand(report.events_jsonl.splitlines())]
    slash = next(e for e in events if e["tag"] == "Slashed")
    v = report.validators[0]
    print(f"\n-- {label}")
    print(f"burned at the beacon: {slash['payload']['burned']:,}")
    print(f"principal returned:   {v.returned:,}")
    print(f"shortfall:            {v.shortfall:,}")
    print(f"escrow cover:         {v.escrow_cover:,}")
    for h in report.holders:
        print(f"  {h.holder:<6} capital {h.capital:>14,}  "
              f"settlement {h.settlement_credits:>14,}  "
              f"realized loss {h.realized_loss:>13,}")
    total_loss = sum(h.realized_loss for h in report.holders)
    print(f"holders bear {total_loss:,} of the {v.shortfall:,} shortfall; "
          f"escrow took {v.escrow_cover:,}")
