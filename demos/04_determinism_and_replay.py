"""The event log is the whole truth.

Two runs of the same scenario produce byte-identical logs, and the log
alone is enough to rebuild every balance and the supply totals, which
must equal the ledger's own minted and burned counters: total supply moves
only when the beacon mints rewards or a slash burns stake. A stretch of
quiet epochs is logged as one Repeat line; `expand`, the log's reader,
yields each event with its epoch and seq, a Repeat's events in full.
"""

import stakeclaim as sc
from stakeclaim.explain import expand
from stakeclaim.scenario import World

scenario = sc.load_scenario(sc.golden_scenario_path("slashed"))
print("== DETERMINISM AND REPLAY" + " =" * 20)

first = sc.run(scenario)
second = sc.run(scenario)
print(f"run 1 digest: {first.events_digest}")
print(f"run 2 digest: {second.events_digest}")
assert first.events_jsonl == second.events_jsonl
assert first.to_json() == second.to_json()
print("byte-identical: yes")

world = World(scenario)
report = world.run()
lines = report.events_jsonl.splitlines(keepends=True)
events = list(expand(lines))
replay = sc.replay_balances(events)

print(f"\nevents: {report.event_count} in {len(lines)} lines, minted {report.minted:,}, "
      f"burned {report.burned:,}")
mismatches = sum(
    1 for name in replay.balances
    if replay.balances[name] != world.ledger.balance_of(name))
print(f"balances rebuilt from the log alone: "
      f"{len(replay.balances)} accounts, {mismatches} mismatches")

led = world.ledger
print(f"supply rebuilt from the log: minted {replay.minted:,} "
      f"(ledger counter {led.minted_total:,}), burned {replay.burned:,} "
      f"(ledger counter {led.burned_total:,})")
assert (replay.minted, replay.burned) == (led.minted_total, led.burned_total)
slash = next(e for e in events if e.tag == "Slashed")
print(f"the slash shows up as a burn of "
      f"{slash.payload['burned']:,} at epoch {slash.epoch}")
