"""An operator who stops performing, and the wallet that fires them.

The validator wallet watches its own reward stream. Eleven paid epochs
after activation the operator goes dark; once the trailing window holds
nothing but zeros, the wallet exits the validator itself, the principal
comes home, and the operator's escrow is paid out to holders as a
penalty. No message from the operator appears anywhere on that path.
"""

import stakeclaim as sc
from stakeclaim.explain import expand

scenario = sc.load_scenario(sc.golden_scenario_path("nonpaying"))
print("== TRIGGERED EXIT" + " =" * 25)
print(f"expected per epoch: {scenario.treasury.expected_reward_per_epoch}, "
      f"grace window: {scenario.treasury.grace_epochs} epochs")

report = sc.run(scenario)
events = [e._asdict() for e in expand(report.events_jsonl.splitlines())]

activation = next(e for e in events if e["tag"] == "Activated")
trigger = next(e for e in events if e["tag"] == "ExitTriggered")
settled = next(e for e in events if e["tag"] == "ExitSettled")

print(f"\nvalidator active at epoch {activation['epoch']}")
print(f"operator stops paying from epoch 13")
print(f"watchdog fires at epoch {trigger['epoch']}: window sum "
      f"{trigger['payload']['window_sum']} < threshold "
      f"{trigger['payload']['threshold']}")
print(f"settled at epoch {settled['epoch']}: principal "
      f"{settled['payload']['returned']:,} back, escrow penalty "
      f"{settled['payload']['penalty']:,} to holders")

print(f"\n{'holder':<8}{'capital':>16}{'final claimable':>18}{'delta':>12}")
for h in report.holders:
    print(f"{h.holder:<8}{h.capital:>16,}{h.claimable:>18,}"
          f"{h.claimable - h.capital:>+12,}")

operator_msgs = [e for e in events
                 if e["seq"] >= trigger["seq"] and e["emitter"] == "operator"]
print(f"\noperator-originated messages on the exit path: {len(operator_msgs)}")
assert not operator_msgs
