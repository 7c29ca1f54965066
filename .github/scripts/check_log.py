"""Check the shape of a run's events.jsonl from its JSON alone.

Usage: python check_log.py EVENTS_JSONL

Every line must be a header ``{"epoch":e}`` of a later epoch than the last
header, or an event line ``{"emitter","tag","payload"}`` with no epoch or
seq. A line the ledger writes holds the list of its tag's types by
position, each amount an int > 0; a TransferBatch holds two lists of one
length above one, of names and of amounts > 0; any other event's payload
is an object. Exits 1 naming the first line that breaks a rule, else 0.
Imports nothing of the package, so it checks the log as a reader would.
"""

import json
import sys

# The types, by position, of the payload of each line the ledger writes.
SHAPES = {"Call": (["str", "str"], ["str", "str", "int"]), "Transfer": (["str", "int"],),
          "SupplyMint": (["int", "str"],), "SupplyBurn": (["int", "str"],)}
# The position of the amount in each of those payloads, when it has one.
AMOUNT_AT = {"Call": 2, "Transfer": 1, "SupplyMint": 0, "SupplyBurn": 0}

last = -1
with open(sys.argv[1], encoding="utf-8") as log:
    for n, line in enumerate(log, 1):
        d = json.loads(line)
        keys = set(d)
        if keys == {"epoch"}:
            epoch = d["epoch"]
            if epoch <= last:
                sys.exit(f"line {n}: the header of epoch {epoch} follows epoch {last}")
            last = epoch
            continue
        if keys != {"emitter", "tag", "payload"}:
            sys.exit(f"line {n}: an event line with keys {sorted(keys)}")
        tag, p = d["tag"], d["payload"]
        if tag == "TransferBatch":
            ok = type(p) is list and len(p) == 2 and all(type(x) is list for x in p) \
                and len(p[0]) == len(p[1]) > 1 and all(type(to) is str for to in p[0]) \
                and all(type(amount) is int and amount > 0 for amount in p[1])
        elif tag in SHAPES:
            at = AMOUNT_AT[tag]
            ok = type(p) is list and [type(v).__name__ for v in p] in SHAPES[tag] \
                and (len(p) <= at or p[at] > 0)
        else:
            ok = type(p) is dict
        if not ok:
            sys.exit(f"line {n}: a {tag} line whose payload is {p!r:.80}")
