"""Record the reference values the correctness gate compares against.

    python3 bench/record.py --seeds 0-31

For each workload and each seed not yet in ``expected.json``, runs one
repetition and stores the sha256 of the report's economic fields and the
number of rejected scheduled actions. Seeds already recorded are checked,
never overwritten: a repetition that fails any check aborts the recording.
Record only from a commit whose reports are trusted, since later runs must
reproduce these values exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

from checks import EXPECTED_PATH, load_expected
from run import repetition
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    expected = load_expected()
    for name in WORKLOADS:
        recorded = expected.setdefault(name, {})
        for seed in range(lo, hi + 1):
            r = repetition(name, seed, "run")
            if r["problems"]:
                print(f"{name} seed {seed}: {r['problems']}", file=sys.stderr)
                return 1
            recorded.setdefault(str(seed), {"economic_sha256": r["economic_sha256"],
                                            "rejected": r["rejected"]})
            print(f"{name} seed {seed}: {recorded[str(seed)]}")
        expected[name] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
