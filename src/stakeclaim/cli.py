"""Command-line front door.

Three subcommands::

    stakeclaim run --scenario PATH --out DIR [--format json|csv] [--epochs N]
    stakeclaim validate --scenario PATH
    stakeclaim explain --events FILE [--expand]

``run`` writes report.json (or report.csv) plus events.jsonl into the
output directory, which it creates before the run. Exit codes: 0 success,
1 invalid input or usage, or an output directory that cannot be written
(one line on stderr), 2 an invariant violation was detected during the run
(details on stderr); on exit 2 events.jsonl holds the log committed up to
the failing epoch's audit, and there is no report.json or report.csv.
events.jsonl is copied from the log file the ledger wrote as the run went,
and so is the log on stdout: neither holds the whole log in memory.
Both commands list a scenario's problems one a line, the same lines:
``validate`` on stdout, ``run`` on stderr, each with what the locale
cannot encode escaped. Output is byte-stable for
identical inputs.

``explain`` verifies a run from its log alone: it prints the report
rebuilt from an events.jsonl (``explain.rebuild``), byte for byte the
report.json the run wrote, and exits 0 when the rebuilt
``conservation.ok`` and ``replay_ok`` both hold and the log ends with its
``End`` line, 2 otherwise. A log without its ``End`` line, such as the
evidence of an exit 2 run, prints the report of the run cut at its last
line, and "incomplete log" on stderr.
``explain --expand`` prints the log's events instead, one a line with its
epoch and seq (``explain.event_lines``), each ``Repeat`` line's, a segment
of quiet epochs, written out in full: the events of stepping every epoch.
It streams. On an unreadable or inconsistent log
either stops there and exits 1 with one line on stderr. A reader that
closes stdout early (``| head``) ends it quietly, with exit 0.

The STAKECLAIM_LOG environment variable controls stdout verbosity:
``quiet`` (default) prints nothing on success, ``events`` streams the
event log, as events.jsonl is written, once the run has finished,
``trace`` additionally prints the report.
Any other value is invalid input: ``run`` exits 1 before it starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import InvalidScenario, InvariantViolation, bound_problems
from .explain import event_lines, rebuild
from .ledger import LogText
from .scenario import Scenario, World, load_scenario, validate


def _load_checked(path: str) -> tuple[Scenario | None, list[str]]:
    """The scenario file at `path` and its problems: the document's shape
    as the loader raises it (and no scenario), or else :func:`validate`'s."""
    try:
        scenario = load_scenario(path)
    except InvalidScenario as exc:
        return None, list(exc.problems)
    return scenario, validate(scenario)


def _write_log(path: Path, log: LogText) -> None:
    with path.open("wb") as f:
        f.writelines(log.blocks())


def cmd_run(args: argparse.Namespace) -> int:
    log_mode = os.environ.get("STAKECLAIM_LOG", "quiet")
    if log_mode not in ("quiet", "events", "trace"):
        print(f"STAKECLAIM_LOG must be quiet, events or trace, got {log_mode!r}", file=sys.stderr)
        return 1
    scenario, violations = _load_checked(args.scenario)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return 1
    if args.epochs is not None:
        scenario = replace(scenario, horizon=args.epochs)
        if problems := bound_problems(scenario, ""):    # horizon: the one bounded field
            print(f"--epochs: {problems['horizon']}", file=sys.stderr)
            return 1
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)          # before the run, which may be long
        world = World(scenario)
        try:
            report = world.run()
        except InvariantViolation as exc:
            print(f"invariant violation: {exc}", file=sys.stderr)
            # The evidence: the log up to the failing audit, and no report.
            _write_log(out / "events.jsonl", world.ledger.log_text())
            for stale in ("report.json", "report.csv"):
                (out / stale).unlink(missing_ok=True)
            return 2
        _write_log(out / "events.jsonl", report.log)
        text = report.to_csv() if args.format == "csv" else report.to_json()
        (out / f"report.{args.format}").write_text(text, encoding="utf-8")
    except OSError as exc:      # --out is not a directory we can write; the run raises none
        print(f"--out: {exc}", file=sys.stderr)
        return 1

    if log_mode in ("events", "trace"):
        sys.stdout.writelines(report.log.chunks())
    if log_mode == "trace":
        sys.stdout.write(report.to_json())
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    _, violations = _load_checked(args.scenario)
    # A problem quotes the value it rejects: what the locale cannot encode
    # is escaped, as on stderr, not a UnicodeEncodeError.
    encoding = sys.stdout.encoding or "utf-8"
    for v in violations:
        print(v.encode(encoding, "backslashreplace").decode(encoding))
    return 0 if not violations else 1


def cmd_explain(args: argparse.Namespace) -> int:
    code = 0
    try:
        with open(args.events, encoding="utf-8", newline="") as log:
            if args.expand:
                sys.stdout.writelines(event_lines(log))
            else:
                report, ended = rebuild(log)
                checks = report["conservation"]
                code = 0 if checks["ok"] and checks["replay_ok"] and ended else 2
                sys.stdout.write(json.dumps(report, indent=2) + "\n")    # as RunReport.to_json
                if not ended:
                    print(f"incomplete log: no End line; folded as the run cut at epoch "
                          f"{report['final_epoch']}", file=sys.stderr)
    except BrokenPipeError:     # the reader closed stdout, as `| head` does: stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (OSError, ValueError) as exc:     # a decode error is a ValueError
        print(f"--events: {exc}", file=sys.stderr)
        return 1
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):   # invalid input: exit 1, as 2 is an invariant violation
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stakeclaim",
        description="Run and validate staking-arrangement scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and write outputs")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (events are always JSON lines)")
    p_run.add_argument("--epochs", type=int, default=None,
                       help="override the scenario horizon (e.g. truncate the run)")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="list scenario constraint violations")
    p_val.add_argument("--scenario", required=True, help="scenario JSON file")
    p_val.set_defaults(func=cmd_validate)

    p_exp = sub.add_parser("explain", help="verify a run's event log and print its report")
    p_exp.add_argument("--events", required=True, help="events.jsonl of a run")
    p_exp.add_argument("--expand", action="store_true",
                       help="print the log's events instead, each with its epoch and seq, "
                            "each Repeat line's written out in full")
    p_exp.set_defaults(func=cmd_explain)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
