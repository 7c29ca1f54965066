"""Command-line interface: exit codes, output files, golden regression."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stakeclaim as sc
from conftest import SteppedWorld, expanded, json_values, one_field_replaced
from stakeclaim.cli import main
from stakeclaim.errors import InvariantViolation
from stakeclaim.explain import rebuild, rebuild_report
from stakeclaim.scenario import ClaimAction, NftTransferAction, World

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestRun:
    @pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
    def test_golden_reports_frozen(self, name, tmp_path):
        code = run_cli("run", "--scenario", str(sc.golden_scenario_path(name)),
                       "--out", str(tmp_path / name))
        assert code == 0
        produced = (tmp_path / name / "report.json").read_text()
        frozen = (GOLDEN_DIR / name / "report.json").read_text()
        assert produced == frozen
        events = (tmp_path / name / "events.jsonl").read_text()
        digest = json.loads(frozen)["events_digest"]
        assert hashlib.sha256(events.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
    def test_golden_files_do_not_depend_on_the_hash_seed(self, name, tmp_path):
        # str hashes, and with them the layout of every set and dict, differ
        # from one PYTHONHASHSEED to the next; the files a run writes may not.
        src = Path(sc.__file__).resolve().parent.parent
        frozen = (GOLDEN_DIR / name / "report.json").read_text()
        for seed in ("1", "2"):
            out = tmp_path / seed
            subprocess.run([sys.executable, "-m", "stakeclaim.cli", "run", "--scenario",
                            str(sc.golden_scenario_path(name)), "--out", str(out)],
                           env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
                           check=True, timeout=120)
            assert (out / "report.json").read_text() == frozen
            events = (out / "events.jsonl").read_bytes()
            assert hashlib.sha256(events).hexdigest() == json.loads(frozen)["events_digest"]

    def test_byte_stable_across_runs(self, tmp_path):
        scenario = str(sc.golden_scenario_path("honest"))
        assert run_cli("run", "--scenario", scenario, "--out", str(tmp_path / "a")) == 0
        assert run_cli("run", "--scenario", scenario, "--out", str(tmp_path / "b")) == 0
        for fname in ("report.json", "events.jsonl"):
            assert (tmp_path / "a" / fname).read_bytes() \
                == (tmp_path / "b" / fname).read_bytes()

    def test_epochs_override_truncates(self, tmp_path):
        scenario = str(sc.golden_scenario_path("honest"))
        code = run_cli("run", "--scenario", scenario, "--out", str(tmp_path),
                       "--epochs", "10")
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["final_epoch"] == 10

    def test_malformed_file_exit_1_no_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", str(bad), "--out", str(out)) == 1
        assert not out.exists()

    def test_out_that_cannot_be_a_directory_exit_1_before_the_run(self, tmp_path, capsys,
                                                                   monkeypatch):
        out = tmp_path / "out"
        out.write_text("a file")
        runs = []
        monkeypatch.setattr(World, "run", lambda world: runs.append(world))
        assert run_cli("run", "--scenario", str(sc.golden_scenario_path("honest")),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert runs == [] and out.read_text() == "a file"

    def test_output_file_that_cannot_be_written_exit_1(self, tmp_path, capsys):
        (tmp_path / "events.jsonl").mkdir()
        assert run_cli("run", "--scenario", str(sc.golden_scenario_path("honest")),
                       "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "events.jsonl" in err

    def test_claims_and_resales_in_a_file_report_as_in_code(self, tmp_path):
        # A claim each, a resale, and a resale by a seller who no longer owns
        # the token, which the mint rejects.
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["claims"] = [{"holder": "alice", "epoch": 40}, {"holder": "carol", "epoch": 90}]
        doc["nft_transfers"] = [
            {"token_id": 1, "from_holder": "bob", "to": "carol", "epoch": 30},
            {"token_id": 1, "from_holder": "bob", "to": "dave", "epoch": 60}]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        s = replace(sc.load_scenario(sc.golden_scenario_path("honest")),
                    claims=(ClaimAction("alice", 40), ClaimAction("carol", 90)),
                    nft_transfers=(NftTransferAction(1, "bob", "carol", 30),
                                   NftTransferAction(1, "bob", "dave", 60)))
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out")) == 0
        expected = sc.run(s)
        assert (tmp_path / "out" / "report.json").read_text() == expected.to_json()
        assert expected.events_jsonl.count('"tag":"ActionRejected"') == 1
        assert [h.holder for h in expected.holders if h.capital] == ["alice", "carol"]
        # dave is named only as the recipient of the rejected resale, which the log records.
        assert "dave" in {h.holder for h in expected.holders}
        with open(tmp_path / "out" / "events.jsonl", encoding="utf-8", newline="") as log:
            assert rebuild_report(log) == expected.to_dict()

    def test_invalid_scenario_exit_1(self, tmp_path):
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["treasury"]["fee_bps"] = 20_000
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", str(bad), "--out", str(out)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("section,index,key,value", [
        # ran to exit 0 with a float operator fee total (19800.0)
        ("treasury", None, "fee_bps", 1000.5),
        # ended in a TypeError traceback
        ("deposits", 0, "amount", "40000000000"),
        # ended in UnknownContract: wallet:0.0
        ("slashes", 0, "validator", 0.0),
        ("treasury", None, "validators", True),
    ])
    def test_mistyped_integer_field_exit_1(self, section, index, key, value,
                                           tmp_path, capsys):
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["slashes"] = [{"epoch": 10, "validator": 0, "fraction_bps": 500}]
        target = doc[section] if index is None else doc[section][index]
        target[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", str(bad), "--out", str(out)) == 1
        assert not out.exists()
        where = section if index is None else f"{section}[{index}]"
        assert f"{where}.{key} {value!r} is not an integer" \
            in capsys.readouterr().err

    def test_every_type_violation_listed(self, tmp_path, capsys):
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["treasury"]["fee_bps"] = 1000.5
        doc["deposits"][1]["epoch"] = "0"
        doc["horizon"] = 30.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", "--scenario", str(bad)) == 1
        out = capsys.readouterr().out
        for field in ("treasury.fee_bps", "deposits[1].epoch", "horizon"):
            assert field in out

    def test_huge_factor_exponent_exit_1_quickly(self, tmp_path, capsys):
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["operator_schedule"] = [{"from_epoch": 0, "factor": "1e-999999999"}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 1
        assert time.perf_counter() - t0 < 1
        assert "decimal exponent outside -400..400" in capsys.readouterr().err

    def test_sweep_period_beyond_the_watchdog_window_exit_1(self, tmp_path, capsys):
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["beacon"]["sweep_period"] = 6
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("validate", "--scenario", str(bad)) == 1
        assert run_cli("run", "--scenario", str(bad), "--out", str(out)) == 1
        assert not out.exists()
        assert "beacon.sweep_period 6 is more than treasury.grace_epochs 5" \
            in capsys.readouterr().err.splitlines()

    def test_validator_count_above_the_bound_exit_1_quickly(self, tmp_path, capsys):
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["treasury"]["validators"] = 10 ** 9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert run_cli("validate", "--scenario", str(bad)) == 1
        assert run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 1
        assert time.perf_counter() - t0 < 1
        listed = capsys.readouterr()
        for listing in (listed.out, listed.err):
            assert f"treasury.validators 1000000000 is not an integer in " \
                f"1..{sc.treasury.VALIDATORS_MAX}" in listing.splitlines()

    def test_horizon_above_the_bound_exit_1_quickly(self, tmp_path, capsys):
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["horizon"] = 10 ** 9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert run_cli("validate", "--scenario", str(bad)) == 1
        assert run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 1
        assert time.perf_counter() - t0 < 1
        listed = capsys.readouterr()
        for listing in (listed.out, listed.err):
            assert f"horizon 1000000000 is not an integer in " \
                f"0..{sc.scenario.HORIZON_MAX}" in listing.splitlines()

    # Each value parses (at most 4,300 digits, CPython's default limit on
    # converting between int and str), but a sum the run logs would pass
    # that limit: the run ended in a traceback from the log's encoder after
    # validate had passed the file. Every amount and delay is a uint256.
    @pytest.mark.parametrize("name,field,value", [
        ("honest", "beacon.reward_per_epoch", 9 * 10 ** 4299),
        # two more deposits: alice's endowment is their sum
        ("honest", "deposits.amount", 9 * 10 ** 4299),
        # the slashed validator's exit epoch is the slash's epoch plus the delay
        ("slashed", "beacon.exit_delay", 10 ** 4300 - 1),
    ], ids=["reward", "deposits", "exit-delay"])
    def test_a_value_whose_logged_sum_has_too_many_digits_exit_1(self, name, field, value,
                                                                 tmp_path, capsys):
        doc = json.loads(sc.golden_scenario_path(name).read_text())
        section, key = field.split(".")
        if section == "deposits":
            doc["deposits"] += [{"holder": "alice", "amount": value, "epoch": 0}] * 2
            records = ["deposits[2]", "deposits[3]"]
        else:
            doc[section][key] = value
            records = [section]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("validate", "--scenario", str(bad)) == 1
        assert run_cli("run", "--scenario", str(bad), "--out", str(out)) == 1
        assert not out.exists()
        listed = capsys.readouterr()
        assert listed.out.splitlines() == listed.err.splitlines() == [
            f"{r}.{key} {value} is not an integer in 1..{2 ** 256 - 1}" for r in records]

    @pytest.mark.parametrize("epochs,problem", [
        (-1, f"horizon -1 is not an integer in 0..{sc.scenario.HORIZON_MAX}"),
        (sc.scenario.HORIZON_MAX + 1, f"horizon {sc.scenario.HORIZON_MAX + 1} is not an "
                                      f"integer in 0..{sc.scenario.HORIZON_MAX}"),
    ], ids=["negative", "above-the-bound"])
    def test_epochs_override_outside_the_bounds_exit_1(self, epochs, problem,
                                                        tmp_path, capsys):
        out = tmp_path / "o"
        t0 = time.perf_counter()
        assert run_cli("run", "--scenario", str(sc.golden_scenario_path("honest")),
                       "--out", str(out), "--epochs", str(epochs)) == 1
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr().err == f"--epochs: {problem}\n"
        assert not out.exists()

    def test_invariant_violation_exit_2_leaves_the_log_so_far(self, tmp_path, capsys,
                                                             monkeypatch):
        scenario = str(sc.golden_scenario_path("honest"))
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", scenario, "--out", str(out)) == 0
        clean = (out / "events.jsonl").read_bytes()
        k = 6       # a stepped epoch: the audit runs at it, not inside a segment
        audit = World.audit

        def audit_failing_at_k(world):
            audit(world)
            if world.ledger.epoch == k:
                raise InvariantViolation(f"epoch {k}: planted")

        monkeypatch.setattr(World, "audit", audit_failing_at_k)
        assert run_cli("run", "--scenario", scenario, "--out", str(out)) == 2
        assert f"invariant violation: epoch {k}: planted" in capsys.readouterr().err
        partial = (out / "events.jsonl").read_bytes()
        assert 0 < len(partial) < len(clean) and clean.startswith(partial)
        headers = [line for line in partial.splitlines() if line.startswith(b'{"epoch":')]
        assert json.loads(headers[-1]) == {"epoch": k}
        # The full run went on with a segment of epoch k's block, from k + 1.
        assert json.loads(clean[len(partial):].splitlines()[0]) \
            == {"emitter": "system", "tag": "Repeat", "payload": {"epochs": 100 - k}}
        assert not (out / "report.json").exists()
        # The evidence folds: past its terms, which state the horizon the run
        # was to reach, the log so far is the log of the run cut at k, but
        # for the End line that only a report writes. It rebuilds the cut
        # run's report from its own Genesis line, with the horizon it states.
        monkeypatch.setattr(World, "audit", audit)
        cut = World(replace(sc.load_scenario(scenario), horizon=k)).run()
        _, terms, *rest = partial.decode().splitlines(keepends=True)
        _, cut_terms, *cut_rest, end = cut.events_jsonl.splitlines(keepends=True)
        assert rest == cut_rest and json.loads(terms)["payload"]["horizon"] == 100
        assert json.loads(end)["tag"] == "End"
        report, ended = rebuild(partial.decode().splitlines(keepends=True))
        assert not ended
        assert report == {**cut.to_dict(), "horizon": 100, "event_count": cut.event_count - 1,
                          "events_digest": hashlib.sha256(partial).hexdigest()}
        # stakeclaim explain prints it, and exits 2: the log is incomplete.
        capsys.readouterr()
        assert run_cli("explain", "--events", str(out / "events.jsonl")) == 2
        printed = capsys.readouterr()
        assert json.loads(printed.out) == report
        assert printed.err == f"incomplete log: no End line; folded as the run cut at epoch {k}\n"

    def test_undecodable_file_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("where, repeated", [
        ("", '"horizon": 30, '),
        ('"treasury": ', '"fee_bps": 0, '),
    ], ids=["top-level", "nested"])
    def test_a_repeated_key_exit_1_naming_it(self, where, repeated, tmp_path, capsys):
        # json keeps a repeated key's last value: the first would be read
        # past, and a run would go on to the other horizon or fee.
        text = sc.golden_scenario_path("honest").read_text(encoding="utf-8")
        dup = tmp_path / "dup.json"
        dup.write_text(text.replace(where + "{", where + "{" + repeated, 1), encoding="utf-8")
        key = repeated.split('"')[1]
        assert run_cli("validate", "--scenario", str(dup)) == 1
        assert f"key {key!r} repeats" in capsys.readouterr().out
        assert run_cli("run", "--scenario", str(dup), "--out", str(tmp_path / "o")) == 1
        assert f"key {key!r} repeats" in capsys.readouterr().err
        assert not (tmp_path / "o" / "events.jsonl").exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_files_are_utf8_whatever_the_locale(self, fmt, tmp_path):
        # Under the C locale, with neither locale coercion nor UTF-8 mode,
        # Python's default encoding is ASCII: a holder named alicé must
        # still be read, and written to report.csv, in UTF-8.
        text = sc.golden_scenario_path("honest").read_text(encoding="utf-8")
        scenario = tmp_path / "accented.json"
        scenario.write_text(text.replace('"alice"', '"alicé"'), encoding="utf-8")
        src = Path(sc.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "stakeclaim.cli", "run", "--scenario",
             str(scenario), "--out", str(tmp_path / "o"), "--format", fmt],
            env={**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C",
                 "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": ""},
            capture_output=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, b"")
        report = sc.run(sc.load_scenario(scenario))
        assert "alicé" in [h.holder for h in report.holders]
        written = report.to_csv() if fmt == "csv" else report.to_json()
        assert (tmp_path / "o" / f"report.{fmt}").read_bytes() == written.encode("utf-8")

    def test_csv_format(self, tmp_path):
        # Every row of report.csv is a holder of the golden report.json.
        for name in sc.GOLDEN_SCENARIOS:
            out = tmp_path / name
            code = run_cli("run", "--scenario", str(sc.golden_scenario_path(name)),
                           "--out", str(out), "--format", "csv")
            assert code == 0
            holders = json.loads((GOLDEN_DIR / name / "report.json").read_text())["holders"]
            assert holders
            assert (out / "report.csv").read_text() == "".join(
                ["holder_id,capital,claimed_total,final_credit,realized_loss\n"]
                + [f"{h['holder']},{h['capital']},{h['claimed']},{h['claimable']},"
                   f"{h['realized_loss']}\n" for h in holders])
            assert not (out / "report.json").exists()

    def test_events_log_mode_streams(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STAKECLAIM_LOG", "events")
        run_cli("run", "--scenario", str(sc.golden_scenario_path("nonpaying")),
                "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert out == (tmp_path / "events.jsonl").read_text()

    def test_trace_log_mode_prints_the_log_then_the_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STAKECLAIM_LOG", "trace")
        assert run_cli("run", "--scenario", str(sc.golden_scenario_path("nonpaying")),
                       "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert out.encode() == ((tmp_path / "events.jsonl").read_bytes()
                                + (tmp_path / "report.json").read_bytes())

    @pytest.mark.parametrize("mode", ["event", "Trace", ""])
    def test_an_unknown_log_mode_exits_1_before_the_run(self, mode, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setenv("STAKECLAIM_LOG", mode)
        runs = []
        monkeypatch.setattr(World, "run", lambda world: runs.append(world))
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", str(sc.golden_scenario_path("honest")),
                       "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and runs == [] and not out.exists()
        assert captured.err == f"STAKECLAIM_LOG must be quiet, events or trace, got {mode!r}\n"

    def test_quiet_mode_prints_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("STAKECLAIM_LOG", raising=False)
        run_cli("run", "--scenario", str(sc.golden_scenario_path("nonpaying")),
                "--out", str(tmp_path))
        assert capsys.readouterr().out == ""


class TestUsageErrors:
    """A usage error is invalid input: exit 1, never argparse's 2, which
    here means an invariant violation."""

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "{scenario}", "--out", "{out}", "--bogus", "1"],
        ["run", "--scenario", "{scenario}"],
        ["run", "--scenario", "{scenario}", "--out", "{out}", "--seed", "3"],
        ["run", "--scenario", "{scenario}", "--out", "{out}", "--epochs", "ten"],
        [],
        ["explain", "--expand"],
    ], ids=["unknown-flag", "missing-out", "removed-seed", "non-integer-epochs",
            "no-command", "explain-without-events"])
    def test_usage_error_exits_1(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        scenario = str(sc.golden_scenario_path("honest"))
        with pytest.raises(SystemExit) as info:
            run_cli(*(a.format(scenario=scenario, out=out) for a in argv))
        assert info.value.code == 1
        assert "usage: stakeclaim" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("run", "--help")
        assert info.value.code == 0
        assert "--seed" not in capsys.readouterr().out


malformed_files = st.one_of(
    # a golden document with one place replaced by arbitrary JSON
    one_field_replaced().map(lambda doc: json.dumps(doc).encode()),
    # a top level that is not an object
    json_values.filter(lambda v: not isinstance(v, dict)).map(
        lambda v: json.dumps(v).encode()),
    # bytes that are not UTF-8
    st.binary(max_size=32).map(lambda b: b"\xff" + b),
)


class TestExitCodeProperty:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=malformed_files)
    def test_any_malformed_file_exits_0_or_1(self, raw, tmp_path):
        # Each example overwrites the same file and output directory.
        path = tmp_path / "scenario.json"
        path.write_bytes(raw)
        code = run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                       "--epochs", "20")
        assert code in (0, 1)


class TestValidateCommand:
    def test_clean_scenario_exit_0(self, capsys):
        assert run_cli("validate", "--scenario",
                       str(sc.golden_scenario_path("honest"))) == 0
        assert capsys.readouterr().out == ""

    def test_violations_listed_exit_1(self, tmp_path, capsys):
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["treasury"]["fee_bps"] = 20_000
        doc["slashes"] = [{"epoch": 3, "validator": 9, "fraction_bps": 1}]
        doc["mint"]["open_epoch"] = 5        # a cross-field rule: after close_epoch
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", "--scenario", str(bad)) == 1
        assert capsys.readouterr().out.splitlines() == [
            "treasury.fee_bps 20000 is not an integer in 0..10000",
            "slashes[0].validator 9 is not an integer in 0..1",
            "mint window invalid: open 5, close 2"]

    def test_shape_problems_listed_on_stdout_exit_1(self, tmp_path, capsys):
        # A document of the wrong shape is listed like any other: one
        # problem a line, on stdout, the bound problems of what parsed included.
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["treasury"]["bonus"] = 1
        doc["deposits"].append("alice")
        doc["horizon"] = 30.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", "--scenario", str(bad)) == 1
        listed = capsys.readouterr()
        assert listed.err == ""
        assert listed.out.splitlines() == [
            "unknown keys in treasury: ['bonus']",
            "deposits[2] must be an object",
            f"horizon 30.0 is not an integer in 0..{sc.scenario.HORIZON_MAX}"]

    def test_shape_problems_listed_on_stderr_by_run_exit_1(self, tmp_path, capsys):
        # run lists a document of the wrong shape as validate does, one
        # problem a line, on stderr, and writes nothing.
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["treasury"]["bonus"] = 1
        doc["deposits"].append("alice")
        doc["horizon"] = 30.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("validate", "--scenario", str(bad)) == 1
        validated = capsys.readouterr().out
        assert run_cli("run", "--scenario", str(bad), "--out", str(out)) == 1
        listed = capsys.readouterr()
        assert not out.exists()
        assert listed.out == ""
        assert listed.err == validated
        assert listed.err.splitlines() == [
            "unknown keys in treasury: ['bonus']",
            "deposits[2] must be an object",
            f"horizon 30.0 is not an integer in 0..{sc.scenario.HORIZON_MAX}"]

    def test_a_problem_the_locale_cannot_encode_is_listed_exit_1(self, tmp_path):
        # Under the C locale, with neither locale coercion nor UTF-8 mode,
        # stdout is ASCII: the problem quoting "é" is still its one line.
        doc = json.loads(sc.golden_scenario_path("honest").read_text())
        doc["horizon"] = "é"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        src = Path(sc.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "stakeclaim.cli", "validate", "--scenario",
             str(bad)],
            env={**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C",
                 "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": ""},
            capture_output=True, timeout=120)
        assert (done.returncode, done.stderr) == (1, b"")
        assert done.stdout.decode("ascii").splitlines() == [
            f"horizon '\\xe9' is not an integer in 0..{sc.scenario.HORIZON_MAX}"]

    def test_unreadable_file_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run_cli("validate", "--scenario", str(missing)) == 1
        listed = capsys.readouterr()
        assert listed.err == ""
        assert [line.startswith(f"cannot read scenario {missing}: ")
                for line in listed.out.splitlines()] == [True]


# sha256 of each golden's log as stepping writes it, every line in full:
# what `stakeclaim explain --expand` prints for the log the run wrote.
STEPPED_DIGESTS = {
    "honest": "52df641ac48fc8a94412d664226b224c64d9a71633d075f4168643d3a8b74a51",
    "nonpaying": "172ee5aacd0f464e913cc50fe7110144b8d306f18e3359ebb4bb4833ce0d2c62",
    "slashed": "756fb0c19717f1a7297aea3d126d1b08acdc07dbe5a0e922cf1f4323484fce48",
}


class TestExplainCommand:
    @pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
    def test_expand_prints_the_stepped_log(self, name, tmp_path, capsys):
        assert run_cli("run", "--scenario", str(sc.golden_scenario_path(name)),
                       "--out", str(tmp_path)) == 0
        log = (tmp_path / "events.jsonl").read_text()
        assert '"tag":"Repeat"' in log
        capsys.readouterr()
        assert run_cli("explain", "--events", str(tmp_path / "events.jsonl"), "--expand") == 0
        printed = capsys.readouterr()
        assert printed.err == ""
        assert printed.out == expanded(
            SteppedWorld(sc.load_scenario(sc.golden_scenario_path(name))).run().events_jsonl)
        assert hashlib.sha256(printed.out.encode()).hexdigest() == STEPPED_DIGESTS[name]

    @pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
    def test_a_log_verifies_to_its_report_byte_for_byte_exit_0(self, name, tmp_path, capsys):
        assert run_cli("run", "--scenario", str(sc.golden_scenario_path(name)),
                       "--out", str(tmp_path)) == 0
        assert run_cli("explain", "--events", str(tmp_path / "events.jsonl")) == 0
        printed = capsys.readouterr()
        assert printed.err == ""
        assert printed.out == (tmp_path / "report.json").read_text(encoding="utf-8")

    def test_a_log_whose_fold_disagrees_prints_its_report_and_exits_2(self, tmp_path, capsys):
        # One unit more on the first reward receipt: a unit its wallet never held.
        assert run_cli("run", "--scenario", str(sc.golden_scenario_path("honest")),
                       "--out", str(tmp_path)) == 0
        path = tmp_path / "events.jsonl"
        text = path.read_text()
        receipt = '"receive_rewards",1000]'
        path.write_text(text.replace(receipt, receipt.replace("1000", "1001"), 1))
        capsys.readouterr()
        assert run_cli("explain", "--events", str(path)) == 2
        printed = capsys.readouterr()
        assert printed.err == ""
        report = json.loads(printed.out)
        assert report["conservation"]["ok"] and not report["conservation"]["replay_ok"]

    @pytest.mark.parametrize("content", [
        None,                                   # no such file
        b"{not json\n",
        b'{"epoch":0}\n{"emitter":"alice","tag":"SupplyMint",'
        b'"payload":[1,"m"]}\n',   # no Genesis line first
    ], ids=["missing", "not-json", "no-terms"])
    def test_verifying_an_unreadable_log_exits_1(self, content, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        if content is not None:
            path.write_bytes(content)
        assert run_cli("explain", "--events", str(path)) == 1
        printed = capsys.readouterr()
        assert printed.out == "" and len(printed.err.splitlines()) == 1
        assert printed.err.startswith("--events: ") and "Traceback" not in printed.err

    def test_a_log_without_repeat_lines_prints_as_it_is(self, tmp_path, capsys):
        # Each event line as it is, with its header's epoch and its position
        # among the events put in front.
        log = SteppedWorld(sc.load_scenario(sc.golden_scenario_path("slashed"))).run().events_jsonl
        (tmp_path / "events.jsonl").write_text(log)
        assert run_cli("explain", "--events", str(tmp_path / "events.jsonl"), "--expand") == 0
        want, epoch = [], None
        for line in log.splitlines():
            if line.startswith('{"epoch":'):
                epoch = json.loads(line)["epoch"]
            else:
                want.append(f'{{"epoch":{epoch},"seq":{len(want)},{line[1:]}\n')
        assert capsys.readouterr().out == "".join(want)

    def test_a_reader_that_stops_early_ends_it_quietly(self, tmp_path):
        # As `stakeclaim explain ... --expand | head -1` does: the expanded
        # log (81 kB) outgrows the pipe, and the reader closes it.
        assert run_cli("run", "--scenario", str(sc.golden_scenario_path("honest")),
                       "--out", str(tmp_path)) == 0
        src = Path(sc.__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "stakeclaim.cli", "explain",
             "--events", str(tmp_path / "events.jsonl"), "--expand"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.readline().startswith(b'{"epoch":0,"seq":0,')
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.parametrize("content", [
        None,                                   # no such file
        b"\xff\xfe{",                           # not UTF-8
        b"{not json\n",
        b'{"epoch":4}\n{"emitter":"system","tag":"Repeat",'
        b'"payload":{"epochs":1}}\n',   # a Repeat with no block before it
    ], ids=["missing", "undecodable", "not-json", "inconsistent-repeat"])
    def test_an_unreadable_or_inconsistent_log_exits_1(self, content, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        if content is not None:
            path.write_bytes(content)
        assert run_cli("explain", "--events", str(path), "--expand") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("--events: ")
        assert "Traceback" not in err
