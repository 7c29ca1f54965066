"""Every declared integer bound, against a table written out by hand.

The table is not read from the field declarations, so a declaration that
drifts from it fails here. Each row gives a scenario record path, the
record class the contracts read it from (None if no contract does), the
field, and its lowest and highest accepted values in the scenario of
:func:`base` (horizon 20, one validator, mint window [0, 2)); None means no
upper bound. The first value rejected on each side is one past those. A
float or a bool is never an integer, even when it equals an accepted one,
and None is accepted only where a field's default is None.

Each rejected value must give exactly one ``validate`` violation, naming
the field, and, for a record the contracts read, a ValueError naming the
field from the constructor of every contract that reads that record. These
are plain checks that raise, so they hold under ``python -O``, and the
package holds no ``assert`` statement. Each row is also written out as a
scenario file's document: the loader checks only its shape, so validating
what it loads must give the same violation, and a document with a shape
problem as well must name the field once, at its index in the document.

Apart from the table, every field that the record classes annotate as
``int``, ``int | None`` or ``str`` must be rejected when it holds a value of
another type, so a field added later is covered by default. Two more
inputs are read in one place each: the package builds a Fraction only in
``scenario.parse_factor``, and every ``str`` field of a list record is one
of ``scenario.HOLDER_FIELDS``.
"""

from __future__ import annotations

import ast
import json
import random
import re
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest

import stakeclaim
from conftest import small_scenario
from test_acceptance import CORPUS_SEED, CORPUS_SIZE, random_scenario
from test_handler_purity import with_claims_and_transfers
from stakeclaim.beacon import BeaconContract, BeaconParams
from stakeclaim.errors import InvalidScenario
from stakeclaim.mint import MintContract, MintSpec
from stakeclaim.scenario import (
    _LISTS,
    HOLDER_FIELDS,
    ClaimAction,
    NftTransferAction,
    Scenario,
    SlashAction,
    load_scenario,
    scenario_from_dict,
    validate,
)
from stakeclaim.treasury import TreasuryContract, TreasurySpec
from stakeclaim.wallet import ValidatorWallet

HORIZON = 20
UINT256 = 2**256 - 1      # every amount's and delay's upper bound, the largest uint256

BOUNDS = [
    ("", None, "horizon", 0, 100_000),
    ("treasury", TreasurySpec, "fee_bps", 0, 10_000),
    ("treasury", TreasurySpec, "expected_reward_per_epoch", 0, UINT256),
    ("treasury", TreasurySpec, "grace_epochs", 1, None),
    ("treasury", TreasurySpec, "escrow_required", 0, UINT256),
    ("treasury", TreasurySpec, "validators", 1, 1024),
    ("mint", MintSpec, "min_contribution", 1, UINT256),
    ("mint", MintSpec, "open_epoch", 0, None),     # open < close is a cross-field rule
    ("mint", MintSpec, "close_epoch", 1, None),
    ("beacon", BeaconParams, "stake_requirement", 1, UINT256),
    ("beacon", BeaconParams, "reward_per_epoch", 1, UINT256),
    ("beacon", BeaconParams, "activation_delay", 1, UINT256),
    ("beacon", BeaconParams, "exit_delay", 1, UINT256),
    ("beacon", BeaconParams, "sweep_period", 1, None),
    ("deposits[0]", None, "amount", 1, UINT256),
    ("deposits[0]", None, "epoch", 0, HORIZON),
    ("operator_schedule[0]", None, "from_epoch", 0, HORIZON),
    ("operator_schedule[0]", None, "to_epoch", 1, None),   # a window ending at 0 is empty
    ("operator_schedule[0]", None, "validator", 0, 0),
    ("slashes[0]", None, "epoch", 0, HORIZON),
    ("slashes[0]", None, "validator", 0, 0),
    ("slashes[0]", None, "fraction_bps", 1, 10_000),
    ("claims[0]", None, "epoch", 0, HORIZON),
    ("nft_transfers[0]", None, "epoch", 0, HORIZON),
    ("nft_transfers[0]", None, "token_id", 0, None),
]
OPTIONAL = {("operator_schedule[0]", "validator"),     # default None: None is accepted
            ("operator_schedule[0]", "to_epoch")}

# A valid record of each class the contracts read.
GOOD = {
    BeaconParams: dict(stake_requirement=64, reward_per_epoch=100, activation_delay=1,
                       exit_delay=2, sweep_period=1),
    TreasurySpec: dict(fee_bps=1000, expected_reward_per_epoch=2, grace_epochs=3,
                       escrow_required=0, validators=1),
    MintSpec: dict(min_contribution=1, open_epoch=0, close_epoch=100),
}


def wallets(spec: TreasurySpec) -> tuple[str, ...]:
    """One wallet address per validator of `spec`, or one if its count is not an int."""
    n = spec.validators
    return tuple(f"wallet:{j}" for j in range(n if type(n) is int else 1))


def beacon(r: dict) -> BeaconContract:
    return BeaconContract(r[BeaconParams], driver="system")


def treasury(r: dict) -> TreasuryContract:
    return TreasuryContract(r[TreasurySpec], r[BeaconParams], wallets(r[TreasurySpec]),
                            operator="operator", mint="mint")


def wallet(r: dict) -> ValidatorWallet:
    return ValidatorWallet(r[TreasurySpec], r[BeaconParams],
                           treasury="treasury", beacon="beacon", operator="operator")


def mint(r: dict) -> MintContract:
    return MintContract(r[MintSpec], r[TreasurySpec], r[BeaconParams], treasury="treasury")


# Each record class -> every contract that reads it, built from a record of
# each class. The mint's target is stake_requirement * validators, so its
# guard of target >= 1 is the one on those two fields.
CONTRACT = {
    BeaconParams: (beacon, treasury, wallet, mint),
    TreasurySpec: (treasury, wallet, mint),
    MintSpec: (mint,),
}


def records(cls, **changes) -> dict:
    """A valid record of each class, with `changes` made to the `cls` one."""
    return {c: c(**{**good, **(changes if c is cls else {})}) for c, good in GOOD.items()}


def base():
    """small_scenario() with one slash, one claim and one NFT transfer, all at
    epoch 0 like its deposits, so that horizon 0 is accepted."""
    return small_scenario(slashes=(SlashAction(epoch=0, validator=0, fraction_bps=100),),
                          claims=(ClaimAction("alice", 0),),
                          nft_transfers=(NftTransferAction(0, "alice", "bob", 0),))


def with_value(path: str, field: str, value):
    """base() with `field` of the record at `path` set to `value`."""
    s = base()
    if not path:
        return replace(s, **{field: value})
    name, _, index = path.partition("[")
    if not index:
        return replace(s, **{name: replace(getattr(s, name), **{field: value})})
    i = int(index.rstrip("]"))
    records = list(getattr(s, name))
    records[i] = replace(records[i], **{field: value})
    return replace(s, **{name: tuple(records)})


def accepted(lo, hi):
    return [lo] if hi is None else [lo, hi]


def rejected(lo, hi, optional=False):
    return [lo - 1, *([] if hi is None else [hi + 1]), float(lo), True,
            *([] if optional else [None])]


def message(path, field, value, lo, hi):
    where = f"{path}.{field}" if path else field
    return f"{where} {value!r} is not an integer " + (
        f">= {lo}" if hi is None else f"in {lo}..{hi}")


def document(s: Scenario) -> dict:
    """`s` as a scenario file's document."""
    return json.loads(json.dumps({**asdict(s), "seed": 0}))


SCENARIO_ROWS = [(path, field, lo, hi) for path, _, field, lo, hi in BOUNDS if path is not None]
RECORD_ROWS = [(cls, field, lo, hi) for _, cls, field, lo, hi in BOUNDS if cls]
SCENARIO_REJECTED = [
    pytest.param(path, field, v, lo, hi, id=f"{path or 'scenario'}.{field}={v!r}")
    for path, field, lo, hi in SCENARIO_ROWS
    for v in rejected(lo, hi, (path, field) in OPTIONAL)
]


def test_base_is_valid():
    assert validate(base()) == []


@pytest.mark.parametrize("path,field,value", [
    pytest.param(path, field, v, id=f"{path or 'scenario'}.{field}={v!r}")
    for path, field, lo, hi in SCENARIO_ROWS for v in accepted(lo, hi)
])
def test_validate_accepts(path, field, value):
    assert validate(with_value(path, field, value)) == []


@pytest.mark.parametrize("path,field,value,lo,hi", SCENARIO_REJECTED)
def test_validate_rejects(path, field, value, lo, hi):
    violations = validate(with_value(path, field, value))
    assert violations == [message(path, field, value, lo, hi)]


@pytest.mark.parametrize("path,field,value,lo,hi", SCENARIO_REJECTED)
def test_validate_rejects_a_loaded_document(path, field, value, lo, hi):
    doc = document(with_value(path, field, value))
    assert validate(scenario_from_dict(doc)) == [message(path, field, value, lo, hi)]


@pytest.mark.parametrize("path,field,value,lo,hi", SCENARIO_REJECTED)
def test_loader_names_a_rejected_field_once_at_its_index(path, field, value, lo, hi):
    # A copy of the record with an unknown key goes first in its list (in
    # deposits for a record that is not a list item), so the record itself
    # moves to index 1 and an unparsed record comes before it.
    doc = document(with_value(path, field, value))
    name, _, index = path.partition("[")
    section = name if index else "deposits"
    doc[section].insert(0, {**doc[section][0], "bonus": 1})
    where = f"{name}[1]" if index else path
    with pytest.raises(InvalidScenario) as info:
        scenario_from_dict(doc)
    problems = str(info.value).split("; ")
    assert f"unknown keys in {section}[0]: ['bonus']" in problems
    assert message(where, field, value, lo, hi) in problems
    assert str(info.value).count(f"{where}.{field} " if where else f"{field} ") == 1


def test_a_document_loads_to_the_scenario_it_was_written_from():
    rng, extras = random.Random(CORPUS_SEED), random.Random(CORPUS_SEED + 1)
    scenarios = [with_claims_and_transfers(random_scenario(rng), extras)
                 for _ in range(CORPUS_SIZE)]
    scenarios += [load_scenario(stakeclaim.golden_scenario_path(name))
                  for name in stakeclaim.GOLDEN_SCENARIOS]
    for s in scenarios:
        assert scenario_from_dict(document(s)) == s


def test_the_package_holds_no_assert_statement():
    # python -O strips assert statements, and every check must still hold.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(stakeclaim.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_the_package_builds_a_fraction_only_in_parse_factor():
    # A factor is parsed once, at the edge: the core is handed an int or a
    # Fraction and reads nothing else. A call is named by the innermost
    # function around it.
    found = []
    for path in sorted(Path(stakeclaim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree)
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "Fraction" in ast.unparse(node.func):
                around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                name = max(around, key=lambda f: f.lineno).name if around else "<module>"
                found.append(f"{path.stem}.{name}")
    assert found == ["scenario.parse_factor"]


def test_every_str_field_of_a_list_record_is_a_holder_field():
    # holder_names (the World's accounts and the report's rows) and the
    # holder name check both read HOLDER_FIELDS, so a str field added to a
    # record must be listed there.
    assert {(where, f.name) for where, cls in _LISTS.items()
            for f in fields(cls) if f.type == "str"} == set(HOLDER_FIELDS)


def test_optional_field_accepts_none():
    for path, field in OPTIONAL:
        assert validate(with_value(path, field, None)) == []


# The treasury and the wallet once declared stake_requirement on configs of
# their own, and the mint a target_total, now stake_requirement * validators.
# Each keeps its cases under that name, building that one contract from
# BeaconParams.stake_requirement; the mint's rejections of a target below 1
# are the TreasurySpec.validators and BeaconParams.stake_requirement cases.
FORMER = {
    "TreasuryConfig.stake_requirement": (treasury,),
    "WalletConfig.stake_requirement": (wallet,),
    "MintConfig.target_total": (mint,),
}


@pytest.mark.parametrize("cls,field,value,builds", [
    pytest.param(cls, field, v, CONTRACT[cls], id=f"{cls.__name__}.{field}={v!r}")
    for cls, field, lo, hi in RECORD_ROWS for v in accepted(lo, hi)
] + [
    pytest.param(BeaconParams, "stake_requirement", 1, builds, id=f"{name}=1")
    for name, builds in FORMER.items()
])
def test_contract_accepts_a_config_in_bounds(cls, field, value, builds):
    for build in builds:
        build(records(cls, **{field: value}))


@pytest.mark.parametrize("cls,field,value,lo,hi,builds", [
    pytest.param(cls, field, v, lo, hi, CONTRACT[cls], id=f"{cls.__name__}.{field}={v!r}")
    for cls, field, lo, hi in RECORD_ROWS for v in rejected(lo, hi)
] + [
    pytest.param(BeaconParams, "stake_requirement", v, 1, UINT256, builds, id=f"{name}={v!r}")
    for name, builds in FORMER.items() if name.endswith(".stake_requirement")
    for v in rejected(1, UINT256)
])
def test_contract_rejects_a_config_out_of_bounds(cls, field, value, lo, hi, builds):
    # The record itself is built unchecked, as the scenario loader builds
    # it; each constructor that reads it is a guard.
    bad = records(cls, **{field: value})
    for build in builds:
        with pytest.raises(ValueError) as info:
            build(bad)
        assert str(info.value) == message(cls.__name__, field, value, lo, hi)


def test_mint_contract_keeps_its_window_order():
    with pytest.raises(ValueError, match=re.escape("open_epoch < close_epoch")):
        mint(records(MintSpec, open_epoch=100))


def record_paths() -> list[tuple[str, type]]:
    """(path in base(), class) for Scenario and each record it holds, read
    off Scenario's annotations; a list's path is its first item's."""
    out = [("", Scenario)]
    for name, hint in get_type_hints(Scenario).items():
        if is_dataclass(hint):
            out.append((name, hint))
        elif get_origin(hint) is tuple:
            out.append((f"{name}[0]", get_args(hint)[0]))
    return out


# A field's annotation -> values of other types: a bool is an int to
# isinstance, and a list is unhashable.
WRONG_TYPES = {"int": ["0", True], "int | None": ["0", True], "str": [0, ["alice"]]}


@pytest.mark.parametrize("path,field,value", [
    pytest.param(path, f.name, v, id=f"{path or 'scenario'}.{f.name}={v!r}")
    for path, cls in record_paths() for f in fields(cls) if f.type in WRONG_TYPES
    for v in WRONG_TYPES[f.type]
])
def test_every_typed_field_rejects_another_type(path, field, value):
    assert any(v.startswith(path or field) for v in validate(with_value(path, field, value)))
