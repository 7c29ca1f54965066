"""Deterministic simulator for a zero-trust pooled staking arrangement.

Capital is raised through an NFT mint, custodied by an immutable treasury,
and deployed to validators through autonomous smart-contract wallets that
forward rewards and exit on their own when the operator stops performing.
Everything runs on a simulated chain with integer-exact accounting, so
conservation laws and payout formulas can be property-tested end to end.
"""

from importlib import resources
from pathlib import Path

from .beacon import BeaconContract, BeaconParams, BeaconValidator, ValidatorStatus
from .errors import (
    ContractError,
    InvalidScenario,
    InvariantViolation,
    LedgerError,
    StakeclaimError,
)
from .ledger import Event, Ledger, replay_balances
from .mint import MintContract, MintSpec
from .scenario import (
    RunReport,
    Scenario,
    World,
    load_scenario,
    run,
    scenario_from_dict,
    validate,
)
from .treasury import (
    Phase,
    TreasuryContract,
    TreasurySpec,
    balance_identity,
)
from .wallet import ValidatorWallet, WalletStatus

__version__ = "0.1.0"

GOLDEN_SCENARIOS = ("honest", "nonpaying", "slashed")


def golden_scenario_path(name: str) -> Path:
    """Filesystem path of a bundled golden scenario ("honest", "nonpaying", "slashed")."""
    if name not in GOLDEN_SCENARIOS:
        raise ValueError(f"unknown golden scenario {name!r}; have {GOLDEN_SCENARIOS}")
    return Path(resources.files("stakeclaim").joinpath(f"data/{name}.json"))

__all__ = [
    "BeaconContract",
    "BeaconParams",
    "BeaconValidator",
    "ContractError",
    "Event",
    "GOLDEN_SCENARIOS",
    "InvalidScenario",
    "InvariantViolation",
    "Ledger",
    "LedgerError",
    "MintContract",
    "MintSpec",
    "Phase",
    "RunReport",
    "Scenario",
    "StakeclaimError",
    "TreasuryContract",
    "TreasurySpec",
    "ValidatorStatus",
    "ValidatorWallet",
    "WalletStatus",
    "World",
    "balance_identity",
    "golden_scenario_path",
    "load_scenario",
    "replay_balances",
    "run",
    "scenario_from_dict",
    "validate",
]
