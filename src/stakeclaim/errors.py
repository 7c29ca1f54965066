"""Exception hierarchy, and the one check of declared integer bounds.

Two families matter for dispatch semantics:

* ``LedgerError``: raised by the ledger itself (bad address, insufficient
  balance, call-depth exhaustion).
* ``ContractError``: raised by a contract handler to reject a message.

Either one raised anywhere inside a call tree reverts the entire tree;
nothing is committed. ``InvariantViolation`` is different: it signals a bug
in the machine itself (a conservation or accounting identity broke) and is
never caught by the dispatcher.

Each integer bound is declared once, on its dataclass field, with
:func:`bounded`: an int, never a bool, in lo..hi. Every amount and
delay is at most ``UINT256_MAX``. :func:`bound_problems`
checks the declarations, and is the only type check of a bounded scenario
field: ``scenario.validate`` lists what it finds, and each contract
constructor raises it as ValueError (:func:`checked`) on the same records.
"""

from __future__ import annotations

from dataclasses import field, fields
from functools import cache


class StakeclaimError(Exception):
    """Base class for everything raised by this package."""


class InvariantViolation(StakeclaimError):
    """A conservation law or accounting identity failed to hold."""


class InvalidScenario(StakeclaimError):
    """A scenario document violates its schema or internal constraints.

    ``problems`` holds each violation found; the message joins them with "; ".
    """

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = problems


# --- ledger-level failures -------------------------------------------------

class LedgerError(StakeclaimError):
    pass


class UnknownAddress(LedgerError):
    pass


class UnknownContract(LedgerError):
    pass


class InsufficientBalance(LedgerError):
    pass


class ReentrancyLimitExceeded(LedgerError):
    pass


# --- contract-level rejections (revert the call tree) ----------------------

class ContractError(StakeclaimError):
    """A contract rejected a message; the whole call tree rolls back."""


class UnknownMethod(ContractError):
    """The target contract has no handler for the message's method."""


class InvalidAmount(ContractError):
    pass


class WrongCaller(ContractError):
    pass


class WrongStatus(ContractError):
    pass


class WrongPhase(ContractError):
    pass


# mint
class MintClosed(ContractError):
    pass


class BelowMinimum(ContractError):
    pass


class ExceedsCapacity(ContractError):
    pass


class NotOwner(ContractError):
    pass


class UnknownToken(ContractError):
    pass


# treasury
class UnknownValidator(ContractError):
    pass


class NothingToClaim(ContractError):
    pass


class NotOperator(ContractError):
    pass


class Underfunded(ContractError):
    pass


class EscrowMissing(ContractError):
    pass


class AlreadySettled(ContractError):
    pass


# validator wallet
class WrongAmount(ContractError):
    pass


class BeaconNotSwept(ContractError):
    pass


# beacon
class InvalidFactor(ContractError):
    pass


class NotActive(ContractError):
    pass


class Unauthorized(ContractError):
    pass


# --- declared integer bounds ------------------------------------------------

# The upper bound of every amount and delay a scenario states: the largest
# uint256, an EVM contract's integer type. The sums and products a run logs
# (a holder's deposits, a reward total, an epoch plus a delay) then stay
# thousands of digits below CPython's limit on converting an int to text
# (sys.get_int_max_str_digits, 4,300 by default), which every log line and
# report needs.
UINT256_MAX = 2**256 - 1


def bounded(lo: int, hi: int | str | None = None, **kwargs):
    """A dataclass field holding an int in lo..hi. `hi` None is no upper
    bound; a string names a limit given to :func:`bound_problems`. A field
    whose default is None may hold None. `kwargs` go to dataclasses.field."""
    return field(metadata={"bounds": (lo, hi)}, **kwargs)


@cache
def _plan(cls) -> tuple[tuple[str, int, int | str | None, bool], ...]:
    """(field, lo, hi, may be None) for each bounded field of `cls`."""
    return tuple((f.name, *f.metadata["bounds"], f.default is None)
                 for f in fields(cls) if "bounds" in f.metadata)


def bound_problems(records, where: str, limits: dict | None = None) -> dict[str, str]:
    """{field path: message} for each bounded field of `records` out of bounds.

    `records` is one dataclass instance, named `where` ("" names its fields
    alone), or a tuple or list of instances of one class, item i named
    ``where[i]``. A record that is None (one the loader could not parse) is
    skipped, and the items after it keep their index. A named limit that
    `limits` lacks or holds as None leaves its fields with no upper bound.
    """
    many = isinstance(records, (tuple, list))
    items = records if many else (records,)
    for first in items:                 # the class is that of the first record parsed
        if first is not None:
            break
    else:
        return {}
    out = {}
    for name, lo, hi, optional in _plan(type(first)):
        if type(hi) is str:
            hi = limits.get(hi) if limits else None
        for i, r in enumerate(items):
            v = getattr(r, name, None)      # None on a record that is None
            if (type(v) is not int or v < lo or (hi is not None and v > hi)) \
                    and not (v is None and (optional or r is None)):
                path = f"{where}[{i}].{name}" if many else f"{where}.{name}" if where else name
                out[path] = f"{path} {v!r} is not an integer " + (
                    f">= {lo}" if hi is None else f"in {lo}..{hi}")
    return out


def checked(record):
    """`record`, or a ValueError naming each field out of its declared bounds."""
    if problems := bound_problems(record, type(record).__name__):
        raise ValueError("; ".join(problems.values()))
    return record
