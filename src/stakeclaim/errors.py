"""Exception hierarchy.

Two families matter for dispatch semantics:

* ``LedgerError``: raised by the ledger itself (bad address, insufficient
  balance, call-depth exhaustion).
* ``ContractError``: raised by a contract handler to reject a message.

Either one raised anywhere inside a call tree reverts the entire tree;
nothing is committed. ``InvariantViolation`` is different: it signals a bug
in the machine itself (a conservation or accounting identity broke) and is
never caught by the dispatcher.
"""


class StakeclaimError(Exception):
    """Base class for everything raised by this package."""


class InvariantViolation(StakeclaimError):
    """A conservation law or accounting identity failed to hold."""


class InvalidScenario(StakeclaimError):
    """A scenario document violates its schema or internal constraints."""


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
