"""Capital-raising contract.

Collects depositor capital during a fixed epoch window and issues one NFT
per contribution. Each contribution is paid on to the treasury as the
value of the ``register_nft`` call that records the token, so the
treasury books as its capital what it received, and the log states the
amount once, on that call's line: the ``Mint`` event names only the token
and its owner. Ownership of a token carries the right to that share of
future rewards, so transfers are mirrored to the treasury's owner index in
the same atomic call tree. Token ids are the positions 0, 1, ...; any
other id, a bool or a float equal to one included, is ``UnknownToken``.

Contributions are variable-size (per-holder capital differs) and a
contribution that would push the total past the target is rejected whole:
the raised total must land exactly on the target, never above it. If the
window closes under-filled, anyone may poke ``abort`` and the treasury
refunds every depositor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .beacon import BeaconParams
from .errors import UINT256_MAX, BelowMinimum, ExceedsCapacity, MintClosed, NotOwner, UnknownToken, WrongStatus, bounded, checked
from .ledger import Call, CallContext, Emit, Handlers, Msg, SharedMap, evolve
from .treasury import TreasurySpec


@dataclass(frozen=True)
class MintSpec:
    """The raise's window [open_epoch, close_epoch) and smallest contribution."""

    min_contribution: int = bounded(1, UINT256_MAX)
    open_epoch: int = bounded(0)
    close_epoch: int = bounded(1)


@dataclass
class MintState:
    owners: SharedMap = field(default_factory=SharedMap)   # token id -> owner; ids are 0, 1, ...
    minted_total: int = 0
    aborted: bool = False


class MintContract(Handlers):
    """Handler for mint, NFT transfer, and under-fill abort messages."""

    kind = "mint"

    def __init__(self, spec: MintSpec, terms: TreasurySpec, params: BeaconParams,
                 *, treasury: str):
        self.spec = checked(spec)
        if spec.open_epoch >= spec.close_epoch:
            raise ValueError(f"MintSpec needs open_epoch < close_epoch, got "
                             f"{spec.open_epoch} and {spec.close_epoch}")
        # One stake requirement per validator: exactly what the treasury stakes.
        self.target = checked(params).stake_requirement * checked(terms).validators
        self.treasury = treasury

    def initial_state(self) -> MintState:
        return MintState()

    def _op_mint(self, state: MintState, msg: Msg, ctx: CallContext):
        """Exchange the attached value for a new token, paying it on to the
        treasury with the token's registration; returns the token id."""
        spec = self.spec
        if state.aborted or not (spec.open_epoch <= ctx.epoch < spec.close_epoch):
            raise MintClosed(f"mint not open at epoch {ctx.epoch}")
        if state.minted_total + msg.value > self.target:
            raise ExceedsCapacity(
                f"{msg.value} would overshoot target {self.target} "
                f"(minted {state.minted_total}); rejected whole")
        if msg.value < spec.min_contribution:
            raise BelowMinimum(f"contribution {msg.value} below minimum {spec.min_contribution}")
        token_id = len(state.owners)
        st = evolve(state, owners=state.owners.set(token_id, msg.caller),
                    minted_total=state.minted_total + msg.value)
        effects = [
            Call(self.treasury, "register_nft", {"token_id": token_id, "owner": msg.caller},
                 value=msg.value),
            Emit("Mint", {"token_id": token_id, "owner": msg.caller}),
        ]
        return st, effects, token_id

    def _op_transfer_nft(self, state: MintState, msg: Msg, ctx: CallContext):
        """Move a token to a new owner; future reward credits follow it.

        Credits already accrued stay claimable by the previous owner. A
        self-transfer succeeds without emitting or mirroring anything.
        """
        token_id = msg.args["token_id"]
        to = msg.args["to"]
        owner = state.owners.get(token_id) if type(token_id) is int else None  # not True, 1.0
        if owner is None:
            raise UnknownToken(f"no token {token_id}")
        if msg.caller != owner:
            raise NotOwner(f"{msg.caller} does not own token {token_id}")
        ctx.is_contract(to)  # raises UnknownAddress for unregistered recipients
        if to == owner:
            return state, [], None
        st = evolve(state, owners=state.owners.set(token_id, to))
        effects = [
            Call(self.treasury, "update_owner",
                 {"token_id": token_id, "from": owner, "to": to}),
            Emit("TransferNft", {"token_id": token_id, "from": owner, "to": to}),
        ]
        return st, effects, None

    def _op_abort(self, state: MintState, msg: Msg, ctx: CallContext):
        """Refund everyone after an under-filled window. Permissionless."""
        close = self.spec.close_epoch
        if state.aborted:
            raise WrongStatus("mint already aborted")
        if state.minted_total == self.target:
            raise WrongStatus("mint filled; nothing to abort")
        if ctx.epoch < close:
            raise WrongStatus(f"window still open until epoch {close}")
        st = evolve(state, aborted=True)
        effects = [
            Call(self.treasury, "abort_refund", {}),
            Emit("MintAborted", {"refunded": st.minted_total}),
        ]
        return st, effects, st.minted_total
