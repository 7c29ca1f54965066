"""Who may call what: every route the goldens dispatch, sent by every party.

A route is a (contract kind, method) pair. :data:`ROUTES` says, for each one
the goldens' runs dispatch, which parties may send it; every other party
must get a ``ContractError`` and leave the ledger as it was. The parties are
each holder, each validator wallet, the mint, the treasury, the beacon, the
driver (``system``) and the operator.

Each route is sent from the state just before the first call tree that
dispatched it in a golden run, where the usual caller's own call is in the
phase it was made in, so a rejection there is the caller check's and not a
phase's; and again from the state the run ends in. Every party is first
endowed with the value the call carries, so a rejection is the contract's,
not an insufficient balance.

Some routes are permissionless pokes, gated by preconditions and not by
the caller (README, "Each handler decides with the same predicate and keeps
all its guards"): for them every party must get the usual caller's
outcome, the same error class or a committed call.
"""

from __future__ import annotations

import pickle

import pytest

import stakeclaim as sc
from conftest import SteppedWorld, restore, snapshot
from stakeclaim.errors import ContractError
from stakeclaim.ledger import Ledger
from stakeclaim.scenario import BEACON, MINT, OPERATOR, SYSTEM, TREASURY

ANYONE = None       # a permissionless poke
WALLETS = "wallets"  # every validator wallet

# route -> the parties that may send it besides the caller the golden run used
ROUTES = {
    ("beacon", "accrue_epoch"): (),
    ("beacon", "slash"): (),
    ("beacon", "sweep"): (),
    ("beacon", "request_exit"): (OPERATOR,),     # the withdrawal address or the operator
    ("beacon", "submit_deposit"): ANYONE,       # the wallet's callback checks the beacon
    ("mint", "mint"): ANYONE,
    ("treasury", "post_escrow"): (),
    ("treasury", "register_nft"): (),
    ("treasury", "stake_all"): ANYONE,
    ("treasury", "receive_rewards"): (WALLETS,),  # each wallet for its own validator
    ("treasury", "on_exit_initiated"): (WALLETS,),
    ("treasury", "settle_exit"): (WALLETS,),
    ("wallet", "deposit"): (),
    ("wallet", "deposit_accepted"): (),
    ("wallet", "on_validator_activated"): (),
    ("wallet", "on_forced_exit"): (),
    ("wallet", "on_exit_swept"): (),
    ("wallet", "forward_rewards"): ANYONE,
    ("wallet", "watchdog_check"): ANYONE,
    ("wallet", "finalize_withdrawal"): ANYONE,
}


def record_first_dispatches(world: SteppedWorld, monkeypatch) -> dict:
    """Run `world`; for each route, its first dispatch as (caller, target,
    args, value) and the snapshot taken before the call tree that made it."""
    first: dict = {}
    before: list[bytes] = []
    call, dispatch = Ledger.call, Ledger._dispatch

    def recording_call(self, *args, **kwargs):
        before.append(snapshot(self))
        return call(self, *args, **kwargs)

    def recording_dispatch(self, ctx, caller, target, method, args, value, depth):
        route = (self._contracts[target].kind, method)
        if route not in first:
            first[route] = (caller, target, dict(args), value, before[-1])
        return dispatch(self, ctx, caller, target, method, args, value, depth)

    monkeypatch.setattr(Ledger, "call", recording_call)
    monkeypatch.setattr(Ledger, "_dispatch", recording_dispatch)
    world.run()
    monkeypatch.undo()
    return first


def outcome(led: Ledger, caller: str, target: str, method: str, args: dict, value: int):
    """The error class `caller`'s call raised, or None if it committed."""
    try:
        led.call(caller, target, method, dict(args), value=value)
    except ContractError as exc:
        return type(exc)
    return None


def check_every_party(world: SteppedWorld, route, sent, snap: bytes) -> dict:
    """Send `route` from every party from the ledger state in `snap`.

    Returns each party's outcome, the usual caller's included.
    """
    led = world.ledger
    caller, target, args, value = sent
    parties = (*world.holders, *world.wallets, MINT, TREASURY, BEACON, SYSTEM, OPERATOR)
    restore(led, snap)
    if value:
        for party in parties:
            led.genesis(party, value, "caller check")
    endowed = snapshot(led)
    usual = outcome(led, caller, target, route[1], args, value)
    allowed = ROUTES[route]
    outcomes = {caller: usual}
    for party in parties:
        if party == caller or allowed is not ANYONE and (
                party in allowed or WALLETS in allowed and party in world.wallets):
            continue
        restore(led, endowed)
        state = pickle.loads(endowed)
        got = outcomes[party] = outcome(led, party, target, route[1], args, value)
        if allowed is ANYONE:
            assert got == usual, (route, party, got, usual)
        else:
            assert got is not None, (route, party, "was let through")
            assert pickle.loads(snapshot(led)) == state, (route, party)
    return outcomes


@pytest.fixture(scope="module")
def first_dispatches():
    """golden name -> route -> (caller, target, args, value, snapshot before its tree)."""
    out = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in sc.GOLDEN_SCENARIOS:
            world = SteppedWorld(sc.load_scenario(sc.golden_scenario_path(name)))
            out[name] = (world, record_first_dispatches(world, monkeypatch))
    return out


def test_the_table_names_every_route_the_goldens_dispatch(first_dispatches):
    dispatched = {route for _, first in first_dispatches.values() for route in first}
    assert dispatched == set(ROUTES)


@pytest.mark.parametrize("name", sc.GOLDEN_SCENARIOS)
def test_only_the_usual_callers_get_through(name, first_dispatches):
    world, first = first_dispatches[name]
    end = snapshot(world.ledger)
    for route, (caller, target, args, value, before) in first.items():
        check_every_party(world, route, (caller, target, args, value), end)
        outcomes = check_every_party(world, route, (caller, target, args, value), before)
        usual = outcomes.pop(caller)
        if ROUTES[route] is not ANYONE:
            # Where the golden run sent it, the usual caller's call commits
            # or fails otherwise: the others fail the caller check.
            assert outcomes and usual not in outcomes.values(), (route, usual, outcomes)
