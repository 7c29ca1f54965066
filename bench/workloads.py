"""Seeded workload generator for the stakeclaim benchmark.

Each workload is a :class:`Shape` (sizes, plus the reason it exists) that
:func:`generate` turns into concrete inputs from a seed: a scenario
document in the strict file format, plus the claim and NFT-transfer
schedules that only the in-code ``Scenario`` can carry. The program sees
only these generated inputs; ``Scenario.seed`` is inert, so every document
carries ``"seed": 0`` and all variation comes from the benchmark's own
``random.Random``.

The terms are chosen so that the pro-rata oracle in ``checks.py`` is exact:

* deposits are variable-size and fill the mint target exactly;
* every validator is either fully on (factor 1) or fully off (factor 0), and
  the reward is 1000 per epoch, so every receipt is a multiple of 1000 and
  its fee at ``fee_bps`` 1000 floors exactly;
* every workload runs the whole life cycle: a raise with one NFT resale
  before any reward, staking, rewards, at least one autonomous exit and its
  settlement, and claims. That way every per-layer timer measures real work
  on every workload instead of reading a constant zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

REWARD_PER_EPOCH = 1000
FEE_BPS = 1000
STAKE = 32_000_000_000
ESCROW = 2_000_000
EXPECTED_REWARD_PER_EPOCH = 200
GRACE_EPOCHS = 5
ACTIVATION_DELAY = 2
EXIT_DELAY = 3
SLASH_BPS = 500
RESALE_EPOCH = 1      # after every deposit (epoch 0), before activation (epoch 2)


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload and the reason it is in the benchmark."""

    why: str
    validators: int
    tokens: int
    holders: int
    horizon: int
    sweep_period: int
    drops: int                   # validators whose operator goes offline (factor 0)
    exit_span: tuple[int, int]   # inclusive span the drop and slash epochs are spread over
    slashes: int = 0             # validators slashed, disjoint from the dropped ones
    claims_per_epoch: int = 0
    transfers_per_epoch: int = 0
    wrong_owner_share: float = 0.0  # share of transfers sent by a non-owner (rejected)


WORKLOADS: dict[str, Shape] = {
    "long": Shape(
        why="1 validator, 4 holders, 10k epochs: per-call ledger cost and a log "
            "growing with horizon dominate; the treasury split is trivial",
        validators=1, tokens=4, holders=4, horizon=10_000, sweep_period=1,
        drops=1, exit_span=(9_980, 9_980)),
    "wide": Shape(
        why="16 validators, 1000 tokens over 250 holders: split_credits, O(tokens) "
            "Distributed payloads and GC dominate; per-call ledger cost is small",
        validators=16, tokens=1000, holders=250, horizon=100, sweep_period=1,
        drops=1, exit_span=(80, 80)),
    "churn": Shape(
        why="32 validators, staggered performance exits, slashes, claims and NFT "
            "transfers every epoch, ~15% rejected: reverts, claims and settlement",
        validators=32, tokens=128, holders=64, horizon=600, sweep_period=4,
        drops=16, exit_span=(60, 360), slashes=4,
        claims_per_epoch=4, transfers_per_epoch=1, wrong_owner_share=0.1),
}


@dataclass(frozen=True)
class Workload:
    """Concrete inputs for one (workload, seed), plus what the oracle needs."""

    name: str
    seed: int
    doc: dict                                   # scenario file document
    claims: tuple[tuple[str, int], ...]          # (holder, epoch)
    transfers: tuple[tuple[int, str, str, int], ...]  # (token, from, to, epoch)
    capitals: tuple[int, ...]                   # token id -> capital
    owners: tuple[str, ...]                     # token id -> owner after the run
    drop_epochs: dict[int, int]                 # validator index -> first epoch at factor 0
    slash_epochs: dict[int, int]                # validator index -> slash epoch

    @property
    def pro_rata_exact(self) -> bool:
        """Rewards land every epoch, every credit goes to the final owner and
        is claimed only at the end, and no stake is slashed.

        Then rewards, fees, settlements and each holder's total credit are
        closed forms of the inputs (see ``checks.pro_rata_problems``). Churn
        breaks all of these and relies on its recorded values instead.
        """
        horizon = self.doc["horizon"]
        return (self.doc["beacon"]["sweep_period"] == 1 and not self.slash_epochs
                and all(e < ACTIVATION_DELAY for *_, e in self.transfers)
                and all(e == horizon for _, e in self.claims))

    def file_part(self) -> "Workload":
        """The same workload without what the scenario file cannot express."""
        owners = tuple(d["holder"] for d in self.doc["deposits"])
        return Workload(self.name, self.seed, self.doc, (), (), self.capitals,
                        owners, self.drop_epochs, self.slash_epochs)


def staggered(span: tuple[int, int], n: int, offset: int) -> list[int]:
    """n epochs spread evenly over the inclusive span, shifted by `offset`."""
    lo, hi = span
    return [min(hi, lo + (hi - lo) * k // max(1, n - 1) + offset) for k in range(n)]


def generate(name: str, seed: int) -> Workload:
    """The inputs of workload `name` for `seed`; the same seed gives the same inputs."""
    return build(name, WORKLOADS[name], seed)


def build(name: str, shape: Shape, seed: int) -> Workload:
    rng = random.Random(f"stakeclaim-bench:{name}:{seed}")
    m, horizon = shape.validators, shape.horizon
    target = STAKE * m

    # Variable-size deposits that fill the target exactly, all at epoch 0,
    # so token i is deposit i.
    base = target // (2 * shape.tokens)
    spare = target - base * shape.tokens
    cuts = sorted(rng.randrange(spare + 1) for _ in range(shape.tokens - 1))
    capitals = tuple(base + hi - lo for lo, hi in zip([0, *cuts], [*cuts, spare]))
    holders = [f"h{k:04d}" for k in range(shape.holders)]
    first = holders[:]
    rng.shuffle(first)
    owners = first + [rng.choice(holders) for _ in range(shape.tokens - shape.holders)]
    deposits = [{"holder": owners[i], "amount": capitals[i], "epoch": 0}
                for i in range(shape.tokens)]

    # Disjoint random sets of dropped and slashed validators. Their epochs
    # are evenly staggered, not drawn, so every seed does the same amount
    # of work and only who does it changes.
    order = list(range(m))
    rng.shuffle(order)
    dropped = order[:shape.drops]
    slashed = order[shape.drops:shape.drops + shape.slashes]
    drop_epochs = dict(zip(dropped, staggered(shape.exit_span, len(dropped), 0)))
    slash_epochs = dict(zip(slashed, staggered(shape.exit_span, len(slashed), 1)))

    transfers: list[tuple[int, str, str, int]] = []

    def transfer(token: int, epoch: int, wrong_owner: bool) -> None:
        owner = owners[token]
        to = rng.choice([h for h in holders if h != owner])
        if wrong_owner:
            transfers.append((token, rng.choice([h for h in holders if h != owner]),
                              to, epoch))
        else:
            transfers.append((token, owner, to, epoch))
            owners[token] = to

    transfer(rng.randrange(shape.tokens), RESALE_EPOCH, wrong_owner=False)
    claims: list[tuple[str, int]] = []
    for epoch in range(ACTIVATION_DELAY, horizon):
        for _ in range(shape.transfers_per_epoch):
            transfer(rng.randrange(shape.tokens), epoch,
                     wrong_owner=rng.random() < shape.wrong_owner_share)
        claims.extend((owners[rng.randrange(shape.tokens)], epoch)
                      for _ in range(shape.claims_per_epoch))
    claims.extend((h, horizon) for h in sorted(set(owners)))

    doc = {
        "treasury": {"fee_bps": FEE_BPS,
                     "expected_reward_per_epoch": EXPECTED_REWARD_PER_EPOCH,
                     "grace_epochs": GRACE_EPOCHS, "escrow_required": ESCROW,
                     "validators": m},
        "mint": {"min_contribution": base, "open_epoch": 0, "close_epoch": 2},
        "beacon": {"stake_requirement": STAKE, "reward_per_epoch": REWARD_PER_EPOCH,
                   "activation_delay": ACTIVATION_DELAY, "exit_delay": EXIT_DELAY,
                   "sweep_period": shape.sweep_period},
        "deposits": deposits,
        "operator_schedule": [{"from_epoch": e, "factor": 0, "validator": j}
                              for j, e in sorted(drop_epochs.items())],
        "slashes": [{"epoch": e, "validator": j, "fraction_bps": SLASH_BPS}
                    for j, e in sorted(slash_epochs.items())],
        "horizon": horizon,
        "seed": 0,
    }
    return Workload(name, seed, doc, tuple(claims), tuple(transfers), capitals,
                    tuple(owners), drop_epochs, slash_epochs)
