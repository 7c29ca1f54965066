"""Independent reference computations used as test oracles.

Everything here re-derives expected values with explicit loops over exact
integers and Fractions, deliberately sharing no code with the production
accounting paths it checks.
"""

from __future__ import annotations

from fractions import Fraction


def replay_split(receipts: list[int], capitals: list[int], fee_bps: int,
                 carry: list[int] | None = None):
    """Replay the fee/floor split with per-holder carry over a receipt stream.

    Each holder's sub-unit remainder (scaled by the capital total) rides
    along to the next receipt, so cumulative credit stays at exactly
    floor(cumulative_net * C_i / total). Returns (total_fees,
    cumulative_credits_per_holder, final_dust_units, per_receipt) where
    per_receipt lists (fee, shares, dust_after).
    """
    total_cap = sum(capitals)
    acc = list(carry) if carry is not None else [0] * len(capitals)
    credits = [0] * len(capitals)
    fees = 0
    per_receipt = []
    for amount in receipts:
        fee = (amount * fee_bps) // 10_000
        net = amount - fee
        shares = []
        for i, c in enumerate(capitals):
            acc[i] += net * c
            share = acc[i] // total_cap
            acc[i] -= share * total_cap
            shares.append(share)
            credits[i] += share
        fees += fee
        per_receipt.append((fee, shares, sum(acc) // total_cap))
    return fees, credits, sum(acc) // total_cap, per_receipt


def replay_mixed(stream: list[tuple[int, bool]], capitals: list[int],
                 fee_bps: int):
    """Replay an ordered mix of reward receipts and fee-free settlements.

    `stream` holds (amount, fee_applies) pairs. Remainders are shared per
    holder across both kinds, mirroring that a token's sub-unit carry does
    not care why a distribution happened. Returns (total_fees,
    receipt_credits, settlement_credits, dust_units, per_step) where
    per_step lists (fee, shares, dust_after) for each stream entry.
    """
    total_cap = sum(capitals)
    acc = [0] * len(capitals)
    receipt_credits = [0] * len(capitals)
    settlement_credits = [0] * len(capitals)
    fees = 0
    per_step = []
    for amount, fee_applies in stream:
        fee = (amount * fee_bps) // 10_000 if fee_applies else 0
        net = amount - fee
        fees += fee
        bucket = receipt_credits if fee_applies else settlement_credits
        shares = []
        for i, c in enumerate(capitals):
            acc[i] += net * c
            share = acc[i] // total_cap
            acc[i] -= share * total_cap
            bucket[i] += share
            shares.append(share)
        per_step.append((fee, shares, sum(acc) // total_cap))
    return (fees, receipt_credits, settlement_credits, sum(acc) // total_cap,
            per_step)


def rational_shares(total_rewards: int, capitals: list[int],
                    fee_bps: int) -> list[Fraction]:
    """Exact pro-rata holder shares of total rewards after the fee ratio."""
    fee = Fraction(fee_bps, 10_000)
    total_cap = sum(capitals)
    return [Fraction(c, total_cap) * total_rewards * (1 - fee) for c in capitals]


def rational_fee(total_rewards: int, fee_bps: int) -> Fraction:
    return Fraction(fee_bps, 10_000) * total_rewards


def trigger_epoch(received_by_epoch: dict[int, int], activation_epoch: int,
                  expected: int, grace: int, last_epoch: int) -> int | None:
    """First epoch the windowed shortfall check fires, current epoch included.

    The window must span a full `grace` epochs since activation before the
    check can fire. Returns None if it never does by last_epoch.
    """
    threshold = expected * grace
    for now in range(activation_epoch, last_epoch + 1):
        if now - activation_epoch + 1 < grace:
            continue
        window = sum(received_by_epoch.get(e, 0)
                     for e in range(now - grace + 1, now + 1))
        if window < threshold:
            return now
    return None


def floor_scaled(amount: int, numerator: int, denominator: int) -> int:
    return (amount * numerator) // denominator
