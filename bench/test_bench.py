"""Tests of the benchmark's own machinery: generator, oracle, self times."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from checks import economic_digest, report_problems
from tracing import self_time_problems, self_times
from worker import setup
from workloads import WORKLOADS, build, generate


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    assert generate(name, 7) == generate(name, 7)
    assert generate(name, 7).doc != generate(name, 8).doc


def test_generated_deposits_fill_the_target_exactly():
    for name, shape in WORKLOADS.items():
        w = generate(name, 3)
        amounts = [d["amount"] for d in w.doc["deposits"]]
        assert sum(amounts) == w.doc["beacon"]["stake_requirement"] * shape.validators
        assert min(amounts) >= w.doc["mint"]["min_contribution"]
        assert len(set(amounts)) > 1


@pytest.fixture(scope="module")
def small_long():
    """A long-shaped workload cut to 60 epochs, and its report."""
    shape = dataclasses.replace(WORKLOADS["long"], horizon=60, exit_span=(40, 40))
    w = build("long", shape, seed=5)
    return w, setup(w).run().to_dict()


def test_oracle_accepts_the_true_report(small_long):
    w, report = small_long
    assert w.pro_rata_exact
    assert report_problems(w, report, 0, None) == []


def test_oracle_rejects_one_claimable_perturbed_by_one(small_long):
    w, report = small_long
    bad = copy.deepcopy(report)
    holder = next(h for h in bad["holders"] if h["capital"])
    holder["claimable"] += 1
    problems = report_problems(w, bad, 0, None)
    assert len(problems) == 2   # its total credit, and its claim at the horizon
    assert all(p.startswith(holder["holder"]) for p in problems)


def test_oracle_rejects_a_report_that_differs_from_the_recorded_one(small_long):
    w, report = small_long
    expected = {"long": {"5": {"economic_sha256": economic_digest(report), "rejected": 0}}}
    assert report_problems(w, report, 0, expected) == []
    bad = copy.deepcopy(report)
    bad["operator"]["escrow_refunded"] += 1
    assert "economic fields differ from the recorded report" in \
        report_problems(w, bad, 0, expected)
    relogged = dict(report, event_count=0, events_digest="")
    assert report_problems(w, relogged, 0, expected) == []


def test_self_times_on_a_synthetic_nesting():
    spans = [
        ("root", 0, 100, -1, -1),
        ("a", 10, 40, 0, 0),
        ("a.leaf", 15, 25, 1, 0),
        ("b", 50, 90, 0, 1),
        ("gc", 60, 70, 3, 1),
        ("other_root", 200, 210, -1, -1),
    ]
    selfs = self_times(spans)
    assert selfs == [30, 20, 10, 30, 10, 10]
    assert self_time_problems(spans, selfs) == []


def test_self_time_problems_flags_a_child_longer_than_its_parent():
    spans = [("root", 0, 10, -1, -1), ("child", 0, 20, 0, -1)]
    assert self_time_problems(spans, self_times(spans))
