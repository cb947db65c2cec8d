"""The eager mechanism's three modes, all run by one engine-state transition,
against the stand-alone routes in `branch_oracle`, on random
impartial-culture, identical and near-identical profiles: equal expected
matrices and equal lotteries, `Fraction` for `Fraction`, and equal seeded
samples, round by round."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairassign as fa
from branch_oracle import (
    enumerate_distribution,
    expected_shares,
    lottery_as_bundles,
    sample_rounds,
)
from fairassign.oracle import instance_from_orders
from profile_strategies import profiles


def _assert_expected_matches_branch_oracle(instance):
    shares = expected_shares(instance)
    reference = tuple(
        tuple(shares[agent.name][item] for item in instance.items) for agent in instance.agents
    )
    matrix = fa.gebm_expected(instance)
    assert matrix.rows == reference
    # the canonical form: scale is the lcm of the reduced denominators
    canonical = fa.RandomAssignment(reference)
    assert (matrix.scale, matrix.numerators) == (canonical.scale, canonical.numerators)


@settings(max_examples=150, deadline=None)
@given(profiles(max_agents=4, max_items=7))
def test_expected_matches_branch_oracle(instance):
    _assert_expected_matches_branch_oracle(instance)


@pytest.mark.parametrize(
    "orders, item_count",
    [
        ([[0, 1, 2, 3]] * 3, 4),  # identical 3x4
        # near-identical 4x5
        ([[0, 1, 2, 3, 4], [1, 0, 2, 3, 4], [0, 1, 3, 2, 4], [0, 2, 1, 3, 4]], 5),
        ([[0, 1, 2], [0, 1, 2], [0, 2, 1], [1, 0, 2]], 3),  # n > m
    ],
)
def test_expected_scale_where_group_sizes_differ_between_states(orders, item_count):
    """Group sizes differ from state to state here, so the scale of the
    masses grows at more than one state; in the identical and n > m cases it
    ends at twice the canonical scale, which the output must still carry."""
    _assert_expected_matches_branch_oracle(instance_from_orders(orders, item_count))


@settings(max_examples=150, deadline=None)
@given(profiles(max_agents=4, max_items=7))
def test_lottery_matches_branch_oracle(instance):
    lottery = fa.gebm_lottery(instance)
    assert lottery_as_bundles(instance, lottery) == enumerate_distribution(instance)


@settings(max_examples=150, deadline=None)
@given(profiles(max_agents=4, max_items=7))
def test_lottery_atoms_come_sorted_by_rows(instance):
    # atom order is part of the CLI artifacts; the oracle above ignores it
    rows = [assignment.rows for _, assignment in fa.gebm_lottery(instance).atoms]
    assert rows == sorted(rows)


@settings(max_examples=200, deadline=None)
@given(profiles(max_agents=6, max_items=13), st.integers(0, 2**64 - 1))
def test_sample_matches_reference_sampler(instance, seed):
    outcome = fa.gebm_sample(instance, seed)
    reference = sample_rounds(instance, seed)
    rounds = tuple(
        tuple(
            tuple(int(matching.get(agent.name) == item) for item in instance.items)
            for agent in instance.agents
        )
        for _, matching in reference
    )
    total = tuple(tuple(map(sum, zip(*agent_rows))) for agent_rows in zip(*rounds))
    assert outcome.total.rows == total
    assert tuple(stage.rows for stage in outcome.per_round.rounds) == rounds
    assert outcome.remaining_items_per_round == tuple(
        frozenset(instance.item_index[item] for item in start) for start, _ in reference
    )
    # gebm_sample skips the public constructors' checks; they must accept the
    # outcome, rebuilt round by round, and give an equal one
    matchings = tuple(fa.DeterministicAssignment(stage.rows) for stage in outcome.per_round.rounds)
    assert fa.GebmOutcome(fa.RoundDecomposition(matchings)) == outcome
