"""The eager mechanism's exact modes, computed by a forward pass over engine
states, against the stand-alone tie-break enumerator in `branch_oracle`, on
random impartial-culture, identical and near-identical profiles: equal
expected matrices and equal lotteries, `Fraction` for `Fraction`."""

from hypothesis import given, settings

import fairassign as fa
from branch_oracle import enumerate_distribution, expected_shares, lottery_as_bundles
from profile_strategies import profiles


@settings(max_examples=150, deadline=None)
@given(profiles(max_agents=4, max_items=7))
def test_expected_matches_branch_oracle(instance):
    shares = expected_shares(instance)
    reference = tuple(
        tuple(shares[agent.name][item] for item in instance.items) for agent in instance.agents
    )
    assert fa.gebm_expected(instance).rows == reference


@settings(max_examples=150, deadline=None)
@given(profiles(max_agents=4, max_items=7))
def test_lottery_matches_branch_oracle(instance):
    lottery = fa.gebm_lottery(instance)
    assert lottery_as_bundles(instance, lottery) == enumerate_distribution(instance)
