"""The bitmask acyclicity checkers against the set-based ones they replaced
(`property_reference`), on random impartial-culture, identical and
near-identical profiles: equal `PropertyReport`s, verdict and cycle witness,
for Pareto efficiency on complete assignments (random ones, and gebm samples
with the agents' bundles permuted, which are often cyclic) and for ex-ante
efficiency on fully allocating and on partial share matrices.  The
rank-bitmask `pe_bruteforce` is compared with the `Fraction` one it replaced
on the same kinds of assignments."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairassign as fa
import property_reference as reference
from fairassign.oracle import instance_from_orders, pe_bruteforce
from profile_strategies import fully_allocating, profiles


def _from_holders(instance, holders):
    bundles = {}
    for o, j in enumerate(holders):
        if j is not None:
            bundles.setdefault(j, []).append(o)
    return fa.DeterministicAssignment.from_bundles(
        instance.agent_count, instance.item_count, bundles
    )


def _permuted_sample(instance, seed, permutation):
    """A gebm sample whose bundles move from agent j to agent permutation[j]."""
    holders = fa.gebm_sample(instance, seed).total.holders
    return _from_holders(instance, [permutation[j] for j in holders])


@st.composite
def complete(draw, instance):
    """A random assignment that gives every item to one agent."""
    m = instance.item_count
    holders = draw(st.lists(st.integers(0, instance.agent_count - 1), min_size=m, max_size=m))
    return _from_holders(instance, holders)


@st.composite
def partial(draw, instance):
    """A random share matrix whose item columns sum to at most 1."""
    n = instance.agent_count
    columns = []
    for _ in range(instance.item_count):
        weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        total = sum(weights) + draw(st.integers(0, 3))
        columns.append([Fraction(w, total) if w else Fraction(0) for w in weights])
    return fa.RandomAssignment(tuple(zip(*columns)))


def _assert_same_pe(instance, assignment):
    report = fa.check_pe_acyclic(instance, assignment)
    assert report == reference.check_pe_acyclic(instance, assignment)
    return report


@settings(max_examples=300, deadline=None)
@given(profiles(max_agents=5, max_items=9), st.data())
def test_pe_matches_reference_on_complete_assignments(instance, data):
    _assert_same_pe(instance, data.draw(complete(instance)))


@settings(max_examples=300, deadline=None)
@given(profiles(max_agents=5, max_items=9), st.integers(0, 2**64 - 1), st.data())
def test_pe_matches_reference_on_permuted_gebm_samples(instance, seed, data):
    permutation = data.draw(st.permutations(range(instance.agent_count)))
    _assert_same_pe(instance, _permuted_sample(instance, seed, permutation))


def test_pe_differential_covers_cyclic_assignments():
    """The two generators above do reach cyclic assignments: on seeded
    impartial-culture profiles, most permuted samples and random assignments
    fail Pareto efficiency, and every report equals the reference's."""
    rng = random.Random(2024)
    cyclic = 0
    for _ in range(200):
        n, m = rng.randint(2, 5), rng.randint(2, 9)
        instance = instance_from_orders([rng.sample(range(m), m) for _ in range(n)], m)
        permutation = list(range(1, n)) + [0]
        for assignment in (
            _permuted_sample(instance, rng.getrandbits(64), permutation),
            _from_holders(instance, [rng.randrange(n) for _ in range(m)]),
        ):
            cyclic += not _assert_same_pe(instance, assignment).verdict
    assert cyclic >= 250  # of 400


def test_pe_rejects_incomplete_assignments_like_reference(two_agent):
    assignment = _from_holders(two_agent, [0, 1, None, 0])
    for checker in (
        fa.check_pe_acyclic,
        reference.check_pe_acyclic,
        pe_bruteforce,
        reference.pe_bruteforce,
    ):
        with pytest.raises(fa.InputError, match="complete assignments"):
            checker(two_agent, assignment)


@settings(max_examples=200, deadline=None)
@given(profiles(max_agents=3, max_items=6), st.integers(0, 2**64 - 1), st.data())
def test_pe_bruteforce_matches_reference(instance, seed, data):
    permutation = data.draw(st.permutations(range(instance.agent_count)))
    for assignment in (
        data.draw(complete(instance)),
        _permuted_sample(instance, seed, permutation),
    ):
        assert pe_bruteforce(instance, assignment) == reference.pe_bruteforce(
            instance, assignment
        )


def test_pe_bruteforce_differential_covers_both_verdicts():
    """On seeded impartial-culture profiles, every gebm sample is efficient
    and random complete assignments reach both verdicts; every verdict equals
    the reference's."""
    rng = random.Random(2025)
    sampled, drawn = [], []
    for _ in range(100):
        n, m = rng.randint(2, 3), rng.randint(2, 6)
        instance = instance_from_orders([rng.sample(range(m), m) for _ in range(n)], m)
        for verdicts, assignment in (
            (sampled, fa.gebm_sample(instance, rng.getrandbits(64)).total),
            (drawn, _from_holders(instance, [rng.randrange(n) for _ in range(m)])),
        ):
            verdict = pe_bruteforce(instance, assignment)
            assert verdict == reference.pe_bruteforce(instance, assignment)
            verdicts.append(verdict)
    assert all(sampled)
    assert 20 <= sum(drawn) <= 80  # of 100


@settings(max_examples=300, deadline=None)
@given(profiles(max_agents=5, max_items=9), st.data())
def test_sde_matches_reference_on_fully_allocating_matrices(instance, data):
    matrix = data.draw(fully_allocating(instance))
    assert fa.check_sde_acyclic(instance, matrix) == reference.check_sde_acyclic(
        instance, matrix
    )


@settings(max_examples=300, deadline=None)
@given(profiles(max_agents=5, max_items=9), st.data())
def test_sde_matches_reference_on_partial_matrices(instance, data):
    matrix = data.draw(partial(instance))
    assert fa.check_sde_acyclic(
        instance, matrix, require_fully_allocating=False
    ) == reference.check_sde_acyclic(instance, matrix, require_fully_allocating=False)
    if not matrix.is_fully_allocating:
        for checker in (fa.check_sde_acyclic, reference.check_sde_acyclic):
            with pytest.raises(fa.InputError, match="fully allocating"):
                checker(instance, matrix)


@settings(max_examples=60, deadline=None)
@given(profiles(max_agents=4, max_items=6))
def test_sde_matches_reference_on_gebm_expected_matrices(instance):
    matrix = fa.gebm_expected(instance)
    assert fa.check_sde_acyclic(instance, matrix) == reference.check_sde_acyclic(
        instance, matrix
    )
