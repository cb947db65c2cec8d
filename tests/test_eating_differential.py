"""The eating pipeline's fast routines against the plain scans in
`eating_reference`, on random impartial-culture, identical and near-identical
profiles: equal gpbm matrices and traces, equal BvN atoms in the same order,
and equal sd-envy and EF1 verdicts and first witnesses.  Every gpbm and BvN
output is also rebuilt through the public constructors, whose checks the
producers skip."""

from hypothesis import given, settings
from hypothesis import strategies as st

import fairassign as fa
from fairassign import mechanisms
from eating_reference import birkhoff_atoms, eat, ef1_witness, sd_envy_witnesses
from fairassign.decomposition import (
    DecomposedLottery,
    SubagentMatrix,
    birkhoff_decompose,
    expand_subagents,
)
from profile_strategies import fully_allocating, profiles


@st.composite
def deterministic(draw, instance):
    """A random assignment that leaves each item unallocated or gives it to
    one agent."""
    owners = draw(
        st.lists(
            st.none() | st.integers(0, instance.agent_count - 1),
            min_size=instance.item_count,
            max_size=instance.item_count,
        )
    )
    bundles = {}
    for o, j in enumerate(owners):
        if j is not None:
            bundles.setdefault(j, []).append(o)
    return fa.DeterministicAssignment.from_bundles(
        instance.agent_count, instance.item_count, bundles
    )


def _gpbm(instance, keep_trace=True):
    """gpbm's outcome, once the public constructors, whose checks gpbm skips,
    accept it rebuilt round by round and give an equal outcome: ceil(m/n)
    rounds of the instance's shape, shares in [0, 1] in canonical form, every
    agent eating at most one unit a round and exactly one in every round but
    the last, and every item column of the total summing to one."""
    outcome = fa.gpbm(instance, keep_trace=keep_trace)
    rounds = tuple(fa.RandomAssignment(stage.rows) for stage in outcome.per_round.rounds)
    assert (rounds[0].agent_count, rounds[0].item_count) == (
        instance.agent_count,
        instance.item_count,
    )
    rebuilt = fa.GpbmOutcome(fa.RoundDecomposition(rounds), outcome.supply_trace)
    assert rebuilt == outcome
    return outcome


def _witness(report, instance):
    if report.verdict:
        return None
    names = [a.name for a in instance.agents]
    return names.index(report.witness["envious"]), names.index(report.witness["envied"])


def _assert_same_envy_reports(instance, matrix):
    weak, strong = sd_envy_witnesses(instance, matrix.rows)
    assert _witness(fa.check_sd_wef(instance, matrix), instance) == weak
    assert _witness(fa.check_sd_ef(instance, matrix), instance) == strong


@settings(max_examples=150, deadline=None)
@given(profiles())
def test_gpbm_matches_reference_scan(instance):
    outcome = _gpbm(instance)
    total, rounds, trace = eat(instance)
    assert outcome.total.rows == total
    assert tuple(stage.rows for stage in outcome.per_round.rounds) == rounds
    assert (
        tuple(
            (s.round_index, s.consumption_round, s.item, s.consumers, s.amounts)
            for s in outcome.supply_trace
        )
        == trace
    )
    assert _gpbm(instance, keep_trace=False).per_round == outcome.per_round


def test_gpbm_growing_its_scale_twice_matches_reference_scan(monkeypatch):
    # consumption round 1 splits item a among three agents, then b among two,
    # which does not divide the supply left at scale 3: the scale goes 1, 3, 6
    instance = fa.Instance.from_prefs(
        {"1": "abcde", "2": "abcde", "3": "acbde", "4": "bacde", "5": "bcade"}, items="abcde"
    )
    growths = []
    split = mechanisms._equal_rate_split

    def recording_split(budgets, supply):
        growth, eaten, left = split(budgets, supply)
        growths.append(growth)
        return growth, eaten, left

    monkeypatch.setattr(mechanisms, "_equal_rate_split", recording_split)
    outcome = _gpbm(instance)
    assert growths[:2] == [3, 2]
    total, rounds, trace = eat(instance)
    assert outcome.total.rows == total
    assert tuple(stage.rows for stage in outcome.per_round.rounds) == rounds
    assert tuple(
        (s.round_index, s.consumption_round, s.item, s.consumers, s.amounts)
        for s in outcome.supply_trace
    ) == trace


@settings(max_examples=100, deadline=None)
@given(profiles())
def test_birkhoff_atoms_match_reference_matcher(instance):
    source = expand_subagents(_gpbm(instance, keep_trace=False).per_round)
    decomposed = birkhoff_decompose(source)
    assert decomposed.atoms == birkhoff_atoms(source.entries, source.item_count)
    # both producers skip the public constructors' checks; they must accept
    # the subagent matrix and the atoms and give equal records
    shape = (source.agent_count, source.round_count, source.item_count)
    assert SubagentMatrix(source.scale, source.numerators, *shape) == source
    assert DecomposedLottery(source, decomposed.atoms) == decomposed
    size = source.agent_count * source.round_count
    assert decomposed.atom_count <= size * size - 2 * size + 2


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sd_envy_reports_match_pairwise_sd_dominates(data):
    instance = data.draw(profiles())
    _assert_same_envy_reports(instance, _gpbm(instance, keep_trace=False).total)
    _assert_same_envy_reports(instance, data.draw(fully_allocating(instance)))


@settings(max_examples=40, deadline=None)
@given(profiles(max_agents=4, max_items=6))
def test_sd_envy_reports_match_on_eager_expected(instance):
    _assert_same_envy_reports(instance, fa.gebm_expected(instance))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ef1_matches_removal_by_removal_sd_dominates(data):
    instance = data.draw(profiles(max_agents=6, max_items=12))
    assignment = data.draw(deterministic(instance))
    report = fa.check_ef1(instance, assignment)
    assert _witness(report, instance) == ef1_witness(instance, assignment)
