import re
from collections import Counter
from fractions import Fraction

import pytest

import fairassign as fa
from fairassign.decomposition import (
    DecomposedLottery,
    SubagentMatrix,
    _perfect_matching,
    birkhoff_decompose,
    expand_subagents,
    gpbm_lottery,
    sample_realization,
)
from fairassign.model import InputError, RandomAssignment, RoundDecomposition

F = Fraction


def test_expand_two_agent(two_agent):
    matrix = expand_subagents(fa.gpbm(two_agent).per_round)
    assert (matrix.agent_count, matrix.round_count, matrix.item_count) == (2, 2, 4)
    half = F(1, 2)
    zero = F(0)
    assert matrix.entries[0] == (half, half, zero, zero, zero)  # agent 1, round 1
    assert matrix.entries[1] == (zero, half, zero, half, zero)  # agent 1, round 2
    assert matrix.entries[2] == (half, zero, half, zero, zero)  # agent 2, round 1
    assert matrix.entries[3] == (zero, zero, half, half, zero)  # agent 2, round 2
    assert all(row[4] == zero for row in matrix.entries)  # n * rounds == m


def test_expand_nil_total_odd_items():
    inst = fa.Instance.from_prefs({"1": ["x", "y", "z"], "2": ["x", "z", "y"]})
    matrix = expand_subagents(fa.gpbm(inst).per_round)
    nil = sum((row[3] for row in matrix.entries), F(0))
    assert nil == F(1)  # 2 agents * 2 rounds - 3 items


def test_expand_single_agent():
    inst = fa.Instance.from_prefs({"1": ["x", "y"]})
    matrix = expand_subagents(fa.gpbm(inst).per_round)
    assert matrix.entries[0][:2] == (F(1), F(0))
    assert matrix.entries[1][:2] == (F(0), F(1))


def test_expand_rejects_overfull_rows():
    # the round decomposition expand_subagents takes rejects the row itself
    bad = RandomAssignment(((F(1), F(1)), (F(0), F(0))))
    with pytest.raises(InputError, match="an agent exceeds one unit within a single round"):
        expand_subagents(RoundDecomposition((bad,)))


def test_expand_rejects_underfull_early_round():
    # two rounds, but an early round row does not sum to one
    early = RandomAssignment(((F(1, 2), F(0), F(0)), (F(1, 2), F(0), F(0))))
    late = RandomAssignment(((F(0), F(1, 2), F(0)), (F(0), F(1, 2), F(1, 2))))
    with pytest.raises(InputError, match="consumed 1/2 in non-final round 1"):
        expand_subagents(RoundDecomposition((early, late)))


def test_expand_rejects_matching_rounds(two_agent):
    per_round = fa.gebm_sample(two_agent, 1).per_round
    with pytest.raises(
        InputError, match="^the rounds to expand must be share matrices, not matchings$"
    ):
        expand_subagents(per_round)


def test_expand_rejects_rounds_that_leave_an_item_short():
    # a valid round decomposition whose item column 2 sums to 1/2
    first = RandomAssignment(((1, 0, 0, 0), (0, 1, 0, 0)))
    second = RandomAssignment(((0, 0, F(1, 2), 0), (0, 0, 0, F(1, 2))))
    with pytest.raises(InputError, match="^item column 2 must sum to exactly 1$"):
        expand_subagents(RoundDecomposition((first, second)))


def test_birkhoff_two_agent(two_agent):
    decomposed = birkhoff_decompose(expand_subagents(fa.gpbm(two_agent).per_round))
    assert decomposed.atom_count == 2
    assert all(c == F(1, 2) for c, _ in decomposed.atoms)
    matchings = {m for _, m in decomposed.atoms}
    a, b, c, d = range(4)
    assert matchings == {(a, b, c, d), (b, d, a, c)}
    projections = {
        tuple(sorted(decomposed.atom_assignment(i).bundles[0]))
        for i in range(decomposed.atom_count)
    }
    assert projections == {(a, b), (b, d)}


def test_birkhoff_permutation_matrix_single_atom(conflict):
    outcome = fa.gpbm(conflict)
    decomposed = birkhoff_decompose(expand_subagents(outcome.per_round))
    assert decomposed.atom_count == 1
    assert decomposed.atoms[0][0] == F(1)
    assert decomposed.atom_assignment(0).bundles[0] == frozenset({0, 1})
    assert decomposed.atom_assignment(0).bundles[1] == frozenset({2, 3})


def test_birkhoff_atom_bound_and_reconstruction(four_agent):
    matrix = expand_subagents(fa.gpbm(four_agent).per_round)
    decomposed = birkhoff_decompose(matrix)
    size = matrix.agent_count * matrix.round_count
    assert decomposed.atom_count <= size * size - 2 * size + 2
    # birkhoff_decompose skips the constructor's reconstruction check, which
    # tests/test_eating_differential.py runs; here, confirm the projection's mean
    assert decomposed.projected.expected() == fa.gpbm(four_agent).total


def test_perfect_matching_long_augmenting_path():
    # row i sees columns i and i+1, the last row only column 0: matching the
    # last row shifts every earlier row by one along a path of size - 1 rows
    size = 3000
    support = [[i, i + 1] for i in range(size - 1)] + [[0]]
    matching = _perfect_matching(support)
    assert sorted(matching) == list(range(size))
    assert all(col in support[row] for row, col in enumerate(matching))
    assert matching[-1] == 0


def test_birkhoff_rejects_matching_through_zero_entry(monkeypatch, two_agent):
    # a matcher that keeps returning its first matching passes through the
    # entries the first atom zeroed; the loop must stop instead of spinning
    first = []

    def stale_matching(support):
        if not first:
            first.append(_perfect_matching(support))
        return list(first[0])

    monkeypatch.setattr("fairassign.decomposition._perfect_matching", stale_matching)
    with pytest.raises(AssertionError, match="zero entry"):
        birkhoff_decompose(expand_subagents(fa.gpbm(two_agent).per_round))


def test_decomposition_validation_rejects_tampering(two_agent):
    decomposed = birkhoff_decompose(expand_subagents(fa.gpbm(two_agent).per_round))
    coeff, matching = decomposed.atoms[0]
    with pytest.raises(InputError):
        DecomposedLottery(decomposed.source, ((F(1), matching),))  # drops the second atom


# entries in integer form with the shape: (scale, numerators, agent_count,
# round_count, item_count), entry (row, col) being numerators[row][col] / scale
EMPTY = "a subagent matrix needs at least one agent, round and item"


@pytest.mark.parametrize(
    "entries,message",
    [
        ((1, ((1, 0, 0),), 2, 1, 2), "subagent matrix has the wrong number of rows"),
        ((1, ((1, 0, 0), (0, 1)), 2, 1, 2), "subagent rows must have one column per item plus nil"),
        ((2, ((-1, 3, 0), (3, -1, 0)), 2, 1, 2), "subagent shares must be nonnegative"),
        ((2, ((1, 0, 0), (1, 2, 0)), 2, 1, 2), "every subagent row must sum to exactly 1"),
        ((1, ((1, 0, 0), (1, 0, 0)), 2, 1, 2), "item column 0 must sum to exactly 1"),
        ((0, ((0, 0, 0), (0, 0, 0)), 2, 1, 2), "subagent matrix scale must be at least 1"),
        ((1, (), 0, 0, 0), EMPTY),
        ((1, (), 1, 0, 1), EMPTY),
        ((1, ((1,),), 1, 1, 0), EMPTY),
    ],
)
def test_subagent_matrix_messages(entries, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        SubagentMatrix(*entries)


def test_decomposed_lottery_messages(two_agent):
    decomposed = birkhoff_decompose(expand_subagents(fa.gpbm(two_agent).per_round))
    # rows: (1/2, 1/2, 0, 0 | 0), (0, 1/2, 0, 1/2 | 0), (1/2, 0, 1/2, 0 | 0), (0, 0, 1/2, 1/2 | 0)
    h = F(1, 2)
    cases = [
        (((F(0), (0, 1, 2, 3)), (F(1), (1, 3, 0, 2))), "decomposition coefficients must be positive"),
        (((F(1), (0, 1, 2)),), "an atom does not match every subagent"),
        (((F(1), (None, 1, 2, 3)),), "subagent row 0 matched to nil without nil share"),
        (((F(1), (2, 1, 0, 3)),), "atom uses pair (row 0, item 2) with zero share"),
        (((F(1), (0, 1, 0, 3)),), "item 0 matched twice within one atom"),
        (((h, (0, 1, 2, 3)),), "decomposition coefficients sum to 1/2, expected 1"),
        (((F(1), (0, 1, 2, 3)),), "coefficient-weighted matchings do not reconstruct the matrix"),
    ]
    for atoms, message in cases:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            DecomposedLottery(decomposed.source, atoms)
    odd = fa.Instance.from_prefs({"1": ["x", "y", "z"], "2": ["x", "z", "y"]})
    source = expand_subagents(fa.gpbm(odd).per_round)
    # rows: (1/2, 1/2, 0 | 0), (0, 1/2, 0 | 1/2), (1/2, 0, 1/2 | 0), (0, 0, 1/2 | 1/2)
    with pytest.raises(InputError, match="^an atom leaves some item unmatched$"):
        DecomposedLottery(source, ((F(1), (0, None, 2, None)),))


def test_round_matchings_respect_support(two_agent, four_agent):
    for inst in (two_agent, four_agent):
        outcome = fa.gpbm(inst)
        decomposed = birkhoff_decompose(expand_subagents(outcome.per_round))
        for i in range(decomposed.atom_count):
            stages = decomposed.atom_round_matchings(i)
            for c, stage in enumerate(stages):
                for j in range(inst.agent_count):
                    for o in stage.bundles[j]:
                        assert outcome.per_round.rounds[c].entry(j, o) > 0
            # the round matchings sum to the atom's assignment
            rows = [stage.rows for stage in stages]
            total = tuple(tuple(map(sum, zip(*agent_rows))) for agent_rows in zip(*rows))
            assert total == decomposed.atom_assignment(i).rows


def test_round_item_sets(two_agent):
    decomposed = birkhoff_decompose(expand_subagents(fa.gpbm(two_agent).per_round))
    for i in range(decomposed.atom_count):
        sets = decomposed.atom_round_item_sets(i)
        assert sets[0] == frozenset(range(4))
        first_round = decomposed.atom_round_matchings(i)[0]
        allocated = {o for b in first_round.bundles for o in b}
        assert sets[1] == frozenset(range(4)) - allocated


def test_sample_realization_single_atom(conflict):
    decomposed = birkhoff_decompose(expand_subagents(fa.gpbm(conflict).per_round))
    assert sample_realization(decomposed, 11) == 0


def test_sample_realization_example_draw(two_agent):
    decomposed = birkhoff_decompose(expand_subagents(fa.gpbm(two_agent).per_round))
    index = sample_realization(decomposed, 0)
    assignment = decomposed.atom_assignment(index)
    assert assignment.bundles[0] == frozenset({0, 1})  # 1 gets {a, b}
    assert assignment.bundles[1] == frozenset({2, 3})
    first_round = decomposed.atom_round_matchings(index)[0]
    assert first_round.bundles[0] == frozenset({0})  # round 1: 1 <- a
    assert first_round.bundles[1] == frozenset({2})  # round 1: 2 <- c


def test_sample_realization_frequencies(two_agent):
    decomposed = birkhoff_decompose(expand_subagents(fa.gpbm(two_agent).per_round))
    draws = 100_000
    counts: Counter = Counter()
    for seed in range(draws):
        counts[sample_realization(decomposed, seed)] += 1
    for i, (coefficient, _) in enumerate(decomposed.atoms):
        freq = counts[i] / draws
        spread = 3 * (float(coefficient) * (1 - float(coefficient)) / draws) ** 0.5
        assert abs(freq - float(coefficient)) <= spread


def test_full_pipeline(two_agent, four_agent):
    for inst, expected_atoms in ((two_agent, 2), (four_agent, None)):
        lottery, decomposed = gpbm_lottery(inst)
        if expected_atoms is not None:
            assert lottery.atom_count == expected_atoms
        assert lottery.expected() == fa.gpbm(inst).total
        assert lottery == decomposed.projected


def test_round_matchings_favor_ranks_in_both_domains(two_agent, four_agent):
    # primary reading: global ranks; secondary diagnostic: ranks restricted to
    # the items still unallocated at the round's start
    for inst in (two_agent, four_agent):
        decomposed = birkhoff_decompose(expand_subagents(fa.gpbm(inst).per_round))
        for i in range(decomposed.atom_count):
            stages = decomposed.atom_round_matchings(i)
            domains = decomposed.atom_round_item_sets(i)
            for stage, domain in zip(stages, domains):
                assert fa.check_fhr(inst, stage).verdict
                assert fa.check_fhr(inst, stage, domain).verdict


def test_full_pipeline_single_agent():
    inst = fa.Instance.from_prefs({"1": ["x", "y", "z"]})
    lottery, decomposed = gpbm_lottery(inst)
    assert lottery.atom_count == 1
    assert decomposed.atom_count == 1
    assert lottery.atoms[0][1].bundles[0] == frozenset({0, 1, 2})
