import time
from collections import Counter
from fractions import Fraction

import pytest

import fairassign as fa
from fairassign.mechanisms import (
    DEFAULT_BRANCH_CAP,
    ModularRng,
    _engine_pass,
    _equal_rate_split,
)
from fairassign import oracle
from fairassign.model import InputError, RoundDecomposition, SizeLimitError

from branch_oracle import enumerate_distribution, expected_shares, lottery_as_bundles

F = Fraction


def bundle_names(instance, assignment, agent):
    return set(instance.items[o] for o in assignment.bundles[agent])


# ---------------------------------------------------------------------------
# matching engine


def test_engine_scripted_first_round(two_agent):
    a, c = two_agent.item_index["a"], two_agent.item_index["c"]
    everything = (1 << 4) - 1
    contested, successor = _engine_pass(two_agent, (0, 0b11, everything))
    # applicants are taken at pass start: the loser of a waits for the next pass
    assert contested == [(a, [0, 1])]
    state = successor([0])
    assert state == (0, 0b10, everything ^ 1 << a)
    contested, successor = _engine_pass(two_agent, state)
    assert contested == [(c, [1])]
    # the round ends with both agents matched; the next one starts over {b, d}
    leftover = 1 << two_agent.item_index["b"] | 1 << two_agent.item_index["d"]
    assert successor([1]) == (1, 0b11, leftover)


def test_engine_scripted_leftover_round(two_agent):
    b, d = two_agent.item_index["b"], two_agent.item_index["d"]
    contested, successor = _engine_pass(two_agent, (1, 0b11, 1 << b | 1 << d))
    assert contested == [(b, [0, 1])]
    state = successor([0])
    assert state == (1, 0b10, 1 << d)
    contested, successor = _engine_pass(two_agent, state)
    assert contested == [(d, [1])]
    assert successor([1]) == (1, 0, 0)  # no items left: final, no new round


def test_engine_single_agent():
    inst = fa.Instance.from_prefs({"1": ["x", "y"]})
    contested, successor = _engine_pass(inst, (0, 0b1, 0b11))
    assert contested == [(0, [0])]
    assert successor([0]) == (1, 0b1, 0b10)


# ---------------------------------------------------------------------------
# multi-round eager mechanism


def test_sample_deterministic(two_agent):
    assert fa.gebm_sample(two_agent, 99) == fa.gebm_sample(two_agent, 99)


def test_sample_seed_winning_both_coins(two_agent):
    # seed 2 hands both contested items to agent 1
    outcome = fa.gebm_sample(two_agent, 2)
    assert bundle_names(two_agent, outcome.total, 0) == {"a", "b"}
    assert bundle_names(two_agent, outcome.total, 1) == {"c", "d"}


def test_sample_single_agent_gets_everything():
    inst = fa.Instance.from_prefs({"1": ["x", "y", "z"]})
    outcome = fa.gebm_sample(inst, 5)
    assert outcome.total.bundles[0] == frozenset({0, 1, 2})
    assert outcome.per_round.round_count == 3
    for stage in outcome.per_round.rounds:
        assert sum(sum(row) for row in stage.rows) == 1


def test_sample_allocates_each_item_once(two_agent):
    for seed in range(25):
        outcome = fa.gebm_sample(two_agent, seed)
        assert outcome.total.is_complete
        sizes = sorted(len(b) for b in outcome.total.bundles)
        assert sizes == [2, 2]


def test_sample_round_structure(two_agent):
    outcome = fa.gebm_sample(two_agent, 3)
    assert outcome.remaining_items_per_round[0] == frozenset(range(4))
    allocated_first = {
        o for row in outcome.per_round.rounds[0].rows for o, v in enumerate(row) if v
    }
    assert outcome.remaining_items_per_round[1] == frozenset(range(4)) - allocated_first


def test_gebm_outcome_rejects_item_in_two_rounds():
    first = fa.DeterministicAssignment.from_bundles(2, 4, {0: (0,), 1: (1,)})
    second = fa.DeterministicAssignment.from_bundles(2, 4, {0: (2,), 1: (0,)})
    with pytest.raises(InputError, match="^two rounds allocate the same item$"):
        fa.GebmOutcome(RoundDecomposition((first, second)))


def test_outcomes_reject_rounds_of_the_other_kind(two_agent):
    with pytest.raises(InputError, match="^gebm rounds must be matchings$"):
        fa.GebmOutcome(fa.gpbm(two_agent).per_round)
    with pytest.raises(InputError, match="^gpbm rounds must be share matrices$"):
        fa.GpbmOutcome(fa.gebm_sample(two_agent, 1).per_round)


def test_lottery_two_agent(two_agent):
    lot = fa.gebm_lottery(two_agent)
    assert lot.atom_count == 4
    assert all(p == F(1, 4) for p, _ in lot.atoms)
    expected = lot.expected()
    assert expected.rows[0] == (F(1, 2), F(3, 4), F(1, 4), F(1, 2))
    assert expected.rows[1] == (F(1, 2), F(1, 4), F(3, 4), F(1, 2))


def test_lottery_matches_independent_enumerator(two_agent, four_agent, conflict):
    for inst in (two_agent, four_agent, conflict):
        assert lottery_as_bundles(inst, fa.gebm_lottery(inst)) == enumerate_distribution(inst)


def test_lottery_matches_independent_enumerator_random():
    import random

    from fairassign.oracle import instance_from_orders

    rng = random.Random(1729)
    for _ in range(25):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 6)
        orders = []
        for _ in range(n):
            order = list(range(m))
            rng.shuffle(order)
            orders.append(tuple(order))
        inst = instance_from_orders(orders, m)
        assert lottery_as_bundles(inst, fa.gebm_lottery(inst)) == enumerate_distribution(inst)


def _identical(agent_count, item_count):
    return oracle.instance_from_orders([range(item_count)] * agent_count, item_count)


def test_lottery_branch_cap_boundary():
    # identical 4x8: 4! tie-break paths in each of the two rounds
    inst = _identical(4, 8)
    assert fa.gebm_lottery(inst, max_branches=576).atom_count == 576
    with pytest.raises(SizeLimitError, match="576 tie-break branches exceed the cap of 575"):
        fa.gebm_lottery(inst, max_branches=575)


def test_lottery_cap_checked_before_enumeration():
    # identical 8x16 has (8!)^2 paths; counting them over the engine states
    # takes milliseconds, where enumerating the first 10^6 took half a minute
    inst = _identical(8, 16)
    started = time.perf_counter()
    with pytest.raises(SizeLimitError) as caught:
        fa.gebm_lottery(inst)
    assert time.perf_counter() - started < 10
    assert "1625702400" in str(caught.value)
    assert str(DEFAULT_BRANCH_CAP) in str(caught.value)


def test_expected_has_no_branch_cap():
    inst = _identical(8, 16)
    assert all(v == F(1, 8) for row in fa.gebm_expected(inst).rows for v in row)


def test_expected_matches_independent_enumerator(two_agent):
    shares = expected_shares(two_agent)
    expected = fa.gebm_expected(two_agent)
    for j, agent in enumerate(two_agent.agents):
        for o, item in enumerate(two_agent.items):
            assert expected.entry(j, o) == shares[agent.name][item]


def test_lottery_conflict_profile(conflict):
    lot = fa.gebm_lottery(conflict)
    atoms = {
        tuple(sorted(bundle_names(conflict, a, 0))): p for p, a in lot.atoms
    }
    assert atoms == {("a", "b"): F(1, 2), ("a", "c"): F(1, 2)}


def test_lottery_identical_two_items():
    inst = fa.Instance.from_prefs({"1": ["x", "y"], "2": ["x", "y"]})
    lot = fa.gebm_lottery(inst)
    assert lot.atom_count == 2
    assert all(v == F(1, 2) for row in lot.expected().rows for v in row)


def test_lottery_branch_cap(two_agent):
    with pytest.raises(SizeLimitError):
        fa.gebm_lottery(two_agent, max_branches=3)


def test_sample_frequencies_match_lottery(two_agent):
    lot = fa.gebm_lottery(two_agent)
    draws = 20_000
    rng_counts: Counter = Counter()
    for seed in range(draws):
        rng_counts[fa.gebm_sample(two_agent, seed).total] += 1
    for prob, assignment in lot.atoms:
        freq = F(rng_counts[assignment], draws)
        spread = 3 * (float(prob) * (1 - float(prob)) / draws) ** 0.5
        assert abs(float(freq) - float(prob)) <= spread


def test_cross_round_ordering_and_feri_on_samples(two_agent, four_agent):
    import fairassign.properties as props

    for inst in (two_agent, four_agent):
        for seed in range(10):
            outcome = fa.gebm_sample(inst, seed)
            stages = outcome.per_round.rounds
            for c in range(len(stages) - 1):
                for j in range(inst.agent_count):
                    mine = outcome.per_round.rounds[c].bundles[j]
                    if not mine:
                        continue
                    my_rank = inst.global_rank[j][next(iter(mine))]
                    for k in range(inst.agent_count):
                        for o in stages[c + 1].bundles[k]:
                            assert my_rank < inst.global_rank[j][o]
            for stage, domain in zip(stages, outcome.remaining_items_per_round):
                assert props.check_feri(inst, stage, domain).verdict


# ---------------------------------------------------------------------------
# probabilistic eating mechanism


def test_equal_rate_split_waterfilling():
    # budgets 1 and 1/3 eat a supply of 1, in units of 1/3: 2/3 and 1/3
    assert _equal_rate_split([3, 1], 3) == (1, [2, 1], 0)
    # two budgets of 1 eat a supply of 1/2, in units of 1/2: the unit halves
    # so that each eats 1/4
    assert _equal_rate_split([2, 2], 1) == (2, [1, 1], 0)
    # budgets of 1/4 leave 1/2 of a supply of 1, in units of 1/4
    assert _equal_rate_split([1, 1], 4) == (1, [1, 1], 2)
    # the unit shrinks by k // gcd(left, k): three eaters of a supply of 1
    # need no new unit; of a supply of 2/3 (units of 1/3) a unit three times
    # smaller, so each eats 2/9; four eaters of a supply of 1/2 (units of 1/4)
    # a unit half the size, so each eats 1/8
    assert _equal_rate_split([3, 3, 3], 3) == (1, [1, 1, 1], 0)
    assert _equal_rate_split([3, 3, 3], 2) == (3, [2, 2, 2], 0)
    assert _equal_rate_split([4, 4, 4, 4], 2) == (2, [1, 1, 1, 1], 0)


def test_eating_two_agent_rounds(two_agent):
    outcome = fa.gpbm(two_agent)
    first, second = outcome.per_round.rounds
    assert first.rows[0] == (F(1, 2), F(1, 2), F(0), F(0))
    assert first.rows[1] == (F(1, 2), F(0), F(1, 2), F(0))
    assert second.rows[0] == (F(0), F(1, 2), F(0), F(1, 2))
    assert second.rows[1] == (F(0), F(0), F(1, 2), F(1, 2))


def test_eating_four_agent_total(four_agent):
    total = fa.gpbm(four_agent).total
    assert total.rows[0] == (F(1, 3), F(1, 2), F(1, 6), F(0))
    assert total.rows[1] == (F(1, 3), F(1, 2), F(1, 6), F(0))
    assert total.rows[2] == (F(1, 3), F(0), F(2, 3), F(0))
    assert total.rows[3] == (F(0), F(0), F(0), F(1))


def test_eating_conflict_is_deterministic(conflict):
    total = fa.gpbm(conflict).total
    assert all(v in (F(0), F(1)) for row in total.rows for v in row)
    assert total.rows[0] == (F(1), F(1), F(0), F(0))
    assert total.rows[1] == (F(0), F(0), F(1), F(1))


def test_eating_conservation(four_agent, two_agent):
    for inst in (four_agent, two_agent):
        outcome = fa.gpbm(inst)
        for o in range(inst.item_count):
            assert sum(row[o] for row in outcome.total.rows) == F(1)
        assert outcome.per_round.round_count == inst.rounds_needed


def test_eating_trace(two_agent):
    trace = fa.gpbm(two_agent).supply_trace
    first = trace[0]
    assert (first.round_index, first.consumption_round) == (1, 1)
    assert first.item == two_agent.item_index["a"]
    assert first.consumers == (0, 1)
    assert first.amounts == (F(1, 2), F(1, 2))
    # trace totals reproduce the matrix
    total = {(j, step.item): F(0) for step in trace for j in step.consumers}
    for step in trace:
        for j, amount in zip(step.consumers, step.amounts):
            total[(j, step.item)] += amount
    outcome = fa.gpbm(two_agent)
    for (j, o), amount in total.items():
        assert outcome.total.entry(j, o) == amount


def test_eating_outcome_invariants():
    def outcome_of(*rows_per_round):
        stages = tuple(fa.RandomAssignment(rows) for rows in rows_per_round)
        return fa.GpbmOutcome(RoundDecomposition(stages))

    h, q = F(1, 2), F(1, 4)
    with pytest.raises(InputError, match="item column 0 does not sum to 1"):
        outcome_of(((h, h, 0, 0), (q, 0, h, q)), ((0, h, 0, h), (0, 0, h, q)))
    with pytest.raises(InputError, match="agent 1 consumed 3/4 in non-final round 1"):
        outcome_of(((h, h, 0), (h, 0, q)), ((0, h, q), (0, 0, h)))


def test_eating_per_round_efficiency(two_agent, four_agent, conflict):
    import fairassign.properties as props

    for inst in (two_agent, four_agent, conflict):
        outcome = fa.gpbm(inst)
        for stage in outcome.per_round.rounds:
            report = props.check_sde_acyclic(inst, stage, require_fully_allocating=False)
            assert report.verdict


# ---------------------------------------------------------------------------
# quota dictatorship


def test_dictatorship_identical(identical):
    first = fa.rsdq(identical, [0, 1], 2)
    assert bundle_names(identical, first, 0) == {"a", "b"}
    assert bundle_names(identical, first, 1) == {"c", "d"}
    second = fa.rsdq(identical, [1, 0], 2)
    assert bundle_names(identical, second, 0) == {"c", "d"}
    assert bundle_names(identical, second, 1) == {"a", "b"}


def test_dictatorship_single_agent():
    inst = fa.Instance.from_prefs({"1": ["x", "y", "z"]})
    assert fa.rsdq(inst, [0], 2).bundles[0] == frozenset({0, 1})


def test_dictatorship_default_quota(two_agent):
    assert fa.rsdq(two_agent, [0, 1]) == fa.rsdq(two_agent, [0, 1], 2)


def test_dictatorship_validation(two_agent):
    with pytest.raises(InputError):
        fa.rsdq(two_agent, [0, 0])
    with pytest.raises(InputError):
        fa.rsdq(two_agent, [0, 1], 0)


def test_dictatorship_lottery(identical):
    lot = fa.rsdq_lottery(identical, 2)
    assert lot.atom_count == 2
    assert all(p == F(1, 2) for p, _ in lot.atoms)


def test_modular_rng_stability():
    rng = ModularRng(7)
    first = [rng.below(10) for _ in range(6)]
    rng2 = ModularRng(7)
    assert first == [rng2.below(10) for _ in range(6)]
    values = list(range(8))
    ModularRng(3).shuffle(values)
    assert sorted(values) == list(range(8))
