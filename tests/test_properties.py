from fractions import Fraction

import pytest

import fairassign as fa
from fairassign.model import InputError
from fairassign.oracle import instance_from_orders, pe_bruteforce

F = Fraction


def bundles(instance, mapping):
    by_index = {
        instance.agent_index[name]: [instance.item_index[i] for i in items]
        for name, items in mapping.items()
    }
    return fa.DeterministicAssignment.from_bundles(
        instance.agent_count, instance.item_count, by_index
    )


# ---------------------------------------------------------------------------
# Pareto efficiency (acyclicity route)


def test_pe_efficient_assignments(conflict):
    for mapping in (
        {"1": ["a", "b"], "2": ["c", "d"]},
        {"1": ["a", "c"], "2": ["b", "d"]},
        {"1": ["b", "c"], "2": ["a", "d"]},
    ):
        assert fa.check_pe_acyclic(conflict, bundles(conflict, mapping)).verdict


def test_pe_cycle_detected(conflict):
    report = fa.check_pe_acyclic(conflict, bundles(conflict, {"1": ["b", "d"], "2": ["a", "c"]}))
    assert not report.verdict
    cycle = report.witness["cycle"]
    assert cycle[0] == cycle[-1] and len(cycle) >= 3
    # replay the witness: each consecutive edge is a real improvement edge
    assignment = bundles(conflict, {"1": ["b", "d"], "2": ["a", "c"]})
    for src, dst in zip(cycle, cycle[1:]):
        o = conflict.item_index[src]
        o2 = conflict.item_index[dst]
        holder = assignment.holders[o]
        assert conflict.global_rank[holder][o2] < conflict.global_rank[holder][o]


def test_pe_single_agent():
    inst = fa.Instance.from_prefs({"1": ["x", "y"]})
    full = fa.DeterministicAssignment.from_bundles(1, 2, {0: [0, 1]})
    assert fa.check_pe_acyclic(inst, full).verdict


def test_pe_requires_complete(two_agent):
    partial = bundles(two_agent, {"1": ["a"]})
    with pytest.raises(InputError):
        fa.check_pe_acyclic(two_agent, partial)


# ---------------------------------------------------------------------------
# ex-ante efficiency


def test_sde_on_eating_output(four_agent):
    assert fa.check_sde_acyclic(four_agent, fa.gpbm(four_agent).total).verdict


def test_sde_matches_pe_on_deterministic(two_agent, conflict):
    for inst in (two_agent, conflict):
        for seed in range(8):
            assignment = fa.gebm_sample(inst, seed).total
            pe = fa.check_pe_acyclic(inst, assignment).verdict
            sde = fa.check_sde_acyclic(inst, assignment.to_random()).verdict
            assert pe == sde


def test_sde_failure_of_eager_mechanism_small_assignment_case():
    # two agents, three items: the exact expected output mixes branches into a cycle
    inst = instance_from_orders([(0, 1, 2), (0, 2, 1)], 3)
    expected = fa.gebm_expected(inst)
    report = fa.check_sde_acyclic(inst, expected)
    assert not report.verdict


def test_sde_failure_of_eager_mechanism_matching_case():
    # four agents, four items; the smallest square case with an sd-E cycle
    inst = instance_from_orders(
        [(0, 2, 3, 1), (0, 3, 2, 1), (1, 2, 3, 0), (1, 3, 2, 0)], 4
    )
    report = fa.check_sde_acyclic(inst, fa.gebm_expected(inst))
    assert not report.verdict
    assert set(report.witness["cycle"]) == {"c", "d"}


# ---------------------------------------------------------------------------
# first-choice maximality


def test_fcm_two_agent_final(two_agent):
    final = bundles(two_agent, {"1": ["a", "b"], "2": ["c", "d"]})
    assert fa.check_fcm(two_agent, final).verdict
    assert fa.fcm_count(two_agent, final) == 1
    assert fa.fcm_max(two_agent) == 1


def test_fcm_violation(conflict):
    # item a is agent 1's first choice but goes to agent 2, whose first choice is d
    report = fa.check_fcm(conflict, bundles(conflict, {"1": ["b", "c"], "2": ["a", "d"]}))
    assert not report.verdict
    assert report.witness == {"item": "a", "holder": "2"}


def test_fcm_max_four_agent(four_agent):
    assert fa.fcm_max(four_agent) == 2  # items a and d


# ---------------------------------------------------------------------------
# envy-freeness up to one item


def test_ef1_identical_block_pick_fails(identical):
    report = fa.check_ef1(identical, bundles(identical, {"1": ["a", "b"], "2": ["c", "d"]}))
    assert not report.verdict
    assert report.witness == {"envious": "2", "envied": "1"}


def test_ef1_two_agent_final(two_agent):
    assert fa.check_ef1(two_agent, bundles(two_agent, {"1": ["a", "b"], "2": ["c", "d"]})).verdict


def test_ef1_witness_replay(identical):
    assignment = bundles(identical, {"1": ["a", "b"], "2": ["c", "d"]})
    report = fa.check_ef1(identical, assignment)
    j = identical.agent_index[report.witness["envious"]]
    k = identical.agent_index[report.witness["envied"]]
    own = tuple(F(h == j) for h in assignment.holders)
    for removed in assignment.bundles[k]:
        reduced = tuple(F(h == k and o != removed) for o, h in enumerate(assignment.holders))
        assert not fa.sd_dominates(identical.pref_order[j], own, reduced)


def test_ef1_empty_bundles(two_agent):
    # one agent holds everything except one item; the loner passes vacuously
    assignment = bundles(two_agent, {"1": ["a"], "2": []})
    partial_ok = fa.check_ef1(two_agent, assignment)
    assert partial_ok.verdict  # removing "a" leaves empty vs empty


# ---------------------------------------------------------------------------
# ex-ante envy


def test_sd_wef_four_agent_witness(four_agent):
    report = fa.check_sd_wef(four_agent, fa.gpbm(four_agent).total)
    assert not report.verdict
    assert report.witness == {"envious": "3", "envied": "1"}


def test_sd_wef_eager_expected(two_agent):
    assert fa.check_sd_wef(two_agent, fa.gebm_expected(two_agent)).verdict


def test_sd_ef_uniform_identical(identical):
    uniform = fa.RandomAssignment(
        tuple(tuple(F(1, 2) for _ in range(4)) for _ in range(2))
    )
    assert fa.check_sd_ef(identical, uniform).verdict
    assert fa.check_sd_wef(identical, uniform).verdict


def test_sd_envy_checks_reject_mismatched_shapes(two_agent):
    h = F(1, 2)
    wide = fa.RandomAssignment(((1, h, 1, 0, 1), (0, h, 0, 1, 0)))
    tall = fa.RandomAssignment(((1, 0, 0, 0), (0, h, h, h), (0, h, h, h)))
    narrow = fa.RandomAssignment(((1, h, 0), (0, h, 1)))
    short = fa.RandomAssignment(((1, 1, 1, 1),))
    for matrix in (wide, tall, narrow, short):
        assert matrix.is_fully_allocating
        for check in (fa.check_sd_wef, fa.check_sd_ef, fa.check_sde_acyclic):
            with pytest.raises(InputError, match="shape"):
                check(two_agent, matrix)


def test_deterministic_checkers_reject_mismatched_shapes():
    # without the shape check, check_pe_acyclic passes `narrow` and `short`,
    # check_fcm passes `wide` and `tall`, pe_bruteforce passes `short`,
    # check_fhr passes `narrow` and `tall`, check_feri passes `tall`, and
    # fcm_count returns a count for all four; the rest fail with other errors
    instance = instance_from_orders([[0, 1, 2], [1, 0, 2]], 3)
    narrow = fa.DeterministicAssignment.from_bundles(2, 2, {0: [0, 1]})
    wide = fa.DeterministicAssignment.from_bundles(2, 4, {0: [0, 3], 1: [1, 2]})
    tall = fa.DeterministicAssignment.from_bundles(3, 3, {0: [0], 1: [1], 2: [2]})
    short = fa.DeterministicAssignment.from_bundles(1, 3, {0: [0, 1, 2]})
    for assignment in (narrow, wide, tall, short):
        assert assignment.is_complete
        checks = (
            fa.check_pe_acyclic,
            fa.check_fcm,
            fa.check_ef1,
            pe_bruteforce,
            fa.check_fhr,
            lambda inst, a: fa.check_feri(inst, a, range(inst.item_count)),
            fa.fcm_count,
        )
        for check in checks:
            with pytest.raises(InputError, match="shape does not match the instance"):
                check(instance, assignment)


def test_sd_ef_implies_sd_wef(two_agent, four_agent, conflict):
    for inst in (two_agent, four_agent, conflict):
        matrix = fa.gpbm(inst).total
        if fa.check_sd_ef(inst, matrix).verdict:
            assert fa.check_sd_wef(inst, matrix).verdict


# ---------------------------------------------------------------------------
# favoring higher ranks


def test_fhr_round_one_matching(two_agent):
    matching = bundles(two_agent, {"1": ["a"], "2": ["c"]})
    assert fa.check_fhr(two_agent, matching).verdict


def test_fhr_gap_instance(fhr_gap):
    # c away from agent 4 (who holds something) breaks the property
    bad = bundles(
        fhr_gap,
        {"1": ["c", "a"], "2": ["b", "e"], "3": ["f", "g"], "4": ["d", "h"]},
    )
    assert not fa.check_fhr(fhr_gap, bad).verdict
    # the canonical split keeps it
    good = bundles(
        fhr_gap,
        {"1": ["a", "e"], "2": ["b", "f"], "3": ["g", "h"], "4": ["c", "d"]},
    )
    assert fa.check_fhr(fhr_gap, good).verdict


def test_fhr_single_agent():
    inst = fa.Instance.from_prefs({"1": ["x", "y"]})
    assignment = fa.DeterministicAssignment.from_bundles(1, 2, {0: [0, 1]})
    assert fa.check_fhr(inst, assignment).verdict


def test_fhr_domain_restriction(two_agent):
    matching = bundles(two_agent, {"1": ["b"], "2": ["d"]})
    domain = [two_agent.item_index["b"], two_agent.item_index["d"]]
    assert fa.check_fhr(two_agent, matching, domain).verdict
    with pytest.raises(InputError):
        fa.check_fhr(two_agent, matching, [two_agent.item_index["b"]])


# ---------------------------------------------------------------------------
# favoring eagerness for remaining items


def test_feri_engine_round(two_agent):
    matching = bundles(two_agent, {"1": ["a"], "2": ["c"]})
    assert fa.check_feri(two_agent, matching, range(4)).verdict


def test_feri_violation(two_agent):
    matching = bundles(two_agent, {"1": ["c"], "2": ["a"]})
    report = fa.check_feri(two_agent, matching, range(4))
    assert not report.verdict
    assert report.witness["item"] == "b"  # demanded next but left unallocated


def test_feri_empty_domain(two_agent):
    empty = fa.DeterministicAssignment.from_bundles(2, 4, {})
    assert fa.check_feri(two_agent, empty, []).verdict


def test_feri_requires_matching(two_agent):
    assignment = bundles(two_agent, {"1": ["a", "b"], "2": ["c", "d"]})
    with pytest.raises(InputError):
        fa.check_feri(two_agent, assignment, range(4))


# ---------------------------------------------------------------------------
# ex-post lifting


def test_expost_eager_lottery(two_agent):
    reports = fa.check_lottery_expost(
        two_agent, fa.gebm_lottery(two_agent), ["fcm", "pe", "ef1"]
    )
    assert all(r.verdict for r in reports.values())


def test_expost_eating_lottery(four_agent):
    lottery, _ = fa.gpbm_lottery(four_agent)
    reports = fa.check_lottery_expost(four_agent, lottery, ["fcm", "pe", "ef1"])
    assert all(r.verdict for r in reports.values())


def test_expost_dictatorship_fails_ef1(identical):
    reports = fa.check_lottery_expost(identical, fa.rsdq_lottery(identical, 2), ["ef1"])
    report = reports["ef1"]
    assert not report.verdict
    assert "atom" in report.witness


def test_expost_unknown_property(two_agent):
    with pytest.raises(InputError):
        fa.check_lottery_expost(two_agent, fa.gebm_lottery(two_agent), ["sparkle"])


def test_report_requires_witness():
    with pytest.raises(InputError):
        fa.PropertyReport("pe", False)
