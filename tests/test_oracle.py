import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audit_reference
import fairassign as fa
from fairassign.mechanisms import _gpbm_report_classes
from fairassign.model import InputError, SizeLimitError, _trusted
from fairassign.oracle import (
    default_item_names,
    enumerate_assignments,
    fcm_bruteforce_max,
    instance_from_orders,
    neutrality_audit,
    pe_bruteforce,
    remark1_search,
    sd_wsp_audit,
)

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
# enumeration


def test_enumerate_counts(two_agent):
    inst = fa.Instance.from_prefs({"1": ["x", "y"], "2": ["y", "x"]})
    assert sum(1 for _ in enumerate_assignments(inst)) == 4
    single = fa.Instance.from_prefs({"1": ["x"]})
    assert sum(1 for _ in enumerate_assignments(single)) == 1


def test_enumerate_cap(two_agent):
    with pytest.raises(SizeLimitError):
        list(enumerate_assignments(two_agent, cap=3))


def test_enumerate_yields_complete(two_agent):
    for assignment in enumerate_assignments(two_agent):
        assert assignment.is_complete


# ---------------------------------------------------------------------------
# brute-force efficiency and the acyclicity equivalence


def test_pe_bruteforce_examples(conflict):
    assert pe_bruteforce(conflict, bundles(conflict, {"1": ["a", "b"], "2": ["c", "d"]}))
    assert not pe_bruteforce(conflict, bundles(conflict, {"1": ["c", "d"], "2": ["a", "b"]}))
    single = fa.Instance.from_prefs({"1": ["x", "y"]})
    full = fa.DeterministicAssignment.from_bundles(1, 2, {0: [0, 1]})
    assert pe_bruteforce(single, full)


def test_pe_equivalence_exhaustive_small_instances():
    # every instance with n <= 2, m <= 4: all profiles x all complete assignments
    for n in (1, 2):
        for m in (1, 2, 3, 4):
            orders = list(itertools.permutations(range(m)))
            for profile in itertools.product(orders, repeat=n):
                inst = instance_from_orders(profile, m)
                for assignment in enumerate_assignments(inst):
                    assert (
                        fa.check_pe_acyclic(inst, assignment).verdict
                        == pe_bruteforce(inst, assignment)
                    )


def test_pe_equivalence_random_three_agent():
    rng = random.Random(90125)
    for _ in range(60):
        m = rng.randrange(2, 6)
        orders = []
        for _ in range(3):
            order = list(range(m))
            rng.shuffle(order)
            orders.append(tuple(order))
        inst = instance_from_orders(orders, m)
        owners = [rng.randrange(3) for _ in range(m)]
        rows = [[0] * m for _ in range(3)]
        for o, j in enumerate(owners):
            rows[j][o] = 1
        assignment = fa.DeterministicAssignment(tuple(tuple(r) for r in rows))
        assert (
            fa.check_pe_acyclic(inst, assignment).verdict
            == pe_bruteforce(inst, assignment)
        )


def test_fcm_bruteforce_matches_closed_form(two_agent, four_agent, conflict):
    for inst in (two_agent, four_agent, conflict):
        assert fcm_bruteforce_max(inst) == fa.fcm_max(inst)


# ---------------------------------------------------------------------------
# misreport auditing


def test_sp_audit_eager(conflict):
    witness = sd_wsp_audit("gebm", conflict)
    assert witness is not None
    assert conflict.agents[witness.agent].name == "2"
    assert [conflict.items[o] for o in witness.misreport] == ["a", "b", "d", "c"]
    assert witness.truthful_row == (F(0), F(1, 2), F(1, 2), F(1))
    assert witness.manipulated_row == (F(1, 2), F(1, 2), F(0), F(1))
    assert witness.replay()


def test_sp_audit_eating(conflict):
    witness = sd_wsp_audit("gpbm", conflict)
    assert witness is not None
    assert conflict.agents[witness.agent].name == "2"
    assert witness.truthful_row == (F(0), F(0), F(1), F(1))
    assert witness.manipulated_row == (F(1, 2), F(1, 2), F(0), F(1))
    assert witness.replay()


def test_sp_audit_single_agent():
    inst = fa.Instance.from_prefs({"1": ["x", "y", "z"]})
    assert sd_wsp_audit("gebm", inst) is None
    assert sd_wsp_audit("gpbm", inst) is None


def test_sp_audit_item_cap(fhr_gap):
    with pytest.raises(SizeLimitError):
        sd_wsp_audit("gebm", fhr_gap)  # 8 items > default cap of 6


def test_sp_witness_payload(conflict):
    witness = sd_wsp_audit("gpbm", conflict)
    payload = witness.to_payload()
    assert payload["agent"] == "2"
    assert payload["truthful_row"] == ["0", "0", "1", "1"]
    trace = payload["dominance_trace"]
    assert trace[0]["item"] == "d"
    assert [step["cumulative_manipulated"] for step in trace] == ["1", "3/2", "2", "2"]
    assert [step["cumulative_truthful"] for step in trace] == ["1", "1", "1", "2"]


@st.composite
def profiles_with_clones(draw):
    """Profiles of 2-4 agents over 1-4 items with fewer distinct orders than
    agents, so that some agent's true order repeats an earlier agent's."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 4))
    distinct = [draw(st.permutations(range(m))) for _ in range(draw(st.integers(1, n - 1)))]
    orders = [draw(st.sampled_from(distinct)) for _ in range(n)]
    return instance_from_orders(orders, m)


def _payload(witness):
    return None if witness is None else witness.to_payload()


@settings(max_examples=80, deadline=None)
@given(profiles_with_clones(), st.sampled_from(["gebm", "gpbm"]))
def test_sp_audit_skipping_clones_matches_full_scan(instance, mechanism):
    assert _payload(sd_wsp_audit(mechanism, instance)) == _payload(
        audit_reference.sd_wsp_audit(mechanism, instance)
    )


def test_sp_audit_scans_one_agent_per_distinct_order(monkeypatch):
    # three clones and one other agent: the audit runs gpbm once truthfully
    # and walks the misreports of agents 1 and 4 only; the full scan runs it
    # once truthfully and for the 23 misreports of every agent
    inst = instance_from_orders([[0, 1, 2, 3]] * 3 + [[2, 0, 1, 3]], 4)
    calls = []
    walked = []
    monkeypatch.setattr(
        "fairassign.oracle.gpbm", lambda instance, **kw: calls.append(1) or fa.gpbm(instance, **kw)
    )
    monkeypatch.setattr(
        "fairassign.oracle._gpbm_report_classes",
        lambda instance, agent: walked.append(agent) or _gpbm_report_classes(instance, agent),
    )
    assert sd_wsp_audit("gpbm", inst) is None
    assert (len(calls), walked) == (1, [0, 3])
    assert audit_reference.sd_wsp_audit("gpbm", inst) is None
    assert len(calls) == 1 + (1 + 4 * 23)


@st.composite
def small_profiles(draw, min_items=1):
    """Profiles of 1-4 agents over min_items-5 items: impartial culture, or
    orders drawn from a few distinct ones, so that clones are common."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(min_items, 5))
    if draw(st.booleans()):
        return instance_from_orders([draw(st.permutations(range(m))) for _ in range(n)], m)
    pool = [draw(st.permutations(range(m))) for _ in range(draw(st.integers(1, n)))]
    return instance_from_orders([draw(st.sampled_from(pool)) for _ in range(n)], m)


@settings(max_examples=60, deadline=None)
@given(small_profiles())
def test_gpbm_report_classes_match_every_member(instance):
    # each class is the next (m - k)! reports of itertools.permutations, and
    # gpbm run on every one of them gives the agent the class's row
    m = instance.item_count
    for agent in range(instance.agent_count):
        classes = list(_gpbm_report_classes(instance, agent))
        prefixes = [prefix for prefix, _, _ in classes]
        assert prefixes == sorted(prefixes)
        assert sum(math.factorial(m - len(prefix)) for prefix in prefixes) == math.factorial(m)
        reports = itertools.permutations(range(m))
        for prefix, scale, row in classes:
            shares = tuple(F(v, scale) for v in row)
            for report in itertools.islice(reports, math.factorial(m - len(prefix))):
                assert report[: len(prefix)] == prefix
                manipulated = instance.with_agent_order(agent, report)
                assert fa.gpbm(manipulated, keep_trace=False).total.row(agent) == shares
        assert next(reports, None) is None


@settings(max_examples=60, deadline=None)
@given(small_profiles(min_items=4))
def test_gpbm_sp_audit_matches_full_scan_up_to_five_items(instance):
    # witnesses are common at four and five items
    assert _payload(sd_wsp_audit("gpbm", instance)) == _payload(
        audit_reference.sd_wsp_audit("gpbm", instance)
    )


class _RecordedOrder(tuple):
    """A preference order that records every position read from it by index."""

    def __getitem__(self, position):
        self.read.add(position)
        return tuple.__getitem__(self, position)


def test_gpbm_report_classes_branch_only_where_gpbm_reads():
    # a walk that branched before the run reads a position would stay exact
    # but yield more classes than there are distinct read prefixes
    rng = random.Random(13)
    inst = instance_from_orders([rng.sample(range(5), 5) for _ in range(4)], 5)
    for agent in range(inst.agent_count):
        read_prefixes = set()
        for report in itertools.permutations(range(5)):
            order = _RecordedOrder(report)
            order.read = set()
            orders = inst.pref_order[:agent] + (order,) + inst.pref_order[agent + 1 :]
            fa.gpbm(_trusted(fa.Instance, inst.items, inst.agent_names, orders), keep_trace=False)
            assert order.read == set(range(len(order.read)))  # gpbm reads a prefix
            read_prefixes.add(report[: len(order.read)])
        prefixes = [prefix for prefix, _, _ in _gpbm_report_classes(inst, agent)]
        assert len(prefixes) == len(read_prefixes) < 120
        assert set(prefixes) == read_prefixes


# ---------------------------------------------------------------------------
# neutrality auditing


def test_neutrality_eating_swap(two_agent):
    swap = {0: 0, 1: 1, 2: 3, 3: 2}
    assert neutrality_audit("gpbm", two_agent, swap).verdict


def test_neutrality_eager_identity(two_agent):
    identity = {o: o for o in range(4)}
    assert neutrality_audit("gebm", two_agent, identity).verdict


def test_neutrality_on_misreport_family(conflict):
    # the impossibility argument's relabeling: both mechanisms stay neutral
    misreport = conflict.with_agent_order(1, (0, 1, 3, 2))
    swap = {0: 0, 1: 1, 2: 3, 3: 2}
    for mechanism in ("gebm", "gpbm"):
        assert neutrality_audit(mechanism, misreport, swap).verdict
        assert neutrality_audit(mechanism, conflict, swap).verdict


def test_neutrality_all_transpositions(two_agent, four_agent):
    for inst in (two_agent, four_agent):
        for a in range(inst.item_count):
            for b in range(a + 1, inst.item_count):
                perm = {o: o for o in range(inst.item_count)}
                perm[a], perm[b] = b, a
                assert neutrality_audit("gpbm", inst, perm).verdict


# ---------------------------------------------------------------------------
# counterexample search


def test_search_square_three_finds_no_efficiency_failure():
    # exhaustive fact: no 3-agent, 3-item profile breaks ex-ante efficiency
    assert remark1_search(3, 3, properties=("sde",)) is None


def test_search_square_three_finds_envy_failure():
    found = remark1_search(3, 3)
    assert found is not None
    instance, prop = found
    assert prop == "sdef"
    expected = fa.gebm_expected(instance)
    assert not fa.check_sd_ef(instance, expected).verdict


def test_search_two_agent_three_item_efficiency_failure():
    found = remark1_search(2, 3, properties=("sde",))
    assert found is not None
    instance, prop = found
    assert prop == "sde"
    assert not fa.check_sde_acyclic(instance, fa.gebm_expected(instance)).verdict


def test_search_trivial_bound():
    assert remark1_search(1, 1) is None


@pytest.mark.parametrize("bounds", [(-1, -1), (0, 3), (3, 0)])
def test_search_rejects_bound_below_one(bounds, monkeypatch):
    # the bounds fail before any profile is built
    monkeypatch.setattr(fa.oracle, "_trusted", None)
    with pytest.raises(InputError, match="bounds must be at least 1"):
        remark1_search(*bounds)


def test_search_profile_cap():
    with pytest.raises(SizeLimitError):
        remark1_search(3, 3, max_profiles=10)


@pytest.mark.parametrize(
    "orders,item_count,message",
    [
        ([[0, 5]], 2, "preferences of agent '1' are not a permutation of the item set"),
        ([[0, -1]], 2, "preferences of agent '1' are not a permutation of the item set"),
        ([[0, 1], [1, 1]], 2, "preferences of agent '2' are not a permutation of the item set"),
        ([[0, 1], [1]], 2, "preferences of agent '2' are not a permutation of the item set"),
        ([[0.0, 1.0]], 2, "preferences of agent '1' are not a permutation of the item set"),
        ([], 2, "an instance needs at least one agent"),
        ([[]], 0, "an instance needs at least one item"),
    ],
)
def test_instance_from_orders_rejects_bad_orders(orders, item_count, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        instance_from_orders(orders, item_count)


def test_default_item_names():
    assert default_item_names(3) == ("a", "b", "c")
    wide = default_item_names(30)
    assert wide[0] == "o01" and wide[-1] == "o30"
