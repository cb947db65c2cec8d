import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairassign as fa
from fairassign.decomposition import expand_subagents
from fairassign.model import (
    InputError,
    RoundDecomposition,
    format_fraction,
    parse_fraction,
    permute_instance,
    permute_lottery,
    permute_random,
    row_key,
)
from profile_strategies import profiles

F = Fraction


# ---------------------------------------------------------------------------
# dominance


def test_sd_reflexive():
    p = (F(1, 2), F(1, 4), F(1, 4), F(0))
    assert fa.sd_dominates((0, 1, 2, 3), p, p)


def test_sd_on_eating_output(four_agent):
    total = fa.gpbm(four_agent).total
    order3 = four_agent.pref_order[2]
    assert total.row(0) != total.row(2)
    assert fa.sd_dominates(order3, total.row(0), total.row(2))


def test_sd_rejects_worse_top():
    order = (0, 1, 2, 3)
    p = (F(0), F(1), F(0), F(0))
    q = (F(1), F(0), F(0), F(0))
    assert not fa.sd_dominates(order, p, q)


def test_lex_strict():
    p = (F(1, 2), F(1, 2), F(0), F(0))
    assert not fa.lex_dominates((0, 1, 2, 3), p, p)
    q = (F(1, 2), F(0), F(1, 2), F(0))
    assert fa.lex_dominates((0, 1, 2, 3), p, q)


def test_lex_indicator_bundles():
    # order d > a > b > c; {b, d} beats {a, c}
    order = (3, 0, 1, 2)
    p = (F(0), F(1), F(0), F(1))
    q = (F(1), F(0), F(1), F(0))
    assert fa.lex_dominates(order, p, q)


def test_dominance_dimension_mismatch():
    with pytest.raises(InputError):
        fa.sd_dominates((0, 1), (F(1),), (F(1), F(0)))
    with pytest.raises(InputError):
        fa.lex_dominates((0, 0, 1), (F(1), F(0), F(0)), (F(1), F(0), F(0)))


rationals = st.fractions(min_value=0, max_value=1, max_denominator=12)
vectors = st.tuples(rationals, rationals, rationals, rationals)
orders = st.permutations(range(4)).map(tuple)


@given(orders, vectors)
def test_sd_reflexive_lex_irreflexive(order, p):
    assert fa.sd_dominates(order, p, p)
    assert not fa.lex_dominates(order, p, p)


@given(orders, vectors, vectors)
def test_sd_antisymmetry(order, p, q):
    if fa.sd_dominates(order, p, q) and fa.sd_dominates(order, q, p):
        assert p == q


@given(orders, vectors, vectors)
def test_sd_implies_lex_on_distinct(order, p, q):
    if p != q and fa.sd_dominates(order, p, q):
        assert fa.lex_dominates(order, p, q)
        assert not fa.sd_dominates(order, q, p)


@given(orders, vectors, vectors)
def test_lex_total_on_distinct(order, p, q):
    if p != q:
        assert fa.lex_dominates(order, p, q) != fa.lex_dominates(order, q, p)


def _lex_improvement(rng, order, q):
    pivot_pos = rng.randrange(len(order))
    pivot = order[pivot_pos]
    p = list(q)
    p[pivot] = q[pivot] + F(rng.randrange(1, 5), rng.randrange(1, 7))
    for pos in range(pivot_pos + 1, len(order)):
        p[order[pos]] = F(rng.randrange(0, 5), rng.randrange(1, 7))
    return tuple(p)


def test_summation_preserves_lex_dominance():
    # families where each part is equal or lex-better must sum lex-better
    rng = random.Random(20240)
    order = (2, 0, 3, 1)
    for _ in range(500):
        parts = rng.randrange(1, 6)
        total_p = [F(0)] * 4
        total_q = [F(0)] * 4
        for _ in range(parts):
            q = tuple(F(rng.randrange(0, 5), rng.randrange(1, 7)) for _ in range(4))
            p = q if rng.random() < 0.4 else _lex_improvement(rng, order, q)
            assert p == q or fa.lex_dominates(order, p, q)
            total_p = [a + b for a, b in zip(total_p, p)]
            total_q = [a + b for a, b in zip(total_q, q)]
        if total_p != total_q:
            assert fa.lex_dominates(order, tuple(total_p), tuple(total_q))


# ---------------------------------------------------------------------------
# core types


def test_public_names_resolve():
    assert len(set(fa.__all__)) == len(fa.__all__)
    for name in fa.__all__:
        assert hasattr(fa, name), name


def test_assignment_column_constraint():
    with pytest.raises(InputError):
        fa.DeterministicAssignment(((1, 0), (1, 0)))
    with pytest.raises(InputError):
        fa.DeterministicAssignment.from_bundles(2, 2, {0: [0], 1: [0]})


def _validated(items, agent_names, orders):
    """The instance with these index orders, built by the public, validating
    constructor from item-name orders."""
    return fa.Instance.from_prefs(
        {name: [items[o] for o in order] for name, order in zip(agent_names, orders)}, items
    )


def _assert_same_instance(built, validated):
    assert built == validated and hash(built) == hash(validated)
    for view in ("pref_order", "global_rank", "better_masks", "agents"):
        assert getattr(built, view) == getattr(validated, view)
    assert fa.serialize_instance(built) == fa.serialize_instance(validated)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_trusted_instances_equal_the_validated_route(data):
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 8))
    orders = [data.draw(st.permutations(range(m))) for _ in range(n)]
    instance = fa.oracle.instance_from_orders(orders, m)
    items, names = fa.oracle.default_item_names(m), tuple(str(j + 1) for j in range(n))
    _assert_same_instance(instance, _validated(items, names, orders))

    agent = data.draw(st.integers(0, n - 1))
    order = data.draw(st.permutations(range(m)))
    replaced = [order if j == agent else other for j, other in enumerate(orders)]
    misreport = instance.with_agent_order(agent, order)
    _assert_same_instance(misreport, _validated(items, names, replaced))
    _assert_same_instance(instance, _validated(items, names, orders))  # left unchanged

    perm = dict(enumerate(data.draw(st.permutations(range(m)))))
    relabelled = [[perm[o] for o in order] for order in orders]
    _assert_same_instance(permute_instance(instance, perm), _validated(items, names, relabelled))


def test_with_agent_order_rejects_unknown_agents(two_agent):
    assert two_agent.with_agent_order(1, (3, 2, 1, 0)).pref_order[1] == (3, 2, 1, 0)
    for agent in (2, 5, -1):
        with pytest.raises(InputError, match=f"agent index {agent} out of range"):
            two_agent.with_agent_order(agent, (3, 2, 1, 0))


def test_with_agent_order_rejects_bad_orders(two_agent):
    bad = ((0, 1, 2), (0, 1, 2, 2), (0, 1, 2, 4), (-1, 0, 1, 2), tuple("abcd"), (0.0, 1, 2, 3))
    for order in bad:
        with pytest.raises(InputError, match="^replacement order is not a permutation"):
            two_agent.with_agent_order(0, order)


def test_assignment_views(two_agent):
    a = fa.DeterministicAssignment.from_bundles(2, 4, {0: [0, 1], 1: [2, 3]})
    assert a.bundles[0] == frozenset({0, 1})
    assert a.holders == (0, 0, 1, 1)
    assert a.is_complete and not a.is_matching


def test_random_assignment_bounds():
    with pytest.raises(InputError):
        fa.RandomAssignment(((F(3, 2), F(0)), (F(0), F(1))))
    with pytest.raises(InputError):
        fa.RandomAssignment(((F(-1, 2), F(0)), (F(3, 2), F(1))))
    matrix = fa.RandomAssignment(((F(1, 2), F(1)), (F(1, 2), F(0))))
    assert matrix.is_fully_allocating
    converted = fa.RandomAssignment((("1/2", 1), (0.5, 0)))
    assert converted == matrix
    assert all(type(v) is F for row in converted.rows for v in row)


@pytest.mark.parametrize(
    "rows,message",
    [
        ((), "random assignment needs at least one agent row"),
        (((F(1, 2),), (0, 1)), "random assignment rows have inconsistent lengths"),
        (((F(3, 2), 0), (0, 1)), "share 3/2 is outside [0, 1]"),
        ((("1/2", "-1/2"),), "share -1/2 is outside [0, 1]"),
        (((),), "random assignment needs at least one item column"),
    ],
)
def test_random_assignment_constructor_messages(rows, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        fa.RandomAssignment(rows)


def _assert_canonical(matrix):
    """The stored pair is integers over the least common multiple of the
    reduced denominators, so it has no common factor."""
    numerators = [v for row in matrix.numerators for v in row]
    assert type(matrix.scale) is int and all(type(v) is int for v in numerators)
    assert matrix.scale == math.lcm(*(v.denominator for row in matrix.rows for v in row))
    assert math.gcd(matrix.scale, *numerators) == 1


@st.composite
def share_rows(draw, agent_count, item_count):
    share = st.builds(
        lambda d, p: F(p % (d + 1), d), st.sampled_from([1, 2, 3, 4, 6, 12]), st.integers(0, 12)
    )
    row = st.lists(share, min_size=item_count, max_size=item_count)
    return tuple(map(tuple, draw(st.lists(row, min_size=agent_count, max_size=agent_count))))


def _random_constructions(rows):
    """The same share matrix through every public route that takes its entries,
    and through a column permutation and back."""
    n, m = len(rows), len(rows[0])
    instance = fa.Instance.from_prefs([[str(o) for o in range(m)]] * n)
    perm = {o: (o + 1) % m for o in range(m)}
    back = {o: (o - 1) % m for o in range(m)}
    direct = fa.RandomAssignment(rows)
    return [
        direct,
        fa.RandomAssignment(tuple(tuple(str(v) for v in row) for row in rows)),
        fa.RandomAssignment(
            tuple(tuple(int(v) if v.denominator == 1 else v for v in row) for row in rows)
        ),
        fa.model.random_from_payload(instance, [[str(v) for v in row] for row in rows]),
        permute_random(permute_random(direct, perm), back),
    ]


@given(st.data())
def test_random_assignment_equality_and_hash_follow_rows(data):
    shape = st.tuples(st.integers(1, 4), st.integers(1, 5))
    n1, m1 = data.draw(shape)
    n2, m2 = data.draw(st.one_of(st.just((n1, m1)), shape))
    rows1 = data.draw(share_rows(n1, m1))
    candidates = [share_rows(n2, m2)]
    if (n2, m2) == (n1, m1):
        candidates.append(st.just(rows1))
    rows2 = data.draw(st.one_of(candidates))
    same = rows1 == rows2
    second = _random_constructions(rows2)
    for a in _random_constructions(rows1):
        assert a.rows == rows1
        _assert_canonical(a)
        for b in second:
            assert (a == b) is same
            if same:
                assert hash(a) == hash(b)


@settings(max_examples=60, deadline=None)
@given(profiles(max_agents=5, max_items=10), st.data())
def test_fraction_views_equal_one_fraction_per_entry(instance, data):
    # `rows` and `entries` share one Fraction per distinct numerator; the
    # 0/1 `rows` of a DeterministicAssignment are checked against the
    # per-cell expression in test_assignment_equality_and_hash_follow_rows
    outcome = fa.gpbm(instance, keep_trace=False)
    drawn = fa.RandomAssignment(data.draw(share_rows(instance.agent_count, instance.item_count)))
    for matrix in (outcome.total, *outcome.per_round.rounds, drawn):
        scale = matrix.scale
        assert matrix.rows == tuple(
            tuple(Fraction(v, scale) for v in row) for row in matrix.numerators
        )
    source = expand_subagents(outcome.per_round)
    assert source.entries == tuple(
        tuple(Fraction(v, source.scale) for v in row) for row in source.numerators
    )


@settings(max_examples=60, deadline=None)
@given(profiles(max_agents=4, max_items=6), st.data())
def test_produced_matrices_equal_their_public_construction(instance, data):
    n, m = instance.agent_count, instance.item_count
    outcome = fa.gpbm(instance)
    holders = data.draw(st.lists(st.none() | st.integers(0, n - 1), min_size=m, max_size=m))
    perm = dict(enumerate(data.draw(st.permutations(range(m)))))
    produced = [
        outcome.total,
        *outcome.per_round.rounds,
        fa.gebm_lottery(instance).expected(),
        fa.gebm_expected(instance),
        fa.rsdq_lottery(instance).expected(),
        fa.DeterministicAssignment._from_holders(n, tuple(holders)).to_random(),
        permute_random(outcome.total, perm),
    ]
    for matrix in produced:
        _assert_canonical(matrix)
        rebuilt = fa.RandomAssignment(matrix.rows)
        assert matrix == rebuilt and hash(matrix) == hash(rebuilt)
    assert produced[-5] == produced[-4]  # the lottery's mean is the expected matrix


def test_lottery_normalization(two_agent):
    a = fa.DeterministicAssignment.from_bundles(2, 4, {0: [0, 1], 1: [2, 3]})
    b = fa.DeterministicAssignment.from_bundles(2, 4, {0: [0, 2], 1: [1, 3]})
    lot = fa.Lottery.of([(F(1, 4), a), (F(1, 2), b), (F(1, 4), a)])
    assert lot.atom_count == 2
    assert lot.atoms == ((F(1, 2), b), (F(1, 2), a))
    with pytest.raises(InputError):
        fa.Lottery(((F(1, 2), a),))
    with pytest.raises(InputError):
        fa.Lottery(((F(1, 2), a), (F(1, 2), a)))


def test_round_decomposition_validation():
    stage = fa.DeterministicAssignment.from_bundles(2, 4, {0: [0], 1: [2]})
    with pytest.raises(InputError):
        RoundDecomposition((stage,))  # needs ceil(4/2) = 2 rounds
    overfull = fa.DeterministicAssignment.from_bundles(2, 4, {0: [0, 1], 1: [2]})
    with pytest.raises(InputError):
        RoundDecomposition((stage, overfull))


def test_round_decomposition_rejects_an_over_one_unit_row_of_either_stage_type():
    unit = "an agent exceeds one unit within a single round"
    matching = fa.DeterministicAssignment.from_bundles(2, 4, {0: [0], 1: [2]})
    overfull = fa.DeterministicAssignment.from_bundles(2, 4, {0: [1, 3]})
    with pytest.raises(InputError, match=unit):
        RoundDecomposition((matching, overfull))
    half = fa.RandomAssignment(((F(1, 2), F(1, 2), F(0), F(0)), (F(1, 2), F(1, 2), F(0), F(0))))
    full = fa.RandomAssignment(((F(0), F(0), F(1, 2), F(1, 2)), (F(0), F(0), F(1, 2), F(1, 2))))
    assert RoundDecomposition((half, full)).round_count == 2
    over = fa.RandomAssignment(((F(0), F(0), F(2, 3), F(1, 2)), (F(0), F(0), F(1, 3), F(1, 2))))
    with pytest.raises(InputError, match=unit):
        RoundDecomposition((half, over))


def test_round_decomposition_rejects_mixed_round_kinds():
    matching = fa.DeterministicAssignment.from_bundles(2, 4, {0: [0], 1: [2]})
    shares = fa.RandomAssignment(((0, F(1, 2), 0, F(1, 2)), (0, F(1, 2), 0, F(1, 2))))
    for rounds in ((matching, shares), (shares, matching)):
        with pytest.raises(InputError, match="^rounds mix matchings and share matrices$"):
            RoundDecomposition(rounds)


@pytest.mark.parametrize(
    "rows,message",
    [
        ((), "assignment needs at least one agent row"),
        (((1, 0), (0,)), "assignment rows have inconsistent lengths"),
        (((2, 0), (0, 1)), "assignment entries must be 0 or 1"),
        (((0, 1), (0, 1)), "item column 1 is allocated more than once"),
        (((),), "assignment needs at least one item column"),
    ],
)
def test_assignment_constructor_messages(rows, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        fa.DeterministicAssignment(rows)


@st.composite
def holders_lists(draw, agent_count, item_count, complete=False):
    agents = st.integers(0, agent_count - 1)
    holder = agents if complete else st.one_of(st.none(), agents)
    return draw(st.lists(holder, min_size=item_count, max_size=item_count))


def _rows(agent_count, holders):
    return tuple(tuple(int(h == j) for h in holders) for j in range(agent_count))


def _every_construction(agent_count, holders):
    """The same assignment through every public and trusted factory that can build it."""
    m = len(holders)
    bundles = {}
    for o, j in enumerate(holders):
        if j is not None:
            bundles.setdefault(j, []).append(o)
    built = [
        fa.DeterministicAssignment(_rows(agent_count, holders)),
        fa.DeterministicAssignment.from_bundles(agent_count, m, bundles),
        fa.DeterministicAssignment._from_holders(agent_count, tuple(holders)),
    ]
    return built


@given(st.data())
def test_assignment_equality_and_hash_follow_rows(data):
    # the public constructor rejects a matrix with no item columns
    shape = st.tuples(st.integers(1, 4), st.integers(1, 5))
    n1, m1 = data.draw(shape)
    n2, m2 = data.draw(st.one_of(st.just((n1, m1)), shape))
    h1 = data.draw(holders_lists(n1, m1))
    candidates = [holders_lists(n2, m2)]
    if (n2, m2) == (n1, m1):
        candidates.append(st.just(h1))
    h2 = data.draw(st.one_of(candidates))
    first, second = _every_construction(n1, h1), _every_construction(n2, h2)
    same = _rows(n1, h1) == _rows(n2, h2)
    for a in first:
        assert a.rows == _rows(n1, h1) and a.holders == tuple(h1)
        for b in second:
            assert (a == b) is same
            if same:
                assert hash(a) == hash(b)


def test_assignment_is_frozen():
    a = fa.DeterministicAssignment(((1, 0), (0, 1)))
    for name, value in (("holders", (1, 0)), ("agent_count", 3), ("rows", ((0, 1), (1, 0)))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, value)
    assert a.holders == (0, 1) and a.rows == ((1, 0), (0, 1))


def test_lottery_constructor_messages():
    a = fa.DeterministicAssignment.from_bundles(2, 2, {0: [0], 1: [1]})
    b = fa.DeterministicAssignment.from_bundles(2, 2, {0: [1], 1: [0]})
    cases = [
        ((), "a lottery needs at least one atom"),
        (((F(0), a), (F(1), b)), "lottery probabilities must be positive"),
        (((F(-1, 2), a), (F(3, 2), b)), "lottery probabilities must be positive"),
        (((F(1, 2), a), (F(1, 2), a)), "lottery atoms must be deduplicated"),
        (((F(1, 2), a), (F(1, 3), b)), "lottery probabilities sum to 5/6, expected 1"),
        (((F(1, 2), a), (F(3, 4), b)), "lottery probabilities sum to 5/4, expected 1"),
    ]
    for atoms, message in cases:
        with pytest.raises(InputError, match=f"^{message}$"):
            fa.Lottery(atoms)
    with pytest.raises(InputError, match="sum to 5/6"):
        fa.Lottery.of([(F(1, 2), a), (F(1, 3), b)])
    wider = fa.DeterministicAssignment.from_bundles(3, 2, {0: [0], 1: [1]})
    with pytest.raises(InputError, match="inconsistent shapes"):
        fa.Lottery.of([(F(1, 2), a), (F(1, 2), wider)])


@given(st.data())
def test_row_key_orders_like_rows(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 12))
    complete = data.draw(st.booleans())
    assignments = [
        fa.DeterministicAssignment._from_holders(n, tuple(h))
        for h in data.draw(st.lists(holders_lists(n, m, complete), min_size=1, max_size=20))
    ]
    by_key = sorted(assignments, key=row_key)
    by_rows = sorted(assignments, key=lambda a: a.rows)
    assert [a.rows for a in by_key] == [a.rows for a in by_rows]
    assert len({row_key(a) for a in assignments}) == len({a.rows for a in assignments})


# ---------------------------------------------------------------------------
# serialization


def test_instance_round_trip(two_agent):
    text = fa.serialize_instance(two_agent)
    assert fa.parse_instance(text) == two_agent


def test_parse_instance_document(two_agent):
    doc = """
    {"items": ["a", "b", "c", "d"],
     "agents": [{"name": "1", "prefs": ["a", "b", "c", "d"]},
                {"name": "2", "prefs": ["a", "c", "b", "d"]}]}
    """
    inst = fa.parse_instance(doc)
    assert inst == two_agent
    assert inst.agent_count == 2 and inst.item_count == 4


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        '{"items": ["a", "a"], "agents": []}',
        '{"items": ["a", "b"], "agents": [{"name": "1", "prefs": ["a"]}]}',
        '{"items": ["a", "b"], "agents": [{"name": "1", "prefs": ["a", "a"]}]}',
        '{"items": ["a", "b"], "agents": [{"name": "1", "prefs": ["a", "b"]},'
        ' {"name": "1", "prefs": ["b", "a"]}]}',
        '{"items": [], "agents": [{"name": "1", "prefs": []}]}',
    ],
)
def test_parse_instance_rejects(doc):
    with pytest.raises(InputError):
        fa.parse_instance(doc)


def test_fraction_round_trip():
    for text in ["0", "1", "1/2", "7/12"]:
        assert format_fraction(parse_fraction(text)) == text
    with pytest.raises(InputError):
        parse_fraction("1/0")
    with pytest.raises(InputError):
        parse_fraction("0.5x")


def test_assignment_payload_round_trip(two_agent):
    a = fa.DeterministicAssignment.from_bundles(2, 4, {0: [0, 1], 1: [2, 3]})
    payload = fa.model.assignment_to_payload(two_agent, a)
    assert payload == {"1": ["a", "b"], "2": ["c", "d"]}
    assert fa.model.assignment_from_payload(two_agent, payload) == a


def test_lottery_payload_round_trip(two_agent):
    lot = fa.gebm_lottery(two_agent)
    payload = fa.model.lottery_to_payload(two_agent, lot)
    assert fa.model.lottery_from_payload(two_agent, payload) == lot


def test_random_payload_round_trip(two_agent):
    matrix = fa.gpbm(two_agent).total
    payload = fa.model.random_to_payload(two_agent, matrix)
    assert payload[0] == ["1/2", "1", "0", "1/2"]
    assert fa.model.random_from_payload(two_agent, payload) == matrix


# ---------------------------------------------------------------------------
# permutations


def test_permute_instance_round_trip(two_agent):
    swap = {0: 0, 1: 1, 2: 3, 3: 2}
    relabelled = permute_instance(two_agent, swap)
    assert relabelled.agents[1].prefs == ("a", "d", "b", "c")
    assert permute_instance(relabelled, swap) == two_agent


def test_permute_outputs(two_agent):
    swap = {0: 1, 1: 0, 2: 2, 3: 3}
    matrix = fa.gpbm(two_agent).total
    twice = permute_random(permute_random(matrix, swap), swap)
    assert twice == matrix
    lot = fa.gebm_lottery(two_agent)
    assert permute_lottery(permute_lottery(lot, swap), swap) == lot
