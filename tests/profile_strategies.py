"""Hypothesis strategies shared by the differential tests."""

from fractions import Fraction

from hypothesis import strategies as st

from fairassign import RandomAssignment
from fairassign.oracle import instance_from_orders


@st.composite
def profiles(draw, max_agents=8, max_items=24):
    """Impartial-culture, identical or near-identical (a common order with a
    few adjacent swaps per agent) preference profiles."""
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(1, max_items))
    family = draw(st.sampled_from(["ic", "identical", "near"]))
    if family == "ic":
        orders = [list(draw(st.permutations(range(m)))) for _ in range(n)]
    else:
        common = draw(st.permutations(range(m)))
        orders = [list(common) for _ in range(n)]
    if family == "near" and m > 1:
        for order in orders:
            for i in draw(st.lists(st.integers(0, m - 2), max_size=3)):
                order[i], order[i + 1] = order[i + 1], order[i]
    return instance_from_orders(orders, m)


@st.composite
def fully_allocating(draw, instance):
    """A random share matrix whose every item column sums to 1."""
    n = instance.agent_count
    columns = []
    for _ in range(instance.item_count):
        weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if not any(weights):
            weights[draw(st.integers(0, n - 1))] = 1
        columns.append([Fraction(w, sum(weights)) for w in weights])
    return RandomAssignment(tuple(zip(*columns)))
