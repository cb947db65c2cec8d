"""Decision procedures for efficiency and fairness properties.

Every checker returns a `PropertyReport`; a false verdict always carries a
witness that can be re-checked independently (a cycle of items, an agent pair,
or a failing lottery atom).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Iterable, Iterator, Sequence

from .model import (
    DeterministicAssignment,
    InputError,
    Instance,
    Lottery,
    RandomAssignment,
)


@dataclass(frozen=True)
class PropertyReport:
    name: str
    verdict: bool
    witness: object | None = None

    def __post_init__(self) -> None:
        if not self.verdict and self.witness is None:
            raise InputError("a failing report must carry a witness")

    def to_payload(self) -> dict:
        return {"property": self.name, "verdict": self.verdict, "witness": self.witness}


def _check_shape(instance: Instance, matrix: RandomAssignment | DeterministicAssignment) -> None:
    if matrix.agent_count != instance.agent_count or matrix.item_count != instance.item_count:
        raise InputError("share matrix shape does not match the instance")


# ---------------------------------------------------------------------------
# Item-relation acyclicity (efficiency)


def _first_cycle(out_edges: Sequence[int]) -> list[int] | None:
    """First directed cycle under depth-first search with ascending vertex order.

    `out_edges[v]` is the bitmask of v's successors.  The search steps to the
    lowest-numbered successor not yet finished: one on the path closes a
    cycle, any other is a step deeper.
    """
    finished = 0
    for start in range(len(out_edges)):
        if finished >> start & 1:
            continue
        path = [start]
        on_path = 1 << start
        while path:
            node = path[-1]
            pending = out_edges[node] & ~finished
            if not pending:
                finished |= 1 << node
                on_path ^= 1 << path.pop()
                continue
            nxt = (pending & -pending).bit_length() - 1
            if on_path >> nxt & 1:
                return path[path.index(nxt):] + [nxt]
            path.append(nxt)
            on_path |= 1 << nxt
    return None


def _acyclic_report(name: str, instance: Instance, out_edges: Sequence[int]) -> PropertyReport:
    cycle = _first_cycle(out_edges)
    if cycle is None:
        return PropertyReport(name, True)
    return PropertyReport(name, False, {"cycle": [instance.items[o] for o in cycle]})


def check_pe_acyclic(instance: Instance, assignment: DeterministicAssignment) -> PropertyReport:
    """Pareto efficiency via acyclicity of the held-item improvement relation.

    There is an edge from item o to item o' whenever some holder of o strictly
    prefers o'.  Every item of a complete assignment has one holder, so item
    o's out-edges are `instance.better_masks[holder][o]`.
    """
    _check_shape(instance, assignment)
    holders = assignment.holders
    if None in holders:
        raise InputError("Pareto efficiency is checked on complete assignments")
    better = instance.better_masks
    return _acyclic_report("pe", instance, [better[j][o] for o, j in enumerate(holders)])


def check_sde_acyclic(
    instance: Instance,
    matrix: RandomAssignment,
    require_fully_allocating: bool = True,
) -> PropertyReport:
    """Ex-ante efficiency via acyclicity over positive probabilistic shares:
    item o's out-edges are the items that an agent with a share of o prefers.

    Total outputs must be fully allocating; pass `require_fully_allocating=False`
    to run the same acyclicity criterion on one round's partial matrix.
    """
    if require_fully_allocating and not matrix.is_fully_allocating:
        raise InputError("ex-ante efficiency is checked on fully allocating matrices")
    _check_shape(instance, matrix)
    out_edges = [0] * instance.item_count
    for row, better in zip(matrix.numerators, instance.better_masks):
        # shares are validated nonnegative: nonzero means positive
        for o, share in enumerate(row):
            if share:
                out_edges[o] |= better[o]
    return _acyclic_report("sde", instance, out_edges)


# ---------------------------------------------------------------------------
# First-choice maximality


def fcm_count(instance: Instance, assignment: DeterministicAssignment) -> int:
    """How many agents hold their global first choice."""
    _check_shape(instance, assignment)
    holders = assignment.holders
    return sum(holders[o] == j for j, o in enumerate(instance.first_choices))


def fcm_max(instance: Instance) -> int:
    """The attainable maximum: the number of distinct first-choice items."""
    return len(instance.first_choice_items)


def check_fcm(instance: Instance, assignment: DeterministicAssignment) -> PropertyReport:
    """True iff every item that is somebody's first choice goes to such an agent."""
    _check_shape(instance, assignment)
    holders = assignment.holders
    if None in holders:
        raise InputError("first-choice maximality is checked on complete assignments")
    for o in instance.first_choice_items:
        holder = holders[o]
        if instance.first_choices[holder] != o:
            return PropertyReport(
                "fcm",
                False,
                {"item": instance.items[o], "holder": instance.agent_names[holder]},
            )
    return PropertyReport("fcm", True)


# ---------------------------------------------------------------------------
# Envy


def check_ef1(instance: Instance, assignment: DeterministicAssignment) -> PropertyReport:
    """Envy-freeness up to one item, compared through stochastic dominance.

    An empty envied bundle passes vacuously; the removed item may be any item
    of the envied bundle.  Removing an envied item raises the envious agent's
    cumulative gaps by one from that item's place in its order on, and the
    first negative gap always falls on an envied item, so agent j envies k
    beyond one item exactly when, over some prefix of j's order, k holds at
    least two items more than j.  One walk along j's order over `holders`
    counts every agent's items at once and finds j's first such k.
    """
    _check_shape(instance, assignment)
    holders = assignment.holders
    for j, order in enumerate(instance.pref_order):
        counts = [0] * instance.agent_count
        envied = None
        for o in order:
            k = holders[o]
            if k is None:
                continue
            counts[k] += 1
            if k != j and counts[k] >= counts[j] + 2 and (envied is None or k < envied):
                envied = k
        if envied is not None:
            return PropertyReport("ef1", False, _envy_witness(instance, j, envied))
    return PropertyReport("ef1", True)


def _cumulative_gaps(
    instance: Instance, matrix: RandomAssignment
) -> Iterator[tuple[int, int, list[int]]]:
    """For every ordered pair of distinct agents (j, k), in ascending order,
    yield (j, k, gaps): gaps[t] is j's cumulative share minus k's over j's t+1
    most preferred items, in units of 1/scale, so every comparison is between
    exact integers.
    """
    _check_shape(instance, matrix)
    rows = matrix.numerators
    for j, order in enumerate(instance.pref_order):
        own = [rows[j][o] for o in order]
        for k, row in enumerate(rows):
            if k != j:
                yield j, k, list(accumulate(map(sub, own, [row[o] for o in order])))


def _envy_witness(instance: Instance, j: int, k: int) -> dict:
    return {"envious": instance.agent_names[j], "envied": instance.agent_names[k]}


def check_sd_wef(instance: Instance, matrix: RandomAssignment) -> PropertyReport:
    """Weak ex-ante envy-freeness: no agent's row is sd-dominated by a
    different row under the agent's own order."""
    if not matrix.is_fully_allocating:
        raise InputError("ex-ante envy is checked on fully allocating matrices")
    for j, k, gaps in _cumulative_gaps(instance, matrix):
        # k's row sd-dominates j's (no positive gap) and differs from it
        if max(gaps) <= 0 and min(gaps) < 0:
            return PropertyReport("sdwef", False, _envy_witness(instance, j, k))
    return PropertyReport("sdwef", True)


def check_sd_ef(instance: Instance, matrix: RandomAssignment) -> PropertyReport:
    """Strong ex-ante envy-freeness: every row sd-dominates every other row
    under the owner's order."""
    if not matrix.is_fully_allocating:
        raise InputError("ex-ante envy is checked on fully allocating matrices")
    for j, k, gaps in _cumulative_gaps(instance, matrix):
        if min(gaps) < 0:
            return PropertyReport("sdef", False, _envy_witness(instance, j, k))
    return PropertyReport("sdef", True)


# ---------------------------------------------------------------------------
# Rank-based matching properties


def _domain_ranks(
    instance: Instance, domain: frozenset[int]
) -> tuple[dict[int, int], ...]:
    ranks = []
    for order in instance.pref_order:
        filtered = [o for o in order if o in domain]
        ranks.append({o: pos + 1 for pos, o in enumerate(filtered)})
    return tuple(ranks)


def check_fhr(
    instance: Instance,
    assignment: DeterministicAssignment,
    ranking_domain: Iterable[int] | None = None,
) -> PropertyReport:
    """Favoring higher ranks: for any held items o_j and o_k, either the holder
    of o_j ranks it at least as high as the other agent does, or the other
    agent ranks its own item strictly above o_j.  Ranks are computed within
    `ranking_domain` (the full item set by default)."""
    _check_shape(instance, assignment)
    domain = (
        frozenset(range(instance.item_count))
        if ranking_domain is None
        else frozenset(ranking_domain)
    )
    if not domain <= frozenset(range(instance.item_count)):
        raise InputError("ranking domain contains unknown item indices")
    allocated = {o for bundle in assignment.bundles for o in bundle}
    if not allocated <= domain:
        raise InputError("assignment allocates items outside the ranking domain")
    ranks = _domain_ranks(instance, domain)
    for j in range(instance.agent_count):
        for o_j in sorted(assignment.bundles[j]):
            for k in range(instance.agent_count):
                if k == j:
                    continue
                if ranks[j][o_j] <= ranks[k][o_j]:
                    continue
                for o_k in sorted(assignment.bundles[k]):
                    if not ranks[k][o_k] < ranks[k][o_j]:
                        return PropertyReport(
                            "fhr",
                            False,
                            {
                                "holder": instance.agent_names[j],
                                "item": instance.items[o_j],
                                "other": instance.agent_names[k],
                                "other_item": instance.items[o_k],
                            },
                        )
    return PropertyReport("fhr", True)


def check_feri(
    instance: Instance,
    matching: DeterministicAssignment,
    item_domain: Iterable[int],
) -> PropertyReport:
    """Favoring eagerness for remaining items, tier by tier.

    Tier r collects the items that are the favourite remaining item of some
    agent whose own match is not in an earlier tier.  Every tier item must be
    held by an agent whose favourite remaining item it is.
    """
    _check_shape(instance, matching)
    domain = frozenset(item_domain)
    if not domain <= frozenset(range(instance.item_count)):
        raise InputError("item domain contains unknown item indices")
    if not matching.is_matching:
        raise InputError("eagerness is checked on one-to-one matchings")
    allocated = {o for bundle in matching.bundles for o in bundle}
    if not allocated <= domain:
        raise InputError("matching allocates items outside the item domain")
    ranks = instance.global_rank
    remaining = set(domain)
    served: set[int] = set()
    while remaining:
        active = []
        for j in range(instance.agent_count):
            match = matching.bundles[j]
            if not match or next(iter(match)) not in served:
                active.append(j)
        if not active:
            break
        tier = {min(remaining, key=ranks[j].__getitem__) for j in active}
        for o in sorted(tier):
            holder = matching.holders[o]
            if holder is None:
                return PropertyReport(
                    "feri",
                    False,
                    {"item": instance.items[o], "holder": None},
                )
            if min(remaining, key=ranks[holder].__getitem__) != o:
                return PropertyReport(
                    "feri",
                    False,
                    {"item": instance.items[o], "holder": instance.agent_names[holder]},
                )
        served |= tier
        remaining -= tier
    return PropertyReport("feri", True)


# ---------------------------------------------------------------------------
# Ex-post lifting


_DETERMINISTIC_CHECKERS = {
    "pe": check_pe_acyclic,
    "fcm": check_fcm,
    "ef1": check_ef1,
}


def check_lottery_expost(
    instance: Instance, lottery: Lottery, properties: Sequence[str]
) -> dict[str, PropertyReport]:
    """Run deterministic checkers on every atom; a property holds ex-post iff
    it holds on each atom of the convex combination."""
    reports: dict[str, PropertyReport] = {}
    for prop in properties:
        if prop not in _DETERMINISTIC_CHECKERS:
            raise InputError(f"unknown ex-post property {prop!r}")
        checker = _DETERMINISTIC_CHECKERS[prop]
        verdict = PropertyReport(f"expost-{prop}", True)
        for index, (_, assignment) in enumerate(lottery.atoms):
            inner = checker(instance, assignment)
            if not inner.verdict:
                verdict = PropertyReport(
                    f"expost-{prop}",
                    False,
                    {"atom": index, "inner": inner.to_payload()},
                )
                break
        reports[prop] = verdict
    return reports
