"""Stand-alone enumerator and sampler for the eager mechanism.

Deliberately independent of the package internals: it works on item and agent
names, drives an explicit probability-weighted worklist instead of recursive
generators, and re-derives round/pass structure from first principles.  Tests
compare its exact distribution against the package's lottery mode, and its
set-based sampler against the package's sample mode; the sampler shares only
the package's random source.
"""

import itertools
from fractions import Fraction

from fairassign import ModularRng


def _favourite(prefs, available):
    for item in prefs:
        if item in available:
            return item
    raise AssertionError("favourite queried with no available items")


def enumerate_distribution(instance):
    """Exact map {bundle tuple -> probability} for the eager mechanism.

    Bundle tuples list each agent's items as a sorted tuple of names, in agent
    order.
    """
    names = tuple(a.name for a in instance.agents)
    prefs = {a.name: tuple(a.prefs) for a in instance.agents}
    total_rounds = -(-len(instance.items) // len(names))

    start = (1, frozenset(instance.items), frozenset(names), tuple(() for _ in names))
    work = [(Fraction(1), start)]
    results: dict[tuple, Fraction] = {}
    while work:
        prob, (round_no, items_left, active, bundles) = work.pop()
        if not items_left or round_no > total_rounds:
            results[bundles] = results.get(bundles, Fraction(0)) + prob
            continue
        if not active:
            work.append((prob, (round_no + 1, items_left, frozenset(names), bundles)))
            continue
        tops: dict[str, list[str]] = {}
        for name in sorted(active):
            tops.setdefault(_favourite(prefs[name], items_left), []).append(name)
        applied = sorted(tops)
        share = Fraction(1)
        for item in applied:
            share /= len(tops[item])
        for winners in itertools.product(*(tops[item] for item in applied)):
            new_bundles = list(bundles)
            for who, item in zip(winners, applied):
                idx = names.index(who)
                new_bundles[idx] = tuple(sorted(new_bundles[idx] + (item,)))
            work.append(
                (
                    prob * share,
                    (
                        round_no,
                        items_left - set(applied),
                        active - set(winners),
                        tuple(new_bundles),
                    ),
                )
            )
    return results


def expected_shares(instance):
    """Exact expected share of each item per agent, from the distribution."""
    dist = enumerate_distribution(instance)
    names = tuple(a.name for a in instance.agents)
    shares = {name: {item: Fraction(0) for item in instance.items} for name in names}
    for bundles, prob in dist.items():
        for name, bundle in zip(names, bundles):
            for item in bundle:
                shares[name][item] += prob
    return shares


def lottery_as_bundles(instance, lottery):
    """Convert a package lottery into the oracle's bundle-tuple keying."""
    names = tuple(a.name for a in instance.agents)
    out = {}
    for prob, assignment in lottery.atoms:
        key = tuple(
            tuple(sorted(instance.items[o] for o in assignment.bundles[j]))
            for j in range(len(names))
        )
        out[key] = prob
    return out


def sample_rounds(instance, seed):
    """One seeded run of the eager mechanism, pass by pass over name sets.

    Returns one (items at round start, matching {agent name: item name}) pair
    per round, for ceil(m/n) rounds.  Within a pass, applicants are taken
    against the pass-start item set; applied-for items are raffled in the
    instance's item order, each among its applicants in agent order by
    `ModularRng(seed).below(applicant count)`, and an item with a single
    applicant draws nothing.
    """
    names = [a.name for a in instance.agents]
    prefs = {a.name: tuple(a.prefs) for a in instance.agents}
    rng = ModularRng(seed)
    items_left = set(instance.items)
    rounds = []
    for _ in range(-(-len(instance.items) // len(names))):
        start = frozenset(items_left)
        active = list(names)
        matching = {}
        while active and items_left:
            tops: dict[str, list[str]] = {}
            for name in active:
                tops.setdefault(_favourite(prefs[name], items_left), []).append(name)
            for item in instance.items:
                group = tops.get(item)
                if group:
                    winner = group[0] if len(group) == 1 else group[rng.below(len(group))]
                    matching[winner] = item
            items_left -= tops.keys()
            active = [name for name in active if name not in matching]
        rounds.append((start, matching))
    return rounds
