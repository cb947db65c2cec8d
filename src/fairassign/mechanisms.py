"""Randomized assignment mechanisms.

Three families are implemented, all over strict ordinal preferences:

* `gebm_*` - the generalized eager Boston mechanism: ceil(m/n) rounds over
  the still-unallocated items, each starting with every agent active.  In
  each pass every active agent applies for its favourite remaining item,
  every applied-for item is awarded to one applicant chosen uniformly at
  random (losers stay active), and the round repeats on the shrunken item set
  until agents or items run out.  The sampled, exact-lottery and
  exact-expected modes all run one state transition, `_engine_pass`.
* `gpbm` - the probabilistic variant: a simultaneous-eating scheme where, in
  each round, agents hold one unit of budget and consume the item they rank
  r-th globally during consumption round r, splitting supply at equal rates.
* `rsdq` - the quota serial dictatorship baseline: agents pick whole quota
  blocks in priority order.

Runs are pure functions of (instance, seed); the exact modes involve no
randomness at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Sequence

from .model import (
    DeterministicAssignment,
    InputError,
    Instance,
    Lottery,
    RandomAssignment,
    RoundDecomposition,
    SizeLimitError,
    _trusted,
)

DEFAULT_BRANCH_CAP = 10**6


class ModularRng:
    """Seeded deterministic random source (SplitMix64 core).

    Draws are 64-bit words reduced modulo the requested range (no rejection
    loop), computed with plain integer arithmetic, so sequences depend only on
    the seed and are reproducible across platforms and interpreter versions.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def _word(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound < 1:
            raise InputError("bound must be at least 1")
        return self._word() % bound

    def unit(self) -> Fraction:
        """Uniform rational in [0, 1) at 64-bit resolution."""
        return Fraction(self._word(), 1 << 64)

    def shuffle(self, values: list) -> None:
        for i in range(len(values) - 1, 0, -1):
            j = self.below(i + 1)
            values[i], values[j] = values[j], values[i]


# ---------------------------------------------------------------------------
# Generalized eager Boston mechanism


@dataclass(frozen=True)
class GebmOutcome:
    """A realized multi-round run: its round matchings, from which the total
    assignment and each round's remaining items derive."""

    per_round: RoundDecomposition

    def __post_init__(self) -> None:
        rounds = self.per_round.rounds
        if not isinstance(rounds[0], DeterministicAssignment):
            raise InputError("gebm rounds must be matchings")
        allocated = [o for stage in rounds for o, j in enumerate(stage.holders) if j is not None]
        if len(allocated) != len(set(allocated)):
            raise InputError("two rounds allocate the same item")

    @cached_property
    def total(self) -> DeterministicAssignment:
        """Every round's holders merged into one assignment."""
        rounds = self.per_round.rounds
        holders: list[int | None] = [None] * rounds[0].item_count
        for stage in rounds:
            for o, j in enumerate(stage.holders):
                if j is not None:
                    holders[o] = j
        return DeterministicAssignment._from_holders(rounds[0].agent_count, tuple(holders))

    @cached_property
    def remaining_items_per_round(self) -> tuple[frozenset[int], ...]:
        """The items no earlier round allocated, at the start of each round."""
        remaining = frozenset(range(self.per_round.rounds[0].item_count))
        out = []
        for stage in self.per_round.rounds:
            out.append(remaining)
            remaining -= {o for o, j in enumerate(stage.holders) if j is not None}
        return tuple(out)


#: An engine state (round index, active agents, remaining items); the two sets
#: are bitmasks over agent and item indices.
EngineState = tuple[int, int, int]
#: A pass: the applied-for items with their applicants, in ascending item order.
Contested = list[tuple[int, list[int]]]
#: A winners tuple (one winner per contested item) and the state it leads to.
Move = tuple[tuple[int, ...], EngineState]


def _engine_pass(
    instance: Instance, state: EngineState
) -> tuple[Contested, Callable[[Sequence[int]], EngineState]]:
    """One pass from a state with items left: the contested items, with
    applicants taken against the pass-start state, and the successor function.

    Given one winner per contested item, the successor removes every
    applied-for item and every winner; when no agent is left active but items
    are, the next round starts with every agent active again.
    """
    n = instance.agent_count
    prefs = instance.pref_order
    round_index, active, remaining = state
    applicants: dict[int, list[int]] = {}
    for j in range(n):
        if active >> j & 1:
            for top in prefs[j]:
                if remaining >> top & 1:
                    break
            applicants.setdefault(top, []).append(j)
    next_remaining = remaining
    for o in applicants:
        next_remaining ^= 1 << o

    def successor(winners: Sequence[int]) -> EngineState:
        next_active = active
        for j in winners:
            next_active ^= 1 << j
        if next_active or not next_remaining:
            return (round_index, next_active, next_remaining)
        return (round_index + 1, (1 << n) - 1, next_remaining)

    return sorted(applicants.items()), successor


def gebm_sample(instance: Instance, seed: int) -> GebmOutcome:
    """One seeded run: a single path through the engine's passes, each
    contested item with more than one applicant, in ascending item order,
    going to the applicant drawn by `rng.below(len(group))`.  Like `gpbm`,
    it skips the public constructors' checks, which its rounds pass."""
    rng = ModularRng(seed)
    n = instance.agent_count
    m = instance.item_count
    state = (0, (1 << n) - 1, (1 << m) - 1)
    rounds: list[list[int | None]] = []
    while state[2]:
        round_index = state[0]
        if round_index == len(rounds):
            rounds.append([None] * m)
        contested, successor = _engine_pass(instance, state)
        winners = [
            group[rng.below(len(group))] if len(group) > 1 else group[0]
            for _, group in contested
        ]
        for j, (o, _) in zip(winners, contested):
            rounds[round_index][o] = j
        state = successor(winners)
    matchings = tuple(DeterministicAssignment._from_holders(n, tuple(h)) for h in rounds)
    return _trusted(GebmOutcome, _trusted(RoundDecomposition, matchings))


def _engine_states(instance: Instance) -> Iterator[tuple[EngineState, Contested, list[Move]]]:
    """Every reachable state of the multi-round engine, with its moves.

    What the engine does next depends only on its state, so the exact modes
    push their quantity forward through these states instead of walking every
    tie-break path.  Yields (state, contested, moves): `contested` is the
    state's pass, as `_engine_pass` gives it, and `moves` pairs every winners
    tuple (one winner per contested item, in `itertools.product` order) with
    the state it leads to.  Every move removes at least one item, so visiting
    states by decreasing item count yields each state after all of its
    predecessors.  A state with no remaining items is final and has no moves.
    """
    n = instance.agent_count
    m = instance.item_count
    pending: list[dict[EngineState, None]] = [{} for _ in range(m + 1)]
    pending[m][(0, (1 << n) - 1, (1 << m) - 1)] = None
    for left in range(m, -1, -1):
        for state in pending[left]:
            if not state[2]:
                yield state, [], []
                continue
            contested, successor = _engine_pass(instance, state)
            successors = pending[left - len(contested)]
            moves = []
            for winners in itertools.product(*(group for _, group in contested)):
                next_state = successor(winners)
                successors[next_state] = None
                moves.append((winners, next_state))
            yield state, contested, moves


def _branch_count(instance: Instance) -> int:
    """The number of tie-break paths of one run: every move passes on the
    number of paths that reach its state."""
    paths: dict[EngineState, int] = {}
    leaves = 0
    for state, _, moves in _engine_states(instance):
        count = paths.pop(state, 1)  # only the start state has no incoming move
        if not moves:
            leaves += count
        for _, successor in moves:
            paths[successor] = paths.get(successor, 0) + count
    return leaves


def gebm_lottery(instance: Instance, max_branches: int = DEFAULT_BRANCH_CAP) -> Lottery:
    """The exact output distribution.

    Raises `SizeLimitError`, before building anything, when the run has more
    than `max_branches` tie-break paths.  Partial assignments, as holders
    tuples, are carried forward through the engine states with their path
    counts (the product of the winners-tuple counts along the path, one over
    the path's probability).  Two paths part where they give some item to
    different agents, so every path ends in its own assignment and the lottery
    has one atom per path.
    """
    branches = _branch_count(instance)
    if branches > max_branches:
        raise SizeLimitError(
            f"instance too large for exact mode: {branches} tie-break branches "
            f"exceed the cap of {max_branches}; use sampled mode instead"
        )
    n = instance.agent_count
    m = instance.item_count
    partial: dict[EngineState, list[tuple[tuple[int | None, ...], int]]] = {}
    atoms: list[tuple[Fraction, DeterministicAssignment]] = []
    for state, contested, moves in _engine_states(instance):
        held = partial.pop(state, None) or [((None,) * m, 1)]  # at the start state
        if not moves:
            atoms.extend(
                (Fraction(1, count), DeterministicAssignment._from_holders(n, holders))
                for holders, count in held
            )
            continue
        ways = math.prod(len(group) for _, group in contested)
        items = [o for o, _ in contested]
        for winners, successor in moves:
            target = partial.setdefault(successor, [])
            for holders, count in held:
                grown = list(holders)
                for j, o in zip(winners, items):
                    grown[o] = j
                target.append((tuple(grown), count * ways))
    return Lottery.of(atoms)


def gebm_expected(instance: Instance) -> RandomAssignment:
    """Exact expected matrix, without building the lottery.

    Probability mass flows forward through the engine states; at each state
    every applicant for an item gains the state's mass divided by the number
    of applicants, and each winners tuple passes an equal part of the mass on.
    Masses and shares are integers at one scale, the start state's mass.
    When a state's mass is not divisible by its number of winners tuples, the
    scale and every mass and share held so far grow by the missing factor;
    the group sizes divide that number, so every division is exact.
    """
    scale = 1
    shares = [[0] * instance.item_count for _ in range(instance.agent_count)]
    mass: dict[EngineState, int] = {}
    for state, contested, moves in _engine_states(instance):
        held = mass.pop(state, scale)  # only the start state has no incoming move
        ways = math.prod(len(group) for _, group in contested)
        if held % ways:
            grow = ways // math.gcd(held, ways)
            scale *= grow
            held *= grow
            for other in mass:
                mass[other] *= grow
            shares = [[v * grow for v in row] for row in shares]
        for o, group in contested:
            part = held // len(group)
            for j in group:
                shares[j][o] += part
        passed = held // ways
        for _, successor in moves:
            mass[successor] = mass.get(successor, 0) + passed
    return RandomAssignment._from_scaled(scale, shares)


# ---------------------------------------------------------------------------
# Generalized probabilistic Boston mechanism


@dataclass(frozen=True)
class ConsumptionStep:
    """One waterfilling event: who ate how much of an item, and when."""

    round_index: int
    consumption_round: int
    item: int
    consumers: tuple[int, ...]
    amounts: tuple[Fraction, ...]


@dataclass(frozen=True)
class GpbmOutcome:
    """An eating run: its per-round matrices, whose sum is the total."""

    per_round: RoundDecomposition
    supply_trace: tuple[ConsumptionStep, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.per_round.rounds[0], RandomAssignment):
            raise InputError("gpbm rounds must be share matrices")
        total = self.total
        for o, column in enumerate(zip(*total.numerators)):
            if sum(column) != total.scale:
                raise InputError(f"item column {o} does not sum to 1")
        for c, stage in enumerate(self.per_round.rounds[:-1]):
            for j, row in enumerate(stage.numerators):
                row_sum = sum(row)
                if row_sum != stage.scale:
                    raise InputError(
                        f"agent {j} consumed {Fraction(row_sum, stage.scale)} "
                        f"in non-final round {c + 1}, expected 1"
                    )

    @cached_property
    def total(self) -> RandomAssignment:
        """The entrywise sum of the rounds, each brought to their common scale."""
        stages = self.per_round.rounds
        scale = math.lcm(*(stage.scale for stage in stages))
        scaled = [
            stage.numerators
            if stage.scale == scale
            else [[v * (scale // stage.scale) for v in row] for row in stage.numerators]
            for stage in stages
        ]
        return RandomAssignment._from_scaled(
            scale, [list(map(sum, zip(*agent_rows))) for agent_rows in zip(*scaled)]
        )


def _equal_rate_split(budgets: Sequence[int], supply: int) -> tuple[int, list[int], int]:
    """Split `supply` among consumers eating at one common rate, in integer units.

    Each consumer stops when its own budget is exhausted; everything stops when
    the supply is.  Waterfilling: advance time by the smallest binding amount,
    drop finished consumers, repeat; at most len(budgets) passes.  When the
    supply runs out during a pass of k consumers and k does not divide it, the
    unit shrinks by growth = k // gcd(left, k) first, so every amount stays
    whole.  Returns (growth, eaten, left), eaten and left in the new units.
    """
    eaten = [0] * len(budgets)
    left = supply
    active = [i for i in range(len(budgets)) if budgets[i]]
    while active and left:
        k = len(active)
        step = min(budgets[i] - eaten[i] for i in active)
        if step * k >= left:
            # the supply runs out in this pass, which is the last one
            growth = k // math.gcd(left, k)
            if growth > 1:
                eaten = [e * growth for e in eaten]
            step = left * growth // k
            for i in active:
                eaten[i] += step
            return growth, eaten, 0
        for i in active:
            eaten[i] += step
        left -= step * k
        active = [i for i in active if eaten[i] < budgets[i]]
    return 1, eaten, left


def _eat(
    prefs: Sequence[Sequence[int]], state: tuple, agent: int, trace: list | None = None
) -> tuple:
    """`gpbm`'s eating loop, resumable.  `state` is (round index, consumption
    round r, scale, supply, budgets, hungry agents, stocked item count, eaten
    list of (round, agent, item, amount, the scale it is in)); supply, budgets
    and eaten are written in place.  Runs until nothing is stocked, or pauses
    at the start of consumption round r when `agent` is hungry and r is
    len(prefs[agent]); with the agent's whole order it never pauses.  Returns
    the state where it stopped."""
    round_index, r, scale, supply, budget, hungry, stocked, eaten = state
    n = len(prefs)
    m = len(supply)
    known = len(prefs[agent])
    while stocked:
        if r == m or not hungry:
            round_index += 1
            r = 0
            budget = [scale] * n
            hungry = list(range(n))
        if r == known and budget[agent]:
            break
        groups: dict[int, list[int]] = {}
        for j in hungry:
            o = prefs[j][r]
            if supply[o]:
                groups.setdefault(o, []).append(j)
        for o in sorted(groups):
            eaters = groups[o]
            growth, amounts, left = _equal_rate_split([budget[j] for j in eaters], supply[o])
            if growth > 1:
                scale *= growth
                supply = [v * growth for v in supply]
                budget = [v * growth for v in budget]
            supply[o] = left
            if not left:
                stocked -= 1
            for j, amount in zip(eaters, amounts):
                eaten.append((round_index - 1, j, o, amount, scale))
                budget[j] -= amount
            if trace is not None:
                shares = tuple(Fraction(amount, scale) for amount in amounts)
                trace.append(ConsumptionStep(round_index, r + 1, o, tuple(eaters), shares))
        hungry = [j for j in hungry if budget[j]]
        r += 1
    return round_index, r, scale, supply, budget, hungry, stocked, eaten


def gpbm(instance: Instance, keep_trace: bool = True) -> GpbmOutcome:
    """The simultaneous-eating mechanism, computed exactly.

    Rounds repeat while supply remains; within a round every agent holds one
    unit of budget and consumption rounds r = 1..m run in order.  During
    consumption round r, each unexhausted item is eaten at an equal rate by
    the budget-positive agents whose global rank of it is exactly r.  Every
    agent ranks one item per position, so items within a consumption round
    never compete for the same agent, and grouping the budget-positive agents
    by their r-th item finds every eater in O(n).

    All quantities are integers in units of 1/scale, one scale for the whole
    run.  A split that does not come out whole grows the scale, and the supply
    and budgets with it; the amounts eaten so far keep the scale they were
    eaten at and are brought to the final scale once, at the end.  The
    outcome skips the checks of the public constructors, which its rounds
    pass by construction.
    """
    n = instance.agent_count
    m = instance.item_count
    trace: list[ConsumptionStep] | None = [] if keep_trace else None
    start = (0, m, 1, [1] * m, [], [], m, [])
    round_index, _, scale, _, _, _, _, eaten = _eat(instance.pref_order, start, 0, trace)
    if round_index != instance.rounds_needed:
        raise AssertionError(
            f"eating ran {round_index} rounds, expected {instance.rounds_needed}"
        )
    stages = [[[0] * m for _ in range(n)] for _ in range(round_index)]
    for c, j, o, amount, at_scale in eaten:
        stages[c][j][o] = amount * (scale // at_scale)
    rounds = tuple(RandomAssignment._from_scaled(scale, rows) for rows in stages)
    return _trusted(
        GpbmOutcome, _trusted(RoundDecomposition, rounds), tuple(trace) if keep_trace else None
    )


def _gpbm_report_classes(instance: Instance, agent: int) -> Iterator[tuple]:
    """`agent`'s reports grouped by the prefix of them that gpbm reads: it
    reads position r in consumption round r while the agent is hungry, and
    every round restarts at position 0, so reports sharing the read prefix
    share the run.  A
    depth-first search resumes `_eat` where it pauses, once per unused item in
    ascending order, each on its own copy of the state.  Yields (prefix,
    scale, row numerators) per class, in `itertools.permutations` order."""
    m = instance.item_count
    prefs = list(instance.pref_order)
    stack: list[tuple[tuple[int, ...], tuple]] = [((), (0, m, 1, [1] * m, [], [], m, []))]
    while stack:
        prefix, state = stack.pop()
        prefs[agent] = prefix
        round_index, r, scale, supply, budget, hungry, stocked, eaten = _eat(prefs, state, agent)
        if stocked:
            for o in sorted(set(range(m)).difference(prefix), reverse=True):
                paused = (round_index, r, scale, supply[:], budget[:], hungry[:], stocked, eaten[:])
                stack.append((prefix + (o,), paused))
            continue
        row = [0] * m
        for _, j, o, amount, at_scale in eaten:
            if j == agent:
                row[o] += amount * (scale // at_scale)
        yield prefix, scale, row


# ---------------------------------------------------------------------------
# Quota serial dictatorship baseline


def rsdq(
    instance: Instance, priority_order: Sequence[int], quota: int | None = None
) -> DeterministicAssignment:
    """Agents pick their whole quota of best remaining items in priority order."""
    if sorted(priority_order) != list(range(instance.agent_count)):
        raise InputError("priority order is not a permutation of the agent indices")
    if quota is None:
        quota = instance.rounds_needed
    if quota < 1:
        raise InputError("quota must be at least 1")
    holders: list[int | None] = [None] * instance.item_count
    for j in priority_order:
        picks = 0
        for o in instance.pref_order[j]:
            if picks == quota:
                break
            if holders[o] is None:
                holders[o] = j
                picks += 1
    return DeterministicAssignment._from_holders(instance.agent_count, tuple(holders))


def rsdq_lottery(instance: Instance, quota: int | None = None) -> Lottery:
    """Uniform mixture of the dictatorship over all n! priority orders."""
    n = instance.agent_count
    weight = Fraction(1, math.factorial(n))
    return Lottery.of(
        (weight, rsdq(instance, order, quota))
        for order in itertools.permutations(range(n))
    )
