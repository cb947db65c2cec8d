"""Core types for the indivisible-item assignment problem.

Agents hold strict preferences over m distinct items.  Outcomes are
deterministic assignments (binary matrices), random assignments (matrices of
exact rational shares), and lotteries (finite distributions over deterministic
assignments).  All arithmetic is exact: shares enter and leave the API as
`fractions.Fraction` values, are stored as integers over one common
denominator, and no routine in this module ever rounds.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

ZERO = Fraction(0)


class InputError(ValueError):
    """A caller supplied malformed or inconsistent input."""


class SizeLimitError(RuntimeError):
    """An exact computation would exceed its configured cap."""


def parse_fraction(text: str) -> Fraction:
    """Parse a rational serialized as 'p/q' ('0', '1' and plain integers allowed)."""
    if not isinstance(text, str):
        raise InputError(f"expected a rational string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"invalid rational {text!r}") from exc


def format_fraction(value: Fraction) -> str:
    """Canonical reduced 'p/q' form (integers render without a denominator)."""
    return str(Fraction(value))


def _trusted(cls, *values):
    """A `cls` record holding `values` in field order, without the public
    constructor's checks: for records a producer just built or checked."""
    out = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(out, name, value)
    return out


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class Agent:
    """One agent: a unique name and a strict preference order over all items."""

    name: str
    prefs: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefs", tuple(self.prefs))


def _as_order(order: Iterable[int], item_count: int) -> tuple[int, ...] | None:
    """`order` as a tuple of item indices, or None when it is not a
    permutation of range(item_count)."""
    try:
        order = tuple(map(operator.index, order))
    except TypeError:  # an entry that is not an integer
        return None
    return order if sorted(order) == list(range(item_count)) else None


@dataclass(frozen=True, init=False)
class Instance:
    """An assignment problem: items plus one strict preference order per agent.

    Items and agents are addressed by dense integer indices everywhere in the
    computational API; names appear only in files and reports.  Index order
    follows construction (file) order.  Stored as the item names, the agent
    names and `pref_order` (pref_order[j] lists agent j's item indices from
    most to least preferred); `agents`, with orders by item name, derives
    from them.  Equality and hashing use the stored fields, which is
    equivalent to comparing (items, agents).
    """

    items: tuple[str, ...]
    agent_names: tuple[str, ...]
    pref_order: tuple[tuple[int, ...], ...]

    def __init__(self, items: Sequence[str], agents: Sequence[Agent]) -> None:
        items = tuple(items)
        agents = tuple(agents)
        if not items:
            raise InputError("an instance needs at least one item")
        if not agents:
            raise InputError("an instance needs at least one agent")
        item_index: dict[str, int] = {}
        for name in items:
            if name in item_index:
                raise InputError(f"duplicate item {name!r}")
            item_index[name] = len(item_index)
        seen_agents: set[str] = set()
        orders = []
        for agent in agents:
            if agent.name in seen_agents:
                raise InputError(f"duplicate agent {agent.name!r}")
            seen_agents.add(agent.name)
            order = _as_order((item_index.get(name, -1) for name in agent.prefs), len(items))
            if order is None:
                raise InputError(
                    f"preferences of agent {agent.name!r} are not a permutation of the item set"
                )
            orders.append(order)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "agent_names", tuple(a.name for a in agents))
        object.__setattr__(self, "pref_order", tuple(orders))

    # -- construction helpers

    @classmethod
    def from_prefs(
        cls,
        prefs: Mapping[str, Sequence[str]] | Sequence[Sequence[str]],
        items: Sequence[str] | None = None,
    ) -> "Instance":
        """Build an instance from preference lists.

        `prefs` maps agent names to orders (or is a plain sequence of orders,
        in which case agents are named "1", "2", ...).  When `items` is
        omitted, the first agent's order fixes the item indexing.
        """
        if isinstance(prefs, Mapping):
            named = list(prefs.items())
        else:
            named = [(str(i + 1), order) for i, order in enumerate(prefs)]
        if not named:
            raise InputError("an instance needs at least one agent")
        if items is None:
            items = tuple(named[0][1])
        return cls(tuple(items), tuple(Agent(name, tuple(order)) for name, order in named))

    def with_agent_order(self, agent: int, order: Sequence[int]) -> "Instance":
        """Copy of this instance with one agent's preference order replaced.

        `order` lists item indices from most to least preferred.  The other
        agents' orders are shared with this instance.
        """
        if not 0 <= agent < self.agent_count:
            raise InputError(f"agent index {agent} out of range")
        order = _as_order(order, self.item_count)
        if order is None:
            raise InputError("replacement order is not a permutation of the item indices")
        orders = self.pref_order[:agent] + (order,) + self.pref_order[agent + 1 :]
        return _trusted(Instance, self.items, self.agent_names, orders)

    # -- derived views (the dataclass itself stays immutable)

    @cached_property
    def agents(self) -> tuple[Agent, ...]:
        """Each agent with its order by item name, for files and reports."""
        items = self.items
        return tuple(
            Agent(name, tuple(items[o] for o in order))
            for name, order in zip(self.agent_names, self.pref_order)
        )

    @property
    def agent_count(self) -> int:
        return len(self.agent_names)

    @property
    def item_count(self) -> int:
        return len(self.items)

    @property
    def rounds_needed(self) -> int:
        """ceil(m / n): the round count of the multi-round mechanisms."""
        return -(-self.item_count // self.agent_count)

    @cached_property
    def item_index(self) -> dict[str, int]:
        return {name: o for o, name in enumerate(self.items)}

    @cached_property
    def agent_index(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.agent_names)}

    @cached_property
    def global_rank(self) -> tuple[tuple[int, ...], ...]:
        """global_rank[j][o] is the 1-based rank of item o in agent j's full order."""
        out = []
        for order in self.pref_order:
            row = [0] * self.item_count
            for pos, o in enumerate(order):
                row[o] = pos + 1
            out.append(tuple(row))
        return tuple(out)

    @cached_property
    def first_choices(self) -> tuple[int, ...]:
        """first_choices[j] is agent j's most preferred item index."""
        return tuple(order[0] for order in self.pref_order)

    @cached_property
    def first_choice_items(self) -> tuple[int, ...]:
        """The items that are some agent's first choice, ascending."""
        return tuple(sorted(set(self.first_choices)))

    @cached_property
    def better_masks(self) -> tuple[tuple[int, ...], ...]:
        """better_masks[j][o] is the bitmask of the items agent j ranks above item o."""
        out = []
        for order in self.pref_order:
            row = [0] * self.item_count
            above = 0
            for o in order:
                row[o] = above
                above |= 1 << o
            out.append(tuple(row))
        return tuple(out)


# ---------------------------------------------------------------------------
# Dominance relations


def _check_comparison(order: Sequence[int], p: Sequence[Fraction], q: Sequence[Fraction]) -> None:
    m = len(order)
    if set(order) != set(range(m)):
        raise InputError("order is not a permutation of the item indices")
    if len(p) != m or len(q) != m:
        raise InputError("allocation vectors do not match the order's length")


def sd_dominates(order: Sequence[int], p: Sequence[Fraction], q: Sequence[Fraction]) -> bool:
    """Weak stochastic dominance: every upper-contour cumulative share of `p`
    is at least that of `q`.  Comparison is exact."""
    _check_comparison(order, p, q)
    cum_p = ZERO
    cum_q = ZERO
    for o in order:
        cum_p += p[o]
        cum_q += q[o]
        if cum_p < cum_q:
            return False
    return True


def lex_dominates(order: Sequence[int], p: Sequence[Fraction], q: Sequence[Fraction]) -> bool:
    """Strict lexicographic dominance: `p` gives strictly more of the best item
    on which the two vectors differ.  Returns False when p equals q."""
    _check_comparison(order, p, q)
    for o in order:
        if p[o] != q[o]:
            return p[o] > q[o]
    return False


# ---------------------------------------------------------------------------
# Assignments


@dataclass(frozen=True, init=False)
class DeterministicAssignment:
    """A concrete allocation, each item held at most once, stored as `holders`
    (item -> agent index, or None if unallocated); the binary n x m `rows` and
    the bundles derive from it.  Equality and hashing use (agent_count,
    holders), which is equivalent to comparing `rows`."""

    agent_count: int
    holders: tuple[int | None, ...]

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        if not rows:
            raise InputError("assignment needs at least one agent row")
        m = len(rows[0])
        if not m:
            raise InputError("assignment needs at least one item column")
        for row in rows:
            if len(row) != m:
                raise InputError("assignment rows have inconsistent lengths")
            for v in row:
                if v not in (0, 1):
                    raise InputError("assignment entries must be 0 or 1")
        holders: list[int | None] = [None] * m
        for o in range(m):
            if sum(row[o] for row in rows) > 1:
                raise InputError(f"item column {o} is allocated more than once")
            holders[o] = next((j for j, row in enumerate(rows) if row[o]), None)
        object.__setattr__(self, "agent_count", len(rows))
        object.__setattr__(self, "holders", tuple(holders))

    # This and `RandomAssignment._from_scaled` skip `_trusted`'s loop, which
    # costs measurably once per lottery atom, enumerated assignment or round.
    @classmethod
    def _from_holders(
        cls, agent_count: int, holders: tuple[int | None, ...]
    ) -> "DeterministicAssignment":
        """Skip validation for holders a producer just built itself."""
        out = object.__new__(cls)
        object.__setattr__(out, "agent_count", agent_count)
        object.__setattr__(out, "holders", holders)
        return out

    @classmethod
    def from_bundles(
        cls, agent_count: int, item_count: int, bundles: Mapping[int, Iterable[int]]
    ) -> "DeterministicAssignment":
        holders: list[int | None] = [None] * item_count
        for j, bundle in bundles.items():
            if not 0 <= j < agent_count:
                raise InputError(f"agent index {j} out of range")
            for o in bundle:
                if not 0 <= o < item_count:
                    raise InputError(f"item index {o} out of range")
                if holders[o] is not None:
                    raise InputError(f"item column {o} is allocated more than once")
                holders[o] = j
        return cls._from_holders(agent_count, tuple(holders))

    @property
    def item_count(self) -> int:
        return len(self.holders)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The binary n x m matrix, built on request."""
        rows = [[0] * len(self.holders) for _ in range(self.agent_count)]
        for o, j in enumerate(self.holders):
            if j is not None:
                rows[j][o] = 1
        return tuple(map(tuple, rows))

    @cached_property
    def bundles(self) -> tuple[frozenset[int], ...]:
        held = list(enumerate(self.holders))
        return tuple(frozenset(o for o, h in held if h == j) for j in range(self.agent_count))

    @property
    def is_complete(self) -> bool:
        return None not in self.holders

    @property
    def is_matching(self) -> bool:
        held = [j for j in self.holders if j is not None]
        return len(held) == len(set(held))

    def to_random(self) -> "RandomAssignment":
        return RandomAssignment._from_scaled(1, self.rows)


def row_key(assignment: DeterministicAssignment) -> int:
    """The 0/1 rows, agent 0's first, read as one binary number, item 0 the most
    significant bit of each row.  Equal-length 0/1 tuples compare as the numbers
    they spell, so assignments of one shape order by this key as by `rows`."""
    holders = assignment.holders
    m = len(holders)
    top = assignment.agent_count * m - 1
    key = 0
    for o, j in enumerate(holders):
        if j is not None:
            key |= 1 << top - j * m - o
    return key


def _integer_form(
    rows: Iterable[Iterable[Fraction | int | str]],
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(scale, numerators) of a matrix given entry by entry: the scale is the
    least common multiple of the reduced denominators and numerators[j][o] is
    entry (j, o) times the scale."""
    rows = [[v if type(v) is Fraction else Fraction(v) for v in row] for row in rows]
    scale = math.lcm(*{v.denominator for row in rows for v in row})
    return scale, tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows)


def _fraction_rows(
    scale: int, numerators: tuple[tuple[int, ...], ...]
) -> tuple[tuple[Fraction, ...], ...]:
    """The rows numerators[j][o] / scale as `Fraction`s, one shared object per
    distinct numerator."""
    shares = {v: Fraction(v, scale) for v in set(itertools.chain.from_iterable(numerators))}
    return tuple(tuple(map(shares.__getitem__, row)) for row in numerators)


def _canonical(
    scale: int, numerators: Iterable[Iterable[int]]
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The matrix numerators[j][o] / scale with the common factor of the scale
    and every numerator divided out, which is its `_integer_form`."""
    numerators = tuple(map(tuple, numerators))
    common = math.gcd(scale, *itertools.chain.from_iterable(numerators))
    if common == 1:
        return scale, numerators
    return scale // common, tuple(tuple(v // common for v in row) for row in numerators)


@dataclass(frozen=True, init=False)
class RandomAssignment:
    """Probabilistic shares: an n x m matrix of exact rationals in [0, 1].

    Stored as one `scale` and integer `numerators`: entry (j, o) is
    numerators[j][o] / scale.  The scale is the least common multiple of the
    entries' reduced denominators, so gcd(scale, *numerators) == 1 and
    equality and hashing use (scale, numerators), which is equivalent to
    comparing the `Fraction` rows.  `rows`, `row` and `entry` build `Fraction`
    views on request.
    """

    scale: int
    numerators: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Sequence[Sequence[Fraction | int | str]]) -> None:
        scale, numerators = _integer_form(rows)
        if not numerators:
            raise InputError("random assignment needs at least one agent row")
        m = len(numerators[0])
        if not m:
            raise InputError("random assignment needs at least one item column")
        for row in numerators:
            if len(row) != m:
                raise InputError("random assignment rows have inconsistent lengths")
            for v in row:
                if not 0 <= v <= scale:
                    raise InputError(f"share {Fraction(v, scale)} is outside [0, 1]")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "numerators", numerators)

    @classmethod
    def _from_scaled(cls, scale: int, numerators: Iterable[Iterable[int]]) -> "RandomAssignment":
        """Skip validation for shares numerators[j][o] / scale that a producer
        just built itself."""
        out = object.__new__(cls)
        scale, numerators = _canonical(scale, numerators)
        object.__setattr__(out, "scale", scale)
        object.__setattr__(out, "numerators", numerators)
        return out

    @property
    def agent_count(self) -> int:
        return len(self.numerators)

    @property
    def item_count(self) -> int:
        return len(self.numerators[0])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return _fraction_rows(self.scale, self.numerators)

    def row(self, agent: int) -> tuple[Fraction, ...]:
        scale = self.scale
        return tuple(Fraction(v, scale) for v in self.numerators[agent])

    def entry(self, agent: int, item: int) -> Fraction:
        return Fraction(self.numerators[agent][item], self.scale)

    @cached_property
    def is_fully_allocating(self) -> bool:
        return all(sum(column) == self.scale for column in zip(*self.numerators))


@dataclass(frozen=True)
class Lottery:
    """A finite probability distribution over deterministic assignments.

    Atoms are deduplicated, carry strictly positive probabilities summing to
    exactly one, and are kept in a canonical order so equal lotteries compare
    equal.  Construct through `Lottery.of` unless the input is already normal.
    """

    atoms: tuple[tuple[Fraction, DeterministicAssignment], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise InputError("a lottery needs at least one atom")
        # a reduced Fraction's denominator is positive
        if any(prob.numerator <= 0 for prob, _ in self.atoms):
            raise InputError("lottery probabilities must be positive")
        if len({(a.agent_count, len(a.holders)) for _, a in self.atoms}) > 1:
            raise InputError("lottery atoms have inconsistent shapes")
        if len({a.holders for _, a in self.atoms}) < len(self.atoms):
            raise InputError("lottery atoms must be deduplicated")
        scale, weights = self._weights()
        if sum(weights) != scale:
            raise InputError(
                f"lottery probabilities sum to {Fraction(sum(weights), scale)}, expected 1"
            )

    def _weights(self) -> tuple[int, list[int]]:
        """(L, each atom's probability times L) for L the least common multiple
        of the probabilities' denominators."""
        scale = math.lcm(*{prob.denominator for prob, _ in self.atoms})
        return scale, [prob.numerator * (scale // prob.denominator) for prob, _ in self.atoms]

    @classmethod
    def of(
        cls, pairs: Iterable[tuple[Fraction, DeterministicAssignment]]
    ) -> "Lottery":
        """Merge duplicate assignments, drop zero-probability atoms, sort by `row_key`."""
        merged: dict[tuple, tuple[Fraction, DeterministicAssignment]] = {}
        for prob, assignment in pairs:
            if type(prob) is not Fraction:
                prob = Fraction(prob)
            if not prob:
                continue
            key = (assignment.agent_count, assignment.holders)
            if key in merged:
                prob += merged[key][0]
            merged[key] = (prob, assignment)
        return cls(tuple(sorted(merged.values(), key=lambda atom: row_key(atom[1]))))

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    def expected(self) -> RandomAssignment:
        """The probability-weighted mean matrix of the lottery."""
        first = self.atoms[0][1]
        scale, weights = self._weights()
        numerators = [[0] * first.item_count for _ in range(first.agent_count)]
        for weight, (_, assignment) in zip(weights, self.atoms):
            for o, j in enumerate(assignment.holders):
                if j is not None:
                    numerators[j][o] += weight
        return RandomAssignment._from_scaled(scale, numerators)


@dataclass(frozen=True)
class RoundDecomposition:
    """An ordered sequence of per-round matrices (or matchings) whose entrywise
    sum is a total assignment; exactly ceil(m/n) rounds."""

    rounds: tuple[DeterministicAssignment | RandomAssignment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds", tuple(self.rounds))
        if not self.rounds:
            raise InputError("a round decomposition needs at least one round")
        first = self.rounds[0]
        n = first.agent_count
        m = first.item_count
        expected_rounds = -(-m // n)
        if len(self.rounds) != expected_rounds:
            raise InputError(
                f"decomposition has {len(self.rounds)} rounds, expected ceil(m/n) = {expected_rounds}"
            )
        for stage in self.rounds:
            if type(stage) is not type(first):
                raise InputError("rounds mix matchings and share matrices")
            if stage.agent_count != n or stage.item_count != m:
                raise InputError("round matrices have inconsistent shapes")
            if isinstance(stage, DeterministicAssignment):
                over = not stage.is_matching
            else:
                over = any(sum(row) > stage.scale for row in stage.numerators)
            if over:
                raise InputError("an agent exceeds one unit within a single round")

    @property
    def round_count(self) -> int:
        return len(self.rounds)


# ---------------------------------------------------------------------------
# Item-relabeling permutations


def _check_permutation(item_count: int, perm: Mapping[int, int]) -> None:
    if _as_order(perm, item_count) is None or _as_order(perm.values(), item_count) is None:
        raise InputError("permutation is not a bijection over the item indices")


def permute_instance(instance: Instance, perm: Mapping[int, int]) -> Instance:
    """Relabel items inside every preference list (the item set itself is fixed)."""
    _check_permutation(instance.item_count, perm)
    orders = tuple(tuple(perm[o] for o in order) for order in instance.pref_order)
    return _trusted(Instance, instance.items, instance.agent_names, orders)


def _permute_columns(rows: tuple[tuple, ...], perm: Mapping[int, int]) -> tuple[tuple, ...]:
    """Every row with its entry o moved to column perm[o]."""
    _check_permutation(len(rows[0]), perm)
    source = sorted(perm, key=perm.__getitem__)  # source[perm[o]] == o
    return tuple(tuple(row[o] for o in source) for row in rows)


def permute_random(matrix: RandomAssignment, perm: Mapping[int, int]) -> RandomAssignment:
    return RandomAssignment._from_scaled(matrix.scale, _permute_columns(matrix.numerators, perm))


def permute_lottery(lottery: Lottery, perm: Mapping[int, int]) -> Lottery:
    holders = _permute_columns([a.holders for _, a in lottery.atoms], perm)
    return Lottery.of(
        (prob, DeterministicAssignment._from_holders(a.agent_count, h))
        for (prob, a), h in zip(lottery.atoms, holders)
    )


# ---------------------------------------------------------------------------
# File formats


def parse_instance(text: str) -> Instance:
    """Parse the JSON instance format; see `serialize_instance` for the layout."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"instance document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")
    items = doc.get("items")
    agents = doc.get("agents")
    if not isinstance(items, list) or not all(isinstance(i, str) for i in items):
        raise InputError('"items" must be an array of strings')
    if not isinstance(agents, list):
        raise InputError('"agents" must be an array of objects')
    parsed_agents = []
    for entry in agents:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("name"), str)
            or not isinstance(entry.get("prefs"), list)
            or not all(isinstance(p, str) for p in entry["prefs"])
        ):
            raise InputError('each agent must be an object {"name": str, "prefs": [str, ...]}')
        parsed_agents.append(Agent(entry["name"], tuple(entry["prefs"])))
    return Instance(tuple(items), tuple(parsed_agents))


def serialize_instance(instance: Instance) -> str:
    doc = {
        "items": list(instance.items),
        "agents": [{"name": a.name, "prefs": list(a.prefs)} for a in instance.agents],
    }
    return json.dumps(doc, indent=2) + "\n"


def assignment_to_payload(
    instance: Instance, assignment: DeterministicAssignment
) -> dict[str, list[str]]:
    """{"agent": [items...]} with items listed in instance item order."""
    return {
        name: [instance.items[o] for o in sorted(assignment.bundles[j])]
        for j, name in enumerate(instance.agent_names)
    }


def assignment_from_payload(
    instance: Instance, payload: Mapping[str, Sequence[str]]
) -> DeterministicAssignment:
    if not isinstance(payload, dict):
        raise InputError("an assignment payload must be an object of agent bundles")
    bundles: dict[int, list[int]] = {}
    for name, items in payload.items():
        if name not in instance.agent_index:
            raise InputError(f"unknown agent {name!r} in assignment payload")
        if not isinstance(items, list) or not all(isinstance(i, str) for i in items):
            raise InputError(f"the bundle of agent {name!r} must be a list of item names")
        try:
            bundles[instance.agent_index[name]] = [instance.item_index[i] for i in items]
        except KeyError as exc:
            raise InputError(f"unknown item {exc.args[0]!r} in assignment payload") from exc
    return DeterministicAssignment.from_bundles(
        instance.agent_count, instance.item_count, bundles
    )


def random_to_payload(instance: Instance, matrix: RandomAssignment) -> list[list[str]]:
    """Matrix of rational strings; rows follow agent order, columns item order."""
    return [[format_fraction(v) for v in row] for row in matrix.rows]


def random_from_payload(
    instance: Instance, payload: Sequence[Sequence[str]]
) -> RandomAssignment:
    if not isinstance(payload, list) or not all(isinstance(row, list) for row in payload):
        raise InputError("a random assignment payload must be a list of rows")
    if len(payload) != instance.agent_count:
        raise InputError("random assignment payload has the wrong number of rows")
    rows = []
    for row in payload:
        if len(row) != instance.item_count:
            raise InputError("random assignment payload has the wrong number of columns")
        rows.append(tuple(parse_fraction(v) for v in row))
    return RandomAssignment(tuple(rows))


def lottery_to_payload(instance: Instance, lottery: Lottery) -> list[dict]:
    return [
        {"prob": format_fraction(prob), "assignment": assignment_to_payload(instance, a)}
        for prob, a in lottery.atoms
    ]


def lottery_from_payload(instance: Instance, payload: Sequence[Mapping]) -> Lottery:
    if not isinstance(payload, list):
        raise InputError("lottery atoms must be a list")
    atoms = []
    for entry in payload:
        if not isinstance(entry, dict) or "prob" not in entry or "assignment" not in entry:
            raise InputError('each lottery atom needs "prob" and "assignment"')
        atoms.append(
            (parse_fraction(entry["prob"]), assignment_from_payload(instance, entry["assignment"]))
        )
    return Lottery.of(atoms)
