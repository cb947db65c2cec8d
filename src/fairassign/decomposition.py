"""Lottery realization for fractional round-decomposed assignments.

The eating mechanism outputs per-round share matrices.  To realize them
ex-post, each agent j is expanded into one subagent per round whose row is
that round's share vector; a nil column tops the final-round rows up to unit
sum.  Splitting the nil column into unit-sum virtual columns yields a square
doubly stochastic matrix, which a Birkhoff-von Neumann decomposition writes as
a convex combination of permutation matrices.  Each permutation maps back to a
deterministic assignment together with its per-round matchings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .mechanisms import ModularRng, gpbm
from .model import (
    ZERO,
    DeterministicAssignment,
    InputError,
    Instance,
    Lottery,
    RandomAssignment,
    RoundDecomposition,
    _canonical,
    _fraction_rows,
    _trusted,
)


@dataclass(frozen=True)
class SubagentMatrix:
    """Row-stochastic expansion of per-round shares over (agent, round) pairs.

    Rows are ordered agent-major: row j * round_count + c holds agent j's
    round-(c+1) shares.  The final column is the nil share; it is positive only
    in last-round rows and its column total is n * ceil(m/n) - m.

    Stored, like `RandomAssignment`, as one `scale` and integer `numerators`
    (entry (row, col) is numerators[row][col] / scale), brought to canonical
    form on construction; `entries` builds the `Fraction` rows on request.
    """

    scale: int
    numerators: tuple[tuple[int, ...], ...]
    agent_count: int
    round_count: int
    item_count: int

    def __post_init__(self) -> None:
        """Every row and every item column sums to one, so the nil column sums
        to rows - m."""
        scale, numerators = self.scale, self.numerators
        if scale < 1:
            raise InputError("subagent matrix scale must be at least 1")
        if min(self.agent_count, self.round_count, self.item_count) < 1:
            raise InputError("a subagent matrix needs at least one agent, round and item")
        if len(numerators) != self.agent_count * self.round_count:
            raise InputError("subagent matrix has the wrong number of rows")
        for row in numerators:
            if len(row) != self.item_count + 1:
                raise InputError("subagent rows must have one column per item plus nil")
            if min(row) < 0:
                raise InputError("subagent shares must be nonnegative")
            if sum(row) != scale:
                raise InputError("every subagent row must sum to exactly 1")
        for o in range(self.item_count):
            if sum(row[o] for row in numerators) != scale:
                raise InputError(f"item column {o} must sum to exactly 1")
        scale, numerators = _canonical(scale, numerators)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "numerators", numerators)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return _fraction_rows(self.scale, self.numerators)


def expand_subagents(per_round: RoundDecomposition) -> SubagentMatrix:
    """Stack per-round share rows into subagent rows, topping up with nil.

    The one full-allocation check of a caller's rounds.  A valid
    `RoundDecomposition` bounds the shapes, entries and rows, so only the
    non-final row sums and the item column sums are checked here, and the
    result skips the public `SubagentMatrix` constructor's checks."""
    stages = per_round.rounds
    if not all(isinstance(stage, RandomAssignment) for stage in stages):
        raise InputError("the rounds to expand must be share matrices, not matchings")
    n = stages[0].agent_count
    m = stages[0].item_count
    rounds = len(stages)
    last = rounds - 1
    # every round in units of 1/scale
    scale = math.lcm(*(stage.scale for stage in stages))
    factors = [scale // stage.scale for stage in stages]
    rows: list[list[int]] = []
    for j in range(n):
        for c, stage in enumerate(stages):
            factor = factors[c]
            row = [v * factor for v in stage.numerators[j]]
            consumed = sum(row)
            if c < last and consumed != scale:
                raise InputError(
                    f"agent {j} consumed {Fraction(consumed, scale)} in non-final round {c + 1}; "
                    "only final-round rows may carry nil share"
                )
            row.append(scale - consumed)
            rows.append(row)
    for o, column in zip(range(m), zip(*rows)):
        if sum(column) != scale:
            raise InputError(f"item column {o} must sum to exactly 1")
    return _trusted(SubagentMatrix, *_canonical(scale, rows), n, rounds, m)


@dataclass(frozen=True)
class DecomposedLottery:
    """A convex combination of subagent matchings realizing a subagent matrix.

    Each atom matches every subagent to one item or to nil (None); projecting
    an atom merges each agent's subagents into one bundle.  `projected` is the
    corresponding lottery over deterministic assignments (atoms that project
    to the same assignment are merged there, not here).
    """

    source: SubagentMatrix
    atoms: tuple[tuple[Fraction, tuple[int | None, ...]], ...]

    def __post_init__(self) -> None:
        m = self.source.item_count
        rows = self.source.agent_count * self.source.round_count
        entries = self.source.numerators
        # Weights are the coefficients in units of 1/scale, so the
        # reconstruction below adds exact integers.
        scale = math.lcm(*(coefficient.denominator for coefficient, _ in self.atoms))
        total = 0
        reconstructed = [[0] * (m + 1) for _ in range(rows)]
        for coefficient, matching in self.atoms:
            if coefficient <= ZERO:
                raise InputError("decomposition coefficients must be positive")
            weight = coefficient.numerator * (scale // coefficient.denominator)
            total += weight
            if len(matching) != rows:
                raise InputError("an atom does not match every subagent")
            seen_items: set[int] = set()
            for row, target in enumerate(matching):
                # the source's shares are validated nonnegative: zero means not positive
                if target is None:
                    if not entries[row][m]:
                        raise InputError(
                            f"subagent row {row} matched to nil without nil share"
                        )
                    reconstructed[row][m] += weight
                else:
                    if not entries[row][target]:
                        raise InputError(
                            f"atom uses pair (row {row}, item {target}) with zero share"
                        )
                    if target in seen_items:
                        raise InputError(f"item {target} matched twice within one atom")
                    seen_items.add(target)
                    reconstructed[row][target] += weight
            if len(seen_items) != m:
                raise InputError("an atom leaves some item unmatched")
        if total != scale:
            raise InputError(
                f"decomposition coefficients sum to {Fraction(total, scale)}, expected 1"
            )
        source_scale = self.source.scale
        for rebuilt, entry_row in zip(reconstructed, entries):
            for weight, entry in zip(rebuilt, entry_row):
                if weight * source_scale != entry * scale:
                    raise InputError(
                        "coefficient-weighted matchings do not reconstruct the matrix"
                    )

    @cached_property
    def projected(self) -> Lottery:
        return Lottery.of(
            (coefficient, _merge_subagents(self.source, matching))
            for coefficient, matching in self.atoms
        )

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    def atom_assignment(self, index: int) -> DeterministicAssignment:
        """Merge each agent's subagents of one atom into a single bundle."""
        return _merge_subagents(self.source, self.atoms[index][1])

    def atom_round_matchings(self, index: int) -> tuple[DeterministicAssignment, ...]:
        """Per-round one-to-one matchings of one atom."""
        _, matching = self.atoms[index]
        rounds = self.source.round_count
        holders = [[None] * self.source.item_count for _ in range(rounds)]
        # rows are agent-major: row j * rounds + c is agent j's round-c subagent
        for row, o in enumerate(matching):
            if o is not None:
                holders[row % rounds][o] = row // rounds
        n = self.source.agent_count
        return tuple(DeterministicAssignment._from_holders(n, tuple(h)) for h in holders)

    def atom_round_item_sets(self, index: int) -> tuple[frozenset[int], ...]:
        """Items still unallocated at the start of each round of one atom.

        Items a subagent left to nil stay available for later rounds.
        """
        _, matching = self.atoms[index]
        rounds = self.source.round_count
        remaining = frozenset(range(self.source.item_count))
        out = []
        for c in range(rounds):
            out.append(remaining)
            remaining = remaining.difference(matching[c::rounds])
        return tuple(out)


def _square_doubly_stochastic(matrix: SubagentMatrix) -> list[list[int]]:
    """Split the nil column into unit-sum virtual columns by greedy filling.

    Entries stay in the matrix's units of 1/scale, so a unit is `scale`.
    """
    unit = matrix.scale
    rows = matrix.agent_count * matrix.round_count
    m = matrix.item_count
    virtual = rows - m
    square = [list(row[:m]) + [0] * virtual for row in matrix.numerators]
    col = 0
    room = unit
    for row in range(rows):
        share = matrix.numerators[row][m]
        while share > 0:
            poured = min(share, room)
            if poured == 0:
                raise AssertionError("nil shares exceed the virtual column capacity")
            square[row][m + col] += poured
            share -= poured
            room -= poured
            if room == 0 and col < virtual - 1:
                col += 1
                room = unit
    return square


def _perfect_matching(support: list[list[int]]) -> list[int]:
    """Deterministic augmenting-path matching on a support graph.

    `support[row]` lists the row's positive columns in ascending order.  Roots
    are matched in ascending row order, each by a depth-first search that tries
    columns in ascending order and takes the first augmenting path; the search
    runs on an explicit stack, so long paths need no recursion.
    """
    size = len(support)
    col_owner = [-1] * size
    for root in range(size):
        visited = [False] * size
        rows = [root]
        cols: list[int] = []
        pending = [iter(support[root])]
        while pending:
            for col in pending[-1]:
                if not visited[col]:
                    visited[col] = True
                    break
            else:
                pending.pop()
                rows.pop()
                if cols:
                    cols.pop()
                continue
            cols.append(col)
            owner = col_owner[col]
            if owner < 0:
                for row, matched in zip(rows, cols):
                    col_owner[matched] = row
                break
            rows.append(owner)
            pending.append(iter(support[owner]))
        else:
            raise RuntimeError(
                "no perfect matching on the positive entries; "
                "the matrix is not doubly stochastic"
            )
    matching = [-1] * size
    for col, row in enumerate(col_owner):
        matching[row] = col
    return matching


def birkhoff_decompose(matrix: SubagentMatrix) -> DecomposedLottery:
    """Write the squared matrix as a convex combination of permutation matrices.

    Repeatedly extracts a perfect matching on the positive entries, subtracts
    it scaled by its minimum matched entry, and records the pair.  Terminates
    with at most s*s - 2s + 2 atoms for s = n * ceil(m/n).  The entries are
    the matrix's integer numerators, and each row keeps a list of its positive
    columns that loses a column when its entry reaches zero.
    """
    scaled = _square_doubly_stochastic(matrix)
    size = len(scaled)
    m = matrix.item_count
    scale = matrix.scale
    support = [[col for col, v in enumerate(row) if v] for row in scaled]
    raw_atoms: list[tuple[Fraction, list[int]]] = []
    remaining = scale
    while remaining > 0:
        matching = _perfect_matching(support)
        coefficient = min(scaled[row][matching[row]] for row in range(size))
        if coefficient <= 0:
            raise AssertionError("the matching passes through a zero entry")
        for row, col in enumerate(matching):
            scaled[row][col] -= coefficient
            if not scaled[row][col]:
                support[row].remove(col)
        raw_atoms.append((Fraction(coefficient, scale), matching))
        remaining -= coefficient
    bound = size * size - 2 * size + 2 if size > 1 else 1
    if len(raw_atoms) > bound:
        raise AssertionError(f"{len(raw_atoms)} atoms exceed the bound {bound}")
    atoms = tuple(
        (
            coefficient,
            tuple(col if col < m else None for col in matching),
        )
        for coefficient, matching in raw_atoms
    )
    return _trusted(DecomposedLottery, matrix, atoms)


def _merge_subagents(
    matrix: SubagentMatrix, matching: tuple[int | None, ...]
) -> DeterministicAssignment:
    """The assignment of one atom: each agent's subagents' items in one bundle."""
    holders: list[int | None] = [None] * matrix.item_count
    for row, target in enumerate(matching):
        if target is not None:
            holders[target] = row // matrix.round_count
    return DeterministicAssignment._from_holders(matrix.agent_count, tuple(holders))


def sample_realization(decomposed: DecomposedLottery, seed: int) -> int:
    """The index of one atom, drawn with probability equal to its coefficient."""
    rng = ModularRng(seed)
    u = rng.unit()
    cumulative = ZERO
    for i, (coefficient, _) in enumerate(decomposed.atoms):
        cumulative += coefficient
        if u < cumulative:
            return i
    return decomposed.atom_count - 1


def _gpbm_decomposed(instance: Instance) -> DecomposedLottery:
    """Eat, expand, decompose, without projecting the atoms onto a lottery."""
    return birkhoff_decompose(expand_subagents(gpbm(instance, keep_trace=False).per_round))


def gpbm_lottery(instance: Instance) -> tuple[Lottery, DecomposedLottery]:
    """The ex-post lottery of gpbm, with its per-atom round structure."""
    decomposed = _gpbm_decomposed(instance)
    return decomposed.projected, decomposed
