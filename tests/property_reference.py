"""The set-based acyclicity checkers the package's bitmask versions replaced,
and the `Fraction` brute-force Pareto check that `oracle.pe_bruteforce`
replaced.

Each checker builds a dict of successor sets, one agent at a time, and
`_first_cycle` sorts every vertex's successors before it walks them.
`pe_bruteforce` compares every changed agent's indicator rows, built from
`holders`, with `lex_dominates`.  Tests compare the package's reports (verdict
and cycle witness) and brute-force verdicts against these for equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from fairassign.model import (
    ZERO,
    DeterministicAssignment,
    InputError,
    Instance,
    RandomAssignment,
    lex_dominates,
)
from fairassign.oracle import DEFAULT_ENUM_CAP, enumerate_assignments
from fairassign.properties import PropertyReport


def _first_cycle(item_count: int, edges: Mapping[int, set[int]]) -> list[int] | None:
    """First directed cycle under depth-first search with ascending vertex order."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * item_count
    for start in range(item_count):
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, Iterable[int]]] = [(start, iter(sorted(edges.get(start, ()))))]
        path = [start]
        color[start] = GRAY
        while stack:
            node, neighbours = stack[-1]
            advanced = False
            for nxt in neighbours:
                if color[nxt] == GRAY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def _cycle_witness(instance: Instance, cycle: list[int]) -> dict:
    return {"cycle": [instance.items[o] for o in cycle]}


def check_pe_acyclic(instance: Instance, assignment: DeterministicAssignment) -> PropertyReport:
    """Pareto efficiency via acyclicity of the held-item improvement relation.

    There is an edge from item o to item o' whenever some holder of o strictly
    prefers o'.
    """
    if not assignment.is_complete:
        raise InputError("Pareto efficiency is checked on complete assignments")
    edges: dict[int, set[int]] = {}
    for j in range(instance.agent_count):
        order = instance.pref_order[j]
        better: list[int] = []
        held = assignment.bundles[j]
        for o in order:
            if o in held and better:
                edges.setdefault(o, set()).update(better)
            better.append(o)
    cycle = _first_cycle(instance.item_count, edges)
    if cycle is None:
        return PropertyReport("pe", True)
    return PropertyReport("pe", False, _cycle_witness(instance, cycle))


def check_sde_acyclic(
    instance: Instance,
    matrix: RandomAssignment,
    require_fully_allocating: bool = True,
) -> PropertyReport:
    """Ex-ante efficiency via acyclicity over positive probabilistic shares.

    Total outputs must be fully allocating; pass `require_fully_allocating=False`
    to run the same acyclicity criterion on one round's partial matrix.
    """
    if require_fully_allocating and not matrix.is_fully_allocating:
        raise InputError("ex-ante efficiency is checked on fully allocating matrices")
    edges: dict[int, set[int]] = {}
    for j in range(instance.agent_count):
        order = instance.pref_order[j]
        row = matrix.row(j)
        better: list[int] = []
        for o in order:
            if row[o] > ZERO and better:
                edges.setdefault(o, set()).update(better)
            better.append(o)
    cycle = _first_cycle(instance.item_count, edges)
    if cycle is None:
        return PropertyReport("sde", True)
    return PropertyReport("sde", False, _cycle_witness(instance, cycle))


def _indicator(assignment: DeterministicAssignment, agent: int) -> tuple[Fraction, ...]:
    """Agent's 0/1 row of the assignment, as `Fraction`s."""
    return tuple(Fraction(h == agent) for h in assignment.holders)


def pe_bruteforce(
    instance: Instance, assignment: DeterministicAssignment, cap: int = DEFAULT_ENUM_CAP
) -> bool:
    """Pareto efficiency by exhaustion: no reallocation lexicographically
    improves a nonempty agent set while leaving everyone else's bundle intact."""
    if not assignment.is_complete:
        raise InputError("Pareto efficiency is checked on complete assignments")
    base = [_indicator(assignment, j) for j in range(instance.agent_count)]
    for candidate in enumerate_assignments(instance, cap=cap):
        # an agent's bundle changes exactly when an item moves to or from it
        moves = [pair for pair in zip(candidate.holders, assignment.holders) if pair[0] != pair[1]]
        changed = {j for pair in moves for j in pair}
        if not changed:
            continue
        if all(
            lex_dominates(instance.pref_order[j], _indicator(candidate, j), base[j])
            for j in changed
        ):
            return False
    return True
