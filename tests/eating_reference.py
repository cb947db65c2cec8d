"""Straightforward re-implementations of the eating pipeline's hot routines.

Each routine here is the plain scan the package's fast version must agree
with exactly: the simultaneous-eating mechanism visits every (item, agent)
pair in every consumption round; the Birkhoff-von Neumann matcher is the
recursive augmenting-path search over the `Fraction` entries, restarted for
every atom; the envy checks, EF1 included, compare every agent pair (and,
for EF1, every removed item) through the public `sd_dominates`.  Tests
compare the package's outputs against these for equality, atom order
included.
"""

from fractions import Fraction

from fairassign import sd_dominates

ZERO = Fraction(0)
ONE = Fraction(1)


def _equal_rate_split(budgets, supply):
    eaten = [ZERO] * len(budgets)
    left = supply
    active = [i for i in range(len(budgets)) if budgets[i] > ZERO]
    while active and left > ZERO:
        step = min(min(budgets[i] - eaten[i] for i in active), left / len(active))
        for i in active:
            eaten[i] += step
        left -= step * len(active)
        active = [i for i in active if eaten[i] < budgets[i]]
    return eaten, left


def eat(instance):
    """(total rows, per-round rows, trace) of the eating mechanism.

    Trace entries are (round, consumption round, item, eaters, amounts).
    """
    n = instance.agent_count
    m = instance.item_count
    ranks = instance.global_rank
    supply = [ONE] * m
    stages = []
    trace = []
    round_index = 0
    while any(s > ZERO for s in supply):
        round_index += 1
        shares = [[ZERO] * m for _ in range(n)]
        budget = [ONE] * n
        for r in range(1, m + 1):
            if all(s == ZERO for s in supply) or all(b == ZERO for b in budget):
                break
            for o in range(m):
                if supply[o] == ZERO:
                    continue
                eaters = [j for j in range(n) if budget[j] > ZERO and ranks[j][o] == r]
                if not eaters:
                    continue
                amounts, supply[o] = _equal_rate_split([budget[j] for j in eaters], supply[o])
                for j, amount in zip(eaters, amounts):
                    shares[j][o] += amount
                    budget[j] -= amount
                trace.append((round_index, r, o, tuple(eaters), tuple(amounts)))
        stages.append(tuple(tuple(row) for row in shares))
    total = tuple(
        tuple(sum((stage[j][o] for stage in stages), ZERO) for o in range(m)) for j in range(n)
    )
    return total, tuple(stages), tuple(trace)


def _square(entries, item_count):
    """Split the nil column into unit-sum virtual columns by greedy filling."""
    rows = len(entries)
    virtual = rows - item_count
    square = [list(row[:item_count]) + [ZERO] * virtual for row in entries]
    col = 0
    room = ONE
    for row in range(rows):
        share = entries[row][item_count]
        while share > ZERO:
            poured = min(share, room)
            square[row][item_count + col] += poured
            share -= poured
            room -= poured
            if room == ZERO and col < virtual - 1:
                col += 1
                room = ONE
    return square


def perfect_matching(square):
    """Recursive augmenting-path matching on the strictly positive entries."""
    size = len(square)
    col_owner = [-1] * size

    def try_row(row, visited):
        for col in range(size):
            if square[row][col] > ZERO and not visited[col]:
                visited[col] = True
                if col_owner[col] < 0 or try_row(col_owner[col], visited):
                    col_owner[col] = row
                    return True
        return False

    for row in range(size):
        if not try_row(row, [False] * size):
            raise RuntimeError("no perfect matching on the positive entries")
    matching = [-1] * size
    for col, row in enumerate(col_owner):
        matching[row] = col
    return matching


def birkhoff_atoms(entries, item_count):
    """Atoms (coefficient, per-row item or None) of the subagent matrix
    `entries` (rows of item shares plus a final nil share), in extraction order."""
    square = _square(entries, item_count)
    size = len(square)
    atoms = []
    remaining = ONE
    while remaining > ZERO:
        matching = perfect_matching(square)
        coefficient = min(square[row][matching[row]] for row in range(size))
        for row in range(size):
            square[row][matching[row]] -= coefficient
        atoms.append(
            (coefficient, tuple(col if col < item_count else None for col in matching))
        )
        remaining -= coefficient
    return tuple(atoms)


def sd_envy_witnesses(instance, rows):
    """First (envious, envied) agent-index pair violating weak and strong
    ex-ante envy-freeness, or None for each."""
    weak = strong = None
    for j in range(instance.agent_count):
        order = instance.pref_order[j]
        for k in range(instance.agent_count):
            if j == k:
                continue
            if weak is None and rows[k] != rows[j] and sd_dominates(order, rows[k], rows[j]):
                weak = (j, k)
            if strong is None and not sd_dominates(order, rows[j], rows[k]):
                strong = (j, k)
    return weak, strong


def _indicator(assignment, agent):
    """Agent's 0/1 row of a deterministic assignment, as `Fraction`s."""
    return tuple(ONE if h == agent else ZERO for h in assignment.holders)


def ef1_witness(instance, assignment):
    """First (envious, envied) agent-index pair violating envy-freeness up to
    one item, or None: every removal of one envied item is tried in turn."""
    for j in range(instance.agent_count):
        order = instance.pref_order[j]
        own = _indicator(assignment, j)
        for k in range(instance.agent_count):
            if j == k or not assignment.bundles[k]:
                continue
            envied = _indicator(assignment, k)
            if not any(
                sd_dominates(order, own, envied[:o] + (ZERO,) + envied[o + 1 :])
                for o in sorted(assignment.bundles[k])
            ):
                return j, k
    return None
