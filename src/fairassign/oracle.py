"""Independent ground truth and adversarial audits.

Brute-force routines here deliberately avoid the graph-based checkers in
`properties`: efficiency is re-derived by exhaustive enumeration so the two
routes can be compared (`pe_bruteforce` reads only the instance's
`global_rank`, never the `better_masks` that `check_pe_acyclic` walks), and
the misreport auditor covers every unilateral deviation, with one run of the
exact mechanism per class of reports that it reads alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .mechanisms import DEFAULT_BRANCH_CAP, _gpbm_report_classes, gebm_expected, gebm_lottery, gpbm
from .model import (
    DeterministicAssignment,
    InputError,
    Instance,
    SizeLimitError,
    _as_order,
    _trusted,
    format_fraction,
    permute_instance,
    permute_lottery,
    permute_random,
    sd_dominates,
    serialize_instance,
)
from .properties import PropertyReport, _check_shape, check_sd_ef, check_sde_acyclic

DEFAULT_ENUM_CAP = 10**6


def default_item_names(item_count: int) -> tuple[str, ...]:
    if item_count <= 26:
        return tuple(chr(ord("a") + i) for i in range(item_count))
    width = len(str(item_count))
    return tuple(f"o{i + 1:0{width}d}" for i in range(item_count))


def instance_from_orders(orders: Sequence[Sequence[int]], item_count: int) -> Instance:
    """Build an instance from index-level preference orders, each checked to
    be a permutation of the item indices; agents are named "1", "2", ... in
    order."""
    names = tuple(str(j + 1) for j in range(len(orders)))
    if not names:
        raise InputError("an instance needs at least one agent")
    if item_count < 1:
        raise InputError("an instance needs at least one item")
    checked = tuple(_as_order(order, item_count) for order in orders)
    for name, order in zip(names, checked):
        if order is None:
            raise InputError(f"preferences of agent {name!r} are not a permutation of the item set")
    return _trusted(Instance, default_item_names(item_count), names, checked)


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def enumerate_assignments(
    instance: Instance, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[DeterministicAssignment]:
    """Every complete assignment (all n^m functions items -> agents)."""
    n = instance.agent_count
    m = instance.item_count
    if n**m > cap:
        raise SizeLimitError(f"enumeration of {n}^{m} assignments exceeds the cap {cap}")
    for owners in itertools.product(range(n), repeat=m):
        yield DeterministicAssignment._from_holders(n, owners)


def pe_bruteforce(
    instance: Instance, assignment: DeterministicAssignment, cap: int = DEFAULT_ENUM_CAP
) -> bool:
    """Pareto efficiency by exhaustion: no reallocation lexicographically
    improves a nonempty agent set while leaving everyone else's bundle intact.

    Agent j sees item o as bit global_rank[j][o] - 1, so a reallocation
    improves j exactly when the lowest bit of the items j gains or loses is
    one j gains."""
    _check_shape(instance, assignment)
    if not assignment.is_complete:
        raise InputError("Pareto efficiency is checked on complete assignments")
    n = instance.agent_count
    bits = [[1 << (rank - 1) for rank in ranks] for ranks in instance.global_rank]
    for candidate in enumerate_assignments(instance, cap=cap):
        # an agent's bundle changes exactly when an item moves to or from it
        gained = [0] * n
        lost = [0] * n
        for o, (new, old) in enumerate(zip(candidate.holders, assignment.holders)):
            if new != old:
                gained[new] |= bits[new][o]
                lost[old] |= bits[old][o]
        if any(lost) and all(g & (g | l) & -(g | l) for g, l in zip(gained, lost) if g | l):
            return False
    return True


def fcm_bruteforce_max(instance: Instance, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Maximal first-choice count over every complete assignment."""
    firsts = tuple(enumerate(instance.first_choices))
    return max(
        sum(a.holders[o] == j for j, o in firsts) for a in enumerate_assignments(instance, cap=cap)
    )


# ---------------------------------------------------------------------------
# Strategyproofness auditing


@dataclass(frozen=True)
class SpWitness:
    """A profitable unilateral misreport for an exact mechanism.

    The manipulated expected allocation row stochastically dominates the
    truthful one under the agent's true order and differs from it.
    """

    mechanism: str
    instance: Instance
    agent: int
    misreport: tuple[int, ...]
    truthful_row: tuple[Fraction, ...]
    manipulated_row: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        order = self.instance.pref_order[self.agent]
        if self.truthful_row == self.manipulated_row:
            raise InputError("witness rows must differ")
        if not sd_dominates(order, self.manipulated_row, self.truthful_row):
            raise InputError("witness rows must exhibit dominance under the true order")

    def misreport_instance(self) -> Instance:
        return self.instance.with_agent_order(self.agent, self.misreport)

    def replay(self) -> bool:
        """Recompute both mechanism runs and confirm both rows bit-exactly."""
        expected = _exact(self.mechanism)[0]
        truthful = expected(self.instance)
        manipulated = expected(self.misreport_instance())
        return (
            truthful.row(self.agent) == self.truthful_row
            and manipulated.row(self.agent) == self.manipulated_row
        )

    def dominance_trace(self) -> list[dict]:
        """Cumulative shares along the true order, for both rows."""
        order = self.instance.pref_order[self.agent]
        trace = []
        cum_truthful = Fraction(0)
        cum_manipulated = Fraction(0)
        for o in order:
            cum_truthful += self.truthful_row[o]
            cum_manipulated += self.manipulated_row[o]
            trace.append(
                {
                    "item": self.instance.items[o],
                    "cumulative_truthful": format_fraction(cum_truthful),
                    "cumulative_manipulated": format_fraction(cum_manipulated),
                }
            )
        return trace

    def to_payload(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "agent": self.instance.agent_names[self.agent],
            "true_profile": serialize_instance(self.instance),
            "misreport_profile": serialize_instance(self.misreport_instance()),
            "misreport": [self.instance.items[o] for o in self.misreport],
            "truthful_row": [format_fraction(v) for v in self.truthful_row],
            "manipulated_row": [format_fraction(v) for v in self.manipulated_row],
            "dominance_trace": self.dominance_trace(),
        }


def _each_report(expected, instance: Instance, agent: int) -> Iterator[tuple]:
    """One class per report of `agent` but its true order, each run in full."""
    true_order = instance.pref_order[agent]
    for reported in itertools.permutations(range(instance.item_count)):
        if reported != true_order:
            matrix = expected(instance.with_agent_order(agent, reported))
            yield reported, matrix.scale, matrix.numerators[agent]


# mechanism -> (expected matrix(instance), exact output(instance, branch cap),
# relabel(output, item permutation), misreport classes(instance, agent) as
# (prefix, scale, row numerators): each report starting with the prefix gives
# the agent row / scale).  Entries look the mechanisms up when called, so that
# wrappers installed on this module see every call.
EXACT_MECHANISMS = {
    "gebm": (
        lambda instance: gebm_expected(instance),
        lambda instance, cap: gebm_lottery(instance, cap),
        lambda lottery, permutation: permute_lottery(lottery, permutation),
        lambda instance, agent: _each_report(gebm_expected, instance, agent),
    ),
    "gpbm": (
        lambda instance: gpbm(instance, keep_trace=False).total,
        lambda instance, cap: gpbm(instance, keep_trace=False).total,
        lambda matrix, permutation: permute_random(matrix, permutation),
        lambda instance, agent: _gpbm_report_classes(instance, agent),
    ),
}


def _exact(mechanism: str) -> tuple:
    if not isinstance(mechanism, str) or mechanism not in EXACT_MECHANISMS:
        raise InputError(f"unknown exact mechanism {mechanism!r}")
    return EXACT_MECHANISMS[mechanism]


def sd_wsp_audit(
    mechanism: str,
    instance: Instance,
    max_items: int = 6,
) -> SpWitness | None:
    """Search every unilateral misreport for a dominance-improving deviation.

    Each agent's m! reported orders are searched in `itertools.permutations`
    order, one run per class of reports that share the prefix the mechanism
    reads (gebm: every report; gpbm: `mechanisms._gpbm_report_classes`).  The
    witness is the first report of the first improving class, the one a scan
    of every report finds first.  Returns None when no deviation helps.

    An agent whose true order repeats an earlier agent's is skipped: both
    mechanisms are anonymous, so swapping the two clones maps each of the
    later agent's misreports onto the same misreport by the earlier one, and
    the scan reaches the later agent only when the earlier one had no witness.
    """
    m = instance.item_count
    if m > max_items:
        raise SizeLimitError(
            f"misreport audit over {m}! orders per agent exceeds max_items={max_items}"
        )
    expected, _, _, report_classes = _exact(mechanism)
    truthful = expected(instance)
    orders = instance.pref_order
    for agent in range(instance.agent_count):
        true_order = orders[agent]
        if true_order in orders[:agent]:
            continue
        truthful_row = truthful.numerators[agent]
        for prefix, scale, row in report_classes(instance, agent):
            if _sd_improves(true_order, row, scale, truthful_row, truthful.scale):
                return SpWitness(
                    mechanism,
                    instance,
                    agent,
                    prefix + tuple(sorted(set(range(m)).difference(prefix))),
                    truthful.row(agent),
                    tuple(Fraction(v, scale) for v in row),
                )
    return None


def _sd_improves(
    order: Sequence[int], row: Sequence[int], scale: int, base: Sequence[int], base_scale: int
) -> bool:
    """Whether the shares row / scale sd-dominate base / base_scale under
    `order` and differ from them.  Cumulative sums along `order` are compared
    by cross-multiplying, so every comparison is between integers; the rows
    differ exactly when some cumulative gap is positive."""
    gap = 0
    ahead = False
    for o in order:
        gap += row[o] * base_scale - base[o] * scale
        if gap < 0:
            return False
        ahead = ahead or gap > 0
    return ahead


# ---------------------------------------------------------------------------
# Neutrality auditing


def neutrality_audit(
    mechanism: str,
    instance: Instance,
    permutation: Mapping[int, int],
    max_branches: int = DEFAULT_BRANCH_CAP,
) -> PropertyReport:
    """Compare mechanism(relabelled instance) against relabelled mechanism output.

    Both sides are computed exactly: matrices for the eating mechanism,
    lotteries for the eager Boston mechanism.
    """
    relabelled = permute_instance(instance, permutation)
    _, output, relabel, _ = _exact(mechanism)
    lhs = output(relabelled, max_branches)
    if lhs == relabel(output(instance, max_branches), permutation):
        return PropertyReport("neutrality", True)
    return PropertyReport(
        "neutrality",
        False,
        {"permutation": {instance.items[a]: instance.items[b] for a, b in permutation.items()}},
    )


# ---------------------------------------------------------------------------
# Counterexample search for the exact eager mechanism


# searchable property -> check(instance, expected matrix), in test order
REMARK1_CHECKS = {
    "sde": lambda instance, expected: check_sde_acyclic(instance, expected),
    "sdef": lambda instance, expected: check_sd_ef(instance, expected),
}


def remark1_search(
    bound_n: int,
    bound_m: int,
    properties: Sequence[str] = ("sde", "sdef"),
    max_profiles: int = DEFAULT_ENUM_CAP,
) -> tuple[Instance, str] | None:
    """First preference profile whose exact expected output fails one of the
    requested ex-ante properties ("sde", "sdef").

    Profiles with n = bound_n agents over m = bound_m items are enumerated in
    lexicographic order.
    """
    if bound_n < 1 or bound_m < 1:
        raise InputError(f"profile search bounds must be at least 1 (got {bound_n}, {bound_m})")
    for prop in properties:
        if not isinstance(prop, str) or prop not in REMARK1_CHECKS:
            raise InputError(f"unknown searchable property {prop!r}")
    total = math.factorial(bound_m) ** bound_n
    if total > max_profiles:
        raise SizeLimitError(
            f"profile enumeration of {total} profiles exceeds the cap {max_profiles}"
        )
    items = default_item_names(bound_m)
    names = tuple(str(j + 1) for j in range(bound_n))
    orders = list(itertools.permutations(range(bound_m)))
    for profile in itertools.product(orders, repeat=bound_n):
        instance = _trusted(Instance, items, names, profile)
        expected = gebm_expected(instance)
        for prop, check in REMARK1_CHECKS.items():
            if prop in properties and not check(instance, expected).verdict:
                return instance, prop
    return None
