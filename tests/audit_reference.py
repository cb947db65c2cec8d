"""The strategyproofness audit as a full scan.

Every agent, a clone of an earlier agent included, is tried against every
misreported order, and rows are compared through the public `row` views and
`sd_dominates`.  Tests compare `oracle.sd_wsp_audit`, which skips an agent
whose true order repeats an earlier agent's, against this scan.
"""

import itertools

from fairassign import sd_dominates
from fairassign.oracle import EXACT_MECHANISMS, SpWitness


def sd_wsp_audit(mechanism, instance):
    """The first (agent, misreport) whose row sd-dominates and differs from
    the truthful one, as an `SpWitness`, or None."""
    expected = EXACT_MECHANISMS[mechanism][0]
    truthful = expected(instance)
    for agent in range(instance.agent_count):
        true_order = instance.pref_order[agent]
        truthful_row = truthful.row(agent)
        for reported in itertools.permutations(range(instance.item_count)):
            if reported == true_order:
                continue
            row = expected(instance.with_agent_order(agent, reported)).row(agent)
            if row != truthful_row and sd_dominates(true_order, row, truthful_row):
                return SpWitness(mechanism, instance, agent, reported, truthful_row, row)
    return None
