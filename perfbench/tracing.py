"""Spans and work counters around the library's public functions.

The library is not changed: `Tracer.install` replaces each traced function by
a wrapper in every ``fairassign`` module that holds a reference to it (so the
names that ``oracle``, ``decomposition`` and ``cli`` import from elsewhere are
covered too), in ``properties._DETERMINISTIC_CHECKERS`` and, for
``Lottery.of`` and ``Lottery.expected``, on the class itself.

A span records its name, start, end, parent span and job id.  Spans stay in
memory and are written once, by `Tracer.write`.  A span's self time is its
duration minus the time of its direct child spans; the work a counter does to
read a result is charged to neither.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

# Per-layer metrics, in BENCHMARK.json order.  Times are per cycle of the
# workload's job list, counts are per cycle, cli.startup_ms is per process.
COUNT_METRICS = (
    "mechanisms.gebm_lottery.calls",
    "mechanisms.gebm_lottery.atoms",
    "mechanisms.gebm_expected.calls",
    "mechanisms.gpbm.calls",
    "mechanisms.gpbm.consumption_steps",
    "mechanisms.gebm_sample.calls",
    "mechanisms.rsdq.calls",
    "decomposition.birkhoff_decompose.calls",
    "decomposition.birkhoff_decompose.atoms",
    "decomposition.birkhoff_decompose.size",
    "properties.check_lottery_expost.atoms_checked",
    "oracle.sd_wsp_audit.mechanism_calls",
    "oracle.remark1_search.profiles",
    "oracle.enumerate_assignments.assignments",
)
SELF_TIME_SPANS = (
    "mechanisms.gebm_lottery",
    "mechanisms.gebm_expected",
    "mechanisms.gpbm",
    "mechanisms.gebm_sample",
    "mechanisms.rsdq",
    "model.lottery_of",
    "model.lottery_expected",
    "model.parse_instance",
    "model.payload",
    "decomposition.expand_subagents",
    "decomposition.birkhoff_decompose",
    "decomposition.sample_realization",
    "properties.check_pe_acyclic",
    "properties.check_sde_acyclic",
    "properties.check_fcm",
    "properties.check_ef1",
    "properties.check_sd_wef",
    "properties.check_sd_ef",
    "properties.check_lottery_expost",
    "oracle.sd_wsp_audit",
    "oracle.neutrality_audit",
    "oracle.remark1_search",
    "oracle.pe_bruteforce",
    "oracle.fcm_bruteforce_max",
)
CLI_SUBCOMMANDS = ("gen", "run", "check", "decompose", "experiment")
PAYLOAD_FUNCTIONS = (
    "assignment_to_payload",
    "assignment_from_payload",
    "random_to_payload",
    "random_from_payload",
    "lottery_to_payload",
    "lottery_from_payload",
    "serialize_instance",
)


def consumption_steps(instance, outcome) -> int:
    """Waterfilling events of a gpbm run, read from its per-round matrices.

    gpbm records one step per (round, consumption round r, item) in which some
    agent ranking the item r-th eats a positive amount of it, so the count
    equals ``len(outcome.supply_trace)`` whether or not the trace was kept.
    """
    ranks = instance.global_rank
    steps = set()
    for c, stage in enumerate(outcome.per_round.rounds):
        for j, row in enumerate(stage.rows):
            for o, share in enumerate(row):
                if share:
                    steps.add((c, o, ranks[j][o]))
    return len(steps)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.job = -1
        self.active = False
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._open: list[tuple[int, Counter, list[float]]] = []
        self._t0 = perf_counter()

    def call(self, name: str, fn: Callable, args, kwargs, counter=None):
        """Run fn inside a span; counter(args, result, child_calls) -> {count: n}."""
        if not self.active:
            return fn(*args, **kwargs)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1][0] if self._open else -1)
        self.span_job.append(self.job)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        children: Counter = Counter()
        child_time = [0.0]
        self._open.append((index, children, child_time))
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.span_start[index] = start - self._t0
            self.span_end[index] = end - self._t0
            self.self_s[name] += end - start - child_time[0]
            self.total_s[name] += end - start
            self.counts[name + ".calls"] += 1
        if counter is not None:
            self.counts.update(counter(args, result, children))
        if self._open:
            _, parent_children, parent_time = self._open[-1]
            parent_children[name] += 1
            parent_time[0] += perf_counter() - start
        return result

    def wrap(self, name: str, fn: Callable, counter=None) -> Callable:
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return wrapper

    def count_yields(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.active:
                    self.counts[name] += 1
                yield item

        return wrapper

    def install(self, lib) -> None:
        """Wrap the traced functions wherever the package refers to them."""
        model, mech, dec, props, oracle, cli = (
            lib.model, lib.mechanisms, lib.decomposition, lib.properties, lib.oracle, lib.cli
        )
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "fairassign" or name.startswith("fairassign.")
        ]

        def replace(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)
            for prop, checker in list(props._DETERMINISTIC_CHECKERS.items()):
                if checker is original:
                    props._DETERMINISTIC_CHECKERS[prop] = replacement

        def traced(module, attr, name, counter=None):
            replace(getattr(module, attr), self.wrap(name, getattr(module, attr), counter))

        traced(mech, "gebm_lottery", "mechanisms.gebm_lottery",
               lambda a, r, c: {"mechanisms.gebm_lottery.atoms": r.atom_count})
        traced(mech, "gebm_expected", "mechanisms.gebm_expected")
        traced(mech, "gpbm", "mechanisms.gpbm",
               lambda a, r, c: {"mechanisms.gpbm.consumption_steps": consumption_steps(a[0], r)})
        traced(mech, "gebm_sample", "mechanisms.gebm_sample")
        traced(mech, "rsdq", "mechanisms.rsdq")
        traced(model, "parse_instance", "model.parse_instance")
        for attr in PAYLOAD_FUNCTIONS:
            traced(model, attr, "model.payload")
        traced(dec, "expand_subagents", "decomposition.expand_subagents")
        traced(dec, "birkhoff_decompose", "decomposition.birkhoff_decompose",
               lambda a, r, c: {
                   "decomposition.birkhoff_decompose.atoms": r.atom_count,
                   "decomposition.birkhoff_decompose.size": len(r.source.entries),
               })
        traced(dec, "sample_realization", "decomposition.sample_realization")
        checkers = ("check_pe_acyclic", "check_fcm", "check_ef1")
        for attr in checkers + ("check_sde_acyclic", "check_sd_wef", "check_sd_ef"):
            traced(props, attr, f"properties.{attr}")
        traced(props, "check_lottery_expost", "properties.check_lottery_expost",
               lambda a, r, c: {
                   "properties.check_lottery_expost.atoms_checked":
                       sum(c[f"properties.{n}"] for n in checkers)
               })
        traced(oracle, "sd_wsp_audit", "oracle.sd_wsp_audit",
               lambda a, r, c: {
                   "oracle.sd_wsp_audit.mechanism_calls":
                       c["mechanisms.gebm_expected"] + c["mechanisms.gpbm"]
               })
        traced(oracle, "neutrality_audit", "oracle.neutrality_audit")
        traced(oracle, "remark1_search", "oracle.remark1_search",
               lambda a, r, c: {"oracle.remark1_search.profiles": c["mechanisms.gebm_expected"]})
        traced(oracle, "pe_bruteforce", "oracle.pe_bruteforce")
        traced(oracle, "fcm_bruteforce_max", "oracle.fcm_bruteforce_max")
        enumerate_assignments = oracle.enumerate_assignments
        replace(enumerate_assignments, self.count_yields(
            "oracle.enumerate_assignments.assignments", enumerate_assignments))

        lottery_of = vars(model.Lottery)["of"].__func__
        model.Lottery.of = classmethod(self.wrap("model.lottery_of", lottery_of))
        model.Lottery.expected = self.wrap("model.lottery_expected", model.Lottery.expected)

        cli_main = cli.main
        cli.main = lambda argv: self.call(f"cli.{argv[0]}", cli_main, (argv,), {})

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line (times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_job[i]}\n"
                )
