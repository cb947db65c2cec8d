"""Self-test of the benchmark's own checks and tracing.

    python3 perfbench/selftest.py

Shows that a corrupted output (one Fraction changed) and a job that raises
are both counted as failed jobs, and that the tracer sees calls made through
the names other modules import, ``_DETERMINISTIC_CHECKERS`` and the
``Lottery`` methods.  Exits with code 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction

import run
import tracing
import workloads


def check_failures_are_counted(lib, golden: dict) -> None:
    slot = workloads.Slot("expected", "identical", 4, 8)
    good = workloads.eager_job(lib, slot, workloads.slot_instance(lib, slot, 0))

    def corrupted_run():
        matrix, checks = good.run()
        rows = [list(row) for row in matrix.rows]
        rows[0][0], rows[1][0] = rows[0][0] + Fraction(1, 97), rows[1][0] - Fraction(1, 97)
        return lib.model.RandomAssignment(tuple(tuple(r) for r in rows)), checks

    def raising_run():
        raise RuntimeError("injected failure")

    jobs = [good, replace(good, run=corrupted_run), replace(good, run=raising_run)]
    loop = run.run_cycles(jobs, 0, 0, golden)
    assert (loop.attempted, loop.failed) == (3, 2), loop
    assert "differs from its golden digest" in loop.failures[0], loop.failures
    assert "RuntimeError: injected failure" in loop.failures[1], loop.failures
    assert len(loop.latencies) == 1


def check_tracing_sees_aliases(lib) -> None:
    tracer = tracing.Tracer()
    tracer.install(lib)
    tracer.active = True
    instance = workloads.slot_instance(lib, workloads.Slot("sp", "ic", 3, 4, 0, 1), 0)
    # oracle's own reference to gebm_expected, then Lottery.of / .expected
    witness = lib.oracle.sd_wsp_audit("gebm", instance)
    calls = tracer.counts["mechanisms.gebm_expected.calls"]
    assert witness is not None or calls == 1 + 3 * 23, calls
    assert tracer.counts["oracle.sd_wsp_audit.mechanism_calls"] == calls
    assert tracer.counts["model.lottery_of.calls"] == calls
    assert tracer.counts["model.lottery_expected.calls"] == calls
    # _DETERMINISTIC_CHECKERS, called from check_lottery_expost
    lottery = lib.mechanisms.gebm_lottery(instance)
    reports = lib.properties.check_lottery_expost(instance, lottery, ["pe", "fcm"])
    assert all(r.verdict for r in reports.values())
    assert tracer.counts["properties.check_lottery_expost.atoms_checked"] == 2 * lottery.atom_count
    # decomposition's own reference to gpbm; steps derived without the trace
    before = tracer.counts["mechanisms.gpbm.calls"]
    lib.decomposition.gpbm_lottery(instance)
    assert tracer.counts["mechanisms.gpbm.calls"] == before + 1
    for seed in range(5):
        slot = workloads.Slot("fractional", "ic", 4, 9, 0, seed)
        instance = workloads.slot_instance(lib, slot, 0)
        outcome = lib.mechanisms.gpbm(instance)
        assert tracing.consumption_steps(instance, outcome) == len(outcome.supply_trace)
    # spans nest: every parent opened before its child and closed after it
    for i in range(len(tracer.span_name)):
        parent = tracer.span_parent[i]
        if parent >= 0:
            assert tracer.span_start[parent] <= tracer.span_start[i]
            assert tracer.span_end[i] <= tracer.span_end[parent]


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    lib = workloads.load_library()
    golden = json.loads(run.GOLDEN.read_text())["eager-exact"]
    check_failures_are_counted(lib, golden)
    check_tracing_sees_aliases(lib)
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
