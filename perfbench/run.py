"""Benchmark of the fairassign package: one workload per run.

    python3 perfbench/run.py --workload eager-exact --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: it runs the jobs of its cycle
(see workloads.py) one at a time, whole cycles over, until the jobs have been
busy for ``--seconds`` and at least MIN_JOBS jobs have run.  Every output is
checked outside the timed region; a job that raises or fails a check counts
toward ``fail_frac`` and makes the run exit with code 1.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs two untraced cycles, then traced cycles, and prints the per-layer
metrics (see tracing.py) and writes every span to ``.perfbench_out/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from workloads import ROOT, SRC, VARIANTS, WORKLOADS, Job

MIN_JOBS = 100
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def digest(value) -> str:
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(value.encode()).hexdigest()[:32]


def check(job: Job, output, first: bool, golden: dict, record: bool) -> list[str]:
    """Errors found in one job's output; with `record`, store its digest instead."""
    try:
        errors = job.verify(output, first)
        if job.canon is not None:
            key, got = digest(job.spec), digest(job.canon(output))
            if record:
                golden[key] = got
            elif key not in golden:
                errors.append("no golden digest for this input")
            elif golden[key] != got:
                errors.append("output differs from its golden digest")
    except Exception as exc:  # a malformed output must count as a failure
        errors = [f"check raised {type(exc).__name__}: {exc}"]
    return errors


@dataclass
class Loop:
    """What a run of whole cycles measured."""

    latencies: list[float] = field(default_factory=list)  # seconds, successful jobs
    cycle_busy: list[float] = field(default_factory=list)
    cycle_jobs: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def run_cycles(
    jobs: list[Job],
    seconds: float,
    min_jobs: int,
    golden: dict,
    *,
    record: bool = False,
    tracer: tracing.Tracer | None = None,
    after_cycle=None,
) -> Loop:
    loop = Loop()
    while True:
        busy = 0.0
        first = not loop.cycle_busy
        for job in jobs:
            gc.collect()
            if tracer is not None:
                tracer.job = loop.attempted
                tracer.active = True
            start = perf_counter()
            try:
                output, errors = job.run(), []
            except Exception as exc:  # a job that raises is a failed job
                output, errors = None, [f"raised {type(exc).__name__}: {exc}"]
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            busy += elapsed
            loop.attempted += 1
            if not errors:
                errors = check(job, output, first, golden, record)
            del output
            if errors:
                loop.failed += 1
                loop.failures.append(f"{job.name}: {'; '.join(errors)}")
            else:
                loop.latencies.append(elapsed)
        loop.cycle_busy.append(busy)
        loop.cycle_jobs.append(len(jobs))
        if after_cycle is not None:
            after_cycle()
        if sum(loop.cycle_busy) >= seconds and loop.attempted >= min_jobs:
            return loop


def setup(workload, seed: int, workdir: Path, inprocess: bool):
    """Import the package and build the cycle's jobs from the seed."""
    lib = workloads.load_library()
    rng = lib.mechanisms.ModularRng(seed)
    variants = [rng.below(VARIANTS) for _ in workload.slots]
    gen_seed = rng.below(1 << 31)
    jobs = workloads.build_jobs(lib, workload, variants, gen_seed, workdir, inprocess)
    if workload.make_job is not None:
        rng.shuffle(jobs)
    return lib, jobs


def end_to_end(loop: Loop, setup_s: float, cli: bool) -> dict:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    rates = [n / busy for n, busy in zip(loop.cycle_jobs, loop.cycle_busy)]
    ms = [t * 1000.0 for t in loop.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (statistics.median(rates), "1/s"),
        "job_p50_ms": (statistics.median(ms), "ms"),
        "job_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
    }


def cli_startup_ms() -> float:
    """Median wall time of ``fairassign --help`` in a fresh interpreter."""
    times = []
    for _ in range(STARTUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-m", workloads.CLI_MODULE, "--help"],
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            check=True,
            timeout=60,
        )
        times.append((perf_counter() - start) * 1000.0)
    return statistics.median(times)


def traced_run(lib, jobs: list[Job], seconds: float, golden: dict, workdir: Path, out: Path):
    """Two untraced cycles (the second is the overhead reference), then traced cycles."""
    reference = run_cycles(jobs, 0, 2 * len(jobs), golden)
    tracer = tracing.Tracer()
    tracer.install(lib)
    per_cycle: list[Counter] = []
    seen: Counter = Counter()

    def after_cycle():
        counts = tracer.counts - seen
        seen.update(counts)
        # Experiment reports (.csv) carry wall_ms, a timing, so they are left out.
        counts["cli.artifact_bytes"] = sum(
            (workdir / name).stat().st_size
            for job in jobs
            for name in job.outputs
            if not name.endswith(".csv")
        )
        per_cycle.append(counts)

    loop = run_cycles(jobs, seconds, 1, golden, tracer=tracer, after_cycle=after_cycle)
    tracer.write(out)
    cycles = len(loop.cycle_busy)
    problems = reference.failures + loop.failures
    if any(counts != per_cycle[0] for counts in per_cycle):
        problems.append("work counters differ between cycles of the same job list")
    counts = per_cycle[0]
    metrics = {name: (counts.get(name, 0), "count") for name in tracing.COUNT_METRICS}
    for span in tracing.SELF_TIME_SPANS:
        metrics[f"{span}.self_s"] = (tracer.self_s.get(span, 0.0) / cycles, "s")
    metrics["cli.startup_ms"] = (cli_startup_ms(), "ms")
    for sub in tracing.CLI_SUBCOMMANDS:
        wall_s = tracer.total_s.get(f"cli.{sub}", 0.0)
        metrics[f"cli.{sub}.wall_ms"] = (1000.0 * wall_s / cycles, "ms")
    metrics["cli.artifact_bytes"] = (counts["cli.artifact_bytes"], "bytes")
    traced_cycle, untraced_cycle = statistics.median(loop.cycle_busy), reference.cycle_busy[1]
    metrics["trace.overhead"] = (traced_cycle / untraced_cycle, "ratio")
    summary = [
        f"  traced {cycles} cycles of {len(jobs)} jobs; spans: {len(tracer.span_name)} -> {out}",
        f"  tracing overhead: traced cycle {traced_cycle:.3f} s vs untraced {untraced_cycle:.3f} s",
    ]
    attempted = reference.attempted + loop.attempted
    failed = reference.failed + loop.failed
    return metrics, attempted, failed, problems, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairassign" / "__init__.py").is_file():
        print(f"perfbench: no fairassign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    cli = workload.make_job is None
    golden = json.loads(GOLDEN.read_text()).get(workload.name, {})
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".perfbench_work"))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            lib, jobs = setup(workload, args.seed, workdir, inprocess=cli and bool(args.trace))
            setup_times.append(perf_counter() - start)
        setup_s = statistics.median(setup_times)
        print(f"workload {workload.name}, seed {args.seed}: {len(jobs)} jobs per cycle, "
              f"set-up {setup_s:.4f} s (median of {SETUP_REPEATS})")
        if args.trace:
            out = ROOT / ".perfbench_out" / f"trace-{workload.name}-seed{args.seed}.tsv.gz"
            metrics, attempted, failed, problems, summary = traced_run(
                lib, jobs, args.seconds, golden, workdir, out
            )
        else:
            loop = run_cycles(jobs, args.seconds, MIN_JOBS, golden)
            metrics = end_to_end(loop, setup_s, cli) if len(loop.latencies) > 1 else {}
            attempted, failed, problems = loop.attempted, loop.failed, loop.failures
            cycles = len(loop.cycle_busy)
            summary = [
                f"  {cycles} cycles, {attempted} jobs, busy {sum(loop.cycle_busy):.2f} s; "
                f"timings: jobs_per_s median of {cycles} cycles, "
                f"percentiles over {len(loop.latencies)} jobs",
                f"  fail_frac {failed / attempted:.4f} ratio ({failed}/{attempted})",
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in summary:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {unit}")
    for problem in problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
