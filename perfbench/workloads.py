"""Seeded instances and the job lists of the four benchmark workloads.

Every workload is a fixed list of *slots*.  A slot names one job kind and one
base instance, drawn by one of the generators below from a fixed generator
seed.  The run's ``--seed`` picks, per slot, one of ``VARIANTS`` item
renamings of that base instance (variant 0 is the base itself) and shuffles
the job order.  Renaming items keeps the combinatorial structure and the order
in which the checkers visit agents, so every seed asks the library for the
same amount of work and runs with different seeds are comparable; and because
the variants form a fixed set, ``golden.json`` holds a digest for every job
any seed can produce.  (Permuting agents would move the first failing agent
pair of ``check_sd_ef`` and so change its work.)

A job is timed by calling ``run``.  Its output is then checked outside the
timed region: ``canon`` gives the uniquely determined part of the output
(digested and compared with ``golden.json``) and ``verify`` checks invariants,
plus slower independent cross-checks on a job's first run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

VARIANTS = 8
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_library() -> SimpleNamespace:
    """Import the package afresh (any earlier copy is dropped first)."""
    for name in [n for n in sys.modules if n == "fairassign" or n.startswith("fairassign.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("fairassign")
    if Path(package.__file__).resolve().parent != SRC / "fairassign":
        raise ImportError(f"fairassign was imported from {package.__file__}, not from {SRC}")
    lib = SimpleNamespace(
        **{
            name: importlib.import_module(f"fairassign.{name}")
            for name in ("model", "mechanisms", "decomposition", "properties", "oracle", "cli")
        }
    )
    return lib


@functools.cache
def branch_oracle():
    """The test suite's independent enumerator of the eager mechanism."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_branch_oracle", ROOT / "tests" / "branch_oracle.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Generators (index-level preference orders)


def ic_orders(rng, n: int, m: int) -> list[list[int]]:
    """Impartial culture, drawn exactly as ``fairassign gen`` draws it."""
    orders = []
    for _ in range(n):
        order = list(range(m))
        rng.shuffle(order)
        orders.append(order)
    return orders


def identical_orders(rng, n: int, m: int) -> list[list[int]]:
    """Every agent reports the same seeded order."""
    order = list(range(m))
    rng.shuffle(order)
    return [list(order) for _ in range(n)]


def near_identical_orders(rng, n: int, m: int, k: int) -> list[list[int]]:
    """A common seeded order, then k seeded adjacent swaps per agent."""
    common = list(range(m))
    rng.shuffle(common)
    orders = []
    for _ in range(n):
        order = list(common)
        for _ in range(k):
            i = rng.below(m - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        orders.append(order)
    return orders


@dataclass(frozen=True)
class Slot:
    """One job of a workload's cycle: a job kind on one base instance."""

    kind: str
    family: str = ""
    n: int = 0
    m: int = 0
    k: int = 0
    gen_seed: int = 0

    @property
    def label(self) -> str:
        if not self.family:
            return self.kind
        swaps = f" k{self.k}" if self.family == "near" else ""
        return f"{self.kind} {self.family} {self.n}x{self.m}{swaps} #{self.gen_seed}"


def slot_instance(lib, slot: Slot, variant: int):
    rng = lib.mechanisms.ModularRng(slot.gen_seed)
    if slot.family == "ic":
        orders = ic_orders(rng, slot.n, slot.m)
    elif slot.family == "identical":
        orders = identical_orders(rng, slot.n, slot.m)
    elif slot.family == "near":
        orders = near_identical_orders(rng, slot.n, slot.m, slot.k)
    else:
        raise ValueError(f"unknown instance family {slot.family!r}")
    if variant:
        names = list(range(slot.m))
        lib.mechanisms.ModularRng(zlib.crc32(f"{slot.label}/{variant}".encode())).shuffle(names)
        orders = [[names[o] for o in order] for order in orders]
    return lib.oracle.instance_from_orders(orders, slot.m)


# ---------------------------------------------------------------------------
# Canonical forms


def fraction_rows(rows) -> list[list[str]]:
    return [[str(v) for v in row] for row in rows]


def lottery_canon(lottery) -> list[list[str]]:
    """Atoms as (assignment, probability) strings, sorted: atom order is free."""
    return sorted(
        ["|".join("".join(map(str, row)) for row in a.rows), str(p)] for p, a in lottery.atoms
    )


def report_canon(report) -> list:
    return [report.name, report.verdict, report.witness]


def probability_errors(pairs, what: str) -> list[str]:
    total = sum((p for p, _ in pairs), Fraction(0))
    if total != 1:
        return [f"{what} probabilities sum to {total}, not 1"]
    if any(p <= 0 for p, _ in pairs):
        return [f"{what} has a non-positive probability"]
    return []


def expost_errors(lib, instance, lottery, reports) -> list[str]:
    """A failing ex-post verdict must name an atom that fails the inner check."""
    errors = []
    for prop, report in reports.items():
        if report.verdict:
            continue
        index = report.witness["atom"]
        inner = lib.properties._DETERMINISTIC_CHECKERS[prop]
        if not 0 <= index < lottery.atom_count or inner(instance, lottery.atoms[index][1]).verdict:
            errors.append(f"expost-{prop} witness atom {index} does not fail {prop}")
    return errors


@dataclass
class Job:
    """One timed call plus the checks made on its output afterwards."""

    name: str
    spec: str  # canonical description of the input; its hash keys golden.json
    run: Callable[[], Any]
    canon: Callable[[Any], Any] | None  # None: output checked by invariants only
    verify: Callable[[Any, bool], list[str]]  # (output, first run) -> errors
    outputs: tuple[str, ...] = ()  # files the job writes (cli-montecarlo)


def instance_spec(lib, kind: str, instance) -> str:
    return f"{kind}\n{lib.model.serialize_instance(instance)}"


# ---------------------------------------------------------------------------
# eager-exact


def eager_job(lib, slot: Slot, instance) -> Job:
    mech, props = lib.mechanisms, lib.properties

    if slot.kind == "expected":

        def run():
            matrix = mech.gebm_expected(instance)
            checks = [
                props.check_sde_acyclic(instance, matrix),
                props.check_sd_wef(instance, matrix),
                props.check_sd_ef(instance, matrix),
            ]
            return matrix, checks

        def canon(out):
            matrix, checks = out
            return [fraction_rows(matrix.rows), [report_canon(r) for r in checks]]

        def verify(out, first):
            matrix, _ = out
            errors = []
            if not matrix.is_fully_allocating:
                errors.append("expected matrix does not allocate every item exactly once")
            if first and instance.agent_count <= 4:
                shares = branch_oracle().expected_shares(instance)
                reference = [
                    [shares[a.name][item] for item in instance.items] for a in instance.agents
                ]
                if [list(row) for row in matrix.rows] != reference:
                    errors.append("gebm_expected disagrees with the branch oracle")
            return errors

    else:

        def run():
            lottery = mech.gebm_lottery(instance)
            return lottery, props.check_lottery_expost(instance, lottery, ["pe", "fcm"])

        def canon(out):
            lottery, reports = out
            return [lottery_canon(lottery), {p: r.verdict for p, r in reports.items()}]

        def verify(out, first):
            lottery, reports = out
            errors = probability_errors(lottery.atoms, "gebm lottery")
            errors += expost_errors(lib, instance, lottery, reports)
            if first and instance.agent_count <= 4:
                oracle = branch_oracle()
                if oracle.lottery_as_bundles(instance, lottery) != oracle.enumerate_distribution(
                    instance
                ):
                    errors.append("gebm_lottery disagrees with the branch oracle")
            return errors

    return Job(slot.label, instance_spec(lib, slot.kind, instance), run, canon, verify)


EAGER_SLOTS = (
    [
        Slot(kind, "identical", n, m)
        for n, m in ((4, 8), (4, 9), (5, 10))
        for kind in ("expected", "lottery")
    ]
    + [
        Slot(kind, "near", 5, 10, k, s)
        for k, s in ((1, 0), (2, 1), (3, 1), (3, 2))
        for kind in ("expected", "lottery")
    ]
    + [Slot(kind, "near", 6, 12, 4, 1) for kind in ("expected", "lottery")]
    + [Slot(kind, "ic", 8, 16, 0, s) for s in range(4) for kind in ("expected", "lottery")]
)


# ---------------------------------------------------------------------------
# eating-exact


def eating_job(lib, slot: Slot, instance) -> Job:
    mech, props, dec = lib.mechanisms, lib.properties, lib.decomposition

    if slot.kind == "fractional":

        def run():
            outcome = mech.gpbm(instance)
            total = outcome.total
            checks = [
                props.check_sde_acyclic(instance, total),
                props.check_sd_wef(instance, total),
                props.check_sd_ef(instance, total),
            ]
            return outcome, checks

        def canon(out):
            outcome, checks = out
            return [
                fraction_rows(outcome.total.rows),
                [fraction_rows(stage.rows) for stage in outcome.per_round.rounds],
                [report_canon(r) for r in checks],
            ]

        def verify(out, first):
            outcome, _ = out
            if not outcome.total.is_fully_allocating:
                return ["gpbm total does not allocate every item exactly once"]
            return []

        return Job(slot.label, instance_spec(lib, slot.kind, instance), run, canon, verify)

    def run():
        lottery, decomposed = dec.gpbm_lottery(instance)
        return lottery, decomposed, props.check_lottery_expost(instance, lottery, ["pe", "fcm"])

    def canon(out):
        # Any valid decomposition is correct, so only the decomposed matrix,
        # which gpbm fixes, is compared with the golden digest.
        _, decomposed, _ = out
        return fraction_rows(decomposed.source.entries)

    def verify(out, first):
        lottery, decomposed, reports = out
        return (
            bvn_errors(decomposed.source.entries, decomposed.atoms)
            + projection_errors(decomposed, lottery)
            + expost_errors(lib, instance, lottery, reports)
        )

    return Job(slot.label, instance_spec(lib, slot.kind, instance), run, canon, verify)


def bvn_errors(entries, atoms) -> list[str]:
    """Invariants of a Birkhoff-von Neumann decomposition of a subagent matrix.

    Coefficients are positive and sum to 1, every item goes to exactly one
    subagent per atom, the weighted atoms add up to the matrix, and there are
    at most s*s - 2s + 2 atoms for s subagents.
    """
    rows = len(entries)
    m = len(entries[0]) - 1
    errors = probability_errors(atoms, "decomposition")
    rebuilt = [[Fraction(0)] * (m + 1) for _ in range(rows)]
    for coefficient, matching in atoms:
        targets = [t for t in matching if t is not None]
        if len(matching) != rows or sorted(targets) != list(range(m)):
            errors.append("a decomposition atom is not a matching of subagents to items")
            break
        for row, target in enumerate(matching):
            rebuilt[row][m if target is None else target] += coefficient
    if rebuilt != [list(row) for row in entries]:
        errors.append("decomposition atoms do not reconstruct the subagent matrix")
    bound = rows * rows - 2 * rows + 2 if rows > 1 else 1
    if len(atoms) > bound:
        errors.append(f"{len(atoms)} decomposition atoms exceed the bound {bound}")
    return errors


def projection_errors(decomposed, lottery) -> list[str]:
    """The lottery must be the atoms with each agent's subagents merged."""
    merged: dict[tuple, Fraction] = {}
    rounds = decomposed.source.round_count
    for coefficient, matching in decomposed.atoms:
        bundles = [[] for _ in range(decomposed.source.agent_count)]
        for row, target in enumerate(matching):
            if target is not None:
                bundles[row // rounds].append(target)
        key = tuple(tuple(sorted(b)) for b in bundles)
        merged[key] = merged.get(key, Fraction(0)) + coefficient
    projected = {tuple(tuple(sorted(b)) for b in a.bundles): p for p, a in lottery.atoms}
    if projected != merged:
        return ["projected lottery does not merge the decomposition atoms"]
    return []


# Jobs of similar cost come in blocks, sized so that the median and the 90th
# percentile of the job latencies fall inside a block and not on the edge
# between two blocks of very different cost: 30% small BvN jobs, 50% jobs of
# about 0.2 s, 20% jobs of about 0.6 s.
EATING_SLOTS = (
    [Slot("lottery", "near", 8, 16, 2, s) for s in range(6)]
    + [Slot("fractional", "ic", 20, 80, 0, s) for s in range(8)]
    + [Slot("lottery", "near", 10, 30, 2, s) for s in range(2)]
    + [Slot("fractional", "ic", 30, 120, 0, s) for s in range(2)]
    + [Slot("lottery", "near", 12, 36, 2, s) for s in range(2)]
)


# ---------------------------------------------------------------------------
# audit


def audit_job(lib, slot: Slot, instance) -> Job:
    mech, props, oracle = lib.mechanisms, lib.properties, lib.oracle
    kind = slot.kind

    if kind.startswith("sp-"):
        mechanism = kind.removeprefix("sp-")

        def run():
            return oracle.sd_wsp_audit(mechanism, instance)

        def canon(witness):
            return None if witness is None else witness.to_payload()

        def verify(witness, first):
            if witness is not None and first and not witness.replay():
                return ["sp witness does not replay"]
            return []

    elif kind.startswith("neutrality-"):
        mechanism = kind.removeprefix("neutrality-")
        m = instance.item_count
        swaps = [
            {**{o: o for o in range(m)}, a: b, b: a} for a in range(m) for b in range(a + 1, m)
        ]

        def run():
            return [oracle.neutrality_audit(mechanism, instance, perm) for perm in swaps]

        def canon(reports):
            return [report_canon(r) for r in reports]

        def verify(reports, first):
            if not all(r.verdict for r in reports):
                return [f"{mechanism} failed the neutrality audit"]
            return []

    elif kind == "pe-bruteforce":
        # An rsdq outcome is Pareto efficient, so the brute force scans every
        # assignment whatever the item names (an early exit would not).
        assignment = mech.rsdq(instance, list(range(instance.agent_count)))

        def run():
            return oracle.pe_bruteforce(instance, assignment)

        def canon(verdict):
            return verdict

        def verify(verdict, first):
            if first and instance.item_count <= 7:
                if verdict != props.check_pe_acyclic(instance, assignment).verdict:
                    return ["pe_bruteforce disagrees with check_pe_acyclic"]
            return []

    elif kind == "fcm-bruteforce":

        def run():
            return oracle.fcm_bruteforce_max(instance)

        def canon(best):
            return best

        def verify(best, first):
            if best != props.fcm_max(instance):
                return ["fcm_bruteforce_max disagrees with fcm_max"]
            return []

    else:
        raise ValueError(f"unknown audit job kind {kind!r}")

    return Job(slot.label, instance_spec(lib, kind, instance), run, canon, verify)


def remark1_job(lib, bound_n: int, bound_m: int, props: tuple[str, ...]) -> Job:
    oracle = lib.oracle

    def run():
        return oracle.remark1_search(bound_n, bound_m, props)

    def canon(found):
        if found is None:
            return None
        instance, prop = found
        return [lib.model.serialize_instance(instance), prop]

    def verify(found, first):
        if found is None or not first:
            return []
        # Re-derive the failure from the branch oracle's expected shares.
        instance, prop = found
        shares = branch_oracle().expected_shares(instance)
        matrix = lib.model.RandomAssignment(
            tuple(tuple(shares[a.name][i] for i in instance.items) for a in instance.agents)
        )
        checker = {"sde": lib.properties.check_sde_acyclic, "sdef": lib.properties.check_sd_ef}
        if checker[prop](instance, matrix).verdict:
            return [f"remark1 witness does not fail {prop}"]
        return []

    name = f"remark1 {bound_n}x{bound_m} {','.join(props)}"
    return Job(name, name, run, canon, verify)


# The sp audits scan misreports in a fixed order and stop at the first
# witness, so renaming items would change their work; these instances have no
# witness and are scanned in full.  With the three remark1 searches the cycle
# is 22 jobs in blocks of similar cost (as for eating-exact): 8 jobs under
# 25 ms, 7 of 35-70 ms (the median), 3 gebm sp audits, 4 gpbm sp audits (the
# 90th percentile).
AUDIT_SLOTS = (
    [Slot("sp-gebm", "ic", n, m, 0, s) for n, m, s in ((3, 5, 0), (3, 5, 1), (4, 5, 0))]
    + [Slot("sp-gpbm", "identical", 3, 5)]
    + [Slot("sp-gpbm", "ic", n, m, 0, s) for n, m, s in ((4, 5, 13), (5, 5, 0), (5, 5, 1))]
    + [Slot("neutrality-gebm", "ic", 4, 6, 0, 0), Slot("neutrality-gpbm", "ic", 4, 6, 0, 0)]
    + [Slot("pe-bruteforce", "ic", 3, m, 0, s) for m in (6, 7) for s in (0, 1)]
    + [Slot("pe-bruteforce", "ic", 3, 8, 0, s) for s in range(3)]
    + [Slot("fcm-bruteforce", "ic", 3, 6, 0, 0)]
    + [Slot("fcm-bruteforce", "ic", 3, 8, 0, s) for s in range(2)]
)
REMARK1_SEARCHES = ((3, 3, ("sde",)), (2, 4, ("sde", "sdef")), (3, 4, ("sde", "sdef")))


# ---------------------------------------------------------------------------
# cli-montecarlo

CLI_MODULE = "fairassign.cli"
# Three experiment grids (the slowest jobs) make a fifth of the cycle, so the
# 90th percentile of the latencies falls inside them and not on their edge.
EXPERIMENT_SEEDS = (7, 8, 9)


def experiment_config(seed: int) -> dict:
    return {
        "mechanisms": ["gebm", "gpbm", "rsdq"],
        "sizes": [[3, 6], [4, 8]],
        "trials": 20,
        "seed": seed,
        "out": f"report-{seed}.csv",
    }


# Files: A (4x8, eager and rsdq runs), B (6x12, eating runs).
CLI_SLOTS = (Slot("cli", "ic", 4, 8, 0, 3), Slot("cli", "ic", 6, 12, 0, 5))
CLI_COMMANDS = tuple(
    line.split()
    for line in """
run --instance A.json --mechanism gebm --mode sample --seed 11 --out gebm_sample.json
run --instance A.json --mechanism gebm --mode expected --out gebm_expected.json
run --instance A.json --mechanism gebm --mode lottery --out gebm_lottery.json
run --instance B.json --mechanism gpbm --mode fractional --out gpbm_fractional.json
run --instance B.json --mechanism gpbm --mode lottery --out gpbm_lottery.json
run --instance A.json --mechanism rsdq --mode sample --seed 5 --out rsdq_sample.json
check --instance A.json --input gebm_sample.json --properties pe,fcm,ef1,fhr --out check_sample.json
check --instance A.json --input rsdq_sample.json --properties pe,fcm,ef1 --out check_rsdq.json
check --instance B.json --input gpbm_fractional.json --properties sde,sdwef,sdef --out check_fractional.json
check --instance A.json --input gebm_lottery.json --properties expost-pe,expost-fcm,expost-ef1 --out check_lottery.json
decompose --instance B.json --out decomposed.json
""".strip().splitlines()
)


def cli_runner(lib, workdir: Path, inprocess: bool) -> Callable[[list[str]], tuple[int, str]]:
    """Run one CLI command in `workdir`: as a fresh interpreter, or in-process."""
    if inprocess:

        def run(argv):
            out = io.StringIO()
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                with contextlib.redirect_stdout(out):
                    code = lib.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            finally:
                os.chdir(cwd)
            return code, out.getvalue()

    else:
        env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}

        def run(argv):
            proc = subprocess.run(
                [sys.executable, "-m", CLI_MODULE, *argv],
                cwd=workdir,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            return proc.returncode, proc.stdout

    return run


def cli_jobs(lib, variants: list[int], gen_seed: int, workdir: Path, inprocess: bool) -> list[Job]:
    run_cli = cli_runner(lib, workdir, inprocess)
    instances = {}
    for name, slot, variant in zip(("A.json", "B.json"), CLI_SLOTS, variants):
        instances[name] = slot_instance(lib, slot, variant)
        (workdir / name).write_text(lib.model.serialize_instance(instances[name]))

    def command_job(argv: list[str]) -> Job:
        outputs = (argv[argv.index("--out") + 1],)

        def run():
            return run_cli(argv)

        def read(path):
            return (workdir / path).read_text()

        if argv[0] == "decompose" or ("gpbm" in argv and "lottery" in argv):

            canon = None

            def verify(out, first):
                code, _ = out
                if code != 0:
                    return [f"{' '.join(argv[:1])} exited with {code}"]
                doc = json.loads(read(outputs[0]))
                return decomposed_file_errors(lib, instances["B.json"], doc)

        else:

            def canon(out):
                _, stdout = out
                doc = json.loads(read(outputs[0]))
                if isinstance(doc, dict) and doc.get("kind") == "lottery":
                    doc["atoms"].sort(key=lambda atom: json.dumps(atom, sort_keys=True))
                return [stdout, doc]

            def verify(out, first):
                code, _ = out
                return [] if code == 0 else [f"{argv[0]} exited with {code}"]

        spec = " ".join(argv) + "\n" + "".join(
            lib.model.serialize_instance(instances[p]) for p in argv if p in instances
        )
        return Job(f"{argv[0]} {Path(outputs[0]).stem}", spec, run, canon, verify, outputs)

    def gen_job() -> Job:
        argv = f"gen --agents 5 --items 10 --seed {gen_seed} --out gen.json".split()

        def run():
            return run_cli(argv)

        def verify(out, first):
            code, _ = out
            if code != 0:
                return [f"gen exited with {code}"]
            rng = lib.mechanisms.ModularRng(gen_seed)
            expected = lib.model.serialize_instance(
                lib.oracle.instance_from_orders(ic_orders(rng, 5, 10), 10)
            )
            if (workdir / "gen.json").read_text() != expected:
                return ["gen output differs from the impartial-culture generator"]
            return []

        return Job("gen", "gen", run, None, verify, ("gen.json",))

    def experiment_job(seed: int) -> Job:
        config = experiment_config(seed)
        (workdir / f"config-{seed}.json").write_text(json.dumps(config))
        argv = ["experiment", "--config", f"config-{seed}.json"]

        def rows():
            return list(csv.DictReader(io.StringIO((workdir / config["out"]).read_text())))

        def run():
            return run_cli(argv)

        def canon(out):
            # wall_ms is a timing and the gpbm rows sample a decomposition
            # that any valid BvN may change: neither is uniquely determined.
            return [
                {k: v for k, v in row.items() if k != "wall_ms"}
                for row in rows()
                if row["mechanism"] != "gpbm"
            ]

        def verify(out, first):
            code, _ = out
            if code != 0:
                return [f"experiment exited with {code}"]
            return [
                f"{row['mechanism']} row does not allocate every item"
                for row in rows()
                if sum(map(int, row["rank_histogram"].split("|"))) != int(row["trials"]) * int(row["m"])
            ]

        spec = " ".join(argv) + "\n" + json.dumps(config, sort_keys=True)
        return Job(f"experiment seed {seed}", spec, run, canon, verify, (config["out"],))

    # Later commands read what earlier ones wrote, so the order is fixed.
    return (
        [gen_job()]
        + [command_job(argv) for argv in CLI_COMMANDS]
        + [experiment_job(seed) for seed in EXPERIMENT_SEEDS]
    )


def decomposed_file_errors(lib, instance, doc) -> list[str]:
    """Check a decomposed-lottery artifact against gpbm's per-round matrices."""
    per_round = lib.mechanisms.gpbm(instance, keep_trace=False).per_round
    entries = lib.decomposition.expand_subagents(per_round).entries
    rounds = per_round.round_count
    agents = [a.name for a in instance.agents]
    item_index = instance.item_index
    atoms = []
    for atom in doc["atoms"]:
        matching: list[int | None] = [None] * (len(agents) * rounds)
        for c, stage in enumerate(atom["rounds"]):
            for j, name in enumerate(agents):
                for item in stage[name]:
                    matching[j * rounds + c] = item_index[item]
        atoms.append((Fraction(atom["prob"]), tuple(matching)))
    return bvn_errors(entries, atoms)


# ---------------------------------------------------------------------------
# Workload table


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[Slot, ...]
    make_job: Callable | None  # (lib, slot, instance) -> Job; None for cli-montecarlo


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eager-exact",
            "gebm exact expected/lottery modes on identical and near-identical profiles, "
            "where branch enumeration blows up",
            tuple(EAGER_SLOTS),
            eager_job,
        ),
        Workload(
            "eating-exact",
            "gpbm on large IC instances and gpbm_lottery (BvN) on near-identical ones; gebm idle",
            tuple(EATING_SLOTS),
            eating_job,
        ),
        Workload(
            "audit",
            "oracle audits: thousands of mechanism calls on instances of at most 8 items, "
            "so per-call overhead shows",
            tuple(AUDIT_SLOTS),
            audit_job,
        ),
        Workload(
            "cli-montecarlo",
            "the fairassign CLI as one subprocess per command: start-up, JSON, sampled runs "
            "and an experiment grid",
            CLI_SLOTS,
            None,
        ),
    )
}


def build_jobs(
    lib, workload: Workload, variants: list[int], gen_seed: int, workdir: Path, inprocess: bool
) -> list[Job]:
    """The cycle's jobs, with slot i using relabeling variants[i]."""
    if workload.make_job is None:
        return cli_jobs(lib, variants, gen_seed, workdir, inprocess)
    jobs = [
        workload.make_job(lib, slot, slot_instance(lib, slot, v))
        for slot, v in zip(workload.slots, variants)
    ]
    if workload.name == "audit":
        jobs += [remark1_job(lib, n, m, props) for n, m, props in REMARK1_SEARCHES]
    return jobs
