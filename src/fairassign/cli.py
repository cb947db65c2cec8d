"""Command-line surface: gen / run / check / decompose / audit / experiment.

Exit codes: 0 success, 1 strict-mode property violation (or a failed audit
self-check), 2 input or size error.  Every command is deterministic given its
full argument list including seeds.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import decomposition, mechanisms, oracle, properties
from .model import (
    DeterministicAssignment,
    InputError,
    Instance,
    SizeLimitError,
    assignment_from_payload,
    assignment_to_payload,
    format_fraction,
    lottery_from_payload,
    lottery_to_payload,
    parse_instance,
    random_from_payload,
    random_to_payload,
    serialize_instance,
)

EXPERIMENT_CSV_COLUMNS = (
    "mechanism",
    "n",
    "m",
    "trials",
    "seed",
    "first_choice_frac",
    "first_choice_float",
    "rank_histogram",
    "viol_fcm",
    "viol_pe",
    "viol_ef1",
    "wall_ms",
)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_json(path: str | None, doc) -> None:
    """Write a JSON artifact: two-space indent and a trailing newline."""
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def _load_instance(path: str) -> Instance:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from exc
    return parse_instance(text)


def _load_artifact(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read artifact file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"artifact file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError('artifact files must be JSON objects with a "kind" field')
    return doc


# ---------------------------------------------------------------------------
# gen


def _one_of(names) -> str:
    *rest, last = names
    return f"{', '.join(rest)} or {last}"


def _shuffled_orders(count: int, length: int, seed: int) -> list[list[int]]:
    """`count` orders of range(length), shuffled in turn by one seeded source."""
    rng = mechanisms.ModularRng(seed)
    orders = []
    for _ in range(count):
        order = list(range(length))
        rng.shuffle(order)
        orders.append(order)
    return orders


def _impartial_culture(agents: int, items: int, seed: int) -> Instance:
    return oracle.instance_from_orders(_shuffled_orders(agents, items, seed), items)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.agents < 1 or args.items < 1:
        raise InputError("need at least one agent and one item")
    instance = _impartial_culture(args.agents, args.items, args.seed)
    _write_text(args.out, serialize_instance(instance))
    return 0


# ---------------------------------------------------------------------------
# run


def _run_gebm_sample(instance: Instance, args: argparse.Namespace) -> tuple[str, dict]:
    outcome = mechanisms.gebm_sample(instance, args.seed)
    return "assignment", {
        "seed": args.seed,
        "assignment": assignment_to_payload(instance, outcome.total),
        "rounds": [assignment_to_payload(instance, stage) for stage in outcome.per_round.rounds],
        "round_items": [
            sorted(instance.items[o] for o in remaining)
            for remaining in outcome.remaining_items_per_round
        ],
    }


def _run_gpbm_fractional(instance: Instance, args: argparse.Namespace) -> tuple[str, dict]:
    outcome = mechanisms.gpbm(instance, keep_trace=False)
    return "random", {
        "matrix": random_to_payload(instance, outcome.total),
        "rounds": [random_to_payload(instance, stage) for stage in outcome.per_round.rounds],
    }


def _run_rsdq_sample(instance: Instance, args: argparse.Namespace) -> tuple[str, dict]:
    if args.order:
        names = [name.strip() for name in args.order.split(",")]
        try:
            order = [instance.agent_index[name] for name in names]
        except KeyError as exc:
            raise InputError(f"unknown agent {exc.args[0]!r} in --order") from exc
    else:
        order = _shuffled_orders(1, instance.agent_count, args.seed)[0]
    return "assignment", {
        "priority_order": [instance.agent_names[j] for j in order],
        "assignment": assignment_to_payload(instance, mechanisms.rsdq(instance, order, args.quota)),
    }


def _decomposed_payload(instance: Instance, decomposed) -> list[dict]:
    atoms = []
    for index, (coefficient, _) in enumerate(decomposed.atoms):
        atoms.append(
            {
                "prob": format_fraction(coefficient),
                "assignment": assignment_to_payload(
                    instance, decomposed.atom_assignment(index)
                ),
                "rounds": [
                    assignment_to_payload(instance, stage)
                    for stage in decomposed.atom_round_matchings(index)
                ],
            }
        )
    return atoms


# mechanism -> mode -> builder(instance, args) returning (artifact kind, fields).
# Entries look library functions up when called, so that wrappers installed on
# the modules (a tracer, a test's counter) see every call.
RUN_MODES = {
    "gebm": {
        "sample": _run_gebm_sample,
        "expected": lambda instance, args: (
            "random", {"matrix": random_to_payload(instance, mechanisms.gebm_expected(instance))}
        ),
        "lottery": lambda instance, args: (
            "lottery",
            {"atoms": lottery_to_payload(
                instance, mechanisms.gebm_lottery(instance, args.max_branch)
            )},
        ),
    },
    "gpbm": {
        "fractional": _run_gpbm_fractional,
        "lottery": lambda instance, args: (
            "decomposed_lottery",
            {"atoms": _decomposed_payload(instance, decomposition._gpbm_decomposed(instance))},
        ),
    },
    "rsdq": {
        "sample": _run_rsdq_sample,
        "lottery": lambda instance, args: (
            "lottery",
            {"atoms": lottery_to_payload(instance, mechanisms.rsdq_lottery(instance, args.quota))},
        ),
    },
}


def cmd_run(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    modes = RUN_MODES.get(args.mechanism)
    if modes is None:
        raise InputError(f"unknown mechanism {args.mechanism!r} (use {_one_of(RUN_MODES)})")
    if args.mode not in modes:
        raise InputError(f"unknown {args.mechanism} mode {args.mode!r} (use {_one_of(modes)})")
    kind, fields = modes[args.mode](instance, args)
    doc = {"kind": kind, "mechanism": args.mechanism, "mode": args.mode, **fields}
    _write_json(args.out, doc)
    return 0


# ---------------------------------------------------------------------------
# check


def _assignment(instance: Instance, doc: dict) -> DeterministicAssignment:
    return assignment_from_payload(instance, doc.get("assignment"))


def _matrix(instance: Instance, doc: dict):
    if doc["kind"] == "random":
        return random_from_payload(instance, doc.get("matrix"))
    return _assignment(instance, doc).to_random()


def _deterministic(prop: str):
    return lambda instance, doc: properties._DETERMINISTIC_CHECKERS[prop](
        instance, _assignment(instance, doc)
    )


def _expost(prop: str):
    return lambda instance, doc: properties.check_lottery_expost(
        instance, lottery_from_payload(instance, doc.get("atoms")), [prop]
    )[prop]


def _check_feri(instance: Instance, doc: dict) -> properties.PropertyReport:
    """feri on the whole assignment or, when the artifact has rounds, on each
    round's matching over the items left at the round's start; a failing
    report names the round (1-based)."""
    assignment = _assignment(instance, doc)
    if "rounds" not in doc:
        return properties.check_feri(instance, assignment, range(instance.item_count))
    rounds, round_items = doc["rounds"], doc.get("round_items")
    lists = isinstance(rounds, list) and isinstance(round_items, list)
    if not lists or len(rounds) != len(round_items):
        raise InputError('"rounds" and "round_items" must be lists of equal length')
    for index, (stage, items) in enumerate(zip(rounds, round_items), start=1):
        try:
            domain = [instance.item_index[name] for name in items]
        except (KeyError, TypeError) as exc:
            raise InputError(f"round {index} lists an unknown item") from exc
        report = properties.check_feri(instance, assignment_from_payload(instance, stage), domain)
        if not report.verdict:
            return properties.PropertyReport("feri", False, {"round": index, **report.witness})
    return properties.PropertyReport("feri", True)


_MATRIX_KINDS = ("random", "assignment")

# property -> (artifact kinds it can be checked on, check(instance, artifact))
CHECKS = {
    "pe": (("assignment",), _deterministic("pe")),
    "sde": (
        _MATRIX_KINDS, lambda inst, doc: properties.check_sde_acyclic(inst, _matrix(inst, doc))
    ),
    "fcm": (("assignment",), _deterministic("fcm")),
    "ef1": (("assignment",), _deterministic("ef1")),
    "sdwef": (_MATRIX_KINDS, lambda inst, doc: properties.check_sd_wef(inst, _matrix(inst, doc))),
    "sdef": (_MATRIX_KINDS, lambda inst, doc: properties.check_sd_ef(inst, _matrix(inst, doc))),
    "fhr": (("assignment",), lambda inst, doc: properties.check_fhr(inst, _assignment(inst, doc))),
    "feri": (("assignment",), _check_feri),
    **{
        f"expost-{prop}": (("lottery", "decomposed_lottery"), _expost(prop))
        for prop in properties._DETERMINISTIC_CHECKERS
    },
}


def cmd_check(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    doc = _load_artifact(args.input)
    requested = [p.strip() for p in args.properties.split(",") if p.strip()]
    if not requested:
        raise InputError("no properties requested")
    for prop in requested:
        if prop not in CHECKS:
            raise InputError(f"unknown property {prop!r}")
    reports = []
    for prop in requested:
        kinds, check = CHECKS[prop]
        if doc["kind"] not in kinds:
            raise InputError(f"property {prop!r} cannot be checked on a {doc['kind']!r} artifact")
        reports.append(check(instance, doc))
    for report in reports:
        status = "ok" if report.verdict else "VIOLATED"
        print(f"{report.name}: {status}")
    if args.out:
        _write_json(args.out, [r.to_payload() for r in reports])
    if args.strict and any(not r.verdict for r in reports):
        return 1
    return 0


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    kind, fields = RUN_MODES["gpbm"]["lottery"](instance, args)
    _write_json(args.out, {"kind": kind, "mechanism": "gpbm", **fields})
    return 0


# ---------------------------------------------------------------------------
# audit


def _parse_permutation(instance: Instance, text: str) -> dict[int, int]:
    mapping: dict[int, int] = {}
    for pair in text.split(","):
        src, _, dst = pair.partition(":")
        src = src.strip()
        dst = dst.strip()
        if src not in instance.item_index or dst not in instance.item_index:
            raise InputError(f"unknown item in permutation pair {pair!r}")
        mapping[instance.item_index[src]] = instance.item_index[dst]
    for o in range(instance.item_count):
        mapping.setdefault(o, o)
    return mapping


def cmd_audit(args: argparse.Namespace) -> int:
    if args.what in ("sp", "neutrality") and args.instance is None:
        raise InputError(f"audit {args.what} needs --instance")
    if args.what == "sp":
        instance = _load_instance(args.instance)
        witness = oracle.sd_wsp_audit(args.mechanism, instance, max_items=args.max_items)
        if witness is None:
            print("no witness")
            _write_json(args.out, {"witness": None})
            return 0
        print(
            f"witness: agent {instance.agent_names[witness.agent]} misreports "
            f"{' > '.join(instance.items[o] for o in witness.misreport)}"
        )
        _write_json(args.out, {"witness": witness.to_payload()})
        if not witness.replay():
            print("reproducibility self-check FAILED", file=sys.stderr)
            return 1
        return 0
    if args.what == "neutrality":
        instance = _load_instance(args.instance)
        if args.perm:
            permutations = [_parse_permutation(instance, args.perm)]
        else:
            permutations = [
                {**{o: o for o in range(instance.item_count)}, a: b, b: a}
                for a in range(instance.item_count)
                for b in range(a + 1, instance.item_count)
            ]
        results = []
        all_equal = True
        for perm in permutations:
            report = oracle.neutrality_audit(
                args.mechanism, instance, perm, max_branches=args.max_branch
            )
            all_equal = all_equal and report.verdict
            results.append(report.to_payload())
        print("equal" if all_equal else "UNEQUAL")
        _write_json(args.out, results)
        return 0
    # remark1: the parser's choices admit no other audit
    found = oracle.remark1_search(args.max, args.max, max_profiles=args.max_enum)
    if found is None:
        print("no witness")
        _write_json(args.out, {"witness": None})
        return 0
    instance, prop = found
    print(f"witness profile found; expected output fails {prop}")
    _write_json(args.out, {"witness": {"profile": serialize_instance(instance), "fails": prop}})
    return 0


# ---------------------------------------------------------------------------
# experiment


# mechanism -> trial(instance, seed) returning one realized assignment
EXPERIMENT_TRIALS = {
    "gebm": lambda instance, seed: mechanisms.gebm_sample(instance, seed).total,
    "gpbm": lambda instance, seed: (
        bvn := decomposition._gpbm_decomposed(instance)
    ).atom_assignment(decomposition.sample_realization(bvn, seed)),
    "rsdq": lambda instance, seed: mechanisms.rsdq(
        instance, _shuffled_orders(1, instance.agent_count, seed)[0]
    ),
}


def run_experiment(config: dict) -> list[dict]:
    """Run the Monte Carlo grid and return one result row per cell.

    Each trial draws an impartial-culture instance, runs the mechanism once,
    and checks the configured deterministic properties on the realized
    assignment.  Sub-seeds are derived deterministically from the master seed,
    the cell index, and the trial index.
    """
    checkers = properties._DETERMINISTIC_CHECKERS
    mechanisms_list = config.get("mechanisms")
    sizes = config.get("sizes")
    trials = config.get("trials")
    seed = config.get("seed", 0)
    props = config.get("properties", list(checkers))
    if (
        not isinstance(mechanisms_list, list)
        or not mechanisms_list
        or not all(isinstance(m, str) and m in EXPERIMENT_TRIALS for m in mechanisms_list)
    ):
        raise InputError(
            f'config "mechanisms" must be a nonempty list over {"/".join(EXPERIMENT_TRIALS)}'
        )
    # JSON booleans are Python ints; `type(...) is int` keeps them out
    if not isinstance(sizes, list) or not all(
        isinstance(cell, list)
        and len(cell) == 2
        and all(type(v) is int and v >= 1 for v in cell)
        for cell in sizes
    ):
        raise InputError('config "sizes" must be a list of [agents, items] pairs')
    if type(trials) is not int or trials < 1:
        raise InputError('config "trials" must be a positive integer')
    if type(seed) is not int:
        raise InputError('config "seed" must be an integer')
    if not isinstance(props, list):
        raise InputError('config "properties" must be a list of property names')
    for prop in props:
        if not isinstance(prop, str) or prop not in checkers:
            raise InputError(f"unknown experiment property {prop!r}")

    rows = []
    cell_index = 0
    for mechanism in mechanisms_list:
        for n, m in sizes:
            cell_index += 1
            start = time.perf_counter()
            first_choice_total = Fraction(0)
            rank_histogram = [0] * m
            violations = {prop: 0 for prop in props}
            for trial in range(trials):
                sub_seed = seed * 1_000_003 + cell_index * 10_007 + trial
                instance = _impartial_culture(n, m, sub_seed)
                assignment = EXPERIMENT_TRIALS[mechanism](instance, sub_seed + 1)
                first_choice_total += Fraction(properties.fcm_count(instance, assignment), n)
                for j in range(n):
                    for o in assignment.bundles[j]:
                        rank_histogram[instance.global_rank[j][o] - 1] += 1
                for prop in props:
                    if not checkers[prop](instance, assignment).verdict:
                        violations[prop] += 1
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            frac = first_choice_total / trials
            rows.append(
                {
                    "mechanism": mechanism,
                    "n": n,
                    "m": m,
                    "trials": trials,
                    "seed": seed,
                    "first_choice_frac": format_fraction(frac),
                    "first_choice_float": float(frac),
                    "rank_histogram": "|".join(str(c) for c in rank_histogram),
                    "viol_fcm": violations.get("fcm", ""),
                    "viol_pe": violations.get("pe", ""),
                    "viol_ef1": violations.get("ef1", ""),
                    "wall_ms": f"{elapsed_ms:.3f}",
                }
            )
    return rows


def cmd_experiment(args: argparse.Namespace) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise InputError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise InputError("config must be a JSON object")
    out = config.get("out", args.out)
    if out is not None and not isinstance(out, str):
        raise InputError('config "out" must be a file path')
    rows = run_experiment(config)
    to_stdout = out is None or out == "-"
    with nullcontext(sys.stdout) if to_stdout else open(out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=EXPERIMENT_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairassign",
        description="Randomized assignment mechanisms with exact property checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an impartial-culture instance")
    p_gen.add_argument("--agents", type=int, required=True)
    p_gen.add_argument("--items", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run a mechanism on an instance")
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--mechanism", required=True)
    p_run.add_argument("--mode", default="sample")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--quota", type=int, default=None)
    p_run.add_argument("--order", default=None, help="rsdq priority order (agent names)")
    p_run.add_argument(
        "--max-branch",
        type=int,
        default=mechanisms.DEFAULT_BRANCH_CAP,
        help="tie-break branch cap of gebm's lottery mode",
    )
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="check properties of a mechanism output")
    p_check.add_argument("--instance", required=True)
    p_check.add_argument("--input", required=True, help="artifact file written by run")
    p_check.add_argument("--properties", required=True, help="comma-separated list")
    p_check.add_argument("--strict", action="store_true")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_dec = sub.add_parser("decompose", help="realize the eating mechanism as a lottery")
    p_dec.add_argument("--instance", required=True)
    p_dec.add_argument("--out", default=None)
    p_dec.set_defaults(func=cmd_decompose)

    p_audit = sub.add_parser("audit", help="strategyproofness / neutrality / search audits")
    p_audit.add_argument("what", choices=["sp", "neutrality", "remark1"])
    p_audit.add_argument("--mechanism", default="gebm")
    p_audit.add_argument("--instance", default=None)
    p_audit.add_argument("--perm", default=None, help='item permutation, e.g. "c:d,d:c"')
    p_audit.add_argument("--max", type=int, default=3, help="profile search bound (n = m)")
    p_audit.add_argument("--max-items", type=int, default=6, help="sp audit item limit")
    p_audit.add_argument(
        "--max-branch",
        type=int,
        default=mechanisms.DEFAULT_BRANCH_CAP,
        help="tie-break branch cap of the gebm neutrality audit",
    )
    p_audit.add_argument("--max-enum", type=int, default=oracle.DEFAULT_ENUM_CAP)
    p_audit.add_argument("--out", default=None)
    p_audit.set_defaults(func=cmd_audit)

    p_exp = sub.add_parser("experiment", help="seeded Monte Carlo property report")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
