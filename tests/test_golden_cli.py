"""Byte-identity guard for CLI artifacts.

`tests/golden/` holds a few small instances and every artifact that
`fairassign run`, `decompose` and `check` write for them, plus the `audit sp`
witnesses of both exact mechanisms on `ic3x5`.  The test reruns
each command and compares the output file byte for byte, so a change in atom
order, in a rational's formatting or in a witness shows up here.  `check`
reads the committed `run` artifact, so its report depends on nothing else.

After an intended output change, rewrite the set with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from pathlib import Path

import pytest

from fairassign.cli import main

GOLDEN = Path(__file__).parent / "golden"

INSTANCES = ("near4x6", "ic3x5", "clones4x4")

#: (artifact stem, command line without --instance and --out)
RUNS = (
    ("gebm-sample", ["run", "--mechanism", "gebm", "--mode", "sample", "--seed", "3"]),
    ("gebm-expected", ["run", "--mechanism", "gebm", "--mode", "expected"]),
    ("gebm-lottery", ["run", "--mechanism", "gebm", "--mode", "lottery"]),
    ("rsdq-sample", ["run", "--mechanism", "rsdq", "--mode", "sample", "--seed", "3"]),
    ("gpbm-fractional", ["run", "--mechanism", "gpbm", "--mode", "fractional"]),
    ("gpbm-lottery", ["run", "--mechanism", "gpbm", "--mode", "lottery"]),
    ("decompose", ["decompose"]),
)
#: (stem of the run artifact that `check` reads, the properties checked on it)
CHECKS = (
    ("gebm-sample", "pe,fcm,ef1,fhr,feri,sde,sdwef,sdef"),
    ("rsdq-sample", "pe,fcm,ef1,fhr,sde,sdwef,sdef"),
    ("gebm-expected", "sde,sdwef,sdef"),
    ("gpbm-fractional", "sde,sdwef,sdef"),
    ("gebm-lottery", "expost-pe,expost-fcm,expost-ef1"),
    ("gpbm-lottery", "expost-pe,expost-fcm,expost-ef1"),
)
#: (instance, artifact stem, command line) of the sp audits; both find a witness
AUDITS = tuple(
    ("ic3x5", f"audit-sp-{mechanism}", ["audit", "sp", "--mechanism", mechanism])
    for mechanism in ("gebm", "gpbm")
)


def _cases():
    for name in INSTANCES:
        for stem, argv in RUNS:
            yield f"{name}.{stem}.json", name, argv
        for stem, props in CHECKS:
            argv = ["check", "--input", str(GOLDEN / f"{name}.{stem}.json"), "--properties", props]
            yield f"{name}.{stem}.check.json", name, argv
    for name, stem, argv in AUDITS:
        yield f"{name}.{stem}.json", name, argv


def _produce(name: str, argv: list[str], out: Path) -> bytes:
    instance = GOLDEN / f"{name}.instance.json"
    code = main([argv[0], "--instance", str(instance), *argv[1:], "--out", str(out)])
    assert code == 0, f"{argv} exited with {code}"
    return out.read_bytes()


@pytest.mark.parametrize(
    "artifact,name,argv", [pytest.param(*case, id=case[0]) for case in _cases()]
)
def test_cli_artifact_is_byte_identical(tmp_path, artifact, name, argv):
    produced = _produce(name, argv, tmp_path / artifact)
    assert produced == (GOLDEN / artifact).read_bytes()


def test_golden_set_is_small():
    assert sum(p.stat().st_size for p in GOLDEN.iterdir()) <= 50_000


if __name__ == "__main__":
    # run artifacts first: the checks read them
    for artifact, name, argv in sorted(_cases(), key=lambda case: case[2][0] == "check"):
        _produce(name, argv, GOLDEN / artifact)
