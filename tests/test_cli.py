import json
from collections import Counter
from fractions import Fraction

import pytest

import fairassign as fa
from fairassign.cli import main

F = Fraction


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def instance_file(tmp_path, two_agent):
    path = tmp_path / "instance.json"
    path.write_text(fa.serialize_instance(two_agent))
    return path


@pytest.fixture
def four_agent_file(tmp_path, four_agent):
    path = tmp_path / "four.json"
    path.write_text(fa.serialize_instance(four_agent))
    return path


# ---------------------------------------------------------------------------
# gen


def test_gen_deterministic(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert run_cli("gen", "--agents", "2", "--items", "4", "--seed", "7", "--out", str(first)) == 0
    assert run_cli("gen", "--agents", "2", "--items", "4", "--seed", "7", "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()
    parsed = fa.parse_instance(first.read_text())
    assert parsed.agent_count == 2 and parsed.item_count == 4


def test_gen_rejects_bad_sizes(tmp_path):
    assert run_cli("gen", "--agents", "0", "--items", "3", "--out", str(tmp_path / "x")) == 2


# ---------------------------------------------------------------------------
# run


def test_run_eating_fractional(tmp_path, instance_file):
    out = tmp_path / "out.json"
    code = run_cli(
        "run", "--instance", str(instance_file), "--mechanism", "gpbm",
        "--mode", "fractional", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "random"
    assert doc["matrix"][0] == ["1/2", "1", "0", "1/2"]
    assert doc["rounds"][0][0] == ["1/2", "1/2", "0", "0"]
    assert doc["rounds"][1][1] == ["0", "0", "1/2", "1/2"]


def test_run_eager_sample_reproducible(tmp_path, instance_file):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli(
            "run", "--instance", str(instance_file), "--mechanism", "gebm",
            "--mode", "sample", "--seed", "5", "--out", str(out),
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["kind"] == "assignment"
    assert len(doc["rounds"]) == 2


def test_run_eager_lottery(tmp_path, instance_file):
    out = tmp_path / "lot.json"
    assert run_cli(
        "run", "--instance", str(instance_file), "--mechanism", "gebm",
        "--mode", "lottery", "--out", str(out),
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "lottery"
    assert len(doc["atoms"]) == 4
    assert all(atom["prob"] == "1/4" for atom in doc["atoms"])


def test_run_dictatorship_with_order(tmp_path, identical):
    inst = tmp_path / "identical.json"
    inst.write_text(fa.serialize_instance(identical))
    out = tmp_path / "rsdq.json"
    assert run_cli(
        "run", "--instance", str(inst), "--mechanism", "rsdq",
        "--mode", "sample", "--order", "1,2", "--quota", "2", "--out", str(out),
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["assignment"] == {"1": ["a", "b"], "2": ["c", "d"]}


def test_run_unknown_mechanism(tmp_path, instance_file, capsys):
    inst = str(instance_file)
    cases = [
        (["run", "--mechanism", "boston"], "unknown mechanism 'boston' (use gebm, gpbm or rsdq)"),
        (["run", "--mechanism", "gebm", "--mode", "fractional"],
         "unknown gebm mode 'fractional' (use sample, expected or lottery)"),
        (["run", "--mechanism", "gpbm", "--mode", "sample"],
         "unknown gpbm mode 'sample' (use fractional or lottery)"),
        (["run", "--mechanism", "rsdq", "--mode", "expected"],
         "unknown rsdq mode 'expected' (use sample or lottery)"),
        (["audit", "sp", "--mechanism", "rsdq"], "unknown exact mechanism 'rsdq'"),
        (["audit", "neutrality", "--mechanism", "rsdq"], "unknown exact mechanism 'rsdq'"),
    ]
    for argv, message in cases:
        assert run_cli(*argv, "--instance", inst, "--out", str(tmp_path / "x")) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_run_branch_cap(tmp_path, instance_file):
    assert run_cli(
        "run", "--instance", str(instance_file), "--mechanism", "gebm",
        "--mode", "lottery", "--max-branch", "2", "--out", str(tmp_path / "x"),
    ) == 2


def test_run_expected_has_no_branch_cap(tmp_path, capsys):
    # identical 8x16: (8!)^2 tie-break paths, over the default lottery cap
    inst = tmp_path / "identical.json"
    inst.write_text(fa.serialize_instance(fa.oracle.instance_from_orders([range(16)] * 8, 16)))
    out = tmp_path / "expected.json"
    assert run_cli(
        "run", "--instance", str(inst), "--mechanism", "gebm",
        "--mode", "expected", "--out", str(out),
    ) == 0
    doc = json.loads(out.read_text())
    assert {share for row in doc["matrix"] for share in row} == {"1/8"}
    assert run_cli(
        "run", "--instance", str(inst), "--mechanism", "gebm",
        "--mode", "lottery", "--out", str(tmp_path / "lottery.json"),
    ) == 2
    assert "1625702400 tie-break branches" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check


def test_check_strict_violation(tmp_path, four_agent_file):
    artifact = tmp_path / "P.json"
    assert run_cli(
        "run", "--instance", str(four_agent_file), "--mechanism", "gpbm",
        "--mode", "fractional", "--out", str(artifact),
    ) == 0
    report = tmp_path / "report.json"
    code = run_cli(
        "check", "--instance", str(four_agent_file), "--input", str(artifact),
        "--properties", "sdwef", "--strict", "--out", str(report),
    )
    assert code == 1
    payload = json.loads(report.read_text())
    assert payload[0]["verdict"] is False
    assert payload[0]["witness"] == {"envious": "3", "envied": "1"}


def test_check_assignment_properties(tmp_path, instance_file, two_agent):
    artifact = tmp_path / "A.json"
    payload = {
        "kind": "assignment",
        "assignment": {"1": ["a", "b"], "2": ["c", "d"]},
    }
    artifact.write_text(json.dumps(payload))
    code = run_cli(
        "check", "--instance", str(instance_file), "--input", str(artifact),
        "--properties", "fcm,pe,ef1,fhr", "--strict",
    )
    assert code == 0


def test_check_type_mismatch(tmp_path, instance_file, capsys):
    artifact = tmp_path / "lot.json"
    assert run_cli(
        "run", "--instance", str(instance_file), "--mechanism", "gebm",
        "--mode", "lottery", "--out", str(artifact),
    ) == 0
    assert run_cli(
        "check", "--instance", str(instance_file), "--input", str(artifact),
        "--properties", "sde",
    ) == 2
    assert "property 'sde' cannot be checked on a 'lottery' artifact" in capsys.readouterr().err


def test_check_expost_on_lottery(tmp_path, instance_file):
    artifact = tmp_path / "lot.json"
    run_cli(
        "run", "--instance", str(instance_file), "--mechanism", "gebm",
        "--mode", "lottery", "--out", str(artifact),
    )
    assert run_cli(
        "check", "--instance", str(instance_file), "--input", str(artifact),
        "--properties", "expost-pe,expost-fcm,expost-ef1", "--strict",
    ) == 0


def _run_sample_and_check_feri(tmp_path, instance_file, seed):
    artifact = tmp_path / f"sample{seed}.json"
    assert run_cli(
        "run", "--instance", str(instance_file), "--mechanism", "gebm",
        "--mode", "sample", "--seed", str(seed), "--out", str(artifact),
    ) == 0
    report = tmp_path / f"feri{seed}.json"
    code = run_cli(
        "check", "--instance", str(instance_file), "--input", str(artifact),
        "--properties", "feri", "--strict", "--out", str(report),
    )
    return code, artifact, report


def test_check_feri_on_multi_round_sample(tmp_path, instance_file):
    # m > n: the total is no matching, so feri is checked round by round
    for seed in (0, 1, 5):
        code, _, report = _run_sample_and_check_feri(tmp_path, instance_file, seed)
        assert code == 0
        assert json.loads(report.read_text()) == [
            {"property": "feri", "verdict": True, "witness": None}
        ]


def test_check_feri_single_round_report_unchanged(tmp_path, four_agent):
    # m <= n: one round over every item, the report the total-assignment check wrote
    expected = (
        '[\n  {\n    "property": "feri",\n    "verdict": true,\n    "witness": null\n  }\n]\n'
    )
    three_items = fa.Instance.from_prefs(
        {"1": list("abc"), "2": list("bac"), "3": list("abc"), "4": list("cba")},
        items=list("abc"),
    )
    for index, instance in enumerate((four_agent, three_items)):
        path = tmp_path / f"instance{index}.json"
        path.write_text(fa.serialize_instance(instance))
        for seed in (0, 3):
            code, _, report = _run_sample_and_check_feri(tmp_path, path, seed)
            assert code == 0
            assert report.read_text() == expected


def test_check_feri_failure_names_the_round(tmp_path, instance_file):
    _, artifact, _ = _run_sample_and_check_feri(tmp_path, instance_file, 0)
    doc = json.loads(artifact.read_text())
    # round 2 runs over {b, d} or {c, d}; both agents want the first of the
    # two, which the tampered matching leaves unallocated
    best, worst = doc["round_items"][1]
    doc["rounds"][1] = {"1": [worst], "2": []}
    artifact.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert run_cli(
        "check", "--instance", str(instance_file), "--input", str(artifact),
        "--properties", "feri", "--strict", "--out", str(report),
    ) == 1
    witness = json.loads(report.read_text())[0]["witness"]
    assert witness == {"round": 2, "item": best, "holder": None}
    del doc["round_items"]
    artifact.write_text(json.dumps(doc))
    assert run_cli(
        "check", "--instance", str(instance_file), "--input", str(artifact),
        "--properties", "feri",
    ) == 2


def test_check_feri_without_rounds_checks_the_total(tmp_path, instance_file):
    artifact = tmp_path / "A.json"
    artifact.write_text(json.dumps(
        {"kind": "assignment", "assignment": {"1": ["a", "b"], "2": ["c", "d"]}}
    ))
    assert run_cli(
        "check", "--instance", str(instance_file), "--input", str(artifact),
        "--properties", "feri",
    ) == 2  # not a matching, as before


def test_check_unknown_property(tmp_path, instance_file):
    artifact = tmp_path / "A.json"
    artifact.write_text(json.dumps({"kind": "assignment", "assignment": {"1": [], "2": []}}))
    assert run_cli(
        "check", "--instance", str(instance_file), "--input", str(artifact),
        "--properties", "sparkle",
    ) == 2


@pytest.mark.parametrize(
    "doc,props",
    [
        ({"kind": "assignment", "assignment": [["a"]]}, "pe"),
        ({"kind": "assignment", "assignment": {"1": "ab", "2": "cd"}}, "pe"),
        ({"kind": "assignment", "assignment": {"1": [["a"]], "2": []}}, "fcm"),
        ({"kind": "assignment", "assignment": {"1": [1], "2": []}}, "sde"),
        ({"kind": "assignment"}, "pe"),
        ({"kind": "assignment"}, "sdef"),
        ({"kind": "random", "matrix": 3}, "sde"),
        ({"kind": "random", "matrix": [5, 6]}, "sdwef"),
        ({"kind": "random"}, "sde"),
        ({"kind": "lottery", "atoms": [{"prob": "1", "assignment": 5}]}, "expost-pe"),
        ({"kind": "lottery", "atoms": [5]}, "expost-pe"),
        ({"kind": "lottery", "atoms": {"prob": "1"}}, "expost-fcm"),
        ({"kind": "lottery"}, "expost-ef1"),
    ],
)
def test_check_rejects_malformed_artifacts(tmp_path, instance_file, capsys, doc, props):
    # exit 2 (input error) with a message, never a traceback's exit 1
    artifact = tmp_path / "bad.json"
    artifact.write_text(json.dumps(doc))
    assert run_cli(
        "check", "--instance", str(instance_file), "--input", str(artifact),
        "--properties", props, "--strict",
    ) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# decompose


def test_decompose(tmp_path, instance_file, two_agent):
    out = tmp_path / "dec.json"
    assert run_cli("decompose", "--instance", str(instance_file), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "decomposed_lottery"
    assert len(doc["atoms"]) == 2
    total = F(0)
    for atom in doc["atoms"]:
        total += F(atom["prob"])
        assert len(atom["rounds"]) == 2
    assert total == F(1)
    # ex-post checkable through the lottery reader
    assert run_cli(
        "check", "--instance", str(instance_file), "--input", str(out),
        "--properties", "expost-ef1", "--strict",
    ) == 0


# ---------------------------------------------------------------------------
# audit


def test_audit_sp(tmp_path, conflict):
    inst = tmp_path / "conflict.json"
    inst.write_text(fa.serialize_instance(conflict))
    out = tmp_path / "witness.json"
    assert run_cli(
        "audit", "sp", "--mechanism", "gebm", "--instance", str(inst), "--out", str(out)
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["witness"]["agent"] == "2"
    assert doc["witness"]["misreport"] == ["a", "b", "d", "c"]


def test_audit_sp_no_witness(tmp_path):
    single = fa.Instance.from_prefs({"1": ["x", "y"]})
    inst = tmp_path / "single.json"
    inst.write_text(fa.serialize_instance(single))
    out = tmp_path / "none.json"
    assert run_cli(
        "audit", "sp", "--mechanism", "gpbm", "--instance", str(inst), "--out", str(out)
    ) == 0
    assert json.loads(out.read_text()) == {"witness": None}


def test_audit_neutrality(tmp_path, instance_file, capsys):
    assert run_cli(
        "audit", "neutrality", "--mechanism", "gpbm", "--instance", str(instance_file),
    ) == 0
    assert "equal" in capsys.readouterr().out


def test_audit_neutrality_explicit_perm(tmp_path, instance_file):
    out = tmp_path / "neut.json"
    assert run_cli(
        "audit", "neutrality", "--mechanism", "gebm", "--instance", str(instance_file),
        "--perm", "c:d,d:c", "--out", str(out),
    ) == 0
    doc = json.loads(out.read_text())
    assert doc[0]["verdict"] is True


def test_audit_remark1_small(tmp_path, capsys):
    assert run_cli("audit", "remark1", "--max", "2") == 0
    assert "no witness" in capsys.readouterr().out


@pytest.mark.parametrize("bound", ["-1", "0"])
def test_audit_remark1_rejects_bound_below_one(bound, capsys):
    assert run_cli("audit", "remark1", "--max", bound) == 2
    assert "profile search bounds must be at least 1" in capsys.readouterr().err


def test_audit_remark1_default(tmp_path):
    out = tmp_path / "r1.json"
    assert run_cli("audit", "remark1", "--max", "3", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["witness"]["fails"] == "sdef"


# ---------------------------------------------------------------------------
# experiment


def test_experiment_small(tmp_path):
    config = {
        "mechanisms": ["gebm", "rsdq"],
        "sizes": [[2, 3]],
        "trials": 5,
        "seed": 11,
        "out": str(tmp_path / "report.csv"),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("experiment", "--config", str(cfg)) == 0
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0].startswith("mechanism,n,m,trials,seed,first_choice_frac")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "gebm" and first[3] == "5"


def test_experiment_reproducible(tmp_path):
    rows = []
    for name in ("r1.csv", "r2.csv"):
        config = {
            "mechanisms": ["gpbm"],
            "sizes": [[2, 4]],
            "trials": 4,
            "seed": 3,
            "out": str(tmp_path / name),
        }
        cfg = tmp_path / f"{name}.config"
        cfg.write_text(json.dumps(config))
        assert run_cli("experiment", "--config", str(cfg)) == 0
        # drop the wall-clock column before comparing
        content = [
            line.rsplit(",", 1)[0]
            for line in (tmp_path / name).read_text().strip().splitlines()
        ]
        rows.append(content)
    assert rows[0] == rows[1]


def test_experiment_invalid_config(tmp_path, capsys):
    cases = [
        ({"trials": 0}, '"trials" must be a positive integer'),
        ({"seed": "x"}, '"seed" must be an integer'),
        ({"seed": 1.5}, '"seed" must be an integer'),
        ({"seed": True}, '"seed" must be an integer'),
        ({"sizes": [[True, 3]]}, '"sizes" must be a list of [agents, items] pairs'),
        ({"trials": True}, '"trials" must be a positive integer'),
        ({"properties": "pe"}, '"properties" must be a list of property names'),
        ({"properties": [["pe"]]}, "unknown experiment property ['pe']"),
        ([], "config must be a JSON object"),
        ({"out": 99999}, '"out" must be a file path'),
        ({"mechanisms": [["gebm"]]}, "must be a nonempty list over gebm/gpbm/rsdq"),
        ({"mechanisms": ["boston"]}, "must be a nonempty list over gebm/gpbm/rsdq"),
    ]
    cfg = tmp_path / "bad.json"
    for config, message in cases:
        if isinstance(config, dict):
            config = {"mechanisms": ["gebm"], "sizes": [[2, 3]], "trials": 1, **config}
        cfg.write_text(json.dumps(config))
        assert run_cli("experiment", "--config", str(cfg)) == 2, config
        assert message in capsys.readouterr().err, config


def test_experiment_guarantee_columns():
    from fairassign.cli import run_experiment

    rows = run_experiment(
        {
            "mechanisms": ["gebm", "gpbm", "rsdq"],
            "sizes": [[3, 6]],
            "trials": 60,
            "seed": 5,
        }
    )
    by_mechanism = {row["mechanism"]: row for row in rows}
    for guaranteed in ("gebm", "gpbm"):
        row = by_mechanism[guaranteed]
        assert (row["viol_fcm"], row["viol_pe"], row["viol_ef1"]) == (0, 0, 0)
    # block picking trips the envy bound on this seeded grid
    assert by_mechanism["rsdq"]["viol_ef1"] > 0


def test_experiment_single_trial(tmp_path):
    config = {
        "mechanisms": ["gebm"],
        "sizes": [[2, 2]],
        "trials": 1,
        "seed": 0,
        "out": str(tmp_path / "one.csv"),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("experiment", "--config", str(cfg)) == 0
    lines = (tmp_path / "one.csv").read_text().strip().splitlines()
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# dispatch tables


def test_dispatch_tables_look_functions_up_when_called(
    tmp_path, instance_file, two_agent, monkeypatch
):
    # a wrapper installed on a module attribute (as a tracer does) sees every
    # call that the run/check/experiment/oracle tables dispatch
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(fa.oracle, "gebm_expected")
    count(fa.properties, "check_sde_acyclic")
    count(fa.mechanisms, "gebm_sample")

    fa.oracle.sd_wsp_audit("gebm", two_agent)
    assert calls["gebm_expected"] > 0

    artifact = tmp_path / "expected.json"
    assert run_cli(
        "run", "--instance", str(instance_file), "--mechanism", "gebm",
        "--mode", "expected", "--out", str(artifact),
    ) == 0
    assert run_cli(
        "check", "--instance", str(instance_file), "--input", str(artifact),
        "--properties", "sde",
    ) == 0
    assert calls["check_sde_acyclic"] == 1

    from fairassign.cli import run_experiment

    run_experiment({"mechanisms": ["gebm"], "sizes": [[2, 3]], "trials": 2})
    assert calls["gebm_sample"] == 2
