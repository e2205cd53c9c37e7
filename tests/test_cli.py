import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kslab import certify, cli, serialize
from kslab.cli import main
from kslab.maps import QuantumMap
from kslab.zoo import transpose_map


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_certify_expected_clean(capsys):
    rc, out, _ = run(
        capsys, "certify", "--family", "lambda-minus", "--base", "identity",
        "--d", "2", "--k", "1", "--a", "0.5", "--expect", "no-violation",
        "--restarts", "8", "--max-iters", "200",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["tool"] == "kslab"
    assert obj["result"]["verdict"] == "NoViolationFound"
    assert obj["seed"] == 0
    assert obj["config"]["a"] == 0.5


def test_certify_expectation_contradiction_exits_2(capsys):
    rc, _, err = run(
        capsys, "certify", "--family", "lambda-minus", "--d", "2", "--k", "1",
        "--a", "0.7", "--expect", "no-violation", "--restarts", "8",
    )
    assert rc == 2
    assert "expectation failed" in err


def test_certify_co_ks_property(capsys):
    rc, out, _ = run(
        capsys, "certify", "--family", "transpose", "--d", "2",
        "--property", "co-ks", "--restarts", "4", "--max-iters", "50",
    )
    assert rc == 0
    assert json.loads(out)["result"]["verdict"] == "NoViolationFound"


def test_domain_error_exits_1(capsys):
    rc, _, err = run(capsys, "certify", "--family", "reduction", "--d", "2", "--a", "3")
    assert rc == 1
    assert "a < d" in err


def test_unknown_family_lists_valid_names(capsys):
    rc, _, err = run(capsys, "certify", "--family", "bogus", "--d", "2")
    assert rc == 1
    assert "transpose" in err


def test_usage_errors_return_1_and_help_exits_0(capsys):
    # a missing required option returns 1 with the argparse message, like
    # every other error; only --help leaves main, through SystemExit(0)
    rc, _, err = run(capsys, "scan", "--family", "lambda-minus", "--a-min", "0.1")
    assert rc == 1
    assert "kslab: error: the following arguments are required: --d" in err
    rc, _, err = run(capsys, "certify", "--k", "two")
    assert rc == 1
    assert "invalid int value: 'two'" in err
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--help"])
    assert exc.value.code == 0
    assert "--property" in capsys.readouterr().out


def test_missing_map_source_exits_1(capsys):
    rc, _, err = run(capsys, "certify", "--k", "1")
    assert rc == 1
    assert "--family or --map" in err


def test_kpos(capsys):
    rc, out, _ = run(
        capsys, "kpos", "--family", "transpose", "--d", "2", "--k", "2",
        "--expect", "violation", "--restarts", "4",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["result"]["witness"]["kind"] == "schmidt"


@pytest.mark.parametrize(
    "flag", [("--restarts", "0"), ("--max-iters", "0"), ("--tol", "0"), ("--tol", "nan"), ("--seed", "-1")]
)
@pytest.mark.parametrize(
    "command",
    [["certify", "--family", "transpose", "--d", "2"], ["kpos", "--family", "transpose", "--d", "2", "--k", "2"]],
)
def test_bad_budget_exits_1(capsys, command, flag):
    rc, _, err = run(capsys, *command, *flag)
    assert rc == 1
    assert "kslab: error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [("--k", "0"), ("--k", "0", "--property", "phi-k"), ("--k", "-1", "--property", "ks"),
     ("--k", "2", "--property", "co-ks"), ("--k", "0", "--property", "co-ks")],
)
def test_certify_bad_k_exits_1(capsys, args):
    rc, _, err = run(capsys, "certify", "--family", "identity", "--d", "2", *args)
    assert rc == 1
    assert "kslab: error:" in err
    assert "Traceback" not in err


def test_certify_phi_k_records_tol_and_seed(capsys):
    rc, out, _ = run(
        capsys, "certify", "--family", "identity", "--d", "2", "--k", "2",
        "--property", "phi-k", "--tol", "1e-6", "--seed", "3", "--expect", "no-violation",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["config"]["tol"] == 1e-6 and obj["seed"] == obj["result"]["seed"] == 3
    assert obj["result"]["worst_value"] == 0.0


def test_kpos_domain_error(capsys):
    rc, _, err = run(capsys, "kpos", "--family", "delta", "--d", "2", "--k", "3")
    assert rc == 1
    assert "1 <= k <= d" in err


def test_construct_and_certify_round_trip(tmp_path, capsys):
    path = tmp_path / "map.json"
    rc, _, _ = run(
        capsys, "construct", "--family", "random-utp", "--d", "2", "--seed", "7",
        "--repr", "choi", "--out", str(path),
    )
    assert rc == 0
    obj = json.loads(path.read_text())
    assert obj["version"]
    assert obj["map"]["repr"] == "choi"
    rc, out, _ = run(
        capsys, "certify", "--map", str(path), "--k", "1",
        "--expect", "no-violation", "--restarts", "4",
    )
    assert rc == 0


def test_construct_malformed_map_file(tmp_path, capsys):
    # a missing field, and a d that is not an integer >= 1 with data whose
    # side d * d = 4 would pass the shape check
    path = tmp_path / "bad.json"
    cases = [({"d": 2, "repr": "transfer"}, "'data'")]
    cases += [({"d": d, "repr": "transfer", "data": serialize.matrix_to_json(np.eye(4))}, "'d'") for d in (-2, 2.7)]
    for obj, field in cases:
        path.write_text(json.dumps(obj))
        rc, out, err = run(capsys, "certify", "--map", str(path), "--k", "1")
        assert rc == 1 and out == ""
        assert err.startswith("kslab: error:") and field in err and "Traceback" not in err


def test_certify_map_file_with_no_kraus_operator_exits_1(tmp_path, capsys):
    # an empty Kraus list is refused as input, not left to an IndexError
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"d": 2, "repr": "kraus", "data": []}))
    rc, out, err = run(capsys, "certify", "--map", str(path), "--k", "1")
    assert rc == 1 and out == ""
    assert err.startswith("kslab: error:") and "Kraus" in err and "Traceback" not in err


def test_scan_csv_sorted(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    rc, _, _ = run(
        capsys, "scan", "--family", "lambda-minus", "--d", "2", "--k", "1",
        "--a-min", "0.6", "--a-max", "0.72", "--step", "0.04",
        "--direction", "descending", "--format", "csv", "--out", str(path),
        "--restarts", "8",
    )
    assert rc == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a,verdict,worst_value"
    a = [float(l.split(",")[0]) for l in lines[1:]]
    assert a == sorted(a)


def test_scan_json_embeds_bound(capsys):
    rc, out, _ = run(
        capsys, "scan", "--family", "lambda-minus", "--d", "2", "--k", "1",
        "--a-min", "0.6", "--a-max", "0.7", "--step", "0.05", "--restarts", "4",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["scan"]["paper_bound"] == pytest.approx(2 / 3)


def test_decompose_verify(capsys):
    rc, out, _ = run(
        capsys, "decompose", "--family", "reduction", "--d", "2", "--a", "0.9",
        "--verify", "--restarts", "8", "--max-iters", "200",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["feasible"]
    assert obj["verification"]["all_ok"]
    assert obj["decomposition"]["lambda"] == pytest.approx(5 / 33)


def test_decompose_infeasible_reported_not_thrown(capsys):
    rc, out, _ = run(capsys, "decompose", "--family", "reduction", "--d", "2", "--a", "1")
    assert rc == 0
    obj = json.loads(out)
    assert obj["feasible"] is False
    assert "alpha" in obj["reason"]


def test_verify_subcommand(tmp_path, capsys):
    out_path = tmp_path / "dec.json"
    rc, out, _ = run(
        capsys, "decompose", "--family", "lambda-plus-t", "--d", "2", "--a", "0.2",
        "--out", str(out_path),
    )
    assert rc == 0
    dec = json.loads(out_path.read_text())["decomposition"]
    dec_path = tmp_path / "only.json"
    dec_path.write_text(json.dumps(dec))
    # lambda-plus over transposition base is the verification target
    rc, out, _ = run(
        capsys, "verify", "--decomposition", str(dec_path),
        "--family", "lambda-plus", "--base", "transpose", "--d", "2", "--a", "0.2",
        "--restarts", "8", "--expect", "pass",
    )
    assert rc == 0
    assert json.loads(out)["verification"]["all_ok"]


def test_verify_reads_the_decompose_artifact(tmp_path, capsys):
    # the file that `decompose --out` writes, passed as it is
    dec_path = tmp_path / "dec.json"
    rc, _, _ = run(
        capsys, "decompose", "--family", "lambda-plus-t", "--d", "2", "--a", "0.2",
        "--out", str(dec_path),
    )
    assert rc == 0
    rc, out, err = run(
        capsys, "verify", "--decomposition", str(dec_path),
        "--family", "lambda-plus", "--base", "transpose", "--d", "2", "--a", "0.2",
        "--restarts", "8", "--expect", "pass",
    )
    assert rc == 0, err
    assert json.loads(out)["verification"]["all_ok"]


def test_verify_against_a_target_of_another_dimension_exits_1(tmp_path, capsys):
    dec_path = tmp_path / "dec.json"
    rc, _, _ = run(
        capsys, "decompose", "--family", "reduction", "--d", "2", "--a", "0.9",
        "--out", str(dec_path),
    )
    assert rc == 0
    rc, out, err = run(
        capsys, "verify", "--decomposition", str(dec_path),
        "--family", "reduction", "--d", "3", "--a", "0.9", "--restarts", "2",
    )
    assert rc == 1
    assert "kslab: error:" in err and "the target on d=3" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--family", "identity", "--d", "-1"],
        ["construct", "--family", "identity", "--d", "0"],
        ["certify", "--family", "transpose", "--d", "-3"],
        ["certify", "--family", "identity", "--d", "0"],
    ],
    ids=["construct-d-1", "construct-d0", "certify-d-3", "certify-d0"],
)
def test_nonpositive_d_exits_1(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert f"kslab: error: --d must be >= 1, got {argv[-1]}" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [["--family", "delta", "--d", "3"], ["--family", "lambda-minus", "--d", "2", "--k", "3"]],
    ids=["delta-no-bound", "lambda-minus-k-above-d"],
)
def test_scan_without_a_bound_fails_before_any_falsifier(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("falsify_ks ran before the bound was known")

    monkeypatch.setattr(certify, "falsify_ks", never)
    rc, out, err = run(capsys, "scan", *argv, "--a-min", "0.1", "--a-max", "0.5", "--step", "0.1")
    assert rc == 1
    assert "kslab: error:" in err
    assert out == ""


def test_certify_map_that_is_not_hermiticity_preserving_exits_1(tmp_path, capsys):
    # its KS defect is not Hermitian: the map is refused before the search,
    # and before the warning that it is not unital
    T = np.random.default_rng(3).standard_normal((4, 4, 2)) @ [1, 1j]
    path = tmp_path / "map.json"
    path.write_text(json.dumps(serialize.map_to_json(QuantumMap(T, label="complex"))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "certify", "--map", str(path), "--restarts", "2", "--max-iters", "30")
    assert rc == 1
    assert "kslab: error: map 'complex' is not Hermiticity-preserving" in err
    assert out == ""


def _map_file(tmp_path, T, label):
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(serialize.map_to_json(QuantumMap(T, label=label))))
    return str(path)


def _kslab(*argv):
    # the CLI in a fresh interpreter, whose warnings reach its stderr
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "kslab.cli", *argv], env=env, capture_output=True, text=True)


def test_certify_decides_a_subunital_cp_map_file_clean(tmp_path):
    # 0.5 id: CP with Phi(1) = I/2, so KS at every k, decided without a search
    proc = _kslab("certify", "--map", _map_file(tmp_path, 0.5 * np.eye(4), "half-identity"),
                  "--expect", "no-violation", "--restarts", "4", "--max-iters", "50")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["budget"] == {"restarts": 1, "iterations": 1, "defect_evals": 0}
    assert "map 'half-identity' is not unital" in proc.stderr


def test_certify_decides_a_subunital_map_that_is_not_cp_violated_at_k_eq_d(tmp_path):
    proc = _kslab("certify", "--map", _map_file(tmp_path, 0.5 * transpose_map(2).transfer, "half-transpose"),
                  "--d", "2", "--k", "2", "--expect", "violation", "--restarts", "4", "--max-iters", "50")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["budget"] == {"restarts": 1, "iterations": 1, "defect_evals": 1}
    assert "map 'half-transpose' is not unital" in proc.stderr


def test_kpos_map_that_is_not_hermiticity_preserving_exits_1(tmp_path, capsys):
    # its Choi matrix is not Hermitian: the map is refused before the search
    Phi = QuantumMap.from_choi((1 + 0.1j) * np.eye(4), label="complex")
    path = tmp_path / "map.json"
    path.write_text(json.dumps(serialize.map_to_json(Phi)))
    rc, out, err = run(capsys, "kpos", "--map", str(path), "--k", "1", "--restarts", "2", "--max-iters", "20")
    assert rc == 1
    assert "kslab: error: map 'complex' is not Hermiticity-preserving" in err
    assert out == ""


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("KSLAB_SEED", "123")
    rc, out, _ = run(capsys, "certify", "--family", "identity", "--d", "2", "--restarts", "2")
    assert rc == 0
    assert json.loads(out)["seed"] == 123


def test_explicit_seed_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("KSLAB_SEED", "123")
    rc, out, _ = run(
        capsys, "certify", "--family", "identity", "--d", "2", "--seed", "5", "--restarts", "2"
    )
    assert rc == 0
    assert json.loads(out)["seed"] == 5


def test_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("KSLAB_SEED", "many")
    rc, _, err = run(capsys, "certify", "--family", "identity", "--d", "2")
    assert rc == 1
    assert "KSLAB_SEED" in err


@pytest.mark.parametrize(
    "argv",
    [["construct", "--family", "random-utp", "--d", "2", "--seed", "-5"],
     ["scan", "--family", "lambda-minus", "--d", "2", "--a-min", "0.1", "--a-max", "0.2", "--step", "0.1", "--seed", "-1"],
     ["certify", "--family", "identity", "--d", "2"]],
)
def test_negative_seed_exits_1(capsys, monkeypatch, argv):
    monkeypatch.setenv("KSLAB_SEED", "-1")  # read where --seed is not given
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert "kslab: error:" in err and "must be >= 0" in err
    assert "Traceback" not in err


def test_construct_kraus_of_a_non_cp_map_exits_1(capsys):
    rc, out, err = run(capsys, "construct", "--family", "reduction", "--d", "2", "--a", "0.9", "--repr", "kraus")
    assert rc == 1 and out == ""
    assert err.startswith("kslab: error: map is not completely positive") and "Traceback" not in err


SCAN = ["scan", "--family", "lambda-minus", "--d", "2", "--step", "0.1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--family", "lambda-plus", "--d", "2", "--a", "nan"],
        ["construct", "--family", "lambda-minus", "--d", "2", "--a", "nan"],
        ["certify", "--family", "lambda-plus", "--d", "2", "--a", "inf"],
        ["kpos", "--family", "reduction", "--d", "2", "--a", "nan", "--k", "1"],
        [*SCAN, "--a-min", "0.1", "--a-max", "inf"],
        [*SCAN, "--a-min", "nan", "--a-max", "0.5"],
        ["decompose", "--family", "reduction", "--d", "2", "--a", "nan"],
        ["decompose", "--family", "lambda-plus-t", "--d", "2", "--a", "nan"],
    ],
    ids=["certify-nan", "construct-nan", "certify-inf", "kpos-nan", "scan-a-max-inf", "scan-a-min-nan",
         "decompose-reduction-nan", "decompose-lambda-plus-t-nan"],
)
def test_non_finite_input_exits_1(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic on it
        rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.startswith("kslab: error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_certify_far_out_lambda_plus_on_a_random_base(capsys):
    # the mix of a random-utp base at a = 3 is unital and TP within the
    # map's flag bound, so it is certified, not refused
    rc, out, err = run(capsys, "certify", "--family", "lambda-plus", "--base", "random-utp",
                       "--d", "3", "--a", "3", "--restarts", "2", "--max-iters", "50")
    assert rc == 0 and "Traceback" not in err
    assert json.loads(out)["result"]["verdict"] == "Violated"


def test_broken_invariant_is_not_an_input_error(capsys, monkeypatch):
    # main turns refused input (ValueError) into exit 1, and nothing more:
    # a broken internal invariant (RuntimeError) keeps its traceback
    def broken(*args, **kwargs):
        raise certify.WitnessRecheckError("witness re-evaluates to nan")

    monkeypatch.setattr(cli, "falsify_ks", broken)
    with pytest.raises(certify.WitnessRecheckError):
        main(["certify", "--family", "identity", "--d", "2", "--restarts", "2"])


def test_output_determinism_modulo_timing(capsys):
    argv = ["certify", "--family", "reduction", "--d", "2", "--a", "0.7",
            "--k", "1", "--restarts", "6"]
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    a, b = json.loads(out1), json.loads(out2)
    for obj in (a, b):
        obj.pop("generated_utc")
        obj.pop("elapsed_seconds")
    assert a == b


def test_suite_filtered(capsys):
    rc, out, err = run(capsys, "suite", "--filter", "determinism")
    assert rc == 0
    obj = json.loads(out)
    assert [c["id"] for c in obj["suite"]["criteria"]] == [10]
    assert "criterion 10" in err


def test_csv_format_rejected_outside_scan(capsys):
    rc, _, err = run(
        capsys, "certify", "--family", "identity", "--d", "2",
        "--format", "csv", "--restarts", "2",
    )
    assert rc == 1
    assert "csv" in err


@pytest.mark.parametrize("argv,key,value", [
    (["construct", "--family", "lambda-plus", "--d", "2", "--a", "-1e6"], "a", -1e6),
    (["scan", "--family", "lambda-minus", "--d", "2", "--a-min", "-1E-1", "--a-max", "0.1",
      "--step", "0.1", "--restarts", "2", "--max-iters", "20"], "a_min", -0.1),
])
def test_negative_number_with_an_exponent_is_a_value(capsys, argv, key, value):
    # argparse's own pattern reads only plain decimals as negative numbers
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert json.loads(out)["config"][key] == value


def test_unknown_argument_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "certify", "--family", "identity", "--d", "2", "--bogus")
    assert rc == 1 and out == ""
    assert err.startswith("usage: kslab ")
    assert err.endswith("\nkslab: error: unrecognized arguments: --bogus\n")


def test_unknown_argument_prints_the_subcommand_usage(capsys):
    rc, out, err = run(capsys, "certify", "--family", "identity", "--d", "2", "--format", "csv")
    assert rc == 1 and out == ""
    assert err.startswith("usage: kslab certify [-h]")
    assert err.endswith("\nkslab: error: unrecognized arguments: --format csv\n")
    assert err.count("usage:") == 1


def test_suite_filter_that_selects_nothing_exits_1(capsys):
    # an empty selection would pass vacuously
    rc, out, err = run(capsys, "suite", "--filter", "nosuchthing", "--expect-pass")
    assert rc == 1 and out == ""
    assert err == "kslab: error: no criterion matches the filter 'nosuchthing'\n"
