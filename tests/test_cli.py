import hashlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import state_to_dict
from test_pipeline import REPRODUCE_JSON_SHA256

from cvmodes import (
    GaussianState,
    ModeLabel,
    ModeRegister,
    StandardFormParams,
    distribution_config,
    errors,
    make_standard_form,
    run_pipeline,
    save_state,
    validate,
)
from cvmodes import cli, fixtures
from cvmodes.cli import main
from cvmodes.fixtures import load_state_fixture

EXP = StandardFormParams(0.72, 0.72, 0.51, -0.51)


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "source.json"
    save_state(make_standard_form(EXP), path)
    return str(path)


@pytest.fixture
def distribution_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "steps": [
            {"op": "waveplate"},
            {"op": "embed", "modes": [
                {"tag": "a~", "polarization": "R", "oam": 1},
                {"tag": "b~", "polarization": "L", "oam": -1},
            ]},
            {"op": "reorder", "order": [0, 2, 1, 3]},
            {"op": "qplate", "delta": float(np.pi / 2), "q": 0.5},
        ],
    }))
    return str(path)


def test_validate_ok(source_file, capsys):
    assert main(["validate", source_file]) == 0
    out = capsys.readouterr().out
    assert "physical: True" in out


def test_validate_reports_unphysical_without_failing(tmp_path, capsys):
    doc = state_to_dict(make_standard_form(EXP))
    doc["cov"] = [[0.0] * 4 for _ in range(4)]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert main(["--format", "json", "validate", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["physical"] is False
    assert report["min_heisenberg_eigenvalue"] == pytest.approx(-0.5)


def _odd_tags_state():
    register = ModeRegister((ModeLabel("H", 0, 'a"\\'), ModeLabel("V", 0, "bé☃")))
    return make_standard_form(EXP, register)


def _huge_diagonal_state():
    # finite entries whose Heisenberg floor is not finite: cov + cov^T
    # overflows on the diagonal
    cov = 0.5 * np.eye(4)
    cov[0, 0] = cov[3, 3] = 1e308
    return GaussianState(make_standard_form(EXP).register, np.zeros(4), cov)


VALIDATE_STATES = {
    "sigma2_exp": lambda: load_state_fixture("sigma2_exp"),
    "vacuum4": lambda: load_state_fixture("vacuum4"),
    "odd tags": _odd_tags_state,
}


@pytest.mark.parametrize("name", VALIDATE_STATES)
def test_validate_json_has_the_bytes_of_json_dumps(tmp_path, capsys, name):
    # the reference writer
    state = VALIDATE_STATES[name]()
    path = tmp_path / "state.json"
    save_state(state, path)
    assert main(["--format", "json", "validate", str(path)]) == 0
    report = validate(state)
    doc = {
        "symmetric": report.symmetric,
        "physical": report.physical,
        "min_heisenberg_eigenvalue": report.min_heisenberg_eigenvalue,
        "register": list(state.register.tags),
    }
    out = capsys.readouterr().out
    assert out == json.dumps(doc, sort_keys=True) + "\n"
    if name == "vacuum4":
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "880b7e427d3004c185b8fbd3cd467f522b5b14ff7c91f1ef3eae5aace4b7396f"


def test_validate_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["validate", "/no/such/file.json"]) == 2


def test_validate_csv_needs_register(tmp_path, capsys):
    path = tmp_path / "m.csv"
    cov = make_standard_form(EXP).cov
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in cov))
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(path), "--register", "a:H:0,b:V:0"]) == 0


@pytest.mark.parametrize("name", ["S.CSV", "s.Csv"])
def test_csv_extension_is_matched_in_any_case(tmp_path, capsys, name):
    path = tmp_path / name
    cov = make_standard_form(EXP).cov
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in cov))
    assert main(["--format", "json", "validate", str(path), "--register", "a:H:0,b:V:0"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["register"] == ["a", "b"]
    # read as CSV, so without a register it asks for one
    assert main(["validate", str(path)]) == 2
    assert "pass the register via --register" in capsys.readouterr().err


def test_rescale_flag(tmp_path, capsys):
    doc = state_to_dict(make_standard_form(EXP))
    doc["convention"]["sn"] = 1.0
    doc["cov"] = (2.0 * make_standard_form(EXP).cov).tolist()
    path = tmp_path / "sn1.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(path), "--rescale"]) == 0


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("changes, flags, code", [
    # cov + cov^T overflows, so no Heisenberg eigenvalue can be computed
    ({"cov": (1e308 * np.eye(4)).tolist()}, [], 4),
    # the rescale factor 0.5 / sn overflows to inf
    ({"convention": {"sn": 1e-310, "ordering": "interleaved"}}, ["--rescale"], 2),
    # 400-digit integer literals do not fit a float
    ({"mean": [10 ** 400, 0, 0, 0]}, [], 2),
    ({"cov": [[10 ** 400] * 4] * 4}, [], 2),
    ({"convention": {"sn": 10 ** 400, "ordering": "interleaved"}}, [], 2),
    # cov + cov^T overflows on the diagonal only, so the floor is not finite
    ({"cov": _huge_diagonal_state().cov.tolist()}, [], 4),
])
def test_overflowing_state_file_exits_with_one_error_line(
        tmp_path, capsys, command, changes, flags, code):
    doc = {**state_to_dict(make_standard_form(EXP)), **changes}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(path), *flags]) == code
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_bad_register_tag_error_starts_with_the_path(tmp_path, capsys):
    doc = state_to_dict(make_standard_form(EXP))
    doc["register"][1]["tag"] = ["x"]
    path = tmp_path / "tag.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}.register[1]: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["validate", "analyze", "transform"])
def test_deeply_nested_json_exits_with_one_error_line(
        source_file, tmp_path, capsys, command):
    # json.load raises RecursionError, not a decode error, on this text
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    argv = [command, str(deep)]
    if command == "transform":
        argv = [command, source_file, "--config", str(deep)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_transform_writes_final_state(source_file, distribution_cfg, tmp_path,
                                      capsys):
    out_path = tmp_path / "final.json"
    code = main(["transform", source_file, "--config", distribution_cfg,
                 "--output", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert [m["tag"] for m in doc["register"]] == ["a1", "a2", "b1", "b2"]
    assert doc["cov"][0][0] == pytest.approx(0.61, abs=1e-12)


def test_transform_to_stdout_writes_the_bytes_of_the_output_file(
        source_file, distribution_cfg, tmp_path, capsys):
    out_path = tmp_path / "final.json"
    assert main(["transform", source_file, "--config", distribution_cfg,
                 "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["transform", source_file, "--config", distribution_cfg]) == 0
    assert capsys.readouterr().out.encode() == out_path.read_bytes()


# sha256 of transform's output for the bundled sigma2_exp state and the
# distribution config; CI checks the console script against it as well
TRANSFORM_SHA256 = "4eaeb68abd4f75d8421423e2d2f955fbbb9ad8f4732bdcfa397b7c8f6bb4ed47"


def test_transform_output_bytes_are_pinned(distribution_cfg, tmp_path, capsys):
    source = str(Path(fixtures.__file__).with_name("sigma2_exp.json"))
    out_path = tmp_path / "final.json"
    assert main(["transform", source, "--config", distribution_cfg]) == 0
    stdout = capsys.readouterr().out.encode()
    assert main(["transform", source, "--config", distribution_cfg,
                 "--output", str(out_path)]) == 0
    assert hashlib.sha256(stdout).hexdigest() == TRANSFORM_SHA256
    assert out_path.read_bytes() == stdout


# sha256 of analyze's JSON report on that output: the bytes of the reproduce
# run's report (REPRODUCE_REPORT_JSON_SHA256 in test_pipeline.py); CI checks
# the console script against it as well
ANALYZE_SHA256 = "dd3f88833d891b5834be74175e98136e9fab0bb7007e950ba43a306beb5bf45a"


def test_analyze_of_the_transformed_fixture_keeps_its_bytes(
        distribution_cfg, tmp_path, capsys):
    source = str(Path(fixtures.__file__).with_name("sigma2_exp.json"))
    out_path = tmp_path / "output.json"
    assert main(["transform", source, "--config", distribution_cfg,
                 "--output", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["--format", "json", "analyze", str(out_path)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == ANALYZE_SHA256


STATE_COMMANDS = {
    "validate": [],
    "transform": ["--config", "CONFIG", "--output", "OUT"],
    "analyze": ["--pairs"],
}


@pytest.mark.parametrize("command", STATE_COMMANDS)
def test_state_file_options_work_on_every_state_command(
        tmp_path, distribution_cfg, capsys, command):
    state = make_standard_form(EXP)
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                  for row in state.cov))
    doc = state_to_dict(state)
    doc["convention"]["sn"] = 1.0
    doc["cov"] = (2.0 * state.cov).tolist()
    sn1_path = tmp_path / "sn1.json"
    sn1_path.write_text(json.dumps(doc))
    files = {"CONFIG": distribution_cfg, "OUT": str(tmp_path / "out.json")}
    rest = [files.get(a, a) for a in STATE_COMMANDS[command]]

    assert main([command, str(csv_path), *rest]) == 2
    assert main([command, str(csv_path), "--register", "a:H:0,b:V:0", *rest]) == 0
    assert main([command, str(sn1_path), *rest]) == 2
    assert main([command, str(sn1_path), "--rescale", *rest]) == 0


@pytest.mark.parametrize("command", [*STATE_COMMANDS, "reproduce-paper"])
def test_every_subcommand_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: cvmodes {command}")
    if command in STATE_COMMANDS:
        assert "(tag:pol:oam,...)" in out and "rescaling on load" in out


@pytest.mark.parametrize("exc", [
    *(cls("x") for cls in vars(errors).values()
      if isinstance(cls, type) and issubclass(cls, errors.CVModesError)
      and cls is not errors.PipelineStepError),
    errors.PipelineStepError(1, "qplate", errors.NumericalFailure("x")),
    FileNotFoundError(2, "No such file or directory", "x.json"),
    IsADirectoryError(21, "Is a directory", "x"),
], ids=lambda exc: type(exc).__name__)
def test_one_error_line_and_the_class_exit_code(monkeypatch, capsys, exc):
    def fail(args, require_physical=True):
        raise exc

    monkeypatch.setattr(cli, "_load_input", fail)
    assert main(["validate", "x.json"]) == getattr(exc, "exit_code", 2)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exc}\n"


def test_transform_step_error_exit_code(source_file, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "steps": [{"op": "qplate", "delta": 1.0, "q": 0.5}],
    }))
    assert main(["transform", source_file, "--config", cfg.as_posix()]) == 3
    assert "step 1" in capsys.readouterr().err


def test_transform_non_finite_delta_is_numerical_failure(
        source_file, distribution_cfg, tmp_path, capsys):
    with open(distribution_cfg) as fh:
        steps = json.load(fh)["steps"]
    steps[-1]["delta"] = float("nan")
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({"steps": steps}))
    assert main(["transform", source_file, "--config", cfg.as_posix()]) == 4
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("step", [
    {"op": "qplate", "delta": 1.0},
    {"op": "reorder", "order": "ab"},
])
def test_transform_malformed_step_is_parse_error(source_file, tmp_path, capsys,
                                                 step):
    cfg = tmp_path / "malformed.json"
    cfg.write_text(json.dumps({"steps": [step]}))
    assert main(["transform", source_file, "--config", cfg.as_posix()]) == 2
    err = capsys.readouterr().err
    assert "steps[0]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("config, field", [
    ({"steps": [{"op": "qplate", "q": "0.5", "delta": True}]}, "steps[0].q"),
    ({"source": {"kind": "opo", "r": "0.5", "eta": True}}, "source.r"),
])
def test_transform_config_number_that_is_not_a_number_exits_2(
        source_file, tmp_path, capsys, config, field):
    cfg = tmp_path / "strings.json"
    cfg.write_text(json.dumps(config))
    assert main(["transform", source_file, "--config", cfg.as_posix()]) == 2
    err = capsys.readouterr().err
    assert f"{field}: " in err and "is not a number" in err
    assert "Traceback" not in err


def test_transform_infinite_qplate_charge_exits_2(source_file, tmp_path, capsys):
    cfg = tmp_path / "huge_q.json"  # json reads 1e400 as inf
    cfg.write_text('{"steps": [{"op": "qplate", "q": 1e400, "delta": 1.0}]}')
    assert main(["transform", source_file, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "steps[0]: qplate: 2q must be a nonzero integer" in err
    assert "Traceback" not in err


def test_analyze_pairs_text(source_file, capsys):
    assert main(["analyze", source_file, "--pairs"]) == 0
    out = capsys.readouterr().out
    assert "entangled" in out
    assert "0.2100" in out


def test_analyze_verdicts_do_not_affect_exit_code(source_file):
    # entangled and separable inputs both exit 0
    assert main(["analyze", source_file, "--pairs", "--scan"]) == 0


def test_analyze_json(tmp_path, capsys):
    path = tmp_path / "vac.json"
    save_state(load_state_fixture("vacuum4"), path)
    assert main(["--format", "json", "analyze", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(p["status"] == "separable" for p in doc["pairwise"])
    assert all(b["status"] == "separable" for b in doc["bipartitions"])


def test_reproduce_paper_text(capsys):
    assert main(["reproduce-paper"]) == 0
    out = capsys.readouterr().out
    assert "<= 1e-12: True" in out
    assert "0.3550" in out
    assert "typo cell [3, 2]" in out
    # an explicit --format text prints the same text, but the elapsed time
    assert main(["--format", "text", "reproduce-paper"]) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == out.splitlines()[:-1]


@pytest.mark.parametrize("argv", [
    ["reproduce-paper", "--json"],
    ["--format", "json", "reproduce-paper"],
    ["--format", "text", "reproduce-paper", "--json"],
], ids=" ".join)
def test_reproduce_paper_json(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPRODUCE_JSON_SHA256
    doc = json.loads(out)
    assert doc["comparisons"]["exact_match_1e-12"] is True
    assert doc["comparisons"]["printed_match_0.015"] is True
    pairs = {tuple(p["modes"]): p["status"] for p in doc["report"]["pairwise"]}
    assert pairs[("a1", "b2")] == "entangled"
    assert pairs[("b1", "b2")] == "separable"


def test_tol_flag_threads_through(source_file, capsys):
    # an absurdly wide tolerance band reclassifies the borderline witness
    assert main(["--tol", "0.4", "--format", "json", "analyze", source_file,
                 "--pairs"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pairwise"][0]["status"] == "separable"


def readme_exit_codes():
    """Error class name -> exit code, from the README table rows 3 and 4."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    codes = {}
    for code, names in re.findall(r"^\| ([34]) \|[^|]*\|(.*)\|$", readme, re.M):
        codes.update((name, int(code)) for name in re.findall(r"`(\w+)`", names))
    return codes


def test_every_error_class_exits_with_its_readme_code():
    readme = readme_exit_codes()
    assert readme["PipelineStepError"] == 3 and len(readme) == 4
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.CVModesError)]
    for cls in classes:
        assert cls.exit_code == readme.get(cls.__name__, 2), cls.__name__


@pytest.mark.parametrize("cause, code", [
    (errors.UnpairedMode("x"), 3),
    (errors.ParseError("x"), 3),
    (ValueError("x"), 3),
    (errors.NonSymplectic("x"), 4),
    (errors.NumericalFailure("x"), 4),
])
def test_step_error_exit_code_follows_a_numerical_cause(cause, code):
    assert errors.PipelineStepError(1, "qplate", cause).exit_code == code


def test_directory_input_exit_code(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_output_into_missing_directory_exit_code(source_file, distribution_cfg,
                                                 tmp_path, capsys):
    out_path = tmp_path / "missing" / "final.json"
    assert main(["transform", source_file, "--config", distribution_cfg,
                 "--output", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.001"])
@pytest.mark.parametrize("command", [
    ["reproduce-paper"],
    ["analyze", "VACUUM"],
    ["validate", "VACUUM"],
    # no analysis of this config runs a decider
    ["transform", "VACUUM", "--config", "CONFIG"],
])
def test_tol_outside_the_band_range_exits_2(tmp_path, capsys, tol, command):
    files = {"VACUUM": tmp_path / "vac.json", "CONFIG": tmp_path / "cfg.json"}
    save_state(load_state_fixture("vacuum4"), files["VACUUM"])
    files["CONFIG"].write_text(json.dumps({"analyses": ["validate"]}))
    argv = [f"--tol={tol}"] + [str(files.get(a, a)) for a in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "tolerance band" in captured.err


def test_analyze_strongly_squeezed_state(tmp_path, capsys):
    result = run_pipeline(distribution_config(
        source={"kind": "opo", "r": 9.0, "eta": 0.9}, analyses=()))
    path = tmp_path / "r9.json"
    save_state(result.final_state, path)
    assert main(["--format", "json", "analyze", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["pairwise"]) == 6 and len(doc["bipartitions"]) == 7


def test_parser_is_reused_without_carrying_options(source_file, capsys):
    outputs = []
    for argv in (["--format", "json", "analyze", source_file],
                 ["analyze", source_file],
                 ["--format", "json", "analyze", source_file]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[2]
    json.loads(outputs[0])
    assert outputs[1].startswith("Pairwise entanglement")
    assert "purity:" in outputs[1] and "purity" not in outputs[0]
