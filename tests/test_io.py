import json

import numpy as np
import pytest

from cvmodes import (
    GaussianState,
    ModeLabel,
    ModeRegister,
    StandardFormParams,
    load_cov_csv,
    load_state,
    make_standard_form,
    save_state,
)
from cvmodes.errors import ConventionMismatch, ParseError, PhysicalityViolation
from cvmodes.fixtures import load_matrix_fixture, load_state_fixture
from cvmodes.io import parse_register_spec, state_to_dict

EXP = StandardFormParams(0.72, 0.72, 0.51, -0.51)


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(51)
    lmat = rng.normal(size=(4, 4)) * 0.4
    cov = 0.5 * np.eye(4) + lmat @ lmat.T
    reg = ModeRegister((ModeLabel("L", 2, "p"), ModeLabel("R", -1, "q")))
    state = GaussianState(reg, rng.normal(size=4), cov)
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    assert np.array_equal(loaded.cov, state.cov)
    assert np.array_equal(loaded.mean, state.mean)
    assert loaded.register == state.register


def test_fixture_sigma2_exp_matches_source():
    state = load_state_fixture("sigma2_exp")
    assert np.array_equal(state.cov, make_standard_form(EXP).cov)
    assert state.register.tags == ("a", "b")


def test_fixture_vacuum4():
    state = load_state_fixture("vacuum4")
    assert state.n_modes == 4
    assert np.array_equal(state.cov, 0.5 * np.eye(8))


def test_matrix_fixtures_carry_typo_annotation():
    exact, _ = load_matrix_fixture("sigma4_exact")
    printed, meta = load_matrix_fixture("sigma4_printed")
    assert exact.shape == printed.shape == (8, 8)
    assert meta["typo_cells"] == [[3, 2]]
    r, c = meta["typo_cells"][0]
    # the published cell breaks symmetry; its corrected value is 0
    assert printed[r, c] == pytest.approx(0.60)
    assert printed[c, r] == 0.0
    assert meta["typo_corrected_value"] == 0.0


def test_unknown_fixture_name():
    with pytest.raises(ParseError):
        load_state_fixture("nope")
    with pytest.raises(ParseError):
        load_matrix_fixture("nope")


def test_truncated_file_names_missing_section(tmp_path):
    doc = state_to_dict(make_standard_form(EXP))
    del doc["cov"]
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="cov"):
        load_state(path)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"convention": {')
    with pytest.raises(ParseError, match="line 1"):
        load_state(path)


def test_unphysical_file_rejected_with_eigenvalue(tmp_path):
    doc = state_to_dict(make_standard_form(EXP))
    doc["cov"] = [[0.0] * 4 for _ in range(4)]
    path = tmp_path / "unphysical.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PhysicalityViolation) as err:
        load_state(path)
    assert err.value.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    # deferred check still loads it
    state = load_state(path, require_physical=False)
    assert np.array_equal(state.cov, np.zeros((4, 4)))


def test_foreign_shot_noise_rejected_then_rescaled(tmp_path):
    doc = state_to_dict(make_standard_form(EXP))
    doc["convention"]["sn"] = 1.0
    doc["cov"] = (2.0 * make_standard_form(EXP).cov).tolist()
    path = tmp_path / "sn1.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConventionMismatch):
        load_state(path)
    state = load_state(path, rescale=True)
    assert np.allclose(state.cov, make_standard_form(EXP).cov, atol=1e-15)


def test_foreign_ordering_rejected(tmp_path):
    doc = state_to_dict(make_standard_form(EXP))
    doc["convention"]["ordering"] = "blocked"
    path = tmp_path / "ordering.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConventionMismatch):
        load_state(path)


def test_non_finite_entries_are_a_parse_error(tmp_path):
    doc = state_to_dict(make_standard_form(EXP))
    doc["cov"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="finite"):
        load_state(path)


def test_dimension_mismatch_is_a_parse_error(tmp_path):
    doc = state_to_dict(make_standard_form(EXP))
    doc["mean"] = [0.0, 0.0]
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="mean"):
        load_state(path)


def test_csv_import(tmp_path):
    cov = make_standard_form(EXP).cov
    path = tmp_path / "matrix.csv"
    path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in cov)
    )
    reg = parse_register_spec("a:H:0,b:V:0")
    state = load_cov_csv(path, reg)
    assert np.array_equal(state.cov, cov)
    assert np.array_equal(state.mean, np.zeros(4))


def test_csv_wrong_shape(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("0.5,0\n0,0.5\n")
    reg = parse_register_spec("a:H:0,b:V:0")
    with pytest.raises(ParseError, match="4x4"):
        load_cov_csv(path, reg)


def test_register_spec_errors():
    with pytest.raises(ParseError):
        parse_register_spec("a:H")
    with pytest.raises(ParseError):
        parse_register_spec("a:Q:0")
    with pytest.raises(ParseError):
        parse_register_spec("a:H:x")


# JSON strings, booleans and null, which numpy would read as numbers (or NaN)
NOT_NUMBERS = {
    "string_mean.json": {"mean": ["0", "0", "0", "0"]},
    "null_mean.json": {"mean": [None, 0, 0, 0]},
    "bool_cov.json": {"cov": [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                              [0, 0, 0, 1]]},
    "null_cov.json": {"cov": [[None] * 4] * 4},
    "string_shot_noise.json": {"convention": {"sn": "0.5",
                                              "ordering": "interleaved"}},
    "bool_shot_noise.json": {"convention": {"sn": True, "ordering": "interleaved"}},
}


@pytest.mark.parametrize("name, content", [
    ("null_convention.json", {"convention": None}),
    ("zero_convention.json", {"convention": 0}),
    ("nan_shot_noise.json", {"convention": {"sn": float("nan"),
                                            "ordering": "interleaved"}}),
    ("scalar_register.json", {"register": 5}),
    ("scalar_mode.json", {"register": [5, 6]}),
    ("numeric_tag.json", {"register": [
        {"tag": 1, "polarization": "H", "oam": 0},
        {"tag": "b", "polarization": "V", "oam": 0}]}),
    ("latin1.json", b'{"convention": "\xe9"}'),
    ("latin1.csv", b"0.5,0,0,\xe9\n"),
    # 400-digit integer literals do not fit a float
    ("huge_mean.json", {"mean": [10 ** 400, 0, 0, 0]}),
    ("huge_cov.json", {"cov": [[10 ** 400] * 4] * 4}),
    ("huge_shot_noise.json", {"convention": {"sn": 10 ** 400,
                                             "ordering": "interleaved"}}),
    ("nan_cell.csv", b"nan,0,0,0\n0,0.5,0,0\n0,0,0.5,0\n0,0,0,0.5\n"),
    *NOT_NUMBERS.items(),
])
def test_malformed_files_are_a_parse_error(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, dict):
        doc = state_to_dict(make_standard_form(EXP))
        doc.update(content)
        content = json.dumps(doc).encode()
    path.write_bytes(content)
    with pytest.raises(ParseError) as info:
        if name.endswith(".csv"):
            load_cov_csv(path, parse_register_spec("a:H:0,b:V:0"))
        else:
            load_state(path, rescale=True)
    if name in NOT_NUMBERS:
        (field,) = NOT_NUMBERS[name]
        assert field in str(info.value) and "is not a number" in str(info.value)
