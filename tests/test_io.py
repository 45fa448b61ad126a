import contextlib
import json
import os
import re

import numpy as np
import pytest
from oracles import random_mixed_cov

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
from cvmodes.io import _state_text, parse_register_spec, read_json, state_to_dict
from cvmodes.pipeline import PipelineConfig

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


def _indented_json(state):
    """The reference state-file text: json's own indented encoder."""
    return json.dumps(state_to_dict(state), indent=2) + "\n"


# non-ASCII, quotes, backslashes, control characters and a lone surrogate
ODD_TAGS = ("é", 'say "hi"', "back\\slash", "snow\u2603\n\t", "\x00\x1f",
            "\U0001d49c", "\ud800", "/")


def _assert_state_file_bytes(state, path):
    save_state(state, path)
    expected = _indented_json(state)
    assert _state_text(state) == expected
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("n", range(1, 9))
def test_state_file_bytes_are_json_indented_by_two(tmp_path, n):
    rng = np.random.default_rng(900 + n)
    reg = ModeRegister(tuple(
        ModeLabel("HVLR"[k % 4], int(rng.integers(-5, 6)),
                  ODD_TAGS[k] if k % 2 else f"m{k}")
        for k in range(n)))
    state = GaussianState(reg, rng.normal(size=2 * n), random_mixed_cov(rng, n))
    _assert_state_file_bytes(state, tmp_path / "state.json")


def test_state_file_bytes_of_extreme_entries(tmp_path):
    extremes = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300,
                1.7976931348623157e308, 1e16, 1e-7, 0.1, 12345678901234567.0]
    n = 6
    cov = np.resize(np.array(extremes), (2 * n, 2 * n))
    reg = ModeRegister(tuple(ModeLabel("H", k, tag) for k, tag in enumerate(ODD_TAGS[:n])))
    state = GaussianState(reg, np.resize(np.array(extremes[::-1]), 2 * n), cov)
    _assert_state_file_bytes(state, tmp_path / "state.json")
    assert np.array_equal(load_state(tmp_path / "state.json", require_physical=False).cov,
                          cov)
    assert "-0.0," in _state_text(state) and "5e-324" in _state_text(state)


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


def test_asymmetric_state_is_refused_as_asymmetric(tmp_path):
    doc = state_to_dict(make_standard_form(EXP))
    doc["cov"][0][1] += 1e-6
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PhysicalityViolation, match="is not symmetric within 1e-10"):
        load_state(path)


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


def test_csv_skips_blank_lines(tmp_path):
    cov = make_standard_form(EXP).cov
    rows = [",".join(repr(float(v)) for v in row) for row in cov]
    path = tmp_path / "matrix.csv"
    # an empty line, and a line of empty cells, between and around the rows
    path.write_text("\n".join(["", rows[0], "", rows[1], " , ,", *rows[2:], ""]))
    state = load_cov_csv(path, parse_register_spec("a:H:0,b:V:0"))
    assert np.array_equal(state.cov, cov)


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
# more entries of an array that are not numbers
NOT_NUMBER_ENTRIES = {
    "string_cov.json": {"cov": [["0.5", "0", "0", "0"], [0, 0.5, 0, 0], [0, 0, 0.5, 0],
                                [0, 0, 0, 0.5]]},
    "object_mean.json": {"mean": [{"re": 0}, 0, 0, 0]},
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
    ("repeated_label.json", {"register": [
        {"tag": "a", "polarization": "H", "oam": 0},
        {"tag": "a", "polarization": "H", "oam": 0}]}),
    *NOT_NUMBER_ENTRIES.items(),
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
    not_numbers = {**NOT_NUMBERS, **NOT_NUMBER_ENTRIES}
    if name in not_numbers:
        (field,) = not_numbers[name]
        message = str(info.value)
        assert message.startswith(f"{path}") and field in message, message
        assert "is not a number" in message, message


def _text_mode_read_json(path):
    """The reference reader: the file opened in text mode, universal newlines."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _outcome(reader, path):
    try:
        return "value", reader(path)
    except ParseError as exc:
        return type(exc), str(exc)


GOOD_DOC = '{\n  "a": [1, 2.5, "x\\u00e9"],\n  "b": {"c": null}\n}\n'
BAD_LINE_3 = '{\n  "a": 1,\n  "b": ,\n  "c": 3\n}\n'


READ_CASES = {
    "lf.json": GOOD_DOC.encode(),
    "crlf.json": GOOD_DOC.replace("\n", "\r\n").encode(),
    "cr.json": GOOD_DOC.replace("\n", "\r").encode(),
    "mixed_newlines.json": b'{"a":\r\n1,\r"b":\n2,\n\r"c": 3}',
    "crlf_error_line_3.json": BAD_LINE_3.replace("\n", "\r\n").encode(),
    "cr_error_line_3.json": BAD_LINE_3.replace("\n", "\r").encode(),
    "cr_in_string.json": b'{"a": "x\ry"}',
    "utf8.json": '{"tag": "\u00e9\u2603"}'.encode(),
    "bom.json": b"\xef\xbb\xbf" + GOOD_DOC.encode(),
    "invalid_utf8.json": b'{"a": "\xff\xfe"}',
    "utf16.json": GOOD_DOC.encode("utf-16"),
    "utf16le.json": GOOD_DOC.encode("utf-16-le"),
    "truncated.json": GOOD_DOC[:20].encode(),
    "empty.json": b"",
    "deep.json": b"[" * 100_000,
    "long_int.json": b"[" + b"7" * 5000 + b"]",
}


@pytest.mark.parametrize("name", READ_CASES)
def test_read_json_matches_the_text_mode_reader(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(READ_CASES[name])
    expected = _outcome(_text_mode_read_json, path)
    assert _outcome(read_json, path) == expected
    if "error_line_3" in name:
        assert expected[0] is ParseError and ": line 3, column 8: " in expected[1]
    if name.startswith("utf16"):
        assert expected[0] is ParseError


PATH_TAKERS = {
    "read_json": read_json,
    "load_state": load_state,
    "PipelineConfig.from_file": PipelineConfig.from_file,
    "load_cov_csv": lambda path: load_cov_csv(path, parse_register_spec("a:H:0,b:V:0")),
    "save_state": lambda path: save_state(make_standard_form(EXP), path),
}


@pytest.mark.parametrize("path", [None, True, 3, 1.5, []], ids=repr)
@pytest.mark.parametrize("name", sorted(PATH_TAKERS))
def test_a_path_must_be_a_str_bytes_or_path_like(name, path):
    # open() would take an int or a bool as a file descriptor and close it
    message = f"path must be a str, bytes or os.PathLike, got {path!r}"
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        PATH_TAKERS[name](path)
    assert info.value.exit_code == 2


@pytest.mark.parametrize("name", sorted(PATH_TAKERS))
def test_a_file_descriptor_given_as_a_path_stays_open(name):
    read_fd, write_fd = os.pipe()
    os.write(write_fd, b"{}")
    given = write_fd if name == "save_state" else read_fd
    if given == read_fd:
        os.close(write_fd)  # a call that read the pipe would reach its end
    try:
        with pytest.raises(ParseError, match="path must be"):
            PATH_TAKERS[name](given)
        os.fstat(given)  # OSError if the call closed it
        assert os.read(read_fd, 4) == b"{}"
    finally:
        for fd in {read_fd, given}:
            with contextlib.suppress(OSError):
                os.close(fd)
