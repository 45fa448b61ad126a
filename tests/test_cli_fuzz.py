"""Fuzz the CLI with arbitrary config and state files.

Whatever the file holds, ``cli.main`` must end in a documented exit code
(0, 2, 3 or 4) and report a failure as an ``error:`` line, never as a
traceback.  Most inputs are valid documents with at most one value
replaced by an arbitrary JSON value or deleted, so runs reach the deep
paths (steps that run, states that are analysed) as well as every
field's checks.  The runs are derandomized, so the suite sees the same
inputs every time.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cvmodes import StandardFormParams, make_standard_form, save_state
from cvmodes.cli import main
from cvmodes.io import state_to_dict
from cvmodes.transforms import opo_source

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
DELETE = object()
SOURCE_DOC = state_to_dict(
    make_standard_form(StandardFormParams(0.72, 0.72, 0.51, -0.51)))


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


@st.composite
def corrupted(draw, valid):
    """A document from ``valid`` with at most one value replaced or deleted."""
    doc = draw(valid)
    path = draw(st.sampled_from([None, *_paths(doc)]))
    if path is None:
        return doc
    if not path:
        return draw(json_values)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = draw(json_values | st.just(DELETE))
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def modes(tags, polarizations):
    """One mode object per tag, with drawn polarizations and OAM."""
    labels = st.tuples(st.sampled_from(polarizations), st.integers(-1, 1))
    return st.lists(labels, min_size=len(tags), max_size=len(tags)).map(
        lambda drawn: [{"tag": tag, "polarization": pol, "oam": oam}
                       for tag, (pol, oam) in zip(tags, drawn)])


# JSON values that Python's float() or numpy would read as numbers (or NaN)
not_numbers = st.text(max_size=4) | st.booleans() | st.none()


@st.composite
def spoiled(draw, docs, fields):
    """A document from ``docs``; half the time one of ``fields`` is not a number."""
    doc = draw(docs)
    field = draw(st.none() | st.sampled_from(fields))
    return doc if field is None else {**doc, field: draw(not_numbers)}


steps = st.one_of(
    st.just({"op": "waveplate"}),
    modes(["a~", "b~"], "LR").map(lambda m: {"op": "embed", "modes": m}),
    st.permutations(range(4)).map(lambda p: {"op": "reorder", "order": list(p)}),
    spoiled(st.builds(lambda q, delta: {"op": "qplate", "q": q, "delta": delta},
                      st.sampled_from([0.5, 1, -0.5]), st.floats(0.0, 7.0)),
            ["q", "delta"]),
)
CANONICAL_STEPS = [
    {"op": "waveplate"},
    {"op": "embed", "modes": [{"tag": "a~", "polarization": "R", "oam": 1},
                              {"tag": "b~", "polarization": "L", "oam": -1}]},
    {"op": "reorder", "order": [0, 2, 1, 3]},
    {"op": "qplate", "q": 0.5, "delta": 1.5707963267948966},
]
sources = st.one_of(
    spoiled(st.builds(lambda r, eta: {"kind": "opo", "r": r, "eta": eta},
                      st.floats(0.0, 2.0), st.floats(0.3, 1.0)), ["r", "eta"]),
    spoiled(st.just({"kind": "standard_form", "a": 0.72, "b": 0.72,
                     "c1": 0.51, "c2": -0.51}), ["a", "b", "c1", "c2"]),
    st.just({"kind": "file", "path": "source.json"}),
)
configs = corrupted(st.fixed_dictionaries({
    "source": sources,
    "steps": st.just(CANONICAL_STEPS) | st.lists(steps, max_size=5),
    "analyses": st.lists(st.sampled_from(
        ["validate", "pairwise", "scan", "purity", "photons"]), max_size=3),
}))


@st.composite
def state_docs(draw):
    n = draw(st.integers(1, 3))
    if n == 2:
        r, eta = draw(st.floats(0.0, 2.0)), draw(st.floats(0.3, 1.0))
        cov = opo_source(r, eta).cov.tolist()
    else:
        scale = draw(st.floats(1.0, 3.0))
        cov = [[0.5 * scale * (i == j) for j in range(2 * n)]
               for i in range(2 * n)]
    return {
        "convention": {"sn": 0.5, "ordering": "interleaved"},
        "register": draw(modes(["a", "b", "c"][:n], "HVLR")),
        "mean": [0.0] * (2 * n),
        "cov": cov,
    }


def encode(doc):
    return json.dumps(doc).encode("utf-8")


def csv_text(rows):
    lines = (",".join(map(str, row)) if isinstance(row, list) else str(row)
             for row in (rows if isinstance(rows, list) else [rows]))
    return "\n".join(lines).encode("utf-8")


# (suffix, content); content None stands for a directory given as the file
inputs = st.one_of(
    st.tuples(st.just(".json"), corrupted(state_docs()).map(encode)),
    st.tuples(st.just(".csv"), corrupted(
        st.builds(lambda r: opo_source(r).cov.tolist(), st.floats(0.0, 2.0))
    ).map(csv_text)),
    st.tuples(st.sampled_from([".json", ".csv"]), st.binary(max_size=32)),
    st.tuples(st.just(".json"), st.none()),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save_state(make_standard_form(StandardFormParams(0.72, 0.72, 0.51, -0.51)),
               path / "source.json")
    (path / "a_directory").mkdir()
    return path


def run_cli(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(argv):
    code, err = run_cli(argv)
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith("error: "), err


@FUZZ
@given(config=configs)
@example(config={"steps": 5})
@example(config={"steps": None})
@example(config={"analyses": 0})
@example(config={"analyses": "scan"})
@example(config={"steps": [{"op": "embed", "modes": [
    {"tag": "a~", "polarization": "Q", "oam": 1}]}]})
@example(config={"steps": [{"op": "qplate", "q": 0.3, "delta": 1.0}]})
@example(config={"steps": [{"op": "embed", "modes": [
    {"tag": "a~", "polarization": "R", "oam": 1.7}]}]})
@example(config={"source": {"kind": "standard_form", "a": 0.7}})
@example(config={"source": {"kind": "file"}})
@example(config={"source": {"kind": "opo", "r": -1.0}})
@example(config={"steps": [{"op": "qplate", "q": "0.5", "delta": True}]})
@example(config={"source": {"kind": "opo", "r": "0.5", "eta": True}})
@example(config={"source": {"kind": "standard_form", "a": None, "b": 0.72,
                            "c1": 0.51, "c2": -0.51}})
def test_transform_any_config_exits_cleanly(workdir, config):
    path = workdir / "config.json"
    path.write_bytes(encode(config))
    assert_clean_exit(["transform", str(workdir / "source.json"),
                       "--config", str(path)])


@FUZZ
@given(command=st.sampled_from(["validate", "analyze"]), file=inputs,
       rescale=st.booleans())
@example(command="validate", file=(".json", b"\xff\xfe{}"), rescale=False)
@example(command="validate", file=(".csv", b"0.5,\xff\n"), rescale=False)
@example(command="validate", file=(".json", None), rescale=False)
@example(command="analyze", file=(".json", encode({
    "convention": None, "register": [], "mean": [], "cov": []})), rescale=False)
@example(command="analyze", file=(".json", encode({
    "convention": {"sn": 0.5, "ordering": "interleaved"},
    "register": 5, "mean": [], "cov": []})), rescale=False)
@example(command="validate", file=(".json", encode({
    **SOURCE_DOC, "cov": [[1e308 * (i == j) for j in range(4)] for i in range(4)]
})), rescale=False)
@example(command="analyze", file=(".json", encode({
    **SOURCE_DOC, "convention": {"sn": 1e-310, "ordering": "interleaved"}
})), rescale=True)
@example(command="validate", file=(".json", encode({
    **SOURCE_DOC, "mean": [10 ** 400, 0, 0, 0]})), rescale=False)
@example(command="validate", file=(".json", encode({
    **SOURCE_DOC, "cov": [[10 ** 400] * 4] * 4})), rescale=False)
@example(command="validate", file=(".json", encode({
    **SOURCE_DOC, "convention": {"sn": 10 ** 400, "ordering": "interleaved"}
})), rescale=False)
@example(command="analyze", file=(".json", encode({
    **SOURCE_DOC, "mean": ["0", "0", "0", "0"]})), rescale=False)
@example(command="validate", file=(".json", encode({
    **SOURCE_DOC, "cov": [[0.5, 0, 0, 0], [0, None, 0, 0], [0, 0, 0.5, 0],
                          [0, 0, 0, 0.5]]})), rescale=False)
def test_state_commands_on_any_file_exit_cleanly(workdir, command, file, rescale):
    suffix, content = file
    if content is None:
        path = workdir / "a_directory"
    else:
        path = workdir / f"state{suffix}"
        path.write_bytes(content)
    assert_clean_exit([command, str(path), "--register", "a:H:0,b:V:0",
                       *["--rescale"] * rescale])
