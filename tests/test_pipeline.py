import dataclasses
import hashlib
import inspect
import json
import math
import re
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cvmodes import (
    Bipartition,
    EntanglementReport,
    EntanglementVerdict,
    Method,
    ModeLabel,
    ModeRegister,
    QPlateSpec,
    StandardFormParams,
    Status,
    bipartition_scan,
    distribution_config,
    emit_report,
    iterative_separability,
    make_standard_form,
    opo_source,
    pairwise_entanglement_map,
    ppt_verdict,
    reproduce_paper,
    run_pipeline,
    sigma4_closed_form,
    validate,
)
from cvmodes import core, fixtures, transforms
from cvmodes.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonPositiveDeterminant,
    NotAPermutation,
    NumericalFailure,
    ParseError,
    PhysicalityViolation,
    PipelineStepError,
)
from cvmodes.io import load_state
from cvmodes.pipeline import (
    PipelineConfig,
    PipelineResult,
    reproduce_paper_json,
    reproduce_paper_text,
)

EXP = StandardFormParams(0.72, 0.72, 0.51, -0.51)

EXP_SOURCE = {"kind": "standard_form", "a": 0.72, "b": 0.72,
              "c1": 0.51, "c2": -0.51}


def test_config_parsing_rejects_unknown_pieces():
    with pytest.raises(ParseError):
        PipelineConfig.from_dict({"steps": [{"op": "teleport"}]})
    with pytest.raises(ParseError):
        PipelineConfig.from_dict({"analyses": ["entropy"]})
    with pytest.raises(ParseError):
        PipelineConfig.from_dict({"source": {"r": 1.0}})
    with pytest.raises(ParseError):
        PipelineConfig.from_dict([1, 2])


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "source": EXP_SOURCE,
        "steps": [{"op": "waveplate"}],
        "analyses": ["validate", "purity"],
    }))
    config = PipelineConfig.from_file(path)
    assert config.source() == make_standard_form(EXP)
    assert [op for op, _ in config.steps] == ["waveplate"]
    assert config.analyses == ("validate", "purity")


def test_canonical_pipeline_reproduces_closed_form():
    config = distribution_config(source=EXP_SOURCE)
    result = run_pipeline(config)
    assert result.final_state.register.tags == ("a1", "a2", "b1", "b2")
    assert np.abs(result.final_state.cov - sigma4_closed_form(EXP)).max() <= 1e-12


def test_diagnostics_track_every_step():
    config = distribution_config(source=EXP_SOURCE)
    result = run_pipeline(config)
    steps = [d.step for d in result.diagnostics]
    assert steps == ["source", "waveplate", "embed", "reorder", "qplate"]
    for d in result.diagnostics:
        assert d.total_photons == pytest.approx(0.44, abs=1e-12)
        assert d.min_heisenberg_eigenvalue >= -1e-9
    assert result.diagnostics[-1].tags == ("a1", "a2", "b1", "b2")


def test_empty_steps_with_validate_echo_input():
    config = PipelineConfig.from_dict({"source": EXP_SOURCE, "steps": [],
                                       "analyses": ["validate"]})
    result = run_pipeline(config)
    assert np.array_equal(result.final_state.cov, make_standard_form(EXP).cov)
    assert result.analyses["validate"].physical


def test_validate_analysis_is_the_final_step_report():
    result = run_pipeline(distribution_config(source=EXP_SOURCE,
                                              analyses=("validate",)))
    report = result.analyses["validate"]
    assert report is result.diagnostics[-1].validity
    assert report == validate(result.final_state)
    assert result.diagnostics[-1].min_heisenberg_eigenvalue == \
        report.min_heisenberg_eigenvalue


@pytest.mark.parametrize("r, cause, code", [
    (400.0, ValueError, 3),              # cosh(2r) overflows in the model
    (200.0, NonPositiveDeterminant, 4),  # the diagnostics of the source fail
])
def test_extreme_squeezing_fails_at_step_zero(r, cause, code):
    with pytest.raises(PipelineStepError) as err:
        run_pipeline(distribution_config(source={"kind": "opo", "r": r}))
    assert err.value.step_index == 0
    assert err.value.step_name == "source"
    assert isinstance(err.value.cause, cause)
    assert err.value.exit_code == code


@pytest.mark.parametrize("r", [9.0, 10.0, 12.0])
def test_strong_squeezing_gets_verdicts(r):
    # Omega sigma of these partial transposes has eigenvalues with roundoff
    # real parts of 2.5e-9 to 2.1e-6; the verdicts must not depend on them
    result = run_pipeline(distribution_config(
        source={"kind": "opo", "r": r, "eta": 0.9}))
    entangled = {pair for pair, v in result.report.pairwise.items()
                 if v.status is Status.ENTANGLED}
    assert entangled == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert len(result.report.pairwise) == 6
    assert len(result.report.bipartitions) == 7


def test_extreme_squeezing_reports_no_false_entanglement():
    # every step diagnostic passes (floor +0.0036), but the entries reach
    # 3.5e15: a 60-digit spectrum of these float matrices gives nu >= 1/2
    # on every pair and split, while float64 eigvals gives 0.28-0.49 on
    # some.  numpy's Cholesky factors the matrix and every pair marginal,
    # so a Cholesky gate alone would not refuse it.  A decision here must
    # refuse (NumericalFailure) or find no entanglement.
    final = run_pipeline(distribution_config(
        source={"kind": "opo", "r": 19.906514414595982,
                "eta": 0.08091842956608453},
        delta=0.6519761634901031, analyses=())).final_state
    assert validate(final).physical
    for verdicts in (lambda: pairwise_entanglement_map(final).pairwise.values(),
                     lambda: [v for _, v in bipartition_scan(final)]):
        try:
            statuses = {v.status for v in verdicts()}
        except NumericalFailure:
            continue
        assert Status.ENTANGLED not in statuses


def test_reproduce_paper_computes_one_heisenberg_floor_per_state(
        monkeypatch, fresh_fixture_cache):
    calls = []
    floor = core.min_heisenberg_eigenvalue
    monkeypatch.setattr(core, "min_heisenberg_eigenvalue",
                        lambda cov: calls.append(cov) or floor(cov))
    reproduce_paper()
    # the source, checked once per process when its fixture is first read,
    # then one stack of the outputs of embed, reorder and q-plate; the
    # waveplate relabel keeps its input's report
    assert [cov.shape for cov in calls] == [(4, 4), (3, 8, 8)]
    calls.clear()
    reproduce_paper()
    assert [cov.shape for cov in calls] == [(3, 8, 8)]


def test_relabel_step_keeps_its_input_facts(monkeypatch):
    calls = []
    for name in ("purity", "total_photon_number"):
        fact = getattr(core, name)
        monkeypatch.setattr(core, name, lambda state, f=fact, name=name:
                            calls.append(name) or f(state))
    result = run_pipeline(distribution_config(source=EXP_SOURCE))
    source, waveplate = result.diagnostics[:2]
    assert (waveplate.total_photons, waveplate.purity, waveplate.validity) == (
        source.total_photons, source.purity, source.validity)
    # a photon total for each of the four states with their own arrays; the
    # source's purity, while the step outputs take theirs from one stack
    assert sorted(calls) == ["purity"] + ["total_photon_number"] * 4


def test_pipeline_records_are_indistinguishable_from_constructed_ones():
    # distribution_config and run_pipeline build their records without the
    # dataclass __init__
    config = distribution_config(source=EXP_SOURCE)
    result = run_pipeline(config)
    diagnostics = result.diagnostics
    for record in (config, result, result.report, *diagnostics, diagnostics[-1].validity):
        built = type(record)(**{f.name: getattr(record, f.name)
                                for f in dataclasses.fields(record)})
        assert record == built and built == record
        assert repr(record) == repr(built)
        if not isinstance(record, (PipelineResult, EntanglementReport)):
            assert hash(record) == hash(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.index = 0


def test_diagnostics_error_comes_before_a_later_step_error(monkeypatch):
    config = PipelineConfig.from_dict({
        "source": EXP_SOURCE,
        "steps": [
            {"op": "waveplate"},
            {"op": "embed", "modes": [
                {"tag": "a~", "polarization": "R", "oam": 1},
                {"tag": "b~", "polarization": "L", "oam": -1},
            ]},
            {"op": "qplate", "delta": 1.0, "q": 1.0},  # no partner at OAM +-2
        ],
    })
    with pytest.raises(PipelineStepError) as err:
        run_pipeline(config)
    assert (err.value.step_index, err.value.step_name) == (3, "qplate")

    slogdet = np.linalg.slogdet

    def embed_output_not_positive(cov):
        # the stacked and the single determinant of the four-mode embed
        # output, 8x8, both with the wrong sign
        sign, logdet = slogdet(cov)
        return (-sign if cov.shape[-1] == 8 else sign), logdet

    monkeypatch.setattr(np.linalg, "slogdet", embed_output_not_positive)
    with pytest.raises(PipelineStepError) as err:
        run_pipeline(config)
    assert (err.value.step_index, err.value.step_name) == (2, "embed")
    assert isinstance(err.value.cause, NonPositiveDeterminant)


def test_non_positive_determinant_in_the_stack_raises_at_its_own_step(monkeypatch):
    config = distribution_config(source=EXP_SOURCE)
    reordered = run_pipeline(PipelineConfig(
        config.source, config.steps[:3], ())).final_state.cov
    slogdet = np.linalg.slogdet

    def reorder_output_not_positive(cov):
        # the wrong sign for the reorder output, in the stack and alone
        sign, logdet = slogdet(cov)
        hit = cov.shape[-1] == 8 and (cov == reordered).all(axis=(-2, -1))
        return np.where(hit, -sign, sign), logdet

    monkeypatch.setattr(np.linalg, "slogdet", reorder_output_not_positive)
    with pytest.raises(PipelineStepError) as err:
        run_pipeline(config)
    assert (err.value.step_index, err.value.step_name) == (3, "reorder")
    assert isinstance(err.value.cause, NonPositiveDeterminant)


def test_failed_stacked_floor_leaves_each_state_its_own(monkeypatch):
    config = distribution_config(source=EXP_SOURCE)
    expected = run_pipeline(config).diagnostics
    reordered = run_pipeline(PipelineConfig(
        config.source, config.steps[:3], ())).final_state.cov
    floor = core.min_heisenberg_eigenvalue
    calls = []

    def stacks_fail(cov):
        calls.append(cov.shape)
        if cov.ndim == 3:
            raise NumericalFailure("stacked floor")
        return floor(cov)

    monkeypatch.setattr(core, "min_heisenberg_eigenvalue", stacks_fail)
    result = run_pipeline(config)
    assert repr(result.diagnostics) == repr(expected)
    assert calls == [(4, 4), (3, 8, 8), (8, 8), (8, 8), (8, 8)]

    def reorder_output_fails(cov):
        if cov.ndim == 3 or np.array_equal(cov, reordered):
            raise NumericalFailure("floor of the reorder output")
        return floor(cov)

    monkeypatch.setattr(core, "min_heisenberg_eigenvalue", reorder_output_fails)
    with pytest.raises(PipelineStepError) as err:
        run_pipeline(config)
    assert (err.value.step_index, err.value.step_name) == (3, "reorder")
    assert isinstance(err.value.cause, NumericalFailure)


SWEEP_SHA256 = "b580dfa29b6a05016d9e601d49a3a92d0ca35e38a20420c7d77a946bc639002d"


def test_sweep_outputs_are_pinned():
    # diagnostics, analyses, report and final covariance bytes of 256
    # seeded (r, eta, delta) points, as computed when every step copied,
    # checked and measured its own output
    rng = np.random.default_rng(1811)
    digest = hashlib.sha256()
    for r, eta, delta in zip(rng.uniform(0.0, 3.0, 256), rng.uniform(0.3, 1.0, 256),
                             rng.uniform(0.0, 2.0 * math.pi, 256)):
        result = run_pipeline(distribution_config(
            source={"kind": "opo", "r": float(r), "eta": float(eta)},
            delta=float(delta),
            analyses=("validate", "purity", "photons", "pairwise", "scan")))
        digest.update(repr((result.diagnostics, result.analyses,
                            result.report)).encode())
        digest.update(result.final_state.cov.tobytes())
    assert digest.hexdigest() == SWEEP_SHA256


def test_opo_vacuum_through_pipeline_all_separable():
    config = distribution_config(
        source={"kind": "opo", "r": 0.0}, analyses=("pairwise", "scan")
    )
    result = run_pipeline(config)
    assert all(
        v.status is Status.SEPARABLE for v in result.report.pairwise.values()
    )
    assert all(v.status is Status.SEPARABLE for _, v in result.report.bipartitions)


def test_failing_step_wrapped_with_index():
    config = PipelineConfig.from_dict({
        "source": EXP_SOURCE,
        "steps": [
            {"op": "waveplate"},
            {"op": "qplate", "delta": np.pi / 2, "q": 0.5},  # vacua missing
        ],
    })
    with pytest.raises(PipelineStepError) as err:
        run_pipeline(config)
    assert err.value.step_index == 2
    assert err.value.step_name == "qplate"
    assert "UnpairedMode" in str(err.value)


@pytest.mark.parametrize("source", [
    {"kind": "opo", "r": float("nan")},
    {"kind": "opo", "r": float("inf")},
    {**EXP_SOURCE, "a": float("nan")},
])
def test_non_finite_source_parameters_fail_at_step_zero(source):
    with pytest.raises(PipelineStepError) as err:
        run_pipeline(distribution_config(source=source))
    assert err.value.step_index == 0
    assert isinstance(err.value.cause, PhysicalityViolation)
    assert "not all finite" in str(err.value)


def test_step_fields_are_checked_when_parsed():
    bad_steps = [
        {"op": "qplate", "delta": 1.0},
        {"op": "qplate", "q": 0.5},
        {"op": "qplate", "q": "half", "delta": 1.0},
        {"op": "embed"},
        {"op": "embed", "modes": [{"tag": "a~", "oam": 1}]},
        {"op": "reorder"},
        {"op": "reorder", "order": "ab"},
        {"op": "reorder", "order": [0, 1.5]},
        {"op": "embed", "modes": [{"tag": "a~", "polarization": "Q", "oam": 1}]},
        {"op": "embed", "modes": [{"tag": "a~", "polarization": "R", "oam": 1.7}]},
        {"op": "qplate", "q": 0.3, "delta": 1.0},
    ]
    for step in bad_steps:
        with pytest.raises(ParseError, match=r"steps\[0\]"):
            PipelineConfig.from_dict({"steps": [step]})



@pytest.mark.parametrize("data", [
    {"steps": 5},
    {"steps": None},
    {"analyses": 0},
    {"analyses": "scan"},
    {"source": {"kind": "standard_form", "a": 0.7}},
    {"source": {"kind": "file"}},
    {"source": {"kind": "opo", "r": "strong"}},
])
def test_config_shape_is_checked_when_parsed(data):
    with pytest.raises(ParseError):
        PipelineConfig.from_dict(data)


@pytest.mark.parametrize("data, field", [
    ({"steps": [{"op": "qplate", "q": "0.5", "delta": True}]}, "steps[0].q"),
    ({"steps": [{"op": "qplate", "q": 0.5, "delta": True}]}, "steps[0].delta"),
    ({"steps": [{"op": "qplate", "q": 0.5, "delta": [1.0]}]}, "steps[0].delta"),
    ({"source": {"kind": "opo", "r": "0.5", "eta": True}}, "source.r"),
    ({"source": {"kind": "opo", "r": 0.5, "eta": True}}, "source.eta"),
    ({"source": {"kind": "opo", "r": 10 ** 400}}, "source.r"),
    ({"source": {**EXP_SOURCE, "c2": None}}, "source.c2"),
    ({"source": {**EXP_SOURCE, "a": "0.72"}}, "source.a"),
])
def test_config_numbers_are_json_numbers(data, field):
    # the rule of state files: a string, a boolean, null or a list is not
    # a number, though float() or numpy would read some of them as one
    with pytest.raises(ParseError, match=re.escape(f"config.{field}: ")):
        PipelineConfig.from_dict(data)


@pytest.mark.parametrize("field", ["delta", "q"])
@pytest.mark.parametrize("value", [None, True, "1.0", [1.0], np.array(1.0)])
def test_distribution_config_numbers_are_json_numbers(field, value):
    # the keyword arguments follow the rule of a config file
    with pytest.raises(ParseError,
                       match=re.escape(f"distribution_config.steps[0].{field}: ")):
        distribution_config(**{field: value})


@pytest.mark.parametrize("analyses", [None, 5, 1.5, object(), [np.array([1, 2])]])
def test_distribution_config_analyses_must_be_an_iterable_of_names(analyses):
    with pytest.raises(ParseError, match=re.escape("distribution_config.analyses: ")):
        distribution_config(analyses=analyses)


def _distributed():
    return run_pipeline(distribution_config(analyses=()), state=make_standard_form(EXP)).final_state


def _state_key(state):
    return state.register, state.mean.tobytes(), state.cov.tobytes()


def _band_message(value):
    return f"tolerance band must be finite and in [0, 0.5), got {value!r}"


def _config_message(field):
    def message(value):
        # a list, of numbers or not, is not shown
        shown = "not a number" if isinstance(value, list) else f"{value!r} is not a number"
        return f"distribution_config.steps[0].{field}: {shown}"
    return message


_SPLIT = Bipartition((0, 1), (2, 3))

# every argument that takes one number: (name, a valid integral value,
# call(value), key(result), error, message(refused value))
NUMBER_ARGUMENTS = [
    ("opo_source.r", 1.0, lambda x: opo_source(x, 0.9), _state_key,
     ValueError, "squeezing parameter must be >= 0, got {}".format),
    ("opo_source.eta", 1.0, lambda x: opo_source(0.5, x), _state_key,
     ValueError, "efficiency must be in (0, 1], got {}".format),
    ("make_standard_form.a", 1.0,
     lambda x: make_standard_form(StandardFormParams(x, 0.72, 0.51, -0.51)), _state_key,
     DimensionMismatch, "cov is not an array of numbers: a = {!r} is not a number".format),
    ("QPlateSpec.q", 1.0, lambda x: QPlateSpec(x, 2.0), lambda s: (s, s.oam_shift),
     ValueError, "2q must be a nonzero integer, got q={}".format),
    ("QPlateSpec.delta", 2.0, lambda x: QPlateSpec(0.5, x), repr,
     ValueError, "delta must be a number, got {!r}".format),
    ("ppt_verdict.band", 0.0, lambda x: ppt_verdict(_distributed(), _SPLIT, band=x), repr,
     ParseError, _band_message),
    ("iterative_separability.band", 0.0,
     lambda x: iterative_separability(_distributed(), _SPLIT, band=x), repr,
     ParseError, _band_message),
    ("pairwise_entanglement_map.band", 0.0,
     lambda x: pairwise_entanglement_map(_distributed(), band=x), repr,
     ParseError, _band_message),
    ("bipartition_scan.band", 0.0, lambda x: bipartition_scan(_distributed(), band=x), repr,
     ParseError, _band_message),
    ("run_pipeline.band", 0.0,
     lambda x: run_pipeline(distribution_config(), state=make_standard_form(EXP), band=x),
     lambda result: (repr(result.report), repr(result.diagnostics)),
     ParseError, _band_message),
    ("reproduce_paper.band", 0.0, lambda x: reproduce_paper(band=x), reproduce_paper_json,
     ParseError, _band_message),
    ("distribution_config.delta", 2.0, lambda x: distribution_config(delta=x),
     lambda config: repr(config.steps[-1][1].keywords["spec"]),
     ParseError, _config_message("delta")),
    ("distribution_config.q", 1.0, lambda x: distribution_config(q=x),
     lambda config: repr(config.steps[-1][1].keywords["spec"]),
     ParseError, _config_message("q")),
]


@pytest.mark.parametrize("name, good, call, key, error, message", NUMBER_ARGUMENTS,
                         ids=[row[0] for row in NUMBER_ARGUMENTS])
def test_every_number_argument_follows_the_number_rule(name, good, call, key, error,
                                                       message):
    # the rule stated in the cvmodes.errors docstring, with each refusal's text
    for bad in (True, False, "1.5", None, [1.0], np.array(1.0), 1j):
        with pytest.raises(error) as got:
            call(bad)
        assert (type(got.value), str(got.value)) == (error, message(bad)), bad
    want = key(call(good))
    for same in (int(good), np.int64(good), np.float64(good)):
        assert key(call(same)) == want, type(same)


@pytest.mark.parametrize("name, good, call, key, error, message", NUMBER_ARGUMENTS,
                         ids=[row[0] for row in NUMBER_ARGUMENTS])
def test_an_integer_too_large_for_a_float_raises_the_documented_error(
        name, good, call, key, error, message):
    for huge in (10 ** 400, -10 ** 400):
        with pytest.raises(error) as got:
            call(huge)
        assert type(got.value) is error, huge
        if name.startswith("QPlateSpec."):
            assert str(got.value) == message(huge)


TOO_LONG = 10 ** 5000  # Python refuses to print an int of over 4,300 digits
SHOWN = "<int too long to print>"


def _pair_of_distributed(i, j):
    return pairwise_entanglement_map(_distributed()).pair(i, j)


# a refused argument that the message shows: (name, call, error, message)
TOO_LONG_TO_PRINT = [
    *[(name, partial(call, TOO_LONG), error, f"tolerance band must be finite and in "
                                             f"[0, 0.5), got {SHOWN}")
      for name, good, call, key, error, message in NUMBER_ARGUMENTS
      if name.endswith(".band")],
    ("reduce", lambda: core.reduce(_distributed(), [TOO_LONG]), IndexOutOfRange,
     f"mode index {SHOWN} outside register of 4 modes"),
    ("reduce.type", lambda: core.reduce(_distributed(), [TOO_LONG, "0"]), IndexOutOfRange,
     "mode indices must be integers: <list too long to print>"),
    ("reorder", lambda: core.reorder(_distributed(), [TOO_LONG, 0]), NotAPermutation,
     "<list too long to print> is not a permutation of 0..3"),
    ("ppt_verdict.bipartition",
     lambda: ppt_verdict(_distributed(), Bipartition((TOO_LONG,), (1,))), IndexOutOfRange,
     "bipartition <tuple too long to print>|(1,) does not cover the 4-mode register"),
    ("Bipartition", lambda: Bipartition((TOO_LONG,), (TOO_LONG,)), IndexOutOfRange,
     "bipartition sides must be nonempty with no index repeated: "
     "<tuple too long to print> / <tuple too long to print>"),
    ("EntanglementReport.pair", lambda: _pair_of_distributed(TOO_LONG, 0), IndexOutOfRange,
     "pairwise table has no pair <tuple too long to print>"),
    ("QPlateSpec.q", lambda: QPlateSpec(TOO_LONG, 1.0), ValueError,
     f"2q must be a nonzero integer, got q={SHOWN}"),
    ("QPlateSpec.delta", lambda: QPlateSpec(0.5, TOO_LONG), ValueError,
     f"delta must be a number, got {SHOWN}"),
    ("opo_source.r", lambda: opo_source(TOO_LONG, 0.9), ValueError,
     f"squeezing parameter r = {SHOWN} overflows cosh(2r)"),
    ("opo_source.r.sign", lambda: opo_source(-TOO_LONG, 0.9), ValueError,
     f"squeezing parameter must be >= 0, got {SHOWN}"),
    ("opo_source.eta", lambda: opo_source(0.5, TOO_LONG), ValueError,
     f"efficiency must be in (0, 1], got {SHOWN}"),
    ("distribution_config.delta", lambda: distribution_config(delta={0: TOO_LONG}), ParseError,
     "distribution_config.steps[0].delta: <dict too long to print> is not a number"),
    ("GaussianState.mean",
     lambda: core.GaussianState(_distributed().register, [{0: TOO_LONG}] * 8, np.eye(8)),
     DimensionMismatch, "mean is not an array of numbers: <dict too long to print> is not a "
                        "number"),
]


@pytest.mark.parametrize("name, call, error, message", TOO_LONG_TO_PRINT,
                         ids=[row[0] for row in TOO_LONG_TO_PRINT])
def test_an_integer_too_long_to_print_keeps_the_documented_error(name, call, error, message):
    with pytest.raises(Exception) as got:
        call()
    assert (type(got.value), str(got.value)) == (error, message)


def test_distribution_config_takes_numpy_numbers():
    def spec(**kwargs):
        return distribution_config(**kwargs).steps[-1][1].keywords["spec"]

    for x in (0.6519761634901031, np.pi / 2.0, 7.0):
        got, want = spec(delta=np.float64(x)), spec(delta=float(x))
        assert got == want and repr(got) == repr(want)
    got, want = spec(q=np.int64(1)), spec(q=1.0)
    assert got == want and repr(got) == repr(want)


def test_source_model_value_error_fails_at_step_zero():
    config = distribution_config(source={"kind": "opo", "r": -1.0})
    with pytest.raises(PipelineStepError) as err:
        run_pipeline(config)
    assert err.value.step_index == 0
    assert isinstance(err.value.cause, ValueError)
    assert err.value.exit_code == 3


def test_config_without_source_needs_an_input_state():
    config = PipelineConfig(source=None, steps=(), analyses=("photons",))
    with pytest.raises(PipelineStepError) as err:
        run_pipeline(config)
    assert isinstance(err.value.cause, ParseError)
    state = make_standard_form(EXP)
    assert run_pipeline(config, state=state).analyses["photons"] == \
        pytest.approx(0.44, abs=1e-12)

def test_run_is_deterministic():
    config = distribution_config(source=EXP_SOURCE,
                                 analyses=("pairwise", "scan"))
    one = run_pipeline(config)
    two = run_pipeline(config)
    assert np.array_equal(one.final_state.cov, two.final_state.cov)
    assert emit_report(one.report, "json") == emit_report(two.report, "json")


# -- report emission -----------------------------------------------------------

def full_report():
    config = distribution_config(source=EXP_SOURCE,
                                 analyses=("pairwise", "scan"))
    return run_pipeline(config).report


def test_text_report_shows_pattern_and_witnesses():
    text = emit_report(full_report(), "text").decode()
    assert "a1,b1" in text and "entangled" in text and "separable" in text
    assert "0.3550" in text  # entangled-pair witness, 4 significant figures
    assert "0.6000" in text  # separable-pair witness
    assert "0.2100" in text  # witness of the split between the two beams


def test_json_report_is_byte_identical_and_round_trips():
    report = full_report()
    blob1 = emit_report(report, "json")
    blob2 = emit_report(report, "json")
    assert blob1 == blob2
    parsed = json.loads(blob1.decode())
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) \
        .encode() + b"\n" == blob1
    pairs = {tuple(p["modes"]): p["status"] for p in parsed["pairwise"]}
    assert pairs[("a1", "b1")] == "entangled"
    assert pairs[("a1", "a2")] == "separable"
    # full float precision survives the round trip
    witness = [p for p in parsed["pairwise"] if p["modes"] == ["a1", "b1"]][0]
    assert witness["witness"] == pytest.approx(0.355, abs=1e-6)


def test_empty_report_renders():
    empty = EntanglementReport(("a", "b"), {}, ())
    assert b"empty" in emit_report(empty, "text")
    parsed = json.loads(emit_report(empty, "json").decode())
    assert parsed["pairwise"] == [] and parsed["bipartitions"] == []


def test_text_report_shows_the_iterations_of_an_iterative_verdict():
    split = Bipartition((0,), (1,))
    verdict = iterative_separability(make_standard_form(EXP), split)
    assert verdict.method is Method.ITERATIVE and verdict.iterations > 0
    report = EntanglementReport(("a", "b"), {}, ((split, verdict),))
    text = emit_report(report, "text").decode()
    assert f"[iterative]  iterations {verdict.iterations}\n" in text
    assert "iterations" not in emit_report(full_report(), "text").decode()


# -- the JSON writers against json.dumps -----------------------------------------
# The oracle: a report and the reference run's document as the dicts that
# json.dumps(doc, sort_keys=True, separators=(",", ":")) writes.

def _verdict_dict(verdict):
    return {
        "status": verdict.status.value,
        "witness": verdict.witness,
        "log_negativity": verdict.log_negativity,
        "method": verdict.method.value,
        "iterations": verdict.iterations,
    }


def report_to_dict(report):
    return {
        "register": list(report.tags),
        "pairwise": [
            {"modes": [report.tags[i], report.tags[j]], **_verdict_dict(v)}
            for (i, j), v in sorted(report.pairwise.items())
        ],
        "bipartitions": [
            {
                "side_a": [report.tags[k] for k in split.side_a],
                "side_b": [report.tags[k] for k in split.side_b],
                **_verdict_dict(v),
            }
            for split, v in report.bipartitions
        ],
    }


def reproduce_to_dict(outcome):
    result = outcome["result"]
    return {
        "comparisons": outcome["comparisons"],
        "diagnostics": [
            {
                "index": d.index,
                "step": d.step,
                "register": list(d.tags),
                "total_photons": d.total_photons,
                "purity": d.purity,
                "min_heisenberg_eigenvalue": d.min_heisenberg_eigenvalue,
            }
            for d in result.diagnostics
        ],
        "final_cov": outcome["final"].cov.tolist(),
        "final_register": list(outcome["final"].register.tags),
        "photons": outcome["photons"],
        "report": report_to_dict(result.report),
    }


def _json_dumps(doc):
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def _scan_report(state):
    return EntanglementReport(state.register.tags,
                              pairwise_entanglement_map(state).pairwise,
                              tuple(bipartition_scan(state)))


ODD_TAGS = ("é", '"', "\\", "\x07")

WRITER_REPORTS = {
    # its 2|2 splits are iterative verdicts, with an int count
    "iterative": lambda: _scan_report(fixtures.load_state_fixture("vacuum4")),
    # PPT verdicts only, with no count
    "ppt": lambda: pairwise_entanglement_map(make_standard_form(EXP)),
    # tags that JSON escapes
    "escaped": lambda: _scan_report(core.vacuum_state(ModeRegister(
        tuple(ModeLabel(p, 0, tag) for p, tag in zip("HVLR", ODD_TAGS))))),
}


@pytest.mark.parametrize("kind", sorted(WRITER_REPORTS))
def test_json_report_is_the_bytes_of_json_dumps(kind):
    report = WRITER_REPORTS[kind]()
    doc = report_to_dict(report)
    entries = doc["pairwise"] + doc["bipartitions"]
    counts = {type(e["iterations"]) for e in entries}
    assert counts == {"iterative": {int, type(None)}, "ppt": {type(None)},
                      "escaped": {int, type(None)}}[kind]
    for entry in entries:
        assert type(entry["status"]) is str and type(entry["method"]) is str
    blob = emit_report(report, "json")
    assert blob == _json_dumps(doc)
    if kind == "escaped":
        for escape in (rb'"\u00e9"', rb'"\""', rb'"\\"', rb'"\u0007"'):
            assert escape in blob


def test_unknown_report_format():
    with pytest.raises(ParseError):
        emit_report(full_report(), "yaml")


@pytest.mark.parametrize("format", ["json", "text"])
@pytest.mark.parametrize("report", [None, {"tags": ("a", "b")}, "report", 0],
                         ids=["None", "dict", "str", "int"])
def test_emit_report_of_a_non_report_is_a_parse_error(report, format):
    with pytest.raises(ParseError, match="needs an EntanglementReport"):
        emit_report(report, format)


# finite floats, with the extremes json and repr must agree on
FINITE = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([-0.0, 5e-324, 1e308, -1e308]))
# tags: non-ASCII letters, the characters JSON escapes, control characters
TAGS = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x07\x1f\x7f'),
               max_size=5)


@st.composite
def _verdicts(draw):
    return EntanglementVerdict(
        draw(st.sampled_from(Status)),
        draw(FINITE | FINITE.map(np.float64)),
        draw(FINITE),
        draw(st.sampled_from(Method)),
        draw(st.none() | st.integers()),
    )


@st.composite
def _reports(draw):
    tags = tuple(draw(st.lists(TAGS, min_size=2, max_size=4)))
    n = len(tags)
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                          unique=True))
    masks = draw(st.lists(st.integers(1, 2 ** n - 2), max_size=3))
    splits = [Bipartition([k for k in range(n) if mask >> k & 1],
                          [k for k in range(n) if not mask >> k & 1])
              for mask in masks]
    return EntanglementReport(tags, {pair: draw(_verdicts()) for pair in pairs},
                              tuple((split, draw(_verdicts())) for split in splits))


_LONE_SURROGATE = EntanglementReport(
    ("\ud800", "b\udfff"),
    {(0, 1): EntanglementVerdict(Status.SEPARABLE, 0.5, 0.0, Method.PPT)},
    ((Bipartition((0,), (1,)),
      EntanglementVerdict(Status.INCONCLUSIVE, np.float64(-0.0), 5e-324,
                          Method.ITERATIVE, 7)),),
)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(report=_reports())
@example(report=_LONE_SURROGATE)
def test_json_report_of_any_report_is_the_bytes_of_json_dumps(report):
    assert emit_report(report, "json") == _json_dumps(report_to_dict(report))


def test_non_finite_numbers_are_written_as_null():
    verdict = EntanglementVerdict(Status.INCONCLUSIVE, math.nan, math.inf, Method.PPT)
    report = EntanglementReport(
        ("a", "b"), {(0, 1): verdict},
        ((Bipartition((0,), (1,)), dataclasses.replace(verdict, witness=-math.inf)),))
    doc = json.loads(emit_report(report, "json"), parse_constant=_refuse_constant)
    for entry in doc["pairwise"] + doc["bipartitions"]:
        assert entry["witness"] is None and entry["log_negativity"] is None
        assert entry["status"] == "inconclusive"

    outcome = reproduce_paper()
    outcome["comparisons"] = {**outcome["comparisons"],
                              "max_abs_dev_vs_exact": math.inf,
                              "max_abs_dev_vs_printed_excl_typo": math.nan}
    outcome["photons"] = {"before": -math.inf, "after": 0.44}
    doc = json.loads(reproduce_paper_json(outcome), parse_constant=_refuse_constant)
    assert doc["comparisons"]["max_abs_dev_vs_exact"] is None
    assert doc["comparisons"]["max_abs_dev_vs_printed_excl_typo"] is None
    assert doc["photons"] == {"after": 0.44, "before": None}


def test_reproduce_json_is_the_bytes_of_json_dumps():
    outcome = reproduce_paper()
    assert reproduce_paper_json(outcome) == _json_dumps(reproduce_to_dict(outcome))
    # the same writer for numpy float64 values
    comp = outcome["comparisons"]
    outcome["comparisons"] = {
        **comp,
        "max_abs_dev_vs_exact": np.float64(comp["max_abs_dev_vs_exact"]),
        "max_abs_dev_vs_printed_excl_typo": np.float64(-0.0),
        "typo_cells": [{key: np.float64(value) if type(value) is float else value
                        for key, value in cell.items()} for cell in comp["typo_cells"]],
    }
    cell = outcome["comparisons"]["typo_cells"][0]
    assert type(cell["pipeline"]) is np.float64 and type(cell["cell"][0]) is int
    assert reproduce_paper_json(outcome) == _json_dumps(reproduce_to_dict(outcome))


# -- bundled reference run -------------------------------------------------------

def test_reproduce_run_comparisons_hold():
    outcome = reproduce_paper()
    comp = outcome["comparisons"]
    assert comp["exact_match_1e-12"]
    assert comp["printed_match_0.015"]
    cell = comp["typo_cells"][0]
    assert cell["cell"] == [3, 2]
    assert cell["abs_dev_from_corrected"] <= 1e-12
    assert outcome["photons"]["before"] == pytest.approx(0.44, abs=1e-12)
    assert outcome["photons"]["after"] == pytest.approx(0.44, abs=1e-12)


def test_reproduce_run_is_hermetic_and_fast():
    outcome = reproduce_paper()
    assert outcome["elapsed_seconds"] < 1.0


# sha256 of reproduce_paper_json and of the report's emit_report JSON
REPRODUCE_JSON_SHA256 = "50dce929f014db8a87bb1ecaf9db86fcf22896448b78a4300131f812642b8a52"
REPRODUCE_REPORT_JSON_SHA256 = (
    "dd3f88833d891b5834be74175e98136e9fab0bb7007e950ba43a306beb5bf45a")


def test_reproduce_outputs_keep_their_bytes():
    outcome = reproduce_paper()
    assert (hashlib.sha256(reproduce_paper_json(outcome)).hexdigest()
            == REPRODUCE_JSON_SHA256)
    report_json = emit_report(outcome["result"].report, "json")
    assert hashlib.sha256(report_json).hexdigest() == REPRODUCE_REPORT_JSON_SHA256
    lines = reproduce_paper_text(outcome).decode().splitlines()
    assert lines[-2] == "Entangled marginal pairs: a1-b1, a1-b2, a2-b1, a2-b2"


def test_reproduce_json_is_stable():
    one = reproduce_paper_json(reproduce_paper())
    two = reproduce_paper_json(reproduce_paper())
    assert one == two


@pytest.fixture
def fresh_fixture_cache():
    """The fixture reader's cache, empty at the start and the end of a test."""
    fixtures._read.cache_clear()
    yield
    fixtures._read.cache_clear()


def test_fixture_files_are_decoded_once_per_process(fresh_fixture_cache):
    # the benchmark's tracer wraps plain functions only
    assert inspect.isfunction(fixtures.load_state_fixture)
    assert inspect.isfunction(fixtures.load_matrix_fixture)
    cold = reproduce_paper_json(reproduce_paper())
    warm = [reproduce_paper_json(reproduce_paper()) for _ in range(2)]
    assert fixtures._read.cache_info().misses == 3
    for output in (cold, *warm):
        assert hashlib.sha256(output).hexdigest() == REPRODUCE_JSON_SHA256


def test_reproduce_paper_builds_its_qplate_transform_once(monkeypatch):
    # every transform build, by the constructor or the q-plate builder,
    # passes its matrix through the one symplectic check
    built = []
    check = transforms._frozen_symplectic
    monkeypatch.setattr(transforms, "_frozen_symplectic",
                        lambda mat: built.append(mat) or check(mat))
    transforms._qplate_transform.cache_clear()
    try:
        outputs = [reproduce_paper_json(reproduce_paper()) for _ in range(2)]
    finally:
        transforms._qplate_transform.cache_clear()
    assert [mat.shape for mat in built] == [(8, 8)]
    for output in outputs:
        assert hashlib.sha256(output).hexdigest() == REPRODUCE_JSON_SHA256


def test_changing_a_loaded_matrix_fixture_changes_no_later_load(fresh_fixture_cache):
    matrix, meta = fixtures.load_matrix_fixture("sigma4_printed")
    expected_matrix, expected_meta = matrix.copy(), json.dumps(meta, sort_keys=True)
    matrix[3, 2] = 7.0
    meta["typo_cells"].append([0, 0])
    meta["register"][0]["tag"] = "changed"
    again, again_meta = fixtures.load_matrix_fixture("sigma4_printed")
    assert np.array_equal(again, expected_matrix)
    assert json.dumps(again_meta, sort_keys=True) == expected_meta
    assert (hashlib.sha256(reproduce_paper_json(reproduce_paper())).hexdigest()
            == REPRODUCE_JSON_SHA256)


def _state_bits(state):
    # everything a loaded state carries, kept facts included, as exact bits
    return (state.register, state.mean.tobytes(), state.cov.tobytes(),
            validate(state), repr(state._facts))


@pytest.mark.parametrize("name", fixtures.STATE_FIXTURES)
def test_loaded_states_are_fresh_read_only_and_checked_once(name, fresh_fixture_cache):
    one, two = fixtures.load_state_fixture(name), fixtures.load_state_fixture(name)
    assert one is not two and one == two
    for state in (one, two):
        for array in (state.mean, state.cov):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
    assert validate(one) == validate(two)
    # the kept report and facts are those a state built from the file computes
    path = Path(fixtures.__file__).with_name(f"{name}.json")
    assert _state_bits(one) == _state_bits(load_state(path))
    fixtures._read.cache_clear()
    assert _state_bits(fixtures.load_state_fixture(name)) == _state_bits(two)
