import hashlib
import json
import math
import re

import numpy as np
import pytest

from cvmodes import (
    Bipartition,
    EntanglementReport,
    Method,
    StandardFormParams,
    Status,
    bipartition_scan,
    distribution_config,
    emit_report,
    iterative_separability,
    make_standard_form,
    pairwise_entanglement_map,
    reproduce_paper,
    run_pipeline,
    sigma4_closed_form,
    validate,
)
from cvmodes import core
from cvmodes.errors import (
    NonPositiveDeterminant,
    NumericalFailure,
    ParseError,
    PhysicalityViolation,
    PipelineStepError,
)
from cvmodes.pipeline import PipelineConfig, reproduce_paper_json, reproduce_paper_text

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


def test_reproduce_paper_computes_one_heisenberg_floor_per_state(monkeypatch):
    calls = []
    floor = core.min_heisenberg_eigenvalue
    monkeypatch.setattr(core, "min_heisenberg_eigenvalue",
                        lambda cov: calls.append(cov) or floor(cov))
    reproduce_paper()
    # the loaded source, then one stack of the outputs of embed, reorder and
    # q-plate; the waveplate relabel keeps its input's report
    assert [cov.shape for cov in calls] == [(4, 4), (3, 8, 8)]
    assert sum(len(cov) if cov.ndim == 3 else 1 for cov in calls) == 4


def test_relabel_step_keeps_its_input_facts(monkeypatch):
    calls = []
    for name in ("purity", "total_photon_number"):
        fact = getattr(core, name)
        monkeypatch.setattr(core, name,
                            lambda state, f=fact: calls.append(state) or f(state))
    result = run_pipeline(distribution_config(source=EXP_SOURCE))
    source, waveplate = result.diagnostics[:2]
    assert (waveplate.total_photons, waveplate.purity, waveplate.validity) == (
        source.total_photons, source.purity, source.validity)
    # two facts for each of the four states with their own arrays
    assert len(calls) == 8


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

    purity = core.purity

    def failing_purity(state):
        if state.n_modes == 4:
            raise NonPositiveDeterminant("embed output")
        return purity(state)

    monkeypatch.setattr(core, "purity", failing_purity)
    with pytest.raises(PipelineStepError) as err:
        run_pipeline(config)
    assert (err.value.step_index, err.value.step_name) == (2, "embed")
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


def test_unknown_report_format():
    with pytest.raises(ParseError):
        emit_report(full_report(), "yaml")


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
