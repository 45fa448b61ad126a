"""The input contract of every callable that ``cvmodes`` exports, on one corpus.

Each argument of each export is fed the 11 values of CORPUS, with valid
values for the other arguments, and must give its documented outcome: the
error class that its docstring or the ``cvmodes.errors`` docstring names,
or OK where the value is accepted.  RAISES marks an out-of-contract argument
whose error is numpy's or Python's own, so only that some exception is
raised is required.  An export or an argument without a row fails.
"""

import enum
import inspect
import math

import numpy as np
import pytest

import cvmodes
from cvmodes import (
    Bipartition,
    Method,
    ModeLabel,
    QPlateSpec,
    StandardFormParams,
    Status,
    distribution_config,
    identity_transform,
    log_negativity_from_spectrum,
    make_standard_form,
    pairwise_entanglement_map,
    run_pipeline,
    save_state,
    two_mode_register,
)
from cvmodes.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonSymplectic,
    NotAPermutation,
    NumericalFailure,
    ParseError,
    PhysicalityViolation,
    PipelineStepError,
    RegisterMismatch,
)

CORPUS = {
    "None": None, "True": True, "'0.5'": "0.5", "1j": 1j, "nan": math.nan,
    "inf": math.inf, "10**400": 10 ** 400, "[]": [], "{}": {},
    "array(True)": np.array(True), "object()": object(),
}
OK = "returns"
RAISES = Exception

EXP = StandardFormParams(0.72, 0.72, 0.51, -0.51)
REGISTER = two_mode_register()
SOURCE = make_standard_form(EXP)
DISTRIBUTED = run_pipeline(distribution_config(), state=SOURCE).final_state
SPLIT = Bipartition((0, 1), (2, 3))
SPEC = QPlateSpec(0.5, 1.0)

RECORD = OK  # a record stores any value unchecked
FLAG = OK  # a flag is read for its truth
NOT_A_STATE = AttributeError  # a non-state where a GaussianState is expected
BAND = ParseError
NON_FINITE_OK = {"nan": OK, "inf": OK}
EMPTY_OK = {"[]": OK, "{}": OK}

# export: (valid arguments, {argument: error class | (error class, {corpus key: outcome})})
ROWS = {
    "Bipartition": (dict(side_a=(0,), side_b=(1,)),
                    {"side_a": IndexOutOfRange, "side_b": IndexOutOfRange}),
    "EntanglementReport": (dict(tags=("a", "b"), pairwise={}, bipartitions=()),
                           {"tags": RECORD, "pairwise": RECORD, "bipartitions": RECORD}),
    "EntanglementVerdict": (
        dict(status=Status.SEPARABLE, witness=0.6, log_negativity=0.0, method=Method.PPT,
             iterations=None),
        {"status": RECORD, "witness": RECORD, "log_negativity": RECORD, "method": RECORD,
         "iterations": RECORD}),
    "GaussianState": (dict(register=REGISTER, mean=np.zeros(4), cov=0.5 * np.eye(4)),
                      {"register": RegisterMismatch, "mean": DimensionMismatch,
                       "cov": DimensionMismatch}),
    "Method": (dict(value="ppt"), {"value": ValueError}),
    "ModeLabel": (dict(polarization="H", oam=0, tag="a"),
                  {"polarization": ValueError, "oam": (ValueError, {"10**400": OK}),
                   "tag": (ValueError, {"'0.5'": OK})}),
    # an empty register is a ValueError
    "ModeRegister": (dict(modes=(ModeLabel("H", 0, "a"),)),
                     {"modes": (RegisterMismatch, {"[]": ValueError, "{}": ValueError})}),
    "PipelineConfig": (dict(source=None, steps=(), analyses=()),
                       {"source": RECORD, "steps": RECORD, "analyses": RECORD}),
    "PipelineResult": (
        dict(final_state=SOURCE, report=pairwise_entanglement_map(SOURCE), diagnostics=(),
             analyses={}),
        {"final_state": RECORD, "report": RECORD, "diagnostics": RECORD,
         "analyses": RECORD}),
    # a non-finite delta is stored as NaN
    "QPlateSpec": (dict(q=0.5, delta=1.0),
                   {"q": ValueError, "delta": (ValueError, NON_FINITE_OK)}),
    "StandardFormParams": (dict(a=0.72, b=0.72, c1=0.51, c2=-0.51),
                           {"a": RECORD, "b": RECORD, "c1": RECORD, "c2": RECORD}),
    "Status": (dict(value="separable"), {"value": ValueError}),
    # a wrong shape or a non-finite entry is NonSymplectic
    "SymplecticTransform": (
        dict(matrix=np.eye(4), input_register=REGISTER, output_register=REGISTER),
        {"matrix": (DimensionMismatch, {"nan": NonSymplectic, "inf": NonSymplectic,
                                        "[]": NonSymplectic}),
         "input_register": RegisterMismatch, "output_register": RegisterMismatch}),
    "ValidityReport": (dict(symmetric=True, physical=True, min_heisenberg_eigenvalue=0.5),
                       {"symmetric": RECORD, "physical": RECORD,
                        "min_heisenberg_eigenvalue": RECORD}),
    "apply": (dict(transform=identity_transform(REGISTER), state=SOURCE),
              {"transform": AttributeError, "state": NOT_A_STATE}),
    "bipartition_scan": (dict(state=DISTRIBUTED, band=1e-9),
                         {"state": NOT_A_STATE, "band": BAND}),
    "distribution_config": (
        dict(source=None, delta=1.0, q=0.5, analyses=("validate",)),
        {"source": (ParseError, {"None": OK}), "delta": (ParseError, NON_FINITE_OK),
         "q": ParseError, "analyses": (ParseError, EMPTY_OK)}),
    "embed_with_vacua": (dict(state=SOURCE, vacuum_labels=(ModeLabel("H", 1, "c"),)),
                         {"state": NOT_A_STATE,
                          "vacuum_labels": (RegisterMismatch, EMPTY_OK)}),
    "emit_report": (dict(report=pairwise_entanglement_map(SOURCE), format="text"),
                    {"report": ParseError, "format": ParseError}),
    "identity_transform": (dict(register=REGISTER), {"register": RegisterMismatch}),
    "iterative_separability": (dict(state=DISTRIBUTED, bipartition=SPLIT, band=1e-9),
                               {"state": NOT_A_STATE, "bipartition": AttributeError,
                                "band": BAND}),
    # a missing file is an OSError; a register of the wrong length a ParseError
    "load_cov_csv": (
        dict(path="state.csv", register=REGISTER, require_physical=True),
        {"path": (ParseError, {"'0.5'": FileNotFoundError}),
         "register": (TypeError, {"'0.5'": ParseError, "[]": ParseError, "{}": ParseError}),
         "require_physical": FLAG}),
    "load_state": (dict(path="state.json", require_physical=True, rescale=False),
                   {"path": (ParseError, {"'0.5'": FileNotFoundError}),
                    "require_physical": FLAG, "rescale": FLAG}),
    # a NaN entry gives NaN; an empty spectrum 0
    "log_negativity_from_spectrum": (
        dict(nu_tilde=[0.3, 0.7]),
        {"nu_tilde": (DimensionMismatch, {**NON_FINITE_OK, "[]": OK})}),
    "make_standard_form": (dict(params=EXP, register=REGISTER),
                           {"params": AttributeError,
                            "register": (RegisterMismatch, {"None": OK})}),
    "mean_photon_number": (dict(state=SOURCE, mode_index=0),
                           {"state": NOT_A_STATE, "mode_index": IndexOutOfRange}),
    "min_heisenberg_eigenvalue": (dict(cov=0.5 * np.eye(4)), {"cov": RAISES}),
    # a non-finite r gives non-finite standard-form entries
    "opo_source": (dict(r=0.5, eta=1.0),
                   {"r": (ValueError, {"nan": PhysicalityViolation,
                                       "inf": PhysicalityViolation}),
                    "eta": ValueError}),
    "pairwise_entanglement_map": (dict(state=DISTRIBUTED, band=1e-9),
                                  {"state": NOT_A_STATE, "band": BAND}),
    "partial_transpose": (dict(state=SOURCE, side_b=(1,)),
                          {"state": NOT_A_STATE, "side_b": IndexOutOfRange}),
    "phase_rotation": (dict(register=REGISTER, angles=[0.1, 0.2]),
                       {"register": RegisterMismatch,
                        "angles": (DimensionMismatch, {"nan": NonSymplectic,
                                                       "inf": NonSymplectic})}),
    "ppt_verdict": (dict(state=DISTRIBUTED, bipartition=SPLIT, band=1e-9),
                    {"state": NOT_A_STATE, "bipartition": AttributeError, "band": BAND}),
    "purity": (dict(state=SOURCE), {"state": NOT_A_STATE}),
    "qplate_pairing": (dict(spec=SPEC, register=DISTRIBUTED.register),
                       {"spec": AttributeError, "register": RegisterMismatch}),
    # an unhashable spec fails the transform cache's lookup
    "qplate_transform": (
        dict(spec=SPEC, register=DISTRIBUTED.register),
        {"spec": (AttributeError, {"[]": TypeError, "{}": TypeError,
                                   "array(True)": TypeError}),
         "register": RegisterMismatch}),
    "quarter_waveplate_relabel": (dict(state=SOURCE), {"state": NOT_A_STATE}),
    "reduce": (dict(state=SOURCE, subset=[0]),
               {"state": NOT_A_STATE, "subset": IndexOutOfRange}),
    "reorder": (dict(state=SOURCE, permutation=[1, 0]),
                {"state": NOT_A_STATE,
                 "permutation": (IndexOutOfRange, {"[]": NotAPermutation,
                                                   "{}": NotAPermutation})}),
    "reproduce_paper": (dict(band=1e-9), {"band": BAND}),
    # a config without a source and no state fails at step 0
    "run_pipeline": (dict(config=distribution_config(), state=SOURCE, band=1e-9),
                     {"config": AttributeError,
                      "state": (NOT_A_STATE, {"None": PipelineStepError}),
                      "band": BAND}),
    "save_state": (dict(state=SOURCE, path="out.json"),
                   {"state": NOT_A_STATE, "path": (ParseError, {"'0.5'": OK})}),
    "sigma4_closed_form": (dict(params=EXP, sn=0.5),
                           {"params": AttributeError,
                            "sn": (RAISES, {"True": OK, **NON_FINITE_OK,
                                            "array(True)": OK})}),
    "standard_form_matrix": (dict(params=EXP), {"params": AttributeError}),
    # an empty array is no even-square matrix
    "symplectic_eigenvalues": (
        dict(sigma=0.5 * np.eye(4)),
        {"sigma": (DimensionMismatch, {"nan": NumericalFailure, "inf": NumericalFailure,
                                       "[]": NumericalFailure})}),
    # True is the int 1
    "symplectic_form": (dict(n=2), {"n": (RAISES, {"True": OK})}),
    "total_photon_number": (dict(state=SOURCE), {"state": NOT_A_STATE}),
    "two_mode_register": (dict(), {}),
    "vacuum_state": (dict(register=REGISTER), {"register": RegisterMismatch}),
    "validate": (dict(state=SOURCE), {"state": NOT_A_STATE}),
}


def _parameters(export):
    if isinstance(export, enum.EnumMeta):
        return ["value"]
    return list(inspect.signature(export).parameters)


def test_every_export_and_argument_has_a_row():
    exports = sorted(name for name, obj in vars(cvmodes).items()
                     if not name.startswith("_") and callable(obj)
                     and not inspect.ismodule(obj))
    assert exports == sorted(ROWS)
    for name in exports:
        good, outcomes = ROWS[name]
        parameters = _parameters(getattr(cvmodes, name))
        assert list(good) == parameters == list(outcomes), name


def _outcome(call, arguments):
    try:
        call(**arguments)
    except Exception as exc:
        return type(exc)
    return OK


@pytest.mark.parametrize("name", sorted(ROWS))
def test_every_argument_gives_its_documented_outcome(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_state(SOURCE, "state.json")
    with open("state.csv", "w", encoding="utf-8") as handle:
        handle.write("\n".join(",".join(map(repr, row)) for row in SOURCE.cov.tolist()))
    call = getattr(cvmodes, name)
    good, outcomes = ROWS[name]
    assert _outcome(call, good) is OK
    for argument, outcome in outcomes.items():
        default, others = outcome if isinstance(outcome, tuple) else (outcome, {})
        for key, value in CORPUS.items():
            want = others.get(key, default)
            got = _outcome(call, dict(good, **{argument: value}))
            assert got is want or (want is RAISES and got is not OK), (argument, key, got)


@pytest.mark.parametrize("entry, check", [(0.0, lambda x: x == math.inf),
                                          (-1.0, math.isnan)])
def test_a_spectrum_entry_of_zero_or_below_warns(entry, check):
    # out of contract: a symplectic eigenvalue is positive
    with pytest.warns(RuntimeWarning):
        assert check(log_negativity_from_spectrum([0.7, entry]))
