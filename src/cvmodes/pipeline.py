"""Pipeline execution, report rendering, and the bundled reference run.

A pipeline config names a source (state file, standard-form parameters,
or a parametric-oscillator model), an ordered list of optical steps
(waveplate relabel, vacuum embedding, q-plate, reorder), and the analyses
to run on the final state.  Execution is deterministic; per-step
diagnostics record total photon number, purity, and the Heisenberg
eigenvalue floor so that physicality regressions are visible immediately.
"""

import json
import time
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .core import (
    GaussianState,
    ModeLabel,
    StandardFormParams,
    make_standard_form,
    purity,
    reorder,
    total_photon_number,
    validate,
)
from .entanglement import (
    THRESHOLD_BAND,
    EntanglementReport,
    Status,
    bipartition_scan,
    pairwise_entanglement_map,
)
from .errors import CVModesError, ParseError, PipelineStepError
from .io import load_state
from .transforms import (
    QPlateSpec,
    apply,
    embed_with_vacua,
    opo_source,
    qplate_transform,
    quarter_waveplate_relabel,
)

ANALYSES = ("validate", "pairwise", "scan", "purity", "photons")
STEP_OPS = ("waveplate", "embed", "qplate", "reorder")


_INTEGER = (int, np.integer)
_REAL = (int, float, np.integer, np.floating)


def _is_number(value, kind=_REAL):
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_step_fields(step, where):
    op = step["op"]
    if op == "qplate":
        for name in ("q", "delta"):
            if not _is_number(step.get(name)):
                raise ParseError(f"{where}: qplate needs a number {name!r}")
    elif op == "embed":
        modes = step.get("modes")
        if not isinstance(modes, list) or not all(
            isinstance(m, dict) and {"polarization", "oam", "tag"} <= m.keys()
            for m in modes
        ):
            raise ParseError(
                f"{where}: embed needs 'modes', a list of objects with "
                "polarization, oam and tag"
            )
    elif op == "reorder":
        order = step.get("order")
        if not isinstance(order, list) or not all(
            _is_number(k, _INTEGER) for k in order
        ):
            raise ParseError(f"{where}: reorder needs 'order', a list of integers")


@dataclass(frozen=True)
class PipelineConfig:
    source: dict
    steps: tuple
    analyses: tuple

    @classmethod
    def from_dict(cls, data, where="config"):
        if not isinstance(data, dict):
            raise ParseError(f"{where}: top level must be an object")
        source = data.get("source")
        if source is not None:
            if not isinstance(source, dict) or "kind" not in source:
                raise ParseError(f"{where}.source: needs a 'kind' field")
            if source["kind"] not in ("file", "standard_form", "opo"):
                raise ParseError(
                    f"{where}.source.kind must be file|standard_form|opo, "
                    f"got {source['kind']!r}"
                )
        steps = []
        for k, step in enumerate(data.get("steps", [])):
            if not isinstance(step, dict) or "op" not in step:
                raise ParseError(f"{where}.steps[{k}]: needs an 'op' field")
            if step["op"] not in STEP_OPS:
                raise ParseError(
                    f"{where}.steps[{k}].op must be one of {STEP_OPS}, "
                    f"got {step['op']!r}"
                )
            _check_step_fields(step, f"{where}.steps[{k}]")
            steps.append(dict(step))
        analyses = []
        for name in data.get("analyses", []):
            if name not in ANALYSES:
                raise ParseError(
                    f"{where}.analyses: unknown analysis {name!r}; "
                    f"choose from {ANALYSES}"
                )
            analyses.append(name)
        return cls(source, tuple(steps), tuple(analyses))

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
                ) from exc
        return cls.from_dict(data, where=str(path))


@dataclass(frozen=True)
class StepDiagnostics:
    index: int
    step: str
    tags: tuple
    total_photons: float
    purity: float
    min_heisenberg_eigenvalue: float


@dataclass(frozen=True)
class PipelineResult:
    final_state: GaussianState
    report: EntanglementReport
    diagnostics: tuple
    analyses: dict


def _build_source(source):
    if source is None:
        raise ParseError("pipeline has no source and no input state was given")
    kind = source["kind"]
    if kind == "file":
        return load_state(source["path"])
    if kind == "standard_form":
        p = StandardFormParams(
            float(source["a"]), float(source["b"]),
            float(source["c1"]), float(source["c2"]),
        )
        return make_standard_form(p)
    # kind == "opo"
    return opo_source(float(source["r"]), float(source.get("eta", 1.0)))


def _run_step(step, state):
    op = step["op"]
    if op == "waveplate":
        return quarter_waveplate_relabel(state)
    if op == "embed":
        labels = tuple(
            ModeLabel(m["polarization"], int(m["oam"]), m["tag"])
            for m in step["modes"]
        )
        return embed_with_vacua(state, labels)
    if op == "qplate":
        spec = QPlateSpec(float(step["q"]), float(step["delta"]))
        return apply(qplate_transform(spec, state.register), state)
    # op == "reorder"
    return reorder(state, step["order"])


def _diag(index, name, state):
    report = validate(state)
    return StepDiagnostics(
        index=index,
        step=name,
        tags=state.register.tags,
        total_photons=total_photon_number(state),
        purity=purity(state),
        min_heisenberg_eigenvalue=report.min_heisenberg_eigenvalue,
    )


def run_pipeline(config, state=None, band=THRESHOLD_BAND):
    """Execute a pipeline config; ``state`` overrides the config source.

    The first failing step aborts the run with its module error wrapped
    in :class:`PipelineStepError` carrying the step index (the source is
    step 0).  Identical configs produce identical results.
    """
    if state is None:
        try:
            state = _build_source(config.source)
        except CVModesError as exc:
            raise PipelineStepError(0, "source", exc) from exc
    diagnostics = [_diag(0, "source", state)]
    for k, step in enumerate(config.steps, start=1):
        try:
            state = _run_step(step, state)
        except CVModesError as exc:
            raise PipelineStepError(k, step["op"], exc) from exc
        diagnostics.append(_diag(k, step["op"], state))

    analyses = {}
    pairwise = {}
    bipartitions = ()
    for name in config.analyses:
        if name == "validate":
            analyses["validate"] = validate(state)
        elif name == "purity":
            analyses["purity"] = purity(state)
        elif name == "photons":
            analyses["photons"] = total_photon_number(state)
        elif name == "pairwise":
            pairwise = pairwise_entanglement_map(state, band=band).pairwise
        elif name == "scan":
            bipartitions = tuple(bipartition_scan(state, band=band))
    report = EntanglementReport(state.register.tags, pairwise, bipartitions)
    return PipelineResult(state, report, tuple(diagnostics), analyses)


def distribution_config(source=None, delta=np.pi / 2.0, q=0.5,
                        analyses=("validate", "pairwise", "scan")):
    """Canonical four-mode distribution pipeline for an a[H,0], b[V,0] source.

    Waveplate to the circular basis, embed the two q-plate partner vacua,
    interleave signal/vacuum pairs, and apply the q-plate.  The output
    register reads (a1, a2, b1, b2).
    """
    return PipelineConfig(
        source=source,
        steps=(
            {"op": "waveplate"},
            {"op": "embed", "modes": [
                {"tag": "a~", "polarization": "R", "oam": 1},
                {"tag": "b~", "polarization": "L", "oam": -1},
            ]},
            {"op": "reorder", "order": [0, 2, 1, 3]},
            {"op": "qplate", "delta": float(delta), "q": float(q)},
        ),
        analyses=tuple(analyses),
    )


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _fmt(value):
    # 4 significant figures, trailing zeros kept (0.21 -> "0.2100")
    return f"{value:#.4g}"


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


def _render_text(report):
    lines = []
    tags = report.tags
    if report.pairwise:
        n = len(tags)
        width = max(6, max(len(t) for t in tags) + 2)
        lines.append("Pairwise entanglement (two-mode marginals):")
        header = " " * width + "".join(t.rjust(width) for t in tags)
        lines.append(header)
        for i in range(n):
            cells = []
            for j in range(n):
                if i == j:
                    cells.append("-".rjust(width))
                else:
                    v = report.pair(i, j)
                    mark = {"entangled": "E", "separable": "S",
                            "inconclusive": "?"}[v.status.value]
                    cells.append(mark.rjust(width))
            lines.append(tags[i].ljust(width) + "".join(cells))
        lines.append("")
        lines.append(f"{'pair':<12}{'status':<14}{'witness':>10}"
                     f"{'log-neg':>10}")
        for (i, j), v in sorted(report.pairwise.items()):
            lines.append(
                f"{tags[i] + ',' + tags[j]:<12}{v.status.value:<14}"
                f"{_fmt(v.witness):>10}{_fmt(v.log_negativity):>10}"
            )
        lines.append("")
    if report.bipartitions:
        lines.append("Bipartitions of the full register:")
        for split, v in report.bipartitions:
            left = ",".join(tags[k] for k in split.side_a)
            right = ",".join(tags[k] for k in split.side_b)
            extra = ""
            if v.iterations is not None:
                extra = f"  iterations {v.iterations}"
            lines.append(
                f"  {left} | {right:<18} {v.status.value:<14}"
                f"witness {_fmt(v.witness)}  log-neg "
                f"{_fmt(v.log_negativity)}  [{v.method.value}]{extra}"
            )
        lines.append("")
    if not report.pairwise and not report.bipartitions:
        lines.append("(empty report)")
        lines.append("")
    return "\n".join(lines)


def emit_report(report, format="text"):
    """Render an entanglement report as bytes.

    ``text`` shows the pairwise table and the bipartition list with
    witnesses to 4 significant figures.  ``json`` is schema-stable with
    sorted keys and full float precision, byte-identical across runs for
    identical inputs.
    """
    if format == "json":
        payload = json.dumps(report_to_dict(report), sort_keys=True,
                             separators=(",", ":"))
        return (payload + "\n").encode("utf-8")
    if format == "text":
        return _render_text(report).encode("utf-8")
    raise ParseError(f"unknown report format {format!r}")


# ---------------------------------------------------------------------------
# bundled reference run
# ---------------------------------------------------------------------------

def reproduce_paper(band=THRESHOLD_BAND):
    """Run the bundled source matrix through the distribution pipeline.

    Hermetic: fixture inputs only.  Returns a dict with the final
    covariance, per-step diagnostics, comparisons against the exact
    closed form and the published two-decimal matrix (the annotated typo
    cell is excluded there and reported separately), and the verdict set.
    """
    t0 = time.perf_counter()
    source = fixtures.load_state_fixture("sigma2_exp")
    config = distribution_config(analyses=("validate", "pairwise", "scan"))
    result = run_pipeline(config, state=source, band=band)
    final = result.final_state

    exact, _ = fixtures.load_matrix_fixture("sigma4_exact")
    printed, meta = fixtures.load_matrix_fixture("sigma4_printed")
    typo_cells = [tuple(c) for c in meta["typo_cells"]]
    corrected = float(meta["typo_corrected_value"])

    dev_exact = float(np.abs(final.cov - exact).max())
    mask = np.ones_like(printed, dtype=bool)
    for r, c in typo_cells:
        mask[r, c] = False
    dev_printed = float(np.abs(final.cov - printed)[mask].max())
    typo_report = [
        {
            "cell": [r, c],
            "published": float(printed[r, c]),
            "corrected": corrected,
            "pipeline": float(final.cov[r, c]),
            "abs_dev_from_corrected": float(abs(final.cov[r, c] - corrected)),
        }
        for r, c in typo_cells
    ]

    pairs = {
        (result.report.tags[i], result.report.tags[j]): v.status.value
        for (i, j), v in result.report.pairwise.items()
    }
    elapsed = time.perf_counter() - t0
    return {
        "source_tags": source.register.tags,
        "final": final,
        "result": result,
        "comparisons": {
            "max_abs_dev_vs_exact": dev_exact,
            "exact_match_1e-12": dev_exact <= 1e-12,
            "max_abs_dev_vs_printed_excl_typo": dev_printed,
            "printed_match_0.015": dev_printed <= 0.015,
            "typo_cells": typo_report,
        },
        "photons": {
            "before": result.diagnostics[0].total_photons,
            "after": result.diagnostics[-1].total_photons,
        },
        "pair_statuses": pairs,
        "elapsed_seconds": elapsed,
    }


def reproduce_paper_json(outcome):
    """Deterministic JSON rendering of a :func:`reproduce_paper` outcome."""
    result = outcome["result"]
    doc = {
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
        "final_cov": [list(row) for row in outcome["final"].cov],
        "final_register": list(outcome["final"].register.tags),
        "photons": outcome["photons"],
        "report": report_to_dict(result.report),
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def reproduce_paper_text(outcome):
    """Human-readable rendering of a :func:`reproduce_paper` outcome."""
    result = outcome["result"]
    final = outcome["final"]
    comp = outcome["comparisons"]
    lines = []
    lines.append("Distribution of two-mode entanglement over four modes")
    lines.append("=" * 56)
    lines.append("")
    lines.append("Steps (register | total photons | purity | min Heisenberg eig):")
    for d in result.diagnostics:
        lines.append(
            f"  {d.index}. {d.step:<10} {','.join(d.tags):<16} "
            f"n={d.total_photons:.6f}  mu={d.purity:.6f}  "
            f"min_eig={d.min_heisenberg_eigenvalue:+.3e}"
        )
    lines.append("")
    lines.append("Final covariance matrix (register "
                 f"{','.join(final.register.tags)}):")
    for row in final.cov:
        lines.append("  " + "  ".join(f"{v:+.4f}" for v in row))
    lines.append("")
    lines.append("Comparison with the exact closed form: max abs dev "
                 f"{comp['max_abs_dev_vs_exact']:.3e} "
                 f"(<= 1e-12: {comp['exact_match_1e-12']})")
    lines.append("Comparison with the published two-decimal matrix "
                 "(typo cell excluded): max abs dev "
                 f"{comp['max_abs_dev_vs_printed_excl_typo']:.4f} "
                 f"(<= 0.015: {comp['printed_match_0.015']})")
    for cell in comp["typo_cells"]:
        lines.append(
            f"  annotated typo cell {cell['cell']}: published "
            f"{cell['published']:.2f}, corrected {cell['corrected']:.2f}, "
            f"pipeline {cell['pipeline']:.2e}"
        )
    lines.append("")
    lines.append(
        f"Total photons: before {outcome['photons']['before']:.6f}, "
        f"after {outcome['photons']['after']:.6f}"
    )
    lines.append("")
    lines.append(_render_text(result.report))
    entangled = sorted(
        f"{i}-{j}" for (i, j), s in outcome["pair_statuses"].items()
        if s == Status.ENTANGLED.value
    )
    lines.append(f"Entangled marginal pairs: {', '.join(entangled)}")
    lines.append(f"Elapsed: {outcome['elapsed_seconds'] * 1000.0:.1f} ms")
    lines.append("")
    return "\n".join(lines).encode("utf-8")
