"""Pipeline execution, report rendering, and the bundled reference run.

A pipeline config names a source (state file, standard-form parameters,
or a parametric-oscillator model), an ordered list of optical steps
(waveplate relabel, vacuum embedding, q-plate, reorder), and the analyses
to run on the final state.  Execution is deterministic; per-step
diagnostics record total photon number, purity, and the Heisenberg
eigenvalue floor so that physicality regressions are visible immediately.
"""

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fixtures
from .core import (
    GaussianState,
    StandardFormParams,
    ValidityReport,
    _measure,
    make_standard_form,
    reorder,
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
from .io import _compact_json, _number, _parse_register, load_state, read_json
from .transforms import (
    QPlateSpec,
    apply,
    embed_with_vacua,
    opo_source,
    qplate_transform,
    quarter_waveplate_relabel,
)

ANALYSES = ("validate", "pairwise", "scan", "purity", "photons")


def _source(source, where):
    """Parse a source object into a zero-argument callable building the state."""
    kind = source.get("kind") if isinstance(source, dict) else None
    if kind == "file":
        if not isinstance(source.get("path"), str):
            raise ParseError(f"{where}: file source needs 'path', a string")
        return partial(load_state, source["path"])
    if kind == "standard_form":
        params = [_number(source, k, where) for k in ("a", "b", "c1", "c2")]
        return partial(make_standard_form, StandardFormParams(*params))
    if kind == "opo":
        r = _number(source, "r", where)
        eta = _number(source, "eta", where) if "eta" in source else 1.0
        return partial(opo_source, r, eta)
    raise ParseError(
        f"{where}: needs a 'kind' of file|standard_form|opo, got {kind!r}"
    )


def _qplate(state, spec):
    return apply(qplate_transform(spec, state.register), state)


def _step(step, where):
    """Parse a step object into ``(op, run)``; ``run(state)`` is the next state."""
    op = step.get("op") if isinstance(step, dict) else None
    if op == "waveplate":
        return op, quarter_waveplate_relabel
    if op == "embed":
        register = _parse_register(step.get("modes"), f"{where}.modes")
        return op, partial(embed_with_vacua, vacuum_labels=register.modes)
    if op == "qplate":
        q, delta = _number(step, "q", where), _number(step, "delta", where)
        try:
            spec = QPlateSpec(q, delta)
        except ValueError as exc:  # 2q is not a nonzero integer
            raise ParseError(f"{where}: qplate: {exc}") from exc
        return op, partial(_qplate, spec=spec)
    if op == "reorder":
        order = step.get("order")
        if not isinstance(order, list) or not all(type(k) is int for k in order):
            raise ParseError(f"{where}: reorder needs 'order', a list of integers")
        return op, partial(reorder, permutation=tuple(order))
    raise ParseError(
        f"{where}.op must be one of waveplate|embed|qplate|reorder, got {op!r}"
    )


@dataclass(frozen=True)
class PipelineConfig:
    """A parsed pipeline config; :meth:`from_dict` reads the JSON shape.

    ``source`` is None or a zero-argument callable that builds the input
    state, ``steps`` holds ``(op, run)`` pairs where ``run(state)`` returns
    the next state, and ``analyses`` names entries of :data:`ANALYSES`.
    """

    source: object
    steps: tuple
    analyses: tuple

    @classmethod
    def from_dict(cls, data, where="config"):
        if not isinstance(data, dict):
            raise ParseError(f"{where}: top level must be an object")
        source = data.get("source")
        if source is not None:
            source = _source(source, f"{where}.source")
        steps, analyses = data.get("steps", []), data.get("analyses", [])
        if not isinstance(steps, list) or not isinstance(analyses, list):
            raise ParseError(f"{where}: 'steps' and 'analyses' must be lists")
        for name in analyses:
            if name not in ANALYSES:
                raise ParseError(
                    f"{where}.analyses: unknown analysis {name!r}; "
                    f"choose from {ANALYSES}"
                )
        return cls(
            source,
            tuple(_step(step, f"{where}.steps[{k}]") for k, step in enumerate(steps)),
            tuple(analyses),
        )

    @classmethod
    def from_file(cls, path):
        return cls.from_dict(read_json(path), where=str(path))


@dataclass(frozen=True)
class StepDiagnostics:
    index: int
    step: str
    tags: tuple
    total_photons: float
    purity: float
    validity: ValidityReport

    @property
    def min_heisenberg_eigenvalue(self):
        return self.validity.min_heisenberg_eigenvalue


@dataclass(frozen=True)
class PipelineResult:
    final_state: GaussianState
    report: EntanglementReport
    diagnostics: tuple
    analyses: dict


def _diag(index, name, state):
    return StepDiagnostics(index, name, state.register.tags, *state._facts,
                           validate(state))


def run_pipeline(config, state=None, band=THRESHOLD_BAND):
    """Execute a pipeline config; ``state`` overrides the config source.

    The first failing step, or the diagnostics of its output, aborts the
    run with its module error wrapped in :class:`PipelineStepError`
    carrying the step index (the source is step 0, where a ``ValueError``
    of the source model is wrapped too).  Identical configs produce
    identical results.

    The step outputs are measured in one pass after the steps, with one
    stacked Heisenberg floor per register size; the earliest failing
    index is still the one raised.
    """
    try:
        if state is None:
            if config.source is None:
                raise ParseError(
                    "pipeline has no source and no input state was given"
                )
            state = config.source()
        diagnostics = [_diag(0, "source", state)]
    except (CVModesError, ValueError) as exc:
        raise PipelineStepError(0, "source", exc) from exc
    outputs, failure = [], None
    for k, (op, run) in enumerate(config.steps, start=1):
        try:
            state = run(state)
        except CVModesError as exc:
            failure = PipelineStepError(k, op, exc)
            break
        outputs.append(state)
    _measure(outputs)
    for k, ((op, _), output) in enumerate(zip(config.steps, outputs), start=1):
        try:
            diagnostics.append(_diag(k, op, output))
        except CVModesError as exc:
            raise PipelineStepError(k, op, exc) from exc
    if failure is not None:
        raise failure from failure.cause

    last = diagnostics[-1]
    facts = {"validate": last.validity, "purity": last.purity,
             "photons": last.total_photons}
    analyses = {name: facts[name] for name in config.analyses if name in facts}
    pairwise = {}
    if "pairwise" in config.analyses:
        pairwise = pairwise_entanglement_map(state, band=band).pairwise
    bipartitions = ()
    if "scan" in config.analyses:
        bipartitions = tuple(bipartition_scan(state, band=band))
    report = EntanglementReport(state.register.tags, pairwise, bipartitions)
    return PipelineResult(state, report, tuple(diagnostics), analyses)


# The steps before the q-plate do not depend on the arguments of
# distribution_config, so they are parsed once.
_DISTRIBUTION_STEPS = PipelineConfig.from_dict({"steps": [
    {"op": "waveplate"},
    {"op": "embed", "modes": [
        {"tag": "a~", "polarization": "R", "oam": 1},
        {"tag": "b~", "polarization": "L", "oam": -1},
    ]},
    {"op": "reorder", "order": [0, 2, 1, 3]},
]}, where="distribution_config").steps


def distribution_config(source=None, delta=np.pi / 2.0, q=0.5,
                        analyses=("validate", "pairwise", "scan")):
    """Canonical four-mode distribution pipeline for an a[H,0], b[V,0] source.

    Waveplate to the circular basis, embed the two q-plate partner vacua,
    interleave signal/vacuum pairs, and apply the q-plate.  The output
    register reads (a1, a2, b1, b2).  ``source`` is a config source object.
    """
    tail = PipelineConfig.from_dict({
        "source": source,
        "steps": [{"op": "qplate", "delta": float(delta), "q": float(q)}],
        "analyses": list(analyses),
    }, where="distribution_config")
    return PipelineConfig(tail.source, _DISTRIBUTION_STEPS + tail.steps,
                          tail.analyses)


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
        return _compact_json(report_to_dict(report))
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

    elapsed = time.perf_counter() - t0
    return {
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
        "final_cov": outcome["final"].cov.tolist(),
        "final_register": list(outcome["final"].register.tags),
        "photons": outcome["photons"],
        "report": report_to_dict(result.report),
    }
    return _compact_json(doc)


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
        "-".join(result.report.tags[k] for k in pair)
        for pair, v in result.report.pairwise.items() if v.status is Status.ENTANGLED
    )
    lines.append(f"Entangled marginal pairs: {', '.join(entangled)}")
    lines.append(f"Elapsed: {outcome['elapsed_seconds'] * 1000.0:.1f} ms")
    lines.append("")
    return "\n".join(lines).encode("utf-8")
