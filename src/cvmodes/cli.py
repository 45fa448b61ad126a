"""Command-line interface.

Subcommands: ``validate``, ``transform``, ``analyze``, ``reproduce-paper``.
A failure prints one ``error:`` line and exits with the ``exit_code`` its
:class:`~cvmodes.errors.CVModesError` class carries: 2 parse/validation
error, 3 pipeline step error, 4 numerical failure.  A file that cannot
be opened, read or written (missing, a directory) also exits 2.
Analysis verdicts are data and never affect the exit code.
"""

import argparse
import functools
import sys

from .core import validate
from .entanglement import THRESHOLD_BAND, _check_band
from .errors import CVModesError, ParseError
from .io import (
    _json_scalar,
    _json_str,
    _state_text,
    load_cov_csv,
    load_state,
    parse_register_spec,
    save_state,
)
from .pipeline import (
    PipelineConfig,
    emit_report,
    reproduce_paper,
    reproduce_paper_json,
    reproduce_paper_text,
    run_pipeline,
)

EXIT_OK = 0


def _load_input(args, require_physical=True):
    if args.file.endswith(".csv"):
        if not args.register:
            raise ParseError(
                "CSV input carries the covariance matrix only; pass the "
                "register via --register tag:pol:oam,..."
            )
        register = parse_register_spec(args.register)
        return load_cov_csv(args.file, register,
                            require_physical=require_physical)
    return load_state(args.file, require_physical=require_physical,
                      rescale=args.rescale)


def _cmd_validate(args):
    state = _load_input(args, require_physical=False)
    report = validate(state)
    if args.format == "json":
        # json.dumps(doc, sort_keys=True) of the report and the tags
        sys.stdout.write(
            f'{{"min_heisenberg_eigenvalue": '
            f'{_json_scalar(report.min_heisenberg_eigenvalue)}, '
            f'"physical": {_json_scalar(report.physical)}, '
            f'"register": [{", ".join(map(_json_str, state.register.tags))}], '
            f'"symmetric": {_json_scalar(report.symmetric)}}}\n'
        )
    else:
        sys.stdout.write(
            f"register: {', '.join(str(m) for m in state.register)}\n"
            f"symmetric: {report.symmetric}\n"
            f"physical: {report.physical}\n"
            f"min Heisenberg eigenvalue: "
            f"{report.min_heisenberg_eigenvalue:+.6e}\n"
        )
    return EXIT_OK


def _cmd_transform(args):
    state = _load_input(args)
    config = PipelineConfig.from_file(args.config)
    result = run_pipeline(config, state=state, band=args.tol)
    if args.output:
        save_state(result.final_state, args.output)
    else:
        sys.stdout.write(_state_text(result.final_state))
    for d in result.diagnostics:
        sys.stderr.write(
            f"step {d.index} {d.step}: n={d.total_photons:.6f} "
            f"mu={d.purity:.6f} min_eig={d.min_heisenberg_eigenvalue:+.3e}\n"
        )
    return EXIT_OK


def _cmd_analyze(args):
    state = _load_input(args)
    analyses = []
    if args.pairs or not (args.pairs or args.scan):
        analyses.append("pairwise")
    if args.scan or not (args.pairs or args.scan):
        analyses.append("scan")
    config = PipelineConfig(source=None, steps=(), analyses=tuple(analyses))
    result = run_pipeline(config, state=state, band=args.tol)
    sys.stdout.buffer.write(emit_report(result.report, format=args.format))
    if args.format == "text":
        d = result.diagnostics[0]
        sys.stdout.write(
            f"purity: {d.purity:.6f}   total photons: {d.total_photons:.6f}\n"
        )
    return EXIT_OK


def _cmd_reproduce(args):
    outcome = reproduce_paper(band=args.tol)
    json_out = args.json or args.format == "json"
    render = reproduce_paper_json if json_out else reproduce_paper_text
    sys.stdout.buffer.write(render(outcome))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cvmodes",
        description="Gaussian covariance-matrix toolkit: q-plate "
                    "entanglement distribution and separability analysis.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--tol", type=float, default=THRESHOLD_BAND,
                        help="one-sided witness tolerance band below the "
                             "shot-noise unit, finite and in [0, 1/2) "
                             "(default: 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    state_file = argparse.ArgumentParser(add_help=False)
    state_file.add_argument("file")
    state_file.add_argument("--register", help="register spec for CSV input "
                                               "(tag:pol:oam,...)")
    state_file.add_argument("--rescale", action="store_true",
                            help="accept files with sn != 1/2 by rescaling on load")

    p = sub.add_parser("validate", parents=[state_file], help="check a state file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("transform", parents=[state_file],
                       help="run pipeline steps on a state file")
    p.add_argument("--config", required=True, help="pipeline config (JSON)")
    p.add_argument("--output", help="write the final state here "
                                    "(default: stdout)")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("analyze", parents=[state_file],
                       help="entanglement analysis of a state file")
    p.add_argument("--pairs", action="store_true",
                   help="pairwise marginal verdicts")
    p.add_argument("--scan", action="store_true",
                   help="full-register bipartition scan")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("reproduce-paper",
                       help="run the bundled reference experiment "
                            "(hermetic, fixture inputs only)")
    p.add_argument("--json", action="store_true",
                   help="shorthand for --format json")
    p.set_defaults(func=_cmd_reproduce)
    return parser


# built on the first call of main, not at import, then reused
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _check_band(args.tol)
        return args.func(args)
    except (CVModesError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "exit_code", CVModesError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
