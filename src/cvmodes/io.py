"""On-disk formats: state files (JSON) and bare covariance matrices (CSV).

The canonical convention is pinned in the file header: shot noise 1/2 and
interleaved quadrature ordering.  Files declaring a different shot-noise
unit are rejected unless the caller explicitly asks for a rescale; any
other ordering is rejected outright.  Floats are written with full repr
precision, so save -> load round-trips are bit-exact.
"""

import csv
import json
import math
from numbers import Real

import numpy as np

from .core import (
    SHOT_NOISE,
    GaussianState,
    ModeLabel,
    ModeRegister,
    _require_physical,
)
from .errors import (
    ConventionMismatch,
    DimensionMismatch,
    DuplicateLabel,
    ParseError,
    PhysicalityViolation,
)

ORDERING = "interleaved"


def state_to_dict(state):
    return {
        "convention": {"sn": SHOT_NOISE, "ordering": ORDERING},
        "register": [
            {"tag": m.tag, "polarization": m.polarization, "oam": m.oam}
            for m in state.register
        ],
        "mean": state.mean.tolist(),
        "cov": state.cov.tolist(),
    }


def _state_text(state):
    """A state file's text: :func:`state_to_dict` as indented JSON."""
    return json.dumps(state_to_dict(state), indent=2) + "\n"


def _compact_json(doc):
    """A report's bytes: ``doc`` as one line of JSON with sorted keys."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ParseError(f"{where} must be an object")
    if key not in mapping:
        raise ParseError(f"missing section {key!r} in {where}")
    return mapping[key]


def _parse_register(entries, where="register"):
    """Build a register from a list of ``{tag, polarization, oam}`` objects."""
    if not isinstance(entries, list):
        raise ParseError(f"{where} must be a list of modes")
    modes = []
    for k, entry in enumerate(entries):
        try:
            modes.append(
                ModeLabel(
                    _require(entry, "polarization", f"{where}[{k}]"),
                    _require(entry, "oam", f"{where}[{k}]"),
                    _require(entry, "tag", f"{where}[{k}]"),
                )
            )
        except (ValueError, TypeError) as exc:
            raise ParseError(f"{where}[{k}]: {exc}") from exc
    try:
        return ModeRegister(tuple(modes))
    except (ValueError, DuplicateLabel) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _state(register, mean, cov, where):
    """``GaussianState(register, mean, cov)``; a construction error is a ParseError."""
    try:
        return GaussianState(register, mean, cov)
    except (DimensionMismatch, PhysicalityViolation) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _numbers(values, field, where):
    """``values`` if each entry of its nested lists is a number, else ParseError.

    numpy would read a JSON string such as "0.5" or a boolean as a number,
    and null as NaN.  The lists are walked one nesting level at a time, so
    the first bad entry reported is the first of the shallowest level.
    """
    level = [values]
    while level:
        deeper = []
        for item in level:
            kind = type(item)
            if kind is list:
                deeper.extend(item)
            elif kind is not float and (kind is bool or not isinstance(item, Real)):
                raise ParseError(f"{where}.{field}: {item!r} is not a number")
        level = deeper
    return values


def _number(mapping, key, where):
    """``mapping[key]`` as a float: one number by the rule of :func:`_numbers`."""
    try:
        return float(_numbers(_require(mapping, key, where), key, where))
    except (TypeError, OverflowError) as exc:  # a list, or an over-long integer
        raise ParseError(f"{where}.{key}: not a number") from exc


def state_from_dict(data, require_physical=True, rescale=False, where="state"):
    """Build a state from the parsed file dict.

    ``rescale`` accepts files with sn != 1/2 by scaling the covariance
    (linearly) and the mean (by sqrt) into the canonical unit; otherwise
    such files raise ConventionMismatch.
    """
    if not isinstance(data, dict):
        raise ParseError(f"{where}: top level must be an object")
    convention = _require(data, "convention", where)
    sn = _number(convention, "sn", f"{where}.convention")
    ordering = _require(convention, "ordering", f"{where}.convention")
    if not 0 < sn < math.inf:
        raise ParseError(f"{where}.convention.sn must be finite and > 0, got {sn}")
    if ordering != ORDERING:
        raise ConventionMismatch(
            f"unsupported quadrature ordering {ordering!r}; this toolkit "
            f"reads {ORDERING!r} files only"
        )

    register = _parse_register(_require(data, "register", where))
    state = _state(register, _numbers(_require(data, "mean", where), "mean", where),
                   _numbers(_require(data, "cov", where), "cov", where), where)

    if not math.isclose(sn, SHOT_NOISE, rel_tol=0.0, abs_tol=1e-12):
        if not rescale:
            raise ConventionMismatch(
                f"file uses sn = {sn}, toolkit convention is {SHOT_NOISE}; "
                "pass rescale=True (CLI: --rescale) to convert on load"
            )
        factor = SHOT_NOISE / sn
        # an overflow gives non-finite entries, which GaussianState rejects
        with np.errstate(over="ignore", invalid="ignore"):
            state = _state(register, state.mean * math.sqrt(factor),
                           state.cov * factor, where)
    return _require_physical(state, where) if require_physical else state


def read_json(path):
    """Decode a UTF-8 JSON file; undecodable content raises ParseError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, huge int, too deep
        raise ParseError(f"{path}: {exc}") from exc


def load_state(path, require_physical=True, rescale=False):
    """Load a state file; see :func:`state_from_dict` for the knobs."""
    return state_from_dict(
        read_json(path), require_physical=require_physical, rescale=rescale,
        where=str(path),
    )


def save_state(state, path):
    """Write a state file (UTF-8 JSON, full float precision)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_state_text(state))


def load_cov_csv(path, register, require_physical=True):
    """Read a bare covariance matrix from CSV; the register comes by flag.

    Rows of decimal floats, one matrix row per line; mean is zero and the
    canonical convention is assumed.
    """
    rows = []
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            for lineno, row in enumerate(csv.reader(handle), start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError as exc:
                    raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    n = len(register)
    if len(rows) != 2 * n or any(len(r) != 2 * n for r in rows):
        raise ParseError(
            f"{path}: expected a {2 * n}x{2 * n} matrix for the "
            f"{n}-mode register, got {len(rows)} rows"
        )
    state = _state(register, np.zeros(2 * n), rows, str(path))
    return _require_physical(state, str(path)) if require_physical else state


def parse_register_spec(spec):
    """Parse a CLI register spec like ``a:H:0,b:V:0`` into a register."""
    entries = []
    for part in spec.split(","):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise ParseError(
                f"register spec entry {part!r} is not tag:polarization:oam"
            )
        tag, polarization, oam = fields
        try:
            oam = int(oam)
        except ValueError:
            pass  # ModeLabel rejects the string as a non-integer OAM
        entries.append({"tag": tag, "polarization": polarization, "oam": oam})
    return _parse_register(entries, where="register spec")
