"""On-disk formats: state files (JSON) and bare covariance matrices (CSV).

The canonical convention is pinned in the file header: shot noise 1/2 and
interleaved quadrature ordering.  Files declaring a different shot-noise
unit are rejected unless the caller explicitly asks for a rescale; any
other ordering is rejected outright.  Floats are written with full repr
precision, so save -> load round-trips are bit-exact.

JSON is written as text, which is faster than building a dict for
``json``'s encoders to walk and sort: :func:`_json_str` and
:func:`_json_scalar` write a string, number, bool or null as ``json``
writes it, and each writer puts its keys in their order itself.  A state file is written with the bytes of
``json.dumps(doc, indent=2)`` plus a newline (:func:`_state_text`); a
report and the reference run's document are one line of
``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` plus a newline,
except that a non-finite number is written as null.  JSON files are read
as bytes, decoded as UTF-8 and parsed with ``json.loads``, in any layout.

This module checks no numbers itself: a file's mean and cov go to the
``GaussianState`` constructor as parsed, whose gate refuses what is not an
array of numbers, and a single number must pass ``core._is_number``.
"""

import csv
import json
import math
import os
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .core import (
    SHOT_NOISE,
    GaussianState,
    ModeLabel,
    ModeRegister,
    _is_number,
    _require_physical,
    _shown,
)
from .errors import (
    ConventionMismatch,
    DimensionMismatch,
    DuplicateLabel,
    ParseError,
    PhysicalityViolation,
)

ORDERING = "interleaved"


def _json_scalar(value):
    """A float, int, bool or None as ``json`` writes it, but a non-finite
    float as null (``json`` writes ``NaN`` and ``Infinity``, which are not
    JSON).  A numpy float64 is a float; another type raises TypeError, as
    in ``json``."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if value is None:
        return "null"
    if value is True or value is False:  # before int: a bool is an int
        return "true" if value else "false"
    return int.__repr__(value)


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
    """A state file's text: :func:`state_to_dict` as ``json.dumps(..., indent=2)``.

    Numbers are written as ``json`` writes them (``repr``; a state's
    entries are finite), and strings through :func:`_json_str`.
    """
    modes = ",\n".join(
        f'    {{\n      "tag": {_json_str(m.tag)},\n'
        f'      "polarization": {_json_str(m.polarization)},\n'
        f'      "oam": {m.oam!r}\n    }}'
        for m in state.register
    )
    mean = ",\n    ".join(map(repr, state.mean.tolist()))
    cov = ",\n    ".join(
        "[\n      " + ",\n      ".join(map(repr, row)) + "\n    ]"
        for row in state.cov.tolist()
    )
    return (
        f'{{\n  "convention": {{\n    "sn": {SHOT_NOISE!r},\n'
        f'    "ordering": {_json_str(ORDERING)}\n  }},\n'
        f'  "register": [\n{modes}\n  ],\n'
        f'  "mean": [\n    {mean}\n  ],\n'
        f'  "cov": [\n    {cov}\n  ]\n}}\n'
    )


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


def _number(mapping, key, where):
    """``mapping[key]`` as a float if it is one number, else ParseError."""
    value = _require(mapping, key, where)
    if not _is_number(value) and not isinstance(value, list):
        raise ParseError(f"{where}.{key}: {_shown(value)} is not a number")
    try:
        return float(value)
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

    register = _parse_register(_require(data, "register", where), f"{where}.register")
    state = _state(register, _require(data, "mean", where), _require(data, "cov", where),
                   where)

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


def _check_path(path):
    """ParseError unless ``path`` is a str, bytes or os.PathLike: ``open``
    would take an int or a bool as a file descriptor, and close it."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ParseError(f"path must be a str, bytes or os.PathLike, got {path!r}")


def read_json(path):
    """Decode a UTF-8 JSON file; undecodable content raises ParseError.

    The file is read as bytes and decoded as UTF-8 before ``json.loads``
    (given bytes, ``json`` would also take UTF-16 and UTF-32).  ``\\r\\n``
    and a lone ``\\r`` become ``\\n``, as text mode reads them, so error
    positions count lines as a text-mode read does.  A ``path`` that is
    not a str, bytes or os.PathLike raises ParseError.
    """
    _check_path(path)
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
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
    """Write a state file (UTF-8 JSON, full float precision).

    A ``path`` that is not a str, bytes or os.PathLike raises ParseError.
    """
    _check_path(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_state_text(state))


def load_cov_csv(path, register, require_physical=True):
    """Read a bare covariance matrix from CSV; the register comes by flag.

    Rows of decimal floats, one matrix row per line; mean is zero and the
    canonical convention is assumed.  A ``path`` that is not a str, bytes
    or os.PathLike raises ParseError.
    """
    _check_path(path)
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
