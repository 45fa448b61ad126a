"""Bundled reference data.

* ``sigma2_exp``: the experimentally measured two-mode source matrix
  (collection-loss corrected), a state file.
* ``vacuum4``: a four-mode vacuum on a q-plate-ready circular register,
  a state file.
* ``sigma4_exact``: the closed-form four-mode output covariance for the
  ``sigma2_exp`` source, full precision.
* ``sigma4_printed``: the same matrix as published with two-decimal
  entries; carries a ``typo_cells`` annotation for the one cell that
  breaks symmetry (the closed form forces 0 there).

The files are package data, so each is read, decoded and checked once
per process and the result is cached.  A state fixture is one shared
immutable state: every load returns the same object, whose report and
facts are computed once and kept.  A matrix fixture is a fresh writable
copy of the matrix and annotations per call, so a caller that changes
them changes no later load.
"""

import copy
from functools import cache
from importlib import resources

import numpy as np

from ..errors import ParseError
from ..io import read_json, state_from_dict

STATE_FIXTURES = ("sigma2_exp", "vacuum4")
MATRIX_FIXTURES = ("sigma4_exact", "sigma4_printed")

_DIRECTORY = resources.files(__package__)


@cache
def _read(name):
    """The checked fixture, shared by every caller, so nothing may write to it.

    A state fixture is the state :func:`~cvmodes.io.state_from_dict`
    builds; a matrix fixture is ``(matrix, annotations)``, the matrix
    read-only.
    """
    data = read_json(_DIRECTORY.joinpath(f"{name}.json"))
    if name in STATE_FIXTURES:
        return state_from_dict(data, where=f"fixture {name}")
    matrix = np.array(data.pop("cov"), dtype=float)
    matrix.flags.writeable = False
    return matrix, data


def _check_name(name, kind, available):
    if name not in available:
        raise ParseError(f"unknown {kind} fixture {name!r}; available: {available}")


def load_state_fixture(name):
    """The bundled state fixture ``name``: the same shared state on every call."""
    _check_name(name, "state", STATE_FIXTURES)
    return _read(name)


def load_matrix_fixture(name):
    """Load a bundled matrix fixture: returns (matrix, annotations dict)."""
    _check_name(name, "matrix", MATRIX_FIXTURES)
    matrix, meta = _read(name)
    return matrix.copy(), copy.deepcopy(meta)
