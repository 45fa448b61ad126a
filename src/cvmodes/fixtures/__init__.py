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

The files are package data, so each is read, decoded, checked and
measured once per process.  Every loader call still returns fresh
objects: a new state on the fixture's read-only arrays, which every
state loaded from that fixture shares, or a new writable copy of the
matrix and annotations that share nothing with the decoded file, so a
caller that changes them changes no later load.
"""

import copy
from functools import cache
from importlib import resources

import numpy as np

from ..core import _trusted
from ..errors import ParseError
from ..io import read_json, state_from_dict

STATE_FIXTURES = ("sigma2_exp", "vacuum4")
MATRIX_FIXTURES = ("sigma4_exact", "sigma4_printed")

_DIRECTORY = resources.files(__package__)


@cache
def _read(name):
    """The checked fixture, shared by every caller, so nothing may write to it.

    A state fixture is the state :func:`~cvmodes.io.state_from_dict`
    builds, with its validity report and photon total and purity already
    kept; a matrix fixture is ``(matrix, annotations)``, the matrix
    read-only.
    """
    data = read_json(_DIRECTORY.joinpath(f"{name}.json"))
    if name in STATE_FIXTURES:
        state = state_from_dict(data, where=f"fixture {name}")
        state._facts  # measured once, kept with the report
        return state
    matrix = np.array(data.pop("cov"), dtype=float)
    matrix.flags.writeable = False
    return matrix, data


def _check_name(name, kind, available):
    if name not in available:
        raise ParseError(f"unknown {kind} fixture {name!r}; available: {available}")


def load_state_fixture(name):
    """Load one of the bundled state fixtures by name."""
    _check_name(name, "state", STATE_FIXTURES)
    state = _read(name)
    return _trusted(state.register, state.mean, state.cov, kept=state.__dict__)


def load_matrix_fixture(name):
    """Load a bundled matrix fixture: returns (matrix, annotations dict)."""
    _check_name(name, "matrix", MATRIX_FIXTURES)
    matrix, meta = _read(name)
    return matrix.copy(), copy.deepcopy(meta)
