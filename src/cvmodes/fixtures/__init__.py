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

The files are package data, so each is read and decoded once per
process.  Every loader call still returns fresh objects: a new state, a
new writable matrix and annotations that share nothing with the decoded
file, so a caller that changes them changes no later load.
"""

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
    """The decoded file; shared by every caller, so nothing may write to it."""
    return read_json(_DIRECTORY.joinpath(f"{name}.json"))


def _fresh(value):
    """A copy of decoded JSON that shares no list or dict with ``value``.

    About a third of the cost of ``copy.deepcopy``, which keeps a memo
    that plain JSON values never need.
    """
    if isinstance(value, list):
        return [_fresh(item) for item in value]
    if isinstance(value, dict):
        return {key: _fresh(item) for key, item in value.items()}
    return value


def load_state_fixture(name):
    """Load one of the bundled state fixtures by name."""
    if name not in STATE_FIXTURES:
        raise ParseError(
            f"unknown state fixture {name!r}; available: {STATE_FIXTURES}"
        )
    return state_from_dict(_read(name), where=f"fixture {name}")


def load_matrix_fixture(name):
    """Load a bundled matrix fixture: returns (matrix, annotations dict)."""
    if name not in MATRIX_FIXTURES:
        raise ParseError(
            f"unknown matrix fixture {name!r}; available: {MATRIX_FIXTURES}"
        )
    data = _read(name)
    matrix = np.array(data["cov"], dtype=float)
    meta = {k: _fresh(v) for k, v in data.items() if k != "cov"}
    return matrix, meta
