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
"""

from importlib import resources

import numpy as np

from ..errors import ParseError
from ..io import read_json, state_from_dict

STATE_FIXTURES = ("sigma2_exp", "vacuum4")
MATRIX_FIXTURES = ("sigma4_exact", "sigma4_printed")


def _read(name):
    return read_json(resources.files(__package__).joinpath(f"{name}.json"))


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
    meta = {k: v for k, v in data.items() if k != "cov"}
    return matrix, meta
