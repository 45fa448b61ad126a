"""Covariance-matrix representation of multimode Gaussian optical states.

A state lives on an ordered register of modes, each identified by a
polarization (linear H/V or circular L/R), an integer number of orbital
angular momentum quanta, and a free-form tag.  Phase space is ordered
interleaved, ``(X1, Y1, X2, Y2, ...)``, with the quadrature convention
``X = (k + k^dag)/sqrt(2)``, ``Y = (k - k^dag)/(sqrt(2) i)`` so that the
vacuum variance is 1/2 per quadrature (the shot-noise unit ``SHOT_NOISE``).

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across
concurrent workers.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateIndex,
    DuplicateLabel,
    IndexOutOfRange,
    NonPositiveDeterminant,
    NotAPermutation,
    NumericalFailure,
    PhysicalityViolation,
)

SHOT_NOISE = 0.5
"""Vacuum variance per quadrature (sn)."""

TOL_SYMMETRY = 1e-10
"""Maximum tolerated absolute asymmetry of a covariance matrix."""

TOL_PHYSICALITY = 1e-9
"""Eigenvalue floor for the Heisenberg matrix cov + (i/2) Omega."""

POLARIZATIONS = ("H", "V", "L", "R")
LINEAR_POLARIZATIONS = frozenset({"H", "V"})
CIRCULAR_POLARIZATIONS = frozenset({"L", "R"})


# ---------------------------------------------------------------------------
# mode labels and registers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeLabel:
    """Identity of one optical mode: polarization, OAM quanta, and a tag."""

    polarization: str
    oam: int
    tag: str

    def __post_init__(self):
        if self.polarization not in POLARIZATIONS:
            raise ValueError(
                f"polarization must be one of {POLARIZATIONS}, "
                f"got {self.polarization!r}"
            )
        if not isinstance(self.oam, (int, np.integer)) or isinstance(self.oam, bool):
            raise ValueError(f"oam must be an integer, got {self.oam!r}")
        object.__setattr__(self, "oam", int(self.oam))
        if not isinstance(self.tag, str) or not self.tag:
            raise ValueError(f"tag must be a nonempty string, got {self.tag!r}")

    @property
    def is_circular(self):
        return self.polarization in CIRCULAR_POLARIZATIONS

    def __str__(self):
        return f"{self.tag}[{self.polarization},{self.oam}]"


@dataclass(frozen=True)
class ModeRegister:
    """Ordered mode list; position k owns quadratures (2k, 2k+1)."""

    modes: tuple

    def __post_init__(self):
        modes = tuple(self.modes)
        object.__setattr__(self, "modes", modes)
        if len(modes) < 1:
            raise ValueError("register needs at least one mode")
        triples = [(m.polarization, m.oam, m.tag) for m in modes]
        if len(set(triples)) != len(triples):
            raise DuplicateLabel(f"register labels are not distinct: {triples}")

    def __len__(self):
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    def __getitem__(self, k):
        return self.modes[k]

    @property
    def tags(self):
        return tuple(m.tag for m in self.modes)

    def index(self, tag):
        """Position of the mode carrying ``tag``."""
        for k, m in enumerate(self.modes):
            if m.tag == tag:
                return k
        raise IndexOutOfRange(f"no mode tagged {tag!r} in register {self.tags}")


def two_mode_register():
    """Default register of a two-mode source: a[H,0] and b[V,0]."""
    return ModeRegister((ModeLabel("H", 0, "a"), ModeLabel("V", 0, "b")))


_SYMPLECTIC_FORMS = {}


def symplectic_form(n):
    """Symplectic form Omega for n modes: direct sum of [[0, 1], [-1, 0]].

    The array is built once per ``n`` and cached: repeated calls return
    the same read-only object, so callers must copy before writing.
    """
    out = _SYMPLECTIC_FORMS.get(n)
    if out is None:
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        out = np.zeros((2 * n, 2 * n))
        for k in range(n):
            out[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = block
        out.flags.writeable = False
        _SYMPLECTIC_FORMS[n] = out
    return out


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def _frozen_array(values, shape, what):
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(f"{what} is not an array of numbers: {exc}") from exc
    if arr.shape != shape:
        raise DimensionMismatch(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise PhysicalityViolation(f"{what} entries are not all finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian state: register, quadrature mean vector, covariance matrix.

    Construction checks dimensions and finiteness only: non-numbers or a
    wrong shape raise DimensionMismatch, a NaN or infinite entry raises
    PhysicalityViolation.  Physicality and symmetry are checked by
    :func:`validate` (and enforced by the constructors that promise
    physical output), so that diagnostic code can still hold and inspect
    invalid matrices.  That report is computed once, on first use, and
    kept in :attr:`validity`; so are the photon total and purity.
    """

    register: ModeRegister
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        n = len(self.register)
        object.__setattr__(self, "mean", _frozen_array(self.mean, (2 * n,), "mean"))
        object.__setattr__(self, "cov", _frozen_array(self.cov, (2 * n, 2 * n), "cov"))

    @property
    def n_modes(self):
        return len(self.register)

    @cached_property
    def validity(self):
        """The :class:`ValidityReport` of ``cov``; see :func:`validate`."""
        asym = float(np.abs(self.cov - self.cov.T).max())
        symmetric = asym <= TOL_SYMMETRY
        min_eig = min_heisenberg_eigenvalue(self.cov)
        physical = symmetric and min_eig >= -TOL_PHYSICALITY
        return ValidityReport(symmetric, physical, min_eig)

    @cached_property
    def _facts(self):
        # (total photon number, purity), the diagnostics of each pipeline step
        return total_photon_number(self), purity(self)

    def __eq__(self, other):
        if not isinstance(other, GaussianState):
            return NotImplemented
        return (
            self.register == other.register
            and np.array_equal(self.mean, other.mean)
            and np.array_equal(self.cov, other.cov)
        )


def _with_register(state, register):
    """``state`` on an equally sized ``register``: no copy and no second check.

    The result shares the read-only ``mean`` and ``cov`` that already
    passed the constructor's gate, and the kept :attr:`validity` report
    and photon total and purity if ``state`` has them.
    """
    out = object.__new__(GaussianState)
    out.__dict__.update(state.__dict__, register=register)
    return out


@dataclass(frozen=True)
class StandardFormParams:
    """Two-mode standard-form parameters (a, b, c1, c2) in shot-noise units."""

    a: float
    b: float
    c1: float
    c2: float


@dataclass(frozen=True)
class ValidityReport:
    symmetric: bool
    physical: bool
    min_heisenberg_eigenvalue: float


def vacuum_state(register):
    """Vacuum over ``register``: zero mean, cov = SHOT_NOISE * identity."""
    n = len(register)
    return GaussianState(register, np.zeros(2 * n), SHOT_NOISE * np.eye(2 * n))


def standard_form_matrix(params):
    """4x4 standard-form covariance matrix for the given parameters."""
    a, b, c1, c2 = params.a, params.b, params.c1, params.c2
    return np.array(
        [
            [a, 0.0, c1, 0.0],
            [0.0, a, 0.0, c2],
            [c1, 0.0, b, 0.0],
            [0.0, c2, 0.0, b],
        ]
    )


def make_standard_form(params, register=None):
    """Build the two-mode state with covariance in standard form.

    Parameters
    ----------
    params : StandardFormParams
        Diagonal variances ``a``, ``b`` and cross-correlations ``c1``, ``c2``.
    register : ModeRegister, optional
        Two-mode register; defaults to a[H,0], b[V,0].

    Returns
    -------
    GaussianState
        Zero-mean state with cov ``[[a,0,c1,0],[0,a,0,c2],[c1,0,b,0],[0,c2,0,b]]``.

    Raises
    ------
    PhysicalityViolation
        If a parameter is not finite or the matrix violates the
        Heisenberg bound.
    """
    if register is None:
        register = two_mode_register()
    if len(register) != 2:
        raise DimensionMismatch("standard form is a two-mode constructor")
    state = GaussianState(register, np.zeros(4), standard_form_matrix(params))
    return _require_physical(state, params)


def _heisenberg_floor(gamma):
    """Smallest eigenvalue of gamma + i Omega, per matrix of a stack.

    Not symmetrized: ``eigvalsh`` reads only the lower triangle of gamma.
    """
    omega = symplectic_form(gamma.shape[-1] // 2)
    try:
        return np.linalg.eigvalsh(gamma + 1j * omega)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Heisenberg eigenvalues: {exc}") from exc


def min_heisenberg_eigenvalue(cov):
    """Smallest eigenvalue of the Hermitian matrix cov + (i/2) Omega.

    Raises NumericalFailure if the eigensolver fails (entries overflow).
    """
    with np.errstate(over="ignore"):
        return float(0.5 * _heisenberg_floor(cov + cov.T))


def validate(state):
    """Check symmetry and physicality of a state's covariance matrix.

    Returns a :class:`ValidityReport`; never raises on an invalid matrix
    (that is the point of the report).  ``min_heisenberg_eigenvalue`` is
    computed on the symmetrized matrix when the input is asymmetric; entries
    that overflow there raise NumericalFailure.  The report is computed
    once per state and kept: every later call returns the same object.
    """
    return state.validity


def _require_physical(state, where):
    """``state`` if :func:`validate` finds it physical, else PhysicalityViolation."""
    report = state.validity
    if not report.physical:
        min_eig = report.min_heisenberg_eigenvalue
        problem = (f"violates the Heisenberg bound (min eigenvalue {min_eig:.3e})"
                   if report.symmetric else
                   f"is not symmetric within {TOL_SYMMETRY:g}")
        raise PhysicalityViolation(f"{where}: covariance matrix {problem}",
                                   min_eigenvalue=min_eig)
    return state


def _quadrature_indices(subset):
    out = []
    for m in subset:
        out.extend((2 * m, 2 * m + 1))
    return out


def _cov_blocks(cov, subsets):
    """Stack (k, 2m, 2m) of the blocks of ``cov`` on k mode subsets of size m.

    One gather; block k keeps the mode order of ``subsets[k]``.
    """
    idx = np.array([_quadrature_indices(s) for s in subsets])
    return cov[idx[:, :, None], idx[:, None, :]]


def _mode_indices(indices):
    """``indices`` as ints; a float or a string, which int reads, is refused."""
    try:
        return [operator.index(k) for k in indices]
    except TypeError as exc:
        raise IndexOutOfRange(f"mode indices must be integers: {indices!r}") from exc


def _check_subset(subset, n):
    subset = _mode_indices(subset)
    if not subset:
        raise IndexOutOfRange("mode subset is empty")
    for k in subset:
        if not 0 <= k < n:
            raise IndexOutOfRange(f"mode index {k} outside register of {n} modes")
    if len(set(subset)) != len(subset):
        raise DuplicateIndex(f"repeated mode index in {subset}")
    return subset


def _select(state, modes):
    # the state on ``modes``, in the order given
    return GaussianState(
        ModeRegister(tuple(state.register[k] for k in modes)),
        state.mean[_quadrature_indices(modes)],
        _cov_blocks(state.cov, [modes])[0],
    )


def reduce(state, subset):
    """Marginal state on ``subset`` of mode indices (register order kept)."""
    return _select(state, sorted(_check_subset(subset, state.n_modes)))


def reorder(state, permutation):
    """Permute modes: position k of the result is mode ``permutation[k]``.

    Pure index shuffling, so applying the inverse permutation afterwards
    restores the input bit-exactly.
    """
    perm = _mode_indices(permutation)
    if sorted(perm) != list(range(state.n_modes)):
        raise NotAPermutation(
            f"{permutation} is not a permutation of 0..{state.n_modes - 1}"
        )
    return _select(state, perm)


def mean_photon_number(state, mode_index):
    """Mean photon number of one mode.

    n_k = (Var X + Var Y + <X>^2 + <Y>^2 - 1) / 2 in shot-noise units.
    """
    k = _check_subset([mode_index], state.n_modes)[0]
    return float(_photon_numbers(state)[k])


def _photon_numbers(state):
    var = np.diagonal(state.cov)
    mean = state.mean
    return (var[0::2] + var[1::2] + mean[0::2] * mean[0::2]
            + mean[1::2] * mean[1::2] - 1.0) / 2.0


def total_photon_number(state):
    """Sum of mean photon numbers over all modes."""
    return float(sum(_photon_numbers(state).tolist()))


def purity(state):
    """Purity mu = 1 / (2^n sqrt(det cov)), in (0, 1] for physical states."""
    sign, logdet = np.linalg.slogdet(state.cov)
    if sign <= 0:
        raise NonPositiveDeterminant(
            f"det(cov) is not positive (sign {sign}); matrix is unphysical"
        )
    n = state.n_modes
    return float(np.exp(-(n * np.log(2.0) + 0.5 * logdet)))
