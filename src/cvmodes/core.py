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

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from numbers import Real

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
    RegisterMismatch,
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

def _shown(value, form=repr):
    """``form(value)``, ``repr`` or ``str``, for an error message; an int of
    over 4,300 digits, which Python refuses to print, or a container
    holding one, is shown as ``<int too long to print>`` (its type's name)."""
    try:
        return form(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


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
                f"got {_shown(self.polarization)}"
            )
        if not isinstance(self.oam, (int, np.integer)) or isinstance(self.oam, bool):
            raise ValueError(f"oam must be an integer, got {_shown(self.oam)}")
        object.__setattr__(self, "oam", int(self.oam))
        if not isinstance(self.tag, str) or not self.tag:
            raise ValueError(f"tag must be a nonempty string, got {_shown(self.tag)}")

    @property
    def is_circular(self):
        return self.polarization in CIRCULAR_POLARIZATIONS

    def __str__(self):
        return f"{self.tag}[{self.polarization},{_shown(self.oam, str)}]"


def _labels(modes):
    """``modes`` as a tuple of ModeLabels, else RegisterMismatch."""
    try:
        modes = tuple(modes)
    except TypeError as exc:
        raise RegisterMismatch(
            f"register modes {_shown(modes)} are not a sequence of ModeLabels") from exc
    for m in modes:
        if not isinstance(m, ModeLabel):
            raise RegisterMismatch(f"register mode {_shown(m)} is not a ModeLabel")
    return modes


@dataclass(frozen=True, eq=False)
class ModeRegister:
    """Ordered mode list; position k owns quadratures (2k, 2k+1).

    Every mode must be a :class:`ModeLabel` (else RegisterMismatch), and
    the labels distinct (else DuplicateLabel).  ``tags`` and the key that
    equality and hashing compare, the ``(polarization, oam, tag)`` of
    each mode, are built once, here.  The key is kept, not its hash, so a
    register loaded from a pickle hashes like a fresh one under any hash
    seed.
    """

    modes: tuple

    def __post_init__(self):
        modes = _labels(self.modes)
        object.__setattr__(self, "modes", modes)
        if len(modes) < 1:
            raise ValueError("register needs at least one mode")
        key = tuple((m.polarization, m.oam, m.tag) for m in modes)
        if len(set(key)) != len(key):
            raise DuplicateLabel(f"register labels are not distinct: {_shown(list(key))}")
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "tags", tuple(m.tag for m in modes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __len__(self):
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    def __getitem__(self, k):
        return self.modes[k]

    def index(self, tag):
        """Position of the mode carrying ``tag``."""
        for k, m in enumerate(self.modes):
            if m.tag == tag:
                return k
        raise IndexOutOfRange(f"no mode tagged {_shown(tag)} in register {self.tags}")


def _check_register(register):
    if not isinstance(register, ModeRegister):
        raise RegisterMismatch(f"register {_shown(register)} is not a ModeRegister")


_TWO_MODE_REGISTER = ModeRegister((ModeLabel("H", 0, "a"), ModeLabel("V", 0, "b")))


def two_mode_register():
    """Default register of a two-mode source: a[H,0] and b[V,0].

    Built once, at import: every call returns the same immutable register.
    """
    return _TWO_MODE_REGISTER


def symplectic_form(n):
    """Symplectic form Omega for n modes: direct sum of [[0, 1], [-1, 0]].

    The array is built once per ``n`` and cached: repeated calls return
    the same read-only object, so callers must copy before writing.
    """
    return _symplectic_forms(n)[0]


@cache
def _symplectic_forms(n):
    """Read-only Omega and i Omega of n modes, built together once per ``n``."""
    omega = np.zeros((2 * n, 2 * n))
    for k in range(n):
        omega[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = ((0.0, 1.0), (-1.0, 0.0))
    i_omega = 1j * omega
    omega.flags.writeable = i_omega.flags.writeable = False
    return omega, i_omega


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def _is_number(value):
    """The number rule of :mod:`cvmodes.errors`: a float or a non-bool ``numbers.Real``."""
    return isinstance(value, float) or (isinstance(value, Real) and type(value) is not bool)


_FLOAT = np.dtype(float)
_PLAIN_NUMBERS = frozenset((float, int))


def _float_array(values, what):
    """``values`` as a new float array if it is an array of numbers by the
    rule of :mod:`cvmodes.errors`, else DimensionMismatch.  Lists and tuples
    are walked a level at a time, so the first bad entry named is the
    shallowest: numpy reads ``"0.5"`` and ``True``, even in ``[True, 0.5]``,
    as numbers.  Float input is converted once."""
    try:
        level = [values]
        # a level of plain floats and ints, the usual leaves, needs no walk
        while not set(map(type, level)) <= _PLAIN_NUMBERS:
            deeper = []
            for item in level:
                if isinstance(item, (list, tuple)):
                    deeper.extend(item)
                elif isinstance(item, np.ndarray):
                    if item.dtype.kind == "O":
                        deeper.extend(item.ravel().tolist())
                    elif item.dtype.kind not in "iuf":
                        raise TypeError(f"{item.dtype} entries are not numbers")
                elif not _is_number(item):
                    raise TypeError(f"{_shown(item)} is not a number")
            level = deeper
        arr = np.array(values)
        return arr if arr.dtype is _FLOAT else np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(f"{what} is not an array of numbers: {exc}") from exc


def _frozen_array(values, shape, what):
    arr = _float_array(values, what)
    if arr.shape != shape:
        raise DimensionMismatch(f"{what} must have shape {shape}, got {arr.shape}")
    _check_finite(arr, what)
    arr.flags.writeable = False
    return arr


def _check_finite(arr, what):
    if not np.isfinite(arr).all():
        raise PhysicalityViolation(f"{what} entries are not all finite")


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian state: register, quadrature mean vector, covariance matrix.

    Construction copies the arrays and checks types, dimensions and
    finiteness only: a register that is not a ModeRegister raises
    RegisterMismatch, non-numbers or a wrong shape DimensionMismatch, a
    NaN or infinite entry PhysicalityViolation.  This gate is for outside
    input; a state gathered or padded from a checked state, computed from
    one and checked for finiteness (``S cov S^T``) or on a matrix that
    passed the gate (the standard form), is built without it (``_trusted``).
    Physicality and symmetry are checked by :func:`validate` (and enforced
    by the constructors that promise physical output), so that diagnostic
    code can still hold and inspect invalid matrices.  That report is
    computed once, on first use, and kept in :attr:`validity`; so are the
    photon total and purity.  ``run_pipeline`` fills both for its step
    outputs in one pass (``_measure``).  Only the waveplate relabel's
    output shares another state's kept report and facts.
    """

    register: ModeRegister
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        _check_register(self.register)
        n = len(self.register)
        object.__setattr__(self, "mean", _frozen_array(self.mean, (2 * n,), "mean"))
        object.__setattr__(self, "cov", _frozen_array(self.cov, (2 * n, 2 * n), "cov"))

    @property
    def n_modes(self):
        return len(self.register)

    @cached_property
    def validity(self):
        """The :class:`ValidityReport` of ``cov``; see :func:`validate`."""
        return _report(float(np.abs(self.cov - self.cov.T).max()),
                       min_heisenberg_eigenvalue(self.cov))

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


def _trusted(register, mean, cov):
    """A state from arrays made from checked ones: no copy and no second gate.

    ``mean`` and ``cov`` must be finite arrays of the register's shape:
    gathered from or padded around arrays that passed the constructor's
    gate (padding is zeros and SHOT_NOISE only), or computed from them and
    checked with ``_check_finite``; they are marked read-only.
    """
    mean.flags.writeable = False
    cov.flags.writeable = False
    return _record(GaussianState, register=register, mean=mean, cov=cov)


def _record(cls, **fields):
    """A frozen dataclass ``cls`` of checked fields, built without its
    ``__init__``; it is equal to, hashes like and prints like the one that
    ``cls(**fields)`` builds."""
    out = object.__new__(cls)
    out.__dict__.update(fields)
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


def _report(asym, min_eig):
    # the ValidityReport of a matrix with this asymmetry and Heisenberg floor
    symmetric = asym <= TOL_SYMMETRY
    return _record(ValidityReport, symmetric=symmetric,
                   physical=symmetric and min_eig >= -TOL_PHYSICALITY,
                   min_heisenberg_eigenvalue=min_eig)


def _measure(states):
    """Give every state without a kept validity report its report and facts.

    One stacked asymmetry max, one :func:`min_heisenberg_eigenvalue` call
    and one ``slogdet`` per register size; each state's photon total and
    purity (``_facts``) are those of :func:`total_photon_number` and
    :func:`purity` on it alone, bit for bit.  A state whose determinant is
    not positive keeps no facts, and if a stack's floor raises
    NumericalFailure its states are left alone: each computes, and raises,
    its own report and facts when asked.
    """
    groups = {}
    for state in states:
        if "validity" not in state.__dict__:
            groups.setdefault(state.n_modes, []).append(state)
    for n, group in groups.items():
        covs = np.stack([state.cov for state in group])
        try:
            floors = min_heisenberg_eigenvalue(covs)
        except NumericalFailure:
            continue
        asyms = np.abs(covs - np.swapaxes(covs, -1, -2)).max(axis=(-2, -1))
        signs, logdets = np.linalg.slogdet(covs)
        for state, asym, floor, sign, mu in zip(
                group, asyms.tolist(), floors.tolist(), signs.tolist(),
                _purity(n, logdets).tolist()):
            state.__dict__["validity"] = _report(asym, floor)
            if sign > 0:
                state.__dict__["_facts"] = (total_photon_number(state), mu)


def vacuum_state(register):
    """Vacuum over ``register``: zero mean, cov = SHOT_NOISE * identity.

    A ``register`` that is not a ModeRegister raises RegisterMismatch.
    """
    _check_register(register)
    n = len(register)
    return GaussianState(register, np.zeros(2 * n), SHOT_NOISE * np.eye(2 * n))


def standard_form_matrix(params):
    """4x4 standard-form covariance matrix for the given parameters.

    A parameter that is not a number by the rule of :mod:`cvmodes.errors`
    raises DimensionMismatch.
    """
    a, b, c1, c2 = params.a, params.b, params.c1, params.c2
    for name, value in (("a", a), ("b", b), ("c1", c1), ("c2", c2)):
        if not _is_number(value):
            raise DimensionMismatch(
                f"cov is not an array of numbers: {name} = {_shown(value)} is not a number")
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
    RegisterMismatch
        If ``register`` is not a ModeRegister.
    DimensionMismatch
        If ``register`` does not have two modes, or a parameter is not a
        number by the rule of :mod:`cvmodes.errors`.
    PhysicalityViolation
        If a parameter is not finite or the matrix violates the
        Heisenberg bound.
    """
    if register is None:
        register = two_mode_register()
    _check_register(register)
    if len(register) != 2:
        raise DimensionMismatch("standard form is a two-mode constructor")
    cov = _frozen_array(standard_form_matrix(params), (4, 4), "cov")
    return _require_physical(_trusted(register, np.zeros(4), cov), params)


def _heisenberg_floor(gamma):
    """Smallest eigenvalue of gamma + i Omega, per matrix of a stack.

    Not symmetrized: ``eigvalsh`` reads only the lower triangle of gamma.
    """
    i_omega = _symplectic_forms(gamma.shape[-1] // 2)[1]
    try:
        return np.linalg.eigvalsh(gamma + i_omega)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Heisenberg eigenvalues: {exc}") from exc


def min_heisenberg_eigenvalue(cov):
    """Smallest eigenvalue of the Hermitian matrix cov + (i/2) Omega.

    ``cov`` is one (2n, 2n) matrix, which gives a float, or a stack of
    shape (..., 2n, 2n), which gives an array of shape (...): one
    eigen-call, and for each matrix the bits of a call on it alone.  An
    asymmetric matrix is symmetrized first.  Raises NumericalFailure if
    entries overflow there, so that the eigensolver fails or a floor is
    not finite, on any matrix.
    """
    with np.errstate(over="ignore"):
        floor = 0.5 * _heisenberg_floor(cov + np.swapaxes(cov, -1, -2))
    if cov.ndim == 2:
        floor = float(floor)
        if math.isfinite(floor):
            return floor
    elif np.isfinite(floor).all():
        return floor
    raise NumericalFailure("Heisenberg eigenvalues: not finite (entries overflow)")


def validate(state):
    """Check symmetry and physicality of a state's covariance matrix.

    Returns a :class:`ValidityReport`; never raises on an invalid matrix
    (that is the point of the report).  ``min_heisenberg_eigenvalue`` is
    computed on the symmetrized matrix when the input is asymmetric; entries
    that overflow there raise NumericalFailure.  The report is computed
    once per state and kept: every later call returns the same object.
    """
    return state.validity


def _validity(state, where):
    """:func:`validate` of ``state``; a NumericalFailure names ``where`` first."""
    try:
        return state.validity
    except NumericalFailure as exc:
        raise NumericalFailure(f"{where}: {exc}") from exc


def _require_physical(state, where):
    """``state`` if :func:`validate` finds it physical, else PhysicalityViolation."""
    report = _validity(state, where)
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


def _gather(n, subsets):
    """Read-only flat indices into a (2n, 2n) matrix, one (2m, 2m) block each.

    ``cov.take(out[k])`` is the block of ``cov`` on the k-th subset of m
    modes, in the mode order of ``subsets[k]``.
    """
    idx = np.array([_quadrature_indices(s) for s in subsets])
    out = idx[:, :, None] * (2 * n) + idx[:, None, :]
    out.flags.writeable = False
    return out


def _mode_indices(indices):
    """``indices`` as ints; a bool, a float or a string, which int reads, is refused."""
    try:
        values = list(indices)
        if bool in map(type, values):
            raise TypeError("a boolean is not a mode index")
        return [operator.index(k) for k in values]
    except TypeError as exc:
        raise IndexOutOfRange(
            f"mode indices must be integers: {_shown(indices)}") from exc


def _check_subset(subset, n):
    subset = _mode_indices(subset)
    if not subset:
        raise IndexOutOfRange("mode subset is empty")
    for k in subset:
        if not 0 <= k < n:
            raise IndexOutOfRange(
                f"mode index {_shown(k)} outside register of {n} modes")
    if len(set(subset)) != len(subset):
        raise DuplicateIndex(f"repeated mode index in {subset}")
    return subset


@lru_cache(maxsize=64)
def _selection(register, modes):
    """Register, quadrature indices and gather block of ``register`` on ``modes``."""
    quadratures = np.array(_quadrature_indices(modes))
    quadratures.flags.writeable = False
    return (ModeRegister(tuple(register[k] for k in modes)), quadratures,
            _gather(len(register), [modes])[0])


def _select(state, modes):
    # the state on ``modes``, in the order given
    register, quadratures, block = _selection(state.register, tuple(modes))
    return _trusted(register, state.mean.take(quadratures), state.cov.take(block))


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
            f"{_shown(permutation, str)} is not a permutation of 0..{state.n_modes - 1}"
        )
    return _select(state, perm)


def mean_photon_number(state, mode_index):
    """Mean photon number of one mode.

    n_k = (Var X + Var Y + <X>^2 + <Y>^2 - 1) / 2 in shot-noise units.
    """
    k = _check_subset([mode_index], state.n_modes)[0]
    return _photon_numbers(state)[k]


def _photon_numbers(state):
    # one float per mode, on plain floats: cheaper than numpy at 2-8 modes
    var = state.cov.diagonal().tolist()
    mean = state.mean.tolist()
    return [(vx + vy + mx * mx + my * my - 1.0) / 2.0
            for vx, vy, mx, my in zip(var[0::2], var[1::2], mean[0::2], mean[1::2])]


def total_photon_number(state):
    """Sum of mean photon numbers over all modes."""
    return sum(_photon_numbers(state))


def purity(state):
    """Purity mu = 1 / (2^n sqrt(det cov)), in (0, 1] for physical states."""
    sign, logdet = np.linalg.slogdet(state.cov)
    if sign <= 0:
        raise NonPositiveDeterminant(
            f"det(cov) is not positive (sign {sign}); matrix is unphysical"
        )
    return float(_purity(state.n_modes, logdet))


_LN2 = np.log(2.0)


def _purity(n, logdet):
    # the purity of n modes whose covariance has log-determinant ``logdet``,
    # or one per entry of an array of them
    return np.exp(-(n * _LN2 + 0.5 * logdet))
