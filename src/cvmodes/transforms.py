"""Symplectic mode transformations for the entanglement-distribution pipeline.

The pipeline stages are, in order: relabel the source modes into the
circular polarization basis (quarter waveplate), append the vacuum partner
modes the device couples to, and apply the retardation-delta q-plate that
splits each beam over two polarization/OAM-orthogonal modes.  A closed-form
expression for the resulting four-mode covariance matrix doubles as an
independent oracle for the matrix-product route.

Covariance matrices transform as S cov S^T, means as S mean; the q-plate
and every other element here is passive (orthogonal symplectic), so total
photon number is conserved exactly.
"""

import math
import os.path
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    SHOT_NOISE,
    GaussianState,
    ModeLabel,
    ModeRegister,
    StandardFormParams,
    _with_register,
    make_standard_form,
    symplectic_form,
)
from .errors import (
    BadPolarization,
    NonSymplectic,
    NotCircular,
    RegisterMismatch,
    UnpairedMode,
)

TOL_SYMPLECTIC = 1e-12
"""Max abs entry deviation allowed in S Omega S^T = Omega and S S^T = I."""


@dataclass(frozen=True, eq=False)
class SymplecticTransform:
    """Linear phase-space map between two equally sized registers.

    Symplecticity is verified at construction.  ``passive`` is true when
    the matrix is also orthogonal; passive transforms conserve the total
    photon number.
    """

    matrix: np.ndarray
    input_register: ModeRegister
    output_register: ModeRegister
    passive: bool = field(init=False)

    def __post_init__(self):
        m = len(self.input_register)
        if len(self.output_register) != m:
            raise RegisterMismatch("input and output registers differ in size")
        mat = np.array(self.matrix, dtype=float)
        if mat.shape != (2 * m, 2 * m):
            raise NonSymplectic(
                f"matrix shape {mat.shape} does not match {m}-mode registers"
            )
        if not np.isfinite(mat).all():
            raise NonSymplectic("matrix has non-finite entries")
        omega = symplectic_form(m)
        dev = np.abs(mat @ omega @ mat.T - omega).max()
        if dev > TOL_SYMPLECTIC:
            raise NonSymplectic(
                f"S Omega S^T deviates from Omega by {dev:.3e} "
                f"(tolerance {TOL_SYMPLECTIC})"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        ortho_dev = np.abs(mat @ mat.T - np.eye(2 * m)).max()
        object.__setattr__(self, "passive", bool(ortho_dev <= TOL_SYMPLECTIC))


def apply(transform, state):
    """Apply a symplectic transform: cov' = S cov S^T, mean' = S mean.

    The state register must equal the transform's input register (same
    labels in the same order); the result carries the output register.
    """
    if state.register != transform.input_register:
        raise RegisterMismatch(
            f"state register {state.register.tags} != transform input "
            f"{transform.input_register.tags}"
        )
    s = transform.matrix
    cov = s @ state.cov @ s.T
    cov = 0.5 * (cov + cov.T)
    return GaussianState(transform.output_register, s @ state.mean, cov)


def identity_transform(register):
    """Identity map on ``register``."""
    return SymplecticTransform(np.eye(2 * len(register)), register, register)


def phase_rotation(register, angles):
    """Single-mode phase rotations by ``angles`` (scalar or one per mode)."""
    n = len(register)
    angles = np.broadcast_to(np.asarray(angles, dtype=float), (n,))
    s = np.zeros((2 * n, 2 * n))
    for k, th in enumerate(angles):
        c, sn_ = math.cos(th), math.sin(th)
        s[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = [[c, sn_], [-sn_, c]]
    return SymplecticTransform(s, register, register)


def quarter_waveplate_relabel(state):
    """Move every mode to the circular basis: H -> L, V -> R, labels only.

    The waveplate only fixes the basis in which the q-plate coupling is
    written, so the result shares the input's read-only mean, covariance
    matrix and kept validity report.  Raises BadPolarization if any mode
    is already circular.
    """
    mapping = {"H": "L", "V": "R"}
    new = []
    for m in state.register:
        if m.polarization not in mapping:
            raise BadPolarization(
                f"mode {m} is not linearly polarized; waveplate relabel "
                "expects H/V modes"
            )
        new.append(ModeLabel(mapping[m.polarization], m.oam, m.tag))
    return _with_register(state, ModeRegister(tuple(new)))


def embed_with_vacua(state, vacuum_labels):
    """Append vacuum modes with the given labels.

    cov gains a SHOT_NOISE identity block per added mode, the mean is
    zero-padded, and the register is extended at the end.  Use
    :func:`cvmodes.core.reorder` afterwards to interleave positions.
    A label already in the register raises DuplicateLabel.
    """
    vacuum_labels = tuple(vacuum_labels)
    if not vacuum_labels:
        return state
    n_old = state.n_modes
    n_add = len(vacuum_labels)
    n = n_old + n_add
    cov = np.zeros((2 * n, 2 * n))
    cov[: 2 * n_old, : 2 * n_old] = state.cov
    cov[2 * n_old:, 2 * n_old:] = SHOT_NOISE * np.eye(2 * n_add)
    mean = np.concatenate([state.mean, np.zeros(2 * n_add)])
    register = ModeRegister(tuple(state.register) + vacuum_labels)
    return GaussianState(register, mean, cov)


# ---------------------------------------------------------------------------
# q-plate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QPlateSpec:
    """q-plate parameters: topological charge q and retardation delta.

    2q must be a nonzero integer (the OAM shift per pass).  delta is
    stored normalized into [0, 2pi); the transform matrix for delta and
    delta + 2pi differ by a global sign, which is invisible at the
    covariance level.
    """

    q: float
    delta: float

    def __post_init__(self):
        two_q = 2.0 * self.q
        if (not math.isfinite(two_q) or abs(two_q - round(two_q)) > 1e-12
                or round(two_q) == 0):
            raise ValueError(f"2q must be a nonzero integer, got q={self.q}")
        object.__setattr__(self, "delta", float(self.delta) % (2.0 * math.pi))

    @property
    def oam_shift(self):
        """Integer OAM shift 2q applied to an L-polarized mode."""
        return int(round(2.0 * self.q))


def qplate_pairing(spec, register):
    """Coupled-mode pairs (i, j) under [L,m] <-> [R,m+2q], by register index.

    Every mode must be circular and have exactly one partner present.
    """
    return list(_qplate_layout(spec.oam_shift, register)[0])


@lru_cache(maxsize=64)
def _qplate_layout(shift, register):
    """Pairs and output register of a q-plate with OAM shift ``shift``.

    Built once per ``(shift, register)``; a pairing error is raised again
    on every call, since exceptions are not cached.
    """
    keys = [(m.polarization, m.oam) for m in register]
    pairs = []
    seen = set()
    for i, mode in enumerate(register):
        if not mode.is_circular:
            raise NotCircular(f"mode {mode} is not circularly polarized")
        if i in seen:
            continue
        if mode.polarization == "L":
            partner = ("R", mode.oam + shift)
        else:
            partner = ("L", mode.oam - shift)
        matches = [j for j, key in enumerate(keys) if key == partner]
        if not matches:
            raise UnpairedMode(
                f"mode {mode} has no partner [{partner[0]},{partner[1]}] in "
                "the register; embed the vacuum modes first"
            )
        if len(matches) > 1:
            raise UnpairedMode(
                f"mode {mode} has several candidate partners {matches}; "
                "pairing is ambiguous"
            )
        j = matches[0]
        if j in seen or j == i:
            raise UnpairedMode(f"mode {mode} partner already claimed")
        seen.update((i, j))
        pairs.append((i, j))
    return tuple(pairs), _output_register(register, pairs)


def _output_register(register, pairs):
    # Within each coupled pair the earlier mode becomes <stem>1 and the
    # later <stem>2; polarization and OAM stay put.  Falls back to the
    # original tags when the derived names would collide.
    tags = list(register.tags)
    for i, j in pairs:
        stem = os.path.commonprefix([register[i].tag, register[j].tag]).rstrip("~")
        if not stem:
            return register
        tags[i] = stem + "1"
        tags[j] = stem + "2"
    if len(set(tags)) != len(tags):
        return register
    return ModeRegister(
        tuple(
            ModeLabel(m.polarization, m.oam, t)
            for m, t in zip(register, tags)
        )
    )


def qplate_transform(spec, register):
    """Symplectic action of a q-plate on a fully paired circular register.

    For each coupled pair (p, p') the annihilation operators map as
    ``out_p = cos(delta/2) p - i sin(delta/2) p'`` (and symmetrically for
    p'), i.e. on quadratures ordered (X_p, Y_p, X_p', Y_p'):

        [[ c, 0, 0, s],
         [ 0, c, -s, 0],
         [ 0, s, c, 0],
         [-s, 0, 0, c]]      with c = cos(delta/2), s = sin(delta/2).

    delta = 0 is the identity, delta = pi/2 the balanced splitter, and
    delta = pi exchanges the pair members (up to a 90-degree phase-space
    rotation).  The returned transform is passive and symplectic for all
    delta.
    """
    pairs, output_register = _qplate_layout(spec.oam_shift, register)
    n = len(register)
    c = math.cos(spec.delta / 2.0)
    s = math.sin(spec.delta / 2.0)
    mat = np.zeros((2 * n, 2 * n))
    for i, j in pairs:
        for p, q_ in ((i, j), (j, i)):
            mat[2 * p, 2 * p] = c
            mat[2 * p, 2 * q_ + 1] = s
            mat[2 * p + 1, 2 * p + 1] = c
            mat[2 * p + 1, 2 * q_] = -s
    return SymplecticTransform(mat, register, output_register)


def sigma4_closed_form(params, sn=SHOT_NOISE):
    """Closed-form 8x8 covariance of the distributed four-mode state.

    Evaluates, for a standard-form two-mode input (a, b, c1, c2) and
    partner-mode variance ``sn``, the covariance matrix of the four
    q-plate output modes in register order (a1, a2, b1, b2).  This is an
    independent oracle for the waveplate -> embed -> q-plate(pi/2)
    matrix-product pipeline.
    """
    a, b, c1, c2 = params.a, params.b, params.c1, params.c2
    m = np.array(
        [
            [a + sn, 0, 0, sn - a, c1, 0, 0, -c1],
            [0, a + sn, a - sn, 0, 0, c2, c2, 0],
            [0, a - sn, a + sn, 0, 0, c2, c2, 0],
            [sn - a, 0, 0, a + sn, -c1, 0, 0, c1],
            [c1, 0, 0, -c1, b + sn, 0, 0, sn - b],
            [0, c2, c2, 0, 0, b + sn, b - sn, 0],
            [0, c2, c2, 0, 0, b - sn, b + sn, 0],
            [-c1, 0, 0, c1, sn - b, 0, 0, b + sn],
        ],
        dtype=float,
    )
    return m / 2.0


def opo_source(r, eta=1.0):
    """Two-mode squeezed vacuum from a type-II parametric oscillator.

    Parameters
    ----------
    r : float
        Squeezing parameter, r >= 0.
    eta : float
        Uniform collection efficiency in (0, 1]; eta = 1 gives a pure
        state.

    Returns
    -------
    GaussianState
        Standard-form state with a = b = sn (eta cosh 2r + 1 - eta) and
        c1 = -c2 = sn eta sinh 2r.
    """
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {eta}")
    try:
        a = SHOT_NOISE * (eta * math.cosh(2.0 * r) + 1.0 - eta)
        c = SHOT_NOISE * eta * math.sinh(2.0 * r)
    except OverflowError as exc:
        raise ValueError(f"squeezing parameter r = {r} overflows cosh(2r)") from exc
    return make_standard_form(StandardFormParams(a, a, c, -c))
