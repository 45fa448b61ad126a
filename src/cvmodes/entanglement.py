"""Entanglement and separability decisions for Gaussian states.

Two decision routes are provided.  The partial-transpose route computes
the symplectic spectrum of the Y-sign-flipped covariance matrix; a
minimum eigenvalue below the shot-noise unit witnesses entanglement, and
for 1xN mode splits the test is also conclusive for separability
(R. Simon, Phys. Rev. Lett. 84, 2726 (2000)).  For MxN splits where the
partial transpose passes, the operational iterative criterion of
G. Giedke, B. Kraus, M. Lewenstein, and J. I. Cirac,
Phys. Rev. Lett. 87, 167904 (2001) decides separability exactly.

Witness semantics are conservative: values inside the one-sided numerical
band below the threshold report Separable rather than falsely Entangled.
"""

import enum
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    SHOT_NOISE,
    TOL_SYMMETRY,
    _quadrature_indices,
    symplectic_form,
)
from .errors import ConvergenceStall, IndexOutOfRange, NumericalFailure

THRESHOLD_BAND = 1e-9
"""One-sided tolerance below SHOT_NOISE for the entanglement witness."""

DEFAULT_MAX_ITER = 1000
DEFAULT_ITER_TOL = 1e-10
"""Stopping tolerance on the correlation-block norm of the iteration."""


class Status(str, enum.Enum):
    ENTANGLED = "entangled"
    SEPARABLE = "separable"
    INCONCLUSIVE = "inconclusive"


class Method(str, enum.Enum):
    PPT = "ppt"
    ITERATIVE = "iterative"


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint nonempty index sets; stored sorted."""

    side_a: tuple
    side_b: tuple

    def __post_init__(self):
        a = tuple(sorted(int(k) for k in self.side_a))
        b = tuple(sorted(int(k) for k in self.side_b))
        if not a or not b:
            raise IndexOutOfRange("bipartition sides must be nonempty")
        if set(a) & set(b):
            raise IndexOutOfRange(f"bipartition sides overlap: {a} / {b}")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise IndexOutOfRange("bipartition sides contain repeats")
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)


@dataclass(frozen=True)
class EntanglementVerdict:
    """Outcome of a separability decision.

    ``witness`` is the minimum symplectic eigenvalue of the partially
    transposed covariance matrix (reported for both methods as a
    diagnostic); ``iterations`` is set by the iterative method only.
    """

    status: Status
    witness: float
    log_negativity: float
    method: Method
    iterations: int = None


@dataclass(frozen=True)
class EntanglementReport:
    """Pairwise marginal verdicts plus full-register bipartition verdicts.

    ``pairwise`` maps ordered index pairs (i < j) to verdicts on the
    reduced two-mode state; use :meth:`pair` for symmetric access.  Note
    the two kinds of entry answer different questions: a pairwise entry
    concerns the two-mode marginal, a bipartition entry a split of the
    whole register.
    """

    tags: tuple
    pairwise: dict
    bipartitions: tuple

    def pair(self, i, j):
        if i == j:
            raise IndexOutOfRange("pairwise table has no diagonal")
        key = (min(i, j), max(i, j))
        return self.pairwise[key]


# ---------------------------------------------------------------------------
# partial transpose and symplectic spectra
# ---------------------------------------------------------------------------

def partial_transpose(state, side_b):
    """Covariance matrix with the Y quadratures of ``side_b`` sign-flipped.

    Returns Lambda cov Lambda with Lambda diagonal +-1; an involution,
    bit-exact when applied twice.
    """
    side_b = [int(k) for k in side_b]
    if not side_b:
        raise IndexOutOfRange("side_b must be nonempty")
    n = state.n_modes
    signs = np.ones(2 * n)
    for k in side_b:
        if not 0 <= k < n:
            raise IndexOutOfRange(f"mode index {k} outside register of {n} modes")
        signs[2 * k + 1] = -1.0
    return state.cov * np.outer(signs, signs)


def symplectic_eigenvalues(sigma):
    """Positive symplectic spectrum of symmetric positive-definite matrices.

    ``sigma`` is one matrix of shape (2n, 2n) or a stack of shape
    (..., 2n, 2n); the result has shape (..., n), so a single matrix gives
    shape (n,).  The eigenvalues of i Omega sigma come in +-nu pairs; the
    n positive values of each matrix are returned sorted ascending.  A
    physical covariance matrix has every nu >= SHOT_NOISE.  A stack costs
    one eigen-call and gives the same values, bit for bit, as one call
    per matrix.

    Raises
    ------
    NumericalFailure
        If any entry is not finite, or any matrix of the stack is visibly
        asymmetric, not positive definite, or the eigenvalues of
        Omega sigma have real parts above 1e-9 (all of which signal an
        invalid input rather than roundoff).
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[-1] // 2 if sigma.ndim >= 2 else 0
    if n == 0 or sigma.shape[-2:] != (2 * n, 2 * n):
        raise NumericalFailure(f"matrix shape {sigma.shape} is not even-square")
    if not np.isfinite(sigma).all():
        raise NumericalFailure("matrix has non-finite entries")
    if np.abs(sigma - np.swapaxes(sigma, -1, -2)).max(initial=0.0) > TOL_SYMMETRY:
        raise NumericalFailure("matrix is not symmetric")
    if (np.linalg.eigvalsh(sigma)[..., 0] <= 0).any():
        raise NumericalFailure("matrix is not positive definite")
    ev = np.linalg.eigvals(symplectic_form(n) @ sigma)
    max_re = float(np.abs(ev.real).max(initial=0.0))
    if max_re > 1e-9:
        raise NumericalFailure(
            f"eigenvalues of Omega sigma have real parts up to {max_re:.3e}"
        )
    mags = np.sort(np.abs(ev.imag), axis=-1)
    return 0.5 * (mags[..., 0::2] + mags[..., 1::2])


def log_negativity_from_spectrum(nu_tilde):
    """Sum of max(0, -ln 2 nu) over a partially transposed spectrum."""
    vals = np.asarray(nu_tilde, dtype=float)
    return float(np.sum(np.maximum(0.0, -np.log(2.0 * vals))))


def _check_covering(bipartition, n):
    covered = set(bipartition.side_a) | set(bipartition.side_b)
    if covered != set(range(n)):
        raise IndexOutOfRange(
            f"bipartition {bipartition.side_a}|{bipartition.side_b} does not "
            f"cover the {n}-mode register"
        )


def _ppt_from_spectrum(nu, bipartition, band):
    # The PPT decision on an already computed partially transposed spectrum.
    witness = float(nu[0])
    logneg = log_negativity_from_spectrum(nu)
    if witness < SHOT_NOISE - band:
        status = Status.ENTANGLED
    elif min(len(bipartition.side_a), len(bipartition.side_b)) == 1:
        status = Status.SEPARABLE
    else:
        status = Status.INCONCLUSIVE
    return EntanglementVerdict(status, witness, logneg, Method.PPT)


def ppt_verdict(state, bipartition, band=THRESHOLD_BAND):
    """Partial-transpose verdict on a bipartition covering the register.

    Entangled when the minimum symplectic eigenvalue of the partially
    transposed matrix falls below SHOT_NOISE - band.  When the test
    passes it is conclusive (Separable) only for 1xN splits; larger
    splits return Inconclusive since the partial transpose cannot rule
    out bound entanglement there.
    """
    _check_covering(bipartition, state.n_modes)
    nu = symplectic_eigenvalues(partial_transpose(state, bipartition.side_b))
    return _ppt_from_spectrum(nu, bipartition, band)


# ---------------------------------------------------------------------------
# iterative criterion
# ---------------------------------------------------------------------------

def _min_eig_herm(a_real, j_block):
    return float(np.linalg.eigvalsh(a_real - 1j * j_block)[0])


def iterative_separability(
    state,
    bipartition,
    max_iter=DEFAULT_MAX_ITER,
    tol=DEFAULT_ITER_TOL,
    band=THRESHOLD_BAND,
    *,
    _spectrum=None,
):
    """Operational separability decision for any MxN bipartition.

    Runs the nonlinear matrix recursion of Giedke, Kraus, Lewenstein, and
    Cirac (Phys. Rev. Lett. 87, 167904 (2001)) on gamma = 2 cov, written
    in block form [[A, C], [C^T, B]] with the side-A modes first:

        X = C (B - i J_B)^+ C^T,
        A <- A - Re X,   B <- A,   C <- -Im X.

    Certificates checked each round (J is the symplectic form):

    * some eigenvalue of A - i J_A drops below zero: the input was not
      separable (Entangled);
    * min eig(A - i J_A) >= ||C||_2, or ||C||_2 <= tol with A still
      physical: a product decomposition exists (Separable).

    On the first round both marginal blocks are tested.  Reaching
    ``max_iter`` yields Inconclusive with the iteration count; stalled
    correlation norms without a certificate raise ConvergenceStall.

    The verdict carries the partial-transpose witness and log-negativity
    as diagnostics; agreement with :func:`ppt_verdict` wherever that one
    is conclusive is part of this function's contract.  ``_spectrum`` is
    private: :func:`bipartition_scan` passes the partially transposed
    spectrum it has already computed for this split.
    """
    _check_covering(bipartition, state.n_modes)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be > 0")

    nu = _spectrum
    if nu is None:
        nu = symplectic_eigenvalues(partial_transpose(state, bipartition.side_b))
    witness = float(nu[0])
    logneg = log_negativity_from_spectrum(nu)

    idx = _quadrature_indices(bipartition.side_a + bipartition.side_b)
    gamma = 2.0 * state.cov[np.ix_(idx, idx)]
    m = len(bipartition.side_a)
    a_blk = gamma[: 2 * m, : 2 * m].copy()
    b_blk = gamma[2 * m:, 2 * m:].copy()
    c_blk = gamma[: 2 * m, 2 * m:].copy()
    j_a = symplectic_form(m)
    j_b = symplectic_form(len(bipartition.side_b))
    # gamma = 2 cov, so the physicality floor doubles too
    ent_eps = 2.0 * band

    def _verdict(status, iterations):
        return EntanglementVerdict(status, witness, logneg, Method.ITERATIVE,
                                   iterations=iterations)

    prev_norm = None
    stalled = 0
    for it in range(1, max_iter + 1):
        min_a = _min_eig_herm(a_blk, j_a)
        norm_c = float(np.linalg.norm(c_blk, 2))
        mins = [min_a]
        if it == 1:
            mins.append(_min_eig_herm(b_blk, j_b))
        if min(mins) < -ent_eps:
            return _verdict(Status.ENTANGLED, it)
        if all(v >= norm_c - 1e-12 for v in mins):
            return _verdict(Status.SEPARABLE, it)
        if norm_c <= tol and min(mins) >= -ent_eps:
            return _verdict(Status.SEPARABLE, it)

        if prev_norm is not None and abs(prev_norm - norm_c) <= 1e-15 * max(1.0, norm_c):
            stalled += 1
            if stalled >= 10:
                raise ConvergenceStall(
                    f"correlation norm stuck at {norm_c:.3e} after {it} "
                    "iterations with no certificate"
                )
        else:
            stalled = 0
        prev_norm = norm_c

        x = c_blk @ np.linalg.pinv(b_blk - 1j * j_b, hermitian=True) @ c_blk.T
        a_blk = a_blk - x.real
        b_blk = a_blk.copy()
        c_blk = -x.imag
        j_b = j_a
    return _verdict(Status.INCONCLUSIVE, max_iter)


# ---------------------------------------------------------------------------
# register-level scans
# ---------------------------------------------------------------------------

def pairwise_entanglement_map(state, band=THRESHOLD_BAND):
    """PPT verdict for every two-mode marginal of the state.

    Each unordered pair (i, j) is reduced to its two-mode marginal and
    decided with the partial transpose, which is necessary and sufficient
    there.  These are statements about the marginals, not about
    bipartitions of the full register.  The spectra of all marginals are
    computed in one stacked call.
    """
    n = state.n_modes
    if n < 2:
        raise IndexOutOfRange("pairwise map needs at least two modes")
    pairs = list(combinations(range(n), 2))
    idx = np.array([_quadrature_indices(pair) for pair in pairs])
    flip = np.array([1.0, 1.0, 1.0, -1.0])  # Y of the second mode
    marginals = state.cov[idx[:, :, None], idx[:, None, :]] * np.outer(flip, flip)
    split = Bipartition((0,), (1,))
    table = {
        pair: _ppt_from_spectrum(nu, split, band)
        for pair, nu in zip(pairs, symplectic_eigenvalues(marginals))
    }
    return EntanglementReport(state.register.tags, table, ())


def enumerate_bipartitions(n):
    """All 1x(n-1) and 2x(n-2) unordered splits, in fixed order."""
    if n < 2:
        raise IndexOutOfRange("bipartitions need at least two modes")
    splits = []
    everyone = set(range(n))
    for i in range(n if n > 2 else 1):  # n = 2: {0}|{1} and {1}|{0} coincide
        splits.append(Bipartition((i,), tuple(everyone - {i})))
    if n >= 4:
        for pair in combinations(range(n), 2):
            if n == 4 and 0 not in pair:
                continue  # 2x2 splits are unordered; keep one of each
            splits.append(Bipartition(pair, tuple(everyone - set(pair))))
    return splits


def bipartition_scan(
    state,
    band=THRESHOLD_BAND,
    max_iter=DEFAULT_MAX_ITER,
    tol=DEFAULT_ITER_TOL,
):
    """Decide every enumerated bipartition of the full register.

    The partial transpose runs first, with the spectra of all splits
    computed in one stacked call; splits it leaves Inconclusive are
    escalated to the iterative criterion.  Registers larger than 8 modes
    are refused (the enumeration is exhaustive).
    """
    n = state.n_modes
    if n > 8:
        raise IndexOutOfRange("bipartition scan is limited to 8 modes")
    splits = enumerate_bipartitions(n)
    signs = np.ones((len(splits), 2 * n))
    for row, split in zip(signs, splits):
        row[[2 * k + 1 for k in split.side_b]] = -1.0
    spectra = symplectic_eigenvalues(
        state.cov * (signs[:, :, None] * signs[:, None, :])
    )
    results = []
    for split, nu in zip(splits, spectra):
        verdict = _ppt_from_spectrum(nu, split, band)
        if verdict.status is Status.INCONCLUSIVE:
            verdict = iterative_separability(
                state, split, max_iter=max_iter, tol=tol, band=band,
                _spectrum=nu,
            )
        results.append((split, verdict))
    return results
