"""Entanglement and separability decisions for Gaussian states.

Two decision routes are provided.  The partial-transpose route computes
the symplectic spectrum of the Y-sign-flipped covariance matrix; a
minimum eigenvalue below the shot-noise unit witnesses entanglement, and
for 1xN mode splits the test is also conclusive for separability
(R. Simon, Phys. Rev. Lett. 84, 2726 (2000)).  For MxN splits where the
partial transpose passes, the operational iterative criterion of
G. Giedke, B. Kraus, M. Lewenstein, and J. I. Cirac,
Phys. Rev. Lett. 87, 167904 (2001) decides separability exactly.

All four deciders share one stacked path, so a split gets the same
verdict, bit for bit, from each: one spectrum call decides the partial
transpose of every split, and one recursion per side-A size escalates
the splits it leaves open.

Witness semantics are conservative: values inside the one-sided numerical
band below the threshold report Separable rather than falsely Entangled.
"""

import enum
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .core import (
    SHOT_NOISE,
    TOL_SYMMETRY,
    _check_subset,
    _gather,
    _heisenberg_floor,
    _i_symplectic_form,
    _mode_indices,
    symplectic_form,
)
from .errors import IndexOutOfRange, NumericalFailure, ParseError

THRESHOLD_BAND = 1e-9
"""One-sided tolerance below SHOT_NOISE for the entanglement witness."""

DEFAULT_MAX_ITER = 1000
"""Round budget of the iterative criterion; then a split is Inconclusive."""

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
        a = tuple(sorted(_mode_indices(self.side_a)))
        b = tuple(sorted(_mode_indices(self.side_b)))
        if not a or not b or len(set(a + b)) != len(a + b):
            raise IndexOutOfRange(
                f"bipartition sides must be nonempty with no index repeated: "
                f"{a} / {b}"
            )
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
    bit-exact when applied twice.  ``side_b`` is checked like a subset
    for :func:`~cvmodes.core.reduce`: nonempty, in range, no repeats.
    """
    side_b = _check_subset(side_b, state.n_modes)
    return state.cov * _sign_masks(state.n_modes, [side_b])[0]


def _sign_masks(n, sides_b):
    # one +-1 mask s s^T per side B, with s = -1 on the Y quadratures of
    # its modes: shape (len(sides_b), 2n, 2n)
    signs = np.ones((len(sides_b), 2 * n))
    for row, side_b in zip(signs, sides_b):
        row[[2 * k + 1 for k in side_b]] = -1.0
    return signs[:, :, None] * signs[:, None, :]


def symplectic_eigenvalues(sigma):
    """Positive symplectic spectrum of symmetric positive-definite matrices.

    ``sigma`` is one matrix of shape (2n, 2n) or a stack of shape
    (..., 2n, 2n); the result has shape (..., n), so a single matrix gives
    shape (n,).  By Williamson's theorem the eigenvalues of i Omega sigma
    are real, up to roundoff that is dropped, and come in +-nu pairs; the
    n positive values of each matrix are returned sorted ascending.  A
    physical covariance matrix has every nu >= SHOT_NOISE.  A stack costs
    one eigen-call and gives the same values, bit for bit, as one call
    per matrix.

    Raises
    ------
    NumericalFailure
        If any entry is not finite, or any matrix of the stack is visibly
        asymmetric or not positive definite (all of which signal an
        invalid input rather than roundoff).
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[-1] // 2 if sigma.ndim >= 2 else 0
    if n == 0 or sigma.shape[-2:] != (2 * n, 2 * n):
        raise NumericalFailure(f"matrix shape {sigma.shape} is not even-square")
    _check_positive_definite(sigma)
    return _symplectic_spectrum(sigma)


def _check_positive_definite(sigma):
    """NumericalFailure unless every matrix of ``sigma`` is finite, symmetric and PD."""
    if not np.isfinite(sigma).all():
        raise NumericalFailure("matrix has non-finite entries")
    if np.abs(sigma - np.swapaxes(sigma, -1, -2)).max(initial=0.0) > TOL_SYMMETRY:
        raise NumericalFailure("matrix is not symmetric")
    if (np.linalg.eigvalsh(sigma)[..., 0] <= 0).any():
        raise NumericalFailure("matrix is not positive definite")


def _symplectic_spectrum(sigma):
    # symplectic_eigenvalues of a stack that already passed its checks
    ev = np.linalg.eigvals(symplectic_form(sigma.shape[-1] // 2) @ sigma)
    mags = np.sort(np.abs(ev.imag), axis=-1)
    return 0.5 * (mags[..., 0::2] + mags[..., 1::2])


def log_negativity_from_spectrum(nu_tilde):
    """Sum of max(0, -ln 2 nu) over the last axis: a float, or one per row."""
    vals = np.asarray(nu_tilde, dtype=float)
    out = np.sum(np.maximum(0.0, -np.log(2.0 * vals)), axis=-1)
    return float(out) if out.ndim == 0 else out


def _check_band(band):
    """ParseError unless ``band`` is finite and in [0, SHOT_NOISE)."""
    if not 0.0 <= band < SHOT_NOISE:
        raise ParseError(
            f"tolerance band must be finite and in [0, {SHOT_NOISE}), got {band!r}"
        )


def _split_table(n, splits):
    """Read-only sign masks, 1xN flags, gather orders (side-A quadratures
    first) and side-A sizes of splits that cover n modes."""
    for s in splits:
        if sorted(s.side_a + s.side_b) != list(range(n)):
            raise IndexOutOfRange(
                f"bipartition {s.side_a}|{s.side_b} does not cover the "
                f"{n}-mode register"
            )
    masks = _sign_masks(n, [s.side_b for s in splits])
    one_by_n = np.array([min(len(s.side_a), len(s.side_b)) == 1 for s in splits])
    order = _gather(n, [s.side_a + s.side_b for s in splits])
    size_a = np.array([len(s.side_a) for s in splits])
    for table in (masks, one_by_n, size_a):
        table.flags.writeable = False
    return masks, one_by_n, order, size_a


def _decide(cov, table, band, escalate):
    """Verdict of each split of ``table`` on its slice of the stack ``cov``.

    ``cov`` is a (k, 2n, 2n) stack or one (2n, 2n) matrix, and ``table``
    the :func:`_split_table` of k splits or of one split for every slice.
    Every decider passes here, so this is where ``band`` and ``cov`` are
    checked: the sign-flipped copies D cov D are finite, symmetric and
    positive definite exactly when ``cov`` is.  A status code is an index
    into Status: 0 entangled, 1 separable, 2 inconclusive.  The splits of
    one matrix whose partial-transpose code is at least ``escalate`` (0:
    all, 2: the open ones, 3: none) go on to one :func:`_gklc` call per
    side-A size.
    """
    _check_band(band)
    _check_positive_definite(cov)
    masks, one_by_n, order, size_a = table
    spectra = _symplectic_spectrum(cov * masks)
    witness = spectra[:, 0]
    codes = np.where(witness < SHOT_NOISE - band, 0, np.where(one_by_n, 1, 2)).tolist()
    iterations = [None] * len(codes)
    groups = {}
    for k, code in enumerate(codes):
        if code >= escalate:
            groups.setdefault(int(size_a[k]), []).append(k)
    for m, group in groups.items():
        for k, decided in zip(group, _gklc(2.0 * cov.take(order[group]), m, band)):
            codes[k], iterations[k] = decided
    statuses = list(Status)
    return [
        EntanglementVerdict(statuses[c], w, logneg,
                            Method.PPT if it is None else Method.ITERATIVE, it)
        for c, w, logneg, it in zip(codes, witness.tolist(),
                                    log_negativity_from_spectrum(spectra).tolist(),
                                    iterations)
    ]


def ppt_verdict(state, bipartition, band=THRESHOLD_BAND):
    """Partial-transpose verdict on a bipartition covering the register.

    Entangled when the minimum symplectic eigenvalue of the partially
    transposed matrix falls below SHOT_NOISE - band.  When the test
    passes it is conclusive (Separable) only for 1xN splits; larger
    splits return Inconclusive since the partial transpose cannot rule
    out bound entanglement there.
    """
    table = _split_table(state.n_modes, (bipartition,))
    return _decide(state.cov, table, band, escalate=3)[0]


# ---------------------------------------------------------------------------
# iterative criterion
# ---------------------------------------------------------------------------

def _gklc(gamma, m, band):
    """GKLC recursion on a stack (k, 2n, 2n) of gamma = 2 cov matrices.

    The first ``m`` modes of every slice form side A.  Returns one
    (status code, iterations) pair per slice, equal to running the
    recursion on each slice alone: every round makes one stacked Hermitian
    eigen-call, of B + i J_B, and one stacked SVD over the slices still
    without a certificate (round 1 also takes the floor of A).
    DEFAULT_MAX_ITER and DEFAULT_ITER_TOL are read at call time.
    """
    a_blk = gamma[:, : 2 * m, : 2 * m]
    b_blk = gamma[:, 2 * m:, 2 * m:]
    c_blk = gamma[:, : 2 * m, 2 * m:]
    ij_a = _i_symplectic_form(m)
    ij_b = _i_symplectic_form(gamma.shape[-1] // 2 - m)
    # gamma = 2 cov, so the physicality floor doubles too
    ent_eps = 2.0 * band

    live = list(range(len(gamma)))
    out = [(2, DEFAULT_MAX_ITER)] * len(live)
    min_a = _heisenberg_floor(a_blk)
    for it in range(1, DEFAULT_MAX_ITER + 1):
        # B's spectrum gives its floor and the pseudo-inverse below; from
        # round 2 on B is A, so it gives A's floor as well
        w, v = np.linalg.eigh(b_blk + ij_b)
        norm_c = np.linalg.svd(c_blk, compute_uv=False)[:, 0]
        floor = np.minimum(min_a, w[:, 0]) if it == 1 else w[:, 0]
        keep = []
        for j, (f, c) in enumerate(zip(floor.tolist(), norm_c.tolist())):
            if f < -ent_eps:
                out[live[j]] = (0, it)
            elif f >= c - 1e-12 or (c <= DEFAULT_ITER_TOL and f >= -ent_eps):
                out[live[j]] = (1, it)
            else:
                keep.append(j)
        if not keep:
            break
        if len(keep) < len(live):
            live = [live[j] for j in keep]
            a_blk, c_blk, w, v = a_blk[keep], c_blk[keep], w[keep], v[keep]
        # X = C (B - i J_B)^+ C^T with B - i J_B = conj(V) diag(w) V^T; 1/w
        # is dropped where |w| <= 1e-15 max|w|, the cutoff of numpy's pinv
        y = c_blk @ v.conj()
        mag = np.abs(w)
        large = mag > 1e-15 * mag.max(axis=-1, keepdims=True)
        inv_w = np.divide(1.0, w, out=np.zeros(w.shape), where=large)
        x = (y * inv_w[:, None, :]) @ y.conj().transpose(0, 2, 1)
        a_blk = a_blk - x.real
        b_blk = a_blk
        c_blk = -x.imag
        ij_b = ij_a
    return out


def iterative_separability(state, bipartition, band=THRESHOLD_BAND):
    """Operational separability decision for any MxN bipartition.

    Runs the nonlinear matrix recursion of Giedke, Kraus, Lewenstein, and
    Cirac (Phys. Rev. Lett. 87, 167904 (2001)) on gamma = 2 cov, written
    in block form [[A, C], [C^T, B]] with the side-A modes first:

        X = C (B - i J_B)^+ C^T,
        A <- A - Re X,   B <- A,   C <- -Im X.

    Certificates checked each round (J is the symplectic form):

    * some eigenvalue of A - i J_A drops below zero: the input was not
      separable (Entangled);
    * min eig(A - i J_A) >= ||C||_2, or ||C||_2 <= DEFAULT_ITER_TOL with
      A still physical: a product decomposition exists (Separable).

    On the first round both marginal blocks are tested.  A split with no
    certificate after DEFAULT_MAX_ITER rounds is Inconclusive, with that
    iteration count.

    The verdict carries the partial-transpose witness and log-negativity
    as diagnostics; agreement with :func:`ppt_verdict` wherever that one
    is conclusive is part of this function's contract.  The split is
    decided as a stack of one by the same kernels that serve
    :func:`bipartition_scan`, so both give the same verdict, bit for bit.
    """
    table = _split_table(state.n_modes, (bipartition,))
    return _decide(state.cov, table, band, escalate=0)[0]


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
    pairs, order = _pairs(n)
    verdicts = _decide(state.cov.take(order), _splits(2)[1], band, escalate=3)
    return EntanglementReport(state.register.tags, dict(zip(pairs, verdicts)), ())


def enumerate_bipartitions(n):
    """All 1x(n-1) and 2x(n-2) unordered splits, by side-A size m <= n - m."""
    if n < 2:
        raise IndexOutOfRange("bipartitions need at least two modes")
    return [
        Bipartition(side_a, tuple(k for k in range(n) if k not in side_a))
        for m in range(1, min(2, n // 2) + 1)
        for side_a in combinations(range(n), m)
        if 2 * m < n or 0 in side_a  # an m|m split once, with mode 0 on side A
    ]


@cache
def _pairs(n):
    """The mode pairs (i < j) of n modes and their read-only gather order."""
    pairs = tuple(combinations(range(n), 2))
    return pairs, _gather(n, pairs)


@cache
def _splits(n):
    """The splits of :func:`enumerate_bipartitions` and their table, once per n."""
    splits = tuple(enumerate_bipartitions(n))
    return splits, _split_table(n, splits)


def bipartition_scan(state, band=THRESHOLD_BAND):
    """Decide every enumerated bipartition of the full register.

    The partial transpose runs first, with the spectra of all splits
    computed in one stacked call; splits it leaves Inconclusive are
    escalated to the iterative criterion.  Escalated splits with the same
    side-A size share one stacked run of the recursion, which gives each
    split the verdict :func:`iterative_separability` gives it alone.
    Up to 5 modes every split is listed, at 6-8 modes only the 1|n-1 and
    2|n-2 splits (21 of 31, 28 of 63, 36 of 127); more modes are refused.
    """
    n = state.n_modes
    if n > 8:
        raise IndexOutOfRange("bipartition scan is limited to 8 modes")
    splits, table = _splits(n)
    return list(zip(splits, _decide(state.cov, table, band, escalate=2)))
