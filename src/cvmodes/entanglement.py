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
band below the threshold report Separable rather than falsely Entangled,
and so does a split with zero cross-covariance (every side-A x side-B
entry at most 64 eps max|cov|), which is a product whatever its witness.
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
    _float_array,
    _gather,
    _heisenberg_floor,
    _is_number,
    _mode_indices,
    _shown,
    _record,
    _symplectic_forms,
    symplectic_form,
)
from .errors import IndexOutOfRange, NumericalFailure, ParseError

THRESHOLD_BAND = 1e-9
"""One-sided tolerance below SHOT_NOISE for the entanglement witness."""

DEFAULT_MAX_ITER = 1000
"""Round budget of the iterative criterion; then a split is Inconclusive."""

DEFAULT_ITER_TOL = 1e-10
"""Stopping tolerance on the correlation-block norm of the iteration."""

_G_RATIO = 1e-6
"""Least lambda_min / lambda_max of G = 2 cov - i J for round 1 from inv(G)."""

_PRODUCT_RATIO = 64 * np.finfo(float).eps
"""Largest cross entry / max|cov| of a split that is decided a product."""


class Status(str, enum.Enum):
    ENTANGLED = "entangled"
    SEPARABLE = "separable"
    INCONCLUSIVE = "inconclusive"


_STATUSES = tuple(Status)  # by the status code of _decide


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
                f"{_shown(a, str)} / {_shown(b, str)}"
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
        i, j = _mode_indices((i, j))
        if i == j:
            raise IndexOutOfRange("pairwise table has no diagonal")
        key = (min(i, j), max(i, j))
        if key not in self.pairwise:
            raise IndexOutOfRange(f"pairwise table has no pair {_shown(key, str)}")
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
    DimensionMismatch
        If ``sigma`` is not an array of numbers, such as a string or a
        ragged list.
    NumericalFailure
        If any entry is not finite, or any matrix of the stack is visibly
        asymmetric or not positive definite (all of which signal an
        invalid input rather than roundoff).
    """
    sigma = _float_array(sigma, "sigma")
    n = sigma.shape[-1] // 2 if sigma.ndim >= 2 else 0
    if n == 0 or sigma.shape[-2:] != (2 * n, 2 * n):
        raise NumericalFailure(f"matrix shape {sigma.shape} is not even-square")
    _check_symmetric(sigma)
    _check_positive_definite(sigma)
    return _symplectic_spectrum(sigma)


def _check_symmetric(sigma):
    """NumericalFailure unless every matrix of ``sigma`` is finite and symmetric."""
    if not np.isfinite(sigma).all():
        raise NumericalFailure("matrix has non-finite entries")
    if np.abs(sigma - np.swapaxes(sigma, -1, -2)).max(initial=0.0) > TOL_SYMMETRY:
        raise NumericalFailure("matrix is not symmetric")


def _check_positive_definite(sigma):
    """NumericalFailure unless every matrix of ``sigma``, known finite and
    symmetric, is positive definite.

    This is an eigenvalue test on purpose: a Cholesky factor is no such
    test at extreme squeezing.  The final 8x8 matrix of the opo source
    r = 19.9065, eta = 0.0809 through the q-plate at delta = 0.652 has
    entries up to 7.9e15 and float64 ``eigvalsh`` gives it -0.41, yet
    numpy factors it; with a failed Cholesky as the gate, the pairwise
    map and the scan of that state report Entangled
    (``tests/test_pipeline.py::test_extreme_squeezing_reports_no_false_entanglement``).
    """
    if (np.linalg.eigvalsh(sigma)[..., 0] <= 0).any():
        raise NumericalFailure("matrix is not positive definite")


def _symplectic_spectrum(sigma):
    # symplectic_eigenvalues of a stack that already passed its checks
    ev = np.linalg.eigvals(symplectic_form(sigma.shape[-1] // 2) @ sigma)
    mags = np.sort(np.abs(ev.imag), axis=-1)
    return 0.5 * (mags[..., 0::2] + mags[..., 1::2])


def log_negativity_from_spectrum(nu_tilde):
    """Sum of max(0, -ln 2 nu) over the last axis: a float, or one per row.

    Raises
    ------
    DimensionMismatch
        If ``nu_tilde`` is not an array of numbers, such as a string or a
        ragged list.
    """
    out = _log_negativity(_float_array(nu_tilde, "nu_tilde"))
    return float(out) if out.ndim == 0 else out


def _log_negativity(nu_tilde):
    # log_negativity_from_spectrum of an array of numbers, without a copy
    return np.sum(np.maximum(0.0, -np.log(2.0 * nu_tilde)), axis=-1)


def _check_band(band):
    """ParseError unless ``band`` is a number (:mod:`cvmodes.errors`) in [0, SHOT_NOISE)."""
    if not (_is_number(band) and 0.0 <= band < SHOT_NOISE):
        raise ParseError(
            f"tolerance band must be finite and in [0, {SHOT_NOISE}), got {_shown(band)}"
        )


def _split_table(n, splits):
    """Read-only sign masks, codes if the partial transpose passes (1xN: 1,
    else 2), gather orders (side A first) and side-A sizes of splits of n modes."""
    for s in splits:
        if sorted(s.side_a + s.side_b) != list(range(n)):
            raise IndexOutOfRange(
                f"bipartition {_shown(s.side_a, str)}|{_shown(s.side_b, str)} "
                f"does not cover the {n}-mode register"
            )
    masks = _sign_masks(n, [s.side_b for s in splits])
    passed = np.array([1 if min(len(s.side_a), len(s.side_b)) == 1 else 2
                       for s in splits])
    order = _gather(n, [s.side_a + s.side_b for s in splits])
    size_a = np.array([len(s.side_a) for s in splits])
    for table in (masks, passed, size_a):
        table.flags.writeable = False
    return masks, passed, order, size_a


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
    side-A size.  A split escalates only on one matrix ``cov``; when any
    does, its :func:`_g_inverse` is taken once and its side-A blocks pick
    round 1's route in each call (see :func:`iterative_separability`).
    Positive definiteness is checked after the partial transpose, since
    it needs no spectrum of ``cov`` when that inverse exists, but before
    any :func:`_gklc` call.  Last, a split found Entangled is Separable
    when its slice is a product across it (see :func:`_products`); its
    other fields stay as computed.
    """
    _check_band(band)
    _check_symmetric(cov)
    masks, passed, order, size_a = table
    spectra = _symplectic_spectrum(cov * masks)
    witness = spectra[:, 0]
    codes = np.where(witness < SHOT_NOISE - band, 0, passed).tolist()
    iterations = [None] * len(codes)
    groups = {}
    for k, code in enumerate(codes):
        if code >= escalate:
            groups.setdefault(int(size_a[k]), []).append(k)
    g_inv = _g_inverse(cov) if groups else None
    if g_inv is None:
        # else lambda_min(G) > 0 has shown cov positive definite, as
        # x^T G x = 2 x^T cov x for real x
        _check_positive_definite(cov)
    for m, group in groups.items():
        g_inv_a = None if g_inv is None else g_inv.take(order[group, : 2 * m, : 2 * m])
        for k, decided in zip(group, _gklc(2.0 * cov.take(order[group]), m, band, g_inv_a)):
            codes[k], iterations[k] = decided
    if 0 in codes:
        products = _products(cov, masks)
        if products is not None:
            codes = [1 if c == 0 and p else c for c, p in zip(codes, products.tolist())]
    return [
        _record(EntanglementVerdict, status=_STATUSES[c], witness=w, log_negativity=logneg,
                method=Method.PPT if it is None else Method.ITERATIVE, iterations=it)
        for c, w, logneg, it in zip(codes, witness.tolist(),
                                    _log_negativity(spectra).tolist(), iterations)
    ]


def _products(cov, masks):
    """Whether each split of the sign ``masks`` is a product on its slice of
    ``cov``, or None when every pair of modes of every slice is linked.

    Modes i and j are linked when an entry of their 2x2 block exceeds
    _PRODUCT_RATIO max|cov| of the slice; a split is a product when no
    linked pair crosses it, as a Gaussian state with zero cross-covariance
    is a product state (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).
    A mask's (Y_i, Y_j) entry is -1 exactly when i and j are on two sides.
    """
    magnitude = np.abs(cov)
    # the largest |entry| of each 2x2 block: two elementwise maxima of
    # strided views cost less than one reduction over two axes
    columns = np.maximum(magnitude[..., 0::2], magnitude[..., 1::2])
    blocks = np.maximum(columns[..., 0::2, :], columns[..., 1::2, :])
    linked = blocks > _PRODUCT_RATIO * blocks.max(axis=(-2, -1), keepdims=True)
    if linked.all():
        return None
    return ~(linked & (masks[:, 1::2, 1::2] < 0)).any(axis=(-2, -1))


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

def _gklc(gamma, m, band, g_inv_a=None):
    """GKLC recursion on a stack (k, 2n, 2n) of gamma = 2 cov matrices.

    The first ``m`` modes of every slice form side A.  Returns one
    (status code, iterations) pair per slice, equal to running the
    recursion on each slice alone: every round, over the slices still
    without a certificate, takes ||C||_2 from one stacked ``eigvalsh`` of
    the Gram matrices C C^T and makes one stacked Hermitian eigen-call, of
    B + i J_B (round 1 also takes the floor of A).  ``g_inv_a``, the
    side-A blocks of :func:`_g_inverse` or None, picks round 1's route
    (see :func:`iterative_separability`).  DEFAULT_MAX_ITER and
    DEFAULT_ITER_TOL are read at call time.
    """
    a_blk = gamma[:, : 2 * m, : 2 * m]
    b_blk = gamma[:, 2 * m:, 2 * m:]
    c_blk = gamma[:, : 2 * m, 2 * m:]
    ij_a = _symplectic_forms(m)[1]
    ij_b = _symplectic_forms(gamma.shape[-1] // 2 - m)[1]
    # gamma = 2 cov, so the physicality floor doubles too
    ent_eps = 2.0 * band

    live = list(range(len(gamma)))
    out = [(2, DEFAULT_MAX_ITER)] * len(live)
    floor = _heisenberg_floor(a_blk)
    for it in range(1, DEFAULT_MAX_ITER + 1):
        # ||C||_2 is the root of the largest eigenvalue of the Gram matrix C C^T
        gram = c_blk @ c_blk.transpose(0, 2, 1)
        norm_c = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
        if g_inv_a is None:
            # from round 2 on B is A, so B's floor is A's floor as well
            w, v = np.linalg.eigh(b_blk + ij_b)
            floor = np.minimum(floor, w[:, 0]) if it == 1 else w[:, 0]
        else:
            # G > 0, so no floor is negative, and B's floor matters only
            # where A's passes the norm test; no eigenvectors are needed
            need = floor >= norm_c - 1e-12
            if need.any():
                floor[need] = np.minimum(
                    floor[need], np.linalg.eigvalsh(b_blk[need] + ij_b)[:, 0])
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
        if g_inv_a is not None:
            s = np.linalg.inv(g_inv_a[keep])
            a_blk = s.real
            c_blk = s.imag + ij_a.imag
            g_inv_a = None
        else:
            if len(keep) < len(live):
                a_blk, c_blk, w, v = a_blk[keep], c_blk[keep], w[keep], v[keep]
            # X = C (B - i J_B)^+ C^T with B - i J_B = conj(V) diag(w) V^T;
            # 1/w is dropped where |w| <= 1e-15 max|w|, the cutoff of
            # numpy's pinv
            y = c_blk @ v.conj()
            mag = np.abs(w)
            large = mag > 1e-15 * mag.max(axis=-1, keepdims=True)
            inv_w = np.divide(1.0, w, out=np.zeros(w.shape), where=large)
            x = (y * inv_w[:, None, :]) @ y.conj().transpose(0, 2, 1)
            a_blk = a_blk - x.real
            c_blk = -x.imag
        live = [live[j] for j in keep]
        b_blk = a_blk
        ij_b = ij_a
    return out


def _g_inverse(cov):
    """inv(2 cov - i J) if its spectrum has lambda_min > _G_RATIO lambda_max, else None.

    Such a G is safely positive definite, and so is every principal
    block of it and of its inverse (Cauchy interlacing), with a
    condition number below 1 / _G_RATIO.  A vacuum or pure mode makes G
    singular, and an unphysical matrix makes it indefinite.  A Cholesky
    factor alone is no such test: it exists for near-pure states whose
    inverse blocks are singular in float64.
    """
    g = 2.0 * cov - _symplectic_forms(cov.shape[-1] // 2)[1]
    spectrum = np.linalg.eigvalsh(g)
    if spectrum[0] <= _G_RATIO * spectrum[-1]:
        return None
    return np.linalg.inv(g)


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

    Round 1 takes one of two routes, equal up to roundoff.  Every
    escalated split starts from G = gamma - i J when lambda_min(G) >
    1e-6 lambda_max(G) (one eigvalsh per state): the Schur complement
    gives A - i J_A - X = inv(inv(G)_AA), so one inverse of G and one
    stacked inverse of its side-A blocks replace the eigen-calls on
    B - i J_B.  G > 0 then keeps both floors above zero, so round 1
    cannot certify Entangled, and B's floor is taken only when A's
    passes the norm test min eig >= ||C||_2.  A state whose G fails
    that test (a vacuum or pure mode, G near singular) takes the
    pseudo-inverse of B - i J_B.  Rounds 2 on are the same for both.

    Away from the threshold band, ``Bipartition(a, b)`` and
    ``Bipartition(b, a)`` get the same status.  Their iteration counts
    can differ, since each round sets B <- A; so a split that needs close
    to DEFAULT_MAX_ITER rounds may end Inconclusive in one order only.

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
