"""Independent oracles for the test suite.

Everything here is deliberately built by a different route than the
library: the symplectic form comes from a Kronecker product, two-mode
symplectic spectra come from the block-determinant closed form rather
than a generic eigensolve, and random states are produced by rejection
sampling against a locally written Heisenberg check.
"""

import numpy as np

SN = 0.5


def omega_kron(n):
    return np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def heisenberg_min_eig(cov):
    n = cov.shape[0] // 2
    return np.linalg.eigvalsh(cov + 0.5j * omega_kron(n)).min()


def state_to_dict(state):
    """The document of a state file; ``json.dumps(doc, indent=2)`` plus a
    newline is the text ``cvmodes.io._state_text`` writes."""
    return {
        "convention": {"sn": SN, "ordering": "interleaved"},
        "register": [
            {"tag": m.tag, "polarization": m.polarization, "oam": m.oam}
            for m in state.register
        ],
        "mean": state.mean.tolist(),
        "cov": state.cov.tolist(),
    }


def std_form_matrix(a, b, c1, c2):
    return np.array(
        [[a, 0, c1, 0], [0, a, 0, c2], [c1, 0, b, 0], [0, c2, 0, b]],
        dtype=float,
    )


def two_mode_nu(cov, transposed=False):
    """Closed-form symplectic spectrum (nu_minus, nu_plus) of a 4x4 CM.

    With blocks [[A, C], [C^T, B]]: Delta = det A + det B + 2 det C, and
    nu^2 = (Delta -+ sqrt(Delta^2 - 4 det cov)) / 2.  The partially
    transposed spectrum uses Delta with the sign of det C flipped.
    """
    a_blk = cov[:2, :2]
    b_blk = cov[2:, 2:]
    c_blk = cov[:2, 2:]
    sign = -1.0 if transposed else 1.0
    delta = (
        np.linalg.det(a_blk)
        + np.linalg.det(b_blk)
        + 2.0 * sign * np.linalg.det(c_blk)
    )
    det = np.linalg.det(cov)
    root = np.sqrt(max(delta * delta - 4.0 * det, 0.0))
    nu_minus = np.sqrt(max((delta - root) / 2.0, 0.0))
    nu_plus = np.sqrt((delta + root) / 2.0)
    return nu_minus, nu_plus


def log_negativity_two_mode(cov):
    nu_minus, nu_plus = two_mode_nu(cov, transposed=True)
    return sum(max(0.0, -np.log(2.0 * v)) for v in (nu_minus, nu_plus))


def random_standard_form(rng, a_max=2.5):
    """Rejection-sample physical standard-form parameters (a, b, c1, c2)."""
    while True:
        a = rng.uniform(SN, a_max)
        b = rng.uniform(SN, a_max)
        cm = np.sqrt(a * b)
        c1 = rng.uniform(-cm, cm)
        c2 = rng.uniform(-cm, cm)
        cov = std_form_matrix(a, b, c1, c2)
        if heisenberg_min_eig(cov) >= -1e-12:
            return a, b, c1, c2


def sigma4_reference(a, b, c1, c2, sn=SN):
    """Closed-form 8x8 output covariance in register order (a1, a2, b1, b2).

    Written out from the quadrature relations of the balanced coupling,
    independently of the library's own constructor.
    """
    m = np.zeros((8, 8))

    def blk(i, j, mat):
        m[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = mat
        if i != j:
            m[2 * j: 2 * j + 2, 2 * i: 2 * i + 2] = np.transpose(mat)

    half = 0.5
    blk(0, 0, half * np.diag([a + sn, a + sn]))
    blk(1, 1, half * np.diag([a + sn, a + sn]))
    blk(2, 2, half * np.diag([b + sn, b + sn]))
    blk(3, 3, half * np.diag([b + sn, b + sn]))
    blk(0, 1, half * np.array([[0.0, sn - a], [a - sn, 0.0]]))
    blk(2, 3, half * np.array([[0.0, sn - b], [b - sn, 0.0]]))
    blk(0, 2, half * np.diag([c1, c2]))
    blk(0, 3, half * np.array([[0.0, -c1], [c2, 0.0]]))
    blk(1, 2, half * np.array([[0.0, c2], [-c1, 0.0]]))
    blk(1, 3, half * np.diag([c2, c1]))
    return m


def distribution_weights(delta):
    """Weight of each source mode on q-plate outputs 1 and 2 at retardation delta.

    (cos(delta/2), sin(delta/2)) in absolute value, except that delta = 0
    and delta = pi (mod 2pi) give exact zeros, which floating-point cos
    and sin do not.
    """
    delta = float(delta) % (2.0 * np.pi)
    return (0.0 if delta == np.pi else abs(np.cos(delta / 2.0)),
            0.0 if delta == 0.0 else abs(np.sin(delta / 2.0)))


def distributed_status(side_a, side_b, delta):
    """Exact status of a split of the distributed opo state (a1, a2, b1, b2).

    For a two-mode squeezed source with r > 0 and efficiency eta > 0 the
    q-plate puts weight ``distribution_weights(delta)`` of beam a on
    (a1, a2) and of beam b on (b1, b2).  Mode k belongs to beam "ab"[k // 2]
    at output k % 2.  A split (or pair) is entangled exactly when one side
    holds a mode of one beam and the other side a mode of the other beam,
    both with nonzero weight; otherwise it is separable.
    """
    weights = distribution_weights(delta)

    def beams(side):
        return {"ab"[k // 2] for k in side if weights[k % 2] != 0.0}

    a_beams, b_beams = beams(side_a), beams(side_b)
    entangled = ("a" in a_beams and "b" in b_beams) or (
        "b" in a_beams and "a" in b_beams)
    return "entangled" if entangled else "separable"


def haar_passive(rng, n):
    """Haar-random passive symplectic map of n modes, in (X..., Y...) order."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def random_mixed_cov(rng, n):
    """Squeezed thermal product state under a Haar-random passive map,
    in interleaved (X1, Y1, X2, Y2, ...) order."""
    s = haar_passive(rng, n)
    squeeze = rng.uniform(0.0, 0.4, n)
    nu = rng.uniform(0.5, 1.3, n)
    d = np.diag(np.concatenate([nu * np.exp(2 * squeeze),
                                nu * np.exp(-2 * squeeze)]))
    cov = s @ d @ s.T
    order = [k // 2 + (k % 2) * n for k in range(2 * n)]
    cov = cov[np.ix_(order, order)]
    return 0.5 * (cov + cov.T)


def gklc_reference(cov, bipartition, max_iter, tol, band):
    """Split-by-split GKLC recursion (Giedke et al., PRL 87, 167904 (2001)).

    ``bipartition`` is a pair (side_a, side_b) of mode-index tuples.
    Returns (status, iterations) with status "entangled", "separable" or
    "inconclusive"; a stalled correlation norm raises RuntimeError.  This
    is the one-split-at-a-time loop the library's stacked kernel must
    reproduce exactly.
    """
    side_a, side_b = (tuple(side) for side in bipartition)
    idx = [q for k in side_a + side_b for q in (2 * k, 2 * k + 1)]
    gamma = 2.0 * cov[np.ix_(idx, idx)]
    m = len(side_a)
    a_blk = gamma[: 2 * m, : 2 * m].copy()
    b_blk = gamma[2 * m:, 2 * m:].copy()
    c_blk = gamma[: 2 * m, 2 * m:].copy()
    j_a = omega_kron(m)
    j_b = omega_kron(len(side_b))
    ent_eps = 2.0 * band

    def min_eig_herm(a_real, j_block):
        return float(np.linalg.eigvalsh(a_real - 1j * j_block)[0])

    prev_norm = None
    stalled = 0
    for it in range(1, max_iter + 1):
        min_a = min_eig_herm(a_blk, j_a)
        norm_c = float(np.linalg.norm(c_blk, 2))
        mins = [min_a]
        if it == 1:
            mins.append(min_eig_herm(b_blk, j_b))
        if min(mins) < -ent_eps:
            return "entangled", it
        if all(v >= norm_c - 1e-12 for v in mins):
            return "separable", it
        if norm_c <= tol and min(mins) >= -ent_eps:
            return "separable", it

        if prev_norm is not None and abs(prev_norm - norm_c) <= 1e-15 * max(1.0, norm_c):
            stalled += 1
            if stalled >= 10:
                raise RuntimeError(
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
    return "inconclusive", max_iter
