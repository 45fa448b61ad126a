import hashlib

import numpy as np
import pytest

from cvmodes import (
    Bipartition,
    GaussianState,
    Method,
    ModeLabel,
    ModeRegister,
    QPlateSpec,
    StandardFormParams,
    Status,
    apply,
    bipartition_scan,
    embed_with_vacua,
    iterative_separability,
    make_standard_form,
    pairwise_entanglement_map,
    partial_transpose,
    phase_rotation,
    ppt_verdict,
    qplate_transform,
    quarter_waveplate_relabel,
    reduce,
    reorder,
    sigma4_closed_form,
    symplectic_eigenvalues,
    vacuum_state,
)
from cvmodes.entanglement import (
    DEFAULT_ITER_TOL,
    DEFAULT_MAX_ITER,
    THRESHOLD_BAND,
    enumerate_bipartitions,
    log_negativity_from_spectrum,
)
from cvmodes import entanglement
from cvmodes.errors import (
    DuplicateIndex,
    IndexOutOfRange,
    NumericalFailure,
    ParseError,
)

from oracles import (
    gklc_reference,
    omega_kron,
    random_mixed_cov,
    random_standard_form,
    std_form_matrix,
    two_mode_nu,
)

EXP = StandardFormParams(0.72, 0.72, 0.51, -0.51)


def circular_register(n=4):
    labels = [("L", 0), ("R", 1), ("R", 0), ("L", -1)]
    return ModeRegister(
        tuple(ModeLabel(p, m, f"m{k + 1}") for k, (p, m) in enumerate(labels[:n]))
    )


def distributed_state(params=EXP):
    return GaussianState(
        ModeRegister(
            (
                ModeLabel("L", 0, "a1"),
                ModeLabel("R", 1, "a2"),
                ModeLabel("R", 0, "b1"),
                ModeLabel("L", -1, "b2"),
            )
        ),
        np.zeros(8),
        sigma4_closed_form(params),
    )


def pipeline_output(params):
    state = quarter_waveplate_relabel(make_standard_form(params))
    state = embed_with_vacua(
        state, (ModeLabel("R", 1, "a~"), ModeLabel("L", -1, "b~"))
    )
    state = reorder(state, [0, 2, 1, 3])
    return apply(qplate_transform(QPlateSpec(0.5, np.pi / 2), state.register), state)


AB = Bipartition((0,), (1,))


# -- partial transpose ---------------------------------------------------------

def test_partial_transpose_is_bit_exact_involution():
    rng = np.random.default_rng(41)
    state = pipeline_output(StandardFormParams(*random_standard_form(rng)))
    pt = partial_transpose(state, [1, 3])
    pt_state = GaussianState(state.register, state.mean, pt)
    again = partial_transpose(pt_state, [1, 3])
    assert np.array_equal(again, state.cov)


def test_partial_transpose_vacuum_fixed():
    state = vacuum_state(circular_register(4))
    assert np.array_equal(partial_transpose(state, [0, 1, 2, 3]), state.cov)


def test_partial_transpose_flips_c2_sign():
    state = make_standard_form(EXP)
    pt = partial_transpose(state, [1])
    expected = std_form_matrix(0.72, 0.72, 0.51, 0.51)
    assert np.allclose(pt, expected, atol=1e-15)


def test_partial_transpose_rejects_empty_or_bad_side():
    state = make_standard_form(EXP)
    with pytest.raises(IndexOutOfRange):
        partial_transpose(state, [])
    with pytest.raises(IndexOutOfRange):
        partial_transpose(state, [5])
    with pytest.raises(DuplicateIndex):
        partial_transpose(state, [1, 1])
    for side in (["1"], [0.9]):
        with pytest.raises(IndexOutOfRange, match="integers"):
            partial_transpose(state, side)


# -- symplectic eigenvalues ------------------------------------------------------

def test_symplectic_eigenvalues_vacuum():
    for n in (1, 2, 4):
        nu = symplectic_eigenvalues(0.5 * np.eye(2 * n))
        assert np.allclose(nu, 0.5, atol=1e-12)


def test_symplectic_eigenvalues_thermal():
    nu = symplectic_eigenvalues(np.diag([1.7, 1.7]))
    assert nu == pytest.approx([1.7], abs=1e-12)


def test_symplectic_eigenvalues_match_closed_form():
    # generic eigensolve against the block-determinant formula, for both
    # the plain and the partially transposed spectrum
    rng = np.random.default_rng(42)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    for _ in range(500):
        a, b, c1, c2 = random_standard_form(rng)
        cov = std_form_matrix(a, b, c1, c2)
        generic = symplectic_eigenvalues(cov)
        closed = np.sort(two_mode_nu(cov))
        assert np.abs(generic - closed).max() <= 1e-10
        generic_pt = symplectic_eigenvalues(flip @ cov @ flip)
        closed_pt = np.sort(two_mode_nu(cov, transposed=True))
        assert np.abs(generic_pt - closed_pt).max() <= 1e-10


def test_symplectic_eigenvalues_source_state():
    nu = symplectic_eigenvalues(std_form_matrix(0.72, 0.72, 0.51, -0.51))
    assert np.allclose(nu, np.sqrt(0.2583), atol=1e-12)


def test_symplectic_eigenvalues_reject_asymmetric():
    bad = np.array([[1.0, 0.2], [0.0, 1.0]])
    with pytest.raises(NumericalFailure):
        symplectic_eigenvalues(bad)


def test_symplectic_eigenvalues_reject_indefinite():
    with pytest.raises(NumericalFailure):
        symplectic_eigenvalues(np.diag([1.0, -1.0]))


def test_symplectic_eigenvalues_reject_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        sigma = 0.5 * np.eye(4)
        sigma[1, 1] = bad
        with pytest.raises(NumericalFailure, match="non-finite"):
            symplectic_eigenvalues(sigma)
        stack = np.stack([0.5 * np.eye(4), sigma])
        with pytest.raises(NumericalFailure, match="non-finite"):
            symplectic_eigenvalues(stack)


def test_symplectic_eigenvalues_stack_rejects_one_bad_slice():
    good = 0.5 * np.eye(4)
    indefinite = np.diag([1.0, 1.0, 1.0, -1.0])
    asymmetric = good.copy()
    asymmetric[0, 1] = 0.2
    for bad, reason in ((indefinite, "positive definite"), (asymmetric, "symmetric")):
        with pytest.raises(NumericalFailure, match=reason):
            symplectic_eigenvalues(np.stack([good, bad, good]))


def random_mixed_states(seed, sizes=(4, 6, 8), per_size=4):
    rng = np.random.default_rng(seed)
    for n in sizes:
        for _ in range(per_size):
            register = ModeRegister(
                tuple(ModeLabel("H", k, f"m{k}") for k in range(n))
            )
            yield GaussianState(register, np.zeros(2 * n), random_mixed_cov(rng, n))


def test_stacked_spectrum_equals_per_slice_calls():
    for state in random_mixed_states(47):
        splits = enumerate_bipartitions(state.n_modes)
        stack = np.stack([partial_transpose(state, s.side_b) for s in splits])
        stacked = symplectic_eigenvalues(stack)
        single = np.stack([symplectic_eigenvalues(m) for m in stack])
        assert np.array_equal(stacked, single)
        # two leading axes broadcast the same way
        assert np.array_equal(symplectic_eigenvalues(stack[None]), stacked[None])


def test_scan_and_pairwise_map_equal_per_split_verdicts():
    escalated = 0
    for state in random_mixed_states(48):
        for split, verdict in bipartition_scan(state):
            expected = ppt_verdict(state, split)
            if expected.status is Status.INCONCLUSIVE:
                expected = iterative_separability(state, split)
                escalated += 1
            assert verdict == expected, split
        for (i, j), verdict in pairwise_entanglement_map(state).pairwise.items():
            assert verdict == ppt_verdict(reduce(state, (i, j)), AB), (i, j)
    assert escalated > 0


def test_physical_spectra_respect_shot_noise_floor():
    rng = np.random.default_rng(43)
    for _ in range(30):
        state = pipeline_output(StandardFormParams(*random_standard_form(rng)))
        nu = symplectic_eigenvalues(state.cov)
        assert nu.min() >= 0.5 - 1e-9


def test_pure_states_have_unit_symplectic_products():
    for r in (0.2, 0.6, 1.1):
        a = np.cosh(2 * r) / 2
        c = np.sinh(2 * r) / 2
        nu = symplectic_eigenvalues(std_form_matrix(a, a, c, -c))
        assert np.prod(2.0 * nu) == pytest.approx(1.0, abs=1e-9)


# -- PPT verdicts -----------------------------------------------------------------

def test_ppt_source_state_entangled():
    verdict = ppt_verdict(make_standard_form(EXP), AB)
    assert verdict.status is Status.ENTANGLED
    assert verdict.method is Method.PPT
    assert verdict.witness == pytest.approx(0.21, abs=1e-3)
    assert verdict.log_negativity == pytest.approx(0.8675, abs=2e-3)
    # oracle route: Delta_tilde = 1.557, det = 0.2583^2
    nu_min, _ = two_mode_nu(std_form_matrix(0.72, 0.72, 0.51, -0.51),
                            transposed=True)
    assert verdict.witness == pytest.approx(nu_min, abs=1e-10)


def test_ppt_same_pair_split_separable():
    state = distributed_state()
    pair = reduce(state, (0, 1))  # a1, a2
    verdict = ppt_verdict(pair, AB)
    assert verdict.status is Status.SEPARABLE
    assert verdict.witness == pytest.approx(0.6, abs=1e-3)
    assert verdict.log_negativity == 0.0
    # oracle: det eps = +0.0121 makes Delta_tilde = 0.72, det = 0.1296
    eps = pair.cov[:2, 2:]
    assert np.linalg.det(eps) == pytest.approx(0.0121, abs=1e-12)
    assert np.linalg.det(pair.cov) == pytest.approx(0.1296, abs=1e-12)


def test_ppt_vacuum_separable():
    state = vacuum_state(circular_register(4))
    verdict = ppt_verdict(state, Bipartition((0, 1), (2, 3)))
    # 2x2 split of an uncorrelated product is decided inconclusive by
    # the transpose alone; singleton splits are conclusive
    assert verdict.status is Status.INCONCLUSIVE
    single = ppt_verdict(state, Bipartition((0,), (1, 2, 3)))
    assert single.status is Status.SEPARABLE
    assert single.log_negativity == 0.0


@pytest.mark.parametrize("side_a, side_b", [
    ((), (0, 1)),          # empty side A
    ((0, 1), ()),          # empty side B
    ((0, 1), (1, 2)),      # overlap
    ((0, 0), (1,)),        # repeated index within a side
    ((0.7,), (1.9,)),      # not integers: no truncation to (0,)|(1,)
    (("0",), (1,)),        # a string is not an index
])
def test_bipartition_rejects_empty_overlapping_or_repeated_sides(side_a, side_b):
    with pytest.raises(IndexOutOfRange):
        Bipartition(side_a, side_b)


def test_bipartition_takes_numpy_integers():
    split = Bipartition((np.int64(1), np.int32(0)), np.array([2]))
    assert (split.side_a, split.side_b) == ((0, 1), (2,))
    assert all(type(k) is int for k in split.side_a + split.side_b)


def test_log_negativity_of_a_stack_equals_its_rows():
    for state in random_mixed_states(49):
        splits = enumerate_bipartitions(state.n_modes)
        stack = symplectic_eigenvalues(
            np.stack([partial_transpose(state, s.side_b) for s in splits])
        )
        stacked = log_negativity_from_spectrum(stack)
        assert stacked.shape == (len(splits),)
        rows = [log_negativity_from_spectrum(nu) for nu in stack]
        assert all(type(v) is float for v in rows)
        assert stacked.tolist() == rows


@pytest.mark.parametrize("band", [float("nan"), float("inf"), -0.001, 0.5])
def test_every_decider_rejects_a_band_outside_zero_to_shot_noise(band):
    state = distributed_state()
    split = Bipartition((0, 1), (2, 3))
    for decide in (lambda: ppt_verdict(state, split, band=band),
                   lambda: iterative_separability(state, split, band=band),
                   lambda: pairwise_entanglement_map(state, band=band),
                   lambda: bipartition_scan(state, band=band)):
        with pytest.raises(ParseError, match="tolerance band"):
            decide()


def invalid_states():
    """An indefinite and an asymmetric 4-mode state; both are finite."""
    register = circular_register(4)
    indefinite = 0.5 * np.eye(8)
    indefinite[3, 3] = -0.5
    asymmetric = 0.5 * np.eye(8)
    asymmetric[0, 5] = 0.2
    return {"positive definite": GaussianState(register, np.zeros(8), indefinite),
            "symmetric": GaussianState(register, np.zeros(8), asymmetric)}


@pytest.mark.parametrize("reason", ["positive definite", "symmetric"])
def test_every_split_decider_still_rejects_an_invalid_matrix(reason):
    # _ppt checks the covariance matrix once, not its sign-flipped copies
    state = invalid_states()[reason]
    split = Bipartition((0, 1), (2, 3))
    for decide in (lambda: ppt_verdict(state, split),
                   lambda: iterative_separability(state, split),
                   lambda: bipartition_scan(state)):
        with pytest.raises(NumericalFailure, match=reason):
            decide()


def test_pairwise_map_checks_the_marginals_it_decides():
    # the X quadratures of three modes carry pairwise correlations -0.6:
    # every two-mode marginal is positive definite, the full matrix is not
    cov = 0.5 * np.eye(6)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        cov[2 * i, 2 * j] = cov[2 * j, 2 * i] = -0.3
    state = GaussianState(circular_register(3), np.zeros(6), cov)
    with pytest.raises(NumericalFailure, match="positive definite"):
        bipartition_scan(state)
    report = pairwise_entanglement_map(state)
    for (i, j), verdict in report.pairwise.items():
        marginal = reduce(state, (i, j))
        assert verdict == ppt_verdict(marginal, AB), (i, j)
        nu_minus, _ = two_mode_nu(marginal.cov, transposed=True)
        assert verdict.witness == pytest.approx(nu_minus, abs=1e-12), (i, j)


def test_split_tables_are_built_once_and_cannot_be_changed():
    state = distributed_state()
    before = bipartition_scan(state)
    splits = enumerate_bipartitions(4)
    splits.reverse()
    splits.append(Bipartition((0,), (1,)))
    splits[0] = Bipartition((0,), (2,))
    assert bipartition_scan(state) == before
    assert [s for s, _ in before] == enumerate_bipartitions(4)
    assert enumerate_bipartitions(4) is not enumerate_bipartitions(4)
    masks, one_by_n = entanglement._splits(4)[1]
    assert masks is entanglement._splits(4)[1][0]
    for table in (masks, one_by_n):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_scan_table_is_kept_per_register_size(n):
    splits, table = entanglement._splits(n)
    assert table is entanglement._splits(n)[1]
    assert splits == tuple(enumerate_bipartitions(n))
    fresh = entanglement._split_table(n, splits)
    for kept, built in zip(table, fresh):
        assert np.array_equal(kept, built)
        assert not kept.flags.writeable


def test_enumeration_builds_no_split_table():
    before = entanglement._splits.cache_info()
    assert len(enumerate_bipartitions(12)) == 12 + 66
    assert entanglement._splits.cache_info() == before


def pt_witness(cov, side_b):
    # smallest symplectic eigenvalue of the Y-flipped matrix, by the oracle's form
    n = cov.shape[0] // 2
    flip = np.ones(2 * n)
    flip[[2 * k + 1 for k in side_b]] = -1.0
    ev = np.linalg.eigvals(omega_kron(n) @ (cov * np.outer(flip, flip)))
    return float(np.abs(ev.imag).min())


@pytest.mark.parametrize("n, side_a, side_b", [
    (4, (0, 1, 2), (3,)),
    (4, (1, 2), (0, 3)),
    (8, (0, 1, 2), (3, 4, 5, 6, 7)),
    (8, (2, 5, 7), (0, 1, 3, 4, 6)),
])
def test_single_split_deciders_take_splits_the_scan_does_not_list(n, side_a, side_b):
    split = Bipartition(side_a, side_b)
    assert split not in enumerate_bipartitions(n)
    one_by_n = min(len(side_a), len(side_b)) == 1
    for state in random_mixed_states(51, sizes=(n,)):
        witness = pt_witness(state.cov, side_b)
        ppt = ppt_verdict(state, split)
        assert ppt.witness == pytest.approx(witness, abs=1e-9)
        expected = (Status.ENTANGLED if witness < 0.5 - THRESHOLD_BAND else
                    Status.SEPARABLE if one_by_n else Status.INCONCLUSIVE)
        assert ppt.status is expected
        verdict = iterative_separability(state, split)
        assert (verdict.status.value, verdict.iterations) == gklc_reference(
            state.cov, (side_a, side_b), DEFAULT_MAX_ITER, DEFAULT_ITER_TOL,
            THRESHOLD_BAND)
        assert (verdict.witness, verdict.log_negativity) == (
            ppt.witness, ppt.log_negativity)


def test_ppt_requires_covering_bipartition():
    state = distributed_state()
    with pytest.raises(IndexOutOfRange):
        ppt_verdict(state, Bipartition((0,), (1, 2)))


def test_ppt_verdicts_invariant_under_reorder():
    state = distributed_state()
    base = ppt_verdict(state, Bipartition((0, 1), (2, 3)))
    perm = [3, 0, 2, 1]
    moved = reorder(state, perm)
    # modes {0, 1} land at the positions where perm points at them
    new_a = tuple(k for k in range(4) if perm[k] in (0, 1))
    new_b = tuple(k for k in range(4) if perm[k] in (2, 3))
    relabeled = ppt_verdict(moved, Bipartition(new_a, new_b))
    assert relabeled.status == base.status
    assert relabeled.witness == pytest.approx(base.witness, abs=1e-10)


def test_ppt_witness_invariant_under_local_rotations():
    rng = np.random.default_rng(44)
    state = distributed_state()
    base = ppt_verdict(state, Bipartition((0, 1), (2, 3)))
    for _ in range(5):
        t = phase_rotation(state.register, rng.uniform(0, 2 * np.pi, size=4))
        rotated = apply(t, state)
        verdict = ppt_verdict(rotated, Bipartition((0, 1), (2, 3)))
        assert verdict.status == base.status
        assert verdict.witness == pytest.approx(base.witness, abs=1e-10)


# -- iterative criterion ------------------------------------------------------------

def test_iterative_agrees_on_source_state():
    verdict = iterative_separability(make_standard_form(EXP), AB)
    assert verdict.status is Status.ENTANGLED
    assert verdict.method is Method.ITERATIVE
    assert verdict.iterations is not None and verdict.iterations >= 1
    assert verdict.log_negativity == pytest.approx(0.8675, abs=2e-3)


def test_iterative_product_state_one_iteration():
    top = make_standard_form(StandardFormParams(0.8, 0.8, 0.2, -0.2))
    cov = np.zeros((8, 8))
    cov[:4, :4] = top.cov
    cov[4:, 4:] = std_form_matrix(0.9, 0.9, 0.3, -0.3)
    state = GaussianState(circular_register(4), np.zeros(8), cov)
    verdict = iterative_separability(state, Bipartition((0, 1), (2, 3)))
    assert verdict.status is Status.SEPARABLE
    assert verdict.iterations == 1


def test_iterative_pair_verdict_pattern():
    state = distributed_state()
    expected = {
        (0, 1): Status.SEPARABLE,
        (0, 2): Status.ENTANGLED,
        (0, 3): Status.ENTANGLED,
        (1, 2): Status.ENTANGLED,
        (1, 3): Status.ENTANGLED,
        (2, 3): Status.SEPARABLE,
    }
    for (i, j), want in expected.items():
        verdict = iterative_separability(reduce(state, (i, j)), AB)
        assert verdict.status is want, (i, j)


def test_stacked_gklc_equals_split_by_split_reference(monkeypatch):
    # every split goes through iterative_separability (a stack of one);
    # the scan stacks its escalated splits, and stacks whose splits finish
    # at different rounds exercise the shrinking live set.  A budget of 2
    # leaves some splits Inconclusive.
    states = [*random_mixed_states(49), distributed_state(),
              vacuum_state(circular_register(4))]
    mixed_rounds = 0
    for max_iter in (2, DEFAULT_MAX_ITER):
        monkeypatch.setattr(entanglement, "DEFAULT_MAX_ITER", max_iter)
        for state in states:
            rounds = set()
            for split, verdict in bipartition_scan(state):
                expected = gklc_reference(
                    state.cov, (split.side_a, split.side_b), max_iter,
                    DEFAULT_ITER_TOL, THRESHOLD_BAND,
                )
                alone = iterative_separability(state, split)
                assert (alone.status, alone.iterations) == expected, split
                if verdict.method is Method.ITERATIVE:
                    assert (verdict.status, verdict.iterations) == expected, split
                    rounds.add(verdict.iterations)
            mixed_rounds += len(rounds) > 1
    assert mixed_rounds > 0


def with_vacuum(rng, n):
    """A random mixed state on n - 1 modes plus one vacuum mode, placed at random."""
    mixed = random_mixed_cov(rng, n - 1)
    cov = 0.5 * np.eye(2 * n)
    cov[2:, 2:] = mixed
    order = rng.permutation(n)
    state = GaussianState(
        ModeRegister(tuple(ModeLabel("H", k, f"m{k}") for k in range(n))),
        np.zeros(2 * n), cov)
    return reorder(state, order), int(np.flatnonzero(order == 0)[0])


def test_gklc_pseudo_inverse_of_a_singular_block_equals_reference():
    # a vacuum mode on side B makes B - i J_B singular (the vacuum block
    # I - i J has eigenvalues 0 and 2), so the recursion needs the
    # pseudo-inverse cutoff from round 1 on
    rng = np.random.default_rng(50)
    singular_rounds = 0
    for n in (4, 5, 6):
        for _ in range(20):
            state, vacuum = with_vacuum(rng, n)
            for split, verdict in bipartition_scan(state):
                if verdict.method is not Method.ITERATIVE:
                    continue
                expected = gklc_reference(
                    state.cov, (split.side_a, split.side_b), DEFAULT_MAX_ITER,
                    DEFAULT_ITER_TOL, THRESHOLD_BAND,
                )
                assert (verdict.status.value, verdict.iterations) == expected, split
                singular_rounds += vacuum in split.side_b and verdict.iterations > 1
    assert singular_rounds > 100


SCAN_ROWS_SHA256 = "4b017d4237e485ab8d2b1a8a4489bcecf02b7680852f98071f1062a42256a172"


def test_scan_verdicts_and_iteration_counts_are_pinned():
    # (split, status, method, iterations) of every split of 240 seeded
    # mixed states, as decided by the recursion written with an eigvalsh
    # floor and numpy's pinv each round
    rng = np.random.default_rng(2026)
    rows = []
    for k in range(240):
        n = (4, 6, 8)[k % 3]
        register = ModeRegister(tuple(ModeLabel("H", j, f"m{j}") for j in range(n)))
        state = GaussianState(register, np.zeros(2 * n), random_mixed_cov(rng, n))
        rows += [((split.side_a, split.side_b), v.status.value, v.method.value,
                  v.iterations) for split, v in bipartition_scan(state)]
    assert len(rows) == 5120
    assert sum(v[3] is not None and v[3] > 1 for v in rows) > 1000
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SCAN_ROWS_SHA256


def test_iterative_inconclusive_when_budget_exhausted(monkeypatch):
    # the source state needs a second round for its certificate
    monkeypatch.setattr(entanglement, "DEFAULT_MAX_ITER", 1)
    verdict = iterative_separability(make_standard_form(EXP), AB)
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.iterations == 1


def test_iterative_boundary_state():
    # for (a, a, c, -c) the transposed spectrum bottoms out at a - c, so
    # a - c = 1/2 sits exactly on the separability boundary; both
    # routes must call it separable (conservative witness semantics)
    state = make_standard_form(StandardFormParams(0.9, 0.9, 0.4, -0.4))
    assert ppt_verdict(state, AB).status is Status.SEPARABLE
    assert ppt_verdict(state, AB).witness == pytest.approx(0.5, abs=1e-12)
    assert iterative_separability(state, AB).status is Status.SEPARABLE


def test_iterative_matches_every_conclusive_ppt_verdict():
    rng = np.random.default_rng(45)
    for _ in range(20):
        state = pipeline_output(StandardFormParams(*random_standard_form(rng)))
        for split in enumerate_bipartitions(4):
            ppt = ppt_verdict(state, split)
            if ppt.status is Status.INCONCLUSIVE:
                continue
            itv = iterative_separability(state, split)
            assert itv.status == ppt.status, split


# -- pairwise map and scan ------------------------------------------------------------

def test_pairwise_map_distributed_pattern():
    report = pairwise_entanglement_map(distributed_state())
    marks = {
        pair: verdict.status for pair, verdict in report.pairwise.items()
    }
    assert marks == {
        (0, 1): Status.SEPARABLE,
        (0, 2): Status.ENTANGLED,
        (0, 3): Status.ENTANGLED,
        (1, 2): Status.ENTANGLED,
        (1, 3): Status.ENTANGLED,
        (2, 3): Status.SEPARABLE,
    }
    # symmetric accessor
    assert report.pair(3, 0).status is Status.ENTANGLED
    with pytest.raises(IndexOutOfRange):
        report.pair(1, 1)


def test_pairwise_map_vacuum_all_separable():
    report = pairwise_entanglement_map(vacuum_state(circular_register(4)))
    assert all(v.status is Status.SEPARABLE for v in report.pairwise.values())


def test_pairwise_map_two_mode_source():
    report = pairwise_entanglement_map(make_standard_form(EXP))
    assert set(report.pairwise) == {(0, 1)}
    assert report.pairwise[(0, 1)].status is Status.ENTANGLED


def test_scan_distributed_state():
    results = dict(
        ((s.side_a, s.side_b), v) for s, v in bipartition_scan(distributed_state())
    )
    assert results[((0,), (1, 2, 3))].status is Status.ENTANGLED
    assert results[((0, 1), (2, 3))].status is Status.ENTANGLED
    # the split separating the two original beams inherits their witness
    assert results[((0, 1), (2, 3))].witness == pytest.approx(0.21, abs=1e-3)
    assert len(results) == 7  # 4 singletons + 3 unordered 2x2 splits


def test_scan_vacuum_all_separable():
    for _, verdict in bipartition_scan(vacuum_state(circular_register(4))):
        assert verdict.status is Status.SEPARABLE


def test_scan_two_modes_has_single_split():
    results = bipartition_scan(make_standard_form(EXP))
    assert len(results) == 1
    assert results[0][1].status is Status.ENTANGLED
    with pytest.raises(IndexOutOfRange):
        bipartition_scan(reduce(make_standard_form(EXP), [0]))


def test_scan_escalates_inconclusive_splits_to_iterative():
    results = bipartition_scan(vacuum_state(circular_register(4)))
    methods = {
        (s.side_a, s.side_b): v.method for s, v in results
    }
    assert methods[((0,), (1, 2, 3))] is Method.PPT
    assert methods[((0, 1), (2, 3))] is Method.ITERATIVE


def test_loss_never_creates_entanglement():
    # uniform loss pulls the state toward shot noise; separable marginal
    # pairs must stay separable along the whole sweep
    rng = np.random.default_rng(46)
    for _ in range(10):
        state = pipeline_output(StandardFormParams(*random_standard_form(rng)))
        statuses = {}
        for pair, verdict in pairwise_entanglement_map(state).pairwise.items():
            statuses[pair] = verdict.status
        for eta in np.linspace(0.9, 0.1, 9):
            lossy = GaussianState(
                state.register,
                np.sqrt(eta) * state.mean,
                eta * state.cov + (1.0 - eta) * 0.5 * np.eye(8),
            )
            for pair, verdict in pairwise_entanglement_map(lossy).pairwise.items():
                if statuses[pair] is Status.SEPARABLE:
                    assert verdict.status is Status.SEPARABLE, (pair, eta)
                statuses[pair] = verdict.status
