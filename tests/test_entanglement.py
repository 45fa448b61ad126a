import dataclasses
import hashlib
from itertools import combinations

import numpy as np
import pytest

from cvmodes import (
    Bipartition,
    EntanglementVerdict,
    GaussianState,
    Method,
    ModeLabel,
    ModeRegister,
    QPlateSpec,
    StandardFormParams,
    Status,
    SymplecticTransform,
    apply,
    bipartition_scan,
    distribution_config,
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
    run_pipeline,
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
    DimensionMismatch,
    DuplicateIndex,
    IndexOutOfRange,
    NumericalFailure,
    ParseError,
)

from oracles import (
    distributed_status,
    gklc_reference,
    haar_passive,
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
AB4 = Bipartition((0, 1), (2, 3))
NEAR_THRESHOLD = 1e-7  # witnesses this close to SHOT_NOISE - band are not judged


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


@pytest.mark.parametrize("side_a, side_b", [
    ((False,), (True,)),
    ((0,), (True,)),
    ((np.True_,), (0,)),
])
def test_booleans_are_not_split_indices(side_a, side_b):
    # int reads True as 1 and False as 0; a mode index is refused either way
    with pytest.raises(IndexOutOfRange, match="integers"):
        Bipartition(side_a, side_b)
    with pytest.raises(IndexOutOfRange, match="integers"):
        partial_transpose(make_standard_form(EXP), [*side_a, *side_b][::-1])


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


@pytest.mark.parametrize("shape", [(), (4,), (0, 0), (3, 3), (2, 4), (5, 4, 3)])
def test_symplectic_eigenvalues_reject_a_shape_that_is_not_even_square(shape):
    with pytest.raises(NumericalFailure, match="not even-square"):
        symplectic_eigenvalues(np.ones(shape))


@pytest.mark.parametrize("sigma", ["ab", [[1, 0], [0]], [["x", "y"], ["z", "w"]]])
def test_symplectic_eigenvalues_reject_what_is_not_an_array_of_numbers(sigma):
    with pytest.raises(DimensionMismatch, match="sigma is not an array of numbers"):
        symplectic_eigenvalues(sigma)


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


@pytest.mark.parametrize("nu_tilde", ["ab", [[0.4, 0.6], [0.5]], [["x"]]])
def test_log_negativity_rejects_what_is_not_an_array_of_numbers(nu_tilde):
    with pytest.raises(DimensionMismatch, match="nu_tilde is not an array of numbers"):
        log_negativity_from_spectrum(nu_tilde)


@pytest.mark.parametrize("band", [float("nan"), float("inf"), -0.001, -1.0, 0.5,
                                  "x", None, [1e-9]])
def test_every_decider_rejects_a_band_outside_zero_to_shot_noise(band):
    state = distributed_state()
    split = Bipartition((0, 1), (2, 3))
    # a run whose analyses read no band still refuses one, as the CLI does
    photons_only = distribution_config(analyses=("photons",))
    source = make_standard_form(EXP)
    for decide in (lambda: ppt_verdict(state, split, band=band),
                   lambda: iterative_separability(state, split, band=band),
                   lambda: pairwise_entanglement_map(state, band=band),
                   lambda: bipartition_scan(state, band=band),
                   lambda: run_pipeline(photons_only, state=source, band=band)):
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
    masks, one_by_n, order, size_a = entanglement._splits(4)[1]
    assert masks is entanglement._splits(4)[1][0]
    for table in (masks, one_by_n, order, size_a):
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


@pytest.mark.parametrize("n", range(2, 9))
def test_split_gather_order_takes_each_split_side_a_first(n):
    splits, (_, _, order, size_a) = entanglement._splits(n)
    assert order.shape == (len(splits), 2 * n, 2 * n)
    cov = np.random.default_rng(n).random((2 * n, 2 * n))
    for k, split in enumerate(splits):
        rows = [2 * m + x for m in split.side_a + split.side_b for x in (0, 1)]
        assert np.array_equal(cov.take(order[k]), cov[np.ix_(rows, rows)]), split
        assert size_a[k] == len(split.side_a)
    for table in (order, size_a):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


@pytest.mark.parametrize("decide", [ppt_verdict, iterative_separability])
def test_single_split_deciders_build_a_fresh_table(monkeypatch, decide):
    built = []

    def spy(n, splits):
        built.append((n, splits))
        return split_table(n, splits)

    split_table = entanglement._split_table
    monkeypatch.setattr(entanglement, "_split_table", spy)
    before = entanglement._splits.cache_info()
    split = Bipartition((0, 2), (1, 3))
    verdict = decide(distributed_state(), split)
    assert built == [(4, (split,))]
    assert entanglement._splits.cache_info() == before
    scan = dict(bipartition_scan(distributed_state()))
    assert verdict.witness == scan[split].witness


def parent_enumeration(n):
    # the split list as it was written before the general rule, with one
    # branch for n = 2 and one for n = 4
    splits = []
    everyone = set(range(n))
    for i in range(n if n > 2 else 1):
        splits.append(Bipartition((i,), tuple(everyone - {i})))
    if n >= 4:
        for pair in combinations(range(n), 2):
            if n == 4 and 0 not in pair:
                continue
            splits.append(Bipartition(pair, tuple(everyone - set(pair))))
    return splits


@pytest.mark.parametrize("n", range(2, 13))
def test_enumeration_keeps_the_splits_and_order_of_the_special_cases(n):
    assert enumerate_bipartitions(n) == parent_enumeration(n)


def test_scan_refuses_more_than_eight_modes():
    register = ModeRegister(tuple(ModeLabel("H", k, f"m{k}") for k in range(9)))
    with pytest.raises(IndexOutOfRange, match="limited to 8 modes"):
        bipartition_scan(vacuum_state(register))


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


@pytest.mark.parametrize("first_round", ["inverse", "eigen"])
def test_stacked_gklc_equals_split_by_split_reference(monkeypatch, first_round):
    # every split goes through iterative_separability (a stack of one);
    # the scan stacks its escalated splits, and stacks whose splits finish
    # at different rounds exercise the shrinking live set.  A budget of 2
    # leaves some splits Inconclusive.  Every escalating state whose
    # 2 cov - i J is well conditioned takes round 1 from its inverse,
    # single splits and 4-mode scans too; with the gate shut every state
    # takes the eigen-call route.  Edge inputs: the boundary state
    # a - c = 1/2, states with a vacuum mode (singular B - i J_B, and G,
    # so they keep the eigen-call route) and strongly squeezed states,
    # whose scans escalate no split but whose single splits all escalate
    if first_round == "eigen":
        monkeypatch.setattr(entanglement, "_g_inverse", lambda cov: None)
    rng = np.random.default_rng(55)
    states = [*random_mixed_states(49), distributed_state(),
              vacuum_state(circular_register(4)),
              make_standard_form(StandardFormParams(0.9, 0.9, 0.4, -0.4)),
              *(with_vacuum(rng, n)[0] for n in (6, 8)),
              *(strongly_squeezed(r) for r in (9.0, 10.0))]
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


def strongly_squeezed(r):
    """The distributed 4-mode state of an opo source with eta = 0.9."""
    return run_pipeline(distribution_config(
        source={"kind": "opo", "r": r, "eta": 0.9})).final_state


@pytest.mark.parametrize("r", [9.0, 10.0, 12.0])
def test_iterative_agrees_with_ppt_on_strongly_squeezed_states(r):
    # every 1|3 and 2|2 split of these states is PPT-entangled; at r = 12
    # the split-by-split reference (SVD norm, pinv) certifies some of them
    # Separable in float64, so the stacked kernel is held to the
    # conclusive PPT verdicts here, not to that reference
    state = strongly_squeezed(r)
    for split in enumerate_bipartitions(4):
        ppt = ppt_verdict(state, split)
        assert ppt.status is Status.ENTANGLED, split
        assert iterative_separability(state, split).status is Status.ENTANGLED, split


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


def test_round_one_comes_from_the_inverse_wherever_a_split_escalates(monkeypatch):
    # the gate runs once per decision that escalates a split: a scan at
    # any n with an open split, and every single split; never for a scan
    # whose splits all end at the partial transpose, nor for the pairwise
    # map.  A vacuum mode makes 2 cov - i J singular, and strong squeezing
    # (r = 9) makes it ill conditioned, so those states keep the eigen-call
    # route; seeded mixed states take the inverse
    calls = []
    gate = entanglement._g_inverse

    def spy(cov):
        g_inv = gate(cov)
        calls.append(g_inv is not None)
        return g_inv

    monkeypatch.setattr(entanglement, "_g_inverse", spy)
    rng = np.random.default_rng(51)
    vacuum_states = [with_vacuum(rng, n)[0] for n in (4, 6, 8) for _ in range(4)]
    taken = set()
    for states, route in ((vacuum_states + [strongly_squeezed(9.0)], False),
                          (random_mixed_states(52), True)):
        for state in states:
            n = state.n_modes
            calls.clear()
            escalated = any(v.method is Method.ITERATIVE for _, v in bipartition_scan(state))
            pairwise_entanglement_map(state)
            assert calls == ([route] if escalated else []), n
            taken.add((n, route, escalated))
            for m in range(1, n // 2 + 1):
                calls.clear()
                iterative_separability(state, Bipartition(range(m), range(m, n)))
                assert calls == [route], (n, m)
    assert {(n, route, True) for n in (4, 6, 8) for route in (False, True)} <= taken
    assert {(4, False, False), (4, True, False)} <= taken


@pytest.mark.parametrize("n", [6, 8])
def test_iterative_verdicts_do_not_depend_on_where_each_side_sits(n):
    # each escalated split is decided again by the scan of a reordering of
    # the modes that keeps the order within each side.  Both scans take
    # round 1 from inv(2 cov - i J) on these states, each with its own
    # gather of the side-A blocks, and the inverses of the two G agree up
    # to roundoff, not bit for bit; so status and iteration count must not
    # change, and a failure on new seeds may also be roundoff at the edge
    # of a certificate rather than a wrong gather
    rng = np.random.default_rng(53)
    checked = 0
    for state in random_mixed_states(54, sizes=(n,), per_size=8):
        for split, verdict in bipartition_scan(state):
            if verdict.method is not Method.ITERATIVE:
                continue
            slots = rng.permutation(n)
            new_a = sorted(slots[: len(split.side_a)].tolist())
            new_b = sorted(slots[len(split.side_a):].tolist())
            perm = [0] * n
            for slot, k in zip(new_a + new_b, split.side_a + split.side_b):
                perm[slot] = k
            moved = dict(bipartition_scan(reorder(state, perm)))[Bipartition(new_a, new_b)]
            assert (moved.status, moved.iterations) == (
                verdict.status, verdict.iterations), split
            checked += 1
    assert checked > 20


SCAN_ROWS_SHA256 = "4b017d4237e485ab8d2b1a8a4489bcecf02b7680852f98071f1062a42256a172"
VERDICT_REPRS_SHA256 = "d4d32ffd400293dd1d4d9b1fc16ba9d3a61c7c81bfb1206fc7e7c065208f8853"


def pinned_states():
    """240 seeded mixed states, n cycling through 4, 6 and 8."""
    rng = np.random.default_rng(2026)
    for k in range(240):
        n = (4, 6, 8)[k % 3]
        register = ModeRegister(tuple(ModeLabel("H", j, f"m{j}") for j in range(n)))
        yield GaussianState(register, np.zeros(2 * n), random_mixed_cov(rng, n))


def test_scan_verdicts_and_iteration_counts_are_pinned():
    # (split, status, method, iterations) of every split of 240 seeded
    # mixed states, as decided by the recursion written with an eigvalsh
    # floor and numpy's pinv each round
    rows = []
    for state in pinned_states():
        rows += [((split.side_a, split.side_b), v.status.value, v.method.value,
                  v.iterations) for split, v in bipartition_scan(state)]
    assert len(rows) == 5120
    assert sum(v[3] is not None and v[3] > 1 for v in rows) > 1000
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SCAN_ROWS_SHA256


def test_every_verdict_of_the_pinned_states_keeps_its_bits():
    # the repr of each pairwise and scan verdict carries its witness and
    # log-negativity to the last bit, with status, method and iterations
    digest = hashlib.sha256()
    count = 0
    for state in pinned_states():
        pairwise = pairwise_entanglement_map(state).pairwise
        for verdict in [*pairwise.values(), *(v for _, v in bipartition_scan(state))]:
            digest.update(repr(verdict).encode())
            count += 1
    assert count == 5120 + 80 * (6 + 15 + 28)
    assert digest.hexdigest() == VERDICT_REPRS_SHA256


@pytest.mark.parametrize("status", list(Status))
@pytest.mark.parametrize("method", list(Method))
def test_a_decided_verdict_is_indistinguishable_from_a_constructed_one(status, method):
    # the deciders build verdicts without the dataclass __init__
    iterations = None if method is Method.PPT else 3
    fields = dict(status=status, witness=0.4375, log_negativity=0.1335,
                  method=method, iterations=iterations)
    built = EntanglementVerdict(**fields)
    decided = entanglement._record(EntanglementVerdict, **fields)
    assert type(decided) is EntanglementVerdict
    assert decided == built and built == decided
    assert hash(decided) == hash(built)
    assert repr(decided) == repr(built)
    assert dataclasses.asdict(decided) == dataclasses.asdict(built) == fields
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(decided, name, None)
    assert decided == built
    changed = dataclasses.replace(decided, witness=0.5)
    assert changed == dataclasses.replace(built, witness=0.5) != decided
    assert decided.witness == 0.4375


def test_every_decider_returns_verdicts_equal_to_constructed_ones():
    state = distributed_state()
    verdicts = [ppt_verdict(state, AB4), iterative_separability(state, AB4),
                *pairwise_entanglement_map(state).pairwise.values(),
                *(v for _, v in bipartition_scan(state))]
    assert {v.method for v in verdicts} == set(Method)
    for verdict in verdicts:
        built = EntanglementVerdict(**dataclasses.asdict(verdict))
        assert (verdict, hash(verdict), repr(verdict)) == (built, hash(built), repr(built))


def test_positive_definiteness_is_checked_before_any_iterative_work(monkeypatch):
    # a state that takes round 1 from inv(2 cov - i J) gets no spectrum of
    # cov; an indefinite cov makes that G indefinite too, so it still
    # fails the check before the recursion starts
    def no_recursion(*args):
        raise AssertionError("iterative work on an unchecked matrix")

    monkeypatch.setattr(entanglement, "_gklc", no_recursion)
    state = invalid_states()["positive definite"]
    for decide in (lambda: iterative_separability(state, Bipartition((0, 1), (2, 3))),
                   lambda: bipartition_scan(state)):
        with pytest.raises(NumericalFailure, match="positive definite"):
            decide()


def time_reversed(state):
    """The state with every Y quadrature sign-flipped."""
    signs = np.tile([1.0, -1.0], state.n_modes)
    return GaussianState(state.register, state.mean * signs,
                         state.cov * np.outer(signs, signs))


def assert_same_verdict(got, want, where, iterations=True):
    # witnesses to 1e-12 relative; status only away from the threshold
    # band, and iterations only where both runs have the same side A
    assert got.witness == pytest.approx(want.witness, rel=1e-12, abs=0.0), where
    if abs(want.witness - (0.5 - THRESHOLD_BAND)) > NEAR_THRESHOLD:
        assert (got.status, got.method) == (want.status, want.method), where
        if iterations:
            assert got.iterations == want.iterations, where


@pytest.mark.parametrize("n", [4, 6, 8])
def test_verdicts_do_not_change_under_time_reversal(n):
    # flipping every Y quadrature takes the partial transpose of side B to
    # that of side A, with the same spectrum, and every block A + i J_A of
    # the recursion to its complex conjugate, with the same eigenvalues
    escalated = 0
    for state in random_mixed_states(57, sizes=(n,), per_size=8):
        flipped = time_reversed(state)
        for (split, want), (same, got) in zip(bipartition_scan(state),
                                              bipartition_scan(flipped)):
            assert same == split
            assert_same_verdict(got, want, split)
            escalated += want.method is Method.ITERATIVE
        pairs = pairwise_entanglement_map(flipped).pairwise
        for pair, want in pairwise_entanglement_map(state).pairwise.items():
            assert_same_verdict(pairs[pair], want, pair)
    assert escalated > 5


@pytest.mark.parametrize("n", [4, 6, 8])
def test_transposing_side_a_instead_of_side_b_keeps_every_verdict(n):
    # Bipartition(b, a) transposes the original side A.  Its iteration
    # count may differ, since the recursion sets B <- A each round, so an
    # iterative status is compared only where neither order ran out of rounds
    def ran_out(verdict):
        return (verdict.status is Status.INCONCLUSIVE
                and verdict.iterations == entanglement.DEFAULT_MAX_ITER)

    compared = 0
    for state in random_mixed_states(58, sizes=(n,), per_size=4):
        for split, scanned in bipartition_scan(state):
            swapped = Bipartition(split.side_b, split.side_a)
            witness = symplectic_eigenvalues(partial_transpose(state, split.side_a))[0]
            assert witness == pytest.approx(scanned.witness, rel=1e-12, abs=0.0), split
            assert_same_verdict(ppt_verdict(state, swapped), ppt_verdict(state, split), split)
            got = iterative_separability(state, swapped)
            want = iterative_separability(state, split)
            if ran_out(got) or ran_out(want):
                assert got.witness == pytest.approx(want.witness, rel=1e-12, abs=0.0), split
                continue
            assert_same_verdict(got, want, split, iterations=False)
            compared += want.method is Method.ITERATIVE
    assert compared > 0


def local_symplectic(rng, register, split, squeeze):
    """A map that acts on each side of ``split`` alone: per side Haar
    passive, then single-mode squeezing with |r| <= squeeze, then Haar
    passive."""
    s = np.zeros((2 * len(register),) * 2)
    for side in (split.side_a, split.side_b):
        k = len(side)
        order = [j // 2 + (j % 2) * k for j in range(2 * k)]
        r = rng.uniform(-squeeze, squeeze, k)
        squeezing = np.diag(np.exp(np.column_stack([-r, r]).ravel()))
        left, right = (haar_passive(rng, k)[np.ix_(order, order)] for _ in range(2))
        quadratures = [2 * j + t for j in side for t in (0, 1)]
        s[np.ix_(quadratures, quadratures)] = left @ squeezing @ right
    return SymplecticTransform(s, register, register)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_verdicts_do_not_change_under_local_symplectic_maps(n):
    # a local map S_A (+) S_B keeps the partial-transpose spectrum, and the
    # recursion takes each block A - i J_A to S_A (A - i J_A) S_A^T.  For a
    # passive S_A that is a similarity, so iteration counts must not
    # change; squeezing makes it a congruence, which keeps the sign of
    # every eigenvalue but not its size, so a Separable certificate may
    # fire in another round.  The mapped split goes to the decider whose
    # method the scan used; a split that ran out of rounds on either
    # state is compared by its witness alone
    rng = np.random.default_rng(59)
    compared = 0
    for state in random_mixed_states(60, sizes=(n,), per_size=4):
        for split, want in bipartition_scan(state):
            for squeeze in (0.0, 1.0):
                local = local_symplectic(rng, state.register, split, squeeze)
                assert local.passive is (squeeze == 0.0)
                decide = iterative_separability if want.method is Method.ITERATIVE else ppt_verdict
                got = decide(apply(local, state), split)
                if any(v.status is Status.INCONCLUSIVE and v.iterations == DEFAULT_MAX_ITER
                       for v in (got, want)):
                    assert got.witness == pytest.approx(want.witness, rel=1e-12, abs=0.0)
                    continue
                assert_same_verdict(got, want, (split, squeeze), iterations=local.passive)
                compared += want.method is Method.ITERATIVE
    assert compared > 5


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
    assert report.pair(np.int64(3), 0) is report.pair(0, 3)
    # the diagonal, pairs outside the map and indices that are not ints
    for i, j in [(1, 1), (0, 9), (-1, 2), (1.0, 2), (True, 2), ("1", 2)]:
        with pytest.raises(IndexOutOfRange):
            report.pair(i, j)


def distribution_grid(rng, points=240):
    """Seeded (r, eta, delta) points of the opo distribution pipeline.

    Every 8th point is pure (eta = 1); every 4th sits at a special delta
    (0, pi/2, pi, 3pi/2); the others are at least 0.2 from 0, pi and 2pi.
    """
    special = (0.0, np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0)
    for k in range(points):
        r = rng.uniform(0.1, 2.0)
        eta = 1.0 if k % 8 == 0 else rng.uniform(0.1, 1.0)
        if k % 4 == 0:
            delta = special[rng.integers(len(special))]
        else:
            delta = rng.uniform(0.0, 2.0 * np.pi)
            while min(abs(delta - c) for c in (0.0, np.pi, 2.0 * np.pi)) < 0.2:
                delta = rng.uniform(0.0, 2.0 * np.pi)
        yield r, eta, delta


def test_every_distributed_verdict_matches_the_exact_map():
    checked = 0
    for r, eta, delta in distribution_grid(np.random.default_rng(21)):
        report = run_pipeline(distribution_config(
            source={"kind": "opo", "r": r, "eta": eta}, delta=delta)).report
        splits = [((i,), (j,), v) for (i, j), v in report.pairwise.items()]
        splits += [(s.side_a, s.side_b, v) for s, v in report.bipartitions]
        for side_a, side_b, verdict in splits:
            expected = distributed_status(side_a, side_b, delta)
            assert verdict.status.value == expected, (r, eta, delta, side_a, side_b)
        checked += len(splits)
    assert checked == 240 * (6 + 7)


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
