import inspect
import math

import numpy as np
import pytest

from cvmodes import (
    GaussianState,
    ModeLabel,
    ModeRegister,
    QPlateSpec,
    StandardFormParams,
    apply,
    embed_with_vacua,
    identity_transform,
    make_standard_form,
    opo_source,
    phase_rotation,
    purity,
    qplate_pairing,
    qplate_transform,
    quarter_waveplate_relabel,
    reorder,
    sigma4_closed_form,
    standard_form_matrix,
    symplectic_form,
    total_photon_number,
    two_mode_register,
    vacuum_state,
    validate,
)
from cvmodes import core, transforms
from cvmodes.transforms import SymplecticTransform
from cvmodes.errors import (
    BadPolarization,
    DimensionMismatch,
    DuplicateLabel,
    NonSymplectic,
    NotAPermutation,
    NotCircular,
    PhysicalityViolation,
    RegisterMismatch,
    UnpairedMode,
)

from oracles import random_standard_form, sigma4_reference

EXP = StandardFormParams(0.72, 0.72, 0.51, -0.51)

VAC_A = ModeLabel("R", 1, "a~")
VAC_B = ModeLabel("L", -1, "b~")


def prepared_state(params=EXP):
    """Source -> circular basis -> vacua appended -> pairs interleaved."""
    state = quarter_waveplate_relabel(make_standard_form(params))
    state = embed_with_vacua(state, (VAC_A, VAC_B))
    return reorder(state, [0, 2, 1, 3])


def qplate_pi2(register):
    return qplate_transform(QPlateSpec(0.5, np.pi / 2.0), register)


# -- SymplecticTransform / apply ----------------------------------------------

def test_transform_rejects_non_symplectic():
    reg = two_mode_register()
    with pytest.raises(NonSymplectic):
        SymplecticTransform(np.eye(4) * 2.0, reg, reg)
    for bad in (np.nan, np.inf):
        with pytest.raises(NonSymplectic, match="non-finite"):
            SymplecticTransform(np.full((4, 4), bad), reg, reg)


def test_transform_reports_its_deviation_and_whether_it_is_passive():
    reg = two_mode_register()
    skewed = phase_rotation(reg, 0.3).matrix + 1e-9 * np.outer([1.0, 2.0, 3.0, 4.0],
                                                               [4.0, 3.0, 2.0, 1.0])
    with pytest.raises(NonSymplectic, match=r"^S Omega S\^T deviates from Omega by "
                       r"1\.485e-08 \(tolerance 1e-12\)$"):
        SymplecticTransform(skewed, reg, reg)
    # a squeezer is symplectic but not orthogonal
    assert SymplecticTransform(np.diag([2.0, 0.5, 1.0, 1.0]), reg, reg).passive is False


@pytest.mark.parametrize("mean, cov, what", [
    (np.zeros(8), np.full((8, 8), 1.7e308), "cov"),
    (np.full(8, 1.7e308), 0.5 * np.eye(8), "mean"),
])
def test_apply_refuses_an_output_that_overflows(mean, cov, what):
    state = GaussianState(prepared_state().register, mean, cov)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            PhysicalityViolation, match=f"^{what} entries are not all finite$"):
        apply(qplate_pi2(state.register), state)


def test_transform_rejects_registers_and_matrices_of_other_sizes():
    reg = two_mode_register()
    three = ModeRegister(tuple(ModeLabel("H", k, f"m{k}") for k in range(3)))
    with pytest.raises(RegisterMismatch, match="differ in size"):
        SymplecticTransform(np.eye(4), reg, three)
    with pytest.raises(NonSymplectic, match=r"shape \(6, 6\) does not match 2-mode"):
        SymplecticTransform(np.eye(6), reg, reg)


def test_transform_inputs_that_are_not_arrays_of_numbers():
    reg = two_mode_register()
    with pytest.raises(DimensionMismatch, match="matrix is not an array of numbers"):
        SymplecticTransform([["a"] * 4] * 4, reg, reg)
    with pytest.raises(DimensionMismatch, match="matrix is not an array of numbers"):
        SymplecticTransform([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0]] * 2, reg, reg)
    with pytest.raises(DimensionMismatch, match="one number or one per mode of 2"):
        phase_rotation(reg, [1, 2, 3])


def test_identity_apply_is_noop():
    state = make_standard_form(EXP)
    out = apply(identity_transform(state.register), state)
    assert np.allclose(out.cov, state.cov, atol=1e-15)
    assert out.register == state.register


def test_apply_requires_matching_register():
    state = make_standard_form(EXP)
    other = ModeRegister((ModeLabel("H", 0, "x"), ModeLabel("V", 0, "y")))
    with pytest.raises(RegisterMismatch):
        apply(identity_transform(other), state)


def test_balanced_coupling_fixes_vacuum():
    reg = ModeRegister((ModeLabel("L", 0, "u"), ModeLabel("R", 1, "v")))
    state = vacuum_state(reg)
    out = apply(qplate_pi2(reg), state)
    assert np.allclose(out.cov, 0.5 * np.eye(4), atol=1e-15)


# -- waveplate ----------------------------------------------------------------

def test_waveplate_moves_to_circular_basis():
    state = make_standard_form(EXP)
    out = quarter_waveplate_relabel(state)
    assert [(m.polarization, m.oam, m.tag) for m in out.register] == [
        ("L", 0, "a"),
        ("R", 0, "b"),
    ]
    assert np.array_equal(out.cov, state.cov)
    assert np.array_equal(out.mean, state.mean)


def test_waveplate_on_vacuum():
    out = quarter_waveplate_relabel(vacuum_state(two_mode_register()))
    assert np.array_equal(out.cov, 0.5 * np.eye(4))


def test_waveplate_shares_its_input_arrays_and_report():
    state = make_standard_form(EXP)  # checked, so its report is kept
    out = quarter_waveplate_relabel(state)
    assert out.cov is state.cov and out.mean is state.mean
    assert validate(out) is validate(state)
    assert state.register == two_mode_register()
    assert out == GaussianState(out.register, state.mean, state.cov)
    for arr in (out.mean, out.cov):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    # a state whose report was never asked for gets its own on demand
    fresh = GaussianState(two_mode_register(), np.zeros(4), standard_form_matrix(EXP))
    assert validate(quarter_waveplate_relabel(fresh)) == validate(fresh)


def test_waveplate_shares_its_input_facts():
    state = make_standard_form(EXP)
    facts = state._facts
    assert facts == (total_photon_number(state), purity(state))
    assert quarter_waveplate_relabel(state)._facts is facts


def test_waveplate_twice_is_an_error():
    once = quarter_waveplate_relabel(make_standard_form(EXP))
    with pytest.raises(BadPolarization):
        quarter_waveplate_relabel(once)


# -- embedding ----------------------------------------------------------------

def test_embed_appends_shot_noise_blocks():
    state = quarter_waveplate_relabel(make_standard_form(EXP))
    out = embed_with_vacua(state, (VAC_A, VAC_B))
    assert out.n_modes == 4
    assert np.array_equal(out.cov[:4, :4], state.cov)
    assert np.array_equal(out.cov[4:, 4:], 0.5 * np.eye(4))
    assert np.array_equal(out.cov[:4, 4:], np.zeros((4, 4)))
    assert out.register.tags == ("a", "b", "a~", "b~")


def test_embed_nothing_is_identity():
    state = make_standard_form(EXP)
    assert embed_with_vacua(state, ()) is state


def test_embed_into_vacuum_gives_larger_vacuum():
    out = embed_with_vacua(vacuum_state(two_mode_register()), (VAC_A, VAC_B))
    assert np.array_equal(out.cov, 0.5 * np.eye(8))


def test_embed_rejects_duplicate_labels():
    state = quarter_waveplate_relabel(make_standard_form(EXP))
    with pytest.raises(DuplicateLabel):
        embed_with_vacua(state, (ModeLabel("L", 0, "a"),))


def test_embed_output_is_a_read_only_copy():
    state = quarter_waveplate_relabel(GaussianState(
        two_mode_register(), [0.1, -0.2, 0.3, 0.4], standard_form_matrix(EXP)))
    out = embed_with_vacua(state, (VAC_A, VAC_B))
    cov = np.zeros((8, 8))
    cov[:4, :4] = state.cov
    cov[4:, 4:] = 0.5 * np.eye(4)
    assert out == GaussianState(ModeRegister(state.register.modes + (VAC_A, VAC_B)),
                                np.concatenate([state.mean, np.zeros(4)]), cov)
    for arr, source in ((out.mean, state.mean), (out.cov, state.cov)):
        assert not arr.flags.writeable
        assert not np.shares_memory(arr, source)
    # the register is built once per input register and labels
    assert embed_with_vacua(state, (VAC_A, VAC_B)).register is out.register


def test_layout_caches_are_bounded():
    for cached in (core._selection,
                   transforms._circular_register, transforms._extended_register,
                   transforms._qplate_layout, transforms._qplate_transform):
        assert cached.cache_info().maxsize == 64
    # a function of no arguments caches one result
    assert two_mode_register() is two_mode_register()
    assert core.two_mode_register.cache_info().currsize == 1
    state = make_standard_form(EXP)
    assert (quarter_waveplate_relabel(state).register
            is quarter_waveplate_relabel(state).register)


def test_layout_errors_raise_on_every_call():
    circular = quarter_waveplate_relabel(make_standard_form(EXP))
    for _ in range(2):
        with pytest.raises(BadPolarization):
            quarter_waveplate_relabel(circular)
        with pytest.raises(DuplicateLabel):
            embed_with_vacua(circular, (ModeLabel("L", 0, "a"),))
        with pytest.raises(NotAPermutation):
            reorder(circular, [0, 0])


# -- q-plate ------------------------------------------------------------------

def test_qplate_spec_validation():
    with pytest.raises(ValueError):
        QPlateSpec(0.3, np.pi)
    with pytest.raises(ValueError):
        QPlateSpec(0.0, np.pi)
    for delta in (None, [1.0], 1j):
        with pytest.raises(ValueError, match="delta must be a number"):
            QPlateSpec(0.5, delta)
    assert QPlateSpec(0.5, 9.0).delta == pytest.approx(9.0 - 2 * np.pi)


@pytest.mark.parametrize("q", [np.inf, -np.inf, np.nan, "ab", None, 1j])
def test_qplate_spec_refuses_a_non_finite_charge(q):
    with pytest.raises(ValueError, match="2q must be a nonzero integer"):
        QPlateSpec(q, np.pi)


def test_qplate_pairing_rule():
    state = prepared_state()
    pairs = qplate_pairing(QPlateSpec(0.5, np.pi / 2), state.register)
    assert pairs == [(0, 1), (2, 3)]


def test_qplate_block_at_half_pi():
    reg = ModeRegister((ModeLabel("L", 0, "u"), ModeLabel("R", 1, "u~")))
    t = qplate_pi2(reg)
    expected = np.array(
        [[1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0], [-1, 0, 0, 1]]
    ) / np.sqrt(2.0)
    assert np.allclose(t.matrix, expected, atol=1e-15)
    assert t.passive


def test_qplate_zero_delta_is_identity():
    state = prepared_state()
    t = qplate_transform(QPlateSpec(0.5, 0.0), state.register)
    assert np.array_equal(t.matrix, np.eye(8))


def test_qplate_pi_exchanges_pair_members():
    state = prepared_state()
    t = qplate_transform(QPlateSpec(0.5, np.pi), state.register)
    # full conversion: each mode maps onto its partner through a
    # 90-degree phase-space rotation
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    expected = np.zeros((8, 8))
    for i, j in ((0, 1), (2, 3)):
        expected[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = rot
        expected[2 * j: 2 * j + 2, 2 * i: 2 * i + 2] = rot
    assert np.allclose(t.matrix, expected, atol=1e-15)
    out = apply(t, state)
    for i, j in ((0, 1), (2, 3)):
        si = state.cov[2 * i: 2 * i + 2, 2 * i: 2 * i + 2]
        sj = state.cov[2 * j: 2 * j + 2, 2 * j: 2 * j + 2]
        oi = out.cov[2 * i: 2 * i + 2, 2 * i: 2 * i + 2]
        oj = out.cov[2 * j: 2 * j + 2, 2 * j: 2 * j + 2]
        assert np.allclose(oi, rot @ sj @ rot.T, atol=1e-12)
        assert np.allclose(oj, rot @ si @ rot.T, atol=1e-12)


def test_qplate_output_register_naming():
    state = prepared_state()
    t = qplate_pi2(state.register)
    out = t.output_register
    assert out.tags == ("a1", "a2", "b1", "b2")
    assert [(m.polarization, m.oam) for m in out] == [
        ("L", 0), ("R", 1), ("R", 0), ("L", -1)
    ]


def test_qplate_requires_embedding():
    state = quarter_waveplate_relabel(make_standard_form(EXP))
    with pytest.raises(UnpairedMode):
        qplate_transform(QPlateSpec(0.5, np.pi / 2), state.register)


def test_qplate_requires_circular_modes():
    with pytest.raises(NotCircular):
        qplate_transform(QPlateSpec(0.5, np.pi / 2), two_mode_register())


def test_qplate_symplectic_and_passive_over_delta():
    state = prepared_state()
    omega = symplectic_form(4)
    for delta in np.linspace(0.0, 2 * np.pi, 17, endpoint=False):
        t = qplate_transform(QPlateSpec(0.5, delta), state.register)
        s = t.matrix
        assert np.abs(s @ omega @ s.T - omega).max() <= 1e-12
        assert np.abs(s @ s.T - np.eye(8)).max() <= 1e-12
        assert t.passive


def test_qplate_composition_law_at_cm_level():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a, b, c1, c2 = random_standard_form(rng)
        state = prepared_state(StandardFormParams(a, b, c1, c2))
        d1, d2 = rng.uniform(0.0, 2 * np.pi, size=2)
        step1 = apply(qplate_transform(QPlateSpec(0.5, d1), state.register), state)
        step2 = apply(qplate_transform(QPlateSpec(0.5, d2), step1.register), step1)
        direct = apply(
            qplate_transform(QPlateSpec(0.5, d1 + d2), state.register), state
        )
        assert np.abs(step2.cov - direct.cov).max() <= 1e-12


def test_qplate_half_pi_twice_equals_pi():
    state = prepared_state()
    t1 = qplate_pi2(state.register)
    mid = apply(t1, state)
    twice = apply(qplate_pi2(mid.register), mid)
    once = apply(qplate_transform(QPlateSpec(0.5, np.pi), state.register), state)
    assert np.abs(twice.cov - once.cov).max() <= 1e-12


def test_qplate_other_charges_pair_by_oam_shift():
    reg = ModeRegister((ModeLabel("L", 0, "u"), ModeLabel("R", 3, "u~")))
    pairs = qplate_pairing(QPlateSpec(1.5, np.pi / 2), reg)
    assert pairs == [(0, 1)]
    with pytest.raises(UnpairedMode):
        qplate_pairing(QPlateSpec(0.5, np.pi / 2), reg)


@pytest.mark.parametrize("modes, message", [
    # [L,0] has two [R,1] partners
    ((("L", 0, "a"), ("R", 1, "b"), ("R", 1, "c")), "several candidate partners"),
    # the second [L,0] finds its only [R,1] partner taken by the first
    ((("L", 0, "a"), ("R", 1, "b"), ("L", 0, "c")), "partner already claimed"),
])
def test_qplate_refuses_an_ambiguous_pairing(modes, message):
    reg = ModeRegister(tuple(ModeLabel(*m) for m in modes))
    with pytest.raises(UnpairedMode, match=message):
        qplate_pairing(QPlateSpec(0.5, np.pi / 2), reg)


def qplate_reference(spec, register):
    """q-plate pairs, matrix and output register built without the layout cache."""
    pairs, out, _ = transforms._qplate_layout.__wrapped__(spec.oam_shift, register)
    c, s = math.cos(spec.delta / 2.0), math.sin(spec.delta / 2.0)
    n = len(register)
    mat = np.zeros((2 * n, 2 * n))
    for i, j in pairs:
        for p, q in ((i, j), (j, i)):
            mat[2 * p: 2 * p + 2, 2 * p: 2 * p + 2] = [[c, 0.0], [0.0, c]]
            mat[2 * p: 2 * p + 2, 2 * q: 2 * q + 2] = [[0.0, s], [-s, 0.0]]
    return list(pairs), mat, out


def test_qplate_layout_cache_matches_a_fresh_build():
    rng = np.random.default_rng(1811)
    base = prepared_state()
    for _ in range(24):
        state = reorder(base, rng.permutation(4))
        spec = QPlateSpec(0.5, rng.uniform(0.0, 2 * np.pi))
        first = qplate_transform(spec, state.register)
        for delta in (spec.delta, rng.uniform(0.0, 2 * np.pi)):
            # later calls take the layout built by the first one
            spec = QPlateSpec(0.5, delta)
            pairs, mat, out = qplate_reference(spec, state.register)
            t = qplate_transform(spec, state.register)
            assert np.array_equal(t.matrix, mat)
            assert t.input_register == state.register
            assert t.output_register == out
            assert t.output_register is first.output_register
            assert qplate_pairing(spec, state.register) == pairs
            # the cached build is the transform the public constructor makes
            fresh = SymplecticTransform(mat, state.register, out)
            assert t.matrix.dtype == fresh.matrix.dtype
            assert t.matrix.tobytes() == fresh.matrix.tobytes()
            assert not t.matrix.flags.writeable and not fresh.matrix.flags.writeable
            assert t.passive is fresh.passive is True
            assert repr(t) == repr(fresh)
            again = SymplecticTransform(mat, state.register, out)
            assert (t == t, t == fresh) == (again == again, again == fresh)


def test_qplate_pairing_errors_raise_on_every_call():
    unpaired = quarter_waveplate_relabel(make_standard_form(EXP)).register
    register = prepared_state().register
    cached = transforms._qplate_transform.cache_info().currsize
    for delta in (0.3, 0.3, 1.2):
        with pytest.raises(UnpairedMode):
            qplate_transform(QPlateSpec(0.5, delta), unpaired)
        with pytest.raises(NotCircular):
            qplate_transform(QPlateSpec(0.5, delta), two_mode_register())
        with pytest.raises(UnpairedMode):
            qplate_pairing(QPlateSpec(0.5, delta), unpaired)
    # so does a non-finite delta, which makes the matrix non-finite
    for delta in (math.nan, math.nan, math.inf):
        with pytest.raises(NonSymplectic, match="non-finite"):
            qplate_transform(QPlateSpec(0.5, delta), register)
    assert transforms._qplate_transform.cache_info().currsize == cached


def test_qplate_transform_is_built_once_per_spec_and_register():
    # the benchmark's tracer wraps plain functions only
    assert inspect.isfunction(qplate_transform)
    register = prepared_state().register
    first = qplate_transform(QPlateSpec(0.5, np.pi / 2), register)
    # equal, not identical, arguments give the same transform
    copy = ModeRegister(tuple(ModeLabel(m.polarization, m.oam, m.tag) for m in register))
    assert copy == register and copy is not register
    assert qplate_transform(QPlateSpec(0.5, np.pi / 2), copy) is first
    assert qplate_transform(QPlateSpec(0.5, np.pi / 2 + 2 * np.pi), register) is first
    with pytest.raises(ValueError, match="read-only"):
        first.matrix[0, 0] = 1.0
    # another delta, another register or another q (here one within the
    # tolerance of 2q, so the same pairing) each get their own transform
    others = [
        qplate_transform(QPlateSpec(0.5, np.pi), register),
        qplate_transform(QPlateSpec(0.5, np.pi / 2),
                         reorder(prepared_state(), [1, 0, 3, 2]).register),
        qplate_transform(QPlateSpec(0.5 + 1e-13, np.pi / 2), register),
    ]
    for other in others:
        assert other is not first
    assert not np.array_equal(others[0].matrix, first.matrix)
    assert others[1].input_register != register
    assert np.array_equal(others[2].matrix, first.matrix)


def test_single_mode_marginal_noise_floor_grows():
    # balanced splitting mixes each beam with vacuum: the smallest
    # single-mode quadrature variance at the output cannot drop below
    # the smallest one going in
    state = prepared_state()
    out = apply(qplate_pi2(state.register), state)
    in_min = min(
        np.linalg.eigvalsh(state.cov[2 * k: 2 * k + 2, 2 * k: 2 * k + 2]).min()
        for k in range(4)
    )
    for k in range(4):
        blk = out.cov[2 * k: 2 * k + 2, 2 * k: 2 * k + 2]
        assert np.linalg.eigvalsh(blk).min() >= in_min - 1e-12
        # strictly noisier than the vacuum floor for this excited input
        assert np.linalg.eigvalsh(blk).min() > 0.5 + 1e-6


# -- closed form ---------------------------------------------------------------

def test_closed_form_spot_values():
    cov = sigma4_closed_form(EXP)
    assert cov[0, 0] == pytest.approx(0.61, abs=1e-15)
    assert cov[0, 3] == pytest.approx(-0.11, abs=1e-15)
    assert cov[1, 2] == pytest.approx(0.11, abs=1e-15)
    assert cov[0, 4] == pytest.approx(0.255, abs=1e-15)
    assert cov[0, 7] == pytest.approx(-0.255, abs=1e-15)
    assert cov[3, 2] == 0.0


def test_closed_form_vacuum_in_vacuum_out():
    cov = sigma4_closed_form(StandardFormParams(0.5, 0.5, 0.0, 0.0))
    assert np.array_equal(cov, 0.5 * np.eye(8))


def test_closed_form_uncorrelated_thermal_inputs():
    a = 1.3
    cov = sigma4_closed_form(StandardFormParams(a, a, 0.0, 0.0))
    # no cross-pair correlations, intra-pair anti-diagonal (a - sn)/2
    assert np.array_equal(cov[:4, 4:], np.zeros((4, 4)))
    assert cov[1, 2] == pytest.approx((a - 0.5) / 2)
    assert cov[0, 3] == pytest.approx((0.5 - a) / 2)


def test_closed_form_matches_independent_block_assembly():
    rng = np.random.default_rng(31)
    for _ in range(25):
        a, b, c1, c2 = random_standard_form(rng)
        ours = sigma4_closed_form(StandardFormParams(a, b, c1, c2))
        ref = sigma4_reference(a, b, c1, c2)
        assert np.abs(ours - ref).max() <= 1e-15


def test_pipeline_equals_closed_form():
    rng = np.random.default_rng(32)
    for _ in range(50):
        a, b, c1, c2 = random_standard_form(rng)
        params = StandardFormParams(a, b, c1, c2)
        state = prepared_state(params)
        out = apply(qplate_pi2(state.register), state)
        assert np.abs(out.cov - sigma4_closed_form(params)).max() <= 1e-12


# -- photon conservation -------------------------------------------------------

def test_passive_pipeline_conserves_photons():
    rng = np.random.default_rng(33)
    for _ in range(20):
        a, b, c1, c2 = random_standard_form(rng)
        params = StandardFormParams(a, b, c1, c2)
        state = prepared_state(params)
        before = total_photon_number(state)
        for delta in (0.0, 0.7, np.pi / 2, np.pi, 5.0):
            out = apply(
                qplate_transform(QPlateSpec(0.5, delta), state.register), state
            )
            assert total_photon_number(out) == pytest.approx(before, abs=1e-12)


# -- phase rotation utility ------------------------------------------------------

def test_phase_rotation_is_passive_and_preserves_vacuum():
    reg = two_mode_register()
    t = phase_rotation(reg, [0.3, -1.1])
    assert t.passive
    out = apply(t, vacuum_state(reg))
    assert np.allclose(out.cov, 0.5 * np.eye(4), atol=1e-15)


def test_phase_rotation_refuses_non_finite_angles():
    for bad in (np.nan, np.inf, [0.3, -np.inf]):
        with pytest.raises(NonSymplectic, match="angles are not all finite"):
            phase_rotation(two_mode_register(), bad)


# -- parametric-oscillator source -------------------------------------------------

def test_opo_zero_squeezing_is_vacuum():
    state = opo_source(0.0)
    assert np.array_equal(state.cov, 0.5 * np.eye(4))


def test_opo_unit_efficiency_is_pure():
    for r in (0.1, 0.45, 1.0):
        state = opo_source(r, eta=1.0)
        assert purity(state) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.det(state.cov) == pytest.approx(0.5 ** 4, rel=1e-10)


def test_opo_pure_fit_to_source_variance_overshoots_correlation():
    # solving sn cosh 2r = 0.72 gives c1 = 0.51807..., not the measured
    # 0.51: the bundled source matrix is slightly mixed
    r = np.arccosh(0.72 / 0.5) / 2.0
    state = opo_source(r, eta=1.0)
    c1 = state.cov[0, 2]
    assert c1 == pytest.approx(0.5 * np.sinh(2.0 * r), rel=1e-12)
    assert c1 == pytest.approx(0.5180734, abs=1e-6)
    assert c1 > 0.51


def test_opo_efficiency_mixes_toward_shot_noise():
    state = opo_source(0.5, eta=0.6)
    pure = opo_source(0.5, eta=1.0)
    assert np.allclose(
        state.cov, 0.6 * pure.cov + 0.4 * 0.5 * np.eye(4), atol=1e-12
    )
    assert validate(state).physical


def test_opo_argument_validation():
    with pytest.raises(ValueError):
        opo_source(-0.1)
    with pytest.raises(ValueError):
        opo_source(0.5, eta=0.0)
    with pytest.raises(ValueError):
        opo_source(0.5, eta=1.2)
    # what is not a number raises the documented ValueError, not a TypeError
    for r, eta in (("ab", 0.9), (None, 1.0), ([0.5], 1.0), (1j, 1.0)):
        with pytest.raises(ValueError, match="squeezing parameter must be >= 0"):
            opo_source(r, eta)
    for eta in ("x", None, [0.5], 0.5j):
        with pytest.raises(ValueError, match=r"efficiency must be in \(0, 1\]"):
            opo_source(0.5, eta)
