import numpy as np
import pytest

from cvmodes import (
    GaussianState,
    ModeLabel,
    ModeRegister,
    StandardFormParams,
    make_standard_form,
    mean_photon_number,
    purity,
    reduce,
    reorder,
    sigma4_closed_form,
    symplectic_form,
    total_photon_number,
    two_mode_register,
    vacuum_state,
    validate,
)
from cvmodes import core
from cvmodes.errors import (
    DimensionMismatch,
    DuplicateIndex,
    DuplicateLabel,
    IndexOutOfRange,
    NonPositiveDeterminant,
    NotAPermutation,
    PhysicalityViolation,
)
from cvmodes.fixtures import load_matrix_fixture

from oracles import heisenberg_min_eig, random_standard_form, std_form_matrix

EXP = StandardFormParams(0.72, 0.72, 0.51, -0.51)


def circular_register(n=4):
    labels = [("L", 0), ("R", 1), ("R", 0), ("L", -1), ("L", 2), ("R", 3)]
    return ModeRegister(
        tuple(ModeLabel(p, m, f"m{k + 1}") for k, (p, m) in enumerate(labels[:n]))
    )


def random_state(rng, n=3):
    # physical by construction: cov = sn*I + L L^T
    lmat = rng.normal(size=(2 * n, 2 * n)) * 0.3
    cov = 0.5 * np.eye(2 * n) + lmat @ lmat.T
    return GaussianState(circular_register(n), rng.normal(size=2 * n) * 0.1, cov)


# -- labels and registers ----------------------------------------------------

def test_register_rejects_duplicate_triples():
    with pytest.raises(DuplicateLabel):
        ModeRegister((ModeLabel("H", 0, "a"), ModeLabel("H", 0, "a")))


def test_register_allows_same_physical_label_distinct_tags():
    reg = ModeRegister((ModeLabel("H", 0, "a"), ModeLabel("H", 0, "b")))
    assert reg.tags == ("a", "b")
    assert reg.index("b") == 1


def test_mode_label_validation():
    with pytest.raises(ValueError):
        ModeLabel("X", 0, "a")
    with pytest.raises(ValueError):
        ModeLabel("H", 0.5, "a")
    with pytest.raises(ValueError):
        ModeLabel("H", 0, "")


def test_symplectic_form_properties():
    for n in (1, 2, 4):
        om = symplectic_form(n)
        assert np.array_equal(om, -om.T)
        assert np.allclose(om @ om, -np.eye(2 * n))


def test_symplectic_form_is_cached_and_read_only():
    om = symplectic_form(3)
    assert symplectic_form(3) is om
    assert not om.flags.writeable
    with pytest.raises(ValueError):
        om[0, 1] = 2.0


# -- standard form -----------------------------------------------------------

def test_standard_form_source_matrix():
    state = make_standard_form(EXP)
    expected = np.array(
        [
            [0.72, 0, 0.51, 0],
            [0, 0.72, 0, -0.51],
            [0.51, 0, 0.72, 0],
            [0, -0.51, 0, 0.72],
        ]
    )
    assert np.array_equal(state.cov, expected)
    assert np.array_equal(state.mean, np.zeros(4))
    assert state.register.tags == ("a", "b")
    assert (state.register[0].polarization, state.register[0].oam) == ("H", 0)
    assert (state.register[1].polarization, state.register[1].oam) == ("V", 0)


def test_standard_form_vacuum_case():
    state = make_standard_form(StandardFormParams(0.5, 0.5, 0.0, 0.0))
    assert np.array_equal(state.cov, 0.5 * np.eye(4))


def test_standard_form_pure_squeezed():
    r = 0.3
    a = np.cosh(2 * r) / 2
    c = np.sinh(2 * r) / 2
    state = make_standard_form(StandardFormParams(a, a, c, -c))
    # direct determinant evaluation: pure two-mode state has det = 1/16
    assert np.linalg.det(state.cov) == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert purity(state) == pytest.approx(1.0, abs=1e-12)
    assert validate(state).physical


def test_standard_form_rejects_unphysical():
    # too much correlation for the local variances
    with pytest.raises(PhysicalityViolation):
        make_standard_form(StandardFormParams(0.7, 0.7, 0.5, -0.5))
    with pytest.raises(PhysicalityViolation):
        make_standard_form(StandardFormParams(0.4, 0.4, 0.0, 0.0))


def test_standard_form_needs_two_mode_register():
    with pytest.raises(DimensionMismatch):
        make_standard_form(EXP, register=circular_register(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_rejects_non_finite_entries(bad):
    cov, mean = 0.5 * np.eye(4), np.zeros(4)
    cov[1, 1], mean[2] = bad, bad
    with pytest.raises(PhysicalityViolation, match="cov entries are not all finite"):
        GaussianState(two_mode_register(), np.zeros(4), cov)
    with pytest.raises(PhysicalityViolation, match="mean entries are not all finite"):
        GaussianState(two_mode_register(), mean, 0.5 * np.eye(4))


# -- validate ----------------------------------------------------------------

def test_validate_vacuum_four_modes():
    report = validate(vacuum_state(circular_register(4)))
    assert report.symmetric
    assert report.physical
    assert abs(report.min_heisenberg_eigenvalue) <= 1e-12


def test_validity_report_is_computed_once_and_kept():
    state = random_state(np.random.default_rng(5))
    assert validate(state) is validate(state)
    assert validate(state) is state.validity


def test_validate_zero_matrix_unphysical():
    reg = two_mode_register()
    report = validate(GaussianState(reg, np.zeros(4), np.zeros((4, 4))))
    assert report.symmetric
    assert not report.physical
    assert report.min_heisenberg_eigenvalue == pytest.approx(-0.5, abs=1e-12)


def test_validate_published_matrix_with_corrected_typo_cell():
    # The two-decimal published matrix, bad cell set to the closed-form 0,
    # is slightly below the Heisenberg floor: its rounded entries imply
    # more correlation than its variances can carry.  Frozen from a
    # direct eigenvalue check.
    printed, meta = load_matrix_fixture("sigma4_printed")
    corrected = printed.copy()
    for r, c in meta["typo_cells"]:
        corrected[r, c] = meta["typo_corrected_value"]
    state = GaussianState(circular_register(4), np.zeros(8), corrected)
    report = validate(state)
    assert report.symmetric
    assert not report.physical
    assert report.min_heisenberg_eigenvalue == pytest.approx(
        -7.1067811865e-3, abs=1e-9
    )
    assert heisenberg_min_eig(corrected) == pytest.approx(
        report.min_heisenberg_eigenvalue, abs=1e-12
    )


def test_validate_exact_output_matrix_physical():
    exact, _ = load_matrix_fixture("sigma4_exact")
    state = GaussianState(circular_register(4), np.zeros(8), exact)
    assert validate(state).physical


def test_validate_detects_asymmetry():
    cov = 0.5 * np.eye(4)
    cov[0, 1] = 1e-6
    report = validate(GaussianState(two_mode_register(), np.zeros(4), cov))
    assert not report.symmetric
    assert not report.physical


# -- reduce ------------------------------------------------------------------

def test_reduce_distributed_pair():
    cov4 = sigma4_closed_form(EXP)
    state = GaussianState(circular_register(4), np.zeros(8), cov4)
    pair = reduce(state, (0, 2))  # a1, b1
    assert np.allclose(np.diag(pair.cov), 0.61, atol=1e-12)
    assert np.allclose(pair.cov[:2, 2:], np.diag([0.255, -0.255]), atol=1e-12)
    assert pair.register.tags == ("m1", "m3")


def test_reduce_all_is_identity():
    state = make_standard_form(EXP)
    again = reduce(state, (0, 1))
    assert np.array_equal(again.cov, state.cov)
    assert np.array_equal(again.mean, state.mean)
    assert again.register == state.register


def test_reduce_vacuum_single_mode():
    state = reduce(vacuum_state(circular_register(4)), [1])
    assert state.n_modes == 1
    assert np.array_equal(state.cov, 0.5 * np.eye(2))


def test_reduce_errors():
    state = vacuum_state(circular_register(4))
    with pytest.raises(IndexOutOfRange):
        reduce(state, [0, 7])
    with pytest.raises(DuplicateIndex):
        reduce(state, [1, 1])
    with pytest.raises(IndexOutOfRange):
        reduce(state, [])
    # an index is an integer: no truncation of 0.5 to 0, no reading of "1"
    for subset in ([0.5, 2.9], ["1"], [np.float64(1.0)]):
        with pytest.raises(IndexOutOfRange, match="integers"):
            reduce(state, subset)
    assert reduce(state, np.array([0, 2])) == reduce(state, [0, 2])


# -- reorder -----------------------------------------------------------------

def test_reorder_identity():
    state = make_standard_form(EXP)
    same = reorder(state, [0, 1])
    assert np.array_equal(same.cov, state.cov)


def test_reorder_swap_exchanges_blocks():
    state = make_standard_form(StandardFormParams(0.9, 0.7, 0.3, -0.2))
    swapped = reorder(state, [1, 0])
    assert np.array_equal(swapped.cov[:2, :2], state.cov[2:, 2:])
    assert np.array_equal(swapped.cov[2:, 2:], state.cov[:2, :2])
    assert np.array_equal(swapped.cov[:2, 2:], state.cov[:2, 2:].T)
    assert swapped.register.tags == ("b", "a")


def test_reorder_round_trip_bit_exact():
    rng = np.random.default_rng(11)
    state = random_state(rng, n=4)
    perm = rng.permutation(4)
    inverse = np.argsort(perm)
    back = reorder(reorder(state, perm), inverse)
    assert np.array_equal(back.cov, state.cov)
    assert np.array_equal(back.mean, state.mean)
    assert back.register == state.register


def test_reorder_rejects_non_permutation():
    state = vacuum_state(circular_register(3))
    with pytest.raises(NotAPermutation):
        reorder(state, [0, 1, 1])
    with pytest.raises(NotAPermutation):
        reorder(state, [0, 1])
    for perm in ([2.2, 0.1, 1.0], ["2", "0", "1"]):
        with pytest.raises(IndexOutOfRange, match="integers"):
            reorder(state, perm)
    assert reorder(state, np.array([2, 0, 1])) == reorder(state, [2, 0, 1])


# -- photon numbers and purity ----------------------------------------------

def test_vacuum_photon_numbers():
    state = vacuum_state(circular_register(4))
    for k in range(4):
        assert mean_photon_number(state, k) == pytest.approx(0.0, abs=1e-15)
    assert total_photon_number(state) == pytest.approx(0.0, abs=1e-15)


def test_source_photon_numbers():
    state = make_standard_form(EXP)
    # (0.72 + 0.72 - 1) / 2 per mode
    for k in range(2):
        assert mean_photon_number(state, k) == pytest.approx(0.22, abs=1e-12)
    assert total_photon_number(state) == pytest.approx(0.44, abs=1e-12)


def test_distributed_photon_numbers():
    cov4 = sigma4_closed_form(EXP)
    state = GaussianState(circular_register(4), np.zeros(8), cov4)
    for k in range(4):
        assert mean_photon_number(state, k) == pytest.approx(0.11, abs=1e-12)
    assert total_photon_number(state) == pytest.approx(0.44, abs=1e-12)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_total_photons_are_the_left_to_right_sum_of_mode_photons(n, monkeypatch):
    rng = np.random.default_rng(n)
    lmat = rng.normal(size=(2 * n, 2 * n)) * 0.3
    register = ModeRegister(tuple(ModeLabel("H", k, f"m{k}") for k in range(n)))
    state = GaussianState(register, rng.normal(size=2 * n),
                          0.5 * np.eye(2 * n) + lmat @ lmat.T)
    expected = sum(mean_photon_number(state, k) for k in range(n))
    checked = []
    monkeypatch.setattr(core, "_check_subset",
                        lambda *args: checked.append(args) or [])
    assert total_photon_number(state) == expected
    assert checked == []


def test_mean_contributions_count_as_photons():
    reg = circular_register(1)
    state = GaussianState(reg, [1.0, 1.0], 0.5 * np.eye(2))
    assert mean_photon_number(state, 0) == pytest.approx(1.0, abs=1e-12)


def test_purity_values():
    assert purity(vacuum_state(circular_register(3))) == pytest.approx(1.0)
    state = make_standard_form(EXP)
    # det = (0.72^2 - 0.51^2)^2 = 0.2583^2, mu = 1 / (4 * 0.2583)
    assert purity(state) == pytest.approx(1.0 / (4.0 * 0.2583), rel=1e-12)
    thermal = GaussianState(circular_register(1), np.zeros(2), np.eye(2))
    assert purity(thermal) == pytest.approx(0.5, rel=1e-12)


def test_purity_rejects_nonpositive_determinant():
    state = GaussianState(two_mode_register(), np.zeros(4), np.zeros((4, 4)))
    with pytest.raises(NonPositiveDeterminant):
        purity(state)


# -- module invariants --------------------------------------------------------

def test_physicality_is_basis_independent():
    rng = np.random.default_rng(5)
    state = random_state(rng, n=4)
    base = validate(state)
    for _ in range(6):
        perm = rng.permutation(4)
        moved = validate(reorder(state, perm))
        assert moved.physical == base.physical
        assert moved.min_heisenberg_eigenvalue == pytest.approx(
            base.min_heisenberg_eigenvalue, abs=1e-10
        )


def test_purity_and_photons_invariant_under_reorder():
    rng = np.random.default_rng(6)
    state = random_state(rng, n=4)
    perm = rng.permutation(4)
    moved = reorder(state, perm)
    assert purity(moved) == pytest.approx(purity(state), rel=1e-10)
    assert total_photon_number(moved) == pytest.approx(
        total_photon_number(state), abs=1e-10
    )


def test_reduce_commutes_with_reorder():
    rng = np.random.default_rng(7)
    state = random_state(rng, n=4)
    perm = [2, 0, 3, 1]
    # taking modes {0, 3} of the reordered state equals taking the
    # corresponding original modes and reordering the survivors
    left = reduce(reorder(state, perm), [0, 3])
    picked = sorted(perm[k] for k in [0, 3])  # original indices {1, 2}
    right_state = reduce(state, picked)
    order = [picked.index(perm[k]) for k in sorted([0, 3])]
    right = reorder(right_state, order)
    assert np.array_equal(left.cov, right.cov)
    assert left.register == right.register


def test_random_standard_forms_are_physical():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a, b, c1, c2 = random_standard_form(rng)
        state = make_standard_form(StandardFormParams(a, b, c1, c2))
        assert validate(state).physical
        assert heisenberg_min_eig(std_form_matrix(a, b, c1, c2)) >= -1e-12


def test_vacuum_heisenberg_floor_is_machine_zero():
    state = vacuum_state(circular_register(4))
    assert abs(validate(state).min_heisenberg_eigenvalue) <= 1e-12


def test_states_are_immutable():
    state = vacuum_state(circular_register(2))
    with pytest.raises(ValueError):
        state.cov[0, 0] = 9.0
    with pytest.raises(Exception):
        state.register = None


def test_state_equality_is_value_based():
    a = make_standard_form(EXP)
    b = make_standard_form(EXP)
    c = make_standard_form(StandardFormParams(0.72, 0.72, 0.5, -0.5))
    assert a == b
    assert a != c
    assert a != "not a state"
