import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvmodes import (
    GaussianState,
    ModeLabel,
    ModeRegister,
    QPlateSpec,
    StandardFormParams,
    SymplecticTransform,
    embed_with_vacua,
    identity_transform,
    log_negativity_from_spectrum,
    make_standard_form,
    mean_photon_number,
    phase_rotation,
    purity,
    qplate_pairing,
    qplate_transform,
    reduce,
    reorder,
    sigma4_closed_form,
    standard_form_matrix,
    symplectic_eigenvalues,
    symplectic_form,
    total_photon_number,
    two_mode_register,
    vacuum_state,
    validate,
)
import cvmodes
from cvmodes import cli, core, entanglement, fixtures, transforms
from cvmodes.errors import (
    CVModesError,
    DimensionMismatch,
    DuplicateIndex,
    DuplicateLabel,
    IndexOutOfRange,
    NonPositiveDeterminant,
    NotAPermutation,
    PhysicalityViolation,
    RegisterMismatch,
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


def test_register_needs_a_mode_and_finds_only_its_own_tags():
    with pytest.raises(ValueError, match="at least one mode"):
        ModeRegister(())
    with pytest.raises(IndexOutOfRange, match="no mode tagged 'c'"):
        two_mode_register().index("c")


@pytest.mark.parametrize("build, message", [
    (lambda: ModeRegister(("a", "b")), "register mode 'a' is not a ModeLabel"),
    (lambda: ModeRegister((ModeLabel("H", 0, "a"), None)),
     "register mode None is not a ModeLabel"),
    (lambda: GaussianState("ab", np.zeros(4), np.eye(4)),
     "register 'ab' is not a ModeRegister"),
    (lambda: GaussianState(two_mode_register().modes, np.zeros(4), np.eye(4)),
     "is not a ModeRegister"),
    (lambda: embed_with_vacua(vacuum_state(two_mode_register()), ["x"]),
     "register mode 'x' is not a ModeLabel"),
    (lambda: identity_transform("ab"), "register 'ab' is not a ModeRegister"),
    (lambda: phase_rotation("ab", 0.1), "register 'ab' is not a ModeRegister"),
    (lambda: qplate_transform(QPlateSpec(0.5, 1.0), "ab"),
     "register 'ab' is not a ModeRegister"),
    (lambda: qplate_pairing(QPlateSpec(0.5, 1.0), "ab"),
     "register 'ab' is not a ModeRegister"),
    # refused before the caches keyed on registers and labels hash them
    (lambda: ModeRegister(5), "register modes 5 are not a sequence"),
    (lambda: ModeRegister(None), "register modes None are not a sequence"),
    (lambda: embed_with_vacua(vacuum_state(two_mode_register()), [["x"]]),
     r"register mode \['x'\] is not a ModeLabel"),
    (lambda: qplate_transform(QPlateSpec(0.5, 1.0), [two_mode_register()]),
     r"register \[ModeRegister\(.*\)\] is not a ModeRegister"),
])
def test_registers_of_other_types_are_refused(build, message):
    with pytest.raises(RegisterMismatch, match=message) as info:
        build()
    assert info.value.exit_code == 2


REGISTER_TAKERS = {
    "vacuum_state": vacuum_state,
    "identity_transform": identity_transform,
    "phase_rotation": lambda register: phase_rotation(register, 0.1),
}


@pytest.mark.parametrize("register", [5, None, "ab", list(two_mode_register())],
                         ids=["int", "None", "str", "list"])
@pytest.mark.parametrize("name", sorted(REGISTER_TAKERS))
def test_register_taking_constructors_refuse_what_is_not_a_register(name, register):
    message = f"register {register!r} is not a ModeRegister"
    with pytest.raises(RegisterMismatch, match=re.escape(message)) as info:
        REGISTER_TAKERS[name](register)
    assert info.value.exit_code == 2


CIRCULAR_MODES = (("L", 0, "a"), ("R", 1, "a~"), ("R", 0, "b"), ("L", -1, "b~"))


def test_registers_of_equal_labels_are_one_cache_key():
    first, second = (ModeRegister(tuple(ModeLabel(*m) for m in CIRCULAR_MODES))
                     for _ in range(2))
    assert first is not second and first[0] is not second[0]
    assert first == second and hash(first) == hash(second)
    assert first != ModeRegister(tuple(ModeLabel(*m) for m in CIRCULAR_MODES[::-1]))
    # the second register finds what the first one built
    assert core._selection(first, (1, 0, 3, 2)) is core._selection(second, (1, 0, 3, 2))
    assert transforms._qplate_layout(1, first) is transforms._qplate_layout(1, second)


# Pickles a register and a state on it under one hash seed; another
# process loads them under another seed.
PICKLE_DUMP = """
import pickle, sys
import numpy as np
from cvmodes import GaussianState, ModeLabel, ModeRegister
register = ModeRegister(tuple(ModeLabel(*m) for m in {modes!r}))
state = GaussianState(register, np.arange(8.0), np.eye(8))
{{register: state.validity}}  # hash and measure before pickling
sys.stdout.buffer.write(pickle.dumps((register, state)))
"""
PICKLE_LOAD = """
import pickle, sys
import numpy as np
from cvmodes import GaussianState, ModeLabel, ModeRegister
register, state = pickle.loads(sys.stdin.buffer.read())
fresh = ModeRegister(tuple(ModeLabel(*m) for m in {modes!r}))
assert register == fresh and fresh == register
assert hash(register) == hash(fresh)
assert register in {{fresh}} and fresh in {{register}}
assert state.register is register
assert state == GaussianState(fresh, np.arange(8.0), np.eye(8))
"""


def test_a_pickled_register_loads_under_another_hash_seed():
    env = dict(os.environ, PYTHONPATH=str(Path(core.__file__).parents[1]))
    dumped = subprocess.run(
        [sys.executable, "-c", PICKLE_DUMP.format(modes=CIRCULAR_MODES)],
        env=dict(env, PYTHONHASHSEED="1"), capture_output=True, check=True).stdout
    loaded = subprocess.run(
        [sys.executable, "-c", PICKLE_LOAD.format(modes=CIRCULAR_MODES)], input=dumped,
        env=dict(env, PYTHONHASHSEED="2"), capture_output=True)
    assert loaded.returncode == 0, loaded.stderr.decode()


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
    for register in (5, "abc", list(circular_register(3))):
        with pytest.raises(RegisterMismatch, match="is not a ModeRegister"):
            make_standard_form(EXP, register=register)


def _constructor_state(params):
    return GaussianState(two_mode_register(), np.zeros(4), standard_form_matrix(params))


@pytest.mark.parametrize("params", [
    EXP, StandardFormParams(0.5, 0.5, 0.0, 0.0), StandardFormParams(1, 2, 0, 1),
    *(StandardFormParams(*random_standard_form(np.random.default_rng(seed)))
      for seed in range(4)),
])
def test_standard_form_is_the_state_the_constructor_builds(params):
    state, built = make_standard_form(params), _constructor_state(params)
    assert state.register is built.register
    for got, want in ((state.mean, built.mean), (state.cov, built.cov)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable and not want.flags.writeable
    assert state == built
    assert validate(state) == validate(built)
    assert state._facts == built._facts


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "x", None, object()],
                         ids=["nan", "inf", "-inf", "str", "None", "object"])
def test_standard_form_refuses_what_the_constructor_refuses(bad):
    params = StandardFormParams(0.72, 0.72, bad, -0.51)
    with pytest.raises(CVModesError) as want:
        _constructor_state(params)
    assert type(want.value) in (DimensionMismatch, PhysicalityViolation)
    with pytest.raises(type(want.value)) as got:
        make_standard_form(params)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [np.array([0.72]), np.array(0.72), [0.72], True, "0.72"],
                         ids=["array", "0-d array", "list", "bool", "str"])
def test_standard_form_parameters_follow_the_number_rule(bad):
    # checked before the matrix is built, by the rule of cvmodes.errors
    for name, params in (("a", StandardFormParams(bad, 0.72, 0.51, -0.51)),
                         ("c2", StandardFormParams(0.72, 0.72, 0.51, bad))):
        message = f"cov is not an array of numbers: {name} = {bad!r} is not a number"
        for build in (standard_form_matrix, make_standard_form):
            with pytest.raises(DimensionMismatch) as got:
                build(params)
            assert str(got.value) == message


def test_complex_input_is_not_an_array_of_numbers():
    # numpy would drop the imaginary part with only a ComplexWarning
    register = two_mode_register()
    cov = 0.5 * np.eye(4) + 0j
    cov[0, 2] = cov[2, 0] = 0.1j
    calls = [
        lambda: make_standard_form(StandardFormParams(0.72, 0.72, 0.51 + 0.3j, -0.51)),
        lambda: GaussianState(register, np.zeros(4), cov),
        lambda: SymplecticTransform(np.eye(4) + 0j, register, register),
        lambda: phase_rotation(register, 1j),
        lambda: phase_rotation(register, np.array([0.1j, 0.2])),
        lambda: symplectic_eigenvalues(cov),
        lambda: log_negativity_from_spectrum(np.array([0.4 + 0.1j, 0.6])),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch, match="is not an array of numbers: "):
            call()


# every argument that takes an array of numbers: name in the message ->
# (a valid value, call(value))
ARRAY_ARGUMENTS = {
    "mean": (np.zeros(4), lambda x: GaussianState(two_mode_register(), x, 0.5 * np.eye(4))),
    "cov": (0.5 * np.eye(4), lambda x: GaussianState(two_mode_register(), np.zeros(4), x)),
    "matrix": (np.eye(4),
               lambda x: SymplecticTransform(x, two_mode_register(), two_mode_register())),
    "angles": (np.array([0.1, 0.2]), lambda x: phase_rotation(two_mode_register(), x)),
    "sigma": (0.5 * np.eye(4), symplectic_eigenvalues),
    "nu_tilde": (np.array([0.3, 0.6]), log_negativity_from_spectrum),
}


def _with_first(values, entry):
    """``values`` as nested lists, with its first entry replaced by ``entry``."""
    out = values.tolist()
    row = out
    while isinstance(row[0], list):
        row = row[0]
    row[0] = entry
    return out


def _not_arrays_of_numbers(good):
    # what numpy would read as numbers (or NaN), in the shape of ``good``
    return {
        "numeric strings": good.astype(str).tolist(),
        "bools": (good != 0).tolist(),
        "True among ints": _with_first(good.astype(int), True),
        "bool ndarray": good != 0,
        "None entry": _with_first(good, None),
        "dict entry": _with_first(good, {}),
        "0-d string": np.array("0.5"),
        "bare True": True,
    }


@pytest.mark.parametrize("what", ARRAY_ARGUMENTS)
def test_every_array_argument_follows_the_array_rule(what):
    # the rule stated in the cvmodes.errors docstring, at every array gate
    good, call = ARRAY_ARGUMENTS[what]
    call(good)
    for bad in _not_arrays_of_numbers(good).values():
        with pytest.raises(DimensionMismatch,
                           match=f"^{what} is not an array of numbers: .+"):
            call(bad)


def _unchecked_float_array(values):
    # the conversion without the walk, as numpy does it
    arr = np.array(values)
    return arr if arr.dtype == float else np.array(values, dtype=float)


@pytest.mark.parametrize("values", [
    (0.5, 1, -2.0),
    [[1, 0], [0, 1]],
    [np.int64(3), np.float64(0.25), np.float32(0.1)],
    np.array([[0.1, 0.2], [0.3, 0.4]], dtype=np.float32),
    np.arange(6, dtype=np.uint8).reshape(2, 3),
    [np.array([0.5, 0.0]), np.array([0.0, 0.5])],
    ((0.5, 0.0), [0.0, np.int32(2)]),
    np.array([0.7, 0.2]),
    np.float64(0.3),
    7,
], ids=["tuple", "int list", "numpy scalars", "float32 array", "uint8 array",
        "list of arrays", "mixed nesting", "float array", "numpy float", "int"])
def test_accepted_arrays_keep_their_bits(values):
    got = core._float_array(values, "x")
    want = _unchecked_float_array(values)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


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


def test_booleans_are_not_mode_indices():
    # int reads True as 1 and False as 0; a mode index is refused either way
    state = vacuum_state(circular_register(3))
    for subset in ([True], [False, 2], (np.True_,)):
        with pytest.raises(IndexOutOfRange, match="integers"):
            reduce(state, subset)
    for perm in ([2, True, 0], [False, 2, 1]):
        with pytest.raises(IndexOutOfRange, match="integers"):
            reorder(state, perm)


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


def random_covs(rng, n, count, asymmetry=0.0):
    lmat = rng.normal(size=(count, 2 * n, 2 * n)) * 0.3
    covs = 0.5 * np.eye(2 * n) + lmat @ lmat.transpose(0, 2, 1)
    return covs + asymmetry * rng.normal(size=covs.shape)


@pytest.mark.parametrize("asymmetry", [0.0, 1e-9])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_stacked_heisenberg_floor_equals_one_call_per_matrix(n, asymmetry):
    covs = random_covs(np.random.default_rng(100 + n), n, 12, asymmetry)
    # unphysical slices too: a negative floor must stack the same way
    covs[::3] -= 0.4 * np.eye(2 * n)
    single = [core.min_heisenberg_eigenvalue(cov) for cov in covs]
    stacked = core.min_heisenberg_eigenvalue(covs)
    assert stacked.shape == (12,)
    assert np.array_equal(stacked, single)
    grid = core.min_heisenberg_eigenvalue(covs.reshape(3, 4, 2 * n, 2 * n))
    assert np.array_equal(grid, np.reshape(single, (3, 4)))
    assert min(single) < 0.0 < max(single)


def test_heisenberg_floor_of_one_matrix_is_a_float():
    cov = random_covs(np.random.default_rng(3), 3, 1)[0]
    floor = core.min_heisenberg_eigenvalue(cov)
    assert type(floor) is float
    assert floor == pytest.approx(heisenberg_min_eig(cov), abs=1e-12)


def test_i_symplectic_form_is_cached_and_read_only():
    omega, i_omega = core._symplectic_forms(3)
    assert omega is symplectic_form(3)
    assert not i_omega.flags.writeable
    assert np.array_equal(i_omega, 1j * symplectic_form(3))


# every function-level cache of the package, with a call that fills it
CACHES = {
    "cli._parser": cli._parser,
    "core._selection": lambda: core._selection(two_mode_register(), (1, 0)),
    "core._symplectic_forms": lambda: core._symplectic_forms(3),
    "entanglement._pairs": lambda: entanglement._pairs(4),
    "entanglement._splits": lambda: entanglement._splits(4),
    "fixtures._read": lambda: fixtures._read("vacuum4"),
    "transforms._circular_register": lambda: transforms._circular_register(
        two_mode_register()),
    "transforms._extended_register": lambda: transforms._extended_register(
        two_mode_register(), (ModeLabel("H", 1, "c"),)),
    "transforms._qplate_layout": lambda: transforms._qplate_layout(1, circular_register()),
    "transforms._qplate_transform": lambda: transforms._qplate_transform(
        QPlateSpec(0.5, 1.0), circular_register()),
}
# public functions that promise the same object on every call, over no cache
# of their own
SAME_OBJECT = {
    "core.two_mode_register": two_mode_register,
    "core.symplectic_form": lambda: symplectic_form(3),
    "fixtures.load_state_fixture": lambda: fixtures.load_state_fixture("vacuum4"),
}


def _package_namespaces():
    # (module name without the package prefix, namespace) of every cvmodes module
    for info in pkgutil.walk_packages(cvmodes.__path__, "cvmodes."):
        module = importlib.import_module(info.name)
        yield info.name.removeprefix("cvmodes."), module


def test_no_public_function_is_a_cache_wrapper():
    # a public function stays plain, so the per-layer tracer of perfbench
    # can wrap it; its constants live in a private cache listed in CACHES
    public, cached = [], []
    for name, module in [("cvmodes", cvmodes), *_package_namespaces()]:
        for key, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                if not key.startswith("_"):
                    public.append(f"{name}.{key}")
                elif obj.__module__ == module.__name__:
                    cached.append(f"{name}.{key}")
    assert public == []
    assert sorted(cached) == sorted(CACHES)


@pytest.mark.parametrize("name", [*CACHES, *SAME_OBJECT])
def test_each_cache_and_constant_gives_one_object(name):
    call = {**CACHES, **SAME_OBJECT}[name]
    assert call() is call()


def test_measure_fills_the_reports_a_lazy_validity_would_give(monkeypatch):
    rng = np.random.default_rng(11)
    states = []
    # asymmetries just inside and just outside TOL_SYMMETRY, then unphysical
    for n, skew in ((2, 0.0), (3, 0.9e-10), (4, 0.0), (3, 1.1e-10), (2, 0.0),
                    (4, 0.0)):
        cov = random_covs(rng, n, 1)[0]
        cov[0, 1] += skew
        if n == 4:
            cov -= 0.4 * np.eye(8)
        register = ModeRegister(tuple(ModeLabel("H", k, f"m{k}") for k in range(n)))
        states.append(GaussianState(register, np.zeros(2 * n), cov))
    kept = validate(states[0])
    calls = []
    floor = core.min_heisenberg_eigenvalue
    monkeypatch.setattr(core, "min_heisenberg_eigenvalue",
                        lambda cov: calls.append(cov.shape) or floor(cov))
    core._measure(states)
    # one stack per register size; the state with a report is left alone
    assert sorted(calls) == [(1, 4, 4), (2, 6, 6), (2, 8, 8)]
    assert all("validity" in state.__dict__ for state in states)
    assert states[0].validity is kept
    for state in states:
        fresh = GaussianState(state.register, state.mean, state.cov).validity
        assert repr(state.validity) == repr(fresh)
    assert [(s.validity.symmetric, s.validity.physical) for s in states] == [
        (True, True), (True, True), (True, False),
        (False, False), (True, True), (True, False)]


def test_measure_fills_the_facts_each_state_gives_alone():
    rng = np.random.default_rng(23)
    states = []
    for n in (1, 2, 4, 8):
        register = ModeRegister(tuple(ModeLabel("H", k, f"m{k}") for k in range(n)))
        for cov in random_covs(rng, n, 25):
            states.append(GaussianState(register, rng.normal(size=2 * n) * 3.0, cov))
    core._measure(states)
    for state in states:
        alone = GaussianState(state.register, state.mean, state.cov)
        # repr, so that equal means equal bits
        assert repr(state.__dict__["_facts"]) == repr(
            (total_photon_number(alone), purity(alone)))


def test_measure_leaves_a_non_positive_determinant_to_its_own_state():
    covs = random_covs(np.random.default_rng(29), 2, 3)
    covs[1] = np.diag([0.5, 0.5, 0.5, -0.5])
    states = [GaussianState(circular_register(2), np.zeros(4), cov) for cov in covs]
    core._measure(states)
    assert all("validity" in state.__dict__ for state in states)
    assert "_facts" not in states[1].__dict__
    for state in states[::2]:
        alone = GaussianState(state.register, state.mean, state.cov)
        assert repr(state._facts) == repr((total_photon_number(alone), purity(alone)))
    with pytest.raises(NonPositiveDeterminant):
        states[1]._facts


@pytest.mark.parametrize("select, modes, kept", [
    (reorder, [2, 0, 1], [2, 0, 1]),
    (reduce, [2, 0], [0, 2]),
])
def test_gathered_states_are_read_only_copies(select, modes, kept):
    state = random_state(np.random.default_rng(31))
    out = select(state, modes)
    quadratures = [q for k in kept for q in (2 * k, 2 * k + 1)]
    assert out == GaussianState(ModeRegister(tuple(state.register[k] for k in kept)),
                                state.mean[quadratures],
                                state.cov[np.ix_(quadratures, quadratures)])
    for arr, source in ((out.mean, state.mean), (out.cov, state.cov)):
        assert not arr.flags.writeable
        assert not np.shares_memory(arr, source)
    # the layout is built once per register and mode list
    assert select(state, modes).register is out.register


def test_photon_numbers_keep_the_bits_of_the_array_expression():
    rng = np.random.default_rng(17)
    for n in (1, 2, 4, 8):
        for _ in range(25):
            register = ModeRegister(tuple(ModeLabel("H", k, f"m{k}")
                                          for k in range(n)))
            state = GaussianState(register, rng.normal(size=2 * n) * 3.0,
                                  random_covs(rng, n, 1)[0])
            # the numpy expression the plain-float route replaced
            var, mean = np.diagonal(state.cov), state.mean
            reference = (var[0::2] + var[1::2] + mean[0::2] * mean[0::2]
                         + mean[1::2] * mean[1::2] - 1.0) / 2.0
            per_mode = [mean_photon_number(state, k) for k in range(n)]
            assert all(type(v) is float for v in per_mode)
            assert np.array(per_mode).tobytes() == reference.tobytes()
            total = total_photon_number(state)
            assert type(total) is float
            assert total == float(sum(reference.tolist()))


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
