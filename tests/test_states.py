"""Lattice and Gaussian-state constructors."""

import warnings

import numpy as np
import pytest

from bosepol import (
    BlochState,
    GaussianState,
    ShiftSpec,
    bose_occupations,
    coherent_state,
    make_lattice,
    polarization,
    random_circulant_state,
    random_gaussian_state,
    shift_phases,
    squeezed_vacuum_state,
    thermal_state,
    two_mode_squeezed_state,
    validate,
)
from bosepol.errors import ChemicalPotentialError, InvalidStateError
from bosepol.circulant import random_bloch_blocks
from bosepol.states import (
    _signed_swap,
    reassemble_covariance,
    require_valid,
    thermal_covariances,
)

SILVER = 1.0 + np.sqrt(2.0)  # exp(r) for sinh(r) = 1


def symplectic_form(modes):
    """The dense symplectic form, one block [[0, 1], [-1, 0]] per mode: an oracle
    built apart from the package's signed swap."""
    return np.kron(np.eye(modes), [[0.0, 1.0], [-1.0, 0.0]])


def test_signed_swap_applies_the_symplectic_form():
    """(Omega M)[i] = sign_i M[i ^ 1] is the dense Omega M exactly, on one matrix
    and on a stack."""
    rng = np.random.default_rng(5)
    swap, sign = _signed_swap(6)
    for M in (rng.normal(size=(6, 4)), rng.normal(size=(3, 6, 6))):
        assert np.array_equal(sign[:, None] * M[..., swap, :], symplectic_form(3) @ M)


def test_single_site_lattice_phase():
    lat = make_lattice(1, 1, 0.5)
    assert np.allclose(lat.site_positions(), [0.5])
    assert np.allclose(shift_phases(lat).phases, [np.pi])


def test_two_cell_lattice_phases():
    lat = make_lattice(2, 1, 0.5)
    assert np.allclose(shift_phases(lat).phases, [np.pi / 2, 3 * np.pi / 2])


def test_phases_never_hit_gauge_origin():
    lat = make_lattice(4, 2, 0.5)
    theta = shift_phases(lat).phases
    assert theta.shape == (8,)
    assert np.all(theta > 0) and np.all(theta < 2 * np.pi)
    assert np.abs(np.exp(1j * theta) - 1.0).min() > 1e-3


@pytest.mark.parametrize("L,n,delta", [(0, 1, 0.5), (1, 0, 0.5), (2, 1, 0.0),
                                       (2, 1, 1.0), (2, 1, 1.3), (2, 1, -0.2)])
def test_lattice_rejects_bad_arguments(L, n, delta):
    with pytest.raises(ValueError):
        make_lattice(L, n, delta)


def test_vacuum_state():
    lat = make_lattice(3, 2)
    vac = coherent_state(lat, np.zeros(lat.modes))
    assert np.array_equal(vac.V, np.eye(lat.dim))
    assert not vac.mean.any()
    report = validate(vac)
    assert report.valid and report.classical
    assert report.purity == pytest.approx(1.0)


def test_coherent_mean_convention():
    lat = make_lattice(1, 1)
    st = coherent_state(lat, [1.0])
    assert np.allclose(st.mean, [2.0, 0.0])
    st = coherent_state(lat, [0.3 - 0.7j])
    assert np.allclose(st.mean, [0.6, -1.4])


def test_coherent_equal_cell_occupancy():
    lat = make_lattice(4, 2)
    alpha, beta = 0.6, 0.8j
    st = coherent_state(lat, np.tile([alpha, beta], 4))
    assert np.array_equal(st.V, np.eye(16))
    per_cell = st.mean.reshape(4, 4)
    assert np.allclose(np.sum(per_cell**2, axis=1), 4.0)


def test_thermal_single_mode_occupation_one():
    lat = make_lattice(1, 1)
    st = thermal_state(np.zeros((1, 1)), beta=np.log(2.0), mu=-1.0, lattice=lat)
    assert np.allclose(st.V, 3.0 * np.eye(2), atol=1e-14)
    assert validate(st).purity == pytest.approx(1.0 / 3.0)


def test_thermal_rejects_mu_above_band():
    lat = make_lattice(2, 1)
    h = np.diag([0.0, 1.0])
    with pytest.raises(ChemicalPotentialError):
        thermal_state(h, beta=1.0, mu=0.0, lattice=lat)
    with pytest.raises(ChemicalPotentialError):
        thermal_state(h, beta=1.0, mu=0.5, lattice=lat)


def test_thermal_zero_temperature_limit_is_vacuum():
    lat = make_lattice(2, 1)
    st = thermal_state(np.diag([0.0, 1.0]), beta=800.0, mu=-1.0, lattice=lat)
    assert np.allclose(st.V, np.eye(4), atol=1e-300)


def test_thermal_diagonal_hopping_reduces_per_mode():
    lat = make_lattice(2, 2)
    eps = np.array([0.0, 0.5, 1.0, 2.0])
    st = thermal_state(np.diag(eps), beta=1.3, mu=-0.7, lattice=lat)
    nbar = 1.0 / np.expm1(1.3 * (eps + 0.7))
    assert np.allclose(st.V, np.diag(np.repeat(2 * nbar + 1, 2)), atol=1e-14)


def test_thermal_complex_hopping_is_classical():
    rng = np.random.default_rng(5)
    lat = make_lattice(3, 2)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (A + A.conj().T) / 2.0
    mu = np.linalg.eigvalsh(h)[0] - 0.5
    st = thermal_state(h, beta=1.0, mu=mu, lattice=lat)
    report = validate(st)
    assert report.valid and report.classical
    assert report.min_eigenvalue > 1.0
    assert report.purity < 1.0


def test_squeezed_vacuum_blocks():
    lat = make_lattice(1, 1)
    r = np.log(SILVER)
    st = squeezed_vacuum_state(lat, r)
    assert st.V[0, 0] == pytest.approx(3.0 + 2.0 * np.sqrt(2.0))
    assert st.V[1, 1] == pytest.approx(3.0 - 2.0 * np.sqrt(2.0))
    report = validate(st)
    assert report.valid and not report.classical
    assert report.min_eigenvalue < 1.0
    assert report.purity == pytest.approx(1.0, abs=1e-10)


def test_squeezed_zero_is_vacuum():
    lat = make_lattice(2, 1)
    st = squeezed_vacuum_state(lat, 0.0)
    assert np.array_equal(st.V, np.eye(4))


def test_two_mode_squeezed_state():
    st = two_mode_squeezed_state(0.0)
    assert np.array_equal(st.V, np.eye(4))
    r = np.log(SILVER)  # sinh(r) = 1, so cosh(2r) = 3
    st = two_mode_squeezed_state(r)
    assert st.V[0, 0] == pytest.approx(3.0)
    assert st.V[0, 2] == pytest.approx(np.sinh(2 * r))
    assert st.V[1, 3] == pytest.approx(-np.sinh(2 * r))
    report = validate(st)
    assert report.valid and not report.classical
    assert report.purity == pytest.approx(1.0, abs=1e-10)
    for r in (np.inf, np.nan, -400.0):
        with pytest.raises(ValueError, match="squeezing parameter must be finite"):
            two_mode_squeezed_state(r)


def test_factored_state_checks_its_contracts():
    """from_factor rejects a factor that breaks a contract, and names it."""
    lat = make_lattice(1, 2)
    S, d, mean = np.eye(4), np.ones(4), np.zeros(4)
    with pytest.raises(ValueError, match="not symplectic"):
        GaussianState.from_factor(lat, 2.0 * S, d, mean)
    near = random_gaussian_state(lat, 0).factor[0]
    GaussianState.from_factor(lat, near, d, mean)
    with pytest.raises(ValueError, match="not symplectic"):
        GaussianState.from_factor(lat, (1.0 + 1e-6) * near, d, mean)
    with pytest.raises(ValueError, match="uncertainty relation"):
        GaussianState.from_factor(lat, S, [1.0, 1.0, 0.5, 0.5], mean)
    with pytest.raises(ValueError, match="for its q and its p"):
        GaussianState.from_factor(lat, S, [1.0, 2.0, 1.0, 1.0], mean)
    with pytest.raises(ValueError, match="symplectic factor must be finite"):
        GaussianState.from_factor(lat, S, [np.inf, np.inf, 1.0, 1.0], mean)
    with pytest.raises(ValueError, match="symplectic factor must be 4x4"):
        GaussianState.from_factor(lat, np.eye(2), d, mean)


def test_factor_defect_is_the_dense_symplectic_defect():
    """from_factor reports max |S Omega S^T - Omega| with the dense Omega, so its
    threshold keeps its meaning."""
    lat = make_lattice(2, 2)
    noise = 1e-3 * np.random.default_rng(6).normal(size=(8, 8))
    S = random_gaussian_state(lat, 4).factor[0] + noise
    omega = symplectic_form(lat.modes)
    want = np.abs(S @ omega @ S.T - omega).max()
    with pytest.raises(ValueError, match="not symplectic") as err:
        GaussianState.from_factor(lat, S, np.ones(8), np.zeros(8))
    assert f"= {want:.3e} exceeds" in str(err.value)


def test_factored_state_reads_its_factor():
    """A factored state holds V = S diag(d) S^T; its spectrum, the squared
    singular values of S diag(d)^{1/2}, and its validate, which reads d, agree
    with those of its twin given only by V, which holds no factor."""
    for modes, seed in ((2, 0), (8, 1), (32, 2), (64, 3)):
        lat = make_lattice(modes // 2, 2)
        st = random_gaussian_state(lat, seed, mean_scale=0.5)
        S, d = st.factor
        assert not S.flags.writeable and not d.flags.writeable
        twin = GaussianState(lat, st.V, st.mean)
        assert twin.factor is None
        assert np.abs(st.spectrum - twin.spectrum).max() <= 1e-13 * twin.spectrum[-1]
        assert not st.spectrum.flags.writeable
        report, want = validate(st), validate(twin)
        assert report.min_symplectic_eigenvalue == d.min()
        assert abs(report.min_symplectic_eigenvalue - want.min_symplectic_eigenvalue) <= 1e-12
        assert report.purity == pytest.approx(want.purity, rel=1e-12, abs=0.0)
        assert abs(report.min_eigenvalue - want.min_eigenvalue) <= 1e-13
        for flag in ("valid", "classical", "physical"):
            assert getattr(report, flag) == getattr(want, flag)
    assert random_gaussian_state(lat, 0, classical=True).factor is None


def test_random_state_construction_invariants():
    lat = make_lattice(3, 2)
    for seed in range(4):
        st = random_gaussian_state(lat, seed)
        assert np.array_equal(st.V, st.V.T)
        assert validate(st).valid


def test_random_state_classical_flag():
    lat = make_lattice(3, 2)
    for seed in range(4):
        st = random_gaussian_state(lat, seed, classical=True)
        assert validate(st).min_eigenvalue >= 1.0


def test_random_state_deterministic():
    lat = make_lattice(2, 2)
    a = random_gaussian_state(lat, 42, classical=True, mean_scale=1.0)
    b = random_gaussian_state(lat, 42, classical=True, mean_scale=1.0)
    assert np.array_equal(a.V, b.V) and np.array_equal(a.mean, b.mean)
    c = random_gaussian_state(lat, 43, classical=True, mean_scale=1.0)
    assert not np.array_equal(a.V, c.V)


def test_random_state_williamson_spectrum():
    """V = S D S^T with S symplectic: the symplectic eigenvalues of V, the moduli of
    eig(Omega V), are the drawn 2 nbar + 1, each twice."""
    for modes, seed in ((2, 0), (8, 1), (32, 2), (64, 3)):
        st = random_gaussian_state(make_lattice(modes // 2, 2), seed, mean_scale=0.5)
        rng = np.random.default_rng(seed)
        rng.normal(size=(2 * modes, 2 * modes))  # the generator of S
        nbar = rng.uniform(0.0, 1.5, size=modes)
        nu = np.sort(np.abs(np.linalg.eigvals(symplectic_form(modes) @ st.V)))
        assert np.abs(nu - np.sort(np.repeat(2.0 * nbar + 1.0, 2))).max() <= 1e-12, modes
        assert validate(st).physical
        assert np.array_equal(st.mean, 0.5 * rng.normal(size=2 * modes))


def test_validate_flags_negative_eigenvalue():
    lat = make_lattice(2, 1)
    st = GaussianState(lat, np.diag([1.0, 1.0, 1.0, -0.5]), np.zeros(4))
    report = validate(st)
    assert not report.valid and not report.physical
    with pytest.raises(InvalidStateError):
        require_valid(st)


def test_validate_reports_min_symplectic_eigenvalue():
    lat = make_lattice(1, 2)
    squashed = validate(GaussianState(lat, 0.5 * np.eye(4), np.zeros(4)))
    # V > 0 but below the vacuum noise: valid as a matrix, not a quantum state
    assert squashed.valid and not squashed.physical
    assert squashed.min_symplectic_eigenvalue == pytest.approx(0.5, abs=1e-14)
    vacuum = validate(coherent_state(lat, np.zeros(lat.modes)))
    assert vacuum.physical
    assert vacuum.min_symplectic_eigenvalue == pytest.approx(1.0, abs=1e-14)
    hop = np.zeros((1, 1))
    thermal = thermal_state(hop, beta=0.7, mu=-0.2, lattice=make_lattice(1, 1))
    nbar = bose_occupations(hop, 0.7, -0.2).occupations[0]
    assert validate(thermal).physical
    assert validate(thermal).min_symplectic_eigenvalue == pytest.approx(2 * nbar + 1, rel=1e-13)
    squeezed = validate(squeezed_vacuum_state(lat, [0.9, -0.4]))
    assert squeezed.physical and not squeezed.classical
    assert squeezed.min_symplectic_eigenvalue == pytest.approx(1.0, abs=1e-12)


def test_state_rejects_gross_asymmetry_and_bad_shapes():
    lat = make_lattice(2, 1)
    V = np.eye(4)
    V[0, 1] = 0.5
    with pytest.raises(ValueError):
        GaussianState(lat, V, np.zeros(4))
    with pytest.raises(ValueError):
        GaussianState(lat, np.eye(3), np.zeros(4))
    with pytest.raises(ValueError):
        GaussianState(lat, np.eye(4), np.zeros(3))


def test_state_leaves_the_callers_mean_writable():
    """The state freezes its own copy of the mean, not the array it was given."""
    mean = np.zeros(4)
    st = GaussianState(make_lattice(1, 2), np.eye(4), mean)
    mean[0] = 1.0
    assert mean.flags.writeable and not st.mean.flags.writeable
    assert np.array_equal(st.mean, np.zeros(4))


def test_bose_occupations_structure():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    h = (A + A.T) / 2.0
    mu = np.linalg.eigvalsh(h)[0] - 1.0
    modes = bose_occupations(h, beta=2.0, mu=mu)
    assert np.all(modes.occupations > 0)
    U = modes.eigenvectors
    assert np.abs(U.conj().T @ U - np.eye(4)).max() < 1e-10


def random_hoppings(seed, stack, n):
    """Hermitian complex hopping matrices of shape (*stack, n, n)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(*stack, n, n)) + 1j * rng.normal(size=(*stack, n, n))
    return (A + A.conj().swapaxes(-1, -2)) / 2.0


def kron_covariance(hopping, beta, mu):
    """Covariance of one thermal state, embedded with two Kronecker products."""
    eps, U = np.linalg.eigh(hopping)
    N = (U / np.expm1(beta * (eps - mu))) @ U.conj().T
    V = np.eye(2 * len(N))
    V += 2.0 * np.kron(N.real, np.eye(2)) + 2.0 * np.kron(N.imag, [[0.0, 1.0], [-1.0, 0.0]])
    return (V + V.T) / 2.0


@pytest.mark.parametrize("stack", [(5,), (2, 3)])
def test_stacked_thermal_covariances_equal_per_matrix_states(stack):
    h = random_hoppings(3, stack, 6)
    V = thermal_covariances(h, 0.8, -10.0)
    assert V.shape == (*stack, 12, 12)
    for i in np.ndindex(*stack):
        assert np.array_equal(V[i], thermal_state(h[i], 0.8, -10.0, make_lattice(3, 2)).V), i
        assert np.array_equal(V[i], kron_covariance(h[i], 0.8, -10.0)), i


def test_stack_with_one_bad_entry_raises():
    h = random_hoppings(4, (4,), 3)
    h[2] -= 10.0 * np.eye(3)  # band minimum below mu = -4 in this entry only
    with pytest.raises(ChemicalPotentialError, match="min\\(eps - mu\\) = -"):
        thermal_covariances(h, 1.0, -4.0)
    h = random_hoppings(4, (4,), 3)
    h[1, 0, 2] += 1e-3
    with pytest.raises(ValueError, match="hopping matrix must be hermitian"):
        thermal_covariances(h, 1.0, -10.0)


def test_bose_occupations_reject_nan():
    h = np.diag([0.0, 1.0])
    with pytest.raises(ValueError, match="beta"):
        bose_occupations(h, beta=np.nan, mu=-1.0)
    with pytest.raises(ChemicalPotentialError, match="chemical potential mu must be a number"):
        bose_occupations(h, beta=1.0, mu=np.nan)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_hopping_names_the_contract(bad):
    h = np.full((2, 2), bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="hopping matrix must be finite"):
            thermal_state(h, 1.0, -1.0, make_lattice(1, 2))


def test_bose_occupations_infinite_beta_is_vacuum():
    modes = bose_occupations(np.diag([0.0, 1.0]), beta=np.inf, mu=-1.0)
    assert np.array_equal(modes.occupations, [0.0, 0.0])


def test_constructor_outputs_pass_validation():
    lat = make_lattice(2, 2)
    states = [
        coherent_state(lat, np.zeros(lat.modes)),
        coherent_state(lat, [0.1, 0.2j, -0.3, 0.4 + 0.1j]),
        squeezed_vacuum_state(lat, [0.2, -0.4, 0.1, 0.6]),
        thermal_state(np.diag([0.0, 0.3, 0.9, 1.4]), 1.0, -0.5, lat),
        random_gaussian_state(lat, 7),
        random_gaussian_state(lat, 8, classical=True),
    ]
    for st in states:
        report = validate(st)
        assert report.valid
        assert np.array_equal(st.V, st.V.T)


def test_bloch_state_assembles_its_blocks():
    lat = make_lattice(5, 2)
    v = random_bloch_blocks(lat, np.random.default_rng(3), 1.1, 3.0)
    st = BlochState(lat, v, [0.1, -0.2, 0.3, 0.4])
    assert np.array_equal(st.v_blocks, v)
    assert np.array_equal(st.V, reassemble_covariance(v))
    assert np.array_equal(st.mean, np.tile([0.1, -0.2, 0.3, 0.4], 5))
    assert not st.V.flags.writeable and not st.v_blocks.flags.writeable
    assert np.array_equal(require_valid(st), np.sort(np.linalg.eigvalsh(v), axis=None))
    assert np.abs(require_valid(st) - np.linalg.eigvalsh(st.V)).max() <= 1e-13


def test_bloch_state_spectrum_is_shared_and_validates_as_dense():
    """require_valid returns the cached, read-only spectrum, and validate of a
    BlochState, read from its blocks, agrees with validate of its dense twin."""
    for L in (3, 4, 8, 16):
        lat = make_lattice(L, 2)
        for seed in range(5):
            for classical in (True, False):
                st = random_circulant_state(lat, seed, classical=classical)
                assert require_valid(st) is st.spectrum
                assert not st.spectrum.flags.writeable
                bloch, dense = validate(st), validate(GaussianState(lat, st.V, st.mean))
                assert abs(bloch.min_eigenvalue - dense.min_eigenvalue) <= 1e-13
                assert abs(bloch.min_symplectic_eigenvalue
                           - dense.min_symplectic_eigenvalue) <= 1e-13
                assert bloch.purity == pytest.approx(dense.purity, rel=1e-12, abs=0.0)
                for flag in ("valid", "classical", "physical"):
                    assert getattr(bloch, flag) == getattr(dense, flag)


def test_bloch_state_within_the_realness_tolerance_reads_as_dense():
    """Blocks that pass the mirror check v_(L-k) = conj(v_k) at SYMMETRY_RTOL
    assemble to a real V: every dense reader takes the state as built."""
    lat = make_lattice(4, 2)
    v = np.array(random_circulant_state(lat, 0).v_blocks)
    v[1, 0, 1] += 5e-9j  # Hermitian, and 5e-9 off the mirror of v_3
    v[1, 1, 0] -= 5e-9j
    st = BlochState(lat, v, np.zeros(4))
    assert np.isrealobj(st.V) and np.array_equal(st.V, st.V.T)
    assert validate(st).valid
    reversed_shift = ShiftSpec(lat, shift_phases(lat).phases[::-1].copy())
    assert polarization(st, reversed_shift).path == "dense"
    bloch, dense = polarization(st), polarization(GaussianState(lat, st.V, st.mean))
    assert (bloch.path, dense.path) == ("bloch", "dense")
    assert abs(dense.p - bloch.p) <= 1e-12


def test_bloch_state_rejects_broken_blocks():
    lat = make_lattice(4, 1)
    v = random_bloch_blocks(lat, np.random.default_rng(0), 1.1, 3.0)
    broken = v.copy()
    broken[1] += 0.1 * np.eye(2)  # Hermitian, but v_3 = conj(v_1) no longer holds
    with pytest.raises(ValueError, match="conj"):
        BlochState(lat, broken, np.zeros(2))
    broken = v.copy()
    broken[2, 0, 1] += 0.1  # the self-conjugate block k = L/2 loses hermiticity
    with pytest.raises(ValueError, match="hermiticity"):
        BlochState(lat, broken, np.zeros(2))
    broken = v.copy()
    broken[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        BlochState(lat, broken, np.zeros(2))
    with pytest.raises(ValueError, match="Bloch blocks must be"):
        BlochState(make_lattice(5, 1), v, np.zeros(2))
    with pytest.raises(ValueError, match="cell mean"):
        BlochState(lat, v, np.zeros(4))
