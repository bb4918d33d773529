"""Block-circulant reduction: the Bloch path of polarization against its dense path."""

import numpy as np
import pytest

from bosepol import (
    BlochState,
    GaussianState,
    cell_bloch_blocks,
    coherent_state,
    decay_bound,
    lambda_max,
    make_lattice,
    polarization,
    random_circulant_state,
    reduced_determinant,
    squeezed_vacuum_state,
    thermal_state,
    two_mode_squeezed_state,
)
from bosepol.circulant import check_translation_invariance, random_bloch_blocks
from bosepol.errors import InvalidStateError, NotTranslationInvariantError
from bosepol.polarization import ordered_product, quadrature_phase_factors, shift_phases
from bosepol.rice_mele import RiceMeleParams, rmm_thermal_state
from bosepol.states import reassemble_covariance
from dense_reference import rmm_hopping_matrix

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def gauge_block(lattice) -> np.ndarray:
    """Diagonal of the intra-cell phase block D: the first 2n quadrature phase factors."""
    return quadrature_phase_factors(shift_phases(lattice))[: 2 * lattice.sites_per_cell]


def assert_paths_agree(state: GaussianState | BlochState, tol: float) -> None:
    """polarization of the state's Bloch blocks against its dense twin, the
    phase and the log-magnitude of det(1 - W) each within tol; and
    reduced_determinant against det(1 - W) read off the dense breakdown,
    log|<T>| = nL ln 2 - 1/2 log det(V + 1) - 1/2 log|det(1 - W)| + Re s,
    within tol relative."""
    bloch = polarization(cell_bloch_blocks(state))
    dense = polarization(GaussianState(state.lattice, state.V, state.mean))
    assert (bloch.path, dense.path) == ("bloch", "dense")
    assert abs(bloch.det_term_phase - dense.det_term_phase) <= tol
    assert abs(bloch.log_abs_T - dense.log_abs_T) <= tol
    _, logdet_vp1 = np.linalg.slogdet(state.V + np.eye(state.lattice.dim))
    log_abs = 2.0 * (state.lattice.modes * np.log(2.0) - dense.log_abs_T
                     + dense.mean_term.real) - logdet_vp1
    want = np.exp(log_abs - 2j * dense.det_term_phase)
    assert abs(reduced_determinant(cell_bloch_blocks(state)) - want) <= tol * abs(want)


def m_blocks(state: BlochState) -> np.ndarray:
    """m_k = (v_k + 1)^{-1}(v_k - 1) D, the factors of the reduced determinant."""
    v = state.v_blocks
    eye = np.eye(v.shape[-1])
    return np.linalg.solve(v + eye, v - eye) * gauge_block(state.lattice)


def test_scaled_identity_blocks():
    lat = make_lattice(4, 2)
    st = GaussianState(lat, 2.5 * np.eye(lat.dim), np.zeros(lat.dim))
    blocks = cell_bloch_blocks(st)
    for vk in blocks.v_blocks:
        assert np.allclose(vk, 2.5 * np.eye(4), atol=1e-12)


def direct_bloch_covariance(h: np.ndarray, L: int, beta: float, mu: float) -> np.ndarray:
    """Per-momentum thermal Bloch blocks, built without touching the dense V.

    Bloch-transforms the hopping blocks, applies the Bose function to each
    2x2 momentum block, and embeds the pair (N_k, N_{L-k}) into the
    quadrature representation.
    """
    tn = h.shape[0] // L
    hr = h.reshape(L, tn, L, tn)
    nks = []
    for k in range(L):
        hk = sum(hr[0, :, d, :] * np.exp(2j * np.pi * k * d / L) for d in range(L))
        eps, U = np.linalg.eigh(hk)
        nks.append((U * (1.0 / np.expm1(beta * (eps - mu)))) @ U.conj().T)
    out = np.empty((L, 2 * tn, 2 * tn), dtype=complex)
    for k in range(L):
        mirror = nks[(L - k) % L].T
        out[k] = (
            np.eye(2 * tn)
            + np.kron(nks[k] + mirror, np.eye(2))
            + np.kron(-1j * (nks[k] - mirror), J2)
        )
    return out


def test_thermal_rice_mele_bloch_blocks_match_direct_construction():
    """v_k from the dense covariance equals the per-momentum thermal build."""
    L, beta, mu = 6, 1.0, -3.0
    lat = make_lattice(L, 2)
    params = RiceMeleParams(0.8, 0.6, 0.35)
    st = rmm_thermal_state(params, lat, beta, mu)
    got = cell_bloch_blocks(st).v_blocks
    want = direct_bloch_covariance(rmm_hopping_matrix(params, lat), L, beta, mu)
    assert np.abs(got - want).max() < 1e-10


def test_complex_hopping_bloch_blocks_match_direct_construction():
    from bosepol.loops import chern_cell_blocks
    from bosepol.rice_mele import _ring_hamiltonian
    from bosepol.states import thermal_state

    L, beta, mu = 5, 1.0, -6.0
    lat = make_lattice(L, 2)
    h = _ring_hamiltonian(*chern_cell_blocks(1.3, mass=1.0), L)
    st = thermal_state(h, beta, mu, lat)
    got = cell_bloch_blocks(st).v_blocks
    want = direct_bloch_covariance(h, L, beta, mu)
    assert np.abs(got - want).max() < 1e-10


def test_thermal_state_from_complex_bloch_hamiltonians_matches_dense():
    """Bloch Hamiltonians (L, n, n) give a BlochState whose V is the dense thermal
    state's, here with a complex hopping, so Im N enters."""
    from bosepol.loops import chern_cell_blocks
    from bosepol.rice_mele import _ring_hamiltonian

    L, n, beta, mu = 5, 2, 1.0, -6.0
    lat = make_lattice(L, n)
    h = _ring_hamiltonian(*chern_cell_blocks(1.3, mass=1.0), L)
    hk = np.fft.ifft(h.reshape(L, n, L, n)[0].transpose(1, 0, 2), axis=0) * L
    st = thermal_state(hk, beta, mu, lat)
    dense = thermal_state(h, beta, mu, lat)
    assert isinstance(st, BlochState) and np.abs(dense.V[0::2, 1::2]).max() > 1e-3
    assert np.abs(st.V - dense.V).max() <= 1e-13
    assert np.abs(st.v_blocks - direct_bloch_covariance(h, L, beta, mu)).max() <= 1e-13
    with pytest.raises(ValueError, match="Bloch Hamiltonians"):
        thermal_state(hk[:4], beta, mu, lat)


def test_non_circulant_covariance_rejected():
    lat = make_lattice(2, 1)
    st = GaussianState(lat, np.diag([3.0, 3.0, 1.0, 1.0]), np.zeros(4))
    with pytest.raises(NotTranslationInvariantError):
        cell_bloch_blocks(st)


def test_non_periodic_mean_rejected():
    lat = make_lattice(2, 1)
    st = GaussianState(lat, 2.0 * np.eye(4), np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(NotTranslationInvariantError):
        check_translation_invariance(st)


def test_reassembly_roundtrip():
    lat = make_lattice(5, 2)
    st = random_circulant_state(lat, 3, classical=False)
    blocks = cell_bloch_blocks(st)
    assert np.abs(reassemble_covariance(blocks.v_blocks) - st.V).max() < 1e-10


@pytest.mark.parametrize("k0_high", [None, 0.9])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 7, 8])
def test_random_bloch_block_sets_equal_one_call_per_set(L, k0_high):
    lat = make_lattice(L, 2)
    bounds = ((0.3, 4.0), (-0.25, 0.25), (0.5, 2.0))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        each = [random_bloch_blocks(lat, rng, lo, hi, k0_high) for lo, hi in bounds]
        rng_sets = np.random.default_rng(seed)
        sets = random_bloch_blocks(lat, rng_sets, *zip(*bounds), k0_high)
        assert sets.shape == (3, L, 4, 4)
        assert all(np.array_equal(a, b) for a, b in zip(each, sets))
        assert np.array_equal(rng.normal(size=4), rng_sets.normal(size=4))


def per_set_bloch_blocks(lattice, rng, low, high, k0_high=None):
    """The draw of random_bloch_blocks one set at a time, with a list per
    draw, np.where for the self-conjugate momenta and a broadcast upper bound,
    kept as the reference for its bit-identical preallocated form."""
    L, tn = lattice.cells, 2 * lattice.sites_per_cell
    lows, highs = np.broadcast_arrays(np.asarray(low, dtype=float), np.asarray(high, dtype=float))
    self_conjugate = (2 * np.arange(L) % L == 0)[:, None, None]
    gaussians, eigs = [], []
    for lo, hi in zip(lows.ravel(), highs.ravel()):
        real, imag = rng.normal(size=(2, L, tn, tn))
        gaussians.append(real + 1j * np.where(self_conjugate, 0.0, imag))
        tops = np.full((L, 1), hi)
        if k0_high is not None:
            tops[0] = k0_high
        eigs.append(rng.uniform(lo, tops, size=(L, tn)))
    Q, _ = np.linalg.qr(np.stack(gaussians))
    B = (Q * np.stack(eigs)[..., None, :]) @ Q.conj().swapaxes(-1, -2)
    blocks = (B + B.conj().swapaxes(-1, -2)) / 2.0
    k = np.arange(L // 2 + 1, L)
    blocks[:, k] = blocks[:, L - k].conj()
    return blocks.reshape(*lows.shape, L, tn, tn)


@pytest.mark.parametrize("k0_high", [None, 0.9])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 7])
def test_random_bloch_blocks_equal_the_per_set_draw(L, k0_high):
    """Bit for bit, and leaving the generator in the same state, for one set
    given as scalars, one as a sequence and three."""
    lat = make_lattice(L, 2)
    bounds = ((0.3, 3.5), (-0.25, 0.25), (0.5, 4.0))
    for seed in range(10):
        for low, high in ((0.3, 3.5), ((0.3,), (3.5,)), tuple(zip(*bounds))):
            rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_bloch_blocks(lat, rng, low, high, k0_high)
            want = per_set_bloch_blocks(lat, want_rng, low, high, k0_high)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(rng.normal(size=4), want_rng.normal(size=4))


@pytest.mark.parametrize("classical", [True, False])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 7])
def test_random_circulant_state_blocks_equal_the_per_set_draw(L, classical):
    lat = make_lattice(L, 2)
    for seed in range(10):
        for mean_scale in (0.0, 0.5):
            state = random_circulant_state(lat, seed, classical, mean_scale=mean_scale)
            rng = np.random.default_rng(seed)
            low, k0_high = (1.1, None) if classical else (0.3, 0.9)
            assert np.array_equal(state.v_blocks, per_set_bloch_blocks(lat, rng, low, 4.0, k0_high))
            mean = mean_scale * rng.normal(size=4) if mean_scale else np.zeros(4)
            assert np.array_equal(state.cell_mean, mean)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 7, 8, 16])
def test_random_bloch_blocks_spectra_mirror_and_realness(L):
    lat = make_lattice(L, 2)
    blocks = random_bloch_blocks(lat, np.random.default_rng(L), 0.3, 4.0, k0_high=0.9)
    assert blocks.shape == (L, 4, 4)
    rng = np.random.default_rng(L)
    rng.normal(size=(2, L, 4, 4))  # real and imaginary parts of the Gaussian matrices
    highs = np.array([0.9] + [4.0] * (L - 1))[:, None]
    eigs = rng.uniform(0.3, highs, size=(L, 4))
    assert (eigs >= 0.3).all() and (eigs < highs).all()
    # Blocks k > L/2 mirror L - k, so they carry its eigenvalues.
    drawn = np.sort([eigs[min(k, L - k)] for k in range(L)], axis=-1)
    for k, v in enumerate(blocks):
        assert np.array_equal(v, v.conj().T)
        assert np.array_equal(blocks[(L - k) % L], v.conj()), k
        if 2 * k % L == 0:
            assert not v.imag.any(), k
        assert np.abs(np.linalg.eigvalsh(v) - drawn[k]).max() <= 1e-13, k
    V = reassemble_covariance(blocks)
    assert np.abs(np.linalg.eigvalsh(V) - np.sort(drawn, axis=None)).max() <= 1e-12


def test_classical_circulant_draws_keep_eig_low():
    for L, seed in ((3, 0), (4, 1), (8, 2)):
        st = random_circulant_state(make_lattice(L, 2), seed, eig_low=1.2, eig_high=3.0)
        vals = np.linalg.eigvalsh(st.V)
        assert vals[0] >= 1.2 - 1e-12 and vals[-1] < 3.0 + 1e-12


def test_uniform_thermal_scalar_reduction():
    # n = 1, nbar = 1 (q = 1/2), L = 3: det = (1 + q^3)^2 = 81/64
    lat = make_lattice(3, 1)
    st = thermal_state(np.zeros((3, 3)), beta=np.log(2.0), mu=-1.0, lattice=lat)
    det = reduced_determinant(cell_bloch_blocks(st))
    assert det == pytest.approx(81.0 / 64.0, rel=1e-12)
    assert_paths_agree(st, 1e-12)


def test_vacuum_determinant_is_one():
    lat = make_lattice(4, 2)
    st = coherent_state(lat, np.zeros(lat.modes))
    blocks = cell_bloch_blocks(st)
    assert np.abs(m_blocks(blocks)).max() == 0.0
    assert reduced_determinant(blocks) == pytest.approx(1.0)


def test_bloch_state_is_its_own_bloch_blocks():
    st = random_circulant_state(make_lattice(5, 2), 4, mean_scale=1.0)
    assert cell_bloch_blocks(st) is st
    dense = cell_bloch_blocks(GaussianState(st.lattice, st.V, st.mean))
    assert np.abs(dense.v_blocks - st.v_blocks).max() < 1e-12
    assert np.array_equal(dense.cell_mean, st.cell_mean)


def test_reduced_determinant_rejects_non_positive_definite_blocks():
    """A BlochState does not enforce V > 0; the reduced determinant checks it
    through require_valid."""
    lat = make_lattice(4, 2)
    v = np.array(random_circulant_state(lat, 2).v_blocks)
    v[0] -= (np.linalg.eigvalsh(v[0]).min() + 0.5) * np.eye(4)
    with pytest.raises(InvalidStateError, match="min covariance eigenvalue .* <= 0"):
        reduced_determinant(BlochState(lat, v, np.zeros(4)))


@pytest.mark.parametrize("classical", [True, False])
def test_reduced_matches_dense_on_random_states(classical):
    for seed, L in [(0, 4), (1, 6), (2, 9), (3, 12), (4, 16)]:
        lat = make_lattice(L, 2)
        st = random_circulant_state(lat, seed, classical=classical)
        assert_paths_agree(st, 1e-10)


def test_reduced_matches_dense_beyond_two_bands():
    # The reduction is written for arbitrary sites per cell (and survives
    # the single-cell edge case); the dense path is the reference.
    for n, L in [(1, 7), (2, 1), (3, 4), (4, 3)]:
        lat = make_lattice(L, n)
        st = random_circulant_state(lat, seed=20 + n, classical=(n % 2 == 0))
        assert_paths_agree(st, 1e-10)


def test_tmsv_is_circulant_on_two_cells():
    assert_paths_agree(two_mode_squeezed_state(0.9), 1e-12)


def test_lambda_max_values():
    lat = make_lattice(1, 1)
    st = GaussianState(lat, 3.0 * np.eye(2), np.zeros(2))
    assert lambda_max(st) == pytest.approx(0.5)
    assert lambda_max(coherent_state(lat, np.zeros(lat.modes))) == 0.0
    r = 0.7
    st = squeezed_vacuum_state(lat, r)
    assert lambda_max(st) == pytest.approx(np.tanh(r))


def test_decay_bound_arithmetic():
    lat = make_lattice(10, 1)
    st = thermal_state(np.zeros((10, 10)), beta=np.log(2.0), mu=-1.0, lattice=lat)
    assert lambda_max(st) == pytest.approx(0.5)
    assert decay_bound(st) == pytest.approx(4.0 / 1024.0)
    vac = coherent_state(lat, np.zeros(lat.modes))
    assert decay_bound(vac) == 0.0
    assert polarization(vac).det_term_phase == 0.0
    assert polarization(cell_bloch_blocks(vac)).det_term_phase == 0.0


def test_scaling_op_takes_one_block_spectrum(monkeypatch):
    """polarization, reduced_determinant and decay_bound of one BlochState read
    its cached spectrum: one stacked eigvalsh of the L blocks between them."""
    L = 16
    st = rmm_thermal_state(RiceMeleParams(0.8, 0.6, 0.35), make_lattice(L, 2), 1.0, -3.0)
    shapes = []

    def counted(a, *args, _fn=np.linalg.eigvalsh, **kwargs):
        shapes.append(np.shape(a))
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    polarization(st)
    reduced_determinant(cell_bloch_blocks(st))
    decay_bound(st)
    assert shapes == [(L, 4, 4)]


def test_thermal_family_phase_below_bound_and_decaying():
    params = RiceMeleParams(0.9, 0.1, 0.3)
    phases = {}
    for L in (4, 8, 16, 32):
        lat = make_lattice(L, 2)
        st = rmm_thermal_state(params, lat, beta=1.0, mu=-3.0)
        det = reduced_determinant(cell_bloch_blocks(st))
        phase = abs(np.angle(det))
        assert phase <= decay_bound(st)
        phases[L] = phase
    assert phases[8] < phases[4] and phases[16] < phases[8] and phases[32] < phases[16]


def test_cyclic_rotation_invariance():
    lat = make_lattice(6, 2)
    st = random_circulant_state(lat, 9, classical=False)
    blocks = cell_bloch_blocks(st)
    base = reduced_determinant(blocks)
    for shift in (1, 3):
        rolled = np.roll(m_blocks(blocks), shift, axis=0)
        prod = np.eye(4, dtype=complex)
        for mk in rolled:
            prod = mk @ prod
        det = np.linalg.det(np.eye(4) - prod)
        assert det == pytest.approx(base, rel=1e-11)


def test_block_eigenvalues_inside_unit_disk():
    lat = make_lattice(8, 2)
    for seed in range(3):
        st = random_circulant_state(lat, seed, classical=(seed != 1))
        blocks = cell_bloch_blocks(st)
        mu = np.abs(np.linalg.eigvals(m_blocks(blocks)))
        assert mu.max() < 1.0


def test_gauge_block_phases_default_offset():
    # theta_{0,s} = 2 pi (s + 1/2) / (n L): for n = 2 the intra-cell phases
    # are exp(i pi / (2L)) and exp(3 i pi / (2L)), one per quadrature pair.
    L = 5
    lat = make_lattice(L, 2)
    want = np.repeat(np.exp(1j * np.array([np.pi / (2 * L), 3 * np.pi / (2 * L)])), 2)
    assert np.allclose(gauge_block(lat), want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("L", [0, 1, 2, 3, 5, 8, 13])
def test_stacked_ordered_product_equals_sequential_product(L):
    """Axes between the factor axis and the matrices are carried along: each
    stack entry is m_{L-1} ... m_0."""
    rng = np.random.default_rng(L)
    mats = rng.normal(size=(L, 3, 2, 3, 3)) + 1j * rng.normal(size=(L, 3, 2, 3, 3))
    got = ordered_product(mats)
    assert got.shape == (3, 2, 3, 3)
    for i in np.ndindex(3, 2):
        want = np.eye(3)
        for m in mats[:, i[0], i[1]]:
            want = m @ want
        assert np.abs(got[i] - want).max() <= 1e-13 * max(1.0, np.abs(want).max()), i
        assert np.array_equal(ordered_product(mats[:, i[0], i[1]]), got[i]), i
