"""Dense closed form for <T> against independent oracles and bounds."""

import cmath
import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bosepol import (
    BlochState,
    GaussianState,
    PumpProtocol,
    RiceMeleParams,
    ShiftSpec,
    cell_bloch_blocks,
    coherent_state,
    make_lattice,
    polarization,
    random_circulant_state,
    random_gaussian_state,
    reduced_determinant,
    rmm_thermal_state,
    shift_phases,
    squeezed_vacuum_state,
    thermal_state,
    two_mode_squeezed_state,
    validate,
    zak_winding,
)
from bosepol.errors import InvalidStateError
from bosepol.loops import band_chern_number, random_classical_loop
from bosepol.polarization import (
    LOG_ABS_T_MARGIN,
    principal_polarization,
    quadrature_cotangents,
    quadrature_phase_factors,
)
from bosepol.states import reassemble_covariance
from bosepol.winding import ParameterLoop, track_polarization
from dense_reference import rmm_hopping_matrix


def thermal_mode_state(nbar: float, theta: float) -> tuple[GaussianState, ShiftSpec]:
    lat = make_lattice(1, 1, theta / (2 * np.pi))
    st = GaussianState(lat, (2 * nbar + 1) * np.eye(2), np.zeros(2))
    return st, shift_phases(lat)


def test_vacuum_expectation_is_one():
    lat = make_lattice(3, 2)
    b = polarization(coherent_state(lat, np.zeros(lat.modes)))
    assert b.expectation == pytest.approx(1.0, rel=1e-14)
    assert b.p == 0.0
    assert b.det_term_phase == 0.0


@pytest.mark.parametrize("L", [2, 4, 8])
def test_coherent_lattice_state_exact(L):
    lat = make_lattice(L, 2)
    st = coherent_state(lat, np.tile([0.6, 0.8j], L))
    b = polarization(st)
    assert abs(b.expectation - np.exp(-L)) <= 1e-12 * np.exp(-L)
    assert abs(b.p) <= 1e-12
    assert abs(b.p_unwrapped) <= 1e-12


def test_thermal_single_mode_geometric_series():
    st, sh = thermal_mode_state(1.0, np.pi)
    assert polarization(st, sh).expectation == pytest.approx(1.0 / 3.0, rel=1e-12)
    q = 0.5
    for theta in (0.3, 1.7, np.pi / 2, 5.0):
        st, sh = thermal_mode_state(1.0, theta)
        want = (1 - q) / (1 - q * np.exp(1j * theta))
        assert polarization(st, sh).expectation == pytest.approx(want, rel=1e-12)


def test_squeezed_single_mode_closed_form():
    r = np.arcsinh(1.0)
    lat = make_lattice(1, 1, 0.25)  # theta = pi/2
    st = squeezed_vacuum_state(lat, r)
    assert polarization(st).expectation == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)


def test_two_mode_site_dependent_thermal():
    lat = make_lattice(2, 1)
    st = GaussianState(lat, np.diag([3.0, 3.0, 1.0, 1.0]), np.zeros(4))
    b = polarization(st)
    want = 0.5 / (1.0 - 0.5j)
    assert b.expectation == pytest.approx(want, rel=1e-12)
    assert b.p == pytest.approx(np.arctan(0.5) / (2 * np.pi), abs=1e-12)
    assert b.p == pytest.approx(0.07379, abs=1e-5)


def test_tmsv_against_closed_form():
    r = 0.8
    st = two_mode_squeezed_state(r)
    t2 = np.tanh(r) ** 2
    for t1, t2p in [(0.7, 2.9), (np.pi / 3, np.pi / 5), (4.0, 4.2)]:
        sh = ShiftSpec(st.lattice, np.array([t1, t2p]))
        want = (1 - t2) / (1 - t2 * np.exp(1j * (t1 + t2p)))
        assert polarization(st, sh).expectation == pytest.approx(want, rel=1e-11)


def test_mean_term_zero_mean():
    lat = make_lattice(2, 2)
    st = thermal_state(np.diag([0.1, 0.2, 0.3, 0.4]), 1.0, -1.0, lat)
    assert polarization(st).mean_term == 0.0


@pytest.mark.parametrize("L", [2, 4])
def test_mean_term_full_lattice_coherent(L):
    lat = make_lattice(L, 2)
    st = coherent_state(lat, np.tile([1.0 / np.sqrt(2), 1j / np.sqrt(2)], L))
    s = polarization(st).mean_term
    assert s == pytest.approx(-L, abs=1e-12)


def test_mean_matrix_hermitian_part_is_covariance():
    """M = V - 1 + 2 (1 - U)^{-1} = V + iK is complex symmetric with hermitian part V."""
    lat = make_lattice(2, 2)
    for seed in range(3):
        st = random_gaussian_state(lat, seed)
        M = st.V + 1j * np.diag(quadrature_cotangents(shift_phases(lat)))
        assert np.abs((M + M.conj().T) / 2.0 - st.V).max() < 1e-12 * np.abs(st.V).max()


def test_mean_term_is_contractive():
    lat = make_lattice(2, 2)
    for seed in range(6):
        st = random_gaussian_state(lat, seed, classical=(seed % 2 == 0), mean_scale=1.5)
        s = polarization(st).mean_term
        assert s.real <= 0.0
        assert abs(np.exp(s)) < 1.0


def eigenvector_form(state: GaussianState, shift: ShiftSpec) -> tuple[float, complex, float]:
    """Im ln det(1 - W), s and log|<T>| of the dense closed form from a second
    eigh with vectors, H = P diag(h) P^T: b = P^T A^T alpha0 and
    s = -1/2 sum_j b_j^2 / (1 + i h_j)."""
    vals, Q = np.linalg.eigh(state.V)
    k = quadrature_cotangents(shift)
    A = Q / np.sqrt(vals)
    h, P = np.linalg.eigh(A.T @ (k[:, None] * A))
    b = P.T @ (A.T @ state.mean)
    s = complex(-0.5 * np.sum(b * b / (1.0 + 1j * h)))
    k = np.sort(k)
    phi = float(np.sum(np.arctan(h)) - np.sum(np.arctan(k)))
    log_abs = float(0.25 * np.sum(np.log1p(k * k)) - 0.25 * np.sum(np.log1p(h * h))
                    - 0.5 * np.sum(np.log(vals))) + s.real
    return phi, s, log_abs


def assert_matches_eigenvector_form(state: GaussianState, shift: ShiftSpec) -> float:
    """The solve of 1 + iH and the values-only branch agree with the eigenvector
    form to 1e-12, relative to the value or, for the phase and log-magnitude,
    which sum terms of order 1 per quadrature, to 1 where they are smaller;
    Re s <= 0 holds exactly. Returns log|<T>|."""
    b = polarization(state, shift)
    phi, s, log_abs = eigenvector_form(state, shift)
    assert abs(b.mean_term - s) <= 1e-12 * abs(s)
    assert abs(-2.0 * b.det_term_phase - phi) <= 1e-12 * max(1.0, abs(phi))
    assert abs(b.log_abs_T - log_abs) <= 1e-12 * max(1.0, abs(log_abs))
    assert b.mean_term.real <= 0.0
    return b.log_abs_T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    L=hst.integers(1, 4),
    n=hst.integers(1, 3),
    seed=hst.integers(0, 2 ** 32 - 1),
    classical=hst.booleans(),
    mean_scale=hst.sampled_from([0.0, 0.7, 5.0]),
)
def test_dense_terms_match_eigenvector_form(L, n, seed, classical, mean_scale):
    lat = make_lattice(L, n)
    st = random_gaussian_state(lat, seed, classical=classical, mean_scale=mean_scale)
    phases = np.random.default_rng(seed).uniform(0.05, 2.0 * np.pi - 0.05, lat.modes)
    for shift in (shift_phases(lat), ShiftSpec(lat, phases)):
        assert assert_matches_eigenvector_form(st, shift) <= 0.0  # |<T>| <= 1 exactly


def extreme_dense_cases():
    one, two, six = make_lattice(1, 1), make_lattice(1, 2), make_lattice(6, 1)
    tmsv = two_mode_squeezed_state(8.0)
    hot = 2e14 + 1.0
    return [
        # k = cot(theta / 2) near +-2e9 and |<T>| = 1 - O(1e-18): rounding can
        # put log|<T>| above 0; the package's rounding margin bounds it.
        pytest.param(random_gaussian_state(two, 3, mean_scale=0.8),
                     ShiftSpec(two, [1e-9, 2.0 * np.pi - 1e-9]), LOG_ABS_T_MARGIN,
                     id="phases 1e-9, 2pi - 1e-9"),
        pytest.param(GaussianState(one, squeezed_vacuum_state(one, 8.0).V, [0.7, -0.4]),
                     ShiftSpec(one, [2.0]), 0.0, id="squeezed r = 8"),
        pytest.param(GaussianState(tmsv.lattice, tmsv.V, [0.3, 0.1, -0.2, 0.5]),
                     shift_phases(tmsv.lattice), 0.0, id="two-mode squeezed r = 8"),
        pytest.param(GaussianState(six, hot * np.eye(12), np.linspace(-1.0, 1.0, 12) * 1e8),
                     shift_phases(six), 0.0, id="thermal nbar = 1e14"),
    ]


@pytest.mark.parametrize("state, shift, log_abs_bound", extreme_dense_cases())
def test_extreme_dense_terms_match_eigenvector_form(state, shift, log_abs_bound):
    assert assert_matches_eigenvector_form(state, shift) <= log_abs_bound


def test_log_abs_T_at_phases_near_zero_stays_within_rounding():
    """At phases near 0, k_j = cot(theta_j / 2) is near +-2e9 and |<T>| is
    1 - O(1e-18). Each ascending h_j against the sorted k_j in one quotient
    (1 + i h_j) / (1 + i k_j) keeps log|<T>| within a few 1e-15 of it, where
    summing log|1 + i h_j| and log|1 + i k_j|, each near 21, apart reached 1e-14."""
    two = make_lattice(1, 2)
    worst = max(
        polarization(random_gaussian_state(two, seed, mean_scale=0.8),
                     ShiftSpec(two, [theta, theta])).log_abs_T
        for seed in range(200) for theta in (1e-9, 2.0 * np.pi - 1e-9, 1e-6)
    )
    assert worst <= 5e-15


def cayley_matrix(state: GaussianState) -> np.ndarray:
    """G = (V - 1)(V + 1)^{-1}, so that W = G U."""
    eye = np.eye(state.lattice.dim)
    return np.linalg.solve(state.V + eye, state.V - eye)


def branch_phase_eigenvalues(W: np.ndarray) -> tuple[float, float]:
    """Branch phase and log-magnitude of det(1 - W) from the eigenvalues mu_j of W.

    Returns (sum_j Arg(1 - mu_j), sum_j log|1 - mu_j|). Every mu_j lies
    inside the unit disk because ||W|| < 1, so each factor 1 - mu_j has a
    positive real part along the whole homotopy from W = 0, and the sum of
    principal arguments is the continuously tracked phase.
    """
    one_minus_mu = 1.0 - np.linalg.eigvals(W)
    return float(np.sum(np.angle(one_minus_mu))), float(np.sum(np.log(np.abs(one_minus_mu))))


def homotopy_branch(G: np.ndarray, shift: ShiftSpec) -> float:
    """Reference branch: unwrapped slogdet phase of det(1 - G U(lam)), lam in [0, 1].

    The grid keeps the true phase change per step below pi/4, from the bound
    |d arg det / d lam| <= 2nL theta_max ||G|| / (1 - ||G||).
    """
    norm = np.linalg.norm(G, 2)
    rate = 2 * shift.lattice.modes * shift.phases.max() * norm / (1 - norm)
    eye = np.eye(G.shape[0])
    phases = [
        np.angle(np.linalg.slogdet(eye - G * np.repeat(np.exp(1j * lam * shift.phases), 2))[0])
        for lam in np.linspace(0.0, 1.0, int(rate / (np.pi / 4)) + 16)
    ]
    return float(np.unwrap(phases)[-1])


def thermal_product(nbar: float, thetas) -> complex:
    """Exact <T> of independent thermal modes: prod (1 - q) / (1 - q e^{i theta})."""
    q = nbar / (nbar + 1.0)
    return complex(np.prod([(1 - q) / (1 - q * np.exp(1j * t)) for t in thetas]))


def number_conserving_oracle(h: np.ndarray, beta: float, mu: float, thetas) -> complex:
    """<T> = 1 / det(1 + N (1 - e^{i Theta})) for a thermal state of hopping h.

    No square root appears, so the value also pins the branch.
    """
    eps, vecs = np.linalg.eigh(h)
    N = (vecs / np.expm1(beta * (eps - mu))) @ vecs.conj().T
    return complex(1.0 / np.linalg.det(np.eye(len(thetas)) + N * (1.0 - np.exp(1j * thetas))))


def test_homotopy_branch_equals_eigenvalue_branch():
    turns = set()
    for seed in range(8):
        lat = make_lattice(3, 2)
        st = random_gaussian_state(lat, seed, classical=(seed % 2 == 0))
        G = cayley_matrix(st)
        # Phases in (pi, 2 pi) push half of these branches a turn away
        # from the principal phase.
        rng = np.random.default_rng(seed)
        for sh in (shift_phases(lat), ShiftSpec(lat, rng.uniform(np.pi, 2 * np.pi, 6))):
            W = G * quadrature_phase_factors(sh)
            phi, logabs = branch_phase_eigenvalues(W)
            assert phi == pytest.approx(homotopy_branch(G, sh), abs=1e-9)
            sign, want_logabs = np.linalg.slogdet(np.eye(len(W)) - W)
            assert logabs == pytest.approx(want_logabs, abs=1e-12)
            assert abs(np.exp(1j * phi) - sign) <= 1e-12
            b = polarization(st, sh)
            assert -2.0 * b.det_term_phase == pytest.approx(phi, abs=1e-12)
            turns.add(b.branch_turns)
    assert turns == {0, 1}


def test_branch_is_periodic_in_the_shift_phases():
    # U, and with it the homotopy branch, depends on theta only mod 2 pi;
    # negative and large phases must give the same polarization.
    lat = make_lattice(3, 2)
    rng = np.random.default_rng(7)
    for seed in range(4):
        st = random_gaussian_state(lat, seed, classical=(seed % 2 == 0), mean_scale=0.5)
        G = cayley_matrix(st)
        for lo in (0.0, np.pi):
            theta = rng.uniform(lo, lo + np.pi, 6)
            base = polarization(st, ShiftSpec(lat, theta))
            want = branch_phase_eigenvalues(G * np.repeat(np.exp(1j * theta), 2))[0]
            assert -2.0 * base.det_term_phase == pytest.approx(want, abs=1e-12)
            for m in ([1, 0, 0, 0, 0, 0], [-1] * 6, [3, -3, 2, -2, 0, -1], [-4] * 6):
                b = polarization(st, ShiftSpec(lat, theta + 2 * np.pi * np.array(m)))
                assert b.p_unwrapped == pytest.approx(base.p_unwrapped, abs=1e-12)
                assert b.branch_turns == base.branch_turns
                assert -2.0 * b.det_term_phase == pytest.approx(want, abs=1e-12)


FACTORIZATIONS = ("eigh", "eigvals", "eigvalsh", "solve", "slogdet", "det", "inv", "cholesky")


def count_factorizations(monkeypatch, matrices=None, shapes=None) -> collections.Counter:
    """Count the np.linalg factorization calls made while the patch is active.

    A ``matrices`` counter, if given, counts the matrices they factorize, so
    one call on a stack of 17 counts 17 there. A ``shapes`` set, if given,
    collects the shape of each factorized matrix.
    """
    calls = collections.Counter()
    for name in FACTORIZATIONS:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            if matrices is not None:
                matrices[_name] += math.prod(np.shape(args[0])[:-2])
            if shapes is not None:
                shapes.add(np.shape(args[0])[-2:])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def dense_sampler(lattice, sampler):
    """A Bloch loop's sampler as dense covariances and means."""
    def dense(lams):
        v, cell_mean = sampler(lams)
        return reassemble_covariance(v), np.tile(cell_mean, lattice.cells)

    return dense


def test_factorizations_per_evaluation(monkeypatch):
    lat = make_lattice(4, 2)
    mean_scales = (0.5, 0.0)
    states = [random_gaussian_state(lat, 2, mean_scale=m) for m in mean_scales]
    bloch_loops = [random_classical_loop(lat, 3, mean_scale=m) for m in mean_scales]
    dense_loops = [dataclasses.replace(loop, sampler=dense_sampler(lat, loop.sampler))
                   for loop in bloch_loops]
    tracks = [track_polarization(loop) for loop in bloch_loops]
    matrices, shapes = collections.Counter(), set()
    calls = count_factorizations(monkeypatch, matrices, shapes)

    # One eigh of V, the eigenvalues alone of H and, with a mean, one solve of
    # 1 + iH, each of the 2nL x 2nL matrix.
    for mean_scale, st in zip(mean_scales, states):
        calls.clear()
        matrices.clear()
        shapes.clear()
        polarization(st)
        want = {"eigh": 1, "eigvalsh": 1, **({"solve": 1} if mean_scale else {})}
        assert calls == matrices == want
        assert shapes == {(lat.dim, lat.dim)}

    for mean_scale, dense_loop, bloch_loop, track in zip(
            mean_scales, dense_loops, bloch_loops, tracks):
        samples = len(track.lambdas)
        assert samples == bloch_loop.initial_samples + 1  # no bisection
        for loop in (dense_loop, bloch_loop):
            calls.clear()
            matrices.clear()
            shapes.clear()
            # The stacked sampler itself factorizes nothing.
            again = track_polarization(loop)
            assert again.lambdas.tolist() == track.lambdas.tolist()
            if loop is dense_loop:
                # One eigh of V, whose eigenvalues also check V > 0, so no
                # Cholesky; the eigenvalues alone of H and, with a mean, one
                # solve per sample, each in one call per grid: the track's
                # phase at lambda = 0 is the kernel's own, so no pointwise
                # anchor and no slogdet.
                want = {"eigh": samples, "eigvalsh": samples}
                if mean_scale:
                    want["solve"] = samples
                want_calls = {name: 1 for name in want}
                assert shapes == {(lat.dim, lat.dim)}
                assert "slogdet" not in calls
            else:
                # Per sample, one Cholesky of each block v_k and of (v_k + 1) / 2,
                # one inverse of each v_k + 1, one slogdet of 1 - P and, with a
                # mean, one solve; one eigvals of P at lambda = 0 gives the
                # branch. All of them are 2n x 2n.
                want = {"cholesky": 2 * samples * lat.cells, "inv": samples * lat.cells,
                        "slogdet": samples, "eigvals": 1}
                want_calls = {name: 2 if name == "cholesky" else 1 for name in want}
                assert shapes == {(4, 4)}
                if mean_scale:
                    want["solve"], want_calls["solve"] = samples, 1
            assert matrices == want
            assert calls == want_calls


@pytest.mark.parametrize("mean_scale", [0.0, 0.6])
def test_bloch_evaluation_factorizes_only_cell_blocks(monkeypatch, mean_scale):
    """The loop kernel on a stack of one: one stacked eigvalsh of the L blocks
    for the diagnostics, one Cholesky and one inverse of the v_k + 1, one
    slogdet and one eigvals of P and, with a mean, one solve. No matrix is
    beyond 2n x 2n, and the dense V is never assembled."""
    L, n = 48, 3
    st = random_circulant_state(make_lattice(L, n), 4, mean_scale=mean_scale)
    matrices, shapes = collections.Counter(), set()
    calls = count_factorizations(monkeypatch, matrices, shapes)
    b = polarization(st)
    assert b.path == "bloch"
    want = {"eigvalsh": L, "cholesky": L, "inv": L, "slogdet": 1, "eigvals": 1}
    if mean_scale:
        want["solve"] = 1
    assert matrices == want
    assert calls == {name: 1 for name in want}
    assert shapes == {(2 * n, 2 * n)}
    assert "V" not in vars(st) and "mean" not in vars(st)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    L=hst.integers(1, 64),
    n=hst.integers(1, 3),
    offset=hst.floats(0.02, 0.98),
    seed=hst.integers(0, 2 ** 32 - 1),
    eig_high=hst.sampled_from([1.5, 4.0, 20.0, 200.0]),
    mean_scale=hst.sampled_from([0.0, 0.8]),
)
def test_bloch_path_equals_dense_path(L, n, offset, seed, eig_high, mean_scale):
    lat = make_lattice(L, n, offset)
    bloch_state = random_circulant_state(lat, seed, eig_high=eig_high, mean_scale=mean_scale)
    bloch = polarization(bloch_state)
    dense = polarization(GaussianState(lat, bloch_state.V, bloch_state.mean))
    assert (bloch.path, dense.path) == ("bloch", "dense")
    assert abs(bloch.log_abs_T - dense.log_abs_T) <= 1e-10
    assert abs(bloch.det_term_phase - dense.det_term_phase) <= 1e-10
    assert abs(bloch.mean_term - dense.mean_term) <= 1e-10
    assert bloch.branch_turns == dense.branch_turns
    assert bloch.abs_T <= 1.0
    assert bloch.cayley_norm == pytest.approx(dense.cayley_norm, rel=1e-12)
    assert bloch.min_covariance_eigenvalue == pytest.approx(
        dense.min_covariance_eigenvalue, rel=1e-12)


part_strategy = hst.tuples(
    hst.integers(1, 4), hst.integers(1, 3), hst.integers(0, 2 ** 32 - 1),
    hst.sampled_from([0.0, 0.7]),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=part_strategy, b=part_strategy)
def test_expectation_factorizes_over_direct_sums(a, b):
    """<T>(A (+) B) = <T>(A) <T>(B) with each block under its own shift phases,
    and the polarizations on the homotopy branch add."""
    parts = [random_gaussian_state(make_lattice(L, n), seed, mean_scale=scale)
             for L, n, seed, scale in (a, b)]
    lat = make_lattice(1, sum(p.lattice.modes for p in parts))
    V = np.zeros((lat.dim, lat.dim))
    split = parts[0].lattice.dim
    V[:split, :split], V[split:, split:] = parts[0].V, parts[1].V
    whole = polarization(
        GaussianState(lat, V, np.concatenate([p.mean for p in parts])),
        ShiftSpec(lat, np.concatenate([shift_phases(p.lattice).phases for p in parts])),
    )
    pa, pb = (polarization(p) for p in parts)
    product = pa.expectation * pb.expectation
    assert abs(whole.expectation - product) <= 1e-10 * abs(product)
    assert abs(whole.p_unwrapped - pa.p_unwrapped - pb.p_unwrapped) <= 1e-9
    assert abs(whole.expectation) <= 1.0


def test_bloch_branch_one_turn_from_the_principal_phase():
    """L = 1, n = 3, offset 0.98: two hot modes at phases near 4.15 and 6.24 put
    the homotopy branch one turn from the principal phase on the Bloch path too."""
    lat = make_lattice(1, 3, 0.98)
    h = np.diag([10.0, 1e-3, 1e-3])
    b = polarization(thermal_state(h[None], 1.0, 0.0, lat))
    dense = polarization(thermal_state(h, 1.0, 0.0, lat))
    assert (b.path, dense.path) == ("bloch", "dense")
    assert b.branch_turns == dense.branch_turns == 1
    assert abs(b.p_unwrapped - dense.p_unwrapped) <= 1e-12
    want = number_conserving_oracle(h, 1.0, 0.0, shift_phases(lat).phases)
    assert abs(b.expectation - want) <= 1e-12 * abs(want)


def test_bloch_state_under_another_shift_takes_the_dense_path():
    lat = make_lattice(6, 2)
    bloch_state = random_circulant_state(lat, 2, mean_scale=0.5)
    shift = ShiftSpec(lat, shift_phases(lat).phases[::-1])
    b = polarization(bloch_state, shift)
    want = polarization(GaussianState(lat, bloch_state.V, bloch_state.mean), shift)
    assert b == want and b.path == "dense"


def test_one_eigh_per_band_invariant(monkeypatch):
    """zak_winding and band_chern_number take their band vectors in closed form:
    no factorization at all, where each once diagonalized its whole grid."""
    calls = count_factorizations(monkeypatch)
    assert zak_winding(PumpProtocol(1.0, 50.0)) == 1
    assert calls == {}
    assert band_chern_number(1.0, 24) == 1
    assert calls == {}


def test_branch_tracking_on_hot_state():
    # Large occupations push |W| close to 1 and wind the determinant phase
    # through several quadrants along the homotopy.
    lat = make_lattice(6, 1)
    nbar = 20.0
    st = GaussianState(lat, (2 * nbar + 1) * np.eye(12), np.zeros(12))
    sh = shift_phases(lat)
    b = polarization(st, sh)
    assert b.expectation == pytest.approx(thermal_product(nbar, sh.phases), rel=1e-10)
    assert -2.0 * b.det_term_phase == pytest.approx(
        homotopy_branch(cayley_matrix(st), sh), abs=1e-9
    )


@pytest.mark.parametrize("nbar", [1e2, 1e3, 1e4])
def test_near_critical_uniform_thermal(nbar):
    lat = make_lattice(6, 1)
    st = thermal_state(np.zeros((6, 6)), 1.0, -math.log1p(1.0 / nbar), lat)
    b = polarization(st)
    want = thermal_product(nbar, shift_phases(lat).phases)
    assert abs(b.expectation - want) <= 1e-10 * abs(want)
    assert b.cayley_norm == pytest.approx(nbar / (nbar + 1), rel=1e-9)


def test_hot_thermal_state_large_lattice():
    lat = make_lattice(64, 1)
    nbar = 20.0
    st = GaussianState(lat, (2 * nbar + 1) * np.eye(128), np.zeros(128))
    want = thermal_product(nbar, shift_phases(lat).phases)
    assert abs(polarization(st).expectation - want) <= 1e-10 * abs(want)


def test_rice_mele_thermal_just_below_band_bottom():
    w1, w2, delta, beta = 1.0, 0.3, 0.5, 1.0
    mu = -math.hypot(w1 + w2, delta) - 0.01
    params = RiceMeleParams(w1, w2, delta)
    lat = make_lattice(4, 2)
    b = polarization(rmm_thermal_state(params, lat, beta, mu))
    want = number_conserving_oracle(
        rmm_hopping_matrix(params, lat), beta, mu, shift_phases(lat).phases
    )
    assert abs(b.expectation - want) <= 1e-10 * abs(want)
    assert 0.0 < b.abs_T <= 1.0


def test_near_critical_random_circulant():
    st = random_circulant_state(make_lattice(32, 2), 1, eig_high=20.0)
    b = polarization(st)
    assert 0.0 < b.abs_T <= 1.0
    # log|<T>| = nL ln 2 - 1/2 log det(V + 1) - 1/2 log|det(1 - W)| at zero mean
    _, logdet_vp1 = np.linalg.slogdet(st.V + np.eye(st.lattice.dim))
    logabs = 2.0 * (st.lattice.modes * np.log(2.0) - b.log_abs_T) - logdet_vp1
    reduced = reduced_determinant(cell_bloch_blocks(st))
    assert logabs == pytest.approx(np.log(abs(reduced)), abs=1e-10 * max(1.0, abs(logabs)))


def test_breakdown_diagnostics():
    lat = make_lattice(4, 2)
    b = polarization(coherent_state(lat, np.tile([0.6, 0.8j], 4)))
    assert b.cayley_norm == 0.0
    assert b.branch_turns == 0
    assert b.path == "dense"

    lat = make_lattice(6, 1)
    st = thermal_state(np.zeros((6, 6)), 1.0, -math.log1p(1e-4), lat)
    assert polarization(st).cayley_norm > 0.999

    # Two hot modes with phases near 2 pi: each factor 1 - mu_j sits near
    # the positive imaginary axis, so the branch lies one turn from the
    # principal phase, and only that branch reproduces the exact product.
    lat = make_lattice(1, 2)
    sh = ShiftSpec(lat, [5.5, 6.0])
    st = GaussianState(lat, 101.0 * np.eye(4), np.zeros(4))
    b = polarization(st, sh)
    assert b.branch_turns == 1
    want = thermal_product(50.0, sh.phases)
    assert abs(b.expectation - want) <= 1e-10 * abs(want)


def test_cayley_norm_is_the_largest_over_the_spectrum():
    """cayley_norm = max_j |v_j - 1| / (v_j + 1) over the whole spectrum of V, on
    both paths: the largest eigenvalue sets it in a thermal mode beside a vacuum
    mode, the smallest in a math-only draw with V > 0 and no V + i Omega >= 0."""
    pair = make_lattice(1, 2)
    states = [GaussianState(pair, np.diag([3.0, 3.0, 1.0, 1.0]), np.zeros(4)),
              random_circulant_state(make_lattice(8, 2), 0, classical=False, eig_high=2.0)]
    ends = []
    for st in states:
        v = np.linalg.eigvalsh(st.V)
        norms = np.abs((v - 1.0) / (v + 1.0))
        ends.append(norms[0] > norms[-1])
        dense = GaussianState(st.lattice, st.V, st.mean)
        for b in (polarization(st), polarization(dense)):
            assert b.cayley_norm == pytest.approx(norms.max(), rel=1e-12)
    assert ends == [False, True]


def test_phase_of_a_unit_covariance_is_exactly_zero_under_any_phases():
    """Sorted k equals the ascending h of H = K entry for entry, so V = 1 gives a
    determinant phase of exactly 0 under phases in no particular order."""
    lat = make_lattice(16, 4)
    shift = ShiftSpec(lat, np.random.default_rng(0).uniform(0.1, 2.0 * np.pi - 0.1, lat.modes))
    amps = np.linspace(-1.0, 1.0, lat.modes) * (1.0 + 0.5j)
    vacuum = polarization(GaussianState(lat, np.eye(lat.dim), np.zeros(lat.dim)), shift)
    assert vacuum.det_term_phase == 0.0 and vacuum.log_abs_T == 0.0
    coherent = polarization(coherent_state(lat, amps), shift)
    assert coherent.det_term_phase == 0.0
    want = np.exp(np.sum((np.exp(1j * shift.phases) - 1.0) * np.abs(amps) ** 2))
    assert coherent.expectation == pytest.approx(want, rel=1e-12)


def test_det_v_plus_one_floor():
    lat = make_lattice(2, 2)
    states = [
        coherent_state(lat, np.zeros(lat.modes)),
        squeezed_vacuum_state(lat, [0.3, -0.5, 0.2, 0.7]),
        thermal_state(np.diag([0.0, 0.1, 0.5, 1.0]), 2.0, -0.5, lat),
        random_gaussian_state(lat, 3),
    ]
    for st in states:
        vals = np.linalg.eigvalsh(st.V)
        logdet = np.sum(np.log1p(vals))
        assert logdet >= 2 * lat.modes * np.log(2.0) - 1e-10
    vacuum = coherent_state(lat, np.zeros(lat.modes))
    vac_logdet = np.sum(np.log1p(np.linalg.eigvalsh(vacuum.V)))
    assert vac_logdet == pytest.approx(2 * lat.modes * np.log(2.0))


def test_classical_amplitude_bound():
    lat = make_lattice(3, 2)
    h = np.diag([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    for beta, mu in [(1.0, -0.5), (0.5, -1.0), (2.0, -0.2)]:
        st = thermal_state(h, beta, mu, lat)
        report = validate(st)
        assert report.min_eigenvalue > 1.0
        bound = ((1.0 + report.min_eigenvalue) / 2.0) ** (-lat.modes)
        b = polarization(st)
        assert 0.0 < b.abs_T < bound < 1.0


def test_abs_t_positive_for_random_states():
    lat = make_lattice(2, 2)
    for seed in range(6):
        st = random_gaussian_state(lat, seed, mean_scale=0.8)
        assert polarization(st).abs_T > 0.0


def test_invalid_state_raises():
    lat = make_lattice(2, 1)
    st = GaussianState(lat, np.diag([1.0, 1.0, 1.0, -0.5]), np.zeros(4))
    contract = r"invalid state: min covariance eigenvalue -0\.5 <= 0"
    with pytest.raises(InvalidStateError, match=contract):
        polarization(st).expectation
    v = np.stack([np.diag([1.0, -0.5]), np.eye(2)])  # real blocks, so v_1 = conj(v_1)
    with pytest.raises(InvalidStateError, match=contract):
        polarization(BlochState(lat, v, np.zeros(2)))


def test_unphysical_positive_definite_state_raises():
    lat = make_lattice(1, 2)
    st = GaussianState(lat, 0.5 * np.eye(4), np.zeros(4))  # V > 0, but |<T>| = 1.6
    contract = r"\|<T>\| = 1\.6 > 1.*V \+ i Omega >= 0"
    with pytest.raises(InvalidStateError, match=contract):
        polarization(st)
    with pytest.raises(InvalidStateError, match="at lambda = .*" + contract):
        track_polarization(ParameterLoop(
            lat, lambda lams: (np.array([st.V] * len(lams)), np.zeros((len(lams), 4))), 8
        ))


def displaced_thermal_mode(theta: float, nbar: float, alpha: complex) -> complex:
    """<T> of one thermal mode of occupation nbar displaced by alpha, in closed form.

    (1-q)/(1-z) exp(i |alpha|^2 sin theta - |b|^2 (1+z) / (2 (1-z))) with
    q = nbar / (nbar + 1), z = q e^{i theta} and |b|^2 = 2 |alpha|^2 (1 - cos theta).
    """
    q = nbar / (nbar + 1.0)
    z = q * cmath.exp(1j * theta)
    a2 = abs(alpha) ** 2
    b2 = 2.0 * a2 * (1.0 - math.cos(theta))
    return (1.0 - q) / (1.0 - z) * cmath.exp(
        1j * a2 * math.sin(theta) - b2 * (1.0 + z) / (2.0 * (1.0 - z))
    )


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_mean_term_against_displaced_thermal_closed_form(modes):
    rng = np.random.default_rng(modes)
    lat = make_lattice(1, modes)
    for _ in range(8):
        thetas = rng.uniform(0.1, 2 * np.pi - 0.1, size=modes)
        nbar = rng.uniform(0.0, 3.0, size=modes)
        alpha = rng.normal(size=modes) + 1j * rng.normal(size=modes)
        mean = np.column_stack([2.0 * alpha.real, 2.0 * alpha.imag]).reshape(-1)
        st = GaussianState(lat, np.diag(np.repeat(2.0 * nbar + 1.0, 2)), mean)
        expected = np.prod([displaced_thermal_mode(*args) for args in zip(thetas, nbar, alpha)])
        got = polarization(st, ShiftSpec(lat, thetas)).expectation
        assert abs(got - expected) <= 1e-10 * abs(expected)


def test_shift_phase_roots_of_unity_sum():
    for L in (2, 3, 5, 8):
        lat = make_lattice(L, 2)
        theta = shift_phases(lat).phases.reshape(L, 2)
        for s in range(2):
            assert abs(np.exp(1j * theta[:, s]).sum()) < 1e-12


def test_coherent_polarization_gauge_independent():
    for delta in (0.25, 0.5, 0.75):
        lat = make_lattice(4, 2, delta)
        st = coherent_state(lat, np.tile([0.6, 0.8], 4))
        b = polarization(st)
        assert abs(b.expectation - np.exp(-4.0)) < 1e-13
        assert abs(b.p) < 1e-13


def test_shift_spec_rejects_zero_phase():
    lat = make_lattice(2, 1)
    with pytest.raises(ValueError):
        ShiftSpec(lat, np.array([0.0, np.pi]))
    with pytest.raises(ValueError):
        ShiftSpec(lat, np.array([2 * np.pi, np.pi]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shift_spec_rejects_non_finite_phase(bad):
    with pytest.raises(ValueError, match="shift phases must be finite"):
        ShiftSpec(make_lattice(2, 1), np.array([bad, np.pi]))


def test_principal_window():
    assert principal_polarization(0.5) == 0.5
    assert principal_polarization(-0.5) == 0.5
    assert principal_polarization(0.7) == pytest.approx(-0.3)
    assert principal_polarization(-3.2) == pytest.approx(-0.2)
    assert principal_polarization(2.0) == pytest.approx(0.0)


def test_breakdown_consistency():
    lat = make_lattice(3, 2)
    st = random_gaussian_state(lat, 11, classical=True, mean_scale=0.7)
    b = polarization(st)
    assert b.p_unwrapped == pytest.approx(
        (b.det_term_phase + b.mean_term.imag) / (2 * np.pi)
    )
    assert b.p == pytest.approx(principal_polarization(b.p_unwrapped))
    assert abs(b.expectation) == pytest.approx(b.abs_T, rel=1e-12)
    assert 0.0 < b.cayley_norm < 1.0
