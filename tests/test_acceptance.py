"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> ... PASS`` line (run with ``pytest -s``
to see them) and enforces the tolerances and runtime budgets directly.
"""

import time

import numpy as np

from bosepol import (
    BlochState,
    GaussianState,
    coherent_state,
    make_lattice,
    polarization,
    random_circulant_state,
    random_gaussian_state,
    squeezed_vacuum_state,
    thermal_state,
    two_mode_squeezed_state,
    validate,
)
from bosepol.circulant import decay_bound
from bosepol.fock_oracle import oracle_fock_truncated, standard_cases
from bosepol.loops import (
    band_chern_number,
    random_classical_loop,
    random_squeezed_loop,
    reference_protocol,
    rmm_thermal_loop,
    thermal_chern_family,
)
from bosepol.polarization import shift_phases
from bosepol.rice_mele import (
    RiceMeleParams,
    adiabatic_flux,
    evolve_pump,
    integrated_flux,
    rmm_thermal_state,
    zak_winding,
)
from bosepol.winding import (
    chern_via_polarization,
    track_polarization,
    winding_number,
    winding_of_values,
)
from dense_reference import rmm_hopping_matrix

ADIABATIC_FLUX = 0.59907


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def fermionic_T(params, lattice, beta: float) -> complex:
    """<T>_F = det(1 - C(1 - e^{i Theta})) of the half-filled fermionic Rice-Mele chain.

    The number-conserving thermal state at mu = 0 has the one-body correlation
    matrix C = U f U^dag with Fermi occupations f = 1/(e^{beta eps} + 1);
    Theta holds the momentum-shift phases theta_{r,s} (Bardyn et al., PRX 8,
    011035 (2018)). It is the fermionic counterpart of the bosonic
    1/det(1 + N(1 - e^{i Theta})).
    """
    eps, U = np.linalg.eigh(rmm_hopping_matrix(params, lattice))
    C = (U / (np.exp(beta * eps) + 1.0)) @ U.conj().T
    theta = shift_phases(lattice).phases
    return complex(np.linalg.det(np.eye(lattice.modes) - C * (1.0 - np.exp(1j * theta))))


def report(number: int, name: str, ok: bool, details: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {tag} - {details}")
    assert ok, f"criterion {number} failed: {details}"


def test_criterion_1_oracle_gate():
    with Stopwatch() as sw:
        worst = 0.0
        cases = standard_cases(cutoff=160, points=16)
        for case in cases:
            gauss = polarization(case.state, case.shift).expectation
            trunc = oracle_fock_truncated(case)
            worst = max(
                worst,
                abs(gauss - case.closed) / abs(case.closed),
                abs(gauss - trunc) / abs(trunc),
            )
    ok = worst <= 1e-8 and sw.seconds < 10.0
    report(1, "oracle gate", ok,
           f"max rel deviation {worst:.3e} over {len(cases)} cases "
           f"in {sw.seconds:.1f}s")


def test_criterion_2_coherent_exactness():
    worst_t, worst_p = 0.0, 0.0
    for L in (2, 4, 8):
        lat = make_lattice(L, 2)
        st = coherent_state(lat, np.tile([0.6, 0.8j], L))
        b = polarization(st)
        worst_t = max(worst_t, abs(b.expectation - np.exp(-L)) / np.exp(-L))
        worst_p = max(worst_p, abs(b.p))
    ok = worst_t <= 1e-12 and worst_p <= 1e-12
    report(2, "coherent exactness", ok,
           f"<T> rel err {worst_t:.2e}, |P| {worst_p:.2e} on L in {{2,4,8}}")


def test_criterion_3_circulant_reduction_and_speedup():
    # Each state on both paths of polarization: its Bloch blocks and its dense
    # twin. The phase and the log-magnitude of det(1 - W) are compared apart.
    # The same draws with a cell mean (the blocks are drawn first, so they are
    # the same blocks) compare the mean term as well.
    worst = {"phase": 0.0, "log": 0.0, "mean": 0.0}
    count = 0
    for seed in range(25):
        for classical in (True, False):
            L = 4 + (seed % 13)  # sizes 4..16
            lat = make_lattice(L, 2)
            for mean_scale in (0.0, 0.5):
                st = random_circulant_state(lat, seed + (0 if classical else 1000),
                                            classical=classical, mean_scale=mean_scale)
                bloch = polarization(st)
                dense = polarization(GaussianState(lat, st.V, st.mean))
                assert (bloch.path, dense.path) == ("bloch", "dense")
                worst["phase"] = max(worst["phase"],
                                     abs(bloch.det_term_phase - dense.det_term_phase))
                worst["log"] = max(worst["log"], abs(bloch.log_abs_T - dense.log_abs_T))
                worst["mean"] = max(worst["mean"], abs(bloch.mean_term - dense.mean_term)
                                    / max(1.0, abs(dense.mean_term)))
                count += mean_scale == 0.0
    # A state caches its factorization, so each timing repeat evaluates a
    # fresh Bloch state and a fresh dense twin, built outside the timers.
    lat = make_lattice(256, 2)
    st = random_circulant_state(lat, 0)
    dense_t = bloch_t = float("inf")
    for _ in range(3):
        bloch_st = BlochState(lat, st.v_blocks, st.cell_mean)
        dense_st = GaussianState(lat, st.V, st.mean)
        with Stopwatch() as sw:
            bloch_T = polarization(bloch_st).expectation
        bloch_t = min(bloch_t, sw.seconds)
        with Stopwatch() as sw:
            dense_T = polarization(dense_st).expectation
        dense_t = min(dense_t, sw.seconds)
    speedup, t_err = dense_t / bloch_t, abs(dense_T - bloch_T) / abs(dense_T)
    ok = max(worst.values()) <= 1e-10 and speedup >= 10.0 and t_err <= 1e-10
    report(3, "circulant reduction", ok,
           f"{count} states and their {count} draws with a mean, max err "
           f"{worst['phase']:.2e} (phase), {worst['log']:.2e} (log|T|), "
           f"{worst['mean']:.2e} (mean term); L=256 speedup {speedup:.1f}x, "
           f"<T> err {t_err:.1e}")


def test_criterion_4_decay_bound():
    # The determinant phase -2 det_term_phase is read off the Bloch path: below
    # ~1e-14 a dense factorization cannot resolve the phase against rounding
    # noise, while the 2n x 2n reduced product keeps the tiny imaginary part exact.
    with Stopwatch() as sw:
        protocol = reference_protocol()
        params = protocol.params_at(0.125 * protocol.period)
        rows = []
        ok = True
        for L in (4, 8, 16, 32):
            lat = make_lattice(L, 2)
            st = rmm_thermal_state(params, lat, beta=1.0, mu=-3.0)
            breakdown = polarization(st)
            phase = 2.0 * abs(breakdown.det_term_phase)
            eps = decay_bound(st)
            rows.append((L, phase, eps))
            ok = ok and breakdown.path == "bloch" and phase <= eps
    ok = ok and sw.seconds < 30.0
    detail = ", ".join(f"L={L}: {p:.2e}<={e:.2e}" for L, p, e in rows)
    report(4, "decay bound", ok, f"{detail} in {sw.seconds:.1f}s")


def test_criterion_5_no_winding_theorem():
    with Stopwatch() as sw:
        worst_dp = 0.0
        total_m = 0
        for L in (4, 8, 16):
            res = winding_number(track_polarization(rmm_thermal_loop(make_lattice(L, 2))))
            worst_dp = max(worst_dp, abs(res.delta_p))
            total_m += abs(res.zero_count)
        lat = make_lattice(4, 2)
        for seed in range(100):
            res = winding_number(track_polarization(random_classical_loop(lat, seed)))
            worst_dp = max(worst_dp, abs(res.delta_p))
            total_m += abs(res.zero_count)
        lat3 = make_lattice(3, 2)
        for seed in range(20):
            res = winding_number(track_polarization(random_squeezed_loop(lat3, seed)))
            worst_dp = max(worst_dp, abs(res.delta_p))
            total_m += abs(res.zero_count)
        planted_one = winding_of_values(lambda lam: 1 - 2 * np.exp(2j * np.pi * lam))
        planted_two = winding_of_values(lambda lam: 1 - 4 * np.exp(4j * np.pi * lam))
    ok = (worst_dp <= 1e-6 and total_m == 0
          and planted_one == 1 and planted_two == 2)
    report(5, "no-winding theorem", ok,
           f"123 loops: max |dP| {worst_dp:.2e}, sum |M| {total_m}; "
           f"planted windings {planted_one},{planted_two} in {sw.seconds:.1f}s")


def test_criterion_6_zak_contrast():
    protocol = reference_protocol()
    zak = zak_winding(protocol)
    res = winding_number(track_polarization(
        rmm_thermal_loop(make_lattice(8, 2), protocol)
    ))
    ok = zak == 1 and abs(res.delta_p) <= 1e-6 and res.zero_count == 0
    report(6, "Zak contrast", ok,
           f"Zak winding {zak} vs polarization dP={res.delta_p:.2e}, M={res.zero_count}")


def test_criterion_7_transport():
    with Stopwatch() as sw:
        phi_ad = adiabatic_flux(reference_protocol(1.0, 1.0))
        from scipy.special import gamma
        gamma_value = gamma(0.75) ** 2 / np.sqrt(2 * np.pi)
        p100 = reference_protocol(1.0, 100.0)
        phi100 = integrated_flux(evolve_pump(p100, steps=30_000), p100)
        p400 = reference_protocol(1.0, 400.0)
        phi400 = integrated_flux(evolve_pump(p400, steps=120_000), p400)
    ok = (
        abs(phi100 - ADIABATIC_FLUX) <= 0.01
        and abs(phi400 - ADIABATIC_FLUX) <= 0.003
        and abs(phi_ad - gamma_value) <= 1e-9
        and sw.seconds < 5.0
    )
    report(7, "transport", ok,
           f"Phi(100)={phi100:.5f}, Phi(400)={phi400:.5f}, quad={phi_ad:.10f} "
           f"in {sw.seconds:.1f}s")


def test_criterion_8_amplitude_bounds():
    lat = make_lattice(3, 2)
    zoo = [
        coherent_state(lat, 0.4 * np.arange(1, 7) * np.exp(0.3j * np.arange(6))),
        squeezed_vacuum_state(lat, [0.2, -0.5, 0.8, 0.1, -0.3, 0.6]),
        thermal_state(np.diag(np.linspace(0.0, 1.0, 6)), 1.0, -0.5, lat),
        random_gaussian_state(lat, 1, mean_scale=1.0),
        random_gaussian_state(lat, 2, classical=True, mean_scale=0.5),
        random_circulant_state(lat, 3, classical=False, mean_scale=0.8),
        two_mode_squeezed_state(0.9),
    ]
    ok = True
    details = []
    for st in zoo:
        b = polarization(st)
        ok = ok and b.abs_T > 0.0
        if np.any(st.mean):
            ok = ok and abs(np.exp(polarization(st).mean_term)) < 1.0
        report_v = validate(st)
        if report_v.min_eigenvalue > 1.0:
            bound = ((1.0 + report_v.min_eigenvalue) / 2.0) ** (-st.lattice.modes)
            ok = ok and b.abs_T < bound
            details.append(f"{b.abs_T:.3e}<{bound:.3e}")
    report(8, "amplitude bounds", ok,
           f"{len(zoo)} states positive; classical bounds {'; '.join(details)}")


def test_criterion_9_chern_null():
    with Stopwatch() as sw:
        band_c = band_chern_number(1.0, 32)
        lat = make_lattice(8, 2)
        family = thermal_chern_family(lat, mass=1.0, beta=1.0, mu=-6.0)
        c = chern_via_polarization(lat, family, samples=32)
    ok = band_c != 0 and c == 0 and sw.seconds < 60.0
    report(9, "Chern null", ok,
           f"single-particle band Chern {band_c}, ensemble Chern {c} "
           f"in {sw.seconds:.1f}s")


def test_criterion_10_fermions_wind_bosons_do_not():
    """The fermionic ensemble phase winds once around the pump; the bosonic one never."""
    protocol = reference_protocol()
    rows = []
    with Stopwatch() as sw:
        for L in (8, 16, 32):
            lat = make_lattice(L, 2)
            for beta in (0.5, 2.0, 10.0):
                fermion = winding_of_values(lambda lam: fermionic_T(
                    protocol.params_at(lam * protocol.period), lat, beta))
                boson = winding_number(track_polarization(
                    rmm_thermal_loop(lat, protocol, beta))).zero_count
                rows.append((L, beta, fermion, boson))
    ok = all(fermion == 1 and boson == 0 for _, _, fermion, boson in rows)
    detail = ", ".join(f"L={L} beta={b:g}: {f}/{m}" for L, b, f, m in rows)
    report(10, "fermion/boson contrast", ok,
           f"fermion/boson windings {detail} in {sw.seconds:.1f}s")


def test_fermionic_T_matches_fock_trace():
    """The helper of criterion 10 against Tr[rho T] in the 2^4-dimensional Fock space."""
    lat, beta = make_lattice(2, 2), 1.3
    params = RiceMeleParams(0.7, 0.4, 0.3)
    h = rmm_hopping_matrix(params, lat)
    n, occ = lat.modes, np.arange(2 ** lat.modes)[:, None] >> np.arange(lat.modes) & 1

    def annihilate(j):  # Jordan-Wigner c_j on occupation bit strings
        a = np.zeros((2 ** n, 2 ** n))
        for s in np.flatnonzero(occ[:, j]):
            a[s ^ (1 << j), s] = (-1) ** occ[s, :j].sum()
        return a

    c = [annihilate(j) for j in range(n)]
    H = sum(h[i, j] * c[i].T @ c[j] for i in range(n) for j in range(n))
    w, v = np.linalg.eigh(H)
    rho = (v * np.exp(-beta * (w - w[0]))) @ v.conj().T
    shift = np.exp(1j * occ @ shift_phases(lat).phases)
    want = np.sum(np.diag(rho) * shift) / np.trace(rho)
    assert abs(fermionic_T(params, lat, beta) - want) <= 1e-12 * abs(want)
