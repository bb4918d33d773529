"""Closed-form and truncated Fock-basis oracles."""

import numpy as np
import pytest
from scipy.special import gammaln, xlogy
from scipy.stats import poisson

from bosepol.errors import CutoffError
from bosepol.fock_oracle import (
    OracleSpec,
    _mode_distribution,
    closed_form,
    default_theta_grid,
    gaussian_equivalent,
    oracle_coherent,
    oracle_fock_truncated,
    oracle_squeezed,
    oracle_thermal_mode,
    oracle_tmsv,
    standard_cases,
)


def test_coherent_vacuum_and_single_mode():
    assert oracle_coherent([1.0], [0.0]) == 1.0
    assert oracle_coherent([np.pi], [1.0]) == pytest.approx(np.exp(-2.0))


def test_coherent_full_lattice_zero_sum():
    L, delta = 4, 0.5
    thetas = 2 * np.pi * (np.arange(L) + delta) / L
    amps = np.full(L, 1.0)
    assert oracle_coherent(thetas, amps) == pytest.approx(np.exp(-L), rel=1e-12)


def test_thermal_mode_values():
    assert oracle_thermal_mode(1.2, 0.0) == 1.0
    assert oracle_thermal_mode(np.pi, 1.0) == pytest.approx(1.0 / 3.0)
    assert oracle_thermal_mode(np.pi / 2, 1.0) == pytest.approx(0.4 + 0.2j)
    with pytest.raises(ValueError):
        oracle_thermal_mode(1.0, -0.1)


def test_squeezed_oracle():
    assert oracle_squeezed(1.3, 0.0) == 1.0
    for r in (0.2, 0.9, 1.7):
        # even parity: only even Fock states populated
        assert oracle_squeezed(np.pi, r) == pytest.approx(1.0)
    r = np.arcsinh(1.0)
    assert oracle_squeezed(np.pi / 2, r) == pytest.approx(1.0 / np.sqrt(3.0))


def test_tmsv_oracle():
    assert oracle_tmsv(0.3, 1.1, 0.0) == 1.0
    r = np.arctanh(np.sqrt(0.5))
    assert oracle_tmsv(np.pi / 2, np.pi / 2, r) == pytest.approx(1.0 / 3.0)
    # depends on the sum of the two phases only
    a = oracle_tmsv(0.3, 2.2, 0.8)
    b = oracle_tmsv(1.4, 1.1, 0.8)
    assert a == pytest.approx(b)


def test_truncated_matches_closed_forms():
    spec = OracleSpec("coherent", (1.1,), amplitudes=(1.0,), cutoff=40)
    res = oracle_fock_truncated(spec)
    assert res.value == pytest.approx(closed_form(spec), abs=1e-10)
    assert res.tail_mass < 1e-9

    spec = OracleSpec("thermal", (np.pi,), nbar=(2.0,), cutoff=200)
    res = oracle_fock_truncated(spec)
    q = 2.0 / 3.0
    assert res.value == pytest.approx((1 - q) / (1 + q), abs=1e-9)

    spec = OracleSpec("squeezed_vacuum", (2.2,), r=(0.8,), cutoff=160)
    assert oracle_fock_truncated(spec).value == pytest.approx(
        closed_form(spec), abs=1e-10
    )

    spec = OracleSpec("two_mode_squeezed", (0.9, 2.0), r=(0.7,), cutoff=120)
    assert oracle_fock_truncated(spec).value == pytest.approx(
        closed_form(spec), abs=1e-10
    )


def test_truncated_cutoff_too_small():
    spec = OracleSpec("thermal", (np.pi,), nbar=(5.0,), cutoff=2)
    with pytest.raises(CutoffError):
        oracle_fock_truncated(spec)


def test_truncated_converged_under_cutoff_doubling():
    for spec in standard_cases(cutoff=160, points=4):
        a = oracle_fock_truncated(spec).value
        b = oracle_fock_truncated(
            OracleSpec(spec.kind, spec.thetas, spec.amplitudes, spec.nbar,
                       spec.r, cutoff=2 * spec.cutoff)
        ).value
        assert abs(a - b) < 1e-10


def test_all_oracles_contractive():
    for theta in default_theta_grid(8):
        assert abs(oracle_coherent([theta], [1.3])) <= 1.0
        assert abs(oracle_thermal_mode(theta, 3.0)) <= 1.0
        assert abs(oracle_squeezed(theta, 1.1)) <= 1.0
        assert abs(oracle_tmsv(theta, 2.0, 0.9)) <= 1.0


def test_gaussian_equivalent_shapes():
    spec = OracleSpec("thermal", (1.0, 2.0), nbar=(0.5, 1.5))
    state, shift = gaussian_equivalent(spec)
    assert state.lattice.modes == 2
    assert np.allclose(shift.phases, [1.0, 2.0])
    assert np.allclose(np.diag(state.V), [2.0, 2.0, 4.0, 4.0])

    spec = OracleSpec("two_mode_squeezed", (1.0, 2.0), r=(0.5,))
    state, shift = gaussian_equivalent(spec)
    assert state.lattice.cells == 2


def test_oracle_spec_validation():
    with pytest.raises(ValueError):
        OracleSpec("bogus", (1.0,))
    with pytest.raises(ValueError):
        OracleSpec("coherent", (1.0, 2.0), amplitudes=(1.0,))
    with pytest.raises(ValueError):
        OracleSpec("two_mode_squeezed", (1.0,), r=(0.5,))
    with pytest.raises(ValueError):
        OracleSpec("thermal", (1.0,), nbar=(1.0,), cutoff=0)


@pytest.mark.parametrize("amplitude", [0.0, 1e-3, 0.6 + 0.8j, 2.7j, 6.0])
def test_coherent_weights_match_scipy_poisson(amplitude):
    spec = OracleSpec("coherent", (1.0,), amplitudes=(amplitude,), cutoff=160)
    p = _mode_distribution(spec, 0)
    ref = poisson.pmf(np.arange(161), abs(amplitude) ** 2)
    np.testing.assert_allclose(p, ref, rtol=1e-12, atol=1e-300)
    if amplitude == 0.0:
        assert p[0] == 1.0 and not np.any(p[1:])


@pytest.mark.parametrize("r", [0.0, 0.3, 0.8814, 1.5])
def test_squeezed_weights_match_scipy_gammaln(r):
    spec = OracleSpec("squeezed_vacuum", (1.0,), r=(r,), cutoff=160)
    p = _mode_distribution(spec, 0)
    k = np.arange(81)
    logp = (gammaln(2 * k + 1) - 2.0 * gammaln(k + 1) - k * np.log(4.0)
            + xlogy(2 * k, np.tanh(r)))
    ref = np.zeros(161)
    ref[0::2] = np.exp(logp - np.log(np.cosh(r)))
    np.testing.assert_allclose(p, ref, rtol=1e-12, atol=1e-300)
