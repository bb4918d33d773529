"""Closed-form and truncated Fock-basis oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, xlogy
from scipy.stats import poisson

from bosepol.errors import CutoffError
from bosepol.fock_oracle import (
    coherent_case,
    default_theta_grid,
    oracle_coherent,
    oracle_fock_truncated,
    oracle_squeezed,
    oracle_thermal_mode,
    oracle_tmsv,
    squeezed_case,
    standard_cases,
    thermal_case,
    tmsv_case,
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


def exact_tmsv(theta1: float, theta2: float, r: float) -> complex:
    """(1 - t2) / (1 - t2 e^{i phi}) in exact rationals, rounded to floats at the end.

    x = e^{-2r}, cos phi and sin phi are taken as the rationals of their
    floats, with tanh^2 r = ((1 - x) / (1 + x))^2.
    """
    x = Fraction(math.exp(-2.0 * r))
    phi = theta1 + theta2
    c, s = Fraction(math.cos(phi)), Fraction(math.sin(phi))
    t2 = ((1 - x) / (1 + x)) ** 2
    num, re, im = 1 - t2, 1 - t2 * c, -t2 * s  # den = re + i im
    norm = re * re + im * im
    return complex(float(num * re / norm), float(-num * im / norm))


@pytest.mark.parametrize("r", [8.0, 12.0, 16.0, 19.0, 25.0])
def test_tmsv_oracle_strongly_squeezed(r):
    # 1 - tanh^2 r cancels at large r: that form is off by 2.7e-10 at r = 8
    # and by 100% at r = 19.
    want = exact_tmsv(0.7, 1.9, r)
    assert abs(oracle_tmsv(0.7, 1.9, r) - want) <= 1e-15 * abs(want)


def test_truncated_matches_closed_forms():
    case = coherent_case((1.1,), (1.0,), cutoff=40)
    assert oracle_fock_truncated(case) == pytest.approx(case.closed, abs=1e-10)
    assert sum(1.0 - p.sum() for _, p in case.factors) < 1e-9

    case = thermal_case((np.pi,), (2.0,), cutoff=200)
    q = 2.0 / 3.0
    assert oracle_fock_truncated(case) == pytest.approx((1 - q) / (1 + q), abs=1e-9)

    case = squeezed_case((2.2,), (0.8,), cutoff=160)
    assert oracle_fock_truncated(case) == pytest.approx(case.closed, abs=1e-10)

    case = tmsv_case((0.9, 2.0), 0.7, cutoff=120)
    assert oracle_fock_truncated(case) == pytest.approx(case.closed, abs=1e-10)


def test_truncated_cutoff_too_small():
    case = thermal_case((np.pi,), (5.0,), cutoff=2)
    with pytest.raises(CutoffError):
        oracle_fock_truncated(case)


def test_truncated_converged_under_cutoff_doubling():
    pairs = zip(standard_cases(cutoff=160, points=4), standard_cases(cutoff=320, points=4))
    for a, b in pairs:
        assert abs(oracle_fock_truncated(a) - oracle_fock_truncated(b)) < 1e-10


def test_all_oracles_contractive():
    for theta in default_theta_grid(8):
        assert abs(oracle_coherent([theta], [1.3])) <= 1.0
        assert abs(oracle_thermal_mode(theta, 3.0)) <= 1.0
        assert abs(oracle_squeezed(theta, 1.1)) <= 1.0
        assert abs(oracle_tmsv(theta, 2.0, 0.9)) <= 1.0


def test_gaussian_equivalent_shapes():
    case = thermal_case((1.0, 2.0), (0.5, 1.5), cutoff=64)
    assert case.state.lattice.modes == 2
    assert np.allclose(case.shift.phases, [1.0, 2.0])
    assert np.allclose(np.diag(case.state.V), [2.0, 2.0, 4.0, 4.0])

    case = tmsv_case((1.0, 2.0), 0.5, cutoff=64)
    assert case.state.lattice.cells == 2
    # Locked photon numbers: one factor, at the summed phase.
    assert [theta for theta, _ in case.factors] == [3.0]


def test_oracle_case_validation():
    with pytest.raises(ValueError):
        coherent_case((1.0, 2.0), (1.0,), cutoff=64)
    with pytest.raises(ValueError):
        thermal_case((1.0,), (1.0, 2.0), cutoff=64)
    with pytest.raises(ValueError):
        squeezed_case((1.0, 2.0), (0.5,), cutoff=64)
    with pytest.raises(ValueError):
        tmsv_case((1.0,), 0.5, cutoff=64)
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        thermal_case((1.0,), (1.0,), cutoff=0)


@pytest.mark.parametrize("amplitude", [0.0, 1e-3, 0.6 + 0.8j, 2.7j, 6.0])
def test_coherent_weights_match_scipy_poisson(amplitude):
    (_, p), = coherent_case((1.0,), (amplitude,), cutoff=160).factors
    ref = poisson.pmf(np.arange(161), abs(amplitude) ** 2)
    np.testing.assert_allclose(p, ref, rtol=1e-12, atol=1e-300)
    if amplitude == 0.0:
        assert p[0] == 1.0 and not np.any(p[1:])


@pytest.mark.parametrize("r", [0.0, 0.3, 0.8814, 1.5])
def test_squeezed_weights_match_scipy_gammaln(r):
    (_, p), = squeezed_case((1.0,), (r,), cutoff=160).factors
    k = np.arange(81)
    logp = (gammaln(2 * k + 1) - 2.0 * gammaln(k + 1) - k * np.log(4.0)
            + xlogy(2 * k, np.tanh(r)))
    ref = np.zeros(161)
    ref[0::2] = np.exp(logp - np.log(np.cosh(r)))
    np.testing.assert_allclose(p, ref, rtol=1e-12, atol=1e-300)
