"""The benchmark's workloads: seeded inputs, the operations on them, and their checks.

An operation is one call into the program: one state's <T>, one size row of
the scaling study, one loop's winding or one pump period. Operations reach
bosepol only through the names the package exports, looked up at call time,
and through its subcommands run in-process by ``bosepol.cli.main``.

Each operation carries a reference, computed once from ``references`` outside
the timed rounds and outside set-up, and a check that compares the program's
output against it or against a property the method must have.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import bosepol as bp
import bosepol.cli  # noqa: F401  (the subcommands are driven through it)

ORACLE_RTOL = 1e-8
PRODUCT_RTOL = 1e-10
BRANCH_ATOL = 1e-9
AMPLITUDE_SLACK = 1e-12
FLUX_ATOL = 1e-6
LOOP_ATOL = 1e-6


@dataclass
class Op:
    """One operation of a round.

    ``reference(ref)`` receives the ``references`` module and returns what
    ``check(output, expected, outputs)`` needs; ``outputs`` maps the labels
    of the round's earlier operations to their outputs. ``check`` returns an
    error message, or None when the output is correct. ``known_fault`` marks
    an input the program rejects today with ``HomotopyError``.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Any, dict], str | None]
    reference: Callable[[Any], Any] = lambda ref: None
    known_fault: bool = False


def _rel(value: complex, expected: complex) -> float:
    return abs(value - expected) / abs(expected)


def _amplitude_error(breakdown) -> str | None:
    if not 0.0 < breakdown.abs_T <= 1.0 + AMPLITUDE_SLACK:
        return f"|<T>| = {breakdown.abs_T!r} outside (0, 1]"
    return None


def _against(expected, out) -> str | None:
    err = _rel(out.expectation, expected)
    if err > ORACLE_RTOL:
        return f"<T> = {out.expectation!r}, reference {expected!r}, rel err {err:.3e}"
    return _amplitude_error(out)


def _evaluate(label, state, shift=None, reference=None, known_fault=False) -> Op:
    """<T> of one state; checked against ``reference(ref)`` when given."""

    def check(out, expected, outputs):
        return _amplitude_error(out) if reference is None else _against(expected, out)

    return Op(
        label=label,
        run=lambda: bp.polarization(state, shift),
        check=check,
        reference=reference or (lambda ref: None),
        known_fault=known_fault,
    )


def _direct_sum(label, parts, states) -> Op:
    """<T> of A (+) B with each block keeping its own shift phases."""
    (la, a), (lb, b) = ((p, states[p]) for p in parts)
    modes = a.lattice.modes + b.lattice.modes
    lattice = bp.make_lattice(1, modes)
    V = np.zeros((2 * modes, 2 * modes))
    V[: a.V.shape[0], : a.V.shape[0]] = a.V
    V[a.V.shape[0]:, a.V.shape[0]:] = b.V
    state = bp.GaussianState(lattice, V, np.concatenate([a.mean, b.mean]))
    phases = np.concatenate([bp.shift_phases(a.lattice).phases,
                             bp.shift_phases(b.lattice).phases])
    shift = bp.ShiftSpec(lattice, phases)

    def check(out, expected, outputs):
        pa, pb = outputs.get(la), outputs.get(lb)
        if isinstance(pa, Exception) or isinstance(pb, Exception) or pa is None or pb is None:
            return "a block of the direct sum has no value"
        err = _rel(out.expectation, pa.expectation * pb.expectation)
        if err > PRODUCT_RTOL:
            return f"<T>(A+B) differs from <T>(A)<T>(B) by rel {err:.3e}"
        branch = abs(out.p_unwrapped - pa.p_unwrapped - pb.p_unwrapped)
        if branch > BRANCH_ATOL:
            return f"P(A+B) - P(A) - P(B) = {branch:.3e}: branches disagree"
        return _amplitude_error(out)

    return Op(label=label, run=lambda: bp.polarization(state, shift), check=check)


# Random physical states of the pointwise mix: (modes, mean scale). Sizes are
# fixed so that a round costs the same on every seed; the seed draws the states.
RANDOM_STATES = ((16, 0.0), (16, 0.5), (24, 0.0), (24, 0.5), (32, 0.0), (32, 0.5),
                 (48, 0.5), (64, 0.0))
DIRECT_SUMS = ((0, 1), (2, 3), (1, 4))


def pointwise(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops: list[Op] = []

    # Fock-oracle grid: 16 phases, shifted by a seeded fraction of a step.
    grid = 2.0 * np.pi * (np.arange(16) + rng.uniform(0.25, 0.75)) / 16
    one = bp.make_lattice(1, 1)
    alpha = 0.6 + 0.8j
    for k, theta in enumerate(grid):
        shift = bp.ShiftSpec(one, [theta])
        ops.append(_evaluate(f"coherent/{k}", bp.coherent_state(one, [alpha]), shift,
                             lambda ref, t=theta: ref.coherent([t], [alpha])))
        for nbar in (0.1, 1.0, 5.0):
            state = bp.thermal_state(np.array([[math.log1p(1.0 / nbar)]]), 1.0, 0.0, one)
            ops.append(_evaluate(f"thermal/{nbar}/{k}", state, shift,
                                 lambda ref, t=theta, n=nbar: ref.thermal_mode(t, n)))
        for r in (0.3, 0.8814):
            ops.append(_evaluate(f"squeezed/{r}/{k}", bp.squeezed_vacuum_state(one, r), shift,
                                 lambda ref, t=theta, r=r: ref.squeezed_vacuum(t, r)))
    tmsv = bp.two_mode_squeezed_state(0.55)
    for k, theta in enumerate(grid):
        theta2 = grid[(k + 5) % 16]
        ops.append(_evaluate(f"tmsv/{k}", tmsv, bp.ShiftSpec(tmsv.lattice, [theta, theta2]),
                             lambda ref, a=theta, b=theta2: ref.tmsv(a, b, 0.55)))

    # Displaced thermal products on 1 to 4 modes: V != 1 and a mean.
    for k in range(16):
        modes = 1 + k % 4
        nbar = rng.uniform(0.05, 2.0, size=modes)
        amps = 0.7 * (rng.normal(size=modes) + 1j * rng.normal(size=modes))
        thetas = rng.uniform(0.2, 2.0 * np.pi - 0.2, size=modes)
        lattice = bp.make_lattice(1, modes)
        mean = np.empty(2 * modes)
        mean[0::2], mean[1::2] = 2.0 * amps.real, 2.0 * amps.imag
        state = bp.GaussianState(lattice, np.diag(np.repeat(2.0 * nbar + 1.0, 2)), mean)

        def reference(ref, t=thetas, n=nbar, a=amps):
            return np.prod([ref.displaced_thermal_mode(*x) for x in zip(t, n, a)])

        ops.append(_evaluate(f"displaced/{k}", state, bp.ShiftSpec(lattice, thetas), reference))

    # Seeded random physical states and direct sums of pairs of them.
    states = {}
    for modes, mean_scale in RANDOM_STATES:
        label = f"random/{modes}/{mean_scale}"
        states[label] = bp.random_gaussian_state(
            bp.make_lattice(modes // 2, 2), int(rng.integers(2 ** 31)), mean_scale=mean_scale)
        ops.append(_evaluate(label, states[label]))
    labels = list(states)
    for i, j in DIRECT_SUMS:
        ops.append(_direct_sum(f"sum/{labels[i]}+{labels[j]}", (labels[i], labels[j]), states))

    ops.extend(near_critical_states())
    return ops


def near_critical_states() -> list[Op]:
    """Physical states the branch tracker rejects today, whatever the seed."""
    ops = []
    six = bp.make_lattice(6, 1)
    for nbar in (1e2, 1e3, 1e4):
        state = bp.thermal_state(np.zeros((6, 6)), 1.0, -math.log1p(1.0 / nbar), six)

        def reference(ref, n=nbar):
            return np.prod([ref.thermal_mode(t, n) for t in ref.shift_thetas(6, 1, 0.5)])

        ops.append(_evaluate(f"critical/uniform/{nbar:g}", state, None, reference, True))

    # Rice-Mele chain with the chemical potential 0.01 below its band bottom,
    # -|Q_0| = -sqrt((w1 + w2)^2 + delta^2).
    w1, w2, delta, beta = 1.0, 0.3, 0.5, 1.0
    mu = -math.hypot(w1 + w2, delta) - 0.01
    state = bp.rmm_thermal_state(bp.RiceMeleParams(w1, w2, delta), bp.make_lattice(4, 2), beta, mu)

    def rice_mele(ref):
        h = ref.rice_mele_hopping(w1, w2, delta, 4)
        return ref.number_conserving_thermal(h, beta, mu, ref.shift_thetas(4, 2, 0.5))[0]

    ops.append(_evaluate("critical/rice-mele", state, None, rice_mele, True))
    circulant = bp.random_circulant_state(bp.make_lattice(32, 2), 1, eig_high=20.0)
    ops.append(_evaluate("critical/circulant", circulant, known_fault=True))
    return ops


SIZES = (8, 16, 32, 48, 64)
BETA, MU = 1.0, -3.0


def scaling(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    # The four cycle points t/T = 1/8, 3/8, 5/8, 7/8 share one gap, so every
    # seed costs the same; the seed picks one and the gauge offset.
    phase = (2 * int(rng.integers(4)) + 1) / 8.0
    offset = float(rng.uniform(0.3, 0.7))
    params = bp.PumpProtocol(1.0, 1.0).params_at(phase)

    def make(L):
        def run():
            lattice = bp.make_lattice(L, 2, offset)
            state = bp.rmm_thermal_state(params, lattice, BETA, MU)
            breakdown = bp.polarization(state)
            det = bp.reduced_determinant(bp.cell_bloch_blocks(state))
            return breakdown, det, bp.decay_bound(state)

        def reference(ref):
            h = ref.rice_mele_hopping(*ref.reference_pump(phase), L)
            value, q_max = ref.number_conserving_thermal(h, BETA, MU, ref.shift_thetas(L, 2, offset))
            return value, 4.0 * q_max ** L

        def check(out, expected, outputs):
            breakdown, det, eps = out
            value, bound = expected
            error = _against(value, breakdown)
            if error:
                return error
            if abs(np.angle(det)) > bound:
                return f"|arg det(1-W)| = {abs(np.angle(det)):.3e} exceeds 4 q^L = {bound:.3e}"
            if _rel(eps, bound) > 1e-8:
                return f"decay bound {eps!r} differs from 4 q^L = {bound!r}"
            return None

        return Op(f"scaling/L={L}", run, check, reference)

    return [make(L) for L in SIZES]


def _cli(argv: list[str]):
    """Run one subcommand in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["bosepol.cli"].main(argv + ["--no-color"])
    return code, out.getvalue(), err.getvalue()


def parse_cli(text: str) -> tuple[list[dict[str, str]], dict[str, str]]:
    """CSV rows a subcommand printed, and the key=value fields of its status lines."""
    rows: list[dict[str, str]] = []
    status: dict[str, str] = {}
    header = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            status.update(re.findall(r"(\w+)=(\S+)", line))
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return rows, status


def _cli_failure(out) -> str | None:
    code, stdout, stderr = out
    if code != 0:
        return f"exit code {code}: {stderr.strip() or stdout.strip()[-200:]}"
    return None


def _loop(label: str, argv: list[str]) -> Op:
    def check(out, expected, outputs):
        failure = _cli_failure(out)
        if failure:
            return failure
        rows, status = parse_cli(out[1])
        p = [float(row["P_unwrapped"]) for row in rows]
        delta_p = p[-1] - p[0]
        if abs(delta_p) > LOOP_ATOL or status.get("zero_count") != "0":
            return f"delta_p = {delta_p:.3e}, zero_count = {status.get('zero_count')}"
        return None

    return Op(label, lambda: _cli(argv), check)


PERIODS = (25.0, 50.0, 100.0, 200.0, 400.0)
STEPS_PER_TIME = 300
ADIABATIC_TOL = {100.0: 0.01, 400.0: 0.003}


def pump_loops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops: list[Op] = []

    # Pump periods: 100 and 400 stay fixed for the adiabatic checks; the
    # others move by up to 10%.
    for nominal in PERIODS:
        period = nominal if nominal in ADIABATIC_TOL else nominal * rng.uniform(0.9, 1.1)
        steps = int(round(STEPS_PER_TIME * period))
        argv = ["flux-sweep", "--period-list", repr(period), "--steps", str(steps)]

        def check(out, expected, outputs, nominal=nominal):
            failure = _cli_failure(out)
            if failure:
                return failure
            flux_ref, adiabatic = expected
            (row,), _ = parse_cli(out[1])
            phi = float(row["phi"])
            if abs(phi - flux_ref) > FLUX_ATOL:
                return f"Phi = {phi!r}, DOP853 reference {flux_ref!r}"
            if abs(float(row["phi_adiabatic"]) - adiabatic) > 1e-9:
                return f"adiabatic flux {row['phi_adiabatic']} != {adiabatic!r}"
            if abs(phi - adiabatic) > ADIABATIC_TOL.get(nominal, math.inf):
                return f"Phi({nominal:g}) = {phi!r} too far from {adiabatic!r}"
            return None

        ops.append(Op(f"flux/{period:.3f}", lambda argv=argv: _cli(argv), check,
                      lambda ref, p=period: (ref.pump_flux(p), ref.ADIABATIC_FLUX)))

    ops.append(Op(
        "zak", lambda: bp.zak_winding(bp.PumpProtocol(1.0, 50.0)),
        lambda out, expected, outputs: None if out == 1 else f"Zak winding {out} != 1"))

    beta = float(rng.uniform(0.8, 1.2))
    for L in (8, 16, 32):
        ops.append(_loop(f"loop/rmm-thermal/{L}",
                         ["winding", "--loop", "rmm-thermal", "--L", str(L), "--beta", repr(beta)]))
    ops.append(_loop("loop/rmm-coherent/8", ["winding", "--loop", "rmm-coherent", "--L", "8"]))
    for name, L, count in (("random-classical", 4, 100), ("random-squeezed", 3, 20)):
        for s in rng.integers(2 ** 31, size=count):
            ops.append(_loop(f"loop/{name}/{s}",
                             ["winding", "--loop", name, "--L", str(L), "--seed", str(s)]))

    for L in (8, 16):
        mass = float(rng.uniform(0.6, 1.4))

        def check(out, expected, outputs):
            failure = _cli_failure(out)
            if failure:
                return failure
            _, status = parse_cli(out[1])
            if status.get("family_chern") != "0" or status.get("band_chern") not in ("1", "-1"):
                return f"band Chern {status.get('band_chern')}, ensemble {status.get('family_chern')}"
            return None

        ops.append(Op(f"chern/{L}", lambda L=L, m=mass: _cli(
            ["chern", "--L", str(L), "--mass", repr(m)]), check))

    for winding in (1, 2):
        radius, phase = rng.uniform(1.5, 3.0), rng.uniform(0.0, 1.0)

        def planted(lam, w=winding, r=radius, f=phase):
            return 1.0 - r * np.exp(2j * np.pi * w * (lam + f))

        ops.append(Op(
            f"planted/{winding}", lambda fn=planted: bp.winding_of_values(fn),
            lambda out, expected, outputs, w=winding: None if out == w else f"winding {out} != {w}"))
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "pointwise": pointwise,
    "scaling": scaling,
    "pump-loops": pump_loops,
}
