"""Bosonic Rice-Mele model: Bloch data, Zak phase, pump dynamics and flux.

The model has two sites per unit cell with on-site energies +/- Delta and
alternating hoppings w1 (intra-cell) and w2 (inter-cell), written once as
the cell blocks of :func:`rmm_cell_blocks`. Everything else reads them:
:func:`_ring_hamiltonian` builds the real-space hopping matrix, and
:func:`_bloch_hamiltonians` the Bloch Hamiltonian h(kappa) = Q(kappa) . sigma
with

    Q(kappa) = (w1 + w2 cos kappa, w2 sin kappa, Delta)

that gives the Zak phase and the pump's start vector. The Zak phase is a
Wilson loop over closed-form two-band vectors, with no eigensolver.

A translation-invariant coherent state populates only the k = 0 mode, so
the pump dynamics reduces to a driven two-level problem for the per-cell
amplitudes (alpha, beta), propagated with exact SU(2) steps of a
fourth-order commutator-free Magnus scheme; a blocked scan forms their
running products in work linear in the step count. Each SU(2) factor of
angle r comes from one tangent u = tan(r / 2). The steps are formed in
chunks of PUMP_CHUNK, into the arrays that then hold the trajectory, so the
pump allocates little beyond its output. The integrated particle flux
over one cycle is geometric but not quantized; for the reference protocol

    w1 = A cos^2(pi t / T),  w2 = A sin^2(pi t / T),  Delta = A sin(2 pi t / T),

evaluated as A (1, tau^2, 2 tau) / (1 + tau^2) from one tangent tau = tan(pi t / T),
its adiabatic value is (1/2) Int_0^pi cos^2 t / (1 + sin^2 t)^{3/2} dt
= Gamma(3/4)^2 / sqrt(2 pi) ~= 0.59907.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from .errors import GapClosureError
from .states import BlochState, LatticeSpec, thermal_state
from .winding import _integer_winding, _unwrap

DEFAULT_PUMP_STEPS = 10_000
# Steps per chunk of the pump's per-step stages: each of their temporaries
# holds at most 2 * PUMP_CHUNK complex numbers, a few hundred KB.
PUMP_CHUNK = 8192
# Fourth-order commutator-free Magnus scheme (Blanes & Moan 2006): the drive
# is sampled at the Gauss nodes t + c-+ h of each step, and row j of the
# weights is the share of sample j in the earlier and the later exponential.
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_A1, _A2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_CF4_WEIGHTS = np.array([[_A2, _A1], [_A1, _A2]])


@dataclass(frozen=True)
class RiceMeleParams:
    """Hopping amplitudes w1, w2 and staggering Delta (energy units)."""

    w1: float
    w2: float
    delta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.w1, self.w2, self.delta))):
            raise ValueError("Rice-Mele parameters must be finite")


def reference_shape(phase):
    """Reference pump shape at cycle fractions ``phase`` in units of the amplitude.

    (cos^2, sin^2, sin 2)(pi phase) = (1, t^2, 2t) / (1 + t^2) with t = tan(pi phase):
    one tangent per phase in place of a cosine and two sines, each several
    times slower in numpy.
    """
    t = np.tan(np.pi * phase)
    den = 1.0 + t * t
    return 1.0 / den, t * t / den, 2.0 * t / den


def _shape_values(shape: Callable, phase) -> np.ndarray:
    """(3, *phase.shape) array of the shape's components at cycle fractions ``phase``."""
    phase = np.asarray(phase, dtype=float)
    components = shape(phase)  # before the output, which would add to their peak
    values = np.empty((3, *phase.shape))
    values[0], values[1], values[2] = components  # a constant component is broadcast
    return values


@dataclass(frozen=True)
class PumpProtocol:
    """Periodic drive t -> (w1, w2, Delta) with amplitude A and period T.

    ``shape`` maps cycle fractions t/T to the three parameters in units of
    A; the default is the reference pump encircling (Delta = 0, w1 = w2).
    It is called with an array of fractions and must act elementwise;
    components that do not depend on t may be returned as constants and
    are broadcast.
    """

    amplitude: float
    period: float
    shape: Callable = reference_shape

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.amplitude, self.period)):
            raise ValueError("amplitude and period must be finite and positive")
        ends = _shape_values(self.shape, [0.0, 1.0])
        if np.abs(ends[:, 0] - ends[:, 1]).max() > 1e-9:
            raise ValueError("protocol is not periodic: shape(0) != shape(1)")

    def drive(self, t) -> np.ndarray:
        """(w1, w2, Delta) at times ``t``, stacked along the first axis."""
        values = _shape_values(self.shape, np.asarray(t) / self.period)
        values *= self.amplitude
        return values

    def params_at(self, t: float) -> RiceMeleParams:
        return RiceMeleParams(*map(float, self.drive(t)))

    @property
    def is_reference(self) -> bool:
        probes = np.array([0.0, 0.13, 0.37, 0.52, 0.81])
        diff = _shape_values(self.shape, probes) - _shape_values(reference_shape, probes)
        return bool(np.abs(diff).max() < 1e-9)


@dataclass(frozen=True)
class PumpTrajectory:
    """k = 0 coherent amplitudes along one pump cycle.

    ``alpha``/``beta`` are the per-cell amplitudes on the two sublattices
    at ``times``.
    """

    times: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def norm(self) -> np.ndarray:
        return np.abs(self.alpha) ** 2 + np.abs(self.beta) ** 2


def rmm_cell_blocks(drive) -> tuple[np.ndarray, np.ndarray]:
    """On-site block w1 sigma_x + Delta sigma_z and hop block [[0, w2], [0, 0]]
    from cell r to r + 1, each (*w1.shape, 2, 2) for (w1, w2, Delta) stacked
    along the first axis of ``drive``, as :meth:`PumpProtocol.drive` returns them."""
    w1, w2, delta = np.broadcast_arrays(*(np.asarray(c, dtype=float)[..., None, None]
                                          for c in drive))
    onsite = w1 * np.array([[0.0, 1.0], [1.0, 0.0]]) + delta * np.array([[1.0, 0.0], [0.0, -1.0]])
    return onsite, w2 * np.array([[0.0, 1.0], [0.0, 0.0]])


def _ring_hamiltonian(onsite: np.ndarray, hop: np.ndarray, cells: int) -> np.ndarray:
    """Periodic chain of ``cells`` cells, cell-major: the block ``onsite`` on
    each cell, ``hop`` from cell r to r + 1 and its adjoint back. Blocks
    stacked as (..., n, n) give one chain per leading index, (..., nL, nL)."""
    *stack, n, _ = np.shape(onsite)
    r = np.arange(cells)
    nxt = np.roll(r, -1)
    h = np.zeros((*stack, cells, n, cells, n), dtype=np.result_type(onsite, hop))
    # Each term's cell pairs are distinct, so += adds each block once, in this order.
    h[..., r, :, r, :] += onsite
    h[..., nxt, :, r, :] += hop
    h[..., r, :, nxt, :] += np.conj(hop).swapaxes(-1, -2)
    return h.reshape(*stack, n * cells, n * cells)


def _bloch_hamiltonians(onsite, hop, kappas) -> np.ndarray:
    """h(kappa) = onsite + hop e^{-i kappa} + hop^dagger e^{i kappa} at momenta ``kappas``.

    This is sum_d H[0, d] e^{i kappa d} of :func:`_ring_hamiltonian`, the
    convention of :func:`bosepol.circulant.cell_bloch_blocks`. Blocks
    stacked as (..., n, n) give shape (..., len(kappas), n, n).
    """
    kappas = np.asarray(kappas, dtype=float)[:, None, None]
    phase = np.cos(kappas) - 1j * np.sin(kappas)
    onsite, hop = (np.asarray(b)[..., None, :, :] for b in (onsite, hop))
    return onsite + hop * phase + hop.conj().swapaxes(-1, -2) * phase.conj()


def _zak_phases(onsite, hop, band: str = "lower", samples: int = 64) -> np.ndarray:
    """Wilson-loop Zak phases of two-band chains with stacked cell blocks (..., 2, 2).

    The band vectors are closed forms. With h = d_0 + d . sigma, d_z = (h_00 - h_11) / 2
    and d_x - i d_y = h_01, the band of energy d_0 + s|d| (s = -1 for the lower band)
    is spanned by (h_01, s|d| - d_z) and by (s|d| + d_z, h_01*). The first is taken
    where s d_z <= 0 and the second elsewhere, so the vector is never shorter than |d|.
    """
    if samples < 16:
        raise ValueError("need at least 16 momentum samples")
    if band not in ("lower", "upper"):
        raise ValueError("band must be 'lower' or 'upper'")
    kappas = 2.0 * np.pi * np.arange(samples) / samples
    h = _bloch_hamiltonians(onsite, hop, kappas)
    dz, off = (h[..., 0, 0].real - h[..., 1, 1].real) / 2.0, h[..., 0, 1]
    norm_d = np.hypot(dz, np.abs(off))
    if 2.0 * norm_d.min() < 2e-12:
        raise GapClosureError("gap closure: band gap < 2e-12 at a sampled momentum")
    s = -1.0 if band == "lower" else 1.0
    first = s * dz <= 0.0
    u = np.stack([np.where(first, off, s * norm_d + dz),
                  np.where(first, s * norm_d - dz, off.conj())], axis=-1)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    overlaps = np.sum(u.conj() * np.roll(u, -1, axis=-2), axis=-1)
    return -np.angle(np.prod(overlaps, axis=-1))


def zak_winding(protocol: PumpProtocol) -> int:
    """Integer winding of the Zak phase over one pump period.

    The lower-band Zak phase is taken at 257 equally spaced times of the
    period, each from 64 momenta, with the closed-form band vectors of
    :func:`_zak_phases` at every time and momentum at once.
    """
    times = protocol.period * np.arange(257) / 256
    phis = _zak_phases(*rmm_cell_blocks(protocol.drive(times)))
    return _integer_winding(float(_unwrap(0.0, phis)[-1]), "Zak winding")


def _su2_product(later, earlier, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Product ``later @ earlier`` of SU(2) matrices [[p, q], [-q*, p*]] given as (p, q),
    into the arrays ``out`` where given."""
    (p1, q1), (p2, q2) = later, earlier
    p = np.multiply(p1, p2, out=out[0])
    p -= q1 * q2.conj()
    q = np.multiply(p1, q2, out=out[1])
    q += q1 * p2.conj()
    return p, q


def _cf4_steps(protocol: PumpProtocol, t: np.ndarray, h: float, out) -> None:
    """(p, q) of the CF4 steps of length h that start at times ``t``, written to ``out``."""
    # exp(-i(x sigma_x + z sigma_z)) = cos r - i sin(r)/r (x sigma_x + z sigma_z),
    # r = |(x, z)|, for the earlier and the later factor (columns).
    # (x, z) = (w1 + w2, Delta) is Q(kappa = 0) of rmm_cell_blocks, kept as two
    # scalars per node: 2x2 Bloch matrices at every node cost time and memory.
    # x and z are stored negated, which gives the -i terms their sign.
    nodes = np.empty((2, len(t), 2))  # -h (w1 + w2) and -h Delta at each Gauss node
    for j, c in enumerate(_GAUSS_NODES):  # one node at a time: the drive's arrays stay small
        w1, w2, delta = protocol.drive(t + h * c)
        np.multiply(-h, w1 + w2, out=nodes[0, :, j])
        np.multiply(-h, delta, out=nodes[1, :, j])
        del w1, w2, delta  # before the next node's drive is formed
    x, z = nodes @ _CF4_WEIGHTS
    del nodes
    # With u = tan(r / 2), cos r = (1 - u^2) / (1 + u^2) = 2 / (1 + u^2) - 1 and
    # sin(r) / r = u / ((1 + u^2) r / 2): one tangent per node in place of hypot, sin and
    # cos, each several times slower in numpy. The floor on r / 2 keeps
    # sin(r) / r = 1 at r = 0. Each stage reuses a buffer of the one before.
    half = x * x
    half += z * z
    np.sqrt(half, out=half)
    half *= 0.5
    np.maximum(half, np.finfo(float).tiny, out=half)
    u = np.tan(half)
    den = u * u
    den += 1.0
    half *= den
    u /= half  # sin(r) / r
    del half
    x *= u
    z *= u
    del u
    np.divide(2.0, den, out=den)
    den -= 1.0  # cos r
    p = np.empty(den.shape, dtype=complex)
    p.real, p.imag = den, z
    del den, z
    q = np.empty(x.shape, dtype=complex)
    q.real, q.imag = 0.0, x
    del x
    _su2_product((p[:, 1], q[:, 1]), (p[:, 0], q[:, 0]), out)


def evolve_pump(protocol: PumpProtocol, steps: int = DEFAULT_PUMP_STEPS) -> PumpTrajectory:
    """Integrate i d/dt (alpha, beta) = h_0(t) (alpha, beta) over one period.

    The amplitudes start in the lower band at t = 0, one particle per cell.

    Each step of length h = T / steps is the fourth-order commutator-free
    Magnus propagator exp(-ih(a1 H- + a2 H+)) exp(-ih(a2 H- + a1 H+)) with
    H+- = h_0(t + c+- h), c+- = 1/2 +- sqrt(3)/6, a1,2 = (3 -+ 2 sqrt 3)/12.
    Both factors are exact SU(2) exponentials, so the propagation is unitary
    to rounding; the error falls as h^4.

    The steps are formed PUMP_CHUNK at a time: the drive at their Gauss
    nodes, the two factors and their product, written straight into the
    arrays that are returned as alpha[1:] and beta[1:]. A two-level scan
    (Blelloch 1990) then forms the running products in place, in linear
    work. The steps fall into blocks of ceil(sqrt(steps)), the last one
    padded with identities. The running products inside all blocks are
    formed together, one block position at a time; then the block totals
    carry (alpha, beta) from the start of one block to the next, and the
    products are overwritten with (alpha, beta), PUMP_CHUNK steps of block
    rows at a time. So no O(steps) array but the trajectory is allocated,
    and every stage is elementwise or per row: the result does not depend
    on PUMP_CHUNK.
    """
    if steps < 100:
        raise ValueError("need at least 100 steps per period")
    h = protocol.period / steps
    h0 = _bloch_hamiltonians(*rmm_cell_blocks(protocol.drive(0.0)), [0.0])[0].real
    a, b = map(complex, np.linalg.eigh(h0)[1][:, 0])

    size = math.isqrt(steps - 1) + 1  # ceil(sqrt(steps)) steps per block
    blocks = -(-steps // size)
    times = np.arange(steps + 1) * h
    alpha, beta = np.empty((2, 1 + blocks * size), dtype=complex)
    # Entry i of p, q is step i, [[p, q], [-q*, p*]]; the padding steps are the identity.
    p, q = alpha[1:], beta[1:]
    p[steps:], q[steps:] = 1.0, 0.0
    for start in range(0, steps, PUMP_CHUNK):
        stop = min(start + PUMP_CHUNK, steps)
        _cf4_steps(protocol, times[start:stop], h, (p[start:stop], q[start:stop]))

    # Row k, column j of P, Q becomes U_{k size + j} ... U_{k size}.
    P, Q = p.reshape(blocks, size), q.reshape(blocks, size)
    for j in range(1, size):
        P[:, j], Q[:, j] = _su2_product((P[:, j], Q[:, j]), (P[:, j - 1], Q[:, j - 1]))
    starts = np.empty((2, blocks, 1), dtype=complex)  # (alpha, beta) before each block
    for k, (pk, qk) in enumerate(zip(P[:, -1].tolist(), Q[:, -1].tolist())):
        starts[:, k, 0] = a, b
        a, b = pk * a + qk * b, pk.conjugate() * b - qk.conjugate() * a

    a, b = starts
    alpha[0], beta[0] = a[0, 0], b[0, 0]
    rows = max(1, PUMP_CHUNK // size)
    for k in range(0, blocks, rows):
        Pk, Qk, ak, bk = P[k:k + rows], Q[k:k + rows], a[k:k + rows], b[k:k + rows]
        alpha_k = np.add(Pk * ak, Qk * bk)
        np.subtract(Pk.conj() * bk, Qk.conj() * ak, out=Qk)
        Pk[...] = alpha_k
    return PumpTrajectory(times=times, alpha=alpha[:steps + 1], beta=beta[:steps + 1])


def _simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson rule on a uniform grid of at least three samples,
    summed in place: y[2j+1] becomes y[2j] + 4 y[2j+1] + y[2j+2], so y is overwritten.

    An odd number of intervals integrates the last one first, with Cartwright's
    correction h (5 y[-1] + 8 y[-2] - y[-3]) / 12, as scipy.integrate.simpson does.
    """
    if len(y) % 2 == 0:
        tail = dx * (5.0 * y[-1] + 8.0 * y[-2] - y[-3]) / 12.0
        return float(_simpson(y[:-1], dx) + tail)
    mid = y[1:-1:2]
    mid *= 4.0
    mid += y[:-2:2]
    mid += y[2::2]
    return float(dx / 3.0 * np.sum(mid))


def integrated_flux(trajectory: PumpTrajectory, protocol: PumpProtocol) -> float:
    """Phi = Int_0^T w2(t) i (alpha beta* - alpha* beta) dt on the trajectory grid.

    By translation invariance the flux through every cell boundary is the
    same; the value is linear in the per-cell occupancy of the initial state.
    The integrand is formed PUMP_CHUNK samples at a time into one array, and
    Simpson's sum is taken in place on it, so the only O(steps) allocation is
    the integrand itself.
    """
    times, alpha, beta = trajectory.times, trajectory.alpha, trajectory.beta
    y = np.empty(len(times))
    for start in range(0, len(times), PUMP_CHUNK):
        chunk = slice(start, start + PUMP_CHUNK)
        w2 = protocol.drive(times[chunk])[1]
        a, b = alpha[chunk], beta[chunk]
        # i (a b* - a* b), in real arithmetic
        y[chunk] = w2 * (2.0 * (a.real * b.imag - a.imag * b.real))
    return _simpson(y, times[1] - times[0])


def adiabatic_flux(protocol: PumpProtocol) -> float:
    """Adiabatic-limit flux Gamma(3/4)^2 / sqrt(2 pi) of the reference protocol."""
    if not protocol.is_reference:
        raise ValueError("adiabatic_flux is defined for the reference protocol shape")
    return math.gamma(0.75) ** 2 / math.sqrt(2.0 * math.pi)


def rmm_thermal_state(
    params: RiceMeleParams,
    lattice: LatticeSpec,
    beta: float,
    mu: float,
) -> BlochState:
    """Grand-canonical thermal state of the Rice-Mele chain, held as its Bloch blocks.

    The blocks come from the Bloch Hamiltonians h(2 pi k / L) of
    :func:`_bloch_hamiltonians`, the Bloch blocks of the real-space hopping
    matrix that :func:`_ring_hamiltonian` builds from :func:`rmm_cell_blocks`.
    """
    if lattice.sites_per_cell != 2:
        raise ValueError("Rice-Mele model needs two sites per cell")
    kappas = 2.0 * np.pi * np.arange(lattice.cells) / lattice.cells
    h = _bloch_hamiltonians(*rmm_cell_blocks(astuple(params)), kappas)
    return thermal_state(h, beta, mu, lattice)
