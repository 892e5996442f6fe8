"""Position operators, trembling-motion tracks, localized states and the
Yukawa tail.

Operators act on MomentumField values (invariant-measure amplitudes) and are
vector-valued: each yields X_k f = sign (i d/dp_k f + N_k f) for k = 0, 1, 2,
one axis field at a time, with sign -1 on antiparticle labels. The momentum
derivative is spectral (multiplication by the conjugate coordinate between
FFTs); the node-local term N_k is added one lattice plane at a time:
  - apply_dirac_coordinate: N = 0, the naive coordinate operator.
  - apply_xp:  N_k = i M(L_p) [d/dp_k M(L_p)^{-1}], the derivative of the
               standard-boost spinor matrix in closed form (Dirac picture).
  - apply_xfw: N_k = -i p_k / (2 E^2) (FW picture).

The trembling-motion tracks (zitterbewegung_experiment) build no operator
fields: the spectral part of an expectation is one Parseval pairing,
sum_p w f^dag F[x_k F^{-1} f] = N sum_x x_k gamma^dag psi with psi = ifftn(f),
gamma = ifftn(w f) (position_expectation); by alpha^k alpha^j = delta_kj +
i eps_kjl Sigma^l the real part of the boost-frame term is the spin-orbit
shift -(p x S)_k / (2m(E+m)) (_spin_orbit_shift), and that of the FW term is
zero. S = f^dag Sigma f is unchanged by the free phase e^{-iEt}, so a track
forms the shift once and each sample costs one phase and, per track and
spinor component, two in-place inverse FFTs in the (n, n, n) buffers of its
lane. Samples are independent and run on up to LANES threads. A particle
packet has no -E part, so its two tracks sample the same field and share
one set of transforms: they differ only by the shift.
"""
from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft
from scipy.special import erfc

from .clifford import AXES, alpha_dot, pair
from .fields import (
    CoordinateField, MomentumField, _fft3, _ifft3, _l2, _measure, _workers, branch_projection, momentum_norm,
    to_dirac_picture, to_fw_picture,
)
from .grids import Grid
from .spinors import rest_spinor

# flat-top momentum window (fractions of pmax): identically 1 inside the
# plateau, erfc roll-off ending before the lattice boundary; the steepness
# trades splice discontinuities (small s) against kernel wrap (large s)
WINDOW_PLATEAU = 0.40
WINDOW_EDGE = 0.975
WINDOW_STEEPNESS = 7.0
PROBE_FRACTION = 0.30

# trembling-motion samples run on at most this many threads, each with its own
# buffers: more lanes would make the memory grow with the core count
LANES = 2


def spectral_momentum_derivative(field: MomentumField) -> Iterator[np.ndarray]:
    """Yield i d(values)/dp_k for k = 0, 1, 2 via the conjugate-coordinate
    multiplier: one inverse FFT shared by the axes, then one in-place forward
    FFT per axis (the last one in the shared buffer)."""
    psi = _ifft3(field.values)
    for k in range(3):
        x = field.grid.x1d.reshape([field.grid.n if j == k else 1 for j in range(4)])
        yield _fft3(np.multiply(x, psi, out=psi if k == 2 else None), overwrite_x=True)


def _position_axes(field: MomentumField, node_term=None) -> Iterator[MomentumField]:
    """Yield sign * (i d/dp_k f + N_k f) for k = 0, 1, 2; node_term(k, i, d)
    adds N_k f on lattice plane i into d, that (n, n, 4) plane of the axis
    values. Each axis field is released here before the next is formed (no
    enumerate, whose reused result tuple would hold it), so a caller that
    maps over the axes holds one at a time."""
    derivatives = spectral_momentum_derivative(field)
    for k in range(3):
        d = next(derivatives)
        if node_term is not None:
            for i in range(field.grid.n):
                node_term(k, i, d[i])
        if field.branch == "antiparticle":
            np.negative(d, out=d)
        yield replace(field, values=d)
        del d


def apply_dirac_coordinate(field: MomentumField) -> Iterator[MomentumField]:
    """Coordinate operator: +i d/dp per axis (-i for antiparticle labeling)."""
    if field.rep != "dirac":
        raise ValueError("the coordinate operator is defined on Dirac-picture fields")
    return _position_axes(field)


def apply_xp(field: MomentumField) -> Iterator[MomentumField]:
    """Position operator i d/dp_k + i A_k, A_k = M(L_p) [d/dp_k M(L_p)^{-1}], on
    particle labels; on antiparticle ones -i d/dp_k + i [d/dp_k M(L_p)] M(L_p)^{-1},
    the same expression with sign -1, as M [d M^{-1}] = -[d M] M^{-1}.

    With u = alpha.p phi and s^2 = 1/(2m(E+m)), the identity
    alpha.p alpha^k = 2 p_k - alpha^k alpha.p reduces the node-local term to
    A_k phi = s^2 [p_k (u/E - phi) + alpha^k (u - (E+m) phi)].
    """
    if field.rep != "dirac" or field.branch == "mixed":
        raise ValueError("defined on single-branch Dirac-picture fields")
    g, m, vals = field.grid, field.mass, field.values
    e, p = g.energies(m), g.p_axes

    def boost_frame_term(k: int, i: int, d: np.ndarray) -> None:
        v, ei = vals[i], e[i]
        is2 = 1j / (2.0 * m * (ei + m))
        u = alpha_dot((g.q[i], p[2][0]), v)
        r = u * (is2 / ei)[..., None]
        r -= is2[..., None] * v
        u -= (ei + m)[..., None] * v
        u *= is2[..., None]
        d += alpha_dot(AXES[k], u)
        d += np.broadcast_to(p[k], e.shape)[i, ..., None] * r

    return _position_axes(field, boost_frame_term)


def apply_xfw(field: MomentumField) -> Iterator[MomentumField]:
    """FW position operator i d/dp_k - i p_k/(2 E^2) (signs mirrored for
    antiparticle labeling); Hermitian under the invariant-measure product."""
    if field.rep != "fw":
        raise ValueError("defined on FW-picture fields")
    if field.branch == "mixed":
        raise ValueError("per-branch operator; project the field first")
    vals, e, p = field.values, field.grid.energies(field.mass), field.grid.p_axes

    def fw_term(k: int, i: int, d: np.ndarray) -> None:
        d -= (1j * np.broadcast_to(p[k], e.shape)[i] / (2.0 * e[i] ** 2))[..., None] * vals[i]

    return _position_axes(field, fw_term)


class _Lane:
    """Buffers of one sampling lane, allocated up front and reused by every
    sample it takes: the complex (n, n, n) sample component `a`, its weighted
    copy `b` and two phase factors `u`, `v`, and the real density `d`
    (1.125 fields in all). `workers` is its FFT pool size."""

    def __init__(self, n: int, workers: int):
        self.a, self.b, self.u, self.v = (np.empty((n, n, n), dtype=complex) for _ in range(4))
        self.d = np.empty((n, n, n))
        self.workers = workers

    def set_time(self, e: np.ndarray, t: float) -> None:
        """u = e^{-iEt}, formed as cos(Et) - i sin(Et), with Et in d."""
        np.multiply(e, t, out=self.d)
        np.cos(self.d, out=self.u.real)
        np.sin(self.d, out=self.u.imag)
        np.negative(self.u.imag, out=self.u.imag)


def position_expectation(
    grid: Grid, w: np.ndarray, lane: _Lane, terms: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, float]:
    """(moments, norm) of the sample s = sum of factor * field over the
    (factor, field) `terms`, with Re <s, X s> / <s, s> = (moments - shift) /
    norm per axis, without applying X: X is the coordinate operator i d/dp_k
    plus a node-local term whose real part, on the scale of the Parseval
    moments, is -shift (0 for the coordinate operator, _spin_orbit_shift(s)
    for apply_xp). Each factor is (n, n, n) and each field (n, n, n, 4); `w`
    is the invariant measure as a complex array. Nothing but the lane's
    buffers a, b and d is written.

    Parseval: with psi = ifftn(s) and gamma = ifftn(w s),
    sum_p w s^dag F[x_k F^{-1} s] = N sum_x x_k gamma^dag psi and
    <s, s> = N sum_x gamma^dag psi, so the one density d(x) = Re gamma^dag psi
    gives the norm sum_x d and the three moments, each moment from the axis-k
    marginal of d. d is summed one spinor component at a time: the component
    is formed in the lane's buffer `a`, weighted into `b`, and both are
    transformed in place.
    """
    a, b, d = lane.a, lane.b, lane.d
    (factor, field), *rest = terms
    for c in range(4):
        np.multiply(factor, field[..., c], out=a)
        for x, g in rest:
            np.multiply(x, g[..., c], out=b)
            a += b
        np.multiply(w, a, out=b)
        psi = sfft.ifftn(a, workers=lane.workers, overwrite_x=True)
        gamma = sfft.ifftn(b, workers=lane.workers, overwrite_x=True)
        np.conjugate(gamma, out=gamma)
        gamma *= psi  # its real part is Re gamma^dag psi
        if c == 0:
            np.copyto(d, gamma.real)
        else:
            d += gamma.real
    moments = np.array([np.sum(grid.x1d * d.sum(axis=axes)) for axes in ((1, 2), (0, 2), (0, 1))])
    return moments, np.sum(d)


def _spin_orbit_shift(field: MomentumField) -> np.ndarray:
    """sum_p w (p x S)_k / (2m(E+m) N), S_l = f^dag Sigma^l f per node: minus
    the real part of the boost-frame term of apply_xp, on the scale of the
    Parseval moments. By alpha^k alpha^j = delta_kj + i eps_kjl Sigma^l,
    Re f^dag (i A_k) f = -(p x S)_k / (2m(E+m)). S is unchanged by a phase per
    node, so free evolution e^{-iEt} of a single-branch field keeps the shift."""
    g, vals = field.grid, field.values
    z = vals[..., 0].conj() * vals[..., 1] + vals[..., 2].conj() * vals[..., 3]
    sq = np.abs(vals) ** 2
    s = (2.0 * z.real, 2.0 * z.imag, sq[..., 0] - sq[..., 1] + sq[..., 2] - sq[..., 3])
    q = _measure(field) / (2.0 * field.mass * (g.energies(field.mass) + field.mass) * g.n**3)
    p, out = g.p_axes, np.empty(3)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        out[k] = np.sum(q * (p[i] * s[j] - p[j] * s[i]))
    return out


def tremble_moments(packet: MomentumField, duration: float, samples: int) -> tuple[float, np.ndarray]:
    """<E> and <p/E> of a packet under the invariant measure, after the
    preconditions of its trembling-motion tracks over `samples` points in
    `duration`: at least 16 samples, a finite positive duration, a
    Dirac-picture packet and, for a branch-mixed one, a Nyquist frequency
    pi (samples - 1) / duration of at least the trembling frequency 2<E>.
    A single-branch track has no trembling frequency to resolve."""
    if samples < 16:
        raise ValueError("need at least 16 samples to resolve a trembling frequency")
    if not 0.0 < duration < np.inf:
        raise ValueError(f"duration must be finite and positive, got {duration!r}")
    if packet.rep != "dirac":
        raise ValueError("the trembling-motion tracks are taken in the Dirac picture")
    grid = packet.grid
    dens = _measure(packet) * pair(packet.values, packet.values)
    total = np.sum(dens)
    e = grid.energies(packet.mass)
    mean_energy = float(np.sum(dens * e) / total)
    nyquist = np.pi * (samples - 1) / duration
    if packet.branch == "mixed" and nyquist < 2.0 * mean_energy:
        raise ValueError(f"the Nyquist frequency pi (samples - 1) / duration = {nyquist:g} is below "
                         f"the trembling frequency 2<E> = {2.0 * mean_energy:g} of the mixed packet")
    slow = dens / e
    moments = [grid.p1d @ slow.sum(axis=axes) for axes in ((1, 2), (0, 2), (0, 1))]  # axis marginals
    return mean_energy, np.array(moments) / total


def _linear_slopes(times: np.ndarray, track: np.ndarray) -> np.ndarray:
    return np.array([np.polyfit(times, track[:, k], 1)[0] for k in range(3)])


def _dominant_angular_frequency(times: np.ndarray, signal: np.ndarray) -> float:
    """Peak of the windowed spectrum of the detrended signal (angular units),
    refined by parabolic interpolation around the peak bin."""
    detrended = signal - np.polyval(np.polyfit(times, signal, 1), times)
    window = np.hanning(len(times))
    amp = np.abs(np.fft.rfft(detrended * window))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(len(times), d=times[1] - times[0])
    k = int(np.argmax(amp[1:])) + 1
    if 1 <= k < len(amp) - 1:
        a, b, c = amp[k - 1], amp[k], amp[k + 1]
        shift = 0.5 * (a - c) / (a - 2.0 * b + c)
        return float(freqs[k] + shift * (freqs[1] - freqs[0]))
    return float(freqs[k])


@dataclass(frozen=True)
class ZitterbewegungResult:
    """Tracks of the naive coordinate and the branch position operator.

    The coordinate track of a branch-mixed field oscillates around ballistic
    motion at the interference frequency 2<E>; the branch position drifts
    with the classical velocity <p/E> for any mix.
    """

    times: np.ndarray
    coordinate_track: np.ndarray       # (samples, 3) <x-hat>
    branch_position_track: np.ndarray  # (samples, 3) <X_P> on the +E projection
    velocity_expectation: np.ndarray   # (3,) <p/E>
    mean_energy: float
    dominant_frequency: float
    coordinate_slopes: np.ndarray
    branch_slopes: np.ndarray


def zitterbewegung_experiment(
    packet: MomentumField, duration: float = 40.0, samples: int = 160
) -> ZitterbewegungResult:
    """Track position expectations of a (possibly branch-mixed) Dirac packet.

    The packet f is split once, at t = 0, into a_+ = branch_projection(f)
    and a_- = f - a_+. Free evolution is diagonal on the split, so
    the sample at absolute time t_i is f(t_i) = e^{-iEt_i} a_+ + e^{+iEt_i} a_-
    for the coordinate track and a_+(t_i) = e^{-iEt_i} a_+ for the branch
    track, with no roundoff carried from sample to sample. <X_P> is the
    coordinate moment minus the spin-orbit shift (_spin_orbit_shift), and the
    shift is formed once, from a_+: S = f^dag Sigma f per node does not change
    under the phase e^{-iEt}. So each sample costs one phase and, per track,
    one position_expectation: per spinor component, two in-place inverse
    FFTs (psi and gamma = ifftn(w f)) and a pairing; then the axis marginals.

    A particle packet is its own +E part (branch_projection raises, before
    the buffers are allocated, if it is not), so both its tracks sample
    e^{-iEt} a_+: one position_expectation per sample gives x-hat =
    moments / norm and X_P = (moments - shift) / norm. A mixed packet makes
    two.

    The samples are independent, so they run on min(RDLAB_THREADS, LANES)
    lanes, each taking every lanes-th sample through its own buffers
    (_Lane, allocated here before any sample) with FFT pools of
    RDLAB_THREADS // lanes workers. Each sample writes only its own track
    rows, so the tracks do not depend on the thread count.
    Preconditions: tremble_moments.
    """
    mean_energy, v_exp = tremble_moments(packet, duration, samples)
    grid, f = packet.grid, packet.values
    e = grid.energies(packet.mass)
    w = _measure(packet).astype(complex)  # a real factor would be cast through a buffer per call

    plus = branch_projection(packet)
    shift = _spin_orbit_shift(plus)
    times = np.linspace(0.0, duration, samples)
    x_track = np.empty((samples, 3))
    b_track = np.empty((samples, 3))
    threads = _workers()
    count = min(threads, LANES)
    lanes = [_Lane(grid.n, threads // count) for _ in range(count)]

    def run_lane(k: int) -> None:
        lane = lanes[k]
        for i in range(k, samples, count):
            lane.set_time(e, times[i])
            moments, norm = position_expectation(grid, w, lane, [(lane.u, plus.values)])
            b_track[i] = (moments - shift) / norm
            if packet.branch == "mixed":  # else f(t) = a_+(t), the sample just taken
                # f(t) = e^{+iEt} f + (e^{-iEt} - e^{+iEt}) a_+: a_- = f - a_+ is never stored
                np.conjugate(lane.u, out=lane.v)
                lane.u -= lane.v
                moments, norm = position_expectation(grid, w, lane, [(lane.v, f), (lane.u, plus.values)])
            x_track[i] = moments / norm

    with ThreadPoolExecutor(count) as pool:
        list(pool.map(run_lane, range(count)))

    x_slopes = _linear_slopes(times, x_track)
    axis = int(np.argmax(np.var(x_track - times[:, None] * x_slopes, axis=0)))
    return ZitterbewegungResult(
        times=times,
        coordinate_track=x_track,
        branch_position_track=b_track,
        velocity_expectation=v_exp,
        mean_energy=mean_energy,
        dominant_frequency=_dominant_angular_frequency(times, x_track[:, axis]),
        coordinate_slopes=x_slopes,
        branch_slopes=_linear_slopes(times, b_track),
    )


# ---------------------------------------------------------------------------
# localized states


def localized_state(
    grid: Grid, mass: float, x0=(0.0, 0.0, 0.0), spin=0.5, branch: str = "particle",
    rep: str = "dirac",
) -> MomentumField:
    """Sampled position eigenstate: plane-wave phase times the branch spinor.

    Delta-normalized (not square-normalizable); skips packet hygiene checks.
    Particle states carry e^{-i p.x0}, antiparticle ones e^{+i p.x0}.
    """
    x0 = np.asarray(x0, dtype=float)
    e = grid.energies(mass)
    sign = -1.0 if branch == "particle" else 1.0
    px, py, pz = grid.p_axes
    phase = np.exp(sign * 1j * (px * x0[0] + py * x0[1] + pz * x0[2]))
    r = rest_spinor(branch, spin)
    if rep == "dirac":
        spinor = (e + mass)[..., None] * r + alpha_dot((grid.q, pz), r)
        spinor /= np.sqrt(2.0 * mass * (e + mass))[..., None]
    elif rep == "fw":
        spinor = np.sqrt(e / mass)[..., None] * r
    else:
        raise ValueError(f"rep must be 'dirac' or 'fw', got {rep!r}")
    return MomentumField(grid, phase[..., None] * spinor, mass, rep, branch)


def flat_top_window(grid: Grid, steepness: float = WINDOW_STEEPNESS) -> np.ndarray:
    """Separable momentum window: 1 on the central plateau, smooth erfc roll-off
    to ~0 before the lattice boundary. Used to band-limit sampled localized
    states so spectral derivatives retain their accuracy."""
    t = (np.abs(grid.p1d) / grid.pmax - WINDOW_PLATEAU) / (WINDOW_EDGE - WINDOW_PLATEAU)
    roll = 0.5 * erfc(steepness * (np.clip(t, 0.0, 1.0) - 0.5))
    w1 = np.where(t <= 0.0, 1.0, np.where(t >= 1.0, 0.0, roll))
    return w1[:, None, None] * w1[None, :, None] * w1[None, None, :]


def windowed_localized_state(
    grid: Grid, mass: float, x0=(0.0, 0.0, 0.0), spin=0.5, branch: str = "particle",
    rep: str = "dirac",
) -> MomentumField:
    """Localized state times the flat-top window (band-limit hygiene)."""
    f = localized_state(grid, mass, x0, spin, branch, rep)
    return replace(f, values=flat_top_window(grid)[..., None] * f.values)


def probe_mask(grid: Grid) -> np.ndarray:
    """Interior nodes |p_k| <= PROBE_FRACTION * pmax on every axis (well inside the
    window plateau; realizes the boundary-shell exclusion for residual norms)."""
    inside = np.abs(grid.p1d) <= PROBE_FRACTION * grid.pmax
    return inside[:, None, None] & inside[None, :, None] & inside[None, None, :]


def localized_eigen_residuals(
    grid: Grid, mass: float, x0=(0.0, 0.0, 0.0), spin=0.5, branch: str = "particle",
    rep: str = "dirac",
) -> np.ndarray:
    """Per-axis relative residual of X(windowed localized state) = x0 * state,
    measured on the interior probe region, with X = apply_xp in the Dirac
    picture and apply_xfw in the FW picture."""
    f = windowed_localized_state(grid, mass, x0, spin, branch, rep)
    mask = probe_mask(grid)
    inner = f.values[mask]
    ref = _l2(inner)
    x0 = np.asarray(x0, dtype=float)

    def residual(k: int, xf: MomentumField) -> float:
        return _l2(xf.values[mask] - x0[k] * inner) / ref

    return np.array(list(map(residual, range(3), (apply_xp if rep == "dirac" else apply_xfw)(f))))


def mean_position_equivalence(field: MomentumField) -> np.ndarray:
    """Per-axis residual of U_FW^dag X_FW U_FW = X_P on a particle packet:
    || U^dag X_FW U f - X_P f || / || f || under the invariant measure."""
    if field.rep != "dirac" or field.branch != "particle":
        raise ValueError("equivalence is stated on particle-branch Dirac-picture fields")
    nn = momentum_norm(field)

    def residual(xp_f: MomentumField, xfw_f: MomentumField) -> float:
        diff = to_dirac_picture(xfw_f).values
        diff -= xp_f.values
        return momentum_norm(replace(field, values=diff)) / nn

    return np.array(list(map(residual, apply_xp(field), apply_xfw(to_fw_picture(field)))))


# ---------------------------------------------------------------------------
# Yukawa tail and the FW position operator in coordinate space


def yukawa_tail(g: CoordinateField) -> Iterator[CoordinateField]:
    """Yield the nonlocal tail of the FW position operator in coordinate space,
    one axis at a time: convolution with the Yukawa-kernel gradient, evaluated
    spectrally with the multiplier i p_k / (2 (p^2 + m^2))."""
    ghat = _fft3(g.values)
    p = g.grid.p_axes
    denom = 2.0 * (p[0] * p[0] + p[1] * p[1] + p[2] * p[2] + g.mass**2)
    for k in range(3):
        yield replace(g, values=_ifft3((1j * p[k] / denom)[..., None] * ghat, overwrite_x=True))


def full_weight_realization(field: MomentumField) -> np.ndarray:
    """Full-measure-weight coordinate realization
    sum_p [dp^3/(2 pi)^3] (m/E_p) phi(p) e^{i p.x} — the plane-wave-spinor
    superposition under which the coordinate form of X_FW (multiplication
    plus Yukawa tail) holds identically."""
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are momentum-space-only")
    w = field.mass / field.grid.energies(field.mass)
    out = _ifft3(w[..., None] * field.values, overwrite_x=True)
    out /= field.grid.dx**3
    return out


def tail_consistency_residual(field: MomentumField) -> float:
    """Two-sided check of the coordinate form of X_FW: realize apply_xfw via
    the full-weight transform and compare against x psi + yukawa_tail(psi).
    Returns the worst per-axis relative L2 difference."""
    if field.rep != "fw":
        raise ValueError("defined for FW-picture fields")
    psi = full_weight_realization(field)
    cf = CoordinateField(field.grid, psi, field.mass, "fw", field.branch)

    def residual(k: int, tail: CoordinateField, xf: MomentumField) -> float:
        lhs, rhs = tail.values, full_weight_realization(xf)
        lhs += field.grid.x1d.reshape([field.grid.n if j == k else 1 for j in range(4)]) * psi
        lhs -= rhs
        return _l2(lhs) / _l2(rhs)

    return float(np.max(list(map(residual, range(3), yukawa_tail(cf), apply_xfw(field)))))  # keeps a NaN
