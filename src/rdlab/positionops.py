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
fields. By alpha^k alpha^j = delta_kj + i eps_kjl Sigma^l the real part of
the boost-frame term is the spin-orbit shift -(p x S)_k / (2m(E+m))
(_spin_orbit_shift), and that of the FW term is zero; S = f^dag Sigma f is
unchanged by the free phase e^{-iEt}, so a track forms the shift once.
  - A branch-mixed packet's tracks are in closed form (_closed_form_tracks):
    N <x_k>(t) = C_k + t V_k + sum_p w [cos(2Et) A_k - sin(2Et) B_k], from
    the branch amplitudes a_+- and their spectral derivatives at t = 0
    (Schroedinger's split of x(t)). That is 32 FFTs, one spinor component
    at a time, at any sample count; A and B are summed per energy shell, so
    a sample costs O(shells).
  - A particle packet's tracks are sampled on the lattice (_sampled_tracks):
    the spectral part of each expectation is one Parseval pairing,
    sum_p w f^dag F[x_k F^{-1} f] = N sum_x x_k gamma^dag psi with
    psi = ifftn(f), gamma = ifftn(w f) (position_expectation): per spinor
    component, one _rate_planes of the pair (f_c, w f_c) in a lane's buffers.
    Samples are independent and run on up to LANES threads. The packet has
    no -E part, so its two tracks share one set of transforms and differ
    only by the shift.
"""
from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erfc

from .clifford import AXES, alpha_dot, pair
from .fields import (
    CoordinateField, MomentumField, _fft3, _ifft3, _l2, _measure, _rate_planes, _workers, branch_projection,
    momentum_norm, to_dirac_picture, to_fw_picture,
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

# axes summed away for the marginal along axis 0, 1, 2
_MARGINALS = ((1, 2), (0, 2), (0, 1))


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


def position_expectation(
    grid: Grid, w: np.ndarray, factor: np.ndarray, field: np.ndarray, planes: np.ndarray, d: np.ndarray,
    workers: int,
) -> tuple[np.ndarray, float]:
    """(moments, norm) of the sample s = factor * field, with
    Re <s, X s> / <s, s> = (moments - shift) / norm per axis, without applying
    X: X is the coordinate operator i d/dp_k plus a node-local term whose real
    part, on the scale of the Parseval moments, is -shift (0 for the
    coordinate operator, _spin_orbit_shift(s) for apply_xp). `factor` is
    (n, n, n) or a scalar and `field` (n, n, n, 4); `w` is the invariant
    measure as a complex array. Nothing but the buffers `planes`, complex
    (2, n, n, n), and `d`, real (n, n, n), is written; `workers` is the FFT
    pool size.

    Parseval: with psi = ifftn(s) and gamma = ifftn(w s),
    sum_p w s^dag F[x_k F^{-1} s] = N sum_x x_k gamma^dag psi and
    <s, s> = N sum_x gamma^dag psi, so the one density d(x) = Re gamma^dag psi
    gives the norm sum_x d and the three moments, each moment from the axis-k
    marginal of d. d is summed one spinor component at a time: the pair
    (s_c, w s_c) is formed in `planes` and _rate_planes adds Re psi_c^* gamma_c.
    """
    d.fill(0.0)
    for c in range(4):
        np.multiply(factor, field[..., c], out=planes[0])
        np.multiply(w, planes[0], out=planes[1])
        d += _rate_planes(planes, workers=workers)
    moments = np.array([np.sum(grid.x1d * d.sum(axis=axes)) for axes in _MARGINALS])
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


def tremble_moments(
    packet: MomentumField, duration: float, samples: int, plus: MomentumField | None = None
) -> tuple[float, np.ndarray]:
    """<E> and <p/E> of a packet under the invariant measure, after the
    preconditions of its trembling-motion tracks over `samples` points in
    `duration`: at least 16 samples, a finite positive duration whose
    squared sample spacing (duration / (samples - 1))^2 is a normal float
    (the slope fits square the sample times; below that they underflow and
    the least-squares solve fails), a Dirac-picture packet and, for a
    branch-mixed one, a Nyquist frequency pi (samples - 1) / duration of at
    least the trembling frequency 2<E>, and each branch holding at least
    1e-24 of sum w |f|^2 (the branch_projection threshold): an empty
    branch's track would be normalised from rounding noise. `plus` is
    branch_projection(packet) when the caller holds it. A single-branch track
    has no trembling frequency to resolve."""
    if samples < 16:
        raise ValueError("need at least 16 samples to resolve a trembling frequency")
    if not 0.0 < duration < np.inf:
        raise ValueError(f"duration must be finite and positive, got {duration!r}")
    spacing = duration / (samples - 1)
    if not spacing * spacing >= np.finfo(float).tiny:
        raise ValueError(f"the sample spacing duration / (samples - 1) = {spacing:g} squares below the "
                         "smallest normal float: the slope fits would underflow")
    if packet.rep != "dirac":
        raise ValueError("the trembling-motion tracks are taken in the Dirac picture")
    grid, w = packet.grid, _measure(packet)
    dens = w * pair(packet.values, packet.values)
    total = np.sum(dens)
    e = grid.energies(packet.mass)
    mean_energy = float(np.sum(dens * e) / total)
    if packet.branch == "mixed":
        nyquist = np.pi * (samples - 1) / duration
        if nyquist < 2.0 * mean_energy:
            raise ValueError(f"the Nyquist frequency pi (samples - 1) / duration = {nyquist:g} is below "
                             f"the trembling frequency 2<E> = {2.0 * mean_energy:g} of the mixed packet")
        if plus is None:
            plus = branch_projection(packet)
        held = np.zeros(2)  # sum w |a_+|^2, sum w |a_-|^2, one lattice plane at a time
        for q, v, a in zip(w, packet.values, plus.values):
            held[0] += np.sum(q * pair(a, a))
            v = v - a
            held[1] += np.sum(q * pair(v, v))
        for name, share in zip(("+E", "-E"), held / total):
            if not share >= 1e-24:
                raise ValueError(f"the {name} branch of the mixed packet holds {share:.3g} of its norm, "
                                 "below 1e-24: it has no track")
    slow = dens / e
    moments = [grid.p1d @ slow.sum(axis=axes) for axes in _MARGINALS]
    return mean_energy, np.array(moments) / total


def _closed_form_tracks(
    packet: MomentumField, plus: MomentumField, shift: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both tracks of a branch-mixed packet from its branch amplitudes at t = 0.

    With a_+ = plus, a_- = f - a_+, D_+- = i d/dp_k a_+- (spectral) and
    a_+^dag a_- = 0 per node, the product rule
    i d/dp_k (e^{-+iEt} a) = e^{-+iEt} (D +- t (p_k/E) a) gives, on the scale
    of the Parseval moments (weights w = measure / n^3),
        N <x_k>(t) = C_k + t V_k + sum_p w [cos(2Et) A_k - sin(2Et) B_k],
        C_k = sum_p w Re(a_+^dag D_+ + a_-^dag D_-),
        V_k = sum_p w (p_k/E) (|a_+|^2 - |a_-|^2),
        A_k = Re(a_+^dag D_- + a_-^dag D_+),  B_k = Im(a_+^dag D_- - a_-^dag D_+),
        N = sum_p w (|a_+|^2 + |a_-|^2),
    and the branch track is (C_+ + t V_+ - shift) / N_+ from the a_+ terms.
    E takes one value on each shell of nodes, so A and B are summed per
    distinct value of grid.energies (np.bincount) and a sample costs O(shells).

    One spinor component c at a time, in five (n, n, n) buffers: a_+,c and
    a_-,c, one inverse FFT of each and one forward FFT of x_k psi per axis,
    8 transforms per component and 32 in all, at any sample count; each
    D_+-,k,c is reduced before the next is formed. Sums are numpy reductions
    (no BLAS), so the tracks do not depend on the thread count.
    """
    grid, f, pv = packet.grid, packet.values, plus.values
    e = grid.energies(packet.mass)
    w = _measure(packet) / grid.n**3
    energies, shell = np.unique(e, return_inverse=True)
    # bin of each float of a complex node array: real parts to even bins, imaginary to odd
    bins = np.empty(2 * e.size, dtype=np.intp)
    np.multiply(shell.ravel(), 2, out=bins[0::2])
    np.add(bins[0::2], 1, out=bins[1::2])
    del shell
    x = [grid.x1d.reshape([grid.n if j == k else 1 for j in range(3)]) for k in range(3)]
    norm, drift, own = np.zeros(2), np.zeros((2, 3)), np.zeros((2, 3))  # per branch, + then -
    cos_terms, sin_terms = np.zeros((3, len(energies))), np.zeros((3, len(energies)))  # A, B per shell
    # a_+,c and a_-,c, then w conj(a) of each; psi, D and a product
    ap, am, psi, d, g = (np.empty(e.shape, dtype=complex) for _ in range(5))
    for c in range(4):
        np.copyto(ap, pv[..., c])
        np.subtract(f[..., c], ap, out=am)
        for b, a in enumerate((ap, am)):
            sq = a.real * a.real
            sq += a.imag * a.imag
            sq *= w
            norm[b] += np.sum(sq)
            sq /= e
            drift[b] += [np.sum(grid.p1d * sq.sum(axis=axes)) for axes in _MARGINALS]
        np.copyto(psi, ap)
        for a in (ap, am):
            np.multiply(a, w, out=a)
            np.conjugate(a, out=a)
        for b, (mine, other) in enumerate(((ap, am), (am, ap))):
            if b == 1:  # a_-,c again: am holds w conj(a_-,c) by now
                np.subtract(f[..., c], pv[..., c], out=psi)
            psi = _ifft3(psi, overwrite_x=True)
            for k in range(3):
                np.multiply(x[k], psi, out=d)
                d = _fft3(d, overwrite_x=True)  # D_k of branch b, component c
                np.multiply(mine, d, out=g)
                own[b, k] += np.sum(g.real)
                d *= other  # w a_-^dag D_+ (b = 0) or w a_+^dag D_- (b = 1), per node
                binned = np.bincount(bins, d.view(float).ravel(), 2 * len(energies))
                cos_terms[k] += binned[0::2]
                sin_terms[k] += (-1.0, 1.0)[b] * binned[1::2]
    swing = np.empty((len(times), 3))  # sum_p w [cos(2Et) A_k - sin(2Et) B_k], one sample at a time
    for i, t in enumerate(times):
        phase = 2.0 * t * energies
        swing[i] = np.sum(np.cos(phase) * cos_terms - np.sin(phase) * sin_terms, axis=1)
    x_track = (own.sum(axis=0) + times[:, None] * (drift[0] - drift[1]) + swing) / norm.sum()
    b_track = (own[0] + times[:, None] * drift[0] - shift) / norm[0]
    return x_track, b_track


def _sampled_tracks(
    plus: MomentumField, shift: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both tracks of a particle packet, one position_expectation per sample.

    The packet is its own +E part a_+ = `plus`, so both tracks sample
    e^{-iEt} a_+: x-hat = moments / norm and X_P = (moments - shift) / norm.
    The samples are independent, so they run on min(RDLAB_THREADS, LANES)
    lanes, each taking every lanes-th sample through its own buffers, all
    allocated here before any sample: the complex pair (2, n, n, n) and phase
    u = e^{-iEt} (n, n, n) and the real density d (0.875 fields per lane),
    with FFT pools of RDLAB_THREADS // lanes workers. Each sample writes only
    its own track rows, so the tracks do not depend on the thread count.
    """
    grid, samples = plus.grid, len(times)
    e = grid.energies(plus.mass)
    w = _measure(plus).astype(complex)  # a real factor would be cast through a buffer per call
    x_track = np.empty((samples, 3))
    b_track = np.empty((samples, 3))
    threads = _workers()
    count = min(threads, LANES)
    lanes = [(np.empty((2, *e.shape), dtype=complex), np.empty(e.shape, dtype=complex), np.empty(e.shape))
             for _ in range(count)]

    def run_lane(k: int) -> None:
        planes, u, d = lanes[k]
        for i in range(k, samples, count):
            np.multiply(e, times[i], out=d)  # u = cos(Et) - i sin(Et), with Et in d
            np.cos(d, out=u.real)
            np.sin(d, out=u.imag)
            np.negative(u.imag, out=u.imag)
            moments, norm = position_expectation(grid, w, u, plus.values, planes, d, threads // count)
            x_track[i] = moments / norm
            b_track[i] = (moments - shift) / norm

    with ThreadPoolExecutor(count) as pool:
        list(pool.map(run_lane, range(count)))
    return x_track, b_track


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
    and a_- = f - a_+. Free evolution is diagonal on the split: the sample at
    time t_i is f(t_i) = e^{-iEt_i} a_+ + e^{+iEt_i} a_- for the coordinate
    track and a_+(t_i) = e^{-iEt_i} a_+ for the branch track. <X_P> is the
    coordinate moment minus the spin-orbit shift (_spin_orbit_shift), formed
    once from a_+: S = f^dag Sigma f per node does not change under the phase
    e^{-iEt}.

    A branch-mixed packet's tracks are evaluated in closed form from a_+- and
    their spectral derivatives at t = 0 (_closed_form_tracks). A particle
    packet is its own +E part (branch_projection raises, before any sample,
    if it is not), and its tracks are sampled on the lattice
    (_sampled_tracks): their slopes are the lattice measurement of transport.
    Preconditions: tremble_moments.
    """
    plus = branch_projection(packet)
    mean_energy, v_exp = tremble_moments(packet, duration, samples, plus)
    shift = _spin_orbit_shift(plus)
    times = np.linspace(0.0, duration, samples)
    if packet.branch == "mixed":
        x_track, b_track = _closed_form_tracks(packet, plus, shift, times)
    else:
        x_track, b_track = _sampled_tracks(plus, shift, times)

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
