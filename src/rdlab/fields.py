"""Momentum-space spinor wave fields and their coordinate realizations.

A MomentumField stores invariant-measure amplitudes phi(p) on a periodic
lattice: the physical pairing is <a|b> = sum_p [m / ((2 pi)^3 E_p)] a^dag b dp^3,
and the coordinate realization is

    psi(x) = sum_p [dp^3 / (2 pi)^3] sqrt(m / E_p) phi(p) e^{+i p.x},

a unitary map (Parseval holds to machine precision), computed with FFTs.

Branch tags: "particle" and "mixed" fields are labeled by the plane-wave
node p (negative-energy content at node p lies along the -E_p eigenvectors
of alpha.p + beta m); "antiparticle" fields use the antiparticle's own
momentum labeling and are momentum-space-only (no coordinate realization,
no evolution) — they exist for the mirrored position-operator checks.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft

from .clifford import alpha_dot, pair, sigma_dot, sigma_pair
from .grids import Grid
from .spinors import pauli_spinor

REPS = ("dirac", "fw")
BRANCHES = ("particle", "antiparticle", "mixed")

# construction hygiene: required decay at the lattice boundary, as a fraction
# of the field's peak amplitude
MOMENTUM_EDGE_TOL = 1e-8
COORDINATE_EDGE_TOL = 5e-2


def _workers() -> int:
    return int(os.environ.get("RDLAB_THREADS") or os.cpu_count() or 1)


def _fft3(a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    return sfft.fftn(a, axes=(0, 1, 2), workers=_workers(), overwrite_x=overwrite_x)


def _ifft3(a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    return sfft.ifftn(a, axes=(0, 1, 2), workers=_workers(), overwrite_x=overwrite_x)


@dataclass
class MomentumField:
    """Spinor amplitudes phi(p), shape (n, n, n, 4), invariant-measure convention."""

    grid: Grid
    values: np.ndarray
    mass: float
    rep: str = "dirac"
    branch: str = "particle"
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.grid.n
        if self.values.shape != (n, n, n, 4):
            raise ValueError(f"values must have shape {(n, n, n, 4)}, got {self.values.shape}")
        if self.rep not in REPS:
            raise ValueError(f"rep must be one of {REPS}, got {self.rep!r}")
        if self.branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {self.branch!r}")
        if not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")


@dataclass
class CoordinateField:
    """Spinor wavefunction psi(x), shape (n, n, n, 4), on the dual lattice."""

    grid: Grid
    values: np.ndarray
    mass: float
    rep: str = "dirac"
    branch: str = "particle"
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.grid.n
        if self.values.shape != (n, n, n, 4):
            raise ValueError(f"values must have shape {(n, n, n, 4)}, got {self.values.shape}")


def _measure(field: MomentumField) -> np.ndarray:
    """m / ((2 pi)^3 E_p) per node."""
    return field.mass / ((2.0 * np.pi) ** 3 * field.grid.energies(field.mass))


def _check_compatible(a, b):
    if a.grid != b.grid or a.mass != b.mass or a.rep != b.rep:
        raise ValueError("fields must share grid, mass and picture")


def momentum_inner(a: MomentumField, b: MomentumField) -> complex:
    """Invariant-measure inner product sum_p w_p a^dag b dp^3. Re and Im of a^dag b
    come from float views, as in clifford.pair, with no conjugate copy:
    Im a^dag b = sum_c Re a_c Im b_c - Im a_c Re b_c."""
    _check_compatible(a, b)
    x, y = a.values.view(float), b.values.view(float)  # (re, im) interleaved
    im = np.einsum("...c,...c->...", x[..., ::2], y[..., 1::2])
    im -= np.einsum("...c,...c->...", x[..., 1::2], y[..., ::2])
    w = _measure(a)
    return complex(np.sum(w * pair(a.values, b.values)), np.sum(w * im)) * a.grid.dp**3


def momentum_norm(a: MomentumField) -> float:
    return float(np.sqrt(np.sum(_measure(a) * pair(a.values, a.values)) * a.grid.dp**3))


def to_coordinate(field: MomentumField) -> CoordinateField:
    """Unitary transform to the coordinate lattice (rejects antiparticle labeling)."""
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are momentum-space-only")
    half = np.sqrt(field.mass / field.grid.energies(field.mass))
    psi = _ifft3(half[..., None] * field.values) / field.grid.dx**3
    return CoordinateField(field.grid, psi, field.mass, field.rep, field.branch, field.time)


def to_momentum(field: CoordinateField) -> MomentumField:
    """Inverse of to_coordinate."""
    half = np.sqrt(field.grid.energies(field.mass) / field.mass)
    phi = half[..., None] * _fft3(field.values) * field.grid.dx**3
    return MomentumField(field.grid, phi, field.mass, field.rep, field.branch, field.time)


def hamiltonian_apply(field: MomentumField) -> np.ndarray:
    """H phi per node: (alpha.p + beta m) phi in the Dirac picture, beta E_p phi in FW."""
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are momentum-space-only")
    if field.rep == "dirac":
        # (sigma.p l + m u, sigma.p u - m l)
        out = alpha_dot(field.grid.p, field.values)
        out[..., :2] += field.mass * field.values[..., :2]
        out[..., 2:] -= field.mass * field.values[..., 2:]
        return out
    e = field.grid.energies(field.mass)[..., None]
    out = field.values * e
    out[..., 2:] *= -1.0
    return out


def evolve(field: MomentumField, t: float) -> MomentumField:
    """Advance by duration t (exact per-node propagator; H^2 = E^2 in both pictures)."""
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are momentum-space-only")
    e = field.grid.energies(field.mass)
    h = hamiltonian_apply(field)
    vals = np.cos(e * t)[..., None] * field.values - 1j * (np.sin(e * t) / e)[..., None] * h
    return replace(field, values=vals, time=field.time + t)


def _fw_rotate(field: MomentumField, direction: int) -> np.ndarray:
    """Apply U(p)^direction, U = (E + m + beta alpha.p) / sqrt(2 E (E + m)).

    Antiparticle-labeled fields use U(p)^dag in place of U(p) (their plane-wave
    content sits at the opposite node), handled by flipping `direction`.
    """
    if field.branch == "antiparticle":
        direction = -direction
    e = field.grid.energies(field.mass)
    # direction * beta alpha.p v = direction * (sigma.p l, -sigma.p u), then + (E + m) v
    out = alpha_dot(field.grid.p, field.values)
    for half, sign in ((slice(0, 2), direction), (slice(2, 4), -direction)):
        out[..., half] *= sign
        out[..., half] += (e + field.mass)[..., None] * field.values[..., half]
    out /= np.sqrt(2.0 * e * (e + field.mass))[..., None]
    return out


def to_fw_picture(field: MomentumField) -> MomentumField:
    """Switch Dirac -> FW picture (mode-wise unitary; norm preserved exactly)."""
    if field.rep != "dirac":
        raise ValueError("field is already in the FW picture")
    return replace(field, values=_fw_rotate(field, +1), rep="fw")


def to_dirac_picture(field: MomentumField) -> MomentumField:
    """Switch FW -> Dirac picture."""
    if field.rep != "fw":
        raise ValueError("field is already in the Dirac picture")
    return replace(field, values=_fw_rotate(field, -1), rep="dirac")


def density(field: CoordinateField) -> np.ndarray:
    """Probability density psi^dag psi (real, shape (n, n, n))."""
    return pair(field.values, field.values)


def current_density(field: CoordinateField) -> np.ndarray:
    """Dirac-picture current j^k = psi^dag alpha^k psi, shape (n, n, n, 3).

    FW fields have no pointwise current formula; use fw_current_density,
    which reconstructs the unique transverse-free current from the exact
    density rate.
    """
    if field.rep != "dirac":
        raise ValueError("pointwise alpha-current is defined in the Dirac picture only")
    # psi^dag alpha^k psi = 2 Re u^dag sigma^k l
    return 2.0 * sigma_pair(field.values[..., :2], field.values[..., 2:])


def density_rate(field: MomentumField) -> np.ndarray:
    """Exact d(rho)/dt on the coordinate lattice: 2 Re[psi^dag psi_dot]."""
    psi = to_coordinate(field)
    dot = to_coordinate(replace(field, values=-1j * hamiltonian_apply(field)))
    return 2.0 * pair(psi.values, dot.values)


def divergence(field_grid: Grid, vec: np.ndarray) -> np.ndarray:
    """Spectral divergence of a real lattice vector field, shape (n, n, n, 3) -> (n, n, n)."""
    vhat = _fft3(vec.astype(complex))
    div = np.einsum("xyzk,xyzk->xyz", 1j * field_grid.p, vhat)
    return _ifft3(div).real


def fw_current_density(field: MomentumField) -> np.ndarray:
    """FW current as the longitudinal field solving continuity exactly:
    j = -grad (laplacian)^{-1} d(rho)/dt, with the zero mode set to zero."""
    if field.rep != "fw":
        raise ValueError("defined for FW-picture fields")
    rate = sfft.fftn(density_rate(field).astype(complex), workers=_workers())
    p2 = np.einsum("xyzk,xyzk->xyz", field.grid.p, field.grid.p)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(p2 > 0.0, rate / p2, 0.0)
    # div j = ifft(i p_k j_k) = -rate by construction
    j = [_ifft3(1j * field.grid.p[..., k] * u).real for k in range(3)]
    return np.stack(j, axis=-1)


def momentum_expectation(field: MomentumField) -> np.ndarray:
    """<p> under the invariant-measure density (3-vector)."""
    dens = _measure(field) * pair(field.values, field.values)
    total = np.sum(dens)
    return np.einsum("xyz,xyzk->k", dens, field.grid.p) / total


def coordinate_centroid(field: CoordinateField) -> np.ndarray:
    """<x> under psi^dag psi (3-vector)."""
    rho = density(field)
    return np.einsum("xyz,xyzk->k", rho, field.grid.x) / np.sum(rho)


def total_probability(field: CoordinateField) -> float:
    if not isinstance(field, CoordinateField):
        raise TypeError("total_probability integrates a coordinate-lattice field")
    return float(np.sum(density(field)) * field.grid.dx**3)


def boundary_fraction(field: MomentumField | CoordinateField) -> float:
    """Max |values| over the three boundary planes of each axis, over peak |values|."""
    mags = np.abs(field.values)
    peak = mags.max()
    n = field.grid.n
    planes = [n // 2 - 1, n // 2, (n // 2 + 1) % n]
    worst = max(
        mags[planes].max(), mags[:, planes].max(), mags[:, :, planes].max()
    )
    return float(worst / peak)


def _spin_vector(spin) -> np.ndarray:
    if np.isscalar(spin):
        return pauli_spinor(float(spin))
    chi = np.asarray(spin, dtype=complex)
    if chi.shape != (2,) or not np.linalg.norm(chi) > 0:
        raise ValueError("spin must be +-0.5 or a nonzero 2-component vector")
    return chi / np.linalg.norm(chi)


def _packet(grid, mass, p0, x0, sigma, spin, rep, branch, upper, lower) -> MomentumField:
    """Unit-norm packet: amp g(p) e^{-+i p.x0} times the per-node spinor
    (a (E+m) chi + b sigma.p chi, c (E+m) chi + d sigma.p chi) / sqrt(2m(E+m)),
    with (a, b) = upper, (c, d) = lower and the + sign for the antiparticle
    labeling. Raises if sigma, p0 or x0 is not finite, or if the packet fails
    the lattice boundary-decay preconditions.
    """
    if rep not in REPS:
        raise ValueError(f"rep must be one of {REPS}, got {rep!r}")
    p0 = np.asarray(p0, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if not (np.isfinite(sigma) and np.isfinite(p0).all() and np.isfinite(x0).all()):
        raise ValueError("packet sigma, p0 and x0 must be finite")
    chi = _spin_vector(spin)
    e = grid.energies(mass)
    d = grid.p - p0
    g = np.exp(-0.5 * sigma**2 * np.einsum("xyzk,xyzk->xyz", d, d))
    amp = 1.0 / np.sqrt(np.sum(g * g) * grid.dp**3 / (2.0 * np.pi) ** 3)
    sign = 1.0 if branch == "antiparticle" else -1.0
    envelope = amp * g * np.exp(sign * 1j * (grid.p @ x0)) / np.sqrt(2.0 * mass * (e + mass))
    sp = sigma_dot(grid.p, chi)
    sp *= envelope[..., None]
    envelope *= e + mass
    vals = np.empty((*e.shape, 4), dtype=complex)
    for half, (a, b) in ((slice(0, 2), upper), (slice(2, 4), lower)):
        np.multiply(envelope[..., None], a * chi, out=vals[..., half])
        vals[..., half] += b * sp
    field = MomentumField(grid, vals, mass, "dirac", branch)
    if rep == "fw":
        field = to_fw_picture(field)
    edge = boundary_fraction(field)
    if edge > MOMENTUM_EDGE_TOL:
        raise ValueError(
            f"momentum boundary amplitude {edge:.2e} of peak exceeds {MOMENTUM_EDGE_TOL:.0e}; "
            "enlarge pmax or narrow the packet in momentum"
        )
    if branch != "antiparticle":  # antiparticle labels have no coordinate realization
        leak = boundary_fraction(to_coordinate(field))
        if leak > COORDINATE_EDGE_TOL:
            raise ValueError(
                f"coordinate boundary amplitude {leak:.2e} of peak exceeds {COORDINATE_EDGE_TOL:.0e}; "
                "enlarge the box (more nodes at fixed pmax) or narrow the packet in space"
            )
    return field


def gaussian_packet(
    grid: Grid,
    mass: float,
    p0=(0.0, 0.0, 0.0),
    x0=(0.0, 0.0, 0.0),
    sigma: float = 4.0,
    spin=0.5,
    weights=(1.0, 0.0),
    rep: str = "dirac",
) -> MomentumField:
    """Unit-norm Gaussian packet centered at momentum p0 and position x0.

    The scalar envelope carries a sqrt(E/m) factor, so the measure-weighted
    momentum density is a symmetric Gaussian (hence <p> = p0 exactly) and the
    coordinate realization is the measure-weighted superposition of plane-wave
    eigenspinors. `weights` are the (+E, -E) channel amplitudes at each node,
    on v_+ = ((E+m) chi, sigma.p chi) / N and v_- = (-sigma.p chi, (E+m) chi) / N
    with N = sqrt(2E(E+m)); a nonzero -E weight gives a "mixed" field. `sigma`
    is the coordinate-space width. Raises if the packet fails the lattice
    boundary-decay preconditions.
    """
    w = np.asarray(weights, dtype=complex)
    if w.shape != (2,) or not np.linalg.norm(w) > 0:
        raise ValueError("weights must be a nonzero pair of channel amplitudes")
    w = w / np.linalg.norm(w)
    branch = "particle" if w[1] == 0 else "mixed"
    return _packet(grid, mass, p0, x0, sigma, spin, rep, branch, (w[0], -w[1]), (w[1], w[0]))


def antiparticle_gaussian_packet(
    grid: Grid,
    mass: float,
    p0=(0.0, 0.0, 0.0),
    x0=(0.0, 0.0, 0.0),
    sigma: float = 4.0,
    spin=0.5,
    rep: str = "dirac",
) -> MomentumField:
    """Unit-norm antiparticle-labeled packet (momentum-space-only object).

    Uses the antiparticle phase convention e^{+i p.x0} and the per-node spinor
    (sigma.p chi, (E+m) chi) / sqrt(2E(E+m)), the +E eigenvector of
    alpha.p - beta m, matching the mirrored position operators.
    """
    return _packet(grid, mass, p0, x0, sigma, spin, rep, "antiparticle", (0.0, 1.0), (1.0, 0.0))


# ---------------------------------------------------------------------------
# branch projections, continuity and trembling motion


def branch_projection(field: MomentumField, branch: str) -> MomentumField:
    """Node-wise orthogonal projection onto the +E or -E eigenspace of H(p).

    The projector is (1 +- H/E) / 2 (H^2 = E^2 per node); in the FW picture it
    selects the upper or the lower component pair.
    """
    if branch not in ("particle", "antiparticle"):
        raise ValueError(f"branch must be 'particle' or 'antiparticle', got {branch!r}")
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are already single-branch")
    if field.rep == "fw":
        vals = field.values.copy()
        if branch == "particle":
            vals[..., 2:] = 0.0
        else:
            vals[..., :2] = 0.0
    else:
        sign = 1.0 if branch == "particle" else -1.0
        vals = hamiltonian_apply(field)
        vals *= (sign / field.grid.energies(field.mass))[..., None]
        vals += field.values
        vals *= 0.5
    return replace(field, values=vals, branch=branch)


def concentration_box(grid: Grid, rho: np.ndarray, fraction: float = 0.999):
    """Smallest centroid-centered cube holding `fraction` of the density.

    Returns (center, halfwidth). Sup-metric distances, so the region is the
    cube |x - c|_inf <= halfwidth.
    """
    total = np.sum(rho)
    center = np.einsum("xyz,xyzk->k", rho, grid.x) / total
    dist = np.max(np.abs(grid.x - center), axis=-1)
    order = np.argsort(dist, axis=None)
    cum = np.cumsum(rho.ravel()[order])
    stop = int(np.searchsorted(cum, fraction * total))
    stop = min(stop, cum.size - 1)
    return center, float(dist.ravel()[order][stop])


@dataclass(frozen=True)
class ContinuityReport:
    """Continuity defect || d(rho)/dt + div j || with a nonlocality proxy.

    The density rate uses a centered difference over 2*dt; `dt_warning` is
    set when the residual exceeds 1% of the rate scale: "too fine" when the
    rounding floor of the difference, eps ||rho|| / (2 dt), alone exceeds
    that budget, "too coarse" otherwise. The nonlocality proxy is the
    fraction of the current magnitude living outside the smallest cube
    holding 99.9% of the density.
    """

    rep: str
    dt: float
    residual_l2: float
    residual_sup: float
    rate_scale: float
    nonlocality: float
    dt_warning: str | None


def continuity_residual(field: MomentumField, dt: float) -> ContinuityReport:
    """Continuity audit at the field's current time (either picture)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    grid = field.grid
    rho_plus = density(to_coordinate(evolve(field, dt)))
    rho_minus = density(to_coordinate(evolve(field, -dt)))
    rate_fd = (rho_plus - rho_minus) / (2.0 * dt)
    if field.rep == "dirac":
        j = current_density(to_coordinate(field))
    else:
        j = fw_current_density(field)
    defect = rate_fd + divergence(grid, j)
    cell = grid.dx**3
    res_l2 = float(np.sqrt(np.sum(defect**2) * cell))
    rate_scale = float(np.sqrt(np.sum(rate_fd**2) * cell))

    rho = density(to_coordinate(field))
    center, half = concentration_box(grid, rho, 0.999)
    outside = np.max(np.abs(grid.x - center), axis=-1) > half
    jmag = np.sqrt(np.einsum("xyzk,xyzk->xyz", j, j))
    nonlocality = float(np.sum(jmag[outside]) / np.sum(jmag))
    rounding = np.finfo(float).eps * float(np.linalg.norm(rho)) * np.sqrt(cell) / (2.0 * dt)
    dt_warning = None
    if res_l2 > 0.01 * rate_scale:
        dt_warning = "too fine" if rounding > 0.01 * rate_scale else "too coarse"
    return ContinuityReport(
        rep=field.rep,
        dt=dt,
        residual_l2=res_l2,
        residual_sup=float(np.abs(defect).max()),
        rate_scale=rate_scale,
        nonlocality=nonlocality,
        dt_warning=dt_warning,
    )


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
    with the classical velocity <p/E> for any mix. The packet is split into
    its +E and -E parts once, at t = 0, and every sample is taken at its
    absolute time, so no roundoff builds up along the tracks: one expectation
    (two inverse FFTs) per track and sample.
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

    The packet f is split once, at t = 0, into a_+ = branch_projection(f,
    "particle") and a_- = f - a_+. Free evolution is diagonal on the split, so
    the sample at absolute time t_i is f(t_i) = e^{-iEt_i} a_+ + e^{+iEt_i} a_-
    for the coordinate track and a_+(t_i) = e^{-iEt_i} a_+ for the branch
    track: one diagonal phase and one expectation (two inverse FFTs, see
    positionops.position_expectation) per track and sample, with no roundoff
    carried from sample to sample.
    """
    if samples < 16:
        raise ValueError("need at least 16 samples to resolve a trembling frequency")
    if packet.rep != "dirac":
        raise ValueError("the trembling-motion tracks are taken in the Dirac picture")
    from .positionops import position_expectation

    grid, f = packet.grid, packet.values
    dens = _measure(packet) * pair(f, f)
    total = np.sum(dens)
    e = grid.energies(packet.mass)
    mean_energy = float(np.sum(dens * e) / total)
    v_exp = np.einsum("xyz,xyzk->k", dens / e, grid.p) / total

    plus = branch_projection(packet, "particle")
    times = np.linspace(0.0, duration, samples)
    x_track = np.empty((samples, 3))
    b_track = np.empty((samples, 3))
    for i, t in enumerate(times):
        phase = np.exp(-1j * e * t)[..., None]
        # f(t) as e^{+iEt} f - 2i sin(Et) a_+: a_- = f - a_+ is never stored
        sample = replace(packet, values=phase.conj() * f, time=packet.time + t)
        sample.values -= (2j * np.sin(e * t))[..., None] * plus.values
        x_track[i] = position_expectation(sample, "coordinate")
        # rebinding drops f(t) before the next expectation: one sample field alive at a time
        sample = replace(plus, values=phase * plus.values, time=packet.time + t)
        b_track[i] = position_expectation(sample, "branch")

    osc = x_track - times[:, None] * _linear_slopes(times, x_track)
    axis = int(np.argmax(np.var(osc, axis=0)))
    return ZitterbewegungResult(
        times=times,
        coordinate_track=x_track,
        branch_position_track=b_track,
        velocity_expectation=v_exp,
        mean_energy=mean_energy,
        dominant_frequency=_dominant_angular_frequency(times, x_track[:, axis]),
        coordinate_slopes=_linear_slopes(times, x_track),
        branch_slopes=_linear_slopes(times, b_track),
    )
