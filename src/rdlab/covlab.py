"""Boost and rotation experiments probing how lattice densities transform.

The Dirac density is the time component of a pointwise conserved four-current,
so an actively boosted state must reproduce, on the new equal-time slice, the
current of the rest state sampled along the tilted slice. Running the same
comparison with the FW density (paired with its continuity-solving current)
exposes the frame dependence of that density: the residual does not vanish and
does not shrink under lattice refinement.

Boosts remap momenta off the lattice nodes, so fields are resampled along the
boost axis with the exact trigonometric interpolant of the periodic lattice;
rotations are restricted to quarter turns, which are exact node permutations.

Both off-lattice samplings share one kernel, _axis_dft: small phase-matrix
products along one axis, one per transverse line. The tilted slice transforms
only the +E part of the rest (particle) field, whose evolution is a phase, and
raises if the -E part is not negligible; every plane comes from that one
transform plus one transverse inverse FFT, and only the nonlocal FW current
still needs a 3D density rate per plane. In the FW picture the +E part is the
upper components that branch_projection stores (one for a packet with spin
+1/2 along z, else the pair): the slice reads them as one contiguous
component-first copy, and each plane's rate is formed one stored component at
a time by the density-rate kernel of fields (_rate_planes) on the pair
(psi_c, psi_dot_c).

covariance_sweep runs the whole boost sweep of one packet and returns one
BoostExperimentReport per rapidity; BoostExperimentReport.as_dict is the
serialized record. Its FW rest density and FW slices run on the FW particle
field's stored upper components, so no four-component FW field is alive while
the slices work.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft

from .clifford import AXES, pair, sigma_dot
from .fields import (
    MomentumField,
    _flux,
    _rate_planes,
    _workers,
    branch_projection,
    coordinate_density,
    to_fw_picture,
)
from .grids import Grid
from .spinors import spinor_boost, spinor_rotation

# Amplitude fraction defining the momentum support for the boost pre-check.
# Sits above the trig-interpolation noise floor of an already-boosted field
# (~1e-6 of peak) so chained boosts see the genuine support, not the noise.
SUPPORT_CUT = 3e-6


def _lattice_powers(w: np.ndarray, n: int, axis: int) -> np.ndarray:
    """w**k on a new axis `axis` for the lattice integers k in FFT order
    (0, ..., n/2 - 1, -n/2, ..., -1): one exponential per phase, not n.
    |w| = 1, so w**-k = conj(w**k); doubling keeps the rounding near |k| ulps,
    the rounding of the phase itself."""
    out = np.empty((*w.shape[:axis], n, *w.shape[axis:]), dtype=complex)
    pw = np.moveaxis(out, axis, 0)
    half = n // 2
    pw[0] = 1.0
    pw[1] = w
    m = 2
    while m <= half:  # pw[:m] holds w**0 ... w**(m - 1)
        top = min(2 * m, half + 1)
        np.multiply(pw[: top - m], pw[m // 2] * pw[m - m // 2], out=pw[m:top])
        m = top
    np.conjugate(pw[half - 1 : 0 : -1], out=pw[half + 1 :])
    np.conjugate(pw[half], out=pw[half])
    return out


def _axis_dft(values: np.ndarray, kernel) -> np.ndarray:
    """out[q, y, z] = sum_j kernel(y)[z, q, j] values[j, y, z], one small matrix
    product per transverse line, one y at a time so that a single phase block
    is alive. values has shape (nj, n, n, s), out (n, n, n, s)."""
    out = np.empty((values.shape[1], *values.shape[1:]), dtype=complex)
    for y in range(values.shape[1]):
        out[:, y] = np.matmul(kernel(y), values[:, y].transpose(1, 0, 2)).transpose(1, 0, 2)
    return out


def _resample_along_axis(
    values: np.ndarray, grid: Grid, targets: np.ndarray, axis: int
) -> np.ndarray:
    """Sample the periodic trigonometric interpolant at per-node momenta.

    `targets[i, j, k]` replaces the axis component of node (i, j, k); the
    transverse components stay on the lattice, so the interpolation is a
    batch of 1D evaluations sharing the coordinate frequencies x1d.
    """
    coeff = sfft.ifft(np.moveaxis(values, axis, 0), axis=0, workers=_workers())
    w = np.exp(-1j * grid.dx * np.moveaxis(targets, axis, 0))
    out = _axis_dft(coeff, lambda y: _lattice_powers(w[:, y].T, grid.n, 2))
    return np.moveaxis(out, 0, axis)


def check_boost_reach(field: MomentumField, rapidity: float, axis: int) -> None:
    """Raise ValueError when the boosted momentum support would leave the lattice band."""
    grid = field.grid
    amp = np.abs(field.values).max(axis=-1)
    support = amp > SUPPORT_CUT * amp.max()
    q_ax = grid.p_axes[axis]
    e_q = grid.energies(field.mass)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite or NaN reach fails below
        reach = float(np.abs(np.cosh(rapidity) * q_ax + np.sinh(rapidity) * e_q)[support].max())
    if not reach <= grid.pmax - grid.dp:
        raise ValueError(
            f"boosted momentum support reaches |p| ~ {reach:.2f}, beyond the "
            f"lattice band pmax = {grid.pmax:g}; rebuild with pmax >~ {reach + 3 * grid.dp:.1f}"
        )


def _boosted_samples(field: MomentumField, rapidity: float, axis: int):
    """The rest field read at the source momenta p of an active boost along an
    axis, with E_q and E_p.

    The boosted amplitude at node q is read off the rest field at
    p = (targets, q_transverse): targets = cosh(chi) q_ax - sinh(chi) E_q.
    Nodes whose source momentum falls outside the principal band are zeroed
    (the rest field carries no amplitude there). Raises when the boosted
    support would leave the lattice band.
    """
    check_boost_reach(field, rapidity, axis)
    grid, m = field.grid, field.mass
    e_q = grid.energies(m)
    p = list(grid.p_axes)
    p[axis] = np.cosh(rapidity) * p[axis] - np.sinh(rapidity) * e_q
    vals = _resample_along_axis(field.values, grid, p[axis], axis)
    vals[(p[axis] < -grid.pmax) | (p[axis] >= grid.pmax)] = 0.0
    p2 = np.add(p[0] * p[0] + p[1] * p[1], p[2] * p[2])  # the order of np.sum(p * p, axis=-1)
    return vals, e_q, np.sqrt(m * m + p2)


def boost_dirac_field(field: MomentumField, rapidity: float, axis: int = 0) -> MomentumField:
    """Active boost of a particle-branch Dirac-picture field.

    phi'(q) = sqrt(E_p / E_q) S(boost) phi(p) with p the inverse-boosted
    momentum of q (see _boosted_samples).
    """
    if field.rep != "dirac":
        raise ValueError("boost_dirac_field expects a Dirac-picture field")
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    if field.branch != "particle":
        raise ValueError("boosts are implemented for single-branch particle fields")
    if rapidity == 0.0:
        return field
    vals, e_q, e_p = _boosted_samples(field, rapidity, axis)
    vals = vals @ spinor_boost(rapidity * np.eye(3)[axis]).T
    vals *= np.sqrt(e_p / e_q)[..., None]
    return replace(field, values=vals)


def _quarter_turns(values: np.ndarray, axis: int, k: int) -> np.ndarray:
    """Permute the nodes of a periodic lattice sample (any trailing per-node
    axes) by k quarter turns about a coordinate axis: out(y) = in(R^-k y).
    In the lattice integers (u, v) along axes (b, c) = (axis + 1, axis + 2)
    mod 3, one +90 degree turn is out(u, v) = in(v, -u): a flip and a one-node
    roll along c give -v (FFT order), then b and c swap."""
    b, c = (axis + 1) % 3, (axis + 2) % 3
    for _ in range(k % 4):
        values = np.swapaxes(np.roll(np.flip(values, c), 1, c), b, c)
    return values


def rotate_field(field: MomentumField, axis: int, quarter_turns: int) -> MomentumField:
    """Active rotation by quarter_turns * 90 degrees about a coordinate axis.

    Quarter turns permute the periodic momentum lattice exactly, so the only
    operation besides reindexing is the spinor rotation (identical block
    structure in both pictures; period eight quarter turns, with a sign after
    four). The rotation is block diagonal, so an FW particle pair turns by its
    upper 2x2 block. A field stored as one upper component raises ValueError:
    the rotation mixes in the spin component it does not store.
    """
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are momentum-space-only")
    if field.values.shape[-1] == 1:
        raise ValueError("a field stored as one upper component has no spin to turn; "
                         "rotate the four-component field, then project it")
    k = int(quarter_turns) % 8
    if k == 0:
        return field
    s = field.values.shape[-1]
    rot = spinor_rotation(np.eye(3)[axis], k * np.pi / 2.0)[:s, :s]
    return replace(field, values=_quarter_turns(field.values, axis, k) @ rot.T)


def rotate_scalar_lattice(values: np.ndarray, axis: int, quarter_turns: int) -> np.ndarray:
    """Quarter-turn rotation of a scalar lattice sample (momentum or coordinate):
    out(y) = in(R^-1 y)."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    k = int(quarter_turns) % 4
    if k == 0:
        return values.copy()
    return _quarter_turns(values, axis, k)


# ---------------------------------------------------------------------------
# slice-consistency checks


def _slice_departures(grid: Grid, rho_boosted: np.ndarray, predicted: np.ndarray) -> tuple[float, float]:
    """(L2 residual of the prediction relative to the boosted density, D) with
    D = max(sum (rho' - pred)_+, sum (rho' - pred)_-) dx^3: the largest
    |P'(R) - P_pred(R)| over lattice regions R, reached on the nodes where the
    difference has one sign."""
    diff = predicted - rho_boosted
    num = float(np.sqrt(np.sum(diff**2)))
    den = float(np.sqrt(np.sum(rho_boosted**2)))
    excess = float(np.sum(diff, where=diff > 0.0))
    deficit = -float(np.sum(diff, where=diff < 0.0))
    return num / den, max(excess, deficit) * grid.dx**3


def _particle_amplitude(field: MomentumField, axis: int) -> np.ndarray:
    """sqrt(m/E) a_+, a_+ = branch_projection(field) the +E part that evolves as
    exp(-iEt) a_+. In the Dirac picture, (phi + H phi / E) / 2 with the boost
    axis first, shape (n, n, n, 4). In the FW picture, the s upper components
    that branch_projection stores (s = 1 for spin +1/2 along z, else 2; stored,
    or projected from four components) as one contiguous component-first array
    with the boost axis next, shape (s, n, n, n): _fw_flux_planes reads its
    components as contiguous slabs. branch_projection raises ValueError when
    |a_-| > 1e-12 |a_+|: a mislabelled field fails, it is never truncated."""
    plus = branch_projection(field).values
    scale = np.moveaxis(np.sqrt(field.mass / field.grid.energies(field.mass)), axis, 0)
    if field.rep == "dirac":
        plus = np.moveaxis(plus, axis, 0)
        plus *= scale[..., None]
        return plus
    amp = np.empty((plus.shape[-1], *scale.shape), dtype=complex)
    for c in range(plus.shape[-1]):
        np.multiply(np.moveaxis(plus[..., c], axis, 0), scale, out=amp[c])
    return amp


def _fw_flux_planes(field: MomentumField, amp: np.ndarray, rapidity: float, axis: int) -> np.ndarray:
    """Boost-axis FW current on every tilted plane, boost axis first, from the
    stored upper components amp = sqrt(m/E) a_+ of _particle_amplitude, shape
    (s, n, n, n). The current is nonlocal: each plane needs the density rate
    2 Re psi^dag psi_dot, psi_dot = -iE psi, on the whole lattice at
    t = -sinh(chi) x', formed one stored component c at a time by _rate_planes
    on the pair (psi_c, psi_dot_c) in one (2, n, n, n) buffer: one _rate_planes
    per plane when s = 1, with no scratch rate. Its spectrum times
    i p_ax / p^2 is the current's, summed along the axis at cosh(chi) x' and
    inverted over the transverse axes."""
    grid, n = field.grid, field.grid.n
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    e = np.moveaxis(grid.energies(field.mass), axis, 0)
    flux = _flux(grid, 0) * (2.0 / grid.dx**6)  # boost axis first; 2 Re, psi has no 1/dx^3
    weights = _lattice_powers(np.exp(1j * grid.dx * ch * grid.p1d), n, 0) / n
    step, rate_factor = np.exp(1j * sh * grid.dx * e), -1j * e
    phase = np.ones_like(step)  # exp(-iEt)
    buf = np.empty((2, n, n, n), dtype=complex)
    rate = np.empty((n, n, n))
    scratch = np.empty((n, n, n)) if len(amp) > 1 else None
    out = np.empty((n, n, n))
    for i in range(n):
        if i == n // 2:
            np.conjugate(phase, out=phase)  # x' = k dx jumps from k = n/2 - 1 to k = -n/2
        for c, component in enumerate(amp):
            np.multiply(component, phase, out=buf[0])
            np.multiply(buf[0], rate_factor, out=buf[1])
            _rate_planes(buf, out=rate if c == 0 else scratch)
            if c:
                rate += scratch
        spectrum = sfft.rfftn(rate, workers=_workers()) * flux
        out[i] = sfft.irfftn(np.einsum("p,pab->ab", weights[i], spectrum), s=(n, n), workers=_workers())
        phase *= step
    return out


def slice_prediction(field: MomentumField, rapidity: float, axis: int = 0) -> np.ndarray:
    """Density predicted on the boosted equal-time slice from rest-frame data.

    The plane x'_ax is the rest state at t = -sinh(chi) x'_ax read at
    x_ax = cosh(chi) x'_ax, predicting rho' = cosh(chi) rho + sinh(chi) j_ax.
    A particle field is its +E part a_+ alone (ValueError if the -E part
    exceeds 1e-12 of it; an FW field may be given as that part, its stored
    upper components), so the state on all planes is

        sum_{p_ax} exp(i x' (cosh(chi) p_ax + sinh(chi) E_p)) a_+(p):

    one axis DFT per transverse momentum, then one inverse FFT over the
    transverse axes. The current is the pointwise alpha current in the Dirac
    picture and the nonlocal continuity-solving current in the FW picture
    (one 3D density rate per plane). Returns shape (n, n, n).
    """
    if field.branch != "particle":
        raise ValueError("slice predictions are implemented for particle fields")
    grid = field.grid
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    e = np.moveaxis(grid.energies(field.mass), axis, 0)
    amp = _particle_amplitude(field, axis)
    psi = _axis_dft(amp if field.rep == "dirac" else np.moveaxis(amp, 0, -1), lambda y: _lattice_powers(
        np.exp(1j * grid.dx * (ch * grid.p1d[:, None] + sh * e[:, y])).T, grid.n, 1))
    psi = sfft.ifftn(psi, axes=(1, 2), workers=_workers(), overwrite_x=True)
    psi /= grid.n * grid.dx**3
    rho = pair(psi, psi)
    if field.rep == "dirac":  # psi^dag alpha^ax psi = 2 Re u^dag sigma^ax l
        j_ax = 2.0 * pair(psi[..., :2], sigma_dot(AXES[axis], psi[..., 2:]))
    else:
        del psi  # lower peak memory
        j_ax = _fw_flux_planes(field, amp, rapidity, axis)
    return np.moveaxis(ch * rho + sh * j_ax, 0, axis)


# ---------------------------------------------------------------------------
# the boost sweep


@dataclass(frozen=True)
class BoostExperimentReport:
    """Boosted-frame audit of one packet at one rapidity: the slice residual
    and the region departure D of each picture (see _slice_departures)."""

    rapidity: float
    dirac_residual: float
    fw_violation: float
    dirac_tv: float
    fw_tv: float
    grid_n: int
    grid_pmax: float
    mass: float

    def as_dict(self) -> dict:
        return {
            "rapidity": self.rapidity,
            "dirac_residual": self.dirac_residual,
            "fw_violation": self.fw_violation,
            "dirac_tv": self.dirac_tv,
            "fw_tv": self.fw_tv,
            "grid": {"n": self.grid_n, "pmax": self.grid_pmax, "mass": self.mass},
        }


def covariance_sweep(
    field: MomentumField, rapidities, axis: int = 1
) -> tuple[list[BoostExperimentReport], np.ndarray, np.ndarray]:
    """Slice-consistency residuals and region departures of one packet, one
    report per rapidity.

    Each picture's boosted density is compared with its flux-corrected
    tilted-slice prediction, the rest-frame accounting of the same slice: by
    the L2 residual and by D = sup_R |P'(R) - P_pred(R)|, the probability
    departure of the worst lattice region. A covariant density/current pair
    makes both vanish to lattice precision; the FW pair (fw_violation, fw_tv:
    the FW density with its continuity-solving current) does not. At rapidity
    0 the boost and the slice are identities: boosted density and prediction
    are the rest density of each picture, so all four are exactly 0. Returns
    (reports, rho_rest, rho_fw), with the rest densities of both pictures.
    """
    grid = field.grid
    rho_rest = coordinate_density(field)
    rho_fw = coordinate_density(branch_projection(to_fw_picture(field)))
    reports = []
    for chi in rapidities:
        if chi == 0.0:
            rho_boosted = pred = rho_rest
            rho_bf = pred_fw = rho_fw
        else:
            boosted = boost_dirac_field(field, chi, axis)
            rho_boosted = coordinate_density(boosted)
            rho_bf = coordinate_density(to_fw_picture(boosted))
            del boosted  # lower peak memory
            pred = slice_prediction(field, chi, axis)
            pred_fw = slice_prediction(branch_projection(to_fw_picture(field)), chi, axis)
        dirac_residual, dirac_tv = _slice_departures(grid, rho_boosted, pred)
        fw_violation, fw_tv = _slice_departures(grid, rho_bf, pred_fw)
        reports.append(BoostExperimentReport(
            rapidity=float(chi),
            dirac_residual=dirac_residual,
            fw_violation=fw_violation,
            dirac_tv=dirac_tv,
            fw_tv=fw_tv,
            grid_n=grid.n,
            grid_pmax=grid.pmax,
            mass=field.mass,
        ))
    return reports, rho_rest, rho_fw
