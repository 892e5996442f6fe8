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
still needs a 3D density rate (one batched inverse FFT of psi, psi_dot) per plane.

covariance_sweep runs the whole boost sweep of one packet and returns one
BoostExperimentReport per rapidity; BoostExperimentReport.as_dict is the
serialized record.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft

from .clifford import pair, sigma_dot
from .fields import (
    MomentumField,
    _workers,
    branch_projection,
    concentration_box,
    density,
    gaussian_packet,
    to_coordinate,
    to_fw_picture,
)
from .grids import Grid
from .spinors import spinor_boost, spinor_rotation

# Amplitude fraction defining the momentum support for the boost pre-check.
# Sits above the trig-interpolation noise floor of an already-boosted field
# (~1e-6 of peak) so chained boosts see the genuine support, not the noise.
SUPPORT_CUT = 3e-6

# +90 degree rotations about the coordinate axes (exact integer node maps)
_QUARTER = {
    0: np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]]),
    1: np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]]),
    2: np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
}
_AXES = (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))


def _check_boostable(field: MomentumField, axis: int) -> None:
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    if field.branch != "particle":
        raise ValueError("boosts are implemented for single-branch particle fields")


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
    q_ax = grid.p[..., axis]
    e_q = grid.energies(field.mass)
    reach = float(np.abs(np.cosh(rapidity) * q_ax + np.sinh(rapidity) * e_q)[support].max())
    if reach > grid.pmax - grid.dp:
        raise ValueError(
            f"boosted momentum support reaches |p| ~ {reach:.2f}, beyond the "
            f"lattice band pmax = {grid.pmax:g}; rebuild with pmax >~ {reach + 3 * grid.dp:.1f}"
        )


def _boosted_samples(field: MomentumField, rapidity: float, axis: int):
    """The rest field read at the source momenta of an active boost along an
    axis, with those momenta p (n, n, n, 3), E_q and E_p.

    The boosted amplitude at node q is read off the rest field at
    p = (targets, q_transverse): targets = cosh(chi) q_ax - sinh(chi) E_q.
    Nodes whose source momentum falls outside the principal band are zeroed
    (the rest field carries no amplitude there). Raises when the boosted
    support would leave the lattice band.
    """
    check_boost_reach(field, rapidity, axis)
    grid, m = field.grid, field.mass
    e_q = grid.energies(m)
    p = grid.p.copy()
    p[..., axis] = np.cosh(rapidity) * grid.p[..., axis] - np.sinh(rapidity) * e_q
    vals = _resample_along_axis(field.values, grid, p[..., axis], axis)
    vals[(p[..., axis] < -grid.pmax) | (p[..., axis] >= grid.pmax)] = 0.0
    return vals, p, e_q, np.sqrt(m * m + np.sum(p * p, axis=-1))


def boost_dirac_field(field: MomentumField, rapidity: float, axis: int = 0) -> MomentumField:
    """Active boost of a particle-branch Dirac-picture field.

    phi'(q) = sqrt(E_p / E_q) S(boost) phi(p) with p the inverse-boosted
    momentum of q (see _boosted_samples).
    """
    if field.rep != "dirac":
        raise ValueError("boost_dirac_field expects a Dirac-picture field")
    _check_boostable(field, axis)
    if rapidity == 0.0:
        return field
    vals, _, e_q, e_p = _boosted_samples(field, rapidity, axis)
    vals = vals @ spinor_boost(rapidity * _AXES[axis]).T
    vals *= np.sqrt(e_p / e_q)[..., None]
    return replace(field, values=vals)


def boost_fw_field(field: MomentumField, rapidity: float, axis: int = 0) -> MomentumField:
    """Active boost of a particle-branch FW-picture field: the momentum remap
    with the node-wise Wigner rotation acting on the upper component pair.
    It agrees to roundoff with the Dirac-picture boost conjugated by the FW
    transform, to_fw_picture(boost_dirac_field(to_dirac_picture(field))).
    """
    if field.rep != "fw":
        raise ValueError("boost_fw_field expects an FW-picture field")
    _check_boostable(field, axis)
    if rapidity == 0.0:
        return field
    grid, m = field.grid, field.mass
    vals, p, e_q, e_p = _boosted_samples(field, rapidity, axis)

    # The Wigner rotation of the upper pair, [c a_q a_p + s a_p sigma.q sigma_ax +
    # s a_q sigma_ax sigma.p + c sigma.q sigma.p] / norm with q the node, p the source
    # momentum, a = E + m and (c, s) = (cosh, sinh)(chi/2), is the SU(2) element
    # (w + i sigma.v) / norm, by sigma.a sigma.b = a.b + i sigma.(a x b).
    c, s = np.cosh(rapidity / 2.0), np.sinh(rapidity / 2.0)
    q, a_q, a_p = grid.p, e_q + m, e_p + m
    w = c * (a_q * a_p + np.sum(q * p, axis=-1)) + s * (a_p * q[..., axis] + a_q * p[..., axis])
    v = s * np.cross(a_p[..., None] * q - a_q[..., None] * p, _AXES[axis]) + c * np.cross(q, p)
    out = np.zeros_like(vals)
    upper = sigma_dot(v, vals[..., :2], out=out[..., :2])
    upper *= 1j
    upper += w[..., None] * vals[..., :2]
    upper *= (np.sqrt(e_p / e_q) / np.sqrt(4.0 * e_q * a_q * e_p * a_p))[..., None]
    return replace(field, values=out)


def _rotation_source_indices(n: int, axis: int, k: int):
    """Fancy-index tuple realizing a quarter-turn permutation of the lattice."""
    rot = np.linalg.matrix_power(_QUARTER[axis], k % 4)
    freqs = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    fx, fy, fz = np.meshgrid(freqs, freqs, freqs, indexing="ij")
    q_int = np.stack([fx, fy, fz], axis=-1)
    src = np.einsum("ab,xyzb->xyza", rot.T, q_int)
    return tuple((src[..., i] % n).astype(np.intp) for i in range(3))


def rotate_field(field: MomentumField, axis: int, quarter_turns: int) -> MomentumField:
    """Active rotation by quarter_turns * 90 degrees about a coordinate axis.

    Quarter turns permute the periodic momentum lattice exactly, so the only
    operation besides reindexing is the spinor rotation (identical block
    structure in both pictures; period eight quarter turns, with a sign after
    four).
    """
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are momentum-space-only")
    k = int(quarter_turns) % 8
    if k == 0:
        return field
    idx = _rotation_source_indices(field.grid.n, axis, k)
    vals = field.values[idx] @ spinor_rotation(_AXES[axis], k * np.pi / 2.0).T
    return replace(field, values=vals)


def rotate_scalar_lattice(grid: Grid, values: np.ndarray, axis: int, quarter_turns: int) -> np.ndarray:
    """Quarter-turn rotation of a scalar lattice sample (momentum or coordinate):
    out(y) = in(R^-1 y)."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    k = int(quarter_turns) % 4
    if k == 0:
        return values.copy()
    return values[_rotation_source_indices(grid.n, axis, k)]


# ---------------------------------------------------------------------------
# slice-consistency checks


def _slice_residual(rho_boosted: np.ndarray, predicted: np.ndarray) -> float:
    num = float(np.sqrt(np.sum((predicted - rho_boosted) ** 2)))
    den = float(np.sqrt(np.sum(rho_boosted**2)))
    return num / den


def _particle_amplitude(field: MomentumField, axis: int) -> np.ndarray:
    """sqrt(m/E) a_+ with the boost axis first, a_+ = (phi + H phi / E) / 2 the
    +E part that evolves as exp(-iEt) a_+: shape (n, n, n, 4), or in the FW
    picture the upper component pair, (n, n, n, 2). Raises ValueError when
    |a_-| > 1e-12 |a_+|: a mislabelled field fails, it is never truncated."""
    plus = branch_projection(field, "particle").values
    minus = field.values - plus
    if np.sum(pair(minus, minus)) > 1e-24 * np.sum(pair(plus, plus)):
        raise ValueError("the -E branch of a particle-labelled field is populated")
    del minus  # lower peak memory
    plus = plus[..., :2] if field.rep == "fw" else plus  # the FW lower pair is a_-
    return np.moveaxis(plus * np.sqrt(field.mass / field.grid.energies(field.mass))[..., None], axis, 0)


def _fw_flux_planes(field: MomentumField, plus: np.ndarray, rapidity: float, axis: int) -> np.ndarray:
    """Boost-axis FW current on every tilted plane, boost axis first, from the
    populated branch plus = sqrt(m/E) a_+ of _particle_amplitude. The current is
    nonlocal: each plane needs the density rate 2 Re psi^dag psi_dot, psi_dot =
    -iE psi, on the whole lattice at t = -sinh(chi) x', from one batched inverse
    FFT of (psi, psi_dot). Its spectrum times i p_ax / p^2 is the current's,
    summed along the axis at cosh(chi) x' and inverted over the transverse axes."""
    grid, n = field.grid, field.grid.n
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    e = np.moveaxis(grid.energies(field.mass), axis, 0)
    p2 = np.sum(grid.p[..., : n // 2 + 1, :] ** 2, axis=-1)
    flux = 2j * grid.p1d[:, None, None] / (np.where(p2 > 0.0, p2, np.inf) * grid.dx**6)
    flux[n // 2] = 0.0  # the Nyquist term of a real current vanishes
    weights = np.exp(1j * np.outer(grid.x1d, grid.p1d * ch)) / n
    amp, step, rate_factor = np.moveaxis(plus, -1, 0).copy(), np.exp(1j * sh * grid.dx * e), -1j * e
    phase = np.ones_like(step)  # exp(-iEt)
    buf = np.empty((4, n, n, n), dtype=complex)
    out = np.empty((n, n, n))
    for i in range(n):
        if i == n // 2:
            np.conjugate(phase, out=phase)  # x' = k dx jumps from k = n/2 - 1 to k = -n/2
        np.multiply(amp, phase, out=buf[:2])
        np.multiply(buf[:2], rate_factor, out=buf[2:])
        v = sfft.ifftn(buf, axes=(1, 2, 3), workers=_workers(), overwrite_x=True).view(float)
        v = v.reshape(2, 2, n, n, n, 2)  # (psi, psi_dot), components, nodes, (re, im)
        spectrum = sfft.rfftn(np.einsum("cxyzk,cxyzk->xyz", v[0], v[1]), workers=_workers()) * flux
        out[i] = sfft.irfftn(np.einsum("p,pab->ab", weights[i], spectrum), s=(n, n), workers=_workers())
        phase *= step
    return out


def slice_prediction(field: MomentumField, rapidity: float, axis: int = 0) -> np.ndarray:
    """Density predicted on the boosted equal-time slice from rest-frame data.

    The plane x'_ax is the rest state at t = -sinh(chi) x'_ax read at
    x_ax = cosh(chi) x'_ax, predicting rho' = cosh(chi) rho + sinh(chi) j_ax.
    A particle field is its +E part a_+ alone (ValueError if the -E part
    exceeds 1e-12 of it), so the state on all planes is

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
    plus = _particle_amplitude(field, axis)
    psi = _axis_dft(plus, lambda y: _lattice_powers(
        np.exp(1j * grid.dx * (ch * grid.p1d[:, None] + sh * e[:, y])).T, grid.n, 1))
    psi = sfft.ifftn(psi, axes=(1, 2), workers=_workers(), overwrite_x=True)
    psi /= grid.n * grid.dx**3
    rho = pair(psi, psi)
    if field.rep == "dirac":  # psi^dag alpha^ax psi = 2 Re u^dag sigma^ax l
        j_ax = 2.0 * pair(psi[..., :2], sigma_dot(_AXES[axis], psi[..., 2:]))
    else:
        del psi  # lower peak memory
        j_ax = _fw_flux_planes(field, plus, rapidity, axis)
    return np.moveaxis(ch * rho + sh * j_ax, 0, axis)


# ---------------------------------------------------------------------------
# box probabilities


def box_probability(grid: Grid, rho: np.ndarray, center, halfwidths) -> float:
    """Probability mass of a density inside an axis-aligned box."""
    center = np.asarray(center, dtype=float)
    halfwidths = np.broadcast_to(np.asarray(halfwidths, dtype=float), (3,))
    mask = np.ones(rho.shape, dtype=bool)
    for k in range(3):
        mask &= np.abs(grid.x[..., k] - center[k]) <= halfwidths[k] + 1e-12
    return float(np.sum(rho[mask]) * grid.dx**3)


@dataclass(frozen=True)
class BoostExperimentReport:
    """Boosted-frame audit of one packet at one rapidity.

    fw_box_rest / fw_box_boosted carry the FW-density analog of the box
    comparison; they are diagnostic extras, not part of the serialized
    record.
    """

    rapidity: float
    dirac_residual: float
    fw_violation: float
    box_rest: float
    box_boosted: float
    grid_n: int
    grid_pmax: float
    mass: float
    fw_box_rest: float
    fw_box_boosted: float

    def as_dict(self) -> dict:
        return {
            "rapidity": self.rapidity,
            "dirac_residual": self.dirac_residual,
            "fw_violation": self.fw_violation,
            "box_rest": self.box_rest,
            "box_boosted": self.box_boosted,
            "grid": {"n": self.grid_n, "pmax": self.grid_pmax, "mass": self.mass},
        }


def covariance_packet(grid: Grid, mass: float = 1.0) -> MomentumField:
    """Transversely polarized moving packet used by the boost experiments:

    momentum 0.5 m along x, spin +1/2 along z, width 2.5 / m, boosts along y
    (both the mean momentum and the polarization are transverse to the boost).
    """
    return gaussian_packet(
        grid, mass, p0=(0.5 * mass, 0.0, 0.0), sigma=2.5 / mass, spin=0.5
    )


def contracted_cube(
    grid: Grid, rho_rest: np.ndarray, rapidity: float, axis: int, fraction: float = 0.99
):
    """(center, halfwidths) of the rest-density capture cube, contracted by
    1/cosh(chi) along the boost axis (its image on the boosted slice)."""
    center, half = concentration_box(grid, rho_rest, fraction)
    halfwidths = np.full(3, half)
    halfwidths[axis] /= np.cosh(rapidity)
    center = center.copy()
    center[axis] /= np.cosh(rapidity)
    return center, halfwidths


def covariance_sweep(
    field: MomentumField, rapidities, axis: int = 1, box_fraction: float = 0.99
) -> list[BoostExperimentReport]:
    """Slice-consistency residuals plus the box-probability comparison of one
    packet, one report per rapidity.

    The cube holding `box_fraction` of the rest Dirac density is contracted
    by 1/cosh(chi) along the boost axis. box_boosted integrates the boosted
    density over that cube; box_rest is the rest-frame accounting of the
    same region: the flux-corrected tilted-slice prediction. A covariant
    density/current pair makes the two agree to lattice precision; the FW
    pair (fw_violation, fw_box_*: the same comparison run on the FW density
    with its continuity-solving current) does not. At rapidity 0 the boost
    and the slice are identities: boosted density and prediction are the
    rest density of each picture, so both residuals are exactly 0.
    """
    grid = field.grid
    rho_rest = density(to_coordinate(field))
    reports = []
    for chi in rapidities:
        if chi == 0.0:
            rho_boosted = pred = rho_rest
            rho_bf = pred_fw = density(to_coordinate(to_fw_picture(field)))
        else:
            boosted = boost_dirac_field(field, chi, axis)
            rho_boosted = density(to_coordinate(boosted))
            rho_bf = density(to_coordinate(to_fw_picture(boosted)))
            del boosted  # lower peak memory
            pred = slice_prediction(field, chi, axis)
            pred_fw = slice_prediction(to_fw_picture(field), chi, axis)
        center, halfwidths = contracted_cube(grid, rho_rest, chi, axis, box_fraction)
        reports.append(BoostExperimentReport(
            rapidity=float(chi),
            dirac_residual=_slice_residual(rho_boosted, pred),
            fw_violation=_slice_residual(rho_bf, pred_fw),
            box_rest=box_probability(grid, pred, center, halfwidths),
            box_boosted=box_probability(grid, rho_boosted, center, halfwidths),
            grid_n=grid.n,
            grid_pmax=grid.pmax,
            mass=field.mass,
            fw_box_rest=box_probability(grid, pred_fw, center, halfwidths),
            fw_box_boosted=box_probability(grid, rho_bf, center, halfwidths),
        ))
    return reports
