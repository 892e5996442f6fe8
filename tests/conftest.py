"""Shared test helpers: traced peak memory, and the reference observables, Lorentz
transforms, packets and the locality quadrature that no library code needs."""
from __future__ import annotations

import tracemalloc

import numpy as np
import scipy.fft as sfft

from rdlab.clifford import ETA, alpha_dot, pair
from rdlab.fields import CoordinateField, MomentumField, _fft3, _measure, gaussian_packet
from rdlab.grids import Grid
from rdlab.lorentz import energy
from rdlab.spinors import rest_spinor


def peak_bytes(fn) -> int:
    """Peak bytes traced by tracemalloc while fn() runs, counted from its entry
    (the result is alive at the end, so it is included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def density(field: CoordinateField) -> np.ndarray:
    """Probability density psi^dag psi (real, shape (n, n, n)): the reference for
    fields.coordinate_density."""
    return pair(field.values, field.values)


def total_probability(field: CoordinateField) -> float:
    if not isinstance(field, CoordinateField):
        raise TypeError("total_probability integrates a coordinate-lattice field")
    return float(np.sum(density(field)) * field.grid.dx**3)


def centred_rate(field: MomentumField, t: float) -> np.ndarray:
    """(rho(t) - rho(-t)) / 2t with every step in long double: the reference for
    fields.density_rate(field, t). The evolved fields cos(Et) phi -+ i sin(Et) / E H phi, their
    transforms and the difference carry about 19 digits, so the cancellation of the two
    densities, eps ||rho|| / t, stays far below the float64 rounding of the rate."""
    ld = np.longdouble
    grid, m = field.grid, ld(field.mass)
    p1d = grid.p1d.astype(ld)
    px, py, pz = p1d[:, None, None], p1d[None, :, None], p1d[None, None, :]
    e = np.sqrt(px * px + py * py + pz * pz + m * m)
    phi = field.values.astype(np.clongdouble)
    if field.rep == "dirac":
        def sigma_p(s):
            return np.stack([pz * s[..., 0] + (px - 1j * py) * s[..., 1],
                             (px + 1j * py) * s[..., 0] - pz * s[..., 1]], axis=-1)
        u, low = phi[..., :2], phi[..., 2:]
        h = np.concatenate([sigma_p(low) + m * u, sigma_p(u) - m * low], axis=-1)
    else:
        h = phi * np.stack([e, e, -e, -e], axis=-1)
    scale = (np.sqrt(m / e) / ld(grid.dx) ** 3)[..., None]
    rho = []
    for s in (ld(t), -ld(t)):
        psi = np.cos(e * s)[..., None] * phi - 1j * (np.sin(e * s) / e)[..., None] * h
        psi = sfft.ifftn(psi * scale, axes=(0, 1, 2))
        rho.append(np.sum(psi.real**2 + psi.imag**2, axis=-1))
    return (rho[0] - rho[1]) / (2 * ld(t))


def to_momentum(field: CoordinateField) -> MomentumField:
    """Inverse of to_coordinate."""
    half = np.sqrt(field.grid.energies(field.mass) / field.mass)
    phi = half[..., None] * _fft3(field.values) * field.grid.dx**3
    return MomentumField(field.grid, phi, field.mass, field.rep, field.branch)


def lattice_p(grid: Grid) -> np.ndarray:
    """The stacked momentum lattice, shape (n, n, n, 3): the oracles' form of p."""
    return np.stack(np.meshgrid(grid.p1d, grid.p1d, grid.p1d, indexing="ij"), axis=-1)


def lattice_x(grid: Grid) -> np.ndarray:
    """The stacked coordinate lattice, shape (n, n, n, 3): the oracles' form of x."""
    return np.stack(np.meshgrid(grid.x1d, grid.x1d, grid.x1d, indexing="ij"), axis=-1)


def momentum_pair(p) -> tuple[np.ndarray, np.ndarray]:
    """The block kernel's (q, p_z) of a stacked momentum p (..., 3), q = p_x - i p_y."""
    p = np.asarray(p, dtype=float)
    return np.add(p[..., 0], p[..., 1] * -1j), p[..., 2]


def momentum_expectation(field: MomentumField) -> np.ndarray:
    """<p> under the invariant-measure density (3-vector)."""
    dens = _measure(field) * pair(field.values, field.values)
    total = np.sum(dens)
    return np.einsum("xyz,xyzk->k", dens, lattice_p(field.grid)) / total


def coordinate_centroid(field: CoordinateField) -> np.ndarray:
    """<x> under psi^dag psi (3-vector)."""
    rho = density(field)
    return np.einsum("xyz,xyzk->k", rho, lattice_x(field.grid)) / np.sum(rho)


def lorentz_defect(lam: np.ndarray) -> float:
    """Max-abs entry of Lambda^T eta Lambda - eta (0 for a Lorentz matrix)."""
    return float(np.max(np.abs(lam.T @ ETA @ lam - ETA)))


def standard_boost(p, m: float) -> np.ndarray:
    """Boost L_p taking the rest-frame momentum (m, 0) to (E_p, p)."""
    p = np.asarray(p, dtype=float)
    e = energy(p, m)
    lam = np.eye(4)
    lam[0, 0] = e / m
    lam[0, 1:] = lam[1:, 0] = p / m
    pp = float(p @ p)
    if pp > 0.0:
        lam[1:, 1:] = np.eye(3) + (e / m - 1.0) * np.outer(p, p) / pp
    return lam


def lorentz_inverse(lam: np.ndarray) -> np.ndarray:
    """Inverse via the metric: Lambda^{-1} = eta Lambda^T eta."""
    return ETA @ lam.T @ ETA


def wigner_rotation(lam: np.ndarray, p, m: float) -> np.ndarray:
    """Wigner rotation W = L_{Lambda p}^{-1} Lambda L_p; fixes the time axis. The 4-vector
    reference for spinors.wigner_spinor_matrix."""
    p = np.asarray(p, dtype=float)
    p4 = np.concatenate(([energy(p, m)], p))
    q4 = lam @ p4
    return lorentz_inverse(standard_boost(q4[1:], m)) @ lam @ standard_boost(p, m)


def axis_angle(r3: np.ndarray) -> tuple[np.ndarray, float]:
    """Axis and angle of a 3x3 rotation matrix (angle in [0, pi])."""
    w = np.array([r3[2, 1] - r3[1, 2], r3[0, 2] - r3[2, 0], r3[1, 0] - r3[0, 1]])
    if np.linalg.norm(w) > 1e-8:
        n = w / np.linalg.norm(w)
    else:
        # angle near 0 or pi: axis from the symmetric part (R+1)/2 = n n^T + O(pi-angle)
        s = (r3 + np.eye(3)) / 2.0
        k = int(np.argmax(np.diag(s)))
        if s[k, k] < 1e-8:
            return np.array([0.0, 0.0, 1.0]), 0.0
        n = s[:, k] / np.linalg.norm(s[:, k])
    # angle from a probe vector orthogonal to the axis (accurate at all angles)
    u = np.eye(3)[int(np.argmin(np.abs(n)))]
    u = u - (u @ n) * n
    u /= np.linalg.norm(u)
    ru = r3 @ u
    angle = float(np.arctan2(n @ np.cross(u, ru), u @ ru))
    if angle < 0.0:
        n, angle = -n, -angle
    return n, angle


def fw_spinor(p, m: float, branch: str = "particle", lam: float = 0.5) -> np.ndarray:
    """FW-picture branch spinor: sqrt(E/m) times the rest basis vector.

    Equals U(p) dirac_spinor(p, particle) on the particle branch and
    U(p)^dag dirac_spinor(p, antiparticle) on the antiparticle branch.
    """
    return np.sqrt(energy(p, m) / m) * rest_spinor(branch, lam)


def covariance_packet(grid: Grid, mass: float = 1.0) -> MomentumField:
    """Transversely polarized moving packet of the boost tests: momentum 0.5 m along x,
    spin +1/2 along z, width 2.5 / m; boosts run along y (both the mean momentum and the
    polarization are transverse to the boost)."""
    return gaussian_packet(grid, mass, p0=(0.5 * mass, 0.0, 0.0), sigma=2.5 / mass, spin=0.5)


def locality_lattice(eps: float, a_len: float) -> tuple[int, float]:
    """Lattice (n, dp) for the regulated integral: covers the e^{-eps p^2}
    support and keeps periodic images of the displacement negligible. Raises
    ValueError past 256 nodes per axis."""
    pmax = np.sqrt(37.0 / eps)
    x_images = a_len + np.sqrt(164.0 * eps) + 1.0
    dp = min(2.0 * np.pi / x_images, 1.0)
    n = int(np.ceil(2.0 * pmax / dp / 16.0)) * 16
    if n > 256:
        raise ValueError(f"regulator eps={eps} too small for the quadrature lattice")
    return n, 2.0 * pmax / n


def locality_integral(
    rep: str, branch: str, lam: float, a, eps: float, mass: float = 1.0
) -> complex:
    """Regulated overlap of a localized state with its displaced copy:
    integral of weight * psi^dag(p) e^{-+i p.a} psi(p) e^{-eps p^2} d^3p,
    with the branch-appropriate phase sign. Computed as an explicit spinor
    lattice sum on a dedicated quadrature grid."""
    if eps <= 0.0:
        raise ValueError("regulator eps must be positive (the bare integral is distributional)")
    if rep not in ("dirac", "fw"):
        raise ValueError(f"rep must be 'dirac' or 'fw', got {rep!r}")
    a = np.asarray(a, dtype=float)
    n, dp = locality_lattice(eps, float(np.linalg.norm(a)))
    p1 = dp * (np.arange(n) - n // 2)
    sign = -1.0 if branch == "particle" else 1.0
    r = rest_spinor(branch, lam)
    total = 0.0 + 0.0j
    py, pz = np.meshgrid(p1, p1, indexing="ij")
    for px in p1:  # slab over the first axis keeps memory modest
        p2 = px * px + py * py + pz * pz
        e = np.sqrt(mass * mass + p2)
        if rep == "dirac":
            # psi = [(E+m) r + alpha.p r] / sqrt(2m(E+m)); psi^dag psi computed honestly
            psi = (e + mass)[..., None] * r + alpha_dot((np.add(px, py * -1j), pz), r)
            dens = pair(psi, psi) / (2.0 * mass * (e + mass))
        else:
            u = np.sqrt(e / mass)[..., None] * r
            dens = pair(u, u)
        weight = mass / ((2.0 * np.pi) ** 3 * e)
        phase = np.exp(sign * 1j * (px * a[0] + py * a[1] + pz * a[2]) - eps * p2)
        total += np.sum(weight * dens * phase)
    return complex(total * dp**3)
