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

An FW particle field may store its upper pair alone (the branch_projection of
an FW field): the continuity kernels read the components that are stored, and
functions that need all four raise ValueError on it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np
import scipy.fft as sfft

from .clifford import alpha_dot, pair, sigma_dot, sigma_pair, sigma_row
from .config import ConfigError
from .grids import Grid
from .spinors import pauli_spinor

REPS = ("dirac", "fw")
BRANCHES = ("particle", "antiparticle", "mixed")

# construction hygiene: required decay at the lattice boundary, as a fraction
# of the field's peak amplitude
MOMENTUM_EDGE_TOL = 1e-8
COORDINATE_EDGE_TOL = 5e-2


def _workers() -> int:
    """RDLAB_THREADS, which must be a positive integer, or, when it is unset, the
    number of cores this process may run on."""
    value = os.environ.get("RDLAB_THREADS")
    if value is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not (value.isdecimal() and int(value) > 0):
        raise ConfigError(f"RDLAB_THREADS = {value!r}: must be a positive integer")
    return int(value)


def _fft3(a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    return sfft.fftn(a, axes=(0, 1, 2), workers=_workers(), overwrite_x=overwrite_x)


def _ifft3(a: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    return sfft.ifftn(a, axes=(0, 1, 2), workers=_workers(), overwrite_x=overwrite_x)


@dataclass
class MomentumField:
    """Spinor amplitudes phi(p), shape (n, n, n, 4), invariant-measure convention; an FW
    particle field may hold its upper pair alone, shape (n, n, n, 2)."""

    grid: Grid
    values: np.ndarray
    mass: float
    rep: str = "dirac"
    branch: str = "particle"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.grid.n
        pair_ok = self.rep == "fw" and self.branch == "particle"
        if self.values.shape != (n, n, n, 4) and not (pair_ok and self.values.shape == (n, n, n, 2)):
            raise ValueError(f"values must have shape {(n, n, n, 4)}, or {(n, n, n, 2)} for an "
                             f"FW particle field, got {self.values.shape}")
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

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.grid.n
        if self.values.shape != (n, n, n, 4):
            raise ValueError(f"values must have shape {(n, n, n, 4)}, got {self.values.shape}")


def _four_components(field: MomentumField) -> None:
    """ValueError for an FW particle pair, where an operation needs both component pairs."""
    if field.values.shape[-1] != 4:
        raise ValueError("this operation needs all four spinor components, not the FW particle pair")


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


def _l2(a: np.ndarray) -> float:
    """sqrt(sum |a|^2) by numpy's pairwise sum, as in momentum_norm: the BLAS dot of
    np.linalg.norm splits its sum by thread, so its last bits follow the pool size."""
    return float(np.sqrt(np.sum(pair(a, a) if np.iscomplexobj(a) else a * a)))


def to_coordinate(field: MomentumField) -> CoordinateField:
    """Unitary transform to the coordinate lattice (rejects antiparticle labeling)."""
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are momentum-space-only")
    _four_components(field)
    scale = np.sqrt(field.mass / field.grid.energies(field.mass)) / field.grid.dx**3
    psi = _ifft3(scale[..., None] * field.values, overwrite_x=True)
    return CoordinateField(field.grid, psi, field.mass, field.rep, field.branch)


def _spectrum(field: MomentumField, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sqrt(m / E) / dx^3 values (n, n, n), the scale of to_coordinate, taken one
    lattice plane at a time."""
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are momentum-space-only")
    cell = field.grid.dx**3
    for i, e in enumerate(field.grid.energies(field.mass)):
        np.multiply(values[i], np.sqrt(field.mass / e) / cell, out=out[i])
    return out


def _evolved_spectrum(
    field: MomentumField, c: int, t: float, out: np.ndarray, odd: np.ndarray | None = None
) -> np.ndarray:
    """_spectrum of evolve(field, t).values[..., c] bit for bit, with no evolved field and no
    field-sized H phi: per lattice plane, (H phi)_c is formed in `out` (_h_row), turned in
    place into -i sin(Et) / E (H phi)_c, then into cos(Et) phi_c plus that, and scaled by
    sqrt(m / E) / dx^3. The mirrored planes i and n - i have the same energies, so each pair
    shares one cos(Et), sin(Et) / E and scale.

    With `odd`, psi(+-t) = a +- t o is written as its two parts, both scaled: the even part
    a = cos(Et) phi_c in `out`, and the odd part over t, o = -i sin(Et) / (Et) (H phi)_c, in
    `odd`, with sin(Et) / (Et) read as 1 at t = 0, where o is the rate -i (H phi)_c."""
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are momentum-space-only")
    grid, m = field.grid, field.mass
    energies = grid.energies(m)
    cell = grid.dx**3
    w = np.empty(energies.shape[1:], dtype=complex)  # cos(Et) phi_c of one plane
    for i in range(grid.n // 2 + 1):
        e = energies[i]
        et = e * t
        if odd is None:
            sin_e = np.sin(et) / e
        else:  # sin(Et) / (Et), with its limit 1 at t = 0
            sin_e = np.sin(et) / et if t else 1.0
        cos = np.cos(et, out=et)
        scale = np.sqrt(m / e) / cell
        for k in {i, -i % grid.n}:
            v, h = field.values[k], _h_row(field, k, c, (out if odd is None else odd)[k])
            h *= sin_e
            h *= -1j
            if odd is None:
                h += np.multiply(v[..., c], cos, out=w)
            else:
                np.multiply(v[..., c], cos * scale, out=out[k])
            h *= scale
    return out


def _component(field: MomentumField, c: int, out: np.ndarray, t: float = 0.0) -> np.ndarray:
    """to_coordinate(evolve(field, t)).values[..., c] bit for bit, computed in `out` by one
    inverse FFT in place; float view (n, n, n, 2). At t = 0 the field's own values are
    transformed, with no propagator."""
    spec = _evolved_spectrum(field, c, t, out) if t else _spectrum(field, field.values[..., c], out)
    psi = _ifft3(spec, overwrite_x=True)
    return psi.view(float).reshape(*psi.shape, 2)


def _add_square(rho: np.ndarray, v: np.ndarray) -> None:
    """rho += |psi_c|^2 for a component's float view v (n, n, n, 2), squared in place."""
    np.square(v, out=v)
    rho += np.add(v[..., 0], v[..., 1], out=v[..., 0])


def coordinate_density(field: MomentumField, t: float = 0.0) -> np.ndarray:
    """density(to_coordinate(evolve(field, t))), one stored component at a time in one reused
    buffer: no evolved field is formed."""
    buf = np.empty(field.values.shape[:3], dtype=complex)
    rho = np.zeros(buf.shape)
    for c in range(field.values.shape[-1]):
        _add_square(rho, _component(field, c, buf, t))
    return rho


def coordinate_current(field: MomentumField) -> np.ndarray:
    """current_density(to_coordinate(field)) from three component buffers, read as
    float views: j = 2 (Re(u0* l1 + u1* l0), Im(u0* l1 - u1* l0), Re(u0* l0 - u1* l1)).
    Every term passes through one (n, n, n) float scratch."""
    if field.rep != "dirac":
        raise ValueError("pointwise alpha-current is defined in the Dirac picture only")
    bufs = np.empty((3, *field.values.shape[:3]), dtype=complex)
    l0, l1 = _component(field, 2, bufs[0]), _component(field, 3, bufs[1])
    j = np.zeros((*bufs.shape[1:], 3))
    s = np.empty(bufs.shape[1:])
    for c, lx, lz, acc in ((0, l1, l0, np.add), (1, l0, l1, np.subtract)):
        u = _component(field, c, bufs[2])
        j[..., 0] += np.einsum("...k,...k->...", u, lx, out=s)
        acc(j[..., 2], np.einsum("...k,...k->...", u, lz, out=s), out=j[..., 2])
        # Im(u* lx) = Re u Im lx - Im u Re lx, the first product written over Re u, its last use
        np.multiply(u[..., 1], lx[..., 0], out=s)
        np.subtract(np.multiply(u[..., 0], lx[..., 1], out=u[..., 0]), s, out=s)
        acc(j[..., 1], s, out=j[..., 1])
    return np.multiply(j, 2.0, out=j)


def _h_row(field: MomentumField, k: int, c: int, out: np.ndarray) -> np.ndarray:
    """(H phi)_c on lattice plane k, written into `out` (n, n): (sigma.p l + m u,
    sigma.p u - m l)_c in the Dirac picture, (beta E phi)_c in FW."""
    v = field.values[k]
    if field.rep == "dirac":
        sigma_row((field.grid.q[k], field.grid.p1d), v[..., 2:] if c < 2 else v[..., :2], c % 2, out)
        return (np.add if c < 2 else np.subtract)(out, field.mass * v[..., c], out=out)
    np.multiply(v[..., c], field.grid.energies(field.mass)[k], out=out)
    if c >= 2:
        out *= -1.0
    return out


def hamiltonian_apply(field: MomentumField) -> np.ndarray:
    """H phi per node: (alpha.p + beta m) phi in the Dirac picture, beta E_p phi in FW, one
    lattice plane and component at a time (_h_row)."""
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are momentum-space-only")
    out = np.empty_like(field.values)
    for k, h in enumerate(out):
        for c in range(h.shape[-1]):
            _h_row(field, k, c, h[..., c])
    return out


def evolve(field: MomentumField, t: float) -> MomentumField:
    """Advance by duration t (exact per-node propagator; H^2 = E^2 in both pictures)."""
    _four_components(field)
    e = field.grid.energies(field.mass)
    vals = hamiltonian_apply(field)  # becomes cos(Et) phi - i sin(Et) / E H phi in place
    et = e * t
    vals *= (np.sin(et) / e)[..., None]
    vals *= -1j
    np.cos(et, out=et)
    for c in range(4):
        vals[..., c] += et * field.values[..., c]
    return replace(field, values=vals)


def _fw_rotate(field: MomentumField, direction: int) -> np.ndarray:
    """Apply U(p)^direction, U = (E + m + beta alpha.p) / sqrt(2 E (E + m)).

    Antiparticle-labeled fields use U(p)^dag in place of U(p) (their plane-wave
    content sits at the opposite node), handled by flipping `direction`.
    """
    if field.branch == "antiparticle":
        direction = -direction
    grid, out = field.grid, np.empty_like(field.values)
    # direction * beta alpha.p v = direction * (sigma.p l, -sigma.p u), then + (E + m) v,
    # one lattice plane at a time
    for k, (v, u, e) in enumerate(zip(field.values, out, grid.energies(field.mass))):
        alpha_dot((grid.q[k], grid.p1d), v, out=u)
        em = e + field.mass
        for half, sign in ((slice(0, 2), direction), (slice(2, 4), -direction)):
            u[..., half] *= sign
            for c in range(half.start, half.stop):
                u[..., c] += em * v[..., c]
        u /= np.sqrt(2.0 * e * em)[..., None]
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
    _four_components(field)
    return replace(field, values=_fw_rotate(field, -1), rep="dirac")


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


def _rate_planes(planes: np.ndarray, out: np.ndarray | None = None, workers: int | None = None) -> np.ndarray:
    """Re conj(F^-1 a) F^-1 b per node from the stacked spectrum pair planes = (a, b), shape
    (2, n, n, n): one batched inverse FFT in place on `workers` threads (RDLAB_THREADS when
    None), the float views' products written over F^-1 a, and their (re, im) sum, into `out`
    when given; a is a component and b its rate or its measure-weighted copy."""
    v = sfft.ifftn(planes, axes=(1, 2, 3), workers=workers or _workers(), overwrite_x=True)
    v = v.view(float).reshape(*planes.shape, 2)
    np.multiply(v[0], v[1], out=v[0])
    return np.add(v[0, ..., 0], v[0, ..., 1], out=out)


def _derivative(grid: Grid, axis: int) -> np.ndarray:
    """i p_axis on the rfftn half spectrum, broadcast along `axis`: d/dx_axis of a real field.
    0 on the Nyquist plane of `axis`, the real part of the anti-Hermitian i p f^ there."""
    ip = 1j * grid.p1d[: grid.n // 2 + 1 if axis == 2 else grid.n]
    ip[grid.n // 2] = 0.0
    return ip.reshape([-1 if k == axis else 1 for k in range(3)])


def _flux(grid: Grid, axis: int) -> np.ndarray:
    """i p_axis / p^2 on the rfftn half spectrum, taking a density rate's spectrum to that
    of the current solving continuity; 0 at p = 0 and on the Nyquist plane of `axis`."""
    p = np.ix_(grid.p1d, grid.p1d, grid.p1d[: grid.n // 2 + 1])
    p2 = p[0] ** 2 + p[1] ** 2 + p[2] ** 2
    p2[0, 0, 0] = np.inf
    return _derivative(grid, axis) / p2


def density_rate(field: MomentumField, t: float = 0.0) -> np.ndarray:
    """d(rho)/dt on the coordinate lattice, in either picture. At t = 0 the exact rate
    2 Re psi^dag psi_dot, psi_dot = -i H psi; at t > 0 the centred difference
    (rho(t) - rho(-t)) / 2t, formed as 2 Re a^dag o from the even part a and the odd part
    over t, o, of psi(+-t) = a +- t o (_evolved_spectrum): no two densities are subtracted,
    so its rounding does not grow as the step shrinks. One _rate_planes of (a_c, o_c) per
    stored component."""
    planes = np.empty((2, *field.values.shape[:3]), dtype=complex)
    rate = np.zeros(planes.shape[1:])
    for c in range(field.values.shape[-1]):
        _evolved_spectrum(field, c, t, planes[0], planes[1])
        rate += _rate_planes(planes)
    return np.multiply(rate, 2.0, out=rate)  # the spectra carry 1 / dx^3 each


def divergence(grid: Grid, vec: np.ndarray) -> np.ndarray:
    """Spectral divergence of a real lattice vector field, (n, n, n, 3) -> (n, n, n), on
    the rfftn half spectrum, one axis at a time."""
    div = np.zeros((grid.n, grid.n, grid.n // 2 + 1), dtype=complex)
    for k in range(3):
        div += _derivative(grid, k) * sfft.rfftn(vec[..., k], workers=_workers())
    return sfft.irfftn(div, s=vec.shape[:3], workers=_workers())


def fw_current_density(field: MomentumField) -> np.ndarray:
    """FW current as the longitudinal field solving continuity exactly:
    j = -grad (laplacian)^{-1} d(rho)/dt, with the zero mode set to zero."""
    if field.rep != "fw":
        raise ValueError("the continuity-solving current is for FW-picture fields")
    rate = sfft.rfftn(density_rate(field), workers=_workers())
    j = np.empty((*field.values.shape[:3], 3))
    for k in range(3):
        j[..., k] = sfft.irfftn(rate * _flux(field.grid, k), s=j.shape[:3], workers=_workers())
    return j


def _edge_fraction(planes, n: int) -> float:
    """Max |v| over the three boundary planes of each axis, over max |v|, from the lattice
    planes (i, v), v = values[i] of shape (n, n[, ...]), of one or more (n, n, n[, ...]) arrays:
    |v| of one plane at a time, and exactly the whole-array value (a max of maxes, which keeps
    a NaN). Boundary planes along axis 0 are whole planes, along axes 1 and 2 slices of each
    plane. Raises ValueError when the peak is zero or not finite."""
    edges = [n // 2 - 1, n // 2, (n // 2 + 1) % n]
    edge, peak = [], []
    for i, v in planes:
        mags = np.abs(v)
        top = mags.max()
        peak.append(top)
        edge.append(top if i in edges else np.maximum(mags[edges].max(), mags[:, edges].max()))
    peak = np.max(peak)
    if not (np.isfinite(peak) and peak > 0.0):
        raise ValueError(f"peak amplitude {peak:g} is zero or not finite")
    return float(np.max(edge) / peak)


def boundary_fraction(field: MomentumField | CoordinateField) -> float:
    """Max |values| over the three boundary planes of each axis, over peak |values|."""
    return _edge_fraction(enumerate(field.values), field.grid.n)


def _coordinate_leak(field: MomentumField) -> float:
    """boundary_fraction(to_coordinate(field)), exactly, one component at a time."""
    buf = np.empty(field.values.shape[:3], dtype=complex)
    return _edge_fraction(
        (plane for c in range(4) for plane in enumerate(_component(field, c, buf).view(complex))),
        field.grid.n,
    )


def _spin_vector(spin) -> np.ndarray:
    if np.isscalar(spin):
        return pauli_spinor(float(spin))
    chi = np.asarray(spin, dtype=complex)
    if chi.shape != (2,) or not np.linalg.norm(chi) > 0:
        raise ValueError("spin must be +-0.5 or a nonzero 2-component vector")
    return chi / np.linalg.norm(chi)


def _packet(grid, mass, p0, x0, sigma, spin, branch, upper, lower) -> MomentumField:
    """Unit-norm packet: amp g(p) e^{-+i p.x0} times the per-node spinor
    (a (E+m) chi + b sigma.p chi, c (E+m) chi + d sigma.p chi) / sqrt(2m(E+m)),
    with (a, b) = upper, (c, d) = lower and the + sign for the antiparticle
    labeling. Raises if sigma, p0 or x0 is not finite, if the envelope's
    normalisation is zero or not finite (the Gaussian misses the lattice, or
    overflows on it), or if the packet fails the lattice boundary-decay
    preconditions.
    """
    p0 = np.asarray(p0, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if not (np.isfinite(sigma) and np.isfinite(p0).all() and np.isfinite(x0).all()):
        raise ValueError("packet sigma, p0 and x0 must be finite")
    chi = _spin_vector(spin)
    px, py, pz = grid.p_axes
    with np.errstate(all="ignore"):  # an envelope that over- or underflows fails just below
        e = grid.energies(mass)
        g = np.add((px - p0[0]) ** 2 + (py - p0[1]) ** 2, (pz - p0[2]) ** 2)
        g *= -0.5 * np.float64(sigma) ** 2
        g = np.exp(g, out=g)
        norm = np.sum(g * g) * np.float64(grid.dp) ** 3 / (2.0 * np.pi) ** 3
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError(f"packet normalisation {norm:g} is zero or not finite: "
                         "the Gaussian envelope misses the momentum lattice or overflows on it")
    amp = 1.0 / np.sqrt(norm)
    sign = 1.0 if branch == "antiparticle" else -1.0
    yz = (py * x0[1] + pz * x0[2])[0]  # p.x0 on plane k is p1d[k] x0_x + yz
    vals = np.empty((*e.shape, 4), dtype=complex)
    for k, v in enumerate(vals):  # one lattice plane at a time
        phase = np.exp(sign * 1j * (grid.p1d[k] * x0[0] + yz))
        envelope = amp * g[k] * phase / np.sqrt(2.0 * mass * (e[k] + mass))
        sp = sigma_dot((grid.q[k], grid.p1d), chi, out=v[..., 2:])  # held in the lower pair, built last
        sp *= envelope[..., None]
        envelope *= e[k] + mass
        for half, (a, b) in ((slice(0, 2), upper), (slice(2, 4), lower)):
            np.multiply(b, sp, out=v[..., half])
            for i in range(2):
                v[..., half.start + i] += envelope * (a * chi)[i]
    del g  # lower peak memory
    field = MomentumField(grid, vals, mass, "dirac", branch)
    edge = boundary_fraction(field)
    if edge > MOMENTUM_EDGE_TOL:
        raise ValueError(
            f"momentum boundary amplitude {edge:.2e} of peak exceeds {MOMENTUM_EDGE_TOL:.0e}; "
            "enlarge pmax or narrow the packet in momentum"
        )
    if branch != "antiparticle":  # antiparticle labels have no coordinate realization
        leak = _coordinate_leak(field)
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
    return _packet(grid, mass, p0, x0, sigma, spin, branch, (w[0], -w[1]), (w[1], w[0]))


def antiparticle_gaussian_packet(
    grid: Grid,
    mass: float,
    p0=(0.0, 0.0, 0.0),
    x0=(0.0, 0.0, 0.0),
    sigma: float = 4.0,
    spin=0.5,
) -> MomentumField:
    """Unit-norm antiparticle-labeled packet (momentum-space-only object).

    Uses the antiparticle phase convention e^{+i p.x0} and the per-node spinor
    (sigma.p chi, (E+m) chi) / sqrt(2E(E+m)), the +E eigenvector of
    alpha.p - beta m, matching the mirrored position operators.
    """
    return _packet(grid, mass, p0, x0, sigma, spin, "antiparticle", (0.0, 1.0), (1.0, 0.0))


# ---------------------------------------------------------------------------
# branch projections and continuity


def branch_projection(field: MomentumField) -> MomentumField:
    """Node-wise orthogonal projection onto the +E eigenspace of H(p), a particle field.

    The projector is (1 + H/E) / 2 (H^2 = E^2 per node). In the Dirac picture
    the result has four components, and the -E part is f - branch_projection(f).
    In the FW picture the +E part is the upper component pair, returned alone,
    shape (n, n, n, 2); the -E part is the lower pair. A particle-labelled field
    must be its own +E part: ValueError when |a_-|^2 > 1e-24 |a_+|^2, summed one
    lattice plane at a time, so a mislabelled field fails and is never truncated.
    """
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are already single-branch")
    if field.rep == "fw":
        vals = field.values[..., :2].copy()
    else:
        vals = hamiltonian_apply(field)
        vals *= (1.0 / field.grid.energies(field.mass))[..., None]
        vals += field.values
        vals *= 0.5
    if field.branch == "particle":
        minus_sq = plus_sq = 0.0
        for v, a in zip(field.values, vals):
            d = v[..., 2:] if field.rep == "fw" else v - a
            minus_sq += np.sum(pair(d, d))
            plus_sq += np.sum(pair(a, a))
        if minus_sq > 1e-24 * plus_sq:
            raise ValueError("the -E branch of a particle-labelled field is populated")
    return replace(field, values=vals, branch="particle")


def _axis_distances(grid: Grid, center: np.ndarray) -> tuple[np.ndarray, ...]:
    """|x1d - c_k| broadcast along axis k, k = 0, 1, 2: their maximum is the sup distance
    |x - c|_inf of each node, with no (n, n, n, 3) lattice."""
    d = np.abs(grid.x1d[:, None] - center)
    return d[:, None, None, 0], d[None, :, None, 1], d[None, None, :, 2]


def concentration_box(grid: Grid, rho: np.ndarray, fraction: float = 0.999):
    """Smallest centroid-centered cube holding `fraction` of the density.

    Returns (center, halfwidth). Sup-metric distances, so the region is the
    cube |x - c|_inf <= halfwidth.

    Face ties: a node-centred density has a centroid of 0 up to rounding, whose
    sign picks which of two faces at equal |x| lies inside. One from per-axis
    marginals (1e-15 away) moved the FW nonlocality of `rdlab continuity` (n =
    128, packet.p0 = 0.289353, -0.029246, 0.046677) from 0.611281 to 0.605302.
    """
    total = np.sum(rho)
    # the stacked (n, n, n, 3) lattice lives for this einsum only; its sum order is the one
    # that decides the face ties above
    lattice = np.stack(np.meshgrid(grid.x1d, grid.x1d, grid.x1d, indexing="ij", copy=False), axis=-1)
    center = np.einsum("xyz,xyzk->k", rho, lattice) / total
    del lattice
    # the cube of half-width h holds, on each axis, a prefix of that axis's nodes sorted by
    # distance: sort each axis once, and the prefix sums of rho gathered into that order
    # give the mass of every cube
    dists = np.abs(grid.x1d[:, None] - center).T
    orders = np.argsort(dists, axis=1, kind="stable")
    mass = rho[np.ix_(*orders)]
    for k in range(3):
        np.cumsum(mass, axis=k, out=mass)
    ranked = np.take_along_axis(dists, orders, axis=1)
    candidates = np.unique(ranked)
    counts = [np.searchsorted(r, candidates, side="right") for r in ranked]
    held = np.where(np.min(counts, axis=0) > 0, mass[tuple(c - 1 for c in counts)], 0.0)
    stop = min(int(np.searchsorted(held, fraction * total)), candidates.size - 1)
    return center, float(candidates[stop])


@dataclass(frozen=True)
class ContinuityReport:
    """Continuity defect || d(rho)/dt + div j || with a nonlocality proxy.

    The density rate is the centred difference over 2 dt (density_rate, whose
    rounding does not grow as dt shrinks); `dt_warning` is "too coarse" when
    the residual exceeds 1% of the rate scale. The nonlocality proxy is the
    fraction of the current magnitude living outside the smallest cube
    holding 99.9% of the density. `probability` is sum rho dx^3 at the
    field's own time.
    """

    residual_l2: float
    rate_scale: float
    nonlocality: float
    probability: float
    dt_warning: str | None


def continuity_residuals(field: MomentumField, dts) -> list[ContinuityReport]:
    """Continuity audits at the field's current time (either picture), one report per step.

    The step-free quantities are formed once: the current j (the Dirac alpha-current or the
    FW continuity-solving current), div j, rho, its concentration box, the nonlocality and
    its total. Each step then costs one density_rate(field, dt).
    Raises ValueError for an empty `dts` or a step that is not finite and positive.
    """
    dts = [float(dt) for dt in dts]
    if not dts:
        raise ValueError("need at least one time step")
    for dt in dts:
        if not (np.isfinite(dt) and dt > 0.0):
            raise ValueError(f"time steps must be finite and positive, got {dt}")
    grid = field.grid
    cell = grid.dx**3
    j = coordinate_current(field) if field.rep == "dirac" else fw_current_density(field)
    div = divergence(grid, j)
    jmag = np.sqrt(np.einsum("xyzk,xyzk->xyz", j, j))
    del j  # lower peak memory
    rho = coordinate_density(field)
    center, half = concentration_box(grid, rho, 0.999)
    outside = reduce(np.logical_or, [d > half for d in _axis_distances(grid, center)])
    nonlocality = float(np.sum(jmag[outside]) / np.sum(jmag))
    probability = float(np.sum(rho) * cell)
    del jmag, outside, rho

    reports = []
    for dt in dts:
        rate = density_rate(field, dt)
        rate_scale = float(np.sqrt(np.sum(rate**2) * cell))
        rate += div
        res_l2 = float(np.sqrt(np.sum(rate**2) * cell))
        del rate  # lower peak memory
        reports.append(ContinuityReport(
            residual_l2=res_l2,
            rate_scale=rate_scale,
            nonlocality=nonlocality,
            probability=probability,
            dt_warning="too coarse" if res_l2 > 0.01 * rate_scale else None,
        ))
    return reports
