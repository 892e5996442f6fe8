"""Position operators, localized states, locality integrals and the Yukawa tail.

Operators act on MomentumField values (invariant-measure amplitudes) and are
vector-valued: each returns a 3-tuple of fields, one per axis. The momentum
derivative i d/dp_k is computed spectrally (multiplication by the conjugate
coordinate between FFTs); the derivative of the standard-boost spinor matrix
is applied in closed form.

Operator dictionary (geometric position operators, one per branch/picture):
  - apply_dirac_coordinate: +-i d/dp_k, the naive coordinate operator.
  - apply_xp / apply_xap:   M(L_p) (+-i d/dp_k) M(L_p)^{-1}, particle /
                            antiparticle labeling in the Dirac picture.
  - apply_xfw:              i d/dp_k - i p_k / (2 E^2) in the FW picture
                            (mirrored signs for antiparticle labeling).

Expectations (position_expectation) build no operator fields: the spectral
part is one Parseval pairing, sum_p w f^dag F[x_k F^{-1} f] = N sum_x x_k
gamma^dag psi with psi = ifftn(f), gamma = ifftn(w f); by alpha^k alpha^j =
delta_kj + i eps_kjl Sigma^l the real part of the boost-frame term is the
spin-orbit shift -(p x S)_k / (2m(E+m)), and that of the FW term is zero.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.special import erfc

from .clifford import alpha_dot, pair
from .fields import CoordinateField, MomentumField, _fft3, _ifft3, _measure, momentum_norm
from .grids import Grid
from .spinors import rest_spinor

# flat-top momentum window (fractions of pmax): identically 1 inside the
# plateau, erfc roll-off ending before the lattice boundary; the steepness
# trades splice discontinuities (small s) against kernel wrap (large s)
WINDOW_PLATEAU = 0.40
WINDOW_EDGE = 0.975
WINDOW_STEEPNESS = 7.0
PROBE_FRACTION = 0.30


def spectral_momentum_derivative(field: MomentumField) -> list[np.ndarray]:
    """i d(values)/dp_k for k = 0, 1, 2 via the conjugate-coordinate multiplier:
    one inverse FFT shared by the three axes, then one forward FFT per axis."""
    psi = _ifft3(field.values)
    out = []
    for k in range(3):
        shape = [1, 1, 1, 1]
        shape[k] = field.grid.n
        x = field.grid.x1d.reshape(shape)
        # the last axis reuses psi's buffer; each forward FFT runs in place
        xpsi = np.multiply(x, psi, out=psi if k == 2 else None)
        out.append(_fft3(xpsi, overwrite_x=True))
    return out


def _axis_fields(field: MomentumField, per_axis_values) -> tuple[MomentumField, ...]:
    return tuple(replace(field, values=v) for v in per_axis_values)


def apply_dirac_coordinate(field: MomentumField) -> tuple[MomentumField, ...]:
    """Coordinate operator: +i d/dp per axis (-i for antiparticle labeling)."""
    if field.rep != "dirac":
        raise ValueError("the coordinate operator is defined on Dirac-picture fields")
    out = spectral_momentum_derivative(field)
    if field.branch == "antiparticle":
        for d in out:
            np.negative(d, out=d)
    return _axis_fields(field, out)


def _boost_frame_position(field: MomentumField, sign: float) -> tuple[MomentumField, ...]:
    """sign * (i d/dp_k + i A_k) with A_k = M(L_p) [d/dp_k M(L_p)^{-1}].

    With u = alpha.p phi and s^2 = 1/(2m(E+m)), the identity
    alpha.p alpha^k = 2 p_k - alpha^k alpha.p reduces the node-local term to
    A_k phi = s^2 [p_k (u/E - phi) + alpha^k (u - (E+m) phi)]. The antiparticle
    operator -i d/dp_k + i [d/dp_k M(L_p)] M(L_p)^{-1} is the same expression
    with sign = -1, since M [d M^{-1}] = -[d M] M^{-1}. The terms are added into
    the derivative arrays in place, which keeps the peak memory of an apply low.
    """
    g, m, vals = field.grid, field.mass, field.values
    e = g.energies(m)
    is2 = 1j / (2.0 * m * (e + m))
    out = spectral_momentum_derivative(field)
    u = alpha_dot(g.p, vals)
    r = u * (is2 / e)[..., None]
    r -= is2[..., None] * vals
    u -= (e + m)[..., None] * vals
    u *= is2[..., None]
    for k, d in enumerate(out):
        d += alpha_dot(np.eye(3)[k], u)
        d += g.p[..., k, None] * r
        if sign < 0:
            np.negative(d, out=d)
    return _axis_fields(field, out)


def apply_xp(field: MomentumField) -> tuple[MomentumField, ...]:
    """Particle position operator i d/dp_k + i M(L_p) [d/dp_k M(L_p)^{-1}]."""
    if field.rep != "dirac" or field.branch != "particle":
        raise ValueError("defined on particle-branch Dirac-picture fields")
    return _boost_frame_position(field, 1.0)


def apply_xap(field: MomentumField) -> tuple[MomentumField, ...]:
    """Antiparticle position operator -i d/dp_k + i [d/dp_k M(L_p)] M(L_p)^{-1}."""
    if field.rep != "dirac" or field.branch != "antiparticle":
        raise ValueError("defined on antiparticle-labeled Dirac-picture fields")
    return _boost_frame_position(field, -1.0)


def apply_xfw(field: MomentumField) -> tuple[MomentumField, ...]:
    """FW position operator i d/dp_k - i p_k/(2 E^2) (signs mirrored for
    antiparticle labeling); Hermitian under the invariant-measure product."""
    if field.rep != "fw":
        raise ValueError("defined on FW-picture fields")
    if field.branch == "mixed":
        raise ValueError("per-branch operator; project the field first")
    e2 = field.grid.energies(field.mass) ** 2
    out = spectral_momentum_derivative(field)
    for k, d in enumerate(out):
        d -= (1j * field.grid.p[..., k] / (2.0 * e2))[..., None] * field.values
        if field.branch == "antiparticle":
            np.negative(d, out=d)
    return _axis_fields(field, out)


def position_expectation(field: MomentumField, role: str) -> np.ndarray:
    """Re <f, X f> / <f, f> per axis, without applying X.

    `role` picks X: "coordinate" is apply_dirac_coordinate, "branch" the
    field's own branch operator OPERATORS[(rep, branch)]; each keeps the
    preconditions of its apply function. Two exact lattice identities:
      - spectral part (Parseval): with psi = ifftn(f) and gamma = ifftn(w f),
        sum_p w f^dag F[x_k F^{-1} f] = N sum_x x_k gamma^dag psi and
        <f, f> = N sum_x gamma^dag psi, so the one density
        d(x) = Re gamma^dag psi gives the norm and the three moments;
      - node-local part: alpha^k alpha^j = delta_kj + i eps_kjl Sigma^l gives
        Re f^dag (i A_k) f = -(p x S)_k / (2m(E+m)), S_l = f^dag Sigma^l f, for
        apply_xp/apply_xap; the FW term -i p_k/(2 E^2) has no real part.
    Antiparticle labelings flip the overall sign, as the operators do.
    """
    if role == "coordinate":
        if field.rep != "dirac":
            raise ValueError("the coordinate operator is defined on Dirac-picture fields")
    elif role == "branch":
        if (field.rep, field.branch) not in OPERATORS:
            raise ValueError("per-branch operator; project the field first")
    else:
        raise ValueError(f"role must be 'coordinate' or 'branch', got {role!r}")
    g, vals = field.grid, field.values
    w = _measure(field)
    psi = _ifft3(vals)
    gamma = _ifft3(w[..., None] * vals, overwrite_x=True)
    d = pair(gamma, psi)
    # sum_x x_k d(x), each from the axis-k marginal of d
    out = np.array([np.sum(g.x1d * d.sum(axis=axes)) for axes in ((1, 2), (0, 2), (0, 1))])
    if role == "branch" and field.rep == "dirac":
        # -(p x S)_k under the measure, scaled by 1/N like the moments
        z = vals[..., 0].conj() * vals[..., 1] + vals[..., 2].conj() * vals[..., 3]
        sq = np.abs(vals) ** 2
        s = (2.0 * z.real, 2.0 * z.imag, sq[..., 0] - sq[..., 1] + sq[..., 2] - sq[..., 3])
        q = w / (2.0 * field.mass * (g.energies(field.mass) + field.mass) * g.n**3)
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            out[k] -= np.sum(q * (g.p[..., i] * s[j] - g.p[..., j] * s[i]))
    sign = -1.0 if field.branch == "antiparticle" else 1.0
    return sign * out / np.sum(d)


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
    phase = np.exp(sign * 1j * (grid.p @ x0))
    r = rest_spinor(branch, spin)
    if rep == "dirac":
        spinor = (e + mass)[..., None] * r + alpha_dot(grid.p, r)
        spinor /= np.sqrt(2.0 * mass * (e + mass))[..., None]
    elif rep == "fw":
        spinor = np.sqrt(e / mass)[..., None] * r
    else:
        raise ValueError(f"rep must be 'dirac' or 'fw', got {rep!r}")
    return MomentumField(grid, phase[..., None] * spinor, mass, rep, branch)


def flat_top_window(
    grid: Grid, plateau: float = WINDOW_PLATEAU, edge: float = WINDOW_EDGE,
    steepness: float = WINDOW_STEEPNESS,
) -> np.ndarray:
    """Separable momentum window: 1 on the central plateau, smooth erfc roll-off
    to ~0 before the lattice boundary. Used to band-limit sampled localized
    states so spectral derivatives retain their accuracy."""
    t = (np.abs(grid.p1d) / grid.pmax - plateau) / (edge - plateau)
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


def probe_mask(grid: Grid, fraction: float = PROBE_FRACTION) -> np.ndarray:
    """Interior nodes |p_k| <= fraction * pmax on every axis (well inside the
    window plateau; realizes the boundary-shell exclusion for residual norms)."""
    inside = np.abs(grid.p1d) <= fraction * grid.pmax
    return inside[:, None, None] & inside[None, :, None] & inside[None, None, :]


OPERATORS = {
    ("dirac", "particle"): apply_xp,
    ("dirac", "antiparticle"): apply_xap,
    ("fw", "particle"): apply_xfw,
    ("fw", "antiparticle"): apply_xfw,
}


def localized_eigen_residuals(
    grid: Grid, mass: float, x0=(0.0, 0.0, 0.0), spin=0.5, branch: str = "particle",
    rep: str = "dirac",
) -> np.ndarray:
    """Per-axis relative residual of X(windowed localized state) = x0 * state,
    measured on the interior probe region."""
    f = windowed_localized_state(grid, mass, x0, spin, branch, rep)
    op = OPERATORS[(rep, branch)]
    mask = probe_mask(grid)
    ref = np.linalg.norm(f.values[mask])
    x0 = np.asarray(x0, dtype=float)
    out = []
    for k, xf in enumerate(op(f)):
        resid = xf.values - x0[k] * f.values
        out.append(np.linalg.norm(resid[mask]) / ref)
    return np.array(out)


def mean_position_equivalence(field: MomentumField) -> np.ndarray:
    """Per-axis residual of U_FW^dag X_FW U_FW = X_P on a particle packet:
    || U^dag X_FW U f - X_P f || / || f || under the invariant measure."""
    from .fields import to_dirac_picture, to_fw_picture

    if field.rep != "dirac" or field.branch != "particle":
        raise ValueError("equivalence is stated on particle-branch Dirac-picture fields")
    fw = to_fw_picture(field)
    nn = momentum_norm(field)
    out = []
    for xp_f, xfw_f in zip(apply_xp(field), apply_xfw(fw)):
        diff = to_dirac_picture(xfw_f).values - xp_f.values
        out.append(momentum_norm(replace(field, values=diff)) / nn)
    return np.array(out)


def velocity_commutator_check(grid: Grid | None = None, mass: float = 1.0) -> float:
    """Max per-axis plateau residual of i[H_FW, X_FW] f = beta (p/E) f with the
    commutator composed from the discrete operators, on a windowed-constant
    envelope. (With the e^{-iEt} evolution convention used throughout, the
    Heisenberg velocity is +i[H, X].)"""
    if grid is None:
        grid = Grid(96, 4.0 * mass)
    vals = np.zeros((grid.n, grid.n, grid.n, 4), dtype=complex)
    # steeper roll: on this large box the splice discontinuity of the window,
    # not its kernel width, limits the commutator residual
    vals += flat_top_window(grid, steepness=8.5)[..., None] * np.array([0.5, 0.5, 0.5, 0.5])
    f = MomentumField(grid, vals, mass, "fw", "particle")

    from .fields import hamiltonian_apply

    hf = replace(f, values=hamiltonian_apply(f))
    e = grid.energies(mass)
    mask = probe_mask(grid)
    ref = np.linalg.norm(f.values[mask])
    worst = 0.0
    for k, (xf, xhf) in enumerate(zip(apply_xfw(f), apply_xfw(hf))):
        comm = 1j * (hamiltonian_apply(xf) - xhf.values)
        expect = (grid.p[..., k] / e**2)[..., None] * hf.values  # beta f = H_FW f / E
        worst = max(worst, np.linalg.norm((comm - expect)[mask]) / ref)
    return float(worst)


# ---------------------------------------------------------------------------
# Newton-Wigner locality integrals


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
            p = np.stack([np.full_like(py, px), py, pz], axis=-1)
            psi = (e + mass)[..., None] * r + alpha_dot(p, r)
            dens = pair(psi, psi) / (2.0 * mass * (e + mass))
        else:
            u = np.sqrt(e / mass)[..., None] * r
            dens = pair(u, u)
        weight = mass / ((2.0 * np.pi) ** 3 * e)
        phase = np.exp(sign * 1j * (px * a[0] + py * a[1] + pz * a[2]) - eps * p2)
        total += np.sum(weight * dens * phase)
    return complex(total * dp**3)


# ---------------------------------------------------------------------------
# Yukawa tail and the FW position operator in coordinate space


def yukawa_tail(g: CoordinateField) -> tuple[CoordinateField, ...]:
    """Nonlocal tail of the FW position operator in coordinate space, per axis:
    convolution with the Yukawa-kernel gradient, evaluated spectrally with the
    multiplier i p_k / (2 (p^2 + m^2))."""
    ghat = _fft3(g.values)
    p = g.grid.p
    denom = 2.0 * (np.einsum("xyzk,xyzk->xyz", p, p) + g.mass**2)
    out = []
    for k in range(3):
        mult = (1j * p[..., k] / denom)[..., None]
        out.append(replace(g, values=_ifft3(mult * ghat)))
    return tuple(out)


def full_weight_realization(field: MomentumField) -> np.ndarray:
    """Full-measure-weight coordinate realization
    sum_p [dp^3/(2 pi)^3] (m/E_p) phi(p) e^{i p.x} — the plane-wave-spinor
    superposition under which the coordinate form of X_FW (multiplication
    plus Yukawa tail) holds identically."""
    if field.branch == "antiparticle":
        raise ValueError("antiparticle-labeled fields are momentum-space-only")
    w = field.mass / field.grid.energies(field.mass)
    return _ifft3(w[..., None] * field.values) / field.grid.dx**3


def tail_consistency_residual(field: MomentumField) -> float:
    """Two-sided check of the coordinate form of X_FW: realize apply_xfw via
    the full-weight transform and compare against x psi + yukawa_tail(psi).
    Returns the worst per-axis relative L2 difference."""
    if field.rep != "fw":
        raise ValueError("defined for FW-picture fields")
    psi = full_weight_realization(field)
    cf = CoordinateField(field.grid, psi, field.mass, "fw", field.branch, field.time)
    tails = yukawa_tail(cf)
    worst = 0.0
    for k, xf in enumerate(apply_xfw(field)):
        lhs = field.grid.x[..., k, None] * psi + tails[k].values
        rhs = full_weight_realization(xf)
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)))
    return worst
