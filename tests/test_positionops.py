"""Position operators: eigenstates, Hermiticity, equivalence, tails, locality."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from rdlab.clifford import ALPHA
from rdlab.fields import (
    CoordinateField,
    MomentumField,
    _fft3,
    _ifft3,
    antiparticle_gaussian_packet,
    coordinate_centroid,
    gaussian_packet,
    momentum_inner,
    to_coordinate,
    to_fw_picture,
)
from rdlab.grids import Grid
from rdlab import positionops as po

EIGEN_GRID = Grid(64, 6.0)
M = 1.0


def test_window_flat_top_structure():
    g = Grid(32, 6.0)
    w = po.flat_top_window(g)
    idx = np.abs(g.p1d) <= po.WINDOW_PLATEAU * g.pmax
    plateau = w[np.ix_(idx, idx, idx)]
    assert np.all(plateau == 1.0)
    outside = np.abs(g.p1d) >= po.WINDOW_EDGE * g.pmax
    assert np.all(w[outside, :, :] == 0.0)
    assert np.all((w >= 0.0) & (w <= 1.0))


def test_localized_state_density_and_phase():
    g = Grid(16, 4.0)
    e = g.energies(M)
    for rep in ("dirac", "fw"):
        for branch in ("particle", "antiparticle"):
            f = po.localized_state(g, M, (0.0, 0.0, 0.0), 0.5, branch, rep)
            dens = np.einsum("xyza,xyza->xyz", f.values.conj(), f.values).real
            np.testing.assert_allclose(dens, e / M, rtol=1e-12)
    base = po.localized_state(g, M, (0.0, 0.0, 0.0), 0.5, "particle", "dirac")
    shifted = po.localized_state(g, M, (0.7, -0.2, 0.1), 0.5, "particle", "dirac")
    phase = np.exp(-1j * (g.p @ np.array([0.7, -0.2, 0.1])))
    np.testing.assert_allclose(shifted.values, phase[..., None] * base.values, atol=1e-13)
    anti = po.localized_state(g, M, (0.7, -0.2, 0.1), 0.5, "antiparticle", "dirac")
    anti0 = po.localized_state(g, M, (0.0, 0.0, 0.0), 0.5, "antiparticle", "dirac")
    np.testing.assert_allclose(anti.values, phase.conj()[..., None] * anti0.values, atol=1e-13)


@pytest.mark.parametrize("rep,branch", [
    ("dirac", "particle"), ("dirac", "antiparticle"),
    ("fw", "particle"), ("fw", "antiparticle"),
])
def test_localized_eigenstates_interior(rep, branch):
    # windowed position eigenstates: X f = x0 f on the interior probe region
    for x0, lam in [((0.0, 0.0, 0.0), 0.5), ((1.0, -1.0, 1.0), -0.5)]:
        res = po.localized_eigen_residuals(EIGEN_GRID, M, x0, lam, branch, rep)
        assert res.max() <= 1e-6


def test_naive_coordinate_is_not_the_branch_position():
    # +-i d/dp alone leaves a localized branch state: O(1) residual for Dirac
    g = EIGEN_GRID
    f = po.windowed_localized_state(g, M, (0.0, 0.0, 0.0), 0.5, "particle", "dirac")
    mask = po.probe_mask(g)
    ref = np.linalg.norm(f.values[mask])
    worst = max(
        np.linalg.norm(xf.values[mask]) / ref for xf in po.apply_dirac_coordinate(f)
    )
    assert worst > 1e-2


def test_operator_preconditions():
    g = Grid(16, 4.0)
    part = po.localized_state(g, M, branch="particle", rep="dirac")
    anti = po.localized_state(g, M, branch="antiparticle", rep="dirac")
    fw = po.localized_state(g, M, branch="particle", rep="fw")
    with pytest.raises(ValueError):
        po.apply_xp(anti)
    with pytest.raises(ValueError):
        po.apply_xp(fw)
    with pytest.raises(ValueError):
        po.apply_xap(part)
    with pytest.raises(ValueError):
        po.apply_xfw(part)
    mixed = gaussian_packet(Grid(32, 8.0), M, (0.2, 0.0, 0.0), (0.0, 0.0, 0.0),
                            sigma=2.0, weights=(0.8, 0.6))
    with pytest.raises(ValueError):
        po.apply_xp(mixed)
    with pytest.raises(ValueError):
        po.mean_position_equivalence(mixed)


def _axis_derivative(field, k):
    shape = [1, 1, 1, 1]
    shape[k] = field.grid.n
    return _fft3(field.grid.x1d.reshape(shape) * _ifft3(field.values))


def _oracle_dirac_coordinate(field):
    sign = -1.0 if field.branch == "antiparticle" else 1.0
    return [sign * _axis_derivative(field, k) for k in range(3)]


def _oracle_xp(field):
    g, m, vals = field.grid, field.mass, field.values
    e = g.energies(m)
    s2 = 1.0 / (2.0 * m * (e + m))
    out = []
    for k in range(3):
        pk = g.p[..., k]
        w = (pk / e)[..., None] * vals - vals @ ALPHA[k].T
        aw = sum(g.p[..., j, None] * (w @ ALPHA[j].T) for j in range(3))
        a_term = s2[..., None] * ((e + m)[..., None] * w + aw) - (pk / (2.0 * e * (e + m)))[..., None] * vals
        out.append(_axis_derivative(field, k) + 1j * a_term)
    return out


def _oracle_xap(field):
    g, m, vals = field.grid, field.mass, field.values
    e = g.energies(m)
    s2 = 1.0 / (2.0 * m * (e + m))
    w = (e + m)[..., None] * vals - sum(g.p[..., j, None] * (vals @ ALPHA[j].T) for j in range(3))
    out = []
    for k in range(3):
        pk = g.p[..., k]
        b_term = s2[..., None] * ((pk / e)[..., None] * w + w @ ALPHA[k].T) - (
            pk / (2.0 * e * (e + m))
        )[..., None] * vals
        out.append(-_axis_derivative(field, k) + 1j * b_term)
    return out


def _oracle_xfw(field):
    sign = -1.0 if field.branch == "antiparticle" else 1.0
    e2 = field.grid.energies(field.mass) ** 2
    return [
        sign * (_axis_derivative(field, k) - 1j * (field.grid.p[..., k] / (2.0 * e2))[..., None] * field.values)
        for k in range(3)
    ]


@pytest.mark.parametrize(
    "op, oracle, rep, branch",
    [
        (po.apply_dirac_coordinate, _oracle_dirac_coordinate, "dirac", "particle"),
        (po.apply_dirac_coordinate, _oracle_dirac_coordinate, "dirac", "antiparticle"),
        (po.apply_xp, _oracle_xp, "dirac", "particle"),
        (po.apply_xap, _oracle_xap, "dirac", "antiparticle"),
        (po.apply_xfw, _oracle_xfw, "fw", "particle"),
        (po.apply_xfw, _oracle_xfw, "fw", "antiparticle"),
    ],
)
def test_operators_match_per_axis_derivative_oracle(op, oracle, rep, branch):
    # generic amplitudes on every node and component exercise the whole 4x4 algebra
    g = Grid(16, 4.0)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(16, 16, 16, 4)) + 1j * rng.normal(size=(16, 16, 16, 4))
    f = MomentumField(g, vals, 1.3, rep, branch)
    for got, want in zip(op(f), oracle(f), strict=True):
        assert np.abs(got.values - want).max() <= 1e-13 * np.abs(want).max()
    np.testing.assert_array_equal(f.values, vals)  # the operand is left unchanged


def _applied_expectation(field, op):
    nn = momentum_inner(field, field).real
    return np.array([momentum_inner(field, xf).real / nn for xf in op(field)])


@pytest.mark.parametrize(
    "op, role, rep, branch",
    [
        (po.apply_dirac_coordinate, "coordinate", "dirac", "particle"),
        (po.apply_dirac_coordinate, "coordinate", "dirac", "mixed"),
        (po.apply_dirac_coordinate, "coordinate", "dirac", "antiparticle"),
        (po.apply_xp, "branch", "dirac", "particle"),
        (po.apply_xap, "branch", "dirac", "antiparticle"),
        (po.apply_xfw, "branch", "fw", "particle"),
        (po.apply_xfw, "branch", "fw", "antiparticle"),
    ],
)
def test_position_expectation_matches_applied_operator(op, role, rep, branch):
    # Re <f, X f> / <f, f> from the operator fields, on generic amplitudes
    g = Grid(16, 4.0)
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(16, 16, 16, 4)) + 1j * rng.normal(size=(16, 16, 16, 4))
    f = MomentumField(g, vals, 1.3, rep, branch)
    want = _applied_expectation(f, op)
    got = po.position_expectation(f, role)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    np.testing.assert_array_equal(f.values, vals)


@pytest.mark.parametrize("branch", ["particle", "antiparticle"])
def test_position_expectation_spin_orbit_term(branch):
    # the boost-frame term alone: X_P (or X_AP) minus the coordinate operator
    g = Grid(16, 4.0)
    rng = np.random.default_rng(12)
    vals = rng.normal(size=(16, 16, 16, 4)) + 1j * rng.normal(size=(16, 16, 16, 4))
    f = MomentumField(g, vals, 1.3, "dirac", branch)
    op = po.apply_xp if branch == "particle" else po.apply_xap
    want = _applied_expectation(f, op) - _applied_expectation(f, po.apply_dirac_coordinate)
    got = po.position_expectation(f, "branch") - po.position_expectation(f, "coordinate")
    assert np.abs(want).max() > 1e-4
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize(
    "role, rep, branch",
    [
        ("coordinate", "fw", "particle"),
        ("coordinate", "fw", "antiparticle"),
        ("coordinate", "fw", "mixed"),
        ("branch", "dirac", "mixed"),
        ("branch", "fw", "mixed"),
        ("position", "dirac", "particle"),
        (po.apply_xp, "dirac", "particle"),
    ],
)
def test_position_expectation_undefined_pairs_raise(role, rep, branch):
    f = MomentumField(Grid(8, 4.0), np.ones((8, 8, 8, 4)), M, rep, branch)
    with pytest.raises(ValueError):
        po.position_expectation(f, role)


def _packet_pair(grid, sigma):
    f = gaussian_packet(grid, M, (0.4, 0.0, -0.3), (0.5, -1.0, 0.0), sigma=sigma, spin=0.5)
    g2 = gaussian_packet(grid, M, (-0.2, 0.5, 0.1), (0.0, 0.8, -0.5), sigma=sigma, spin=-0.5)
    return f, g2


def _adjoint_defect(op, f, g):
    return max(
        abs(momentum_inner(g, xf) - momentum_inner(xg, f))
        for xf, xg in zip(op(f), op(g))
    )


def test_position_operators_hermitian():
    g = Grid(48, 6.0)
    f, g2 = _packet_pair(g, 2.2)
    assert _adjoint_defect(po.apply_xp, f, g2) <= 1e-10
    assert _adjoint_defect(po.apply_xfw, to_fw_picture(f), to_fw_picture(g2)) <= 1e-10
    fa = antiparticle_gaussian_packet(g, M, (0.4, 0.0, -0.3), (0.5, -1.0, 0.0),
                                      sigma=2.2, spin=0.5)
    ga = antiparticle_gaussian_packet(g, M, (-0.2, 0.5, 0.1), (0.0, 0.8, -0.5),
                                      sigma=2.2, spin=-0.5)
    assert _adjoint_defect(po.apply_xap, fa, ga) <= 1e-10


def test_mean_position_equivalence_on_packets():
    f = gaussian_packet(Grid(64, 6.0), M, (0.4, 0.0, -0.3), (0.5, -1.0, 0.0),
                        sigma=2.2, spin=0.5)
    assert po.mean_position_equivalence(f).max() <= 1e-6
    anti = antiparticle_gaussian_packet(Grid(32, 6.0), M, (0.2, 0.0, 0.0),
                                        (0.0, 0.0, 0.0), sigma=2.0)
    with pytest.raises(ValueError):
        po.mean_position_equivalence(anti)


def test_coordinate_expectation_matches_centroid():
    g = Grid(48, 6.0)
    # spin along p0: no transverse spin-orbit displacement of the centroid
    f = gaussian_packet(g, M, (0.0, 0.0, 0.3), (0.5, -0.4, 0.8), sigma=2.0)
    cen = coordinate_centroid(to_coordinate(f))
    xexp = po.position_expectation(f, "coordinate")
    np.testing.assert_allclose(xexp, cen, atol=1e-8)
    np.testing.assert_allclose(xexp, [0.5, -0.4, 0.8], atol=1e-6)


def test_polarized_packet_centroid_shows_spin_orbit_shift():
    # transverse momentum displaces the coordinate centroid of a polarized
    # packet relative to its envelope center along s x p
    g = Grid(48, 6.0)
    f = gaussian_packet(g, M, (0.3, 0.0, 0.0), (0.0, 0.0, 0.0), sigma=2.0, spin=0.5)
    xexp = po.position_expectation(f, "coordinate")
    assert abs(xexp[1]) > 1e-2   # shift along z-hat x p0
    assert abs(xexp[0]) < 1e-6 and abs(xexp[2]) < 1e-6


def test_velocity_commutator_heisenberg():
    # i[H_FW, X_FW] = beta p / E on a windowed-constant envelope
    assert po.velocity_commutator_check() <= 1e-8


def test_tail_two_sided_consistency():
    f = gaussian_packet(Grid(64, 4.0), M, (0.3, 0.0, -0.2), (0.5, 0.0, 0.0),
                        sigma=2.0, rep="fw")
    assert po.tail_consistency_residual(f) <= 1e-8


def test_yukawa_tail_matches_radial_quadrature():
    # analytic Gaussian input; oracle = 1D radial quadrature of the defining
    # convolution; compared on the interior where box images are negligible
    g = Grid(16, 2.5)
    s = 2.0
    spinor = np.array([0.6, -0.3 + 0.4j, 0.2j, 0.5])
    psi = np.exp(-np.einsum("xyzk,xyzk->xyz", g.x, g.x) / (2.0 * s * s))
    cf = CoordinateField(g, psi[..., None] * spinor, M, "fw", "particle", 0.0)
    tails = po.yukawa_tail(cf)

    amp = (2.0 * np.pi) ** 1.5 * s**3

    def radial_factor(r):
        def integrand(p):
            return (p * amp * np.exp(-0.5 * s * s * p * p) / (p * p + M * M)
                    * (p * np.cos(p * r) / r - np.sin(p * r) / r**2))
        val, _ = quad(integrand, 0.0, 9.0, limit=200, epsabs=1e-13, epsrel=1e-11)
        return val / (2.0 * r) / (2.0 * np.pi**2)

    r = np.sqrt(np.einsum("xyzk,xyzk->xyz", g.x, g.x))
    mask = (r > 1e-12) & (r <= 6.0)
    keys = np.round(r[mask], 12)
    factor = {rv: radial_factor(rv) for rv in np.unique(keys)}
    facs = np.array([factor[rv] for rv in keys])
    for k in range(3):
        oracle = (g.x[..., k][mask] * facs)[:, None] * spinor
        got = tails[k].values[mask]
        assert np.linalg.norm(oracle - got) <= 1e-3 * np.linalg.norm(got)


def test_yukawa_tail_wide_packet_scaling():
    # the nonlocal correction shrinks quadratically with packet width
    g = Grid(64, 4.0)
    ratios = []
    for sigma in (2.0, 4.0, 8.0):
        f = gaussian_packet(g, M, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), sigma=sigma, rep="fw")
        cf = to_coordinate(f)
        tails = po.yukawa_tail(cf)
        tn = np.sqrt(sum(np.linalg.norm(t.values) ** 2 for t in tails))
        xn = np.sqrt(sum(np.linalg.norm(g.x[..., k, None] * cf.values) ** 2 for k in range(3)))
        ratios.append(tn / xn)
        assert tn / xn < 1.0 / (M * sigma) ** 2
    assert ratios[1] < 0.4 * ratios[0]
    assert ratios[2] < 0.4 * ratios[1]


def test_locality_matches_gaussian_profile():
    # spinor density times measure collapses to a pure Gaussian integral:
    # ratio = exp(-|a|^2 / (4 eps)), peak = (4 pi eps)^(-3/2)
    eps = 0.1
    peak = po.locality_integral("dirac", "particle", 0.5, (0.0, 0.0, 0.0), eps)
    np.testing.assert_allclose(peak.real, (4.0 * np.pi * eps) ** -1.5, rtol=1e-10)
    assert abs(peak.imag) <= 1e-12 * abs(peak.real)
    last = 1.0 + 1e-9
    for a1 in (0.5, 1.0, 2.0):
        ratio = abs(po.locality_integral("dirac", "particle", 0.5, (a1, 0.0, 0.0), eps)) / abs(peak)
        np.testing.assert_allclose(ratio, np.exp(-a1 * a1 / (4.0 * eps)), rtol=1e-9)
        assert 0.0 <= ratio <= last
        last = ratio


def test_locality_monotone_in_regulator():
    ratios = [
        abs(po.locality_integral("dirac", "particle", 0.5, (1.0, 0.0, 0.0), eps))
        / abs(po.locality_integral("dirac", "particle", 0.5, (0.0, 0.0, 0.0), eps))
        for eps in (0.03, 0.1)
    ]
    assert ratios[0] < ratios[1]
    np.testing.assert_allclose(ratios[0], np.exp(-1.0 / 0.12), rtol=1e-9)


def test_locality_far_displacement_vanishes():
    for eps in (0.1, 0.03, 0.01):
        value = po.locality_integral("dirac", "particle", 0.5, (5.0, 0.0, 0.0), eps)
        peak = po.locality_integral("dirac", "particle", 0.5, (0.0, 0.0, 0.0), eps)
        assert abs(value) / abs(peak) < 1e-3
        assert abs(peak) > 0.0


def test_locality_rep_and_branch_independent():
    # psi^dag psi = E/m for every branch and picture: identical integrals
    vals = [
        po.locality_integral(rep, branch, 0.5, (1.0, 0.0, 0.0), 0.1)
        for rep in ("dirac", "fw")
        for branch in ("particle", "antiparticle")
    ]
    scale = (4.0 * np.pi * 0.1) ** -1.5
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-12 * scale


def test_locality_errors():
    with pytest.raises(ValueError, match="regulator"):
        po.locality_integral("dirac", "particle", 0.5, (1.0, 0.0, 0.0), 0.0)
    with pytest.raises(ValueError, match="regulator"):
        po.locality_integral("dirac", "particle", 0.5, (1.0, 0.0, 0.0), 1e-6)
    with pytest.raises(ValueError):
        po.locality_integral("weyl", "particle", 0.5, (1.0, 0.0, 0.0), 0.1)
