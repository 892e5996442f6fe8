"""Position operators: eigenstates, Hermiticity, equivalence, tails, locality."""
from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import coordinate_centroid, lattice_p, lattice_x, locality_integral

from rdlab.clifford import ALPHA
from rdlab.fields import (
    MomentumField,
    _fft3,
    _ifft3,
    _measure,
    antiparticle_gaussian_packet,
    gaussian_packet,
    hamiltonian_apply,
    momentum_inner,
    momentum_norm,
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
    phase = np.exp(-1j * (lattice_p(g) @ np.array([0.7, -0.2, 0.1])))
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
    # X_P takes both Dirac labelings: the antiparticle one is the mirrored operator
    assert len(list(po.apply_xp(anti))) == 3
    with pytest.raises(ValueError):
        po.apply_xp(fw)
    with pytest.raises(ValueError):
        po.apply_xfw(part)
    mixed = gaussian_packet(Grid(32, 8.0), M, (0.2, 0.0, 0.0), (0.0, 0.0, 0.0),
                            sigma=2.0, weights=(0.8, 0.6))
    with pytest.raises(ValueError):
        po.apply_xp(mixed)
    with pytest.raises(ValueError):
        po.mean_position_equivalence(mixed)


@pytest.mark.parametrize(
    "op, rep, branch",
    [
        (po.apply_dirac_coordinate, "fw", "particle"),
        (po.apply_xp, "fw", "particle"),
        (po.apply_xp, "fw", "antiparticle"),
        (po.apply_xp, "dirac", "mixed"),
        (po.apply_xfw, "dirac", "particle"),
        (po.apply_xfw, "fw", "mixed"),
    ],
)
def test_operators_raise_at_call_time(op, rep, branch):
    # the axes are yielded lazily, but an undefined (picture, labeling) pair is
    # rejected by the call itself, before any axis is asked for
    f = MomentumField(Grid(8, 4.0), np.ones((8, 8, 8, 4)), M, rep, branch)
    with pytest.raises(ValueError):
        op(f)


@pytest.mark.parametrize("op, rep", [(po.apply_xp, "dirac"), (po.apply_xfw, "fw")])
def test_operator_holds_one_axis_at_a_time(op, rep):
    # consumed and dropped axis by axis, an application holds the shared inverse
    # transform, the axis field and one plane of node-term scratch, not three
    # axis fields and field-sized node-term scratch
    g = Grid(32, 4.0)
    f = gaussian_packet(g, M, (0.4, 0.0, -0.3), (0.5, -1.0, 0.0), sigma=2.2, spin=0.5)
    if rep == "fw":
        f = to_fw_picture(f)
    norms = []
    tracemalloc.start()
    try:
        for xf in op(f):
            norms.append(momentum_norm(xf))
            del xf
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(norms) == 3
    # 2.25 fields measured; 6.50 (X_P) and 4.44 (X_FW) when the three axes are built at once
    assert peak / f.values.nbytes < 3.0


def _axis_derivative(field, k):
    shape = [1, 1, 1, 1]
    shape[k] = field.grid.n
    return _fft3(field.grid.x1d.reshape(shape) * _ifft3(field.values))


def _oracle_dirac_coordinate(field):
    sign = -1.0 if field.branch == "antiparticle" else 1.0
    return [sign * _axis_derivative(field, k) for k in range(3)]


def _oracle_xp(field):
    g, m, vals = field.grid, field.mass, field.values
    p = lattice_p(g)
    e = g.energies(m)
    s2 = 1.0 / (2.0 * m * (e + m))
    out = []
    for k in range(3):
        pk = p[..., k]
        w = (pk / e)[..., None] * vals - vals @ ALPHA[k].T
        aw = sum(p[..., j, None] * (w @ ALPHA[j].T) for j in range(3))
        a_term = s2[..., None] * ((e + m)[..., None] * w + aw) - (pk / (2.0 * e * (e + m)))[..., None] * vals
        out.append(_axis_derivative(field, k) + 1j * a_term)
    return out


def _oracle_xap(field):
    g, m, vals = field.grid, field.mass, field.values
    p = lattice_p(g)
    e = g.energies(m)
    s2 = 1.0 / (2.0 * m * (e + m))
    w = (e + m)[..., None] * vals - sum(p[..., j, None] * (vals @ ALPHA[j].T) for j in range(3))
    out = []
    for k in range(3):
        pk = p[..., k]
        b_term = s2[..., None] * ((pk / e)[..., None] * w + w @ ALPHA[k].T) - (
            pk / (2.0 * e * (e + m))
        )[..., None] * vals
        out.append(-_axis_derivative(field, k) + 1j * b_term)
    return out


def _oracle_xfw(field):
    sign = -1.0 if field.branch == "antiparticle" else 1.0
    e2, p = field.grid.energies(field.mass) ** 2, lattice_p(field.grid)
    return [
        sign * (_axis_derivative(field, k) - 1j * (p[..., k] / (2.0 * e2))[..., None] * field.values)
        for k in range(3)
    ]


@pytest.mark.parametrize(
    "op, oracle, rep, branch",
    [
        (po.apply_dirac_coordinate, _oracle_dirac_coordinate, "dirac", "particle"),
        (po.apply_dirac_coordinate, _oracle_dirac_coordinate, "dirac", "antiparticle"),
        (po.apply_xp, _oracle_xp, "dirac", "particle"),
        (po.apply_xp, _oracle_xap, "dirac", "antiparticle"),
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


def role_expectation(field, role):
    """Re <f, X f> / <f, f> per axis, without applying X, through the
    trembling-motion tracks' position_expectation and spin-orbit shift.

    `role` picks X: "coordinate" is apply_dirac_coordinate, "branch" the
    field's own branch operator, apply_xp or apply_xfw; each keeps the
    preconditions of its apply function. The FW branch term -i p_k/(2 E^2)
    has no real part; antiparticle labelings flip the overall sign, as the
    operators do.
    """
    if role == "coordinate":
        if field.rep != "dirac":
            raise ValueError("the coordinate operator is defined on Dirac-picture fields")
    elif role == "branch":
        if field.branch == "mixed":
            raise ValueError("per-branch operator; project the field first")
    else:
        raise ValueError(f"role must be 'coordinate' or 'branch', got {role!r}")
    shift = po._spin_orbit_shift(field) if role == "branch" and field.rep == "dirac" else 0.0
    sign = -1.0 if field.branch == "antiparticle" else 1.0
    w = _measure(field).astype(complex)
    moments, norm = po.position_expectation(field.grid, w, po._Lane(field.grid.n, 1), 1.0, field.values)
    return sign * (moments - shift) / norm


@pytest.mark.parametrize(
    "op, role, rep, branch",
    [
        (po.apply_dirac_coordinate, "coordinate", "dirac", "particle"),
        (po.apply_dirac_coordinate, "coordinate", "dirac", "mixed"),
        (po.apply_dirac_coordinate, "coordinate", "dirac", "antiparticle"),
        (po.apply_xp, "branch", "dirac", "particle"),
        (po.apply_xp, "branch", "dirac", "antiparticle"),
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
    got = role_expectation(f, role)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    np.testing.assert_array_equal(f.values, vals)


@pytest.mark.parametrize("branch", ["particle", "antiparticle"])
def test_position_expectation_spin_orbit_term(branch):
    # the boost-frame term alone: X_P (on either labeling) minus the coordinate operator
    g = Grid(16, 4.0)
    rng = np.random.default_rng(12)
    vals = rng.normal(size=(16, 16, 16, 4)) + 1j * rng.normal(size=(16, 16, 16, 4))
    f = MomentumField(g, vals, 1.3, "dirac", branch)
    want = _applied_expectation(f, po.apply_xp) - _applied_expectation(f, po.apply_dirac_coordinate)
    got = role_expectation(f, "branch") - role_expectation(f, "coordinate")
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
        role_expectation(f, role)


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
    assert _adjoint_defect(po.apply_xp, fa, ga) <= 1e-10


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
    xexp = role_expectation(f, "coordinate")
    np.testing.assert_allclose(xexp, cen, atol=1e-8)
    np.testing.assert_allclose(xexp, [0.5, -0.4, 0.8], atol=1e-6)


def test_polarized_packet_centroid_shows_spin_orbit_shift():
    # transverse momentum displaces the coordinate centroid of a polarized
    # packet relative to its envelope center along s x p
    g = Grid(48, 6.0)
    f = gaussian_packet(g, M, (0.3, 0.0, 0.0), (0.0, 0.0, 0.0), sigma=2.0, spin=0.5)
    xexp = role_expectation(f, "coordinate")
    assert abs(xexp[1]) > 1e-2   # shift along z-hat x p0
    assert abs(xexp[0]) < 1e-6 and abs(xexp[2]) < 1e-6


def test_velocity_commutator_heisenberg():
    # i[H_FW, X_FW] f = beta (p/E) f, with the commutator composed from the discrete
    # operators, on a windowed-constant envelope; with the e^{-iEt} evolution convention
    # the Heisenberg velocity is +i[H, X]
    grid = Grid(96, 4.0 * M)
    # steeper roll: on this large box the splice discontinuity of the window,
    # not its kernel width, limits the commutator residual
    vals = po.flat_top_window(grid, steepness=8.5)[..., None] * np.full(4, 0.5, dtype=complex)
    f = MomentumField(grid, vals, M, "fw", "particle")
    hf = replace(f, values=hamiltonian_apply(f))
    e = grid.energies(M)
    mask = po.probe_mask(grid)
    ref = np.linalg.norm(f.values[mask])
    worst = 0.0
    for k, (xf, xhf) in enumerate(zip(po.apply_xfw(f), po.apply_xfw(hf))):
        comm = 1j * (hamiltonian_apply(xf) - xhf.values)
        expect = (lattice_p(grid)[..., k] / e**2)[..., None] * hf.values  # beta f = H_FW f / E
        worst = max(worst, np.linalg.norm((comm - expect)[mask]) / ref)
    assert worst <= 1e-8


def test_tail_two_sided_consistency():
    f = to_fw_picture(gaussian_packet(Grid(64, 4.0), M, (0.3, 0.0, -0.2), (0.5, 0.0, 0.0), sigma=2.0))
    assert po.tail_consistency_residual(f) <= 1e-8


def test_yukawa_tail_wide_packet_scaling():
    # the nonlocal correction shrinks quadratically with packet width
    g = Grid(64, 4.0)
    x = lattice_x(g)
    ratios = []
    for sigma in (2.0, 4.0, 8.0):
        f = to_fw_picture(gaussian_packet(g, M, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), sigma=sigma))
        cf = to_coordinate(f)
        tails = po.yukawa_tail(cf)
        tn = np.sqrt(sum(np.linalg.norm(t.values) ** 2 for t in tails))
        xn = np.sqrt(sum(np.linalg.norm(x[..., k, None] * cf.values) ** 2 for k in range(3)))
        ratios.append(tn / xn)
        assert tn / xn < 1.0 / (M * sigma) ** 2
    assert ratios[1] < 0.4 * ratios[0]
    assert ratios[2] < 0.4 * ratios[1]


def test_locality_matches_gaussian_profile():
    # spinor density times measure collapses to a pure Gaussian integral:
    # ratio = exp(-|a|^2 / (4 eps)), peak = (4 pi eps)^(-3/2)
    eps = 0.1
    peak = locality_integral("dirac", "particle", 0.5, (0.0, 0.0, 0.0), eps)
    np.testing.assert_allclose(peak.real, (4.0 * np.pi * eps) ** -1.5, rtol=1e-10)
    assert abs(peak.imag) <= 1e-12 * abs(peak.real)
    last = 1.0 + 1e-9
    for a1 in (0.5, 1.0, 2.0):
        ratio = abs(locality_integral("dirac", "particle", 0.5, (a1, 0.0, 0.0), eps)) / abs(peak)
        np.testing.assert_allclose(ratio, np.exp(-a1 * a1 / (4.0 * eps)), rtol=1e-9)
        assert 0.0 <= ratio <= last
        last = ratio


def test_locality_monotone_in_regulator():
    ratios = [
        abs(locality_integral("dirac", "particle", 0.5, (1.0, 0.0, 0.0), eps))
        / abs(locality_integral("dirac", "particle", 0.5, (0.0, 0.0, 0.0), eps))
        for eps in (0.03, 0.1)
    ]
    assert ratios[0] < ratios[1]
    np.testing.assert_allclose(ratios[0], np.exp(-1.0 / 0.12), rtol=1e-9)


def test_locality_far_displacement_vanishes():
    for eps in (0.1, 0.03, 0.01):
        value = locality_integral("dirac", "particle", 0.5, (5.0, 0.0, 0.0), eps)
        peak = locality_integral("dirac", "particle", 0.5, (0.0, 0.0, 0.0), eps)
        assert abs(value) / abs(peak) < 1e-3
        assert abs(peak) > 0.0


def test_locality_rep_and_branch_independent():
    # psi^dag psi = E/m for every branch and picture: identical integrals
    vals = [
        locality_integral(rep, branch, 0.5, (1.0, 0.0, 0.0), 0.1)
        for rep in ("dirac", "fw")
        for branch in ("particle", "antiparticle")
    ]
    scale = (4.0 * np.pi * 0.1) ** -1.5
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-12 * scale


def test_locality_errors():
    # the regulator guards left with the quadrature; the picture guard is localized_state's
    with pytest.raises(ValueError, match="rep must be"):
        po.localized_state(Grid(16, 6.0), M, rep="weyl")
