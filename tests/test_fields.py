"""Field construction, transforms, evolution, densities and currents."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from rdlab.fields import (
    CoordinateField,
    MomentumField,
    antiparticle_gaussian_packet,
    boundary_fraction,
    coordinate_centroid,
    current_density,
    density,
    density_rate,
    divergence,
    evolve,
    fw_current_density,
    gaussian_packet,
    hamiltonian_apply,
    momentum_expectation,
    momentum_inner,
    momentum_norm,
    to_coordinate,
    to_dirac_picture,
    to_fw_picture,
    to_momentum,
    total_probability,
)
from rdlab.grids import Grid
from rdlab.spinors import fw_matrix, hamiltonian

M = 1.0
GRID = Grid(32, 8.0)  # half-box 2 pi, fits sigma = 2 packets
FINE = Grid(48, 8.0)  # half-box 3 pi, for tight centroid checks
P0 = (0.5, 0.0, 0.25)


def packet(**kw):
    grid = kw.pop("grid", GRID)
    args = dict(p0=P0, x0=(0.0, 0.0, 0.0), sigma=2.0, spin=0.5)
    args.update(kw)
    return gaussian_packet(grid, M, **args)


def test_packet_norm_and_parseval():
    f = packet()
    assert abs(momentum_norm(f) - 1.0) < 1e-12
    cf = to_coordinate(f)
    assert abs(np.sqrt(total_probability(cf)) - momentum_norm(f)) < 1e-12
    assert abs(total_probability(cf) - 1.0) < 1e-12


def test_momentum_inner_matches_conjugate_einsum():
    a = packet(weights=(1.0, 0.3))
    b = evolve(a, 0.7)
    w = M / ((2.0 * np.pi) ** 3 * GRID.energies(M))
    for x, y in ((a, b), (b, a), (a, a)):
        want = np.sum(w * np.einsum("xyza,xyza->xyz", x.values.conj(), y.values)) * GRID.dp**3
        assert abs(momentum_inner(x, y) - want) <= 1e-15 * abs(want)
    assert abs(momentum_norm(b) - np.sqrt(momentum_inner(b, b).real)) <= 1e-15


def test_round_trip():
    f = packet()
    back = to_momentum(to_coordinate(f))
    np.testing.assert_allclose(back.values, f.values, atol=1e-12 * np.abs(f.values).max())


def test_momentum_expectation_is_p0():
    np.testing.assert_allclose(momentum_expectation(packet()), P0, atol=1e-10)
    np.testing.assert_allclose(
        momentum_expectation(packet(weights=(1, 1))), P0, atol=1e-10
    )


def test_centroid():
    # with p0 = 0 the density is inversion-symmetric about x0
    f = packet(grid=FINE, p0=(0, 0, 0), sigma=2.5)
    np.testing.assert_allclose(coordinate_centroid(to_coordinate(f)), 0.0, atol=1e-5)
    # position-shifted packet: density is the lattice translate of the unshifted one
    shift = (3, -2, 3)
    x0 = tuple(s * GRID.dx for s in shift)
    rho0 = density(to_coordinate(packet(p0=(0, 0, 0), sigma=1.8)))
    rho1 = density(to_coordinate(packet(p0=(0, 0, 0), sigma=1.8, x0=x0)))
    np.testing.assert_allclose(rho1, np.roll(rho0, shift, axis=(0, 1, 2)), atol=1e-12 * rho0.max())


def test_evolution_against_matrix_exponential():
    f, t = packet(), 0.35
    ev = evolve(f, t)
    assert ev.time == t
    assert abs(momentum_norm(ev) - 1.0) < 1e-12
    idx = [(0, 0, 0), (3, 30, 2), (5, 5, 17)]
    for i in idx:
        h = hamiltonian(GRID.p[i], M)
        u = scipy.linalg.expm(-1j * t * h)
        np.testing.assert_allclose(ev.values[i], u @ f.values[i], atol=1e-12)


def test_evolution_composes_and_fw_commutes():
    f = packet(weights=(0.8, 0.6))
    a = evolve(evolve(f, 0.2), 0.3)
    b = evolve(f, 0.5)
    np.testing.assert_allclose(a.values, b.values, atol=1e-12)
    assert a.time == pytest.approx(b.time)
    # picture switch commutes with evolution
    c = to_fw_picture(evolve(f, 0.4))
    d = evolve(to_fw_picture(f), 0.4)
    np.testing.assert_allclose(c.values, d.values, atol=1e-12)


def test_fw_picture_structure():
    f = packet()
    g = to_fw_picture(f)
    assert g.rep == "fw"
    assert abs(momentum_norm(g) - 1.0) < 1e-12
    # positive branch occupies the upper pair only
    assert np.abs(g.values[..., 2:]).max() < 1e-12 * np.abs(g.values).max()
    back = to_dirac_picture(g)
    np.testing.assert_allclose(back.values, f.values, atol=1e-12)
    with pytest.raises(ValueError):
        to_fw_picture(g)
    with pytest.raises(ValueError):
        to_dirac_picture(f)
    # FW Hamiltonian action is beta E on the FW values
    hfw = hamiltonian_apply(g)
    e = GRID.energies(M)[..., None]
    np.testing.assert_allclose(hfw[..., :2], (e * g.values)[..., :2], atol=1e-12)
    np.testing.assert_allclose(hfw[..., 2:], (-e * g.values)[..., 2:], atol=1e-12)


def test_channel_orthogonality_and_mixed_tag():
    plus = packet(weights=(1, 0))
    minus = packet(weights=(0, 1))
    assert plus.branch == "particle"
    assert minus.branch == "mixed"
    assert abs(momentum_inner(plus, minus)) < 1e-12
    mixed = packet(weights=(1, 1j))
    assert mixed.branch == "mixed"
    assert abs(momentum_norm(mixed) - 1.0) < 1e-12
    # FW picture maps the -E channel to the lower pair
    g = to_fw_picture(minus)
    assert np.abs(g.values[..., :2]).max() < 1e-12 * np.abs(g.values).max()


def test_single_node_current_ratio():
    # one positive-branch node: j / rho = p / E everywhere
    vals = np.zeros((*GRID.p.shape[:3], 4), dtype=complex)
    i = (2, 29, 3)
    p = GRID.p[i]
    from rdlab.spinors import dirac_spinor

    vals[i] = dirac_spinor(p, M, "particle", 0.5)
    f = MomentumField(GRID, vals, M)
    cf = to_coordinate(f)
    rho, j = density(cf), current_density(cf)
    e = GRID.energies(M)[i]
    for k in range(3):
        np.testing.assert_allclose(j[..., k], rho * p[k] / e, atol=1e-12 * rho.max())


def test_density_rate_matches_finite_difference():
    f = packet(weights=(1, 0.5))
    rate = density_rate(f)
    d = 1e-4
    num = (density(to_coordinate(evolve(f, d))) - density(to_coordinate(evolve(f, -d)))) / (2 * d)
    np.testing.assert_allclose(rate, num, atol=1e-5 * np.abs(rate).max())


def test_fw_current_closes_continuity():
    g = packet(rep="fw", weights=(1, 0.4))
    j = fw_current_density(g)
    rate = density_rate(g)
    resid = rate + divergence(GRID, j)
    assert np.abs(resid).max() < 1e-10 * np.abs(rate).max()
    with pytest.raises(ValueError):
        fw_current_density(packet())
    with pytest.raises(ValueError):
        current_density(to_coordinate(g))


def test_boundary_rejection():
    with pytest.raises(ValueError, match="momentum boundary"):
        gaussian_packet(GRID, M, sigma=0.5)
    with pytest.raises(ValueError, match="coordinate boundary"):
        gaussian_packet(Grid(16, 8.0), M, sigma=10.0)
    # diagnostics on a healthy packet
    f = packet()
    assert boundary_fraction(f) < 1e-8
    assert boundary_fraction(to_coordinate(f)) < 5e-2


@pytest.mark.parametrize(
    "shape", [dict(sigma=np.nan), dict(p0=(0.5, np.inf, 0.0)), dict(x0=(np.nan, 0.0, 0.0))]
)
def test_non_finite_packet_rejected(shape):
    # an all-NaN field would pass both boundary checks
    with pytest.raises(ValueError, match="finite"):
        packet(**shape)


def test_antiparticle_labeled_fields():
    f = antiparticle_gaussian_packet(GRID, M, p0=P0, sigma=3.0)
    assert f.branch == "antiparticle"
    assert abs(momentum_norm(f) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        to_coordinate(f)
    with pytest.raises(ValueError):
        evolve(f, 0.1)
    g = to_fw_picture(f)
    assert np.abs(g.values[..., :2]).max() < 1e-12 * np.abs(g.values).max()
    np.testing.assert_allclose(to_dirac_picture(g).values, f.values, atol=1e-12)


def test_free_motion_velocity():
    # positive-branch centroid moves at exactly <p/E>
    f = packet(grid=FINE, sigma=2.5)
    t = 2.0
    x1 = coordinate_centroid(to_coordinate(evolve(f, t)))
    x0 = coordinate_centroid(to_coordinate(f))
    e = FINE.energies(M)
    wt = (M / e) * np.einsum("xyza,xyza->xyz", f.values.conj(), f.values).real
    v = np.einsum("xyz,xyzk->k", wt / e, FINE.p) / wt.sum()
    np.testing.assert_allclose((x1 - x0) / t, v, atol=1e-4)


def test_field_validation():
    with pytest.raises(ValueError):
        MomentumField(GRID, np.zeros((4, 4, 4, 4)), M)
    with pytest.raises(ValueError):
        MomentumField(GRID, np.zeros((32, 32, 32, 4)), M, rep="weyl")
    with pytest.raises(ValueError):
        MomentumField(GRID, np.zeros((32, 32, 32, 4)), M, branch="tachyon")
    with pytest.raises(ValueError):
        MomentumField(GRID, np.zeros((32, 32, 32, 4)), 0.0)
    with pytest.raises(ValueError):
        CoordinateField(GRID, np.zeros((8, 8, 8, 4)), M)


def test_per_node_products_match_spinor_matrices():
    grid = Grid(8, 3.0)
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(8, 8, 8, 4)) + 1j * rng.normal(size=(8, 8, 8, 4))
    nodes = [tuple(rng.integers(0, 8, size=3)) for _ in range(12)]
    dirac = MomentumField(grid, vals, M)
    h = hamiltonian_apply(dirac)
    for branch in ("particle", "antiparticle"):
        fw = to_fw_picture(MomentumField(grid, vals, M, "dirac", branch)).values
        back = to_dirac_picture(MomentumField(grid, vals, M, "fw", branch)).values
        for node in nodes:
            u = fw_matrix(grid.p[node], M)
            if branch == "antiparticle":  # rotated with U(p)^dag in place of U(p)
                u = u.conj().T
            for got, want in (
                (h[node], hamiltonian(grid.p[node], M) @ vals[node]),
                (fw[node], u @ vals[node]),
                (back[node], u.conj().T @ vals[node]),
            ):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_node_products_peak_memory():
    # per-node products work on views of the spinor halves: no full-field
    # temporaries beyond the result
    f = gaussian_packet(Grid(32, 4.5), M, (0.3, 0.0, 0.0), sigma=4.0)
    cf = to_coordinate(f)
    for apply, bound in ((lambda: hamiltonian_apply(f), 2.0), (lambda: density(cf), 1.5)):
        tracemalloc.start()
        try:
            result = apply()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * result.nbytes
