"""Field construction, transforms, evolution, densities and currents."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    centred_rate, coordinate_centroid, density, lattice_p, momentum_expectation, momentum_pair, peak_bytes, to_momentum,
    total_probability,
)

from rdlab.clifford import alpha_dot, pair, sigma_dot
from rdlab.fields import (
    CoordinateField,
    MomentumField,
    _coordinate_leak,
    _fw_rotate,
    antiparticle_gaussian_packet,
    boundary_fraction,
    branch_projection,
    continuity_residuals,
    coordinate_current,
    coordinate_density,
    current_density,
    density_rate,
    divergence,
    evolve,
    fw_current_density,
    gaussian_packet,
    hamiltonian_apply,
    momentum_inner,
    momentum_norm,
    to_coordinate,
    to_dirac_picture,
    to_fw_picture,
)
from rdlab.grids import Grid
from rdlab.spinors import fw_matrix, hamiltonian

M = 1.0
GRID = Grid(32, 8.0)  # half-box 2 pi, fits sigma = 2 packets
FINE = Grid(48, 8.0)  # half-box 3 pi, for tight centroid checks
P0 = (0.5, 0.0, 0.25)


def packet(rep="dirac", **kw):
    grid = kw.pop("grid", GRID)
    args = dict(p0=P0, x0=(0.0, 0.0, 0.0), sigma=2.0, spin=0.5)
    args.update(kw)
    f = gaussian_packet(grid, M, **args)
    return to_fw_picture(f) if rep == "fw" else f


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
    assert abs(momentum_norm(ev) - 1.0) < 1e-12
    idx = [(0, 0, 0), (3, 30, 2), (5, 5, 17)]
    for i in idx:
        h = hamiltonian(lattice_p(GRID)[i], M)
        u = scipy.linalg.expm(-1j * t * h)
        np.testing.assert_allclose(ev.values[i], u @ f.values[i], atol=1e-12)


def test_evolution_composes_and_fw_commutes():
    f = packet(weights=(0.8, 0.6))
    a = evolve(evolve(f, 0.2), 0.3)
    b = evolve(f, 0.5)
    np.testing.assert_allclose(a.values, b.values, atol=1e-12)
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
    vals = np.zeros((GRID.n, GRID.n, GRID.n, 4), dtype=complex)
    i = (2, 29, 3)
    p = lattice_p(GRID)[i]
    from rdlab.spinors import dirac_spinor

    vals[i] = dirac_spinor(p, M, "particle", 0.5)
    f = MomentumField(GRID, vals, M)
    cf = to_coordinate(f)
    rho, j = density(cf), current_density(cf)
    e = GRID.energies(M)[i]
    for k in range(3):
        np.testing.assert_allclose(j[..., k], rho * p[k] / e, atol=1e-12 * rho.max())


def test_density_rate_matches_finite_difference():
    f = packet(rep="fw", weights=(1, 0.5))
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


def test_divergence_keeps_the_real_part_of_the_full_spectrum_form():
    rng = np.random.default_rng(11)
    for grid in (GRID, Grid(16, 4.0)):
        vec = rng.normal(size=(grid.n, grid.n, grid.n, 3))
        spectrum = np.fft.fftn(vec, axes=(0, 1, 2))
        want = np.fft.ifftn(1j * np.einsum("xyzk,xyzk->xyz", lattice_p(grid), spectrum)).real
        got = divergence(grid, vec)
        assert _rel(got, want) <= 1e-13
        # a float array of its own: no complex128 buffer kept alive behind a strided view
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.base is None or got.base.dtype == np.float64


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
    v = np.einsum("xyz,xyzk->k", wt / e, lattice_p(FINE)) / wt.sum()
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
            u = fw_matrix(lattice_p(grid)[node], M)
            if branch == "antiparticle":  # rotated with U(p)^dag in place of U(p)
                u = u.conj().T
            for got, want in (
                (h[node], hamiltonian(lattice_p(grid)[node], M) @ vals[node]),
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
        assert peak_bytes(apply) <= bound * apply().nbytes


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("rep", ["dirac", "fw"])
@pytest.mark.parametrize("weights", [(1.0, 0.0), (0.8, 0.6j)], ids=["particle", "mixed"])
def test_coordinate_observables_match_compositions(rep, weights):
    # the component-at-a-time kernels against the full coordinate 4-spinor
    f = packet(rep=rep, weights=weights)
    cf = to_coordinate(f)
    assert _rel(coordinate_density(f), density(cf)) <= 1e-13
    dot = to_coordinate(replace(f, values=-1j * hamiltonian_apply(f)))
    assert _rel(density_rate(f), 2.0 * pair(cf.values, dot.values)) <= 1e-13
    if rep == "dirac":
        assert _rel(coordinate_current(f), current_density(cf)) <= 1e-13
    else:
        with pytest.raises(ValueError):
            coordinate_current(f)


@pytest.mark.parametrize("rep, weights", [("dirac", (1.0, 0.0)), ("dirac", (0.8, 0.6j)), ("fw", (0.8, 0.6j))],
                         ids=["particle", "mixed", "fw"])
def test_evolved_density_is_density_of_evolved_field(rep, weights):
    # the per-plane propagator has the arithmetic of evolve
    f = packet(rep=rep, weights=weights)
    for t in (0.7, -1.3, 0.0):
        assert np.array_equal(coordinate_density(f, t), coordinate_density(evolve(f, t)))


@pytest.mark.parametrize("rep, weights", [("dirac", (1.0, 0.0)), ("dirac", (0.8, 0.6j)), ("fw", (0.8, 0.6j))],
                         ids=["particle", "mixed", "fw"])
def test_density_rate_is_the_centred_difference_without_cancellation(rep, weights):
    # 2 Re a^dag o from the even and odd parts of psi(+-t): no eps ||rho|| / dt rounding floor
    f = packet(rep=rep, weights=weights)
    for dt in (2e-3, 1e-5):
        rate = density_rate(f, dt)
        assert np.abs(rate - centred_rate(f, dt)).max() <= 1e-12 * np.abs(rate).max()


@pytest.mark.parametrize("weights", [(1.0, 0.0), (0.8, 0.6j)], ids=["particle", "mixed"])
def test_dirac_rate_closes_continuity(weights):
    # the exact rate at t = 0 against the pointwise alpha-current
    f = packet(weights=weights)
    rate = density_rate(f)
    assert np.abs(rate + divergence(GRID, coordinate_current(f))).max() <= 1e-13 * np.abs(rate).max()


def _lattice_hamiltonian_apply(field):
    """The whole-lattice (alpha.p + beta m) phi on p (n, n, n, 3) (reference)."""
    out = alpha_dot(momentum_pair(lattice_p(field.grid)), field.values)
    for c, acc in enumerate((np.add, np.add, np.subtract, np.subtract)):
        acc(out[..., c], field.mass * field.values[..., c], out=out[..., c])
    return out


def _lattice_fw_rotate(field, direction):
    """The whole-lattice U(p)^direction on p (n, n, n, 3) (reference)."""
    if field.branch == "antiparticle":
        direction = -direction
    e = field.grid.energies(field.mass)
    out = alpha_dot(momentum_pair(lattice_p(field.grid)), field.values)
    em = e + field.mass
    for half, sign in ((slice(0, 2), direction), (slice(2, 4), -direction)):
        out[..., half] *= sign
        for c in range(half.start, half.stop):
            out[..., c] += em * field.values[..., c]
    out /= np.sqrt(2.0 * e * em)[..., None]
    return out


def test_plane_tiled_products_match_the_whole_lattice_forms():
    rng = np.random.default_rng(5)
    shape = (GRID.n, GRID.n, GRID.n, 4)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for branch in ("particle", "antiparticle"):
        f = MomentumField(GRID, vals, M, "dirac", branch)
        for direction in (1, -1):
            assert np.array_equal(_fw_rotate(f, direction), _lattice_fw_rotate(f, direction))
    f = packet(weights=(0.8, 0.6j))
    assert np.array_equal(hamiltonian_apply(f), _lattice_hamiltonian_apply(f))
    assert np.array_equal(to_fw_picture(f).values, _lattice_fw_rotate(f, 1))


def _lattice_packet_values(grid, p0, x0, sigma, weights):
    """gaussian_packet's spinor field from the (n, n, n, 3) lattice p (reference)."""
    p0, x0 = np.asarray(p0, dtype=float), np.asarray(x0, dtype=float)
    chi = np.array([1.0, 0.0], dtype=complex)
    w = np.asarray(weights, dtype=complex) / np.linalg.norm(weights)
    e, p = grid.energies(M), lattice_p(grid)
    g = np.exp(-0.5 * sigma**2 * np.einsum("xyzk,xyzk->xyz", p - p0, p - p0))
    amp = 1.0 / np.sqrt(np.sum(g * g) * grid.dp**3 / (2.0 * np.pi) ** 3)
    envelope = amp * g * np.exp(-1j * (p @ x0)) / np.sqrt(2.0 * M * (e + M))
    sp = sigma_dot(momentum_pair(p), chi) * envelope[..., None]
    big = (envelope * (e + M))[..., None] * chi
    return np.concatenate([w[0] * big - w[1] * sp, w[1] * big + w[0] * sp], axis=-1)


def test_packet_matches_the_lattice_envelope():
    # the envelope from the axis factors: other rounding than the einsum and matmul on p
    grid = Grid(64, 8.0)
    for x0, weights in (((0.0, 0.0, 0.0), (1.0, 0.0)), ((0.4, -0.3, 0.2), (0.8, 0.6j))):
        f = gaussian_packet(grid, M, P0, x0, sigma=2.0, weights=weights)
        want = _lattice_packet_values(grid, P0, x0, 2.0, weights)
        assert _rel(f.values, want) <= 1e-15


def test_packet_leak_check_is_exact():
    for f in (packet(), packet(weights=(1, 0.5j), x0=(0.4, -0.3, 0.2)), packet(rep="fw", spin=(1, 1j))):
        assert _coordinate_leak(f) == boundary_fraction(to_coordinate(f))
        mags, edges = np.abs(f.values), [GRID.n // 2 - 1, GRID.n // 2, GRID.n // 2 + 1]
        edge = max(mags[edges].max(), mags[:, edges].max(), mags[:, :, edges].max())
        assert boundary_fraction(f) == edge / mags.max()  # the whole field at once (reference)
    # like to_coordinate, the component transforms reject antiparticle labels
    for t in (0.0, 0.5):
        with pytest.raises(ValueError):
            coordinate_density(antiparticle_gaussian_packet(GRID, M, p0=P0, sigma=3.0), t)


def test_transport_peak_memory():
    # bounded working memory: no coordinate 4-spinor, evolution in place, no evolved field
    # for an evolved density, plane temporaries only in the FW rotation
    grid = Grid(32, 8.0)
    f = gaussian_packet(grid, M, P0, sigma=2.0, weights=(1.0, 0.5))
    size = f.values.nbytes
    # the boundary checks take |phi| one component at a time
    assert peak_bytes(lambda: gaussian_packet(grid, M, P0, sigma=2.0, weights=(1.0, 0.5))) <= 1.5 * size
    assert peak_bytes(lambda: evolve(f, 0.3)) <= 2.0 * size
    assert peak_bytes(lambda: to_fw_picture(f)) <= 1.1 * size
    for t in (0.0, 0.3):
        assert peak_bytes(lambda: coordinate_density(f, t)) <= 0.5 * size
    # three component buffers, j and one float scratch for every term of j
    assert peak_bytes(lambda: coordinate_current(f)) <= 1.3 * size
    for g in (f, to_fw_picture(f)):
        assert peak_bytes(lambda: continuity_residuals(g, [1e-3, 5e-4])) <= 2.0 * size


def test_fw_particle_pair_shape():
    # an FW particle field may store its upper pair alone; no other labeling may
    upper = np.zeros((32, 32, 32, 2))
    assert MomentumField(GRID, upper, M, rep="fw").values.shape == (32, 32, 32, 2)
    for labels in (dict(rep="dirac"), dict(rep="fw", branch="mixed"), dict(rep="fw", branch="antiparticle")):
        with pytest.raises(ValueError, match="FW particle field"):
            MomentumField(GRID, upper, M, **labels)


@pytest.mark.parametrize("fn", [
    to_dirac_picture, to_coordinate, lambda f: evolve(f, 0.3),
], ids=["to_dirac_picture", "to_coordinate", "evolve"])
def test_four_component_functions_reject_the_fw_pair(fn):
    upper = branch_projection(packet("fw"))
    with pytest.raises(ValueError, match="all four spinor components"):
        fn(upper)


def test_continuity_on_the_fw_pair_matches_four_components():
    # the lower pair of an FW particle packet is zero to rounding: dropping it moves no
    # field of any report
    fw = to_fw_picture(gaussian_packet(Grid(64, 8.0), M, P0, sigma=2.5))
    upper = branch_projection(fw)
    assert upper.values.shape == (64, 64, 64, 2)
    assert continuity_residuals(upper, [1e-5, 2e-3]) == continuity_residuals(fw, [1e-5, 2e-3])
