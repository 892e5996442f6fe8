"""Boost/rotation transformations and frame-consistency experiments."""
from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from conftest import coordinate_centroid, covariance_packet, density, lattice_p, momentum_pair, peak_bytes

from rdlab import covlab
from rdlab.clifford import ALPHA, sigma_dot
from rdlab.covlab import (
    boost_dirac_field,
    covariance_sweep,
    rotate_field,
    rotate_scalar_lattice,
    slice_prediction,
)
from rdlab.fields import (
    branch_projection,
    coordinate_density,
    evolve,
    fw_current_density,
    gaussian_packet,
    momentum_inner,
    to_coordinate,
    to_dirac_picture,
    to_fw_picture,
)
from rdlab.grids import Grid

M = 1.0
CHI = 0.5
AXIS = 1  # boost along y: transverse to both the packet momentum and spin


@lru_cache(maxsize=None)
def _experiment(n: int):
    return covariance_sweep(covariance_packet(Grid(n, 6.0)), (CHI,), axis=AXIS)[0][0]


def _measure_density(field):
    w = field.mass / ((2.0 * np.pi) ** 3 * field.grid.energies(field.mass))
    return w * np.einsum("xyza,xyza->xyz", field.values.conj(), field.values).real


def test_boost_is_unitary_and_invertible():
    f = covariance_packet(Grid(48, 6.0))
    b = boost_dirac_field(f, CHI, AXIS)
    assert abs(momentum_inner(b, b).real - 1.0) <= 1e-6
    assert boost_dirac_field(f, 0.0, AXIS) is f
    back = boost_dirac_field(b, -CHI, AXIS)
    dev = np.sqrt(
        np.sum(np.abs(back.values - f.values) ** 2) / np.sum(np.abs(f.values) ** 2)
    )
    assert dev <= 1e-3


def test_boost_moves_momentum_like_a_four_vector():
    g = Grid(48, 6.0)
    f = covariance_packet(g)
    b = boost_dirac_field(f, CHI, AXIS)
    ch, sh = np.cosh(CHI), np.sinh(CHI)
    e = g.energies(M)

    def moments(x):
        d = _measure_density(x)
        tot = d.sum()
        return np.einsum("xyz,xyzk->k", d, lattice_p(g)) / tot, float((d * e).sum() / tot)

    p0, e0 = moments(f)
    p1, e1 = moments(b)
    assert abs(p1[AXIS] - (ch * p0[AXIS] + sh * e0)) <= 1e-6
    assert abs(e1 - (ch * e0 + sh * p0[AXIS])) <= 1e-6
    assert abs(p1[0] - p0[0]) <= 1e-6 and abs(p1[2] - p0[2]) <= 1e-6


def test_boost_preconditions():
    g = Grid(48, 6.0)
    f = covariance_packet(g)
    with pytest.raises(ValueError, match="pmax"):
        boost_dirac_field(f, 2.0, AXIS)  # support would leave the band
    with pytest.raises(ValueError):
        boost_dirac_field(f, CHI, axis=3)
    with pytest.raises(ValueError):
        boost_dirac_field(to_fw_picture(f), CHI, AXIS)
    mixed = gaussian_packet(g, M, sigma=2.5, weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        boost_dirac_field(mixed, CHI, AXIS)


def _wigner_boost_fw(field, rapidity, axis):
    """Active boost of a particle-branch FW field (oracle): the momentum remap of the
    program's boost with the node-wise Wigner rotation acting on the upper component pair,
    independent of the program's FW boost to_fw_picture(boost_dirac_field(...))."""
    grid, m = field.grid, field.mass
    vals, e_q, e_p = covlab._boosted_samples(field, rapidity, axis)
    q = lattice_p(grid)
    p = q.copy()
    p[..., axis] = np.cosh(rapidity) * q[..., axis] - np.sinh(rapidity) * e_q
    # The Wigner rotation of the upper pair, [c a_q a_p + s a_p sigma.q sigma_ax +
    # s a_q sigma_ax sigma.p + c sigma.q sigma.p] / norm with q the node, p the source
    # momentum, a = E + m and (c, s) = (cosh, sinh)(chi/2), is the SU(2) element
    # (w + i sigma.v) / norm, by sigma.a sigma.b = a.b + i sigma.(a x b).
    c, s = np.cosh(rapidity / 2.0), np.sinh(rapidity / 2.0)
    a_q, a_p, n = e_q + m, e_p + m, np.eye(3)[axis]
    w = c * (a_q * a_p + np.sum(q * p, axis=-1)) + s * (a_p * q[..., axis] + a_q * p[..., axis])
    v = s * np.cross(a_p[..., None] * q - a_q[..., None] * p, n) + c * np.cross(q, p)
    out = np.zeros_like(vals)
    upper = sigma_dot(momentum_pair(v), vals[..., :2], out=out[..., :2])
    upper *= 1j
    upper += w[..., None] * vals[..., :2]
    upper *= (np.sqrt(e_p / e_q) / np.sqrt(4.0 * e_q * a_q * e_p * a_p))[..., None]
    return dataclasses.replace(field, values=out)


def test_boosted_source_energies_are_the_stacked_lattice_sums_bit_for_bit():
    # E_p adds the squares in the order of np.sum(p * p, axis=-1), which the boost's
    # sqrt(E_p / E_q) factor and so the covariance headlines were computed with
    g = Grid(32, 6.0)
    f = covariance_packet(g)
    e_q = g.energies(M)
    for axis in range(3):
        e_p = covlab._boosted_samples(f, CHI, axis)[2]
        p = lattice_p(g)
        p[..., axis] = np.cosh(CHI) * p[..., axis] - np.sinh(CHI) * e_q
        assert np.array_equal(e_p, np.sqrt(M * M + np.sum(p * p, axis=-1)))


def _einsum_resample(values, grid, targets, axis):
    """Plane-by-plane einsum evaluation of the axis trig interpolant (oracle)."""
    v = np.moveaxis(values, axis, 0)
    t = np.moveaxis(targets, axis, 0)
    coeff = np.fft.ifft(v, axis=0)
    out = np.empty_like(v)
    for k in range(grid.n):
        kernel = np.exp(-1j * t[:, :, k, None] * grid.x1d)
        out[:, :, k, :] = np.einsum("qyj,jya->qya", kernel, coeff[:, :, k, :])
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_boost_resampler_matches_einsum_oracle(monkeypatch, axis):
    f = covariance_packet(Grid(32, 6.0))
    fw = to_fw_picture(f)
    boosts = {
        "dirac": lambda: boost_dirac_field(f, CHI, axis).values,
        "wigner": lambda: _wigner_boost_fw(fw, CHI, axis).values,
        "conjugation": lambda: to_fw_picture(boost_dirac_field(to_dirac_picture(fw), CHI, axis)).values,
    }
    new = {name: boost() for name, boost in boosts.items()}
    monkeypatch.setattr(covlab, "_resample_along_axis", _einsum_resample)
    for name, boost in boosts.items():
        old = boost()
        dev = np.abs(new[name] - old).max() / np.abs(old).max()
        assert dev <= 1e-13, name


def test_fw_boost_routes_agree():
    fw = to_fw_picture(covariance_packet(Grid(64, 6.0)))
    direct = _wigner_boost_fw(fw, CHI, AXIS)
    conj = to_fw_picture(boost_dirac_field(to_dirac_picture(fw), CHI, AXIS))
    dev = np.abs(direct.values - conj.values).max() / np.abs(conj.values).max()
    assert dev <= 1e-7


def test_quarter_turn_rotations_are_exact():
    g = Grid(48, 6.0)
    f = gaussian_packet(g, M, p0=(0.4, 0.0, 0.1), x0=(0.8, -0.3, 0.5), sigma=2.2)
    r = rotate_field(f, 2, 1)  # +90 degrees about z
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    assert abs(momentum_inner(r, r).real - 1.0) <= 1e-12
    # centroid and mean momentum co-rotate (including the spin-orbit shift)
    np.testing.assert_allclose(
        coordinate_centroid(to_coordinate(r)),
        rot @ coordinate_centroid(to_coordinate(f)),
        atol=1e-9,
    )
    d = _measure_density(r)
    pbar = np.einsum("xyz,xyzk->k", d, lattice_p(g)) / d.sum()
    np.testing.assert_allclose(pbar, rot @ (0.4, 0.0, 0.1), atol=1e-12)

    # spinor double-cover structure: eight quarter turns close, four flip sign
    np.testing.assert_allclose(
        rotate_field(f, 2, 4).values, -f.values, rtol=0, atol=1e-13
    )
    np.testing.assert_allclose(
        rotate_field(f, 2, 8).values, f.values, rtol=0, atol=0
    )


@pytest.mark.parametrize("rep", ["dirac", "fw"])
def test_rotated_density_is_permuted_density(rep):
    g = Grid(48, 6.0)
    f = gaussian_packet(g, M, p0=(0.4, 0.0, 0.1), x0=(0.8, -0.3, 0.5), sigma=2.2)
    if rep == "fw":
        f = to_fw_picture(f)
    rho = density(to_coordinate(f))
    rho_rot = density(to_coordinate(rotate_field(f, 2, 1)))
    expected = rotate_scalar_lattice(rho, 2, 1)
    assert np.abs(rho_rot - expected).max() <= 1e-6 * rho.max()


def _rotation_source_indices(n, axis, k):
    """Oracle: fancy-index tuple of the k-quarter-turn node map, out(y) = in(R^-k y)
    with R the integer +90 degree rotation about `axis`."""
    quarter = {
        0: np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]]),
        1: np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]]),
        2: np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
    }
    rot = np.linalg.matrix_power(quarter[axis], k % 4)
    freqs = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    q_int = np.stack(np.meshgrid(freqs, freqs, freqs, indexing="ij"), axis=-1)
    src = np.einsum("ab,xyzb->xyza", rot.T, q_int)
    return tuple((src[..., i] % n).astype(np.intp) for i in range(3))


@pytest.mark.parametrize("n", [8, 16])
def test_quarter_turns_match_the_index_map(n):
    rng = np.random.default_rng(n)
    scalar = rng.standard_normal((n, n, n))
    spinor = rng.standard_normal((n, n, n, 4)) + 1j * rng.standard_normal((n, n, n, 4))
    for axis in range(3):
        for k in range(8):
            idx = _rotation_source_indices(n, axis, k)
            assert np.array_equal(rotate_scalar_lattice(scalar, axis, k), scalar[idx])
            assert np.array_equal(covlab._quarter_turns(spinor, axis, k), spinor[idx])


def _per_plane_slice(field, rapidity, axis):
    """Tilted-slice oracle, one plane at a time: evolve the rest state to
    t = -sinh(chi) x', trig-interpolate the plane x = cosh(chi) x' and form
    cosh(chi) rho + sinh(chi) j_ax."""
    grid = field.grid
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    half = np.sqrt(field.mass / grid.energies(field.mass))[..., None]
    pred = np.empty(field.values.shape[:3])
    for i, xp in enumerate(grid.x1d):
        evolved = evolve(field, -sh * xp)
        phase = np.exp(1j * grid.p1d * ch * xp) / grid.n
        trans = np.fft.ifftn(np.moveaxis(half * evolved.values, axis, 0), axes=(1, 2))
        plane = np.einsum("p,pabs->abs", phase, trans) / grid.dx**3
        rho = np.einsum("abs,abs->ab", plane.conj(), plane).real
        if field.rep == "dirac":
            j_ax = np.einsum("abs,abs->ab", plane.conj(), plane @ ALPHA[axis].T).real
        else:
            j_lattice = np.moveaxis(fw_current_density(evolved)[..., axis], axis, 0)
            j_ax = np.einsum("p,pab->ab", phase, np.fft.fft(j_lattice, axis=0)).real
        pred[i] = ch * rho + sh * j_ax
    return np.moveaxis(pred, 0, axis)


@pytest.mark.parametrize("chi", [0.0, CHI])
@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("rep", ["dirac", "fw", "fw-pair"])
def test_slice_prediction_matches_per_plane_oracle(rep, axis, chi):
    # the oracle evolves four components; the FW pair is the upper half of that field
    f = covariance_packet(Grid(20, 4.0))  # smallest lattice passing the packet hygiene
    if rep != "dirac":
        f = to_fw_picture(f)
    expected = _per_plane_slice(f, chi, axis)
    got = slice_prediction(branch_projection(f) if rep == "fw-pair" else f, chi, axis)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_slice_prediction_on_the_fw_pair_matches_four_components(axis):
    # the slice reads only the +E part, the upper pair: dropping the lower pair moves no bit
    fw = to_fw_picture(covariance_packet(Grid(24, 4.5)))
    upper = branch_projection(fw)
    assert upper.values.shape == (24, 24, 24, 2)
    assert np.array_equal(slice_prediction(upper, CHI, axis), slice_prediction(fw, CHI, axis))


@pytest.mark.parametrize("rep", ["dirac", "fw"])
def test_slice_prediction_rejects_populated_negative_branch(rep):
    # only the +E branch is transformed, so a field labelled particle that
    # carries -E content must fail instead of losing it
    mixed = gaussian_packet(Grid(20, 4.0), M, p0=(0.5, 0.0, 0.0), sigma=2.5, weights=(1.0, 0.3))
    if rep == "fw":
        mixed = to_fw_picture(mixed)
    with pytest.raises(ValueError, match="-E branch"):
        slice_prediction(dataclasses.replace(mixed, branch="particle"), CHI, AXIS)


@pytest.mark.parametrize("rep", ["dirac", "fw"])
def test_slice_prediction_peak_memory(rep):
    # one energy branch is transformed, and the FW planes reuse one FFT buffer
    f = covariance_packet(Grid(32, 4.5))
    if rep == "fw":
        f = to_fw_picture(f)
    assert peak_bytes(lambda: slice_prediction(f, CHI, AXIS)) <= 4.0 * f.values.nbytes


def test_covariance_sweep_peak_memory():
    # the FW slice runs on the pair with one (2, n, n, n) FFT buffer, so the sweep holds
    # about 3.8 fields at its peak (5.2 when it sliced the four-component FW field); the
    # bound is that value with an 11% margin
    f = covariance_packet(Grid(32, 4.5))
    assert peak_bytes(lambda: covariance_sweep(f, (CHI,), axis=AXIS)) <= 4.2 * f.values.nbytes


def test_dirac_covariance_residual_small_and_refining():
    coarse = _experiment(48).dirac_residual
    fine = _experiment(64).dirac_residual
    assert coarse <= 1e-4
    assert fine <= 1e-4
    assert fine < 0.1 * coarse


def test_fw_violation_large_and_refinement_stable():
    coarse = _experiment(48)
    fine = _experiment(64)
    assert coarse.fw_violation >= 10.0 * coarse.dirac_residual
    assert fine.fw_violation >= 10.0 * fine.dirac_residual
    assert fine.fw_violation >= 1e-2
    # a genuine frame effect: does not shrink under refinement
    assert fine.fw_violation >= 0.8 * coarse.fw_violation


def test_fw_violation_vanishes_with_rapidity():
    g = Grid(48, 6.0)
    f = covariance_packet(g)
    fw = to_fw_picture(f)

    def violation(chi):
        boosted = to_fw_picture(boost_dirac_field(f, chi, AXIS))
        rho_b = density(to_coordinate(boosted))
        pred = slice_prediction(fw, chi, AXIS)
        return float(
            np.sqrt(np.sum((pred - rho_b) ** 2) / np.sum(rho_b**2))
        )

    v_small, v_mid = violation(0.1), violation(0.25)
    v_full = _experiment(48).fw_violation
    assert v_small < v_mid < v_full
    assert v_small <= 0.25 * v_full


@pytest.mark.parametrize("k", [1, 2, 5])
def test_rotate_field_turns_the_fw_pair_by_the_upper_block(k):
    # the spinor rotation is block diagonal: the rotated pair is the upper pair of the
    # rotated four-component field, and its density co-rotates
    fw = to_fw_picture(covariance_packet(Grid(24, 4.5)))
    upper = branch_projection(fw)
    turned = rotate_field(upper, 2, k)
    assert turned.values.shape == upper.values.shape and turned.rep == "fw"
    np.testing.assert_allclose(turned.values, rotate_field(fw, 2, k).values[..., :2], rtol=0,
                               atol=1e-15 * np.abs(fw.values).max())
    rho = coordinate_density(upper)
    expected = rotate_scalar_lattice(rho, 2, k)
    assert np.abs(coordinate_density(turned) - expected).max() <= 1e-13 * rho.max()


def test_fw_density_rotation_consistent():
    # rotations carry no slice tilt: the FW density co-rotates exactly
    g = Grid(48, 6.0)
    fw = to_fw_picture(covariance_packet(g))
    rho = density(to_coordinate(fw))
    rho_rot = density(to_coordinate(rotate_field(fw, 2, 1)))
    expected = rotate_scalar_lattice(rho, 2, 1)
    residual = np.sqrt(np.sum((rho_rot - expected) ** 2) / np.sum(expected**2))
    assert residual <= 1e-6


def test_box_probability_invariant_for_dirac_not_fw():
    # D = sup_R |P'(R) - P_pred(R)|: within budget for every Dirac region,
    # beyond it for some FW region
    rep = _experiment(64)
    assert rep.dirac_tv <= 1e-3
    assert rep.fw_tv >= 1e-3
    assert rep.fw_tv >= 100.0 * rep.dirac_tv


def test_region_departure_is_the_worst_region():
    # D bounds |P'(R) - P_pred(R)| for boxes and half-spaces, and is reached
    # on the region where the boosted density exceeds the prediction (or on
    # its complement)
    g = Grid(24, 4.5)
    rng = np.random.default_rng(7)
    rho_b, pred = rng.random((2, 24, 24, 24))
    residual, tv = covlab._slice_departures(g, rho_b, pred)
    diff = (rho_b - pred) * g.dx**3
    assert residual == pytest.approx(np.sqrt(np.sum((pred - rho_b) ** 2) / np.sum(rho_b**2)), rel=1e-14)
    assert tv == pytest.approx(max(diff[diff > 0].sum(), -diff[diff < 0].sum()), rel=1e-12)
    for region in (np.s_[3:11, 5:20, :], np.s_[:12], np.s_[:, 7:, 2:9]):
        assert abs(diff[region].sum()) <= tv
    assert covlab._slice_departures(g, rho_b, rho_b) == (0.0, 0.0)


def test_sweep_at_zero_rapidity_is_the_identity(monkeypatch):
    # the zero boost and the untilted slice are identities: nothing is transformed
    def untouched(*args, **kwargs):
        raise AssertionError("no boost or slice transform runs at rapidity 0")

    monkeypatch.setattr(covlab, "boost_dirac_field", untouched)
    monkeypatch.setattr(covlab, "slice_prediction", untouched)
    f = covariance_packet(Grid(24, 4.5))
    (rep,), rho_rest, rho_fw = covariance_sweep(f, (0.0,), axis=AXIS)
    assert rep.dirac_residual == 0.0 and rep.fw_violation == 0.0
    # the rest densities it returns are those of both pictures
    assert np.array_equal(rho_rest, coordinate_density(f))
    assert np.array_equal(rho_fw, coordinate_density(to_fw_picture(f)))
    assert rep.dirac_tv == 0.0 and rep.fw_tv == 0.0


def test_sweep_equals_single_rapidity_sweeps():
    f = covariance_packet(Grid(24, 4.5))
    rapidities = (0.1, 0.25, 0.5)
    singles = [covariance_sweep(f, (chi,), axis=AXIS)[0][0] for chi in rapidities]
    assert covariance_sweep(f, rapidities, axis=AXIS)[0] == singles


def test_report_serialization_contract():
    rep = _experiment(48)
    d = rep.as_dict()
    assert set(d) == {
        "rapidity",
        "dirac_residual",
        "fw_violation",
        "dirac_tv",
        "fw_tv",
        "grid",
    }
    assert set(d["grid"]) == {"n", "pmax", "mass"}
    assert d["rapidity"] == CHI
    assert d["grid"]["n"] == 48

