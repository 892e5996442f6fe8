"""Boost/rotation transformations and frame-consistency experiments."""
from __future__ import annotations

import dataclasses
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from rdlab import covlab
from rdlab.clifford import ALPHA
from rdlab.covlab import (
    boost_dirac_field,
    boost_fw_field,
    box_probability,
    contracted_cube,
    covariance_packet,
    covariance_sweep,
    rotate_field,
    rotate_scalar_lattice,
    slice_prediction,
)
from rdlab.fields import (
    coordinate_centroid,
    density,
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
    return covariance_sweep(covariance_packet(Grid(n, 6.0)), (CHI,), axis=AXIS)[0]


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
        return np.einsum("xyz,xyzk->k", d, g.p) / tot, float((d * e).sum() / tot)

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
    with pytest.raises(ValueError, match="FW-picture"):
        boost_fw_field(f, CHI, AXIS)


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
        "wigner": lambda: boost_fw_field(fw, CHI, axis).values,
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
    direct = boost_fw_field(fw, CHI, AXIS)
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
    pbar = np.einsum("xyz,xyzk->k", d, g.p) / d.sum()
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
    expected = rotate_scalar_lattice(g, rho, 2, 1)
    assert np.abs(rho_rot - expected).max() <= 1e-6 * rho.max()


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
@pytest.mark.parametrize("rep", ["dirac", "fw"])
def test_slice_prediction_matches_per_plane_oracle(rep, axis, chi):
    f = covariance_packet(Grid(20, 4.0))  # smallest lattice passing the packet hygiene
    if rep == "fw":
        f = to_fw_picture(f)
    expected = _per_plane_slice(f, chi, axis)
    got = slice_prediction(f, chi, axis)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


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
    tracemalloc.start()
    try:
        slice_prediction(f, CHI, AXIS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * f.values.nbytes


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


def test_fw_density_rotation_consistent():
    # rotations carry no slice tilt: the FW density co-rotates exactly
    g = Grid(48, 6.0)
    fw = to_fw_picture(covariance_packet(g))
    rho = density(to_coordinate(fw))
    rho_rot = density(to_coordinate(rotate_field(fw, 2, 1)))
    expected = rotate_scalar_lattice(g, rho, 2, 1)
    residual = np.sqrt(np.sum((rho_rot - expected) ** 2) / np.sum(expected**2))
    assert residual <= 1e-6


def test_box_probability_invariant_for_dirac_not_fw():
    rep = _experiment(64)
    assert 0.97 <= rep.box_boosted <= 1.0
    assert abs(rep.box_boosted - rep.box_rest) <= 1e-3
    fw_departure = abs(rep.fw_box_boosted - rep.fw_box_rest)
    assert fw_departure >= 1e-3
    assert fw_departure >= 100.0 * abs(rep.box_boosted - rep.box_rest)


def test_sweep_at_zero_rapidity_is_the_identity(monkeypatch):
    # the zero boost and the untilted slice are identities: nothing is transformed
    def untouched(*args, **kwargs):
        raise AssertionError("no boost or slice transform runs at rapidity 0")

    monkeypatch.setattr(covlab, "boost_dirac_field", untouched)
    monkeypatch.setattr(covlab, "slice_prediction", untouched)
    (rep,) = covariance_sweep(covariance_packet(Grid(24, 4.5)), (0.0,), axis=AXIS)
    assert rep.dirac_residual == 0.0 and rep.fw_violation == 0.0
    assert rep.box_rest == rep.box_boosted
    assert rep.fw_box_rest == rep.fw_box_boosted


def test_sweep_equals_single_rapidity_sweeps():
    f = covariance_packet(Grid(24, 4.5))
    rapidities = (0.1, 0.25, 0.5)
    singles = [covariance_sweep(f, (chi,), axis=AXIS)[0] for chi in rapidities]
    assert covariance_sweep(f, rapidities, axis=AXIS) == singles


def test_report_serialization_contract():
    rep = _experiment(48)
    d = rep.as_dict()
    assert set(d) == {
        "rapidity",
        "dirac_residual",
        "fw_violation",
        "box_rest",
        "box_boosted",
        "grid",
    }
    assert set(d["grid"]) == {"n", "pmax", "mass"}
    assert d["rapidity"] == CHI
    assert d["grid"]["n"] == 48


def test_contracted_cube_geometry():
    g = Grid(48, 6.0)
    f = covariance_packet(g)
    rho = density(to_coordinate(f))
    center, halfwidths = contracted_cube(g, rho, CHI, AXIS, 0.99)
    assert halfwidths[0] == halfwidths[2]
    np.testing.assert_allclose(halfwidths[AXIS], halfwidths[0] / np.cosh(CHI))
    assert box_probability(g, rho, center * 0.0, halfwidths[0]) >= 0.99
