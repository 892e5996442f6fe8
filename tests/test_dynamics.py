"""Evolution, branch projections, continuity audits and trembling motion."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from rdlab.clifford import ALPHA
from rdlab.fields import (
    branch_projection,
    concentration_box,
    continuity_residual,
    density,
    evolve,
    gaussian_packet,
    momentum_inner,
    to_coordinate,
    to_fw_picture,
    total_probability,
    zitterbewegung_experiment,
)
from rdlab.grids import Grid
from rdlab.positionops import apply_dirac_coordinate, apply_xp

GRID = Grid(48, 6.0)
M = 1.0


def _moving_packet(weights=(1.0, 0.0)):
    return gaussian_packet(GRID, M, (0.3, 0.0, 0.0), sigma=2.2, weights=weights)


def test_norm_conserved_over_long_evolution():
    # T = 100/m with exact per-node propagators: drift only from roundoff
    for f in (_moving_packet(), to_fw_picture(_moving_packet((1.0, 0.8)))):
        far = evolve(f, 100.0)
        assert abs(momentum_inner(far, far).real - 1.0) <= 1e-12
        if far.branch != "mixed" or far.rep == "fw":
            assert abs(total_probability(to_coordinate(far)) - 1.0) <= 1e-12


def test_total_probability_rejects_momentum_fields():
    with pytest.raises(TypeError):
        total_probability(_moving_packet())


def test_branch_projection_decomposition():
    f = _moving_packet()
    np.testing.assert_allclose(
        branch_projection(f, "particle").values, f.values, rtol=0, atol=1e-13
    )
    assert np.abs(branch_projection(f, "antiparticle").values).max() <= 1e-13

    mix = gaussian_packet(GRID, M, (0.3, 0.0, 0.0), sigma=2.2, weights=(1.0, 0.6))
    plus = branch_projection(mix, "particle")
    minus = branch_projection(mix, "antiparticle")
    np.testing.assert_allclose(
        plus.values + minus.values, mix.values, rtol=0, atol=1e-13
    )
    # idempotent, and the two parts are orthogonal under the invariant measure
    np.testing.assert_allclose(
        branch_projection(plus, "particle").values, plus.values, rtol=0, atol=1e-13
    )
    assert abs(momentum_inner(plus, minus)) <= 1e-13

    fw = to_fw_picture(mix)
    fw_plus = branch_projection(fw, "particle")
    assert np.abs(fw_plus.values[..., 2:]).max() == 0.0
    np.testing.assert_allclose(
        fw_plus.values,
        to_fw_picture(plus).values,
        rtol=0,
        atol=1e-13,
    )


def test_branch_projection_preconditions():
    f = _moving_packet()
    with pytest.raises(ValueError):
        branch_projection(f, "mixed")
    from rdlab.fields import antiparticle_gaussian_packet

    ap = antiparticle_gaussian_packet(GRID, M, (0.3, 0.0, 0.0), sigma=2.2)
    with pytest.raises(ValueError):
        branch_projection(ap, "antiparticle")


def test_concentration_box_tracks_packet():
    f = gaussian_packet(GRID, M, x0=(0.8, -0.5, 0.3), sigma=2.2)
    rho = density(to_coordinate(f))
    center, half = concentration_box(GRID, rho, 0.999)
    np.testing.assert_allclose(center, (0.8, -0.5, 0.3), atol=1e-6)
    _, half_tight = concentration_box(GRID, rho, 0.9)
    assert half_tight < half


def test_continuity_dirac_is_second_order_in_dt():
    mix = gaussian_packet(GRID, M, sigma=2.2, weights=(1.0, 1.0))
    coarse = continuity_residual(mix, 2e-3)
    fine = continuity_residual(mix, 1e-3)
    assert 3.5 <= coarse.residual_l2 / fine.residual_l2 <= 4.5
    assert fine.residual_l2 <= 1e-6
    assert not fine.dt_warning


def test_continuity_fw_defining_equation():
    f = _moving_packet()
    report = continuity_residual(to_fw_picture(f), 1e-5)
    assert report.residual_l2 <= 1e-10
    assert not report.dt_warning


def test_fw_current_more_nonlocal_than_dirac():
    # same physical state in both pictures: the pointwise Dirac current is
    # supported with the packet, the FW current carries far-field tails
    f = _moving_packet()
    dirac = continuity_residual(f, 1e-3)
    fw = continuity_residual(to_fw_picture(f), 1e-5)
    assert fw.nonlocality > 10.0 * dirac.nonlocality
    assert dirac.nonlocality < 1e-2


def test_continuity_dt_warning_flags_coarse_steps():
    mix = gaussian_packet(GRID, M, sigma=2.2, weights=(1.0, 1.0))
    assert continuity_residual(mix, 0.5).dt_warning == "too coarse"
    assert not continuity_residual(mix, 0.02).dt_warning
    with pytest.raises(ValueError):
        continuity_residual(mix, 0.0)


def test_continuity_dt_warning_flags_fine_steps():
    mix = gaussian_packet(GRID, M, sigma=2.2, weights=(1.0, 1.0))
    # rounding of the centred difference dominates, down to a zero difference
    assert continuity_residual(mix, 1e-15).dt_warning == "too fine"
    assert continuity_residual(mix, 1e-300).dt_warning == "too fine"


def test_zitterbewegung_mixed_packet_trembles_at_twice_mean_energy():
    mixed = gaussian_packet(Grid(32, 4.5), M, sigma=4.0, weights=(1.0, 1.0))
    result = zitterbewegung_experiment(mixed, duration=40.0, samples=128)
    assert abs(result.dominant_frequency / (2.0 * result.mean_energy) - 1.0) <= 0.05
    # the interference term leaves a visible oscillation on the coordinate track
    detrended = result.coordinate_track - result.times[:, None] * result.coordinate_slopes
    assert np.ptp(detrended[:, 2]) > 0.1


def test_zitterbewegung_pure_packet_moves_classically():
    pure = gaussian_packet(GRID, M, (0.4, 0.0, 0.2), sigma=2.2)
    result = zitterbewegung_experiment(pure, duration=6.0, samples=32)
    np.testing.assert_allclose(
        result.coordinate_slopes, result.velocity_expectation, rtol=0, atol=1e-3
    )
    np.testing.assert_allclose(
        result.branch_slopes, result.velocity_expectation, rtol=0, atol=1e-3
    )


def _applied_expectation(field, op):
    """Re <f, X f> / <f, f> from the operator fields, independent of
    position_expectation."""
    nn = momentum_inner(field, field).real
    return np.array([momentum_inner(field, xf).real / nn for xf in op(field)])


def _plus_channel(grid, mass, chi):
    """Unit +E eigenvector field [(E+m) r + alpha.p r] / sqrt(2E(E+m)), r = (chi, 0),
    from the 4x4 matrices, independent of the block kernel."""
    e = grid.energies(mass)
    r = np.concatenate([chi, [0, 0]])
    ar = np.einsum("xyzk,kab,b->xyza", grid.p, ALPHA, r)
    return ((e + mass)[..., None] * r + ar) / np.sqrt(2.0 * e * (e + mass))[..., None]


def _chained_tracks(packet, duration, samples):
    """The sampling loop before the split at t = 0: chained evolve steps and a
    projection per sample, contracted against both branch eigenspinors."""
    times = np.linspace(0.0, duration, samples)
    x_track = np.empty((samples, 3))
    b_track = np.empty((samples, 3))
    cur = packet
    for i in range(samples):
        x_track[i] = _applied_expectation(cur, apply_dirac_coordinate)
        vals = np.zeros_like(cur.values)
        for chi in (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)):
            v_plus = _plus_channel(cur.grid, cur.mass, chi)
            vals += np.einsum("xyza,xyza->xyz", v_plus.conj(), cur.values)[..., None] * v_plus
        b_track[i] = _applied_expectation(replace(cur, values=vals, branch="particle"), apply_xp)
        if i + 1 < samples:
            cur = evolve(cur, times[1] - times[0])
    return x_track, b_track


@pytest.mark.parametrize(
    "p0, weights, duration",
    [((0.3, 0.0, 0.0), (1.0, 1.0), 10.0), ((0.4, 0.0, 0.2), (1.0, 0.0), 4.0)],
    ids=["mixed", "pure"],
)
def test_zitterbewegung_tracks_match_chained_loop(p0, weights, duration):
    packet = gaussian_packet(Grid(32, 4.5), M, p0, sigma=4.0, weights=weights)
    result = zitterbewegung_experiment(packet, duration=duration, samples=16)
    x_track, b_track = _chained_tracks(packet, duration, 16)
    for got, want in ((result.coordinate_track, x_track), (result.branch_position_track, b_track)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_zitterbewegung_needs_enough_samples():
    with pytest.raises(ValueError):
        zitterbewegung_experiment(_moving_packet(), samples=8)
    with pytest.raises(ValueError, match="Dirac picture"):
        zitterbewegung_experiment(to_fw_picture(_moving_packet()), samples=16)
