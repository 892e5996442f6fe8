"""Evolution, branch projections, continuity audits and trembling motion."""
from __future__ import annotations

import itertools
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft as sfft
from conftest import centred_rate, density, lattice_p, lattice_x, peak_bytes, total_probability

from rdlab.clifford import ALPHA, pair
from rdlab.fields import (
    _ifft3,
    _measure,
    branch_projection,
    concentration_box,
    continuity_residuals,
    coordinate_current,
    coordinate_density,
    divergence,
    evolve,
    fw_current_density,
    gaussian_packet,
    momentum_inner,
    to_coordinate,
    to_fw_picture,
)
from rdlab.grids import Grid
from rdlab import positionops as po
from rdlab.positionops import apply_dirac_coordinate, apply_xp, tremble_moments, zitterbewegung_experiment

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
    # a particle packet is its own +E part; in the Dirac picture the -E part of a field is
    # f - branch_projection(f)
    f = _moving_packet()
    np.testing.assert_allclose(
        branch_projection(f).values, f.values, rtol=0, atol=1e-13
    )

    mix = gaussian_packet(GRID, M, (0.3, 0.0, 0.0), sigma=2.2, weights=(1.0, 0.6))
    plus = branch_projection(mix)
    minus = replace(mix, values=mix.values - plus.values)
    # idempotent, and the two parts are orthogonal under the invariant measure
    np.testing.assert_allclose(
        branch_projection(plus).values, plus.values, rtol=0, atol=1e-13
    )
    assert abs(momentum_inner(plus, minus)) <= 1e-13
    assert np.abs(branch_projection(minus).values).max() <= 1e-13

    # in the FW picture the +E part is the upper pair, that of the rotated +E part, whose
    # lower pair is zero to rounding; a spin +1/2 packet stores its component 0 alone
    fw_plus = branch_projection(to_fw_picture(mix))
    assert fw_plus.values.shape == (*mix.values.shape[:3], 1) and fw_plus.branch == "particle"
    plus_fw = to_fw_picture(plus).values
    assert np.abs(plus_fw[..., 1:]).max() <= 1e-13
    np.testing.assert_allclose(fw_plus.values, plus_fw[..., :1], rtol=0, atol=1e-13)


def test_branch_projection_preconditions():
    from rdlab.fields import antiparticle_gaussian_packet

    ap = antiparticle_gaussian_packet(GRID, M, (0.3, 0.0, 0.0), sigma=2.2)
    with pytest.raises(ValueError):
        branch_projection(ap)


@pytest.mark.parametrize("rep", ["dirac", "fw"])
def test_branch_projection_rejects_populated_negative_branch(rep):
    # a particle-labelled field must be its own +E part; the check runs one lattice
    # plane at a time, with no field-sized -E part
    f = _moving_packet()
    mix = _moving_packet((1.0, 1e-5))
    if rep == "fw":
        f, mix = to_fw_picture(f), to_fw_picture(mix)
    assert peak_bytes(lambda: branch_projection(f)) <= 1.25 * f.values.nbytes
    with pytest.raises(ValueError, match="-E branch"):
        branch_projection(replace(mix, branch="particle"))
    assert branch_projection(mix).branch == "particle"


def test_concentration_box_tracks_packet():
    f = gaussian_packet(GRID, M, x0=(0.8, -0.5, 0.3), sigma=2.2)
    rho = density(to_coordinate(f))
    center, half = concentration_box(GRID, rho, 0.999)
    np.testing.assert_allclose(center, (0.8, -0.5, 0.3), atol=1e-6)
    _, half_tight = concentration_box(GRID, rho, 0.9)
    assert half_tight < half


def _lattice_box(grid, rho, fraction):
    """concentration_box from the (n, n, n, 3) coordinate lattice (reference), with its
    sup-distance lattice."""
    total = np.sum(rho)
    x = lattice_x(grid)
    center = np.einsum("xyz,xyzk->k", rho, x) / total
    dist = np.max(np.abs(x - center), axis=-1)
    order = np.argsort(dist, axis=None)
    cum = np.cumsum(rho.ravel()[order])
    stop = min(int(np.searchsorted(cum, fraction * total)), cum.size - 1)
    return center, float(dist.ravel()[order][stop]), dist


@pytest.mark.parametrize("picture", ["dirac", "fw"])
def test_box_and_outside_mask_match_the_coordinate_lattice(picture):
    # sup distances from the three axis distances, bit for bit: a centroid or face that
    # moved by one ulp would move the FW nonlocality at the percent level
    f = gaussian_packet(GRID, M, (0.3, -0.1, 0.05), (0.4, 0.0, -0.3), sigma=2.2)
    if picture == "fw":
        f = to_fw_picture(f)
    rho = coordinate_density(f)
    for fraction in (0.9, 0.999):  # the audit's cube last
        center, half, dist = _lattice_box(GRID, rho, fraction)
        got_center, got_half = concentration_box(GRID, rho, fraction)
        assert np.array_equal(got_center, center) and got_half == half
    j = coordinate_current(f) if picture == "dirac" else fw_current_density(f)
    jmag = np.sqrt(np.einsum("xyzk,xyzk->xyz", j, j))
    [report] = continuity_residuals(f, [1e-3])
    assert report.nonlocality == float(np.sum(jmag[dist > half]) / np.sum(jmag))


def test_box_from_axis_prefix_sums_matches_the_argsort_form():
    # random densities, and a node-centred one whose centroid is 0 up to rounding, with
    # face ties at every |x|: the prefix-sum search returns the argsort form's box
    rng = np.random.default_rng(11)
    x = GRID.x1d
    r2 = x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
    tied = np.exp(-r2 / 3.0)
    for k in range(3):  # drop the unpaired -L/2 face so that each |x| has both faces
        np.moveaxis(tied, k, 0)[GRID.n // 2] = 0.0
    for rho in [rng.random(tied.shape) ** 6 for _ in range(3)] + [tied]:
        for fraction in (0.3, 0.9, 0.999):
            center, half, _ = _lattice_box(GRID, rho, fraction)
            got_center, got_half = concentration_box(GRID, rho, fraction)
            assert np.array_equal(got_center, center) and got_half == half


def test_continuity_dirac_is_second_order_in_dt():
    mix = gaussian_packet(GRID, M, sigma=2.2, weights=(1.0, 1.0))
    coarse, fine = continuity_residuals(mix, [2e-3, 1e-3])
    assert 3.5 <= coarse.residual_l2 / fine.residual_l2 <= 4.5
    assert fine.residual_l2 <= 1e-6
    assert not fine.dt_warning


def test_continuity_fw_defining_equation():
    f = _moving_packet()
    [report] = continuity_residuals(to_fw_picture(f), [1e-5])
    assert report.residual_l2 <= 1e-10
    assert not report.dt_warning


def test_fw_current_more_nonlocal_than_dirac():
    # same physical state in both pictures: the pointwise Dirac current is
    # supported with the packet, the FW current carries far-field tails
    f = _moving_packet()
    [dirac] = continuity_residuals(f, [1e-3])
    [fw] = continuity_residuals(to_fw_picture(f), [1e-5])
    assert fw.nonlocality > 10.0 * dirac.nonlocality
    assert dirac.nonlocality < 1e-2


def test_continuity_dt_warning_flags_coarse_steps():
    mix = gaussian_packet(GRID, M, sigma=2.2, weights=(1.0, 1.0))
    coarse, fine = continuity_residuals(mix, [0.5, 0.02])
    assert coarse.dt_warning == "too coarse"
    assert not fine.dt_warning


@pytest.mark.parametrize("dts", [[], [float("nan")], [1e-3, float("inf")], [0.0], [1e-3, -1e-3]],
                         ids=["empty", "nan", "inf", "zero", "negative"])
def test_continuity_rejects_bad_steps(dts):
    # a NaN step would otherwise give a report full of NaN and no warning
    with pytest.raises(ValueError):
        continuity_residuals(_moving_packet(), dts)


@pytest.mark.parametrize("picture", ["dirac", "fw"])
def test_continuity_steps_share_one_prelude(picture):
    # one multi-step audit equals the single-step audits, field by field, and its
    # centred difference is that of the evolved fields, taken in long double. The packet
    # moves, with unequal branch weights: otherwise the FW densities of the two branches
    # move apart symmetrically, their rates cancel, and the rate is rounding alone
    f = _moving_packet((1.0, 0.6))
    if picture == "fw":
        f = to_fw_picture(f)
    dts = [2e-3, 0.5, 1e-5]
    reports = continuity_residuals(f, dts)
    assert reports == [continuity_residuals(f, [dt])[0] for dt in dts]
    j = coordinate_current(f) if picture == "dirac" else fw_current_density(f)
    div = divergence(GRID, j)
    norm = total_probability(to_coordinate(f))
    for dt, rep in zip(dts, reports):
        rate = centred_rate(f, dt)
        residual = float(np.sqrt(np.sum((rate + div) ** 2) * GRID.dx**3))
        assert abs(rep.residual_l2 - residual) <= 1e-12 * rep.rate_scale
        assert abs(rep.rate_scale - float(np.sqrt(np.sum(rate**2) * GRID.dx**3))) <= 1e-12 * rep.rate_scale
        assert abs(rep.probability - norm) <= 1e-13


def test_continuity_dt_warning_flags_fine_steps():
    # no step is too fine: the centred rate has no rounding floor, and down to a step below
    # the resolution of the phase the Dirac current closes continuity to rounding
    mix = gaussian_packet(GRID, M, sigma=2.2, weights=(1.0, 1.0))
    scale = float(np.sqrt(np.sum(divergence(GRID, coordinate_current(mix)) ** 2) * GRID.dx**3))
    for report in continuity_residuals(mix, [1e-15, 1e-300]):
        assert report.dt_warning is None
        assert report.residual_l2 <= 1e-13 * scale


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
    ar = np.einsum("xyzk,kab,b->xyza", lattice_p(grid), ALPHA, r)
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


# the mixed packet's tracks are in closed form, which drops the periodic wrap of the lattice
# coordinate that the sampled loop carries: on Grid(32, 4.5) the two differ by 7e-2 of the
# coordinate track, on Grid(40, 2.0), a box 2.8 times wider, by 1.8e-15
@pytest.mark.parametrize(
    "grid, p0, weights, duration",
    [(Grid(40, 2.0), (0.3, 0.0, 0.0), (1.0, 1.0), 10.0), (Grid(32, 4.5), (0.4, 0.0, 0.2), (1.0, 0.0), 4.0)],
    ids=["mixed", "pure"],
)
def test_zitterbewegung_tracks_match_chained_loop(grid, p0, weights, duration):
    packet = gaussian_packet(grid, M, p0, sigma=4.0, weights=weights)
    result = zitterbewegung_experiment(packet, duration=duration, samples=16)
    x_track, b_track = _chained_tracks(packet, duration, 16)
    for got, want in ((result.coordinate_track, x_track), (result.branch_position_track, b_track)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_zitterbewegung_needs_enough_samples():
    with pytest.raises(ValueError):
        zitterbewegung_experiment(_moving_packet(), samples=8)
    with pytest.raises(ValueError, match="Dirac picture"):
        zitterbewegung_experiment(to_fw_picture(_moving_packet()), samples=16)


@pytest.mark.parametrize(
    "duration, message",
    [(0.0, "finite and positive"), (-1.0, "finite and positive"), (np.nan, "finite and positive"),
     (np.inf, "finite and positive"), (1e300, "Nyquist frequency"), (1e-300, "sample spacing")],
)
def test_zitterbewegung_needs_a_finite_resolving_duration(duration, message):
    # a mixed track sampled below its trembling frequency 2<E> is rejected too
    packet = gaussian_packet(Grid(16, 4.0), M, (0.3, 0.0, 0.0), sigma=2.0, weights=(1.0, 1.0))
    with pytest.raises(ValueError, match=message):
        zitterbewegung_experiment(packet, duration=duration, samples=16)


def test_tremble_moments_reject_a_spacing_whose_square_underflows():
    # the slope fits square the sample times: a spacing whose square is a normal float
    # passes, and the next one down fails
    packet = gaussian_packet(Grid(16, 4.0), M, (0.3, 0.0, 0.0), sigma=2.0)
    tiny = np.finfo(float).tiny
    edge = 15.0 * np.sqrt(tiny) * (1.0 + 1e-15)
    assert (edge / 15.0) ** 2 >= tiny
    tremble_moments(packet, edge, 16)
    with pytest.raises(ValueError, match="sample spacing"):
        tremble_moments(packet, 15.0 * np.sqrt(tiny) * (1.0 - 1e-15), 16)


def test_spin_orbit_shift_is_constant_along_the_branch_track():
    # X_P - x-hat on a_+(t) = e^{-iEt} a_+ is the shift of a_+ at t = 0 at every
    # sample, from the operator fields; the closed-form branch track subtracts that
    # hoisted shift. Grid(48, 2.2) is a box wide enough that the sampled coordinate
    # carries no wrap at this bound: the closed form is off by 5e-14 of the shift
    # here, and by 2.7 times the shift on Grid(32, 4.5)
    packet = gaussian_packet(Grid(48, 2.2), M, (0.4, 0.0, 0.2), sigma=4.0, weights=(1.0, 1.0))
    result = zitterbewegung_experiment(packet, duration=10.0, samples=16)
    plus = branch_projection(packet)
    shift = po._spin_orbit_shift(plus)
    e, w, n3 = plus.grid.energies(M), _measure(plus), plus.grid.n**3
    for t, branch in zip(result.times, result.branch_position_track):
        a = replace(plus, values=np.exp(-1j * e * t)[..., None] * plus.values)
        want = -shift / (np.sum(w * pair(a.values, a.values)) / n3)
        coordinate = _applied_expectation(a, apply_dirac_coordinate)
        for got in (_applied_expectation(a, apply_xp) - coordinate, branch - coordinate):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_zitterbewegung_memory_does_not_grow_with_samples(monkeypatch):
    # each lane's buffers serve every sample it takes, and the closed form evaluates
    # one sample at a time from per-shell sums: the peak is a few fields, whatever the
    # count, and no sample allocates (one lane, then two)
    for threads, weights in itertools.product(("1", "2"), ((1.0, 1.0), (1.0, 0.0))):
        monkeypatch.setenv("RDLAB_THREADS", threads)
        packet = gaussian_packet(Grid(32, 4.0), M, (0.3, 0.0, 0.0), sigma=4.0, weights=weights)
        peaks = []
        for samples in (16, 48):
            tracemalloc.start()
            try:
                zitterbewegung_experiment(packet, duration=10.0, samples=samples)
                peaks.append(tracemalloc.get_traced_memory()[1] / packet.values.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 4.5
        assert abs(peaks[1] - peaks[0]) <= 0.01


def _four_component_expectation(grid, w, sample, weighted):
    """position_expectation as it was before it formed one spinor component at a
    time: `sample` and `weighted` are (n, n, n, 4), `w` has a trailing spinor axis."""
    np.multiply(w, sample, out=weighted)
    psi = _ifft3(sample, overwrite_x=True)
    d = pair(_ifft3(weighted, overwrite_x=True), psi)
    moments = np.array([np.sum(grid.x1d * d.sum(axis=axes)) for axes in ((1, 2), (0, 2), (0, 1))])
    return moments, np.sum(d)


def _two_call_tracks(packet, duration, samples):
    """The sampling loop with one four-component expectation per track and
    sample, whatever the packet's label: the coordinate track samples
    e^{+iEt} f - 2i sin(Et) a_+, the branch track e^{-iEt} a_+."""
    grid, f = packet.grid, packet.values
    e = grid.energies(packet.mass)
    w = _measure(packet)[..., None]
    plus = branch_projection(packet)
    shift = po._spin_orbit_shift(plus)
    x_track = np.empty((samples, 3))
    b_track = np.empty((samples, 3))
    sample, weighted = np.empty_like(f), np.empty_like(f)
    for i, t in enumerate(np.linspace(0.0, duration, samples)):
        phase = np.exp(-1j * e * t)[..., None]
        np.multiply(phase, plus.values, out=sample)
        moments, norm = _four_component_expectation(grid, w, sample, weighted)
        b_track[i] = (moments - shift) / norm
        np.multiply(phase.conj(), f, out=sample)
        np.multiply((2j * np.sin(e * t))[..., None], plus.values, out=weighted)
        sample -= weighted
        moments, norm = _four_component_expectation(grid, w, sample, weighted)
        x_track[i] = moments / norm
    return x_track, b_track


def _whole_field_tracks(packet, duration, samples):
    """The closed form of a mixed packet's tracks from four-component fields:
    D_+- = i d/dp_k a_+- from spectral_momentum_derivative, and the interference
    term summed node by node as Re e^{2iEt} (a_+^dag D_- + conj(a_-^dag D_+))."""
    grid, f = packet.grid, packet.values
    e, w = grid.energies(packet.mass), _measure(packet)
    plus = branch_projection(packet)
    minus = replace(packet, values=f - plus.values)
    shift = po._spin_orbit_shift(plus) * grid.n**3
    times = np.linspace(0.0, duration, samples)
    x_track, b_track = np.empty((samples, 3)), np.empty((samples, 3))
    sq_plus, sq_minus = w * pair(plus.values, plus.values), w * pair(minus.values, minus.values)
    derivatives = zip(po.spectral_momentum_derivative(plus), po.spectral_momentum_derivative(minus))
    for k, (d_plus, d_minus) in enumerate(derivatives):
        own_plus = np.sum(w * pair(plus.values, d_plus))
        own = own_plus + np.sum(w * pair(minus.values, d_minus))
        drift_plus = np.sum(lattice_p(grid)[..., k] / e * sq_plus)
        drift = drift_plus - np.sum(lattice_p(grid)[..., k] / e * sq_minus)
        cross = w * (np.einsum("xyzc,xyzc->xyz", plus.values.conj(), d_minus)
                     + np.einsum("xyzc,xyzc->xyz", minus.values.conj(), d_plus).conj())
        for i, t in enumerate(times):
            x_track[i, k] = own + t * drift + np.sum((np.exp(2j * e * t) * cross).real)
            b_track[i, k] = own_plus + t * drift_plus - shift[k]
    return x_track / (np.sum(sq_plus) + np.sum(sq_minus)), b_track / np.sum(sq_plus)


@pytest.mark.parametrize("weights", [(1.0, 0.0), (1.0, 1.0)], ids=["particle", "mixed"])
def test_zitterbewegung_tracks_match_two_call_loop(weights):
    # a particle packet's coordinate track is its branch track's transforms, equal to
    # the second sample up to rounding; per-component sums move only the last bits.
    # A mixed packet's tracks are the closed form, which leaves out the lattice
    # coordinate's periodic wrap that the sampled loop carries (8.5e-3 of the track on
    # this lattice): its oracle is the same identity on four-component fields, summed
    # node by node
    packet = gaussian_packet(Grid(32, 4.5), M, (0.4, 0.0, 0.2), sigma=4.0, weights=weights)
    result = zitterbewegung_experiment(packet, duration=4.0, samples=16)
    oracle = _two_call_tracks if packet.branch == "particle" else _whole_field_tracks
    x_track, b_track = oracle(packet, 4.0, 16)
    for got, want in ((result.coordinate_track, x_track), (result.branch_position_track, b_track)):
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_closed_form_gap_to_the_sampled_tracks_is_lattice_wrap():
    # doubling n at fixed pmax doubles the box: the saw-tooth coordinate's wrap, which
    # the sampled loop carries and the closed form does not, falls from 8.5e-3 of the
    # track to 1.6e-10
    gaps = []
    for n in (32, 64):
        packet = gaussian_packet(Grid(n, 4.5), M, (0.4, 0.0, 0.2), sigma=4.0, weights=(1.0, 1.0))
        result = zitterbewegung_experiment(packet, duration=4.0, samples=16)
        x_track, b_track = _two_call_tracks(packet, 4.0, 16)
        gaps.append(max(np.abs(result.coordinate_track - x_track).max() / np.abs(x_track).max(),
                        np.abs(result.branch_position_track - b_track).max() / np.abs(b_track).max()))
    assert gaps[1] <= gaps[0] / 100.0


def test_zitterbewegung_tracks_do_not_depend_on_the_thread_count(monkeypatch):
    # 17 samples: two lanes take 9 and 8
    packets = [gaussian_packet(Grid(32, 4.5), M, (0.4, 0.0, 0.2), sigma=4.0, weights=weights)
               for weights in ((1.0, 1.0), (1.0, 0.0))]

    def tracks(threads):
        monkeypatch.setenv("RDLAB_THREADS", threads)
        results = [zitterbewegung_experiment(p, duration=4.0, samples=17) for p in packets]
        return [(r.coordinate_track, r.branch_position_track) for r in results]

    def equal(got, want):
        return all(np.array_equal(g, w) for pair_got, pair_want in zip(got, want)
                   for g, w in zip(pair_got, pair_want))

    want = tracks("1")
    assert equal(tracks("2"), want) and equal(tracks("3"), want)
    # four lanes on at most two cores, switching often: a sample written into another's
    # row, or a buffer shared between lanes, would change the tracks
    monkeypatch.setattr(po, "LANES", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert equal(tracks("4"), want)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("weights", [(1.0, 0.0), (1.0, 1.0)], ids=["particle", "mixed"])
def test_zitterbewegung_expectations_per_sample(monkeypatch, weights):
    # a particle packet: one expectation per sample serves both tracks, one batched inverse
    # transform per spinor component, of the (2, n, n, n) pair of the component and its
    # weighted copy: the work of two (n, n, n) transforms. A mixed packet:
    # no expectation and no sample transformed; per spinor component, one inverse
    # transform of each branch amplitude and one forward transform per axis and branch,
    # 32 in all at any sample count
    packet = gaussian_packet(Grid(16, 4.0), M, (0.3, 0.0, 0.0), sigma=2.0, weights=weights)
    expectation, ifftn, fftn = po.position_expectation, sfft.ifftn, sfft.fftn
    for samples in (16, 48):
        calls, transforms = [], []

        def counted(*args):
            calls.append(args)
            return expectation(*args)

        def counting(transform):
            def counted_transform(x, *args, **kwargs):
                transforms.append((transform.__name__, x.shape))
                return transform(x, *args, **kwargs)
            return counted_transform

        monkeypatch.setattr(po, "position_expectation", counted)
        monkeypatch.setattr(sfft, "ifftn", counting(ifftn))
        monkeypatch.setattr(sfft, "fftn", counting(fftn))
        zitterbewegung_experiment(packet, duration=4.0, samples=samples)
        if packet.branch == "particle":
            assert len(calls) == samples
            assert transforms == [("ifftn", (2, 16, 16, 16))] * (4 * samples)
        else:
            assert calls == []
            assert transforms == [("ifftn", (16, 16, 16)), *[("fftn", (16, 16, 16))] * 3] * 8


def test_closed_form_stage_peak_memory():
    # five (n, n, n) buffers and a few real node arrays: D_+- is reduced one spinor
    # component and axis at a time, so no four-component D field is ever held.
    # Measured 1.90 fields; holding the D fields of one axis as four-component
    # arrays (spectral_momentum_derivative of a_+ and a_-) peaks at 7.3
    packet = gaussian_packet(Grid(32, 4.0), M, (0.3, 0.0, 0.0), sigma=4.0, weights=(1.0, 1.0))
    plus = branch_projection(packet)
    shift = po._spin_orbit_shift(plus)
    times = np.linspace(0.0, 10.0, 48)
    assert peak_bytes(lambda: po._closed_form_tracks(packet, plus, shift, times)) <= 2.1 * packet.values.nbytes


@pytest.mark.parametrize("weights, branch", [((0.0, 1.0), "+E"), ((1.0, 0.0), "-E")])
def test_zitterbewegung_rejects_a_mixed_packet_with_an_empty_branch(weights, branch):
    # that branch's track would be normalised from rounding noise (|a_+|^2 ~ 1e-33)
    packet = replace(gaussian_packet(Grid(16, 4.0), M, (0.3, 0.0, 0.0), sigma=2.0, weights=weights), branch="mixed")
    with pytest.raises(ValueError, match=re.escape(f"the {branch} branch of the mixed packet")):
        zitterbewegung_experiment(packet, duration=4.0, samples=16)


def test_zitterbewegung_rejects_a_mislabelled_mixed_packet():
    # a field labelled particle that carries -E content would lose its trembling
    mixed = gaussian_packet(Grid(16, 4.0), M, (0.3, 0.0, 0.0), sigma=2.0, weights=(1.0, 1.0))
    with pytest.raises(ValueError, match="-E branch"):
        zitterbewegung_experiment(replace(mixed, branch="particle"), duration=4.0, samples=16)
