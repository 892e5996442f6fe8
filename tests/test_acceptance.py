"""End-to-end acceptance checks: one pass/fail line per headline criterion.

Physical scale m = 1 throughout. Each check runs at the coarsest lattice
geometry that attains its stated tolerance; boundary-wrap and band-limit
floors behind those geometry choices are documented in the library modules.
"""
from __future__ import annotations

import numpy as np
from conftest import covariance_packet, density, locality_integral, total_probability
from scipy.integrate import quad

from rdlab import covlab
from rdlab import positionops as po
from rdlab.clifford import ALPHA, BETA, GAMMA, GAMMA5, SIGMA, anticommutation_defect, anticommutator, commutator
from rdlab.fields import (
    CoordinateField,
    continuity_residuals,
    evolve,
    gaussian_packet,
    momentum_inner,
    to_coordinate,
    to_fw_picture,
)
from rdlab.grids import Grid
from rdlab.positionops import zitterbewegung_experiment
from rdlab.lorentz import boost, energy, rotation
from rdlab.spinors import (
    dirac_adjoint,
    dirac_spinor,
    fw_matrix,
    hamiltonian,
    spinor_boost,
    spinor_rotation,
)

M = 1.0
RNG = np.random.default_rng(20260815)
EYE = np.eye(4)


def random_momenta(count: int, pmax: float):
    directions = RNG.normal(size=(count, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions * RNG.uniform(0.0, pmax, size=(count, 1))


def test_criterion_1_matrix_algebra_exact():
    # generator identities hold entry-by-entry in integer-complex arithmetic
    assert anticommutation_defect().max() == 0.0
    defect = np.abs(GAMMA5 @ GAMMA5 - EYE).max()
    for mu in range(4):
        defect = max(defect, np.abs(anticommutator(GAMMA5, GAMMA[mu])).max())
    defect = max(defect, np.abs(BETA @ BETA - EYE).max(), np.abs(BETA.conj().T - BETA).max())
    for j in range(3):
        defect = max(defect, np.abs(ALPHA[j] @ ALPHA[j] - EYE).max())
        defect = max(defect, np.abs(ALPHA[j].conj().T - ALPHA[j]).max())
        defect = max(defect, np.abs(anticommutator(ALPHA[j], BETA)).max())
        for k in range(j + 1, 3):
            defect = max(defect, np.abs(anticommutator(ALPHA[j], ALPHA[k])).max())
    for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        defect = max(defect, np.abs(commutator(SIGMA[j], SIGMA[k]) - 2j * SIGMA[l]).max())
    assert defect == 0.0


def test_criterion_2_spinor_eigensystem_and_norms():
    worst_eigen = worst_norm = 0.0
    for p in random_momenta(1000, 10.0 * M):
        e = energy(p, M)
        for branch, sgn in (("particle", 1.0), ("antiparticle", -1.0)):
            h = hamiltonian(p, M, branch)
            for lam in (0.5, -0.5):
                psi = dirac_spinor(p, M, branch, lam)
                worst_eigen = max(worst_eigen, np.linalg.norm(h @ psi - e * psi) / e)
                worst_norm = max(worst_norm, abs(psi.conj() @ psi - e / M) * M / e)
                worst_norm = max(worst_norm, abs(dirac_adjoint(psi) @ psi - sgn))
        hp = hamiltonian(p, M, "particle")
        psi_op = dirac_spinor(-p, M, "antiparticle", 0.5)
        worst_eigen = max(worst_eigen, np.linalg.norm(hp @ psi_op + e * psi_op) / e)
    assert worst_eigen <= 1e-12
    assert worst_norm <= 1e-12


def test_criterion_3_representation_transport_and_fw_diagonalization():
    worst_pseudo = worst_vector = 0.0
    for _ in range(200):
        chi = RNG.normal(size=3)
        chi *= RNG.uniform(0.0, 3.0) / np.linalg.norm(chi)
        ax, an = RNG.normal(size=3), RNG.uniform(0.0, 2.0 * np.pi)
        reps = [
            (spinor_boost(chi), boost(chi)),
            (spinor_rotation(ax, an), rotation(ax, an)),
            (spinor_boost(chi) @ spinor_rotation(ax, an), boost(chi) @ rotation(ax, an)),
        ]
        for s, lam in reps:
            worst_pseudo = max(worst_pseudo, np.abs(GAMMA[0] @ s.conj().T @ GAMMA[0] @ s - EYE).max())
            s_inv = GAMMA[0] @ s.conj().T @ GAMMA[0]
            scale = max(1.0, np.abs(lam).max())
            for mu in range(4):
                expect = np.einsum("n,nab->ab", lam[mu], GAMMA)
                worst_vector = max(worst_vector, np.abs(s_inv @ GAMMA[mu] @ s - expect).max() / scale)
    assert worst_pseudo <= 1e-12
    assert worst_vector <= 1e-12

    worst_fw = 0.0
    for p in random_momenta(300, 10.0 * M):
        e = energy(p, M)
        u = fw_matrix(p, M)
        h = hamiltonian(p, M, "particle")
        worst_fw = max(worst_fw, np.abs(u @ h @ u.conj().T - e * BETA).max() / e)
    assert worst_fw <= 1e-12


def test_criterion_4_localized_overlaps_decay_and_agree():
    displacements = (0.0, 1.0, 2.0, 3.0, 5.0)
    epsilons = (0.1, 0.03, 0.01)
    floor = 1e-12  # overlaps below this fraction of peak are cancellation noise
    ratios = {}
    agreement = 0.0
    for eps in epsilons:
        peak = locality_integral("dirac", "particle", 0.5, (0, 0, 0), eps, M)
        seq = []
        for d in displacements:
            val = locality_integral("dirac", "particle", 0.5, (0, 0, d), eps, M)
            val_fw = locality_integral("fw", "particle", 0.5, (0, 0, d), eps, M)
            agreement = max(agreement, abs(val - val_fw) / abs(peak))
            seq.append(abs(val) / abs(peak))
            # the closed form `rdlab locality` writes, to the quadrature's rounding of the peak
            np.testing.assert_allclose(seq[-1], np.exp(-d * d / (4.0 * eps)), rtol=1e-9, atol=1e-15)
        ratios[eps] = seq
        assert seq[-1] <= 1e-3  # |a| = 5/m
        for prev, cur in zip(seq, seq[1:]):  # monotone in displacement
            assert cur <= prev or cur <= floor
    for i in range(1, len(displacements)):  # monotone in the regulator
        for e_prev, e_cur in zip(epsilons, epsilons[1:]):
            cur = ratios[e_cur][i]
            assert cur <= ratios[e_prev][i] or cur <= floor
    assert agreement <= 1e-12


def test_criterion_5_position_eigenstates_hermiticity_equivalence():
    grid = Grid(64, 6.0)
    worst = 0.0
    for i in (-1.0, 0.0, 1.0):
        for j in (-1.0, 0.0, 1.0):
            for k in (-1.0, 0.0, 1.0):
                res = po.localized_eigen_residuals(grid, M, (i, j, k), 0.5, "particle", "dirac")
                worst = max(worst, res.max())
    for rep, branch in (("dirac", "antiparticle"), ("fw", "particle"), ("fw", "antiparticle")):
        res = po.localized_eigen_residuals(grid, M, (1.0, -1.0, 1.0), 0.5, branch, rep)
        worst = max(worst, res.max())
    assert worst <= 1e-6

    def adjoint_defect(op, f, g2):
        return max(
            abs(momentum_inner(g2, xf) - momentum_inner(xg, f))
            for xf, xg in zip(op(f), op(g2))
        )

    f = gaussian_packet(grid, M, (0.5, -1.0, 0.0), (0.4, 0.0, -0.3), sigma=2.5, spin=0.5)
    g2 = gaussian_packet(grid, M, (0.0, 0.8, -0.5), (-0.2, 0.5, 0.1), sigma=2.5, spin=-0.5)
    herm = adjoint_defect(po.apply_xp, f, g2)
    herm = max(herm, adjoint_defect(po.apply_xfw, to_fw_picture(f), to_fw_picture(g2)))
    assert herm <= 1e-10

    equiv = gaussian_packet(grid, M, (0.5, -1.0, 0.0), (0.4, 0.0, -0.3), sigma=2.2, spin=0.5)
    assert po.mean_position_equivalence(equiv).max() <= 1e-6


def test_criterion_6_yukawa_tail_oracle_and_two_sided_consistency():
    # spectral tail vs brute-force radial quadrature of the defining convolution
    g = Grid(16, 2.5)
    s = 2.0
    spinor = np.array([0.6, -0.3 + 0.4j, 0.2j, 0.5])
    psi = np.exp(-np.einsum("xyzk,xyzk->xyz", g.x, g.x) / (2.0 * s * s))
    cf = CoordinateField(g, psi[..., None] * spinor, M, "fw", "particle")
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
    for k, tail in enumerate(po.yukawa_tail(cf)):
        oracle = (g.x[..., k][mask] * facs)[:, None] * spinor
        got = tail.values[mask]
        assert np.linalg.norm(oracle - got) <= 1e-3 * np.linalg.norm(got)

    # two-sided check of the coordinate form of the FW position operator
    packet = to_fw_picture(gaussian_packet(Grid(64, 4.0), M, (0.3, 0.0, 0.0), sigma=2.0))
    assert po.tail_consistency_residual(packet) <= 1e-8


def test_criterion_7_trembling_frequency_and_uniform_transport():
    mixed = zitterbewegung_experiment(
        gaussian_packet(Grid(32, 4.5), M, (0.3, 0.0, 0.0), sigma=4.0, weights=(1.0, 1.0)),
        duration=40.0, samples=128,
    )
    assert abs(mixed.dominant_frequency / (2.0 * mixed.mean_energy) - 1.0) <= 0.05

    pure = zitterbewegung_experiment(
        gaussian_packet(Grid(48, 6.0), M, (0.4, 0.0, 0.2), sigma=2.2), duration=6.0, samples=32
    )
    assert np.abs(pure.coordinate_slopes - pure.velocity_expectation).max() <= 1e-3
    assert np.abs(pure.branch_slopes - pure.velocity_expectation).max() <= 1e-3


def test_criterion_8_continuity_orders_norm_and_nonlocality():
    grid = Grid(64, 8.0)
    mixed = gaussian_packet(grid, M, (0.3, 0.0, 0.0), sigma=2.5, weights=(1.0, 1.0))
    reports = continuity_residuals(mixed, [2e-3 / 2**k for k in range(3)])
    for coarse, fine in zip(reports, reports[1:]):
        ratio = coarse.residual_l2 / fine.residual_l2
        assert 3.5 <= ratio <= 4.5  # centered-difference second order in dt

    norm0 = total_probability(to_coordinate(mixed))
    norm_t = total_probability(to_coordinate(evolve(mixed, 100.0)))
    assert abs(norm_t - norm0) <= 1e-12
    assert abs(reports[0].probability - norm0) <= 1e-12

    pure_fw = to_fw_picture(gaussian_packet(grid, M, (0.3, 0.0, 0.0), sigma=2.5))
    [fw_report] = continuity_residuals(pure_fw, [1e-5])
    assert fw_report.residual_l2 <= 1e-10  # FW current's defining equation
    assert fw_report.nonlocality > reports[0].nonlocality  # nonlocality proxy gap


def test_criterion_9_frame_consistency_discriminates_densities():
    grid = Grid(48, 6.0)
    packet = covariance_packet(grid)
    sweep48 = covlab.covariance_sweep(packet, (0.1, 0.25, 0.5), axis=1)[0]
    exp48 = sweep48[-1]
    exp64 = covlab.covariance_sweep(covariance_packet(Grid(64, 6.0)), (0.5,), axis=1)[0][0]
    # covariant pair: slice residual within tolerance and shrinking under refinement
    assert exp48.dirac_residual <= 1e-4
    assert exp64.dirac_residual <= 1e-4
    assert exp64.dirac_residual < 0.1 * exp48.dirac_residual
    # FW pair: violation at least 10x above the lattice residual, stable under
    # refinement, and vanishing with the boost
    assert exp48.fw_violation >= 10.0 * exp48.dirac_residual
    assert exp64.fw_violation >= 10.0 * exp64.dirac_residual
    v = {rep.rapidity: rep.fw_violation for rep in sweep48}
    assert v[0.1] < v[0.25] < exp48.fw_violation
    assert v[0.1] <= 0.25 * exp48.fw_violation

    # pure rotations are exact lattice symmetries in both pictures
    for field in (packet, to_fw_picture(packet)):
        rho = density(to_coordinate(field))
        rho_rot = density(to_coordinate(covlab.rotate_field(field, 2, 1)))
        perm = covlab.rotate_scalar_lattice(rho, 2, 1)
        assert np.linalg.norm(rho_rot - perm) <= 1e-6 * np.linalg.norm(rho)

    # region probability transported via the local 4-current is invariant for
    # every region; some FW region misses the budget by more than the tolerance
    assert exp64.dirac_tv <= 1e-3
    assert exp64.fw_tv >= 1e-3
    assert exp64.fw_tv >= 100.0 * exp64.dirac_tv
