"""Spinor algebra: eigen-relations, normalization, boosts, FW transform, Wigner transport."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import axis_angle, fw_spinor, momentum_pair, wigner_rotation

from rdlab.clifford import ALPHA, BETA, GAMMA, alpha_dot
from rdlab.lorentz import boost, energy, rotation
from rdlab.spinors import (
    alpha_matrix,
    dirac_adjoint,
    dirac_spinor,
    fw_matrix,
    hamiltonian,
    pauli_spinor,
    rest_spinor,
    spinor_boost,
    spinor_rotation,
    standard_spinor_inverse,
    standard_spinor_matrix,
    wigner_spinor_matrix,
)

RNG = np.random.default_rng(7)
M = 1.0
LAMS = (0.5, -0.5)
EYE = np.eye(4)


def momenta(n, pmax=10.0):
    # isotropic directions, |p| up to pmax (in units of m)
    u = RNG.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u * RNG.uniform(0.05, pmax, size=(n, 1))


def test_rest_spinors():
    np.testing.assert_array_equal(rest_spinor("particle", 0.5), [1, 0, 0, 0])
    np.testing.assert_array_equal(rest_spinor("particle", -0.5), [0, 1, 0, 0])
    np.testing.assert_array_equal(rest_spinor("antiparticle", 0.5), [0, 0, 1, 0])
    np.testing.assert_array_equal(rest_spinor("antiparticle", -0.5), [0, 0, 0, 1])
    with pytest.raises(ValueError):
        rest_spinor("mixed", 0.5)
    with pytest.raises(ValueError):
        pauli_spinor(1.0)


def test_alpha_matrix():
    # the 4x4 matrix alpha.p, whose action is the block kernel clifford.alpha_dot
    rng = np.random.default_rng(11)  # the module RNG stream stays as the other tests drew it
    for p in rng.uniform(-10.0, 10.0, size=(6, 3)):
        np.testing.assert_array_equal(alpha_matrix(p), np.einsum("k,kab->ab", p, ALPHA))
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_allclose(alpha_matrix(p) @ v, alpha_dot(momentum_pair(p), v), rtol=0, atol=1e-14 * np.abs(p).sum())


def test_energy_eigen_relations():
    # each branch spinor is an E_p eigenvector of its own Hamiltonian
    for p in momenta(12):
        e = energy(p, M)
        for branch in ("particle", "antiparticle"):
            h = hamiltonian(p, M, branch)
            for lam in LAMS:
                psi = dirac_spinor(p, M, branch, lam)
                np.testing.assert_allclose(h @ psi, e * psi, rtol=0, atol=1e-12 * e)


def test_opposite_node_negative_energy():
    # antiparticle spinor at -p is the -E_p eigenvector of the particle Hamiltonian at p
    for p in momenta(6):
        e = energy(p, M)
        h = hamiltonian(p, M, "particle")
        for lam in LAMS:
            psi = dirac_spinor(-p, M, "antiparticle", lam)
            np.testing.assert_allclose(h @ psi, -e * psi, rtol=0, atol=1e-12 * e)


def test_normalization_and_orthogonality():
    for p in momenta(8):
        e = energy(p, M)
        for branch, sgn in (("particle", 1.0), ("antiparticle", -1.0)):
            psi_up = dirac_spinor(p, M, branch, 0.5)
            psi_dn = dirac_spinor(p, M, branch, -0.5)
            np.testing.assert_allclose(psi_up.conj() @ psi_up, e / M, rtol=1e-13)
            np.testing.assert_allclose(dirac_adjoint(psi_up) @ psi_up, sgn, atol=1e-13)
            assert abs(psi_up.conj() @ psi_dn) < 1e-13
        # same-node cross-branch spinors are NOT orthogonal ...
        a = dirac_spinor(p, M, "particle", 0.5)
        b = dirac_spinor(p, M, "antiparticle", 0.5)
        assert abs(a.conj() @ b) > 0.01 * np.linalg.norm(p) / M
        # ... but opposite-node ones are (distinct eigenvalues of the same Hamiltonian)
        c = dirac_spinor(-p, M, "antiparticle", 0.5)
        d = dirac_spinor(-p, M, "antiparticle", -0.5)
        assert abs(a.conj() @ c) < 1e-12 * e / M
        assert abs(a.conj() @ d) < 1e-12 * e / M


def test_standard_matrix_is_boost_rep():
    for p in momenta(6, pmax=5.0):
        chi = np.arcsinh(np.linalg.norm(p) / M) * p / np.linalg.norm(p)
        np.testing.assert_allclose(spinor_boost(chi), standard_spinor_matrix(p, M), atol=1e-12)
    np.testing.assert_array_equal(spinor_boost([0, 0, 0]), EYE)


def test_standard_matrix_inverse_and_mdagm():
    for p in momenta(6):
        m_p = standard_spinor_matrix(p, M)
        np.testing.assert_allclose(m_p @ standard_spinor_inverse(p, M), EYE, atol=1e-12)
        # M^dag M = (E + alpha.p) / m
        expect = (energy(p, M) * EYE + hamiltonian(p, M) - M * BETA) / M
        np.testing.assert_allclose(m_p.conj().T @ m_p, expect, atol=1e-12)


def composite_reps(n):
    """Random (spinor rep, vector rep) pairs: boosts, rotations, and products."""
    out = []
    for _ in range(n):
        chi = RNG.normal(scale=0.8, size=3)
        ax, an = RNG.normal(size=3), RNG.uniform(0.1, 1.4)
        out.append((spinor_boost(chi), boost(chi)))
        out.append((spinor_rotation(ax, an), rotation(ax, an)))
        out.append((spinor_boost(chi) @ spinor_rotation(ax, an), boost(chi) @ rotation(ax, an)))
    return out


def test_pseudo_unitarity():
    # gamma^0 M^dag gamma^0 = M^{-1}, checked as gamma^0 M^dag gamma^0 M = 1
    for s, _ in composite_reps(4):
        np.testing.assert_allclose(GAMMA[0] @ s.conj().T @ GAMMA[0] @ s, EYE, atol=1e-12)


def test_vector_conjugation_of_gammas():
    # M^{-1}(Lambda) gamma^mu M(Lambda) = Lambda^mu_nu gamma^nu
    for s, lam in composite_reps(4):
        s_inv = GAMMA[0] @ s.conj().T @ GAMMA[0]
        for mu in range(4):
            expect = np.einsum("n,nab->ab", lam[mu], GAMMA)
            np.testing.assert_allclose(s_inv @ GAMMA[mu] @ s, expect, atol=2e-12 * np.abs(lam).max())


def test_rotation_rep_properties():
    ax = np.array([1.0, -2.0, 0.5])
    r = spinor_rotation(ax, 0.7)
    np.testing.assert_allclose(r.conj().T @ r, EYE, atol=1e-15)
    np.testing.assert_allclose(spinor_rotation(ax, 2 * np.pi), -EYE, atol=1e-15)
    # projective composition: R(a) R(b) = +-R(a+b) about a fixed axis, here exact +
    np.testing.assert_allclose(
        spinor_rotation(ax, 0.7) @ spinor_rotation(ax, 0.9), spinor_rotation(ax, 1.6), atol=1e-15
    )


def test_fw_matrix_unitary_and_diagonalizing():
    for p in momenta(8):
        e = energy(p, M)
        u = fw_matrix(p, M)
        np.testing.assert_allclose(u.conj().T @ u, EYE, atol=1e-13)
        np.testing.assert_allclose(
            u @ hamiltonian(p, M) @ u.conj().T, e * BETA, rtol=0, atol=1e-12 * e
        )
    np.testing.assert_array_equal(fw_matrix([0, 0, 0], M), EYE)


def test_fw_matrix_trig_form():
    # U(p) = cos(theta) + sin(theta) gamma.phat with cos(2 theta) = m/E
    for p in momenta(5):
        e = energy(p, M)
        ct, st = np.sqrt((1 + M / e) / 2), np.sqrt((1 - M / e) / 2)
        gdot = np.einsum("k,kab->ab", p / np.linalg.norm(p), GAMMA[1:])
        np.testing.assert_allclose(fw_matrix(p, M), ct * EYE + st * gdot, atol=1e-13)


def test_fw_spinors():
    for p in momenta(8):
        e = energy(p, M)
        u = fw_matrix(p, M)
        for lam in LAMS:
            up = fw_spinor(p, M, "particle", lam)
            np.testing.assert_array_equal(up, np.sqrt(e / M) * rest_spinor("particle", lam))
            np.testing.assert_allclose(u @ dirac_spinor(p, M, "particle", lam), up, atol=1e-12)
            dn = fw_spinor(p, M, "antiparticle", lam)
            np.testing.assert_allclose(
                u.conj().T @ dirac_spinor(p, M, "antiparticle", lam), dn, atol=1e-12
            )
            # node picture: U(p) maps the -E eigenvector at node p to the lower pair
            np.testing.assert_allclose(u @ dirac_spinor(-p, M, "antiparticle", lam), dn, atol=1e-12)


def sample_transforms():
    yield spinor_boost([0, 0, 1.1]), boost([0, 0, 1.1])
    yield spinor_boost([0.6, -0.2, 0.4]), boost([0.6, -0.2, 0.4])
    yield spinor_rotation([1, 1, 0], 0.8), rotation([1, 1, 0], 0.8)


def test_wigner_matrix_structure_and_transport():
    for s, lam in sample_transforms():
        for p in momenta(4, pmax=3.0):
            w = wigner_spinor_matrix(s, lam, p, M)
            # block diagonal diag(w2, w2), w2 unitary
            np.testing.assert_allclose(w[:2, 2:], 0, atol=1e-12)
            np.testing.assert_allclose(w[2:, :2], 0, atol=1e-12)
            w2 = w[:2, :2]
            np.testing.assert_allclose(w[2:, 2:], w2, atol=1e-12)
            np.testing.assert_allclose(w2.conj().T @ w2, np.eye(2), atol=1e-12)
            # transport: M(Lambda) psi(p, lam) = sum_l w2[l, lam] psi(Lambda p, l)
            q = (lam @ np.concatenate(([energy(p, M)], p)))[1:]
            for j, lamval in enumerate(LAMS):
                lhs = s @ dirac_spinor(p, M, "particle", lamval)
                rhs = sum(w2[i, j] * dirac_spinor(q, M, "particle", lv) for i, lv in enumerate(LAMS))
                np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_wigner_matrix_matches_vector_wigner_rotation():
    # spin-1/2 rep of the 4x4 Wigner rotation, up to the SU(2) sign
    for s, lam in sample_transforms():
        for p in momenta(3, pmax=2.0):
            w2 = wigner_spinor_matrix(s, lam, p, M)[:2, :2]
            ax, an = axis_angle(wigner_rotation(lam, p, M)[1:, 1:])
            expect = spinor_rotation(ax, an)[:2, :2]
            err = min(
                np.abs(w2 - expect).max(), np.abs(w2 + expect).max()
            )
            assert err < 1e-10
