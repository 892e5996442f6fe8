"""Exact algebra checks for the Dirac-representation matrices."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from conftest import lattice_p, momentum_pair

from rdlab.clifford import (
    ALPHA,
    AXES,
    BETA,
    ETA,
    GAMMA,
    GAMMA5,
    SIGMA,
    alpha_dot,
    anticommutation_defect,
    anticommutator,
    commutator,
    pair,
    pauli,
    sigma_dot,
    sigma_pair,
    sigma_row,
)
from rdlab.grids import Grid

EYE4 = np.eye(4)
EXACT_ENTRIES = np.array([0, 1, -1, 1j, -1j])


def assert_exact(a, b):
    assert np.array_equal(a, b)


def test_pauli_entries():
    assert_exact(pauli(1), [[0, 1], [1, 0]])
    assert_exact(pauli(2), [[0, -1j], [1j, 0]])
    assert_exact(pauli(3), [[1, 0], [0, -1]])


def test_pauli_bad_index():
    for k in (0, 4, -1):
        with pytest.raises(ValueError):
            pauli(k)


def test_all_entries_exact():
    for m in (*ALPHA, BETA, *GAMMA, GAMMA5, *SIGMA):
        assert np.isin(m, EXACT_ENTRIES).all()


def test_block_structure():
    z = np.zeros((2, 2), dtype=complex)
    for k in (1, 2, 3):
        assert_exact(ALPHA[k - 1], np.block([[z, pauli(k)], [pauli(k), z]]))
        assert_exact(SIGMA[k - 1], np.block([[pauli(k), z], [z, pauli(k)]]))
    assert_exact(BETA, np.diag([1, 1, -1, -1]).astype(complex))
    assert_exact(GAMMA5, np.block([[z, np.eye(2)], [np.eye(2), z]]))


def test_gamma_from_alpha_beta():
    assert_exact(GAMMA[0], BETA)
    for k in (1, 2, 3):
        assert_exact(GAMMA[k], BETA @ ALPHA[k - 1])


def test_gamma_anticommutators_exact():
    # all 16 pairs: {gamma^mu, gamma^nu} = 2 eta^{mu nu} 1
    defect = anticommutation_defect(GAMMA, ETA)
    assert_exact(defect, np.zeros((4, 4)))


def test_alpha_beta_algebra():
    for j, k in itertools.product(range(3), range(3)):
        assert_exact(anticommutator(ALPHA[j], ALPHA[k]), 2.0 * (j == k) * EYE4)
    for k in range(3):
        assert_exact(anticommutator(ALPHA[k], BETA), np.zeros((4, 4)))
    assert_exact(BETA @ BETA, EYE4)


def test_hermiticity():
    for m in (*ALPHA, BETA, *SIGMA, GAMMA5, GAMMA[0]):
        assert_exact(m.conj().T, m)
    for k in (1, 2, 3):
        assert_exact(GAMMA[k].conj().T, -GAMMA[k])


def test_gamma5():
    assert_exact(GAMMA5, 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3])
    assert_exact(GAMMA5 @ GAMMA5, EYE4)
    for mu in range(4):
        assert_exact(anticommutator(GAMMA5, GAMMA[mu]), np.zeros((4, 4)))


def test_gamma0_gamma5_sigma_identity():
    # gamma^0 gamma^5 Sigma^k = gamma^k
    for k in (1, 2, 3):
        assert_exact(GAMMA[0] @ GAMMA5 @ SIGMA[k - 1], GAMMA[k])


def test_sigma_su2():
    # [Sigma^j, Sigma^k] = 2i eps_{jkl} Sigma^l, (Sigma^k)^2 = 1
    eps = np.zeros((3, 3, 3))
    for j, k, l in itertools.permutations(range(3)):
        eps[j, k, l] = np.sign(np.linalg.det(EYE4[:3][:, [j, k, l]]))
    for j, k in itertools.product(range(3), range(3)):
        expect = 2j * sum(eps[j, k, l] * SIGMA[l] for l in range(3))
        assert_exact(commutator(SIGMA[j], SIGMA[k]), expect)
        assert_exact(commutator(ALPHA[j], ALPHA[k]), expect)
    for k in range(3):
        assert_exact(SIGMA[k] @ SIGMA[k], EYE4)


def test_defect_flags_corruption():
    bad = GAMMA.copy()
    bad[2, 0, 1] += 0.5
    defect = anticommutation_defect(bad, ETA)
    assert defect.max() > 0.4
    assert defect[2, 2] > 0.4


# ---------------------------------------------------------------------------
# block kernel against the 4x4 matrices

RNG = np.random.default_rng(7)
SHAPE = (5, 6, 7)
P = RNG.normal(size=(*SHAPE, 3))
V = RNG.normal(size=(*SHAPE, 4)) + 1j * RNG.normal(size=(*SHAPE, 4))
W = RNG.normal(size=(*SHAPE, 4)) + 1j * RNG.normal(size=(*SHAPE, 4))
R = np.array([0.3 - 0.2j, 1.1j, -0.7, 0.4 + 0.9j])  # a constant spinor


def assert_rel(got, want, tol=1e-15):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def _alpha_oracle(p, v):
    return sum(p[..., k, None] * (v @ ALPHA[k].T) for k in range(3))


def test_alpha_dot_matches_matrices():
    assert_rel(alpha_dot(momentum_pair(P), V), _alpha_oracle(P, V))
    # a constant spinor broadcast over the momenta, a unit axis over the field
    assert_rel(alpha_dot(momentum_pair(P), R), _alpha_oracle(P, np.broadcast_to(R, V.shape)))
    for k in range(3):
        assert_rel(alpha_dot(AXES[k], V), V @ ALPHA[k].T)


def test_sigma_dot_matches_matrices():
    # alpha.p (0, c) = (sigma.p c, 0)
    lower = V.copy()
    lower[..., :2] = 0.0
    assert_rel(sigma_dot(momentum_pair(P), V[..., 2:]), _alpha_oracle(P, lower)[..., :2])
    assert_rel(sigma_dot(momentum_pair(P), R[2:]), _alpha_oracle(P, np.broadcast_to(R, V.shape))[..., :2])
    out = np.empty((*SHAPE, 2), dtype=complex)
    assert sigma_dot(AXES[1], V[..., :2], out=out) is out
    assert_rel(out, V[..., :2] @ SIGMA[1][:2, :2].T)


def test_axes_are_the_alpha_and_sigma_matrices_exactly():
    # the rows of the identity go to the columns of the matrix
    for k in range(3):
        assert_exact(alpha_dot(AXES[k], EYE4), ALPHA[k].T)
        assert_exact(sigma_dot(AXES[k], np.eye(2)), SIGMA[k][:2, :2].T)
        assert_exact(alpha_dot(AXES[k], V), V @ ALPHA[k].T)
        assert_exact(sigma_dot(AXES[k], V[..., :2]), V[..., :2] @ SIGMA[k][:2, :2].T)


def test_grid_factors_give_the_lattice_products_bit_for_bit():
    # (q, p_z) broadcast from the axis, whole or one plane at a time, against the stacked lattice
    grid = Grid(8, 3.0)
    p = lattice_p(grid)
    v = RNG.normal(size=(8, 8, 8, 4)) + 1j * RNG.normal(size=(8, 8, 8, 4))
    factors = (grid.q, grid.p_axes[2])
    assert_exact(alpha_dot(factors, v), alpha_dot(momentum_pair(p), v))
    assert_exact(sigma_dot(factors, R[:2]), sigma_dot(momentum_pair(p), R[:2]))
    for k in (0, 5):
        plane = (grid.q[k], grid.p1d)
        assert_exact(alpha_dot(plane, v[k]), alpha_dot(momentum_pair(p[k]), v[k]))
        for row in range(2):
            out = np.empty((8, 8), dtype=complex)
            assert sigma_row(plane, v[k, ..., 2:], row, out) is out
            assert_exact(out, sigma_dot(momentum_pair(p[k]), v[k, ..., 2:])[..., row])
    assert not grid.q.flags.writeable  # shared by every caller; the kernel conjugates a copy


def test_pair_and_sigma_pair_match_conjugate_einsums():
    assert_rel(pair(V, W), np.einsum("...a,...a->...", V.conj(), W).real)
    assert_rel(pair(V[..., 2:], R[2:]), np.einsum("...a,a->...", V[..., 2:].conj(), R[2:]).real)
    got = sigma_pair(V[..., :2], W[..., :2])
    want = np.einsum("...a,kab,...b->...k", V[..., :2].conj(), SIGMA[:, :2, :2], W[..., :2]).real
    assert_rel(got, want)
    # the Dirac current psi^dag alpha^k psi = 2 Re u^dag sigma^k l
    current = np.einsum("...a,kab,...b->...k", V.conj(), ALPHA, V).real
    assert_rel(2.0 * sigma_pair(V[..., :2], V[..., 2:]), current)
