"""Dirac-representation Clifford algebra.

Pauli matrices, the alpha/beta pair, gamma matrices, gamma5 and the spin
matrices Sigma, all with entries exact in {0, +-1, +-i} so algebraic
identities hold to machine exactness (== comparisons, not approximate).

The block kernel at the end applies the algebra per lattice node on strided
views of the 2-spinor halves u = v[..., :2], l = v[..., 2:] of a spinor field:
alpha.p (u, l) = (sigma.p l, sigma.p u) and beta (u, l) = (u, -l). It takes a
momentum as the pair (q, p_z), q = p_x - i p_y, which is all sigma.p reads: a
Grid holds the pair as factors broadcast from its 1-D axis (Grid.q,
Grid.p_axes[2]), so a lattice caller never forms the (n, n, n, 3) lattice, and
can pass one plane (Grid.q[k], Grid.p1d) at a time; a unit axis is AXES[k].
"""
from __future__ import annotations

import numpy as np

# Minkowski metric, signature (+, -, -, -).
ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def pauli(k: int) -> np.ndarray:
    """Pauli matrix sigma^k for k in {1, 2, 3}."""
    if k == 1:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if k == 2:
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if k == 3:
        return np.array([[1, 0], [0, -1]], dtype=complex)
    raise ValueError(f"pauli index must be 1, 2 or 3, got {k!r}")


def _build():
    z = np.zeros((2, 2), dtype=complex)
    alpha = np.array([np.block([[z, pauli(k)], [pauli(k), z]]) for k in (1, 2, 3)])
    beta = np.block([[np.eye(2, dtype=complex), z], [z, -np.eye(2, dtype=complex)]])
    # gamma^0 = beta, gamma^k = gamma^0 alpha^k; products of {0,+-1,+-i} entries stay exact.
    gamma = np.concatenate([beta[None], np.einsum("ab,kbc->kac", beta, alpha)])
    gamma5 = 1j * gamma[0] @ gamma[1] @ gamma[2] @ gamma[3]
    sigma = np.array([np.block([[pauli(k), z], [z, pauli(k)]]) for k in (1, 2, 3)])
    return alpha, beta, gamma, gamma5, sigma


# ALPHA[k-1] = alpha^k, GAMMA[mu] = gamma^mu (mu = 0..3), SIGMA[k-1] = Sigma^k.
ALPHA, BETA, GAMMA, GAMMA5, SIGMA = _build()


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def anticommutation_defect(gamma: np.ndarray = GAMMA, eta: np.ndarray = ETA) -> np.ndarray:
    """Max-abs entry of {gamma^mu, gamma^nu} - 2 eta^{mu nu} 1, per (mu, nu).

    Identically zero for the built-in set; nonzero entries flag a corrupted input.
    """
    out = np.zeros((4, 4))
    eye = np.eye(4)
    for mu in range(4):
        for nu in range(4):
            d = anticommutator(gamma[mu], gamma[nu]) - 2.0 * eta[mu, nu] * eye
            out[mu, nu] = np.max(np.abs(d))
    return out


# ---------------------------------------------------------------------------
# block kernel

# The unit axes x, y, z as (q, p_z) pairs: sigma_dot(AXES[k], c) = sigma^(k+1) c.
AXES = ((1.0, 0.0), (-1j, 0.0), (0.0, 1.0))


def sigma_row(p, c, k: int, out) -> np.ndarray:
    """Row k of sigma.p c = (p_z c0 + q c1, conj(q) c0 - p_z c1), written into `out`.

    p is the pair (q, p_z), q = p_x - i p_y, and broadcasts against c (..., 2): a
    constant spinor meets a momentum lattice, a unit axis a spinor field. `out` must
    not share memory with c."""
    q, pz = p
    if k == 0:
        np.multiply(pz, c[..., 0], out=out)
        out += q * c[..., 1]
    else:
        np.multiply(np.conjugate(q), c[..., 0], out=out)
        out -= pz * c[..., 1]
    return out


def sigma_dot(p, c, out=None) -> np.ndarray:
    """sigma.p c (..., 2), its two rows written by sigma_row; p and `out` as there."""
    c = np.asarray(c)
    if out is None:
        out = np.empty(np.broadcast_shapes(*map(np.shape, p), c.shape[:-1]) + (2,), dtype=complex)
    for k in range(2):
        sigma_row(p, c, k, out[..., k])
    return out


def alpha_dot(p, v, out=None) -> np.ndarray:
    """alpha.p v = (sigma.p l, sigma.p u) for 4-spinors v (..., 4); p and `out` as
    for sigma_dot (`out` must not share memory with v)."""
    v = np.asarray(v)
    if out is None:
        out = np.empty(np.broadcast_shapes(*map(np.shape, p), v.shape[:-1]) + (4,), dtype=complex)
    sigma_dot(p, v[..., 2:], out=out[..., :2])
    sigma_dot(p, v[..., :2], out=out[..., 2:])
    return out


def pair(a, b) -> np.ndarray:
    """Re a^dag b over the last (contiguous) axis via float views: no conjugate copy."""
    return np.einsum("...c,...c->...", np.asarray(a, dtype=complex).view(float),
                     np.asarray(b, dtype=complex).view(float))


def sigma_pair(a, b) -> np.ndarray:
    """Re a^dag sigma^k b = pair(a, sigma^k b) for 2-spinors, k = 1, 2, 3; shape (..., 3)."""
    return np.stack([pair(a, sigma_dot(axis, b)) for axis in AXES], axis=-1)
