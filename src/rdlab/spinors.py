"""Plane-wave spinors and spinor-space transformation matrices.

Dirac representation throughout. Particle/antiparticle branch spinors are
generated from rest-frame Sigma^3 eigenvectors by the standard-boost spinor
matrix; the Foldy-Wouthuysen (FW) transform is the momentum-dependent unitary
that diagonalizes the free Hamiltonian into beta * E_p.

Normalization: psi^dag psi = E_p / m (so the invariant measure weight
m / ((2 pi)^3 E_p) pairs to a unit integral), psi-bar psi = +-1.
"""
from __future__ import annotations

import numpy as np

from .clifford import ALPHA, BETA, GAMMA, SIGMA
from .lorentz import energy

BRANCHES = ("particle", "antiparticle")


def pauli_spinor(lam: float) -> np.ndarray:
    """Two-component sigma^3 eigenvector chi_lam, lam in {+1/2, -1/2}."""
    if lam == 0.5:
        return np.array([1.0, 0.0], dtype=complex)
    if lam == -0.5:
        return np.array([0.0, 1.0], dtype=complex)
    raise ValueError(f"spin projection must be +-0.5, got {lam!r}")


def rest_spinor(branch: str, lam: float) -> np.ndarray:
    """Rest-frame spinor: Sigma^3 eigenvector in the upper (particle) or lower
    (antiparticle) pair of components."""
    chi = pauli_spinor(lam)
    z = np.zeros(2, dtype=complex)
    if branch == "particle":
        return np.concatenate([chi, z])
    if branch == "antiparticle":
        return np.concatenate([z, chi])
    raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")


def alpha_matrix(p) -> np.ndarray:
    """alpha . p as a 4x4 matrix."""
    p = np.asarray(p, dtype=float)
    return np.einsum("k,kab->ab", p, ALPHA)


def hamiltonian(p, m: float, branch: str = "particle") -> np.ndarray:
    """Free Hamiltonian: alpha.p + beta m for the particle branch,
    alpha.p - beta m in the antiparticle labeling (both have +E_p eigenvectors
    on their own branch)."""
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    sign = 1.0 if branch == "particle" else -1.0
    return alpha_matrix(p) + sign * m * BETA


def spinor_boost(chi) -> np.ndarray:
    """Spinor representation of a pure boost: exp(alpha . chi / 2)."""
    chi = np.asarray(chi, dtype=float)
    x = np.linalg.norm(chi)
    if x == 0.0:
        return np.eye(4, dtype=complex)
    return np.cosh(x / 2.0) * np.eye(4) + np.sinh(x / 2.0) * alpha_matrix(chi / x)


def spinor_rotation(axis, angle: float) -> np.ndarray:
    """Spinor representation of a rotation: exp(-i angle Sigma . n / 2)."""
    axis = np.asarray(axis, dtype=float)
    n = axis / np.linalg.norm(axis)
    sig = np.einsum("k,kab->ab", n, SIGMA)
    return np.cos(angle / 2.0) * np.eye(4) - 1j * np.sin(angle / 2.0) * sig


def standard_spinor_matrix(p, m: float) -> np.ndarray:
    """M(L_p) = (E + m + alpha.p) / sqrt(2 m (E + m)): rest spinor -> momentum p."""
    e = energy(p, m)
    return ((e + m) * np.eye(4) + alpha_matrix(p)) / np.sqrt(2.0 * m * (e + m))


def standard_spinor_inverse(p, m: float) -> np.ndarray:
    """M(L_p)^{-1} = (E + m - alpha.p) / sqrt(2 m (E + m))."""
    e = energy(p, m)
    return ((e + m) * np.eye(4) - alpha_matrix(p)) / np.sqrt(2.0 * m * (e + m))


def dirac_adjoint(psi: np.ndarray) -> np.ndarray:
    """psi-bar = psi^dag gamma^0."""
    return psi.conj() @ GAMMA[0]


def dirac_spinor(p, m: float, branch: str = "particle", lam: float = 0.5) -> np.ndarray:
    """Branch spinor at momentum p: M(L_p) applied to the rest spinor."""
    return standard_spinor_matrix(p, m) @ rest_spinor(branch, lam)


def fw_matrix(p, m: float) -> np.ndarray:
    """FW unitary U(p) = (E + m + beta alpha.p) / sqrt(2 E (E + m)).

    Satisfies U (alpha.p + beta m) U^dag = beta E_p, U(0) = 1.
    """
    e = energy(p, m)
    return ((e + m) * np.eye(4) + BETA @ alpha_matrix(p)) / np.sqrt(2.0 * e * (e + m))


def wigner_spinor_matrix(spinor_lam: np.ndarray, lam: np.ndarray, p, m: float) -> np.ndarray:
    """Spin-space Wigner matrix M(L_{Lambda p})^{-1} M(Lambda) M(L_p).

    `spinor_lam` is the spinor representative of the 4x4 Lorentz matrix `lam`.
    The result is block-diagonal diag(w, w) with w in SU(2), and transports
    branch spinors: M(Lambda) psi(p, lam) = sum_l w[l, lam] psi(Lambda p, l).
    """
    p = np.asarray(p, dtype=float)
    p4 = np.concatenate(([energy(p, m)], p))
    q = (lam @ p4)[1:]
    return standard_spinor_inverse(q, m) @ spinor_lam @ standard_spinor_matrix(p, m)
