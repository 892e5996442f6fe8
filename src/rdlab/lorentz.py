"""Lorentz transformations on 4-vectors: pure boosts and spatial rotations.

Conventions: metric eta = diag(+,-,-,-); 4-vectors are index-up rows
(x^0, x^1, x^2, x^3); Lambda acts as x' = Lambda @ x.
"""
from __future__ import annotations

import numpy as np


def energy(p, m: float):
    """On-shell energy sqrt(m^2 + |p|^2); p has shape (..., 3)."""
    p = np.asarray(p, dtype=float)
    return np.sqrt(m * m + np.sum(p * p, axis=-1))


def boost(chi) -> np.ndarray:
    """Pure boost with rapidity vector chi (velocity v = tanh|chi| along chi)."""
    chi = np.asarray(chi, dtype=float)
    x = np.linalg.norm(chi)
    if x == 0.0:
        return np.eye(4)
    n = chi / x
    lam = np.eye(4)
    lam[0, 0] = np.cosh(x)
    lam[0, 1:] = lam[1:, 0] = np.sinh(x) * n
    lam[1:, 1:] = np.eye(3) + (np.cosh(x) - 1.0) * np.outer(n, n)
    return lam


def rotation(axis, angle: float) -> np.ndarray:
    """Spatial rotation by `angle` about `axis`, embedded as a 4x4 Lorentz matrix."""
    axis = np.asarray(axis, dtype=float)
    n = axis / np.linalg.norm(axis)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    r3 = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    lam = np.eye(4)
    lam[1:, 1:] = r3
    return lam
