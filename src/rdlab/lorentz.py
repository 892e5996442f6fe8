"""Lorentz transformations on 4-vectors, standard boosts and Wigner rotations.

Conventions: metric eta = diag(+,-,-,-); 4-vectors are index-up rows
(x^0, x^1, x^2, x^3); Lambda acts as x' = Lambda @ x.
"""
from __future__ import annotations

import numpy as np

from .clifford import ETA


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


def standard_boost(p, m: float) -> np.ndarray:
    """Boost L_p taking the rest-frame momentum (m, 0) to (E_p, p)."""
    p = np.asarray(p, dtype=float)
    e = energy(p, m)
    lam = np.eye(4)
    lam[0, 0] = e / m
    lam[0, 1:] = lam[1:, 0] = p / m
    pp = float(p @ p)
    if pp > 0.0:
        lam[1:, 1:] = np.eye(3) + (e / m - 1.0) * np.outer(p, p) / pp
    return lam


def lorentz_inverse(lam: np.ndarray) -> np.ndarray:
    """Inverse via the metric: Lambda^{-1} = eta Lambda^T eta."""
    return ETA @ lam.T @ ETA


def lorentz_defect(lam: np.ndarray) -> float:
    """Max-abs entry of Lambda^T eta Lambda - eta (0 for a Lorentz matrix)."""
    return float(np.max(np.abs(lam.T @ ETA @ lam - ETA)))


def wigner_rotation(lam: np.ndarray, p, m: float) -> np.ndarray:
    """Wigner rotation W = L_{Lambda p}^{-1} Lambda L_p; fixes the time axis."""
    p = np.asarray(p, dtype=float)
    p4 = np.concatenate(([energy(p, m)], p))
    q4 = lam @ p4
    return lorentz_inverse(standard_boost(q4[1:], m)) @ lam @ standard_boost(p, m)


def axis_angle(r3: np.ndarray) -> tuple[np.ndarray, float]:
    """Axis and angle of a 3x3 rotation matrix (angle in [0, pi])."""
    w = np.array([r3[2, 1] - r3[1, 2], r3[0, 2] - r3[2, 0], r3[1, 0] - r3[0, 1]])
    if np.linalg.norm(w) > 1e-8:
        n = w / np.linalg.norm(w)
    else:
        # angle near 0 or pi: axis from the symmetric part (R+1)/2 = n n^T + O(pi-angle)
        s = (r3 + np.eye(3)) / 2.0
        k = int(np.argmax(np.diag(s)))
        if s[k, k] < 1e-8:
            return np.array([0.0, 0.0, 1.0]), 0.0
        n = s[:, k] / np.linalg.norm(s[:, k])
    # angle from a probe vector orthogonal to the axis (accurate at all angles)
    u = np.eye(3)[int(np.argmin(np.abs(n)))]
    u = u - (u @ n) * n
    u /= np.linalg.norm(u)
    ru = r3 @ u
    angle = float(np.arctan2(n @ np.cross(u, ru), u @ ru))
    if angle < 0.0:
        n, angle = -n, -angle
    return n, angle
