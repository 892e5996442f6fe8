"""Periodic momentum/coordinate lattices in FFT ordering.

The momentum lattice spans [-pmax, pmax) per axis with spacing dp = 2 pmax / n;
the dual coordinate lattice spans [-L/2, L/2) with dx = pi / pmax (so
dx * dp = 2 pi / n and plane waves diagonalize the FFT with no index shifts).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Cubic n^3 lattice; axes are in FFT order (0, dp, ..., -pmax, ..., -dp)."""

    n: int
    pmax: float

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")
        if not self.pmax > 0.0:
            raise ValueError(f"pmax must be positive, got {self.pmax}")

    @property
    def dp(self) -> float:
        return 2.0 * self.pmax / self.n

    @property
    def dx(self) -> float:
        return np.pi / self.pmax

    @cached_property
    def p1d(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def x1d(self) -> np.ndarray:
        return self.dx * self.n * np.fft.fftfreq(self.n)

    @cached_property
    def p_axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Momentum components p_x, p_y, p_z as views of p1d broadcast along their axes,
        shapes (n, 1, 1), (1, n, 1) and (1, 1, n): the momentum lattice without its n^3 storage."""
        return self.p1d[:, None, None], self.p1d[None, :, None], self.p1d[None, None, :]

    @cached_property
    def q(self) -> np.ndarray:
        """p_x - i p_y, shape (n, n, 1): with p_z all that sigma.p reads (the clifford
        kernel takes the momentum as the pair (q, p_z)); read-only, as the array is shared."""
        px, py, _ = self.p_axes
        q = np.add(px, py * -1j)
        q.flags.writeable = False
        return q

    @cached_property
    def x(self) -> np.ndarray:
        """Coordinate components, shape (n, n, n, 3)."""
        xx, yy, zz = np.meshgrid(self.x1d, self.x1d, self.x1d, indexing="ij")
        return np.stack([xx, yy, zz], axis=-1)

    def energies(self, mass: float) -> np.ndarray:
        """On-shell energies per node, shape (n, n, n).

        Cached per mass in the instance dict, as cached_property does; the
        shared array is read-only so no caller can change it for the others.
        """
        cache = self.__dict__.setdefault("_energies", {})
        if mass not in cache:
            px, py, pz = self.p_axes
            e = np.add(px * px + py * py, pz * pz)  # the order of np.sum(p * p, axis=-1)
            e += mass * mass
            np.sqrt(e, out=e)
            e.flags.writeable = False
            cache[mass] = e
        return cache[mass]
