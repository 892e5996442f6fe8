"""Lattice layout and dual-grid relations."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import lattice_p

from rdlab.grids import Grid


def test_layout():
    g = Grid(16, 8.0)
    assert g.dp == 1.0
    assert g.dx == pytest.approx(np.pi / 8.0)
    assert g.dx * g.dp == pytest.approx(2 * np.pi / g.n)
    assert g.p1d[0] == 0.0
    assert g.p1d[1] == pytest.approx(g.dp)
    assert g.p1d[g.n // 2] == pytest.approx(-g.pmax)
    assert g.x1d[g.n // 2] == pytest.approx(-g.n * g.dx / 2)
    assert [a.shape for a in g.p_axes] == [(16, 1, 1), (1, 16, 1), (1, 1, 16)]
    px, py, pz = g.p_axes
    np.testing.assert_array_equal([px[3, 0, 0], py[0, 5, 0], pz[0, 0, 7]], [g.p1d[3], g.p1d[5], g.p1d[7]])


def test_energies():
    g = Grid(8, 4.0)
    e = g.energies(2.0)
    assert e.shape == (8, 8, 8)
    assert e[0, 0, 0] == 2.0
    assert e[1, 0, 0] == pytest.approx(np.sqrt(4.0 + g.dp**2))
    assert e.min() == 2.0


def test_energies_cached_per_mass_and_read_only():
    g = Grid(8, 4.0)
    e = g.energies(2.0)
    assert g.energies(2.0) is e
    assert not e.flags.writeable
    with pytest.raises(ValueError):
        e[0, 0, 0] = 0.0
    np.testing.assert_array_equal(e, np.sqrt(4.0 + np.sum(lattice_p(g) ** 2, axis=-1)))
    assert g.energies(1.0) is not e and g.energies(1.0)[0, 0, 0] == 1.0
    assert g == Grid(8, 4.0)  # the cache is not part of the lattice's identity


def test_validation():
    with pytest.raises(ValueError):
        Grid(7, 8.0)
    with pytest.raises(ValueError):
        Grid(4, 8.0)
    with pytest.raises(ValueError):
        Grid(16, 0.0)
