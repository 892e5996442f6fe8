"""Lorentz-matrix properties: group structure, standard boosts, Wigner rotations."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import axis_angle, lorentz_defect, lorentz_inverse, standard_boost, wigner_rotation

from rdlab.clifford import ETA
from rdlab.lorentz import boost, energy, rotation

RNG = np.random.default_rng(20260815)


def random_momenta(n, scale=3.0):
    return RNG.normal(scale=scale, size=(n, 3))


def test_energy():
    p = np.array([3.0, 0.0, 4.0])
    assert energy(p, 1.0) == pytest.approx(np.sqrt(26.0), rel=1e-15)
    assert energy(np.zeros(3), 2.5) == 2.5
    # vectorized over leading axes
    ps = random_momenta(10)
    np.testing.assert_allclose(energy(ps, 1.5), [energy(q, 1.5) for q in ps], rtol=1e-15)


def test_boost_basics():
    np.testing.assert_array_equal(boost([0, 0, 0]), np.eye(4))
    chi = np.array([0.3, -1.1, 0.7])
    lam = boost(chi)
    assert lorentz_defect(lam) < 1e-12
    np.testing.assert_allclose(lam @ boost(-chi), np.eye(4), atol=1e-12)
    # rapidities add along a fixed axis
    n = chi / np.linalg.norm(chi)
    np.testing.assert_allclose(boost(0.4 * n) @ boost(0.9 * n), boost(1.3 * n), atol=1e-12)
    assert lam[0, 0] == pytest.approx(np.cosh(np.linalg.norm(chi)), rel=1e-15)


def test_rotation_basics():
    r = rotation([0, 0, 1], np.pi / 2)
    np.testing.assert_allclose(r[1:, 1:] @ [1, 0, 0], [0, 1, 0], atol=1e-15)
    assert lorentz_defect(r) < 1e-15
    assert r[0, 0] == 1.0 and not r[0, 1:].any() and not r[1:, 0].any()
    np.testing.assert_allclose(
        rotation([1, 2, 2], 0.8) @ rotation([1, 2, 2], -0.8), np.eye(4), atol=1e-15
    )


def test_standard_boost_takes_rest_to_p():
    m = 1.3
    for p in random_momenta(8):
        lp = standard_boost(p, m)
        assert lorentz_defect(lp) < 1e-12
        np.testing.assert_allclose(lp @ [m, 0, 0, 0], [energy(p, m), *p], rtol=0, atol=1e-12 * energy(p, m))
    np.testing.assert_array_equal(standard_boost([0, 0, 0], m), np.eye(4))


def test_standard_boost_is_pure_boost():
    # L_p equals boost(chi n) with sinh(chi) = |p|/m
    m, p = 0.8, np.array([0.5, -1.0, 0.25])
    chi = np.arcsinh(np.linalg.norm(p) / m) * p / np.linalg.norm(p)
    np.testing.assert_allclose(standard_boost(p, m), boost(chi), atol=1e-13)


def test_inverse():
    lam = boost([0.2, 0.5, -0.3]) @ rotation([1, 1, 0], 1.1)
    np.testing.assert_allclose(lorentz_inverse(lam) @ lam, np.eye(4), atol=1e-13)
    np.testing.assert_allclose(lam @ lorentz_inverse(lam), np.eye(4), atol=1e-13)


def test_four_vector_norm_preserved():
    lam = boost([1.0, -0.4, 0.3]) @ rotation([0, 1, 0], 0.6)
    for x in RNG.normal(size=(6, 4)):
        np.testing.assert_allclose((lam @ x) @ ETA @ (lam @ x), x @ ETA @ x, atol=1e-11)


def test_wigner_is_rotation():
    m = 1.0
    for p in random_momenta(6, scale=2.0):
        lam = boost([0.0, 0.0, 1.2])
        w = wigner_rotation(lam, p, m)
        assert lorentz_defect(w) < 1e-11
        # fixes the time axis
        np.testing.assert_allclose(w[:, 0], [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(w[0, :], [1, 0, 0, 0], atol=1e-12)


def test_wigner_of_rotation_is_that_rotation():
    m = 0.7
    lam = rotation([0.3, -1.0, 0.5], 0.9)
    for p in random_momenta(5):
        np.testing.assert_allclose(wigner_rotation(lam, p, m), lam, atol=1e-12)


def test_wigner_collinear_boost_is_identity():
    m, n = 1.0, np.array([0.0, 0.0, 1.0])
    p = 1.7 * n
    np.testing.assert_allclose(wigner_rotation(boost(0.8 * n), p, m), np.eye(4), atol=1e-12)


def test_axis_angle_round_trip():
    for _ in range(8):
        axis = RNG.normal(size=3)
        angle = RNG.uniform(0.05, np.pi - 0.05)
        r = rotation(axis, angle)
        ax, an = axis_angle(r[1:, 1:])
        np.testing.assert_allclose(rotation(ax, an), r, atol=1e-12)
    ax, an = axis_angle(np.eye(3))
    assert an == 0.0
    # angle = pi branch
    r = rotation([1.0, 0.0, 1.0], np.pi)
    ax, an = axis_angle(r[1:, 1:])
    np.testing.assert_allclose(rotation(ax, an), r, atol=1e-10)
