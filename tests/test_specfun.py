"""Elliptic integrals against quadrature of their defining integrals."""

import math

import numpy as np
import pytest

from spinfid import DomainError, PoleError, elliptic_E, elliptic_K, scaling_A, scaling_A_quadrature

from conftest import quad_elliptic_E, quad_elliptic_K


def test_K_at_zero_is_half_pi():
    assert elliptic_K(0.0) == complex(math.pi / 2.0)


def test_K_pole_at_one():
    with pytest.raises(PoleError):
        elliptic_K(1.0)


def test_K_rejects_m_above_one():
    with pytest.raises(DomainError):
        elliptic_K(1.5)


def test_K_negative_parameter_matches_quadrature():
    got = elliptic_K(-4.0)
    assert got.imag == 0.0
    assert got.real == pytest.approx(quad_elliptic_K(-4.0), abs=1e-12)


def test_E_trivial_values():
    assert elliptic_E(0.0) == complex(math.pi / 2.0)
    assert elliptic_E(1.0) == complex(1.0)


def test_E_rejects_m_above_one():
    # E leaves the real axis past m = 1; both integrals are real floats below it
    with pytest.raises(DomainError, match="m > 1"):
        elliptic_E(1.0 + 1e-10)
    assert type(elliptic_E(0.5)) is float and type(elliptic_K(0.5)) is float


def test_quadrature_equivalence_random_parameters(rng):
    ms = rng.uniform(-50.0, 1.0, size=200)
    for m in ms:
        K = elliptic_K(m)
        E = elliptic_E(m)
        assert K.imag == 0.0 and E.imag == 0.0
        assert K.real == pytest.approx(quad_elliptic_K(m), rel=1e-10)
        assert E.real == pytest.approx(quad_elliptic_E(m).real, rel=1e-10)


def test_K_strictly_decreasing():
    ms = np.linspace(-30.0, 0.99, 60)
    vals = [elliptic_K(m).real for m in ms]
    assert all(a > b for a, b in zip(vals[1:], vals[:-1]))


def test_branch_consistency_against_scaled_integral(rng):
    # the closed form built from K and E must reproduce the scaled log-kernel
    # integral over the whole c range
    cs = rng.uniform(0.02, 3.0, size=50)
    cs = cs[np.abs(cs - 1.0) > 1e-3]
    for c in cs:
        assert scaling_A(c) == pytest.approx(scaling_A_quadrature(c), abs=1e-8)
