"""Shared oracles and helpers for the test suite."""

import math

import numpy as np
import pytest
from scipy.integrate import quad


def quad_elliptic_K(m: float) -> float:
    """Defining integral of K(m), adaptive quadrature (independent oracle)."""
    val, _ = quad(lambda p: 1.0 / math.sqrt(1.0 - m * math.sin(p) ** 2),
                  0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def quad_elliptic_E(m: float) -> complex:
    """Defining integral of E(m) with sqrt(negative) = +i sqrt|.| (independent oracle)."""
    if m <= 1.0:
        re, _ = quad(lambda p: math.sqrt(max(1.0 - m * math.sin(p) ** 2, 0.0)),
                     0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-13, limit=200)
        return complex(re, 0.0)
    phi0 = math.asin(1.0 / math.sqrt(m))
    re, _ = quad(lambda p: math.sqrt(max(1.0 - m * math.sin(p) ** 2, 0.0)),
                 0.0, phi0, epsabs=1e-14, epsrel=1e-13, limit=200)
    im, _ = quad(lambda p: math.sqrt(max(m * math.sin(p) ** 2 - 1.0, 0.0)),
                 phi0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    return complex(re, im)


def every_panel_reports_error_one(monkeypatch):
    """Patch the panel rule of the quadrature driver to report an error estimate of 1.0."""
    import spinfid.fidelity
    real = spinfid.fidelity.gauss_kronrod
    monkeypatch.setattr(spinfid.fidelity, "gauss_kronrod",
                        lambda f, a, b: (real(f, a, b)[0], np.ones_like(a)))


def even(n: float) -> int:
    return max(2, int(round(n / 2.0)) * 2)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
