"""Residuals between the exact ln F integral and the closed-form scaling rates.

The closed forms drop terms beyond the leading universal order; the leftover

    E = (1/2 pi) int_0^pi ln f_k dk  -  (closed-form rate)

measures everything the approximation discards.  For the Ising crossing E
scales as delta^2 / gamma^3 with a normalized magnitude bounded by about 0.2
(hard bound 0.4 for delta/gamma^2 < 0.2); for the anisotropic crossing E is
about 0.25 delta^2 independently of the transverse field.  Only the total
residual is computed here; the analytic decomposition that proves the bound
is a proof device, not an algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .fidelity import fidelity_integral
from .models import PathA, PathB, resolve_path
from .scaling import scaling_A

#: quadrature tolerance for residual runs; E itself is O(delta^2), so the
#: default integral tolerance would drown it for small shifts.
RESIDUAL_QUAD_TOL = 1e-13


@dataclass(frozen=True)
class ErrorSample:
    """One residual evaluation.

    normalized is E gamma^3 / delta^2 for the Ising crossing and E / delta^2
    for the anisotropic one; gamma / g is filled according to the path.
    """
    delta: float
    c: float
    E: float
    normalized: float
    gamma: Optional[float] = None
    g: Optional[float] = None


def residual_pathA(gamma: float, delta: float, c: float,
                   tol: float = RESIDUAL_QUAD_TOL) -> ErrorSample:
    """Residual of the Ising-crossing rate -|delta| A(c) / gamma."""
    if gamma == 0.0:
        raise DomainError("the Ising-crossing rate divides by gamma: needs gamma != 0")
    p1, p2 = resolve_path(PathA(gamma, delta, c))
    exact = fidelity_integral(p1, p2, tol=tol)
    E = exact - (-abs(delta) * scaling_A(c) / gamma)
    return ErrorSample(delta=delta, c=c, E=E,
                       normalized=E * gamma ** 3 / delta ** 2, gamma=gamma)


def residual_pathB(g: float, delta: float, c: float,
                   tol: float = RESIDUAL_QUAD_TOL) -> ErrorSample:
    """Residual of the anisotropic-crossing rate -2 |delta| A(c)."""
    p1, p2 = resolve_path(PathB(g, delta, c))
    exact = fidelity_integral(p1, p2, tol=tol)
    E = exact - (-2.0 * abs(delta) * scaling_A(c))
    return ErrorSample(delta=delta, c=c, E=E, normalized=E / delta ** 2, g=g)
