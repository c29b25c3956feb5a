"""Residuals between the exact ln F integral and the closed-form scaling rates.

The closed forms drop terms beyond the leading universal order; the leftover

    E = (1/2 pi) int_0^pi ln f_k dk  -  (closed-form rate)

measures everything the approximation discards.  residual(spec) computes it
on any path, with the rate and its order from scaling.closed_form_rate, and
normalizes E by that order.  Normalized values, at tol 1e-13 over
|delta| = 1e-4 ... 1e-2 where not said otherwise:

    PathA         E gamma^3 / delta^2   magnitude below about 0.2 (hard bound
                                        0.4 for delta/gamma^2 < 0.2)
    PathB         E / delta^2           about 0.25, independent of the field g
    PathC         E / delta^2           0.243 ... 0.250 while |eps| <= 0.1, for
                                        c in {0, 0.5, 2}; 0.25 as delta -> 0
                  E / delta^4           -2.90 at eps = 0.2, -0.170 at eps = 0.5:
                                        the non-universal rate is exact at delta^2
    PathD         E / |delta|^{5/2}     -0.148 ... -0.150 at alpha = 1, c = 1;
                                        -0.187 ... -0.189 at alpha = 1, c = 1.5;
                                        -0.177 ... -0.254 at alpha = 2, c = 1.5;
                                        -0.0555 at alpha = 0.5, c = 1.5
    ExtIsingPath  E / delta^2           0.971 ... 1.000 for c in {0, 0.5, 2}

Only the total residual is computed here; the analytic decomposition that
proves a bound is a proof device, not an algorithm.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Optional

from .errors import DomainError
from .fidelity import fidelity_integral
from .models import PathA, PathB, PathSpec, resolve_path
from .scaling import closed_form_rate

#: quadrature tolerance for residual runs; E itself is O(delta^2), so the
#: default integral tolerance would drown it for small shifts.
RESIDUAL_QUAD_TOL = 1e-13


@dataclass(frozen=True)
class ErrorSample:
    """One residual evaluation on one path.

    E is the exact rate integral minus the path's closed-form rate, and
    normalized is E divided by the order that rate leaves, named by order:
    delta^2/gamma^3 on PathA, delta^4 on PathC's non-universal branch,
    |delta|^(5/2) on PathD, delta^2 elsewhere.  delta and c are the path's;
    gamma, g and alpha are copied from the path fields of that name and stay
    None on paths without one.
    """
    delta: float
    c: float
    E: float
    normalized: float
    order: str
    gamma: Optional[float] = None
    g: Optional[float] = None
    alpha: Optional[float] = None


def residual(spec: PathSpec, tol: float = RESIDUAL_QUAD_TOL) -> ErrorSample:
    """Residual of the path's closed-form rate against the exact rate integral."""
    rate, order, weight, name = closed_form_rate(spec)  # first: PathA at gamma = 0 has no rate
    if order < sys.float_info.min:
        raise DomainError(f"the residual order of {type(spec).__name__} underflows at "
                          f"delta = {spec.delta!r}")
    E = fidelity_integral(*resolve_path(spec), tol=tol) - rate
    return ErrorSample(E=E, normalized=E * weight / order, order=name,
                       **{f.name: getattr(spec, f.name) for f in fields(spec)})


def residual_pathA(gamma: float, delta: float, c: float,
                   tol: float = RESIDUAL_QUAD_TOL) -> ErrorSample:
    """Residual of the Ising-crossing rate -|delta| A(c) / gamma."""
    return residual(PathA(gamma, delta, c), tol)


def residual_pathB(g: float, delta: float, c: float,
                   tol: float = RESIDUAL_QUAD_TOL) -> ErrorSample:
    """Residual of the anisotropic-crossing rate -2 |delta| A(c)."""
    return residual(PathB(g, delta, c), tol)
