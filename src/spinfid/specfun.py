"""Complete elliptic integrals K(m) and E(m) for real parameters m <= 1, in real arithmetic.

K comes from the arithmetic-geometric mean, K(m) = pi / (2 AGM(1, sqrt(1-m))).
The AGM carries its deviation from 1 apart from the mean itself, so that
pi/2 - K keeps its digits as m -> 0.  E comes from Carlson's symmetric
integral R_D by duplication (B. C. Carlson, Numerical computation of real or
complex elliptic integrals, Numer. Algorithms 10 (1995) 13-26), in the form of
DLMF 19.25.1, whose two terms never cancel:

    E(m) = (1-m) [R_D(0, 1-m, 1) + R_D(0, 1, 1-m)] / 3

Past m = 1, where E leaves the real axis, both functions raise DomainError.
"""

from __future__ import annotations

import math

from .errors import NumericsError, PoleError, DomainError

_AGM_TOL = 1e-15
# Carlson (1995) ends R_D's duplication once the relative spread of its arguments is
# below (r/4)^(1/6), where the fifth-order series errs by a few r: here r = 4e-18
_RD_SPREAD = 1e-3
_MAX_ITER = 100


def _carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson R_D by duplication, for x, y >= 0 (at most one zero) and z > 0."""
    acc = 0.0
    fac = 1.0
    for _ in range(_MAX_ITER):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        acc += fac / (sz * (z + lam))
        fac *= 0.25
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
        mu = (x + y + 3.0 * z) / 5.0
        if max(abs(x - mu), abs(y - mu), abs(z - mu)) < _RD_SPREAD * mu:
            break
    else:
        raise NumericsError("Carlson R_D duplication did not converge in 100 iterations")
    big_x = (mu - x) / mu
    big_y = (mu - y) / mu
    big_z = -(big_x + big_y) / 3.0
    e2 = big_x * big_y - 6.0 * big_z * big_z
    e3 = (3.0 * big_x * big_y - 8.0 * big_z * big_z) * big_z
    e4 = 3.0 * (big_x * big_y - big_z * big_z) * big_z * big_z
    e5 = big_x * big_y * big_z * big_z * big_z
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
              - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return 3.0 * acc + fac * series / (mu * math.sqrt(mu))


def _agm(y: float) -> tuple[float, float]:
    """AGM(1, sqrt(y)) for y = 1 - m > 0, and (AGM - 1) / m carried apart.

    With a = 1 + m u and b = 1 + m v, the deviations start at u = 0 and
    v = -1 / (1 + sqrt(y)) and follow u' = (u + v) / 2 and v' = (u + a v) / (1 + b'),
    from b'^2 - 1 = ab - 1 = m (u + a v).  u and v share one sign, so nothing cancels.
    """
    a, b = 1.0, math.sqrt(y)
    u, v = 0.0, -1.0 / (1.0 + b)
    for _ in range(_MAX_ITER):
        if abs(a - b) <= _AGM_TOL * a and abs(u - v) <= _AGM_TOL * abs(u):
            return a, u
        b_next = math.sqrt(a * b)
        a, b, u, v = (a + b) / 2.0, b_next, (u + v) / 2.0, (u + a * v) / (1.0 + b_next)
    raise NumericsError("arithmetic-geometric mean did not converge in 100 iterations")


def _elliptic_E(m: float, y: float) -> float:
    # E(m) with y = 1 - m >= 0 given apart, so callers can pass it without cancellation
    if m == 0.0:
        return math.pi / 2.0
    if y == 0.0:
        return 1.0  # R_D(0, 1, y) diverges as 3 / y here; the integral itself is 1
    return y * (_carlson_rd(0.0, y, 1.0) + _carlson_rd(0.0, 1.0, y)) / 3.0


def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter convention.

    K(m) = int_0^{pi/2} dphi / sqrt(1 - m sin^2 phi).  Strictly decreasing for
    m < 1; diverges logarithmically at m = 1 (PoleError).  Parameters m > 1
    raise DomainError.
    """
    m = float(m)
    if m == 1.0:
        raise PoleError("K(m) diverges at m = 1")
    if not m < 1.0:
        raise DomainError(f"K(m) is not supported for m > 1 (got m = {m})")
    return (math.pi / 2.0) / _agm(1.0 - m)[0]


def elliptic_E(m: float) -> float:
    """Complete elliptic integral of the second kind, parameter convention.

    E(m) = int_0^{pi/2} dphi sqrt(1 - m sin^2 phi) for m <= 1, with E(0) = pi/2
    and E(1) = 1.  Parameters m > 1, where E leaves the real axis, raise
    DomainError.
    """
    m = float(m)
    if not m <= 1.0:
        raise DomainError(f"E(m) is not supported for m > 1 (got m = {m})")
    return _elliptic_E(m, 1.0 - m)
