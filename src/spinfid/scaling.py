"""Closed-form universal scaling functions and assembled fidelity predictions.

The thermodynamic-limit log-fidelity per site of every path reduces to one of
a small family of scaling functions:

    A(c)      Ising-line crossing (PathA, PathB, PathC near the corner)
    A_mcp(c)  multicritical approach (PathD)
    A_mps(c)  extended Ising chain (ExtIsingPath)
    B(c)      excited-quasiparticle density n_ex = |delta| B(c) / gamma after a sudden move

closed_form_rate writes each path's smooth rate lim ln F / N once, with the
order of the residual E it leaves of the exact rate integral (d = delta,
eps = c|d|; verify.residual measures E):

    path          rate                                       E of order
    PathA         -|d| A(c) / gamma                          d^2 / gamma^3
    PathB         -2|d| A(c)                                 d^2
    PathC         -2|d| A(c) while |eps| <= 0.1 (universal)  d^2
                  -d^2 / (8|eps|(1+|eps|)^2) beyond          d^4
    PathD         -|d|^{3/2} alpha^2 A_mcp(c) + d^2 alpha^2/4  |d|^{5/2}
    ExtIsingPath  -|d| A_mps(c)                              d^2

predict_lnF reads that rate and adds the finite-N prefactor of its path: the
sqrt(2) lift (PathA and universal PathC for |c| < 1, the extended chain at
|c| = 1), the oscillation amplitude (PathB and the extended chain for
|c| < 1), or none.

A and B are complete elliptic integrals K = K(m), E = E(m) of one real
parameter, m = c^2 for |c| <= 1 and m = 1/c^2 beyond, with y = 1 - m formed
as a product so that it keeps its digits next to |c| = 1:

    |c| <= 1:   A = 1/4 - [E - y K] / 2 pi,     B = E / pi
    |c| >= 1:   A = |c| [pi/2 - E] / 2 pi,      B = |c| m y R_D(0, 1, y) / 3 pi

Both rows give A(1) = 1/4 - 1/2 pi and B(1) = 1/pi.  No bracket cancels: past
|c| = sqrt(2) (m <= 1/2) pi/2 - E is (pi/2 - K) + (m/3) R_D(0, y, 1), with
pi/2 - K from the AGM's deviation from 1 (specfun), so one route holds at
every |c| up to MAX_FIELD.  The quadrature forms (gated by their error
estimate, and bounded by MAX_FIELD as the closed forms are) are exposed as
*_quadrature so the closed forms can be checked against an independent route.  Their
integrands are the XY kernel itself: rescaled around the critical momentum
(k = |d| l / gamma on PathA), p_k / d^2 and q_k / d^2 become p = l^2 + c^2 - 1
and q = 2l, and with f from models.log_overlap

    A(c) = -(1/4 pi) int_0^inf ln f^2 dl,    B(c) = (1/pi) int_0^inf (1 - f^2) dl,

1 - f^2 being models.excitation_probability, as in the quench module, each
integrated in t = l / (L + l) over [0, 1) with L = max(8, sqrt|1 - c^2|).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PoleError
from .fidelity import QUAD_BUDGET, oscillation_factor, piecewise_quad
from .models import (
    MAX_FIELD,
    ExtIsingPath,
    MomentumGrid,
    PathA,
    PathB,
    PathC,
    PathD,
    PathSpec,
    check_path,
    excitation_probability,
    kc_anisotropic,
    log_overlap,
)
from .specfun import _agm, _carlson_rd, _elliptic_E, elliptic_E, elliptic_K

#: Critical exponents of the regimes handled here (metadata, never computed).
#: d = 1 throughout; the multicritical entry is the paramagnetic-side value.
CRITICAL_EXPONENTS = {
    "ising": {"nu": 1.0, "z": 1.0, "d": 1},
    "anisotropic": {"nu": 1.0, "z": 1.0, "d": 1},
    "extended_ising": {"nu": 1.0, "z": 2.0, "d": 1},
    "multicritical_paramagnetic": {"nu": 0.5, "d": 1},
}


def _abs_field(c: float) -> float:
    # |c| within the bound of every field (models.MAX_FIELD), which keeps the
    # rescaled kernel's p^2 + q^2 in float range at every quadrature node
    a = abs(float(c))
    if not a <= MAX_FIELD:
        raise DomainError(f"c must be finite and at most {MAX_FIELD:g} in magnitude")
    return a


def _improper_quad(of_log_f, c: float) -> float:
    # of_log_f(ln f) of the XY kernel rescaled around its critical momentum,
    # p = l^2 + (|c| - 1)(|c| + 1) and q = 2l, over l in [0, inf).  It turns over at l ~ s/2
    # and l ~ sqrt(s), s = |1 - c^2|, and falls off as 1/l^2 beyond L; every half
    # decade between s/2 and 1 is split too, and so is the tail at l = 2, 4, 8 and
    # 16.  Below the first split a half-decade ladder brackets the log singularity
    # at l = 0, which only |c| <= 1 has.  The pieces are fine enough that the
    # first G7K15 pass nearly meets the goal.
    # The driver sees t = l / (L + l) in [0, 1), with dl = L dt / (1 - t)^2
    a = _abs_field(c)
    s = abs(1.0 - a * a)
    inner = []
    if 0.0 < s < 1.0:
        halves = (10.0 ** (e / 2) for e in range(math.floor(2.0 * math.log10(s / 2.0)), 0))
        inner = sorted({s / 2.0, math.sqrt(s), *(d for d in halves if d > s / 2.0)})
    first = inner[0] if inner else 1.0
    ladder = [first * 10.0 ** (-e / 2) for e in range(24, 0, -1)] if a <= 1.0 else []
    scale = max(8.0, math.sqrt(s))

    def integrand(t: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        u = 1.0 - t
        l = scale * t / u
        return of_log_f(log_overlap(l * l + (a - 1.0) * (a + 1.0), 2.0 * l)) * (scale / (u * u))

    edges = [l / (scale + l) for l in (0.0, *ladder, *inner, 1.0, 2.0, 4.0, 8.0, 16.0)] + [1.0]
    # the integral falls off as 1/L (A ~ 1/16|c|), and so does its budget
    return piecewise_quad(integrand, edges, QUAD_BUDGET * 8.0 / scale).value


def scaling_A_quadrature(c: float) -> float:
    """Ising-crossing scaling function by direct quadrature of its defining integral."""
    return -_improper_quad(lambda log_f: 2.0 * log_f, c) / (4.0 * math.pi)


def scaling_B_quadrature(c: float) -> float:
    """Quench scaling function by direct quadrature of its defining integral."""
    return _improper_quad(excitation_probability, c) / math.pi


def _modulus(c: float) -> tuple[float, float, float]:
    # |c|, the parameter m = c^2 (|c| <= 1) or 1/c^2 (beyond), and y = 1 - m
    # formed as a product so that it keeps its digits next to |c| = 1
    a = _abs_field(c)
    if a <= 1.0:
        return a, a * a, (1.0 - a) * (1.0 + a)
    return a, 1.0 / (a * a), ((a - 1.0) / a) * ((a + 1.0) / a)


def scaling_A(c: float) -> float:
    """Scaling function of the Ising-line crossing; A(0) = 1/4, A(c) ~ 1/16|c|.

    With m = c^2, y = 1 - m for |c| < 1, A = 1/4 - [E(m) - y K(m)] / 2 pi; with
    m = 1/c^2 beyond, A = |c| [pi/2 - E(m)] / 2 pi, whose bracket at m <= 1/2 is
    (pi/2 - K) + (m/3) R_D(0, y, 1) with pi/2 - K from the AGM's deviation.
    Even in c and continuous (with a logarithmically divergent derivative) at |c| = 1.
    """
    a, m, y = _modulus(c)
    if a < 1.0:
        return 0.25 - (elliptic_E(m) - y * elliptic_K(m)) / (2.0 * math.pi)
    if m > 0.5:
        deficit = (0.5 * math.pi - _elliptic_E(m, y)) / m
    else:
        mean, deviation = _agm(y)
        deficit = 0.5 * math.pi * deviation / mean + _carlson_rd(0.0, y, 1.0) / 3.0
    # |c| m = 1 / |c|, and deficit = (pi/2 - E) / m
    return deficit / (2.0 * math.pi * a)


def scaling_B(c: float) -> float:
    """Scaling function of the excitation density; B(0) = 1/2, B(c) ~ 1/4|c|.

    B = E(m) / pi for |c| <= 1, and |c| m y R_D(0, 1, y) / 3 pi beyond, with m and
    y = 1 - m as in scaling_A.
    """
    a, m, y = _modulus(c)
    if a <= 1.0:
        return _elliptic_E(m, y) / math.pi
    return y * _carlson_rd(0.0, 1.0, y) / (3.0 * math.pi * a)


def scaling_dB_dc_near1(c: float) -> float:
    """Leading expansion of dB/dc around c = 1: (2 - 3 ln 2)/2pi + ln|1 - c| / 2pi.

    Diverges to -inf as c -> 1; the finite-size quench derivative approaches
    this law from above as N grows.
    """
    u = abs(1.0 - float(c))
    if not 0.0 < u < 0.1:
        raise DomainError(f"expansion valid for 0 < |1 - c| < 0.1, got |1 - c| = {u}")
    return (2.0 - 3.0 * math.log(2.0)) / (2.0 * math.pi) + math.log(u) / (2.0 * math.pi)


def scaling_A_mcp(c: float) -> float:
    """Multicritical scaling function ((c+1)^{3/2}(3-2c) + (c-1)^{3/2}(3+2c)) / 16 sqrt(2).

    Defined for c >= 1 (both states on the paramagnetic side); equals 1/8 at
    c = 1 and falls off as 5 / (32 sqrt(2 c)).
    """
    c = float(c)
    if not math.isfinite(c):
        raise DomainError("c must be finite")
    if c < 1.0:
        raise DomainError(f"multicritical scaling function needs c >= 1, got {c}")
    # the printed form cancels to a relative error of eps c^3 (all digits by c ~ 1e5)
    # and overflows past c ~ 1e205; with s = sqrt(c + 1), t = sqrt(c - 1) and
    # u = s + t it equals (1 + st / u^2) / (4 sqrt(2) u), every term positive
    s, t = math.sqrt(c + 1.0), math.sqrt(c - 1.0)
    u = s + t
    return (1.0 + (s / u) * (t / u)) / (4.0 * math.sqrt(2.0) * u)


def scaling_A_mps(c: float) -> float:
    """Extended-Ising scaling function: 1 for |c| <= 1, |c| - sqrt(c^2 - 1) beyond."""
    a = abs(float(c))
    if not math.isfinite(a):
        raise DomainError("c must be finite")
    if a <= 1.0:
        return 1.0
    # a - sqrt(a^2 - 1) cancels (all digits by a ~ 1e8) and squares a
    return 1.0 / (a + math.sqrt(a - 1.0) * math.sqrt(a + 1.0))


def _dA_dc(c: float) -> float:
    # centered difference; A is even so only a >= 0 is ever probed.
    h = 1e-6 * max(1.0, abs(c))
    return (scaling_A(c + h) - scaling_A(c - h)) / (2.0 * h)


def scaling_param_derivative(g1: float, g2: float, gamma: float) -> float:
    """d/dg2 of the scaling parameter -lim ln F / N along the Ising crossing.

    With delta = (g1 - g2)/2 > 0, eps = (g1 + g2)/2 - 1 and c = eps/delta,

        d/dg2 = A'(c) (eps + delta) / (2 delta gamma) - A(c) / (2 gamma),

    logarithmically divergent as g2 -> 1 (one state pinned on the critical
    point).  A'(c) comes from a centered difference of scaling_A with step
    1e-6 max(1, |c|).
    """
    delta = 0.5 * (g1 - g2)
    if delta <= 0.0 or gamma == 0.0:
        raise DomainError("requires g1 > g2 so that delta > 0, and gamma != 0")
    eps = 0.5 * (g1 + g2) - 1.0
    if g2 == 1.0:
        raise PoleError("derivative of the scaling parameter diverges at g2 = 1")
    c = eps / delta
    return _dA_dc(c) * (eps + delta) / (2.0 * delta * gamma) - scaling_A(c) / (2.0 * gamma)


@dataclass(frozen=True)
class ScalingPrediction:
    """Closed-form ln F / N for one path at size N, with regime diagnostics.

    prefactor is the multiplicative correction to the smooth exponential
    (1, sqrt(2), or the oscillation amplitude 2|cos .|); validity maps the
    relevant regime inequalities to dimensionless ratios, reported but never
    enforced.  formula_id names the producing branch.
    """
    lnF_per_site: float
    prefactor: float
    oscillatory: bool
    validity: dict = field(default_factory=dict)
    formula_id: str = ""
    N: int = 0


_CORNER_EPS = 0.1  # PathC has the multicritical corner's universal rate up to this |eps|


def _require_gamma(spec: PathA, what: str) -> None:
    # the rate divides by gamma, predict_lnF by gamma^2, and the residual's weight
    # is gamma^3: refuse gamma = 0 and every gamma whose cube underflows
    if abs(spec.gamma) ** 3 < sys.float_info.min:
        raise DomainError(f"the Ising-crossing {what} divides by gamma: needs |gamma|^3 "
                          f"to be a normal float, got gamma = {spec.gamma!r}")


def closed_form_rate(spec: PathSpec) -> tuple[float, float, float, str]:
    """The smooth thermodynamic-limit rate lim ln F / N of a path, as (rate, order, weight, name).

    The one place each path's rate is written.  It leaves O(order / weight) of the
    exact rate integral, which verify.residual divides by and name spells out.
    """
    spec = check_path(spec)
    d, c, e = abs(spec.delta), spec.c, abs(spec.eps)
    if isinstance(spec, PathA):
        _require_gamma(spec, "rate")
        return -d * scaling_A(c) / spec.gamma, spec.delta ** 2, spec.gamma ** 3, "delta^2/gamma^3"
    if isinstance(spec, PathB) or isinstance(spec, PathC) and e <= _CORNER_EPS:
        return -2.0 * d * scaling_A(c), spec.delta ** 2, 1.0, "delta^2"
    if isinstance(spec, PathC):
        return -spec.delta ** 2 / (8.0 * e * (1.0 + e) ** 2), spec.delta ** 4, 1.0, "delta^4"
    if isinstance(spec, PathD):
        a2 = spec.alpha ** 2
        return (-d ** 1.5 * a2 * scaling_A_mcp(c) + spec.delta ** 2 * a2 / 4.0, d ** 2.5, 1.0,
                "|delta|^(5/2)")
    if isinstance(spec, ExtIsingPath):
        return -d * scaling_A_mps(c), spec.delta ** 2, 1.0, "delta^2"
    raise DomainError(f"unknown path spec {spec!r}")


def predict_lnF(spec: PathSpec, N: int) -> ScalingPrediction:
    """The closed-form rate at size N, with its validity ratios and finite-N prefactor.

    Each branch picks the prefactor (sqrt(2), an oscillation amplitude, or 1);
    the tail folds its log / N into lnF_per_site.
    """
    N = MomentumGrid(N).N
    rate = closed_form_rate(spec)[0]
    d, c, a, eps = abs(spec.delta), spec.c, abs(spec.c), spec.eps
    prefactor, oscillatory = 1.0, False

    if isinstance(spec, PathA):
        gamma = spec.gamma
        validity = {
            "N_delta_over_gamma": N * d / gamma,
            "delta_over_gamma2": d / gamma ** 2,
            "eps_over_gamma2": abs(eps) / gamma ** 2,
            "N_over_corr_length": N * d * abs(1.0 - a) / gamma,
        }
        formula = "ising_crossing_smooth"
        if a < 1.0:
            formula, prefactor = "ising_crossing_sqrt2", math.sqrt(2.0)
    elif isinstance(spec, PathB):
        validity = {
            "N_over_corr_length": N * d * abs(1.0 - a),
            "delta_margin": d / math.sqrt(1.0 - spec.g ** 2),
            "eps_margin": abs(eps) / math.sqrt(1.0 - spec.g ** 2),
        }
        formula = "anisotropic_crossing_smooth"
        if a < 1.0:
            formula, prefactor, oscillatory = ("anisotropic_crossing_oscillating",
                                               oscillation_factor(kc_anisotropic(spec.g), N), True)
    elif isinstance(spec, PathC):
        validity = {"eps": abs(eps), "delta_over_eps": d / abs(eps) if eps != 0.0 else math.inf}
        formula = "critical_line_nonuniversal"
        if abs(eps) <= _CORNER_EPS:
            formula = "critical_line_universal"
            if a < 1.0:
                formula, prefactor = "critical_line_universal_sqrt2", math.sqrt(2.0)
    elif isinstance(spec, PathD):
        validity = {
            "N_sqrt_delta": N * math.sqrt(d),
            "delta_over_16A2": d / (16.0 * scaling_A_mcp(c) ** 2),
            "N_delta2_term": N * spec.delta ** 2 * spec.alpha ** 2 / 4.0,
        }
        formula = "multicritical_paramagnetic"
    else:  # ExtIsingPath, the last path closed_form_rate accepts
        validity = {
            "N_eps_plus_delta": N * abs(eps + spec.delta),
            "N_eps_minus_delta": N * abs(eps - spec.delta),
        }
        formula = "extended_ising_smooth"
        if a < 1.0:
            formula, prefactor, oscillatory = ("extended_ising_oscillating",
                                               2.0 * abs(math.cos(d * N * math.sqrt(1.0 - c * c))),
                                               True)
        elif a == 1.0:
            formula, prefactor = "extended_ising_sqrt2", math.sqrt(2.0)

    if oscillatory:
        rate += (math.log(prefactor) if prefactor > 0.0 else -math.inf) / N
    elif prefactor != 1.0:  # the sqrt(2) lift
        rate += math.log(2.0) / (2.0 * N)
    return ScalingPrediction(rate, prefactor, oscillatory, validity, formula, N)


def susceptibility_smallsystem(spec: PathSpec, N: int) -> float:
    """Small-system fidelity from the quadratic (susceptibility) expansion.

    PathA pinned on the critical point: F = 1 - d^2 N^2 / (16 gamma^2) and
    off-critical F = 1 - d^2 N / (16 gamma |eps|); the extended chain keeps
    its full hyperbolic form; PathD off-critical uses the multicritical
    susceptibility.  Validity (F close to 1) is the caller's business.
    """
    N = MomentumGrid(N).N
    d = check_path(spec).delta
    eps = spec.eps

    if isinstance(spec, PathA):
        _require_gamma(spec, "expansion")
        if abs(spec.c) <= 1.0:
            return 1.0 - d ** 2 * N ** 2 / (16.0 * spec.gamma ** 2)
        return 1.0 - d ** 2 * N / (16.0 * spec.gamma * abs(eps))

    if isinstance(spec, ExtIsingPath):
        x = eps * N
        if x == 0.0:
            bracket = 2.0
        else:
            # past |x| = 350 sech^2 x < 4e-304 is below half an ulp of tanh(x)/x,
            # and cosh(x)^2 overflows from |x| ~ 355.6 on
            sech2 = 1.0 / math.cosh(x) ** 2 if abs(x) < 350.0 else 0.0
            bracket = sech2 + math.tanh(x) / x
        return 1.0 - 0.5 * d ** 2 * N ** 2 * bracket

    if isinstance(spec, PathD):
        if eps <= 0.0:
            raise DomainError("multicritical susceptibility needs eps > 0")
        return 1.0 - d ** 2 * N * 5.0 * spec.alpha ** 2 / (32.0 * math.sqrt(2.0 * eps))

    raise DomainError(f"no small-system expansion implemented for {type(spec).__name__}")
