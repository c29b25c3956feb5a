"""Closed-form universal scaling functions and assembled fidelity predictions.

The thermodynamic-limit log-fidelity per site of every path reduces to one of
a small family of scaling functions:

    A(c)      Ising-line crossing; rate -|delta| A(c) / gamma
    A_mcp(c)  multicritical approach; rate -|delta|^{3/2} alpha^2 A_mcp(c)
    A_mps(c)  extended Ising chain;  rate -|delta| A_mps(c)
    B(c)      excited-quasiparticle density n_ex = |delta| B(c) / gamma after a sudden move

A and B are piecewise combinations of complete elliptic integrals with
arguments c1 = -4|c|/(|c|-1)^2 and c2 = ((|c|+1)/(|c|-1))^2; both stay
continuous across |c| = 1, where c1, c2 blow up and the closed form is
replaced by direct quadrature of the underlying scaled integral.  The
quadrature forms (gated by their error estimate) are exposed as *_quadrature
so the elliptic assembly can be checked against an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PoleError
from .fidelity import QUAD_BUDGET, oscillation_factor, piecewise_quad
from .models import (
    ExtIsingPath,
    MomentumGrid,
    PathA,
    PathB,
    PathC,
    PathD,
    PathSpec,
    check_path,
    kc_anisotropic,
)
from .specfun import elliptic_E, elliptic_K

#: Critical exponents of the regimes handled here (metadata, never computed).
#: d = 1 throughout; the multicritical entry is the paramagnetic-side value.
CRITICAL_EXPONENTS = {
    "ising": {"nu": 1.0, "z": 1.0, "d": 1},
    "anisotropic": {"nu": 1.0, "z": 1.0, "d": 1},
    "extended_ising": {"nu": 1.0, "z": 2.0, "d": 1},
    "multicritical_paramagnetic": {"nu": 0.5, "d": 1},
}

# Closed-form arguments are singular at |c| = 1; inside this window the
# quadrature route takes over (the functions themselves are continuous).
_UNIT_WINDOW = 1e-9


def _c1_c2(a: float) -> tuple[float, float]:
    d = (a - 1.0) ** 2
    return -4.0 * a / d, (a + 1.0) ** 2 / d


def _scaled_log_kernel(l: np.ndarray, a: float) -> np.ndarray:
    """ln(1/2 + x / (2 sqrt(x^2 + 4 l^2))) with x = l^2 + c^2 - 1, cancellation-free."""
    x = l * l + a * a - 1.0
    s = np.hypot(x, 2.0 * l)
    num = 2.0 * l * l
    with np.errstate(divide="ignore", invalid="ignore"):  # the branch np.where drops
        return np.where(x > 0.0, np.log1p(-num / (s * (s + x))),
                        np.log(num) - np.log(s * (s - x)))


def _scaled_pex_kernel(l: np.ndarray, a: float) -> np.ndarray:
    """1/2 - x / (2 sqrt(x^2 + 4 l^2)), the scaled per-mode excitation probability."""
    x = l * l + a * a - 1.0
    s = np.hypot(x, 2.0 * l)
    with np.errstate(divide="ignore", invalid="ignore"):  # the branch np.where drops
        return np.where(x > 0.0, 2.0 * l * l / (s * (s + x)), (s - x) / (2.0 * s))


def _improper_quad(fn, a: float) -> float:
    # the kernels turn over at l ~ s/2 and l ~ sqrt(s), s = |1 - c^2|; below the
    # first split a decade ladder brackets the log singularity at l = 0 (|c| < 1)
    s = abs(1.0 - a * a)
    inner = [s / 2.0, math.sqrt(s)] if 0.0 < s < 1.0 else []
    first = inner[0] if inner else 1.0
    ladder = [first * 10.0 ** -e for e in range(12, 0, -1)]
    return piecewise_quad(lambda l, lo, hi: fn(l, a), [0.0, *ladder, *inner, 1.0, 8.0, np.inf],
                          QUAD_BUDGET).value


def scaling_A_quadrature(c: float) -> float:
    """Ising-crossing scaling function by direct quadrature of its defining integral."""
    a = abs(float(c))
    return -_improper_quad(_scaled_log_kernel, a) / (4.0 * math.pi)


def scaling_B_quadrature(c: float) -> float:
    """Quench scaling function by direct quadrature of its defining integral."""
    a = abs(float(c))
    return _improper_quad(_scaled_pex_kernel, a) / math.pi


def scaling_A(c: float) -> float:
    """Scaling function of the Ising-line crossing; A(0) = 1/4, A(c) ~ 1/16|c|.

    Piecewise elliptic form with K at c1 <= 0 and Im E at c2 >= 1; even in c
    and continuous (with a logarithmically divergent derivative) at |c| = 1,
    where the quadrature route supplies the value.
    """
    a = abs(float(c))
    if not math.isfinite(a):
        raise DomainError("c must be finite")
    if abs(a - 1.0) < _UNIT_WINDOW:
        return scaling_A_quadrature(a)
    c1, c2 = _c1_c2(a)
    term_k = a * elliptic_K(c1).real / (2.0 * math.pi)
    term_e = (a - 1.0) * elliptic_E(c2).imag / (4.0 * math.pi)
    if a < 1.0:
        return 0.25 + term_k + term_e
    return 0.25 * a - term_k - term_e


def scaling_B(c: float) -> float:
    """Scaling function of the excitation density; B(0) = 1/2, B(c) ~ 1/4|c|."""
    a = abs(float(c))
    if not math.isfinite(a):
        raise DomainError("c must be finite")
    if abs(a - 1.0) < _UNIT_WINDOW:
        return scaling_B_quadrature(a)
    c1, c2 = _c1_c2(a)
    k = elliptic_K(c1).real
    ime = elliptic_E(c2).imag
    if a < 1.0:
        return ((1.0 - a) * ime + 2.0 * k) / (2.0 * math.pi)
    return ((a - 1.0) * ime - 2.0 * k) / (2.0 * math.pi)


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
    if c < 1.0:
        raise DomainError(f"multicritical scaling function needs c >= 1, got {c}")
    return ((c + 1.0) ** 1.5 * (3.0 - 2.0 * c) + (c - 1.0) ** 1.5 * (3.0 + 2.0 * c)) / (16.0 * math.sqrt(2.0))


def scaling_A_mps(c: float) -> float:
    """Extended-Ising scaling function: 1 for |c| <= 1, |c| - sqrt(c^2 - 1) beyond."""
    a = abs(float(c))
    if not math.isfinite(a):
        raise DomainError("c must be finite")
    if a <= 1.0:
        return 1.0
    return a - math.sqrt(a * a - 1.0)


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


_LN2 = math.log(2.0)


def predict_lnF(spec: PathSpec, N: int) -> ScalingPrediction:
    """Dispatch the thermodynamic-limit prediction for a path at size N.

    Smooth decay rates: PathA -|d| A(c) / gamma; PathB -2 |d| A(c); PathC
    -2 |d| A(c) near the multicritical corner and the nonuniversal
    -d^2 / (8|e|(1+|e|)^2) away from it; PathD -|d|^{3/2} a^2 A_mcp(c)
    + d^2 a^2 / 4; extended chain -|d| A_mps(c).  Discretization corrections
    (the sqrt(2) shift, oscillation prefactors) are folded into lnF_per_site.
    """
    N = MomentumGrid(N).N
    spec = check_path(spec)
    d = abs(spec.delta)
    c = spec.c
    a = abs(c)
    eps = spec.eps

    if isinstance(spec, PathA):
        gamma = spec.gamma
        if gamma == 0.0:
            raise DomainError("the Ising-crossing rate divides by gamma: needs gamma != 0")
        rate = -d * scaling_A(c) / gamma
        validity = {
            "N_delta_over_gamma": N * d / gamma,
            "delta_over_gamma2": d / gamma ** 2,
            "eps_over_gamma2": abs(eps) / gamma ** 2,
            "N_over_corr_length": N * d * abs(1.0 - a) / gamma,
        }
        if a < 1.0:
            return ScalingPrediction(rate + _LN2 / (2.0 * N), math.sqrt(2.0), False,
                                     validity, "ising_crossing_sqrt2", N)
        return ScalingPrediction(rate, 1.0, False, validity, "ising_crossing_smooth", N)

    if isinstance(spec, PathB):
        rate = -2.0 * d * scaling_A(c)
        kc = kc_anisotropic(spec.g)
        validity = {
            "N_over_corr_length": N * d * abs(1.0 - a),
            "delta_margin": d / math.sqrt(1.0 - spec.g ** 2),
            "eps_margin": abs(eps) / math.sqrt(1.0 - spec.g ** 2),
        }
        if a < 1.0:
            osc = oscillation_factor(kc, N)
            lnosc = math.log(osc) if osc > 0.0 else -math.inf
            return ScalingPrediction(rate + lnosc / N, osc, True,
                                     validity, "anisotropic_crossing_oscillating", N)
        return ScalingPrediction(rate, 1.0, False, validity, "anisotropic_crossing_smooth", N)

    if isinstance(spec, PathC):
        validity = {"eps": abs(eps), "delta_over_eps": d / abs(eps) if eps != 0.0 else math.inf}
        if abs(eps) <= 0.1:
            # multicritical corner dominates while |eps| << 1
            rate = -2.0 * d * scaling_A(c)
            if a < 1.0:
                return ScalingPrediction(rate + _LN2 / (2.0 * N), math.sqrt(2.0), False,
                                         validity, "critical_line_universal_sqrt2", N)
            return ScalingPrediction(rate, 1.0, False, validity, "critical_line_universal", N)
        rate = -spec.delta ** 2 / (8.0 * abs(eps) * (1.0 + abs(eps)) ** 2)
        return ScalingPrediction(rate, 1.0, False, validity, "critical_line_nonuniversal", N)

    if isinstance(spec, PathD):
        al = spec.alpha
        amcp = scaling_A_mcp(c)
        rate = -d ** 1.5 * al ** 2 * amcp + spec.delta ** 2 * al ** 2 / 4.0
        validity = {
            "N_sqrt_delta": N * math.sqrt(d),
            "delta_over_16A2": d / (16.0 * amcp ** 2),
            "N_delta2_term": N * spec.delta ** 2 * al ** 2 / 4.0,
        }
        return ScalingPrediction(rate, 1.0, False, validity, "multicritical_paramagnetic", N)

    if isinstance(spec, ExtIsingPath):
        rate = -d * scaling_A_mps(c)
        validity = {
            "N_eps_plus_delta": N * abs(eps + spec.delta),
            "N_eps_minus_delta": N * abs(eps - spec.delta),
        }
        if a < 1.0:
            osc = 2.0 * abs(math.cos(d * N * math.sqrt(1.0 - c * c)))
            lnosc = math.log(osc) if osc > 0.0 else -math.inf
            return ScalingPrediction(rate + lnosc / N, osc, True,
                                     validity, "extended_ising_oscillating", N)
        if a == 1.0:
            return ScalingPrediction(rate + _LN2 / (2.0 * N), math.sqrt(2.0), False,
                                     validity, "extended_ising_sqrt2", N)
        return ScalingPrediction(rate, 1.0, False, validity, "extended_ising_smooth", N)

    raise DomainError(f"unknown path spec {spec!r}")


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
        if spec.gamma == 0.0:
            raise DomainError("the Ising-crossing expansion divides by gamma: needs gamma != 0")
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
