"""Ground-state fidelity: exact finite-N products and thermodynamic-limit quadrature.

The exact overlap of two even-sector ground states factorizes over the
antiperiodic momentum grid,

    F = prod_{k > 0} |f_k|,    k = (2n+1) pi / N,

and is accumulated here in the log domain: near criticality F underflows a
double well below N ~ 1e5, while ln F stays perfectly representable.  The
thermodynamic limit replaces the sum by (N / 2 pi) int_0^pi ln|f_k| dk; the
integrand has integrable logarithmic singularities wherever f_k crosses zero,
so the integration interval is pre-split there (and around the gap-closing
momenta of either state) before handing each piece to adaptive Gauss-Kronrod
quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import DomainError, NumericsError
from .models import (
    ExtIsingParams,
    ModelParams,
    MomentumGrid,
    XYParams,
    log_abs_fk_extising,
    log_abs_fk_xy,
)

# |f_k| below this is treated as an exact zero of the product.  A mode pinned
# on a gap-closing momentum genuinely gives f_k = 0, and anything this small
# has no representable effect on F anyway.
EXACT_ZERO_FLOOR = 1e-300
_LOG_FLOOR = math.log(EXACT_ZERO_FLOOR)

_CHUNK = 1 << 20


@dataclass(frozen=True)
class FidelityResult:
    """Log-fidelity and fidelity of one ground-state pair at size N.

    F = exp(lnF) except in the exact-zero case (lnF = -inf, F = 0,
    exact_zero set).  per_mode, when requested, is an (N/2, 2) array of
    (k, f_k) rows with f_k signed for the extended chain.
    """
    lnF: float
    F: float
    N: int
    exact_zero: bool
    per_mode: Optional[np.ndarray] = None


def _log_kernel(p1: ModelParams, p2: ModelParams) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(p1, XYParams) and isinstance(p2, XYParams):
        return lambda k: log_abs_fk_xy(k, p1, p2)
    if isinstance(p1, ExtIsingParams) and isinstance(p2, ExtIsingParams):
        return lambda k: log_abs_fk_extising(k, p1.g, p2.g)
    raise DomainError(f"parameter sets of mixed model kinds: {type(p1).__name__}, {type(p2).__name__}")


def fidelity_product(p1: ModelParams, p2: ModelParams, N: int,
                     keep_per_mode: bool = False) -> FidelityResult:
    """Exact fidelity via the momentum product, log-domain, compensated summation.

    ln F = sum_{k>0} ln|f_k| accumulated in ascending-k order with exactly
    rounded compensated summation (math.fsum), so repeated runs are
    bit-identical.  Any mode with |f_k| below EXACT_ZERO_FLOOR makes the
    product an exact zero and sets the flag.
    """
    grid = MomentumGrid(int(N))
    kernel = _log_kernel(p1, p2)
    ks = grid.modes
    per_mode = None

    def chunks():
        for lo in range(0, ks.size, _CHUNK):
            yield ks[lo:lo + _CHUNK]

    exact_zero = False
    partials: list[float] = []
    mode_rows = [] if keep_per_mode else None
    for kc in chunks():
        vals = kernel(kc)
        if mode_rows is not None:
            mode_rows.append(vals.copy())
        if np.any(vals < _LOG_FLOOR):
            exact_zero = True
        partials.append(math.fsum(vals))
    lnF = math.fsum(partials)
    if keep_per_mode:
        logf = np.concatenate(mode_rows)
        if isinstance(p1, ExtIsingParams):
            from .models import fk_extising
            fvals = fk_extising(ks, p1.g, p2.g)
        else:
            fvals = np.exp(logf)
        per_mode = np.column_stack([ks, fvals])
    if exact_zero or lnF == -math.inf:
        return FidelityResult(lnF=-math.inf, F=0.0, N=int(N), exact_zero=True, per_mode=per_mode)
    return FidelityResult(lnF=lnF, F=math.exp(lnF), N=int(N), exact_zero=False, per_mode=per_mode)


def _ladder(anchor: float, scales: tuple[float, ...]) -> list[float]:
    pts = []
    for s in scales:
        pts.append(anchor + s)
        pts.append(anchor - s)
    return pts


_END_SCALES = tuple(math.pi * 10.0 ** e for e in range(-12, 0)) + (math.pi * 0.3,)
_INNER_SCALES = (1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1)


def integration_breakpoints(p1: ModelParams, p2: ModelParams) -> list[float]:
    """Mandatory split points in (0, pi) for the ln|f_k| quadrature.

    Collects the analytic zeros of f_k (where q_k = 0 with p_k < 0 for the XY
    kernel, p_k = 0 for the extended one), the gap-minimum momenta of either
    state, and geometric ladders around each of these and both interval ends,
    so that arbitrarily narrow dips are bracketed before adaptive subdivision
    starts.
    """
    anchors: list[float] = []
    if isinstance(p1, XYParams):
        g1, gam1 = p1.g, p1.gamma
        g2, gam2 = p2.g, p2.gamma
        if gam1 != gam2:
            x = (gam2 * g1 - gam1 * g2) / (gam2 - gam1)
            if -1.0 <= x <= 1.0:
                anchors.append(_bisect_root(
                    lambda k: gam2 * (g1 - math.cos(k)) - gam1 * (g2 - math.cos(k)),
                    math.acos(x)))
        for g, gam in ((g1, gam1), (g2, gam2)):
            if gam == 0.0:
                if -1.0 <= g <= 1.0:
                    anchors.append(math.acos(g))
            elif abs(gam) < 1.0:
                x = g / (1.0 - gam * gam)
                if -1.0 <= x <= 1.0:
                    anchors.append(math.acos(x))
    else:
        g1, g2 = p1.g, p2.g
        gg = g1 * g2
        if gg < 0.0:
            x = (1.0 + gg) / (1.0 - gg)
            if -1.0 <= x <= 1.0:
                anchors.append(_bisect_root(
                    lambda k: 1.0 + gg - (1.0 - gg) * math.cos(k), math.acos(x)))

    pts: list[float] = []
    pts.extend(_END_SCALES)
    pts.extend(math.pi - s for s in _END_SCALES)
    for a in anchors:
        pts.append(a)
        pts.extend(_ladder(a, _INNER_SCALES))
    pts = sorted(x for x in pts if 1e-15 < x < math.pi - 1e-15)
    dedup: list[float] = []
    for x in pts:
        if not dedup or x - dedup[-1] > 1e-14:
            dedup.append(x)
    return dedup


def _bisect_root(fn: Callable[[float], float], guess: float, tol: float = 1e-13) -> float:
    """Polish a sign change of fn near guess by bisection; falls back to guess."""
    lo, hi = guess - 1e-6, guess + 1e-6
    lo, hi = max(lo, 1e-12), min(hi, math.pi - 1e-12)
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return guess
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


QUAD_BUDGET = 1e-11  # error budget of the quench and scaled A/B integrals (worst seen: 2e-13)


def piecewise_quad(integrand: Callable[..., float], edges: Sequence[float], epsabs: float,
                   budget: float, *, epsrel: float = 1e-12, limit: int = 200) -> float:
    """Sum of adaptive Gauss-Kronrod (scipy quad) integrals over consecutive [a, b] edges.

    integrand(x, a, b) also gets the ends of its piece (an edge may be np.inf).
    Sums are exactly rounded; a nan piece, or a summed error estimate above
    budget, raises NumericsError naming the pieces whose estimate exceeds epsabs.
    """
    pieces: list[tuple[float, float, float, float]] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            val, err = quad(integrand, a, b, args=(a, b), epsabs=epsabs, epsrel=epsrel,
                            limit=limit)
            if math.isnan(val):
                raise NumericsError(f"quadrature returned nan on [{a}, {b}]")
            pieces.append((a, b, val, err))
    est_err = math.fsum(err for _, _, _, err in pieces)
    if est_err > budget:
        bad = [(a, b, err) for a, b, _, err in pieces if err > epsabs]
        raise NumericsError(f"quadrature error estimate {est_err:.3e} exceeds budget "
                            f"{budget:.3e}; worst pieces: {bad[:5]}")
    return math.fsum(val for _, _, val, _ in pieces)


def k_integrand(p1: ModelParams, p2: ModelParams, of_log_f: Callable[[float], float]
                ) -> tuple[Callable[..., float], list[float]]:
    """Integrand k -> of_log_f(ln|f_k|) for piecewise_quad, and its edges 0, breakpoints, pi.

    A node within rounding distance of a kernel zero can see ln|f_k| round to
    -inf; it is nudged 1e-14 off its piece's nearer inner end (every breakpoint
    is one), which moves the integral by < 1e-14 in measure.  A non-finite
    value raises NumericsError.
    """
    kernel = _log_kernel(p1, p2)

    def integrand(k: float, lo: float, hi: float) -> float:
        a = lo if k - lo <= hi - k else hi
        if abs(k - a) < 1e-14 and 0.0 < a < math.pi:
            k = a + 1e-14 if k >= a else a - 1e-14
        val = of_log_f(float(kernel(np.array([k]))[0]))
        if not math.isfinite(val):
            raise NumericsError(f"integrand is singular at an unbracketed point k = {k!r}")
        return val

    return integrand, [0.0] + integration_breakpoints(p1, p2) + [math.pi]


def fidelity_integral(p1: ModelParams, p2: ModelParams, tol: float = 1e-11) -> float:
    """Thermodynamic-limit ln F per site, (1/2 pi) int_0^pi ln|f_k| dk.

    Piecewise quadrature between the mandatory breakpoints; a summed error
    estimate above tol raises NumericsError with per-piece diagnostics.
    """
    if p1 == p2:
        return 0.0
    integrand, edges = k_integrand(p1, p2, lambda lnf: lnf)
    budget = 2.0 * math.pi * tol
    eps_each = max(budget / len(edges), 1e-15)
    return piecewise_quad(integrand, edges, eps_each, budget) / (2.0 * math.pi)


def _log_pow_sum(x: float, N: int) -> float:
    """ln(|1+x|^N + |1-x|^N), factoring out the dominant term."""
    la = N * math.log(abs(1.0 + x)) if x != -1.0 else -math.inf
    lb = N * math.log(abs(1.0 - x)) if x != 1.0 else -math.inf
    hi, lo = max(la, lb), min(la, lb)
    if hi == -math.inf:
        raise DomainError("both terms vanish in the closed-form overlap")
    return hi + math.log1p(math.exp(lo - hi))


def fidelity_mps_closed(g1: float, g2: float, N: int) -> FidelityResult:
    """Closed-form extended-Ising fidelity from the matrix-product ground states.

        F = |(1+s)^N + (1-s)^N| / sqrt[((1+g1)^N + (1-g1)^N)((1+g2)^N + (1-g2)^N)],
        s = sqrt(g1 g2),

    evaluated in the log domain with largest-term factoring so it stays finite
    up to N ~ 1e7.  Couplings of opposite sign make s imaginary and are
    rejected; the momentum product covers that regime.
    """
    grid = MomentumGrid(int(N))
    if g1 * g2 < 0.0:
        raise DomainError("closed-form overlap needs g1*g2 >= 0; use fidelity_product instead")
    s = math.sqrt(g1 * g2)
    lnF = _log_pow_sum(s, grid.N) - 0.5 * (_log_pow_sum(g1, grid.N) + _log_pow_sum(g2, grid.N))
    # roundoff can leave lnF at +1e-16 for identical inputs
    lnF = min(lnF, 0.0)
    return FidelityResult(lnF=lnF, F=math.exp(lnF), N=grid.N, exact_zero=False)


def phi_offset(kc: float, N: int) -> float:
    """Offset of the gap-closing momentum kc against the discrete grid.

    phi = (N kc / pi) modulo 2, mapped into (-1, 1].  phi = +-1 means kc
    coincides with a grid momentum; phi = 0 puts kc exactly between two.
    """
    if not 0.0 <= kc <= math.pi:
        raise DomainError(f"kc must lie in [0, pi], got {kc}")
    MomentumGrid(int(N))
    phi = math.fmod(N * kc / math.pi, 2.0)
    if phi > 1.0:
        phi -= 2.0
    elif phi <= -1.0:
        phi += 2.0
    return phi


def oscillation_factor(kc: float, N: int) -> float:
    """Fidelity modulation 2 |cos(pi phi / 2)| = 2 |cos(kc N / 2)| in [0, 2].

    Evaluated through phi_offset rather than the raw large argument kc N / 2,
    which keeps the reduction modulo 2 pi exact for large N.
    """
    phi = phi_offset(kc, N)
    return 2.0 * abs(math.cos(0.5 * math.pi * phi))
