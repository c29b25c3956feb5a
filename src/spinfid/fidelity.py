"""Ground-state fidelity: exact finite-N products and thermodynamic-limit quadrature.

The exact overlap of two even-sector ground states factorizes over the
antiperiodic momentum grid,

    F = prod_{k > 0} |f_k|,    k = (2n+1) pi / N,

and is accumulated here in the log domain: near criticality F underflows a
double well below N ~ 1e5, while ln F stays perfectly representable.  The
thermodynamic limit replaces the sum by (N / 2 pi) int_0^pi ln|f_k| dk; the
integrand has integrable logarithmic singularities wherever f_k crosses zero,
so the integration interval is pre-split there (each zero polished by
bisection to within an ulp) and around the gap-closing momenta of either
state, with geometric ladders around every split point.

piecewise_quad, the one quadrature driver of the package, integrates all
pieces at once with the G7K15 Gauss-Kronrod rule and QUADPACK's error
estimate.  Every active panel is held in arrays, and each refinement round
bisects the panels carrying the largest share of the summed error estimate
and evaluates all their nodes in one vectorized integrand call.  The budget
is global; an infinite last piece [a, inf) is integrated in t = a / x; round
and panel caps bound the work, and an estimate still over budget raises
NumericsError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

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


def _bisect_root(fn: Callable[[float], float], guess: float) -> float:
    """Polish a sign change of fn near guess by bisection; falls back to guess.

    Bisects until the bracket stops shrinking, so the root returned is within
    one ulp of the sign change.
    """
    lo, hi = guess - 1e-6, guess + 1e-6
    lo, hi = max(lo, 1e-12), min(hi, math.pi - 1e-12)
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return guess
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm


QUAD_BUDGET = 1e-11  # error budget of the quench and scaled A/B integrals

# piecewise_quad refines to this share of its budget, within these caps
QUAD_GOAL_SHARE = 0.01
QUAD_MAX_ROUNDS = 100
QUAD_MAX_PANELS = 4000

# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15): the Kronrod nodes, and
# the weights of the 15-point Kronrod and the embedded 7-point Gauss rule
_GK_HALF = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
            0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
            0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
            0.207784955007898467600689403773245)
_WK_HALF = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
            0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
            0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
            0.204432940075298892414161999234649)
_WG_HALF = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
            0.0, 0.381830050505118944950369775488975, 0.0)
_GK_X = np.array([*_GK_HALF, 0.0, *(-x for x in reversed(_GK_HALF))])
_GK_WK = np.array([*_WK_HALF, 0.209482141084727828012999174891714, *reversed(_WK_HALF)])
_GK_WG = np.array([*_WG_HALF, 0.417959183673469387755102040816327, *reversed(_WG_HALF)])
_EPS50 = 50.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class QuadResult:
    """One piecewise_quad integral: value, summed error estimate and its cost.

    panels is the final panel count, nodes the integrand evaluations, rounds
    the refinement rounds (one integrand call each, after the first).
    """
    value: float
    error: float
    panels: int
    nodes: int
    rounds: int


def gauss_kronrod(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """G7K15 value and QUADPACK error estimate of f on each panel [a_i, b_i].

    f maps the (panels, 15) array of nodes to the integrand values there.
    The estimate is resasc * min(1, (200 |K - G| / resasc)^1.5), floored at
    50 eps resabs (Piessens et al., QUADPACK, 1983).
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fx = f(c[:, None] + h[:, None] * _GK_X)
    resk = (fx * _GK_WK).sum(axis=1)
    diff = np.abs(((fx * _GK_WG).sum(axis=1) - resk) * h)
    ah = np.abs(h)
    resabs = (np.abs(fx) * _GK_WK).sum(axis=1) * ah
    resasc = (np.abs(fx - 0.5 * resk[:, None]) * _GK_WK).sum(axis=1) * ah
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (diff != 0.0), scaled, diff)
    return resk * h, np.maximum(err, _EPS50 * resabs)


def piecewise_quad(integrand: Callable[..., np.ndarray], edges: Sequence[float],
                   budget: float) -> QuadResult:
    """Adaptive Gauss-Kronrod integral over consecutive pieces [edges[i], edges[i+1]].

    integrand(x, lo, hi) is vectorized: x is an array of nodes and lo, hi
    broadcast against it with the ends of each node's piece.  The last edge
    may be np.inf; that piece [lo, inf) is integrated in t = lo / x over
    (0, 1].  Every active panel of every piece is held in arrays; each round
    bisects the panels carrying the largest share of the summed error estimate
    and evaluates all their nodes in one integrand call, until the summed
    estimate is within QUAD_GOAL_SHARE of budget (or at the estimate's
    rounding floor).  Sums are exactly rounded.  A non-finite panel value, or
    an estimate still over budget at QUAD_MAX_ROUNDS or QUAD_MAX_PANELS,
    raises NumericsError with the round, panel and node counts and the worst
    panels.
    """
    lo = np.asarray(edges[:-1], dtype=np.float64)
    hi = np.asarray(edges[1:], dtype=np.float64)
    tail = np.isinf(hi)
    if np.any(tail[:-1]) or np.any(tail & (lo <= 0.0)):
        raise DomainError("only the last piece may be infinite, and it must start above 0")
    a = np.where(tail, 0.0, lo)
    b = np.where(tail, 1.0, hi)
    piece = np.arange(lo.size)

    def rule(a: np.ndarray, b: np.ndarray, piece: np.ndarray):
        plo, phi, ptail = lo[piece, None], hi[piece, None], tail[piece, None]

        def f(t: np.ndarray) -> np.ndarray:  # a tail node t stands for x = lo / t
            x = np.where(ptail, plo / t, t)
            return integrand(x, plo, phi) * np.where(ptail, x / t, 1.0)
        return gauss_kronrod(f, a, b)

    val, err = rule(a, b, piece)
    nodes, rounds = _GK_X.size * a.size, 0
    while True:
        if not np.all(np.isfinite(val)):
            i = int(np.argmin(np.isfinite(val)))
            raise NumericsError(f"quadrature returned a non-finite value on "
                                f"{_panel_span(a[i], b[i], lo[piece[i]], tail[piece[i]])}")
        total = math.fsum(err)
        # the estimate is least pessimistic on panels ending at a log singularity
        # (true error up to about 1/50 of it), so refine well below the budget,
        # but not into the estimate's rounding floor of 50 eps per unit of |f|
        goal = min(budget, max(QUAD_GOAL_SHARE * budget,
                               4.0 * _EPS50 * math.fsum(np.abs(val))))
        if total <= goal:
            break
        order = np.argsort(-err, kind="stable")
        nsel = min(int(np.searchsorted(np.cumsum(err[order]), total - 0.5 * goal)) + 1, a.size)
        if rounds == QUAD_MAX_ROUNDS or a.size + nsel > QUAD_MAX_PANELS:
            break
        sel, keep = order[:nsel], order[nsel:]
        mid = 0.5 * (a[sel] + b[sel])
        na, nb = np.concatenate([a[sel], mid]), np.concatenate([mid, b[sel]])
        npiece = np.concatenate([piece[sel], piece[sel]])
        nval, nerr = rule(na, nb, npiece)
        a, b = np.concatenate([a[keep], na]), np.concatenate([b[keep], nb])
        piece = np.concatenate([piece[keep], npiece])
        val, err = np.concatenate([val[keep], nval]), np.concatenate([err[keep], nerr])
        nodes += _GK_X.size * na.size
        rounds += 1
    if total > budget:
        worst = [(*_panel_span(a[i], b[i], lo[piece[i]], tail[piece[i]]), float(err[i]))
                 for i in order[:5]]
        cap = "round" if rounds == QUAD_MAX_ROUNDS else "panel"
        raise NumericsError(f"quadrature error estimate {total:.3e} exceeds budget "
                            f"{budget:.3e} at the {cap} cap: {rounds} rounds, {a.size} "
                            f"panels, {nodes} integrand nodes; worst panels: {worst}")
    return QuadResult(math.fsum(val), total, a.size, nodes, rounds)


def _panel_span(a: float, b: float, lo: float, tail: bool) -> tuple[float, float]:
    """Panel [a, b] as a k or l interval (a tail panel lives in t = lo / x)."""
    if not tail:
        return float(a), float(b)
    return float(lo / b), (math.inf if a == 0.0 else float(lo / a))


def k_integrand(p1: ModelParams, p2: ModelParams,
                of_log_f: Callable[[np.ndarray], np.ndarray]
                ) -> tuple[Callable[..., np.ndarray], list[float]]:
    """Integrand k -> of_log_f(ln|f_k|) for piecewise_quad, and its edges 0, breakpoints, pi.

    A node within rounding distance of a kernel zero can see ln|f_k| round to
    -inf; it is nudged 1e-14 off its piece's nearer inner end (every breakpoint
    is one, and kernel zeros are polished to within an ulp), which moves the
    integral by < 1e-14 in measure.  A non-finite value raises NumericsError.
    """
    kernel = _log_kernel(p1, p2)

    def integrand(k: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        end = np.where(k - lo <= hi - k, lo, hi)
        near = (np.abs(k - end) < 1e-14) & (end > 0.0) & (end < math.pi)
        k = np.where(near, np.where(k >= end, end + 1e-14, end - 1e-14), k)
        val = of_log_f(kernel(k))
        bad = ~np.isfinite(val)
        if bad.any():
            raise NumericsError(f"integrand is singular at an unbracketed point "
                                f"k = {float(k[bad][0])!r}")
        return val

    return integrand, [0.0] + integration_breakpoints(p1, p2) + [math.pi]


def fidelity_integral(p1: ModelParams, p2: ModelParams, tol: float = 1e-11) -> float:
    """Thermodynamic-limit ln F per site, (1/2 pi) int_0^pi ln|f_k| dk.

    Piecewise quadrature between the mandatory breakpoints to a summed error
    estimate of 2 pi tol on the k-integral; failing that raises NumericsError
    with diagnostics.
    """
    if p1 == p2:
        return 0.0
    integrand, edges = k_integrand(p1, p2, lambda lnf: lnf)
    return piecewise_quad(integrand, edges, 2.0 * math.pi * tol).value / (2.0 * math.pi)


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
