"""Ground-state fidelity: exact finite-N products and thermodynamic-limit quadrature.

The exact overlap of two even-sector ground states factorizes over the
antiperiodic momentum grid,

    F = prod_{k > 0} |f_k|,    k = (2n+1) pi / N,

and is accumulated here in the log domain: near criticality F underflows a
double well below N ~ 1e5, while ln F stays perfectly representable.  The
product engine walks the grid one block of 8192 modes at a time (the kernel's
temporaries stay in cache, and no array of all N/2 modes is held), and the
kernel writes each block's ln|f_k| straight into its chunk of 2^20 modes.  Each
chunk is summed with exact_sum, exactly rounded by error-free extraction and
equal to math.fsum, and the chunk partials with math.fsum.  XY products at
N <= 2^21 hand the kernel the block's rows of the per-N memo models.trig_rows
(sin k and the gap base), so a memo hit makes no momenta and no trigonometry;
the extended chain and larger N get momenta made from their indices.  The
thermodynamic limit replaces the sum by (N / 2 pi) int_0^pi ln|f_k| dk; the
integrand has integrable logarithmic singularities wherever f_k crosses zero,
so the integration interval is pre-split there (each zero polished by
bisection to within an ulp) and around the gap-closing momenta of either
state, with geometric ladders around every split point: by half decades down
to pi 1e-15 from either end of [0, pi], and from every inner split point by
third decades from 1e-1 to 1e-4 and then at 1e-6, 1e-8 and every decade from
1e-10 to 1e-13.  Adaptive refinement then does not spend its rounds halving
the panel next to a singularity down to those widths, and the first pass
nearly meets the goal.  Only a node where ln|f_k| comes out
non-finite (one on the rounding interval of a zero) is moved, to the nearest
momentum of its own piece where it is finite.

piecewise_quad, the one quadrature driver of the package, integrates finite
pieces, all at once, with the G7K15 Gauss-Kronrod rule and QUADPACK's error
estimate.  Every active panel is held in arrays, and each refinement round
bisects the panels carrying the largest share of the summed error estimate
and evaluates all their nodes in one vectorized integrand call.  The budget
is global; round and panel caps bound the work, and an estimate still over
budget raises NumericsError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericsError
from .models import (
    ModelParams,
    MomentumGrid,
    XYParams,
    log_abs_fk_extising,
    log_abs_fk_xy,
    trig_rows,
)

# |f_k| below this is treated as an exact zero of the product.  A mode pinned
# on a gap-closing momentum genuinely gives f_k = 0, and anything this small
# has no representable effect on F anyway.
EXACT_ZERO_FLOOR = 1e-300
_LOG_FLOOR = math.log(EXACT_ZERO_FLOOR)

_CHUNK = 1 << 20  # modes per exact partial sum; the partials are summed once more

# exact_sum: the sizes where extraction beats math.fsum; values per extraction
# block (2^_SUM_BITS); the magnitude from which math.fsum takes over at once
# (2^26 terms below 2^996 and their block partials sum to less than 2^1023);
# and the smallest exponent of the splitting constant whose unit, 2^-53 of it,
# is still a normal double
_SUM_MIN, _SUM_MAX = 1024, 1 << 26
_SUM_BITS = 14
_SUM_BIG = 2.0 ** 996
_SUM_LOW_EXP = -1022 + 53


def _extract(x: np.ndarray) -> Optional[tuple[list[float], float]]:
    # Two levels of block partials tau, whose exact sum is the total of x up to
    # at most the returned bound; None where math.fsum has to take over.
    taus: list[float] = []
    bounds: list[float] = []
    step = 1 << _SUM_BITS
    q, r = np.empty(min(step, x.size)), np.empty(min(step, x.size))
    for lo in range(0, x.size, step):
        v = x[lo:lo + step]
        m = max(v.max(), -v.min())
        if not m < _SUM_BIG:
            return None
        if m == 0.0:
            continue
        qb, rb = q[:v.size], r[:v.size]
        s = math.frexp(m)[1] + _SUM_BITS  # |v| <= 2^(s - _SUM_BITS), v.size <= 2^_SUM_BITS
        for last in (False, True):
            if s < _SUM_LOW_EXP:
                return None
            sigma = math.ldexp(1.0, s)
            np.add(v, sigma, out=qb)
            np.subtract(qb, sigma, out=qb)
            taus.append(float(qb.sum()))
            if not last:
                v = np.subtract(v, qb, out=rb)
            s -= 53 - _SUM_BITS  # the rest is at most 2^(s - 53) = 2^(new s - _SUM_BITS)
        bounds.append(math.ldexp(v.size, s - _SUM_BITS))
    return taus, math.nextafter(math.fsum(bounds), math.inf) if bounds else 0.0


def exact_sum(x: np.ndarray) -> float:
    """Exactly rounded sum of the float64 values of x; always equal to math.fsum(x).

    Error-free extraction after Rump, Ogita & Oishi (Accurate floating-point
    summation I and II, SIAM J. Sci. Comput. 31 (2008)), on blocks of 2^14 values.  With sigma = 2^(e+14) and
    every |v| <= 2^e, q = (v + sigma) - sigma is exact, a multiple of
    2^(e+14-53) and at most 2^e in magnitude, so q.sum() is exact in any order
    and so is the rest v - q, at most 2^(e+14-53).  Two such levels leave a
    rest bounded by B = sum of (block size x its last unit); if math.fsum of
    the block partials with -B and with +B agree, rounding being monotone, that
    is the exactly rounded total.  Otherwise, and for non-finite or
    near-overflow input, a unit below the normal range and arrays too short to
    pay, math.fsum(x) gives it.
    """
    x = np.ravel(np.asarray(x, dtype=np.float64))
    if not _SUM_MIN <= x.size <= _SUM_MAX:
        return math.fsum(x)
    parts = _extract(x)
    if parts is not None:
        taus, bound = parts
        if not taus:  # all zeros: the sign math.fsum gives them
            return math.fsum(x[:1]) if np.signbit(x).all() else 0.0
        low = math.fsum(taus + [-bound])
        if low == math.fsum(taus + [bound]):
            return low
    return math.fsum(x)


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


def _log_kernel(p1: ModelParams, p2: ModelParams, grid: Optional[MomentumGrid] = None
                ) -> tuple[Callable[..., np.ndarray], Optional[Callable[[int, int], object]]]:
    # kernel(x, out=None) gives ln|f_k| at x, written into out when given.  Selected
    # here rather than by the parameter classes so that every kernel call looks up
    # this module's log_abs_fk_xy / log_abs_fk_extising.  Over a grid, modes(lo, hi)
    # gives what the kernel reads for modes lo .. hi - 1: an XY grid's memo rows where
    # trig_rows keeps them, so no momenta are made, and the momenta otherwise.
    p1.check_same_kind(p2)
    modes = None if grid is None else grid.block
    if isinstance(p1, XYParams):
        rows = None if grid is None else trig_rows(grid)
        return (lambda x, out=None: log_abs_fk_xy(x, p1, p2, out)), rows or modes
    return (lambda x, out=None: log_abs_fk_extising(x, p1.g, p2.g, out)), modes


def log_mode_chunks(p1: ModelParams, p2: ModelParams, grid: MomentumGrid) -> Iterator[np.ndarray]:
    """ln|f_k| over the grid in ascending k, one array per _CHUNK modes.

    Each chunk is filled in place by one kernel call per grid block, so no
    array of all N/2 modes is held.
    """
    kernel, modes = _log_kernel(p1, p2, grid)
    for lo in range(0, grid.size, _CHUNK):
        hi = min(lo + _CHUNK, grid.size)
        vals = np.empty(hi - lo)
        for b, e in grid.blocks(lo, hi):
            kernel(modes(b, e), vals[b - lo:e - lo])
        yield vals


def sum_log_modes(chunks: Iterable[np.ndarray], N: int) -> FidelityResult:
    """The product's FidelityResult from its non-empty ln|f_k| chunks: an exact sum
    per chunk, math.fsum of the partials, and the exact-zero floor."""
    exact_zero = False
    partials: list[float] = []
    for vals in chunks:
        # fmin skips NaN, so this is any(vals < floor) without a comparison array
        exact_zero = exact_zero or bool(np.fmin.reduce(vals) < _LOG_FLOOR)
        partials.append(exact_sum(vals))
    lnF = math.fsum(partials)
    if exact_zero or lnF == -math.inf:
        return FidelityResult(-math.inf, 0.0, N, True)
    return FidelityResult(lnF, math.exp(lnF), N, False)


def fidelity_product(p1: ModelParams, p2: ModelParams, N: int,
                     keep_per_mode: bool = False) -> FidelityResult:
    """Exact fidelity via the momentum product, log-domain, exactly rounded summation.

    ln F = sum_{k>0} ln|f_k|, with the kernel evaluated one grid block
    (MomentumGrid.BLOCK modes) at a time, each chunk of _CHUNK modes summed exactly (exact_sum, equal to
    math.fsum) and the chunk partials summed by math.fsum, so the result does
    not depend on the block size and repeated runs are bit-identical.  Any
    mode with |f_k| below EXACT_ZERO_FLOOR makes the product an exact zero
    and sets the flag.  An XY product at N <= 2^21 reads its trigonometry from
    the per-N memo of models.trig_rows, filled on a miss, with the same bits,
    and makes no momenta on a hit.
    """
    grid = MomentumGrid(N)
    chunks = log_mode_chunks(p1, p2, grid)
    if keep_per_mode:
        chunks = list(chunks)
    res = sum_log_modes(chunks, grid.N)
    if not keep_per_mode:
        return res
    ks = grid.modes
    per_mode = np.column_stack([ks, p1.mode_factors(p2, ks, np.concatenate(chunks))])
    return replace(res, per_mode=per_mode)


def _ladder(anchor: float, scales: tuple[float, ...]) -> list[float]:
    pts = []
    for s in scales:
        pts.append(anchor + s)
        pts.append(anchor - s)
    return pts


# half decades from either end, third decades from 1e-4 to 1e-1 around an inner anchor:
# fine enough that the first G7K15 pass nearly meets the goal on every piece
_END_SCALES = tuple(math.pi * 10.0 ** (e / 2) for e in range(-30, 0)) + (math.pi * 0.3,)
_INNER_SCALES = ((1e-13, 1e-12, 1e-11, 1e-10, 1e-8, 1e-6)
                 + tuple(10.0 ** (e / 3) for e in range(-12, -2)))


def integration_breakpoints(p1: ModelParams, p2: ModelParams) -> list[float]:
    """Mandatory split points in (0, pi) for the ln|f_k| quadrature.

    Collects the analytic zeros of f_k (where q_k = 0 with p_k < 0 for the XY
    kernel, p_k = 0 for the extended one), the gap-minimum momenta of either
    state, and geometric ladders around each of these (1e-13 ... 1e-10 by
    decades, 1e-8, 1e-6, then 1e-4 ... 1e-1 by third decades) and both interval
    ends (pi 1e-15 ... pi 10^-0.5 by half decades, and 0.3 pi), so that
    arbitrarily narrow dips are bracketed before adaptive subdivision starts,
    and the first G7K15 pass nearly meets the goal.  Points within 1e-15 of
    0 or pi are dropped, and of points closer than 1e-14 the lower one kept.
    """
    zero = p1.kernel_zero(p2)
    anchors = [] if zero is None else [_bisect_root(*zero)]
    anchors += [k for k in (p1.gap_minimum(), p2.gap_minimum()) if k is not None]

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
    50 eps resabs (Piessens et al., QUADPACK, 1983).  The four weighted row
    sums (Kronrod, Gauss, |f| and |f - K/2|) are matrix products of the node
    values with the weight vectors on [-1, 1].  The estimate is formed from
    these unscaled sums and then multiplied by the half-width |h|, which is
    the same formula: every term of it scales with |h|.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fx = f(c[:, None] + h[:, None] * _GK_X)
    resk = fx @ _GK_WK
    diff = np.abs(fx @ _GK_WG - resk)
    resabs = np.abs(fx) @ _GK_WK
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _GK_WK
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (diff != 0.0), scaled, diff)
    return resk * h, np.maximum(err, _EPS50 * resabs) * np.abs(h)


def piecewise_quad(integrand: Callable[..., np.ndarray], edges: Sequence[float],
                   budget: float) -> QuadResult:
    """Adaptive Gauss-Kronrod integral over consecutive finite pieces [edges[i], edges[i+1]].

    integrand(x, lo, hi) is vectorized: x is an array of nodes and lo, hi
    broadcast against it with the ends of each node's piece.  Every edge must
    be finite (DomainError otherwise); an improper integral maps its own
    half-line onto a finite interval.  Every active panel of every piece is
    held in arrays; each round bisects the panels carrying the largest share
    of the summed error estimate and evaluates all their nodes in one
    integrand call, until the summed estimate is within QUAD_GOAL_SHARE of
    budget (or at the estimate's rounding floor).  Sums are exactly rounded.
    A non-finite panel value, a budget below the rounding floor (50 eps times
    the summed panel |values|, which no refinement gets under), or an
    estimate still over budget at QUAD_MAX_ROUNDS or QUAD_MAX_PANELS, raises
    NumericsError with the round, panel and node counts (and, at a cap, the
    worst panels).
    """
    edges = np.asarray(edges, dtype=np.float64)
    if not np.all(np.isfinite(edges)):
        raise DomainError(f"quadrature edges must be finite, got {edges.tolist()}")
    lo, hi = edges[:-1], edges[1:]
    a, b, piece = lo, hi, np.arange(lo.size)

    def rule(a: np.ndarray, b: np.ndarray, piece: np.ndarray):
        return gauss_kronrod(lambda x: integrand(x, lo[piece, None], hi[piece, None]), a, b)

    val, err = rule(a, b, piece)
    nodes, rounds = _GK_X.size * a.size, 0
    while True:
        if not np.all(np.isfinite(val)):
            i = int(np.argmin(np.isfinite(val)))
            raise NumericsError(f"quadrature returned a non-finite value on "
                                f"{(float(a[i]), float(b[i]))}")
        total = math.fsum(err.tolist())
        # no panel's estimate is below 50 eps of its |value|, so no refinement
        # brings the summed estimate under this floor
        floor = _EPS50 * math.fsum(np.abs(val).tolist())
        # the estimate is least pessimistic on panels ending at a log singularity
        # (true error up to about 1/50 of it), so refine well below the budget,
        # but not into the estimate's rounding floor
        goal = min(budget, max(QUAD_GOAL_SHARE * budget, 4.0 * floor))
        if total <= goal:
            break
        if budget < floor:
            raise NumericsError(f"quadrature budget {budget:.3e} is below the error estimate's "
                                f"rounding floor {floor:.3e} (50 eps per unit of |f|): {rounds} "
                                f"rounds, {a.size} panels, {nodes} integrand nodes")
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
        worst = [(float(a[i]), float(b[i]), float(err[i])) for i in order[:5]]
        cap = "round" if rounds == QUAD_MAX_ROUNDS else "panel"
        raise NumericsError(f"quadrature error estimate {total:.3e} exceeds budget "
                            f"{budget:.3e} at the {cap} cap: {rounds} rounds, {a.size} "
                            f"panels, {nodes} integrand nodes; worst panels: {worst}")
    return QuadResult(math.fsum(val.tolist()), total, a.size, nodes, rounds)


def _nearest_finite(kernel: Callable[[np.ndarray], np.ndarray], k: np.ndarray,
                    lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """kernel at the momentum of [lo, hi] nearest to each k where it is finite; NaN if none.

    k, lo and hi are 1-D, and kernel is non-finite at every k.  On either side,
    steps of 1, 2, 4, ... ulps of k, the last one cut back to the piece's end,
    find a finite point; bisection then closes in on the one next to the
    non-finite run.  The nearer side wins.  kernel is never handed a momentum
    outside [lo, hi].
    """
    x0, end = np.concatenate([k, k]), np.concatenate([lo, hi])
    bad, good, val = x0.copy(), np.full(x0.shape, np.nan), np.full(x0.shape, np.nan)
    step = np.spacing(np.abs(x0))
    todo = np.flatnonzero(end != x0)
    while todo.size:
        x = x0[todo] + np.copysign(step[todo], end[todo] - x0[todo])
        x = np.where(np.sign(end[todo] - x) == np.sign(end[todo] - x0[todo]), x, end[todo])
        v = kernel(x)
        ok = np.isfinite(v)
        good[todo[ok]], val[todo[ok]], bad[todo[~ok]] = x[ok], v[ok], x[~ok]
        step[todo] *= 2.0
        todo = todo[~ok & (x != end[todo])]
    todo = np.flatnonzero(~np.isnan(good))
    while True:
        mid = 0.5 * (bad[todo] + good[todo])
        gap = (mid != bad[todo]) & (mid != good[todo])
        todo, mid = todo[gap], mid[gap]
        if not todo.size:
            break
        v = kernel(mid)
        ok = np.isfinite(v)
        good[todo[ok]], val[todo[ok]], bad[todo[~ok]] = mid[ok], v[ok], mid[~ok]
    d = np.abs(good - x0)
    d[np.isnan(d)] = np.inf
    m = k.size
    return np.where(d[m:] < d[:m], val[m:], val[:m])


def k_integral(p1: ModelParams, p2: ModelParams,
               of_log_f: Callable[[np.ndarray], np.ndarray], budget: float) -> QuadResult:
    """piecewise_quad of k -> of_log_f(ln|f_k|) over [0, pi], split at 0, the breakpoints, pi.

    The kernel is evaluated at the nodes as they are.  A node within rounding
    distance of a kernel zero (every zero is a breakpoint, polished by
    bisection) can see ln|f_k| round to -inf; only such a node moves, to the nearest
    momentum of its own piece where ln|f_k| is finite (_nearest_finite).  A
    node with no such momentum in its piece keeps a NaN, and piecewise_quad
    raises NumericsError on its panel.
    """
    kernel, _ = _log_kernel(p1, p2)

    def integrand(k: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        lnf = kernel(k)
        bad = ~np.isfinite(lnf)
        if bad.any():
            lnf[bad] = _nearest_finite(kernel, k[bad], np.broadcast_to(lo, k.shape)[bad],
                                       np.broadcast_to(hi, k.shape)[bad])
        return of_log_f(lnf)

    return piecewise_quad(integrand, [0.0] + integration_breakpoints(p1, p2) + [math.pi], budget)


def fidelity_integral(p1: ModelParams, p2: ModelParams, tol: float = 1e-11) -> float:
    """Thermodynamic-limit ln F per site, (1/2 pi) int_0^pi ln|f_k| dk.

    Piecewise quadrature between the mandatory breakpoints to a summed error
    estimate of 2 pi tol on the k-integral; failing that raises NumericsError
    with diagnostics.
    """
    if p1 == p2:
        return 0.0
    return k_integral(p1, p2, lambda lnf: lnf, 2.0 * math.pi * tol).value / (2.0 * math.pi)


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
    grid = MomentumGrid(N)
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
    N = MomentumGrid(N).N
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
