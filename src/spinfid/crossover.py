"""Crossover location by slope analysis of ln(-ln F) curves, plus power-law fits.

The small-system to thermodynamic crossover shows up as the local log-log
slope of -ln F drifting between two integer/half-integer plateaus (2 -> 1
against the inverse anisotropy, 2 -> 3/2 against the parameter shift near the
multicritical corner).  The crossover scale is read off as the abscissa where
the slope passes a half-way target, and the scales collected over a family of
sweeps are fitted to a power law on log-log axes.

The table SCAN_PATHS names the path each scan runs along; sweep_lnF builds its
points from it, and `spinfid crossover` its --scan choices and flag rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .fidelity import fidelity_product
from .models import PathA, PathD, resolve_path


@dataclass(frozen=True)
class SlopeCurve:
    """Local slope s(x) of ln y against x = ln(abscissa), x strictly increasing."""
    x: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.x) <= 0.0):
            raise DomainError("slope curve abscissa must be strictly increasing")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.s))):
            raise DomainError("slope curve entries must be finite")


@dataclass(frozen=True)
class Crossing:
    """First slope crossing; multiple flags further crossings (noise near plateaus)."""
    x: float
    multiple: bool


@dataclass(frozen=True)
class PowerLawFit:
    """OLS fit ln y = intercept + slope ln x with standard errors."""
    intercept: float
    slope: float
    intercept_se: float
    slope_se: float
    n_points: int


def local_slopes(xs: Sequence[float], ys: Sequence[float]) -> SlopeCurve:
    """Centered finite-difference slopes of ln y vs ln x; one-sided at the ends.

    xs must be strictly monotone (either direction) and ys positive; a
    decreasing sweep is flipped so the returned curve has increasing x.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 3:
        raise DomainError("need at least 3 points for local slopes")
    if np.any(ys <= 0.0) or np.any(xs <= 0.0):
        raise DomainError("slopes are defined for positive xs and ys")
    d = np.diff(xs)
    if np.all(d < 0.0):
        xs, ys = xs[::-1], ys[::-1]
    elif not np.all(d > 0.0):
        raise DomainError("xs must be strictly monotone")
    lx = np.log(xs)
    ly = np.log(ys)
    s = np.empty_like(lx)
    s[1:-1] = (ly[2:] - ly[:-2]) / (lx[2:] - lx[:-2])
    s[0] = (ly[1] - ly[0]) / (lx[1] - lx[0])
    s[-1] = (ly[-1] - ly[-2]) / (lx[-1] - lx[-2])
    return SlopeCurve(x=lx, s=s)


def find_slope_crossing(curve: SlopeCurve, target: float) -> Crossing:
    """Linear-interpolated abscissa of the first s = target crossing."""
    x, s = curve.x, curve.s
    hits = []
    for i in range(s.size - 1):
        d0, d1 = s[i] - target, s[i + 1] - target
        if d0 == 0.0:
            hits.append(x[i])
        elif d0 * d1 < 0.0:
            hits.append(x[i] + d0 / (d0 - d1) * (x[i + 1] - x[i]))
    if s[-1] == target:
        hits.append(x[-1])
    if not hits:
        raise DomainError(f"slope curve never crosses target {target}")
    return Crossing(x=float(hits[0]), multiple=len(hits) > 1)


def powerlaw_fit(points: Sequence[tuple[float, float]]) -> PowerLawFit:
    """Ordinary least squares on (ln x, ln y) with residual-variance standard errors."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise DomainError("need at least 3 (x, y) pairs")
    if np.any(pts <= 0.0):
        raise DomainError("power-law fit needs positive coordinates")
    lx = np.log(pts[:, 0])
    ly = np.log(pts[:, 1])
    n = lx.size
    mx = lx.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0.0:
        raise DomainError("degenerate abscissas: all x equal")
    slope = float(np.sum((lx - mx) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (intercept + slope * lx)
    s2 = float(np.sum(resid ** 2)) / (n - 2) if n > 2 else 0.0
    slope_se = math.sqrt(s2 / sxx)
    intercept_se = math.sqrt(s2 * (1.0 / n + mx * mx / sxx))
    return PowerLawFit(intercept=intercept, slope=slope,
                       intercept_se=intercept_se, slope_se=slope_se, n_points=n)


def log_grid(lo: float, hi: float, per_decade: int = 20) -> np.ndarray:
    """Log-uniform grid, the default sweep resolution for slope analysis."""
    if not 0.0 < lo < hi:
        raise DomainError("need 0 < lo < hi")
    n = max(3, int(round(math.log10(hi / lo) * per_decade)) + 1)
    return np.logspace(math.log10(lo), math.log10(hi), n)


def even_size(n: float) -> int:
    """Nearest even chain length, at least 2."""
    return max(2, int(round(n / 2.0)) * 2)


SCAN_PATHS: dict[str, type] = {"gamma": PathA, "N": PathD, "delta": PathD}
# half-way between the slope plateaus: 2 -> 1 against 1/gamma and N, 2 -> 3/2 against delta
DEFAULT_TARGETS = {"gamma": 1.5, "N": 1.5, "delta": 1.75}


@dataclass(frozen=True)
class LnFSweep:
    """-ln F and local slopes at ascending swept values (sizes as integers), plus the slope
    curve, which runs in x = ln(1/gamma) for gamma sweeps (small-system plateau first) and
    in x = ln(value) otherwise."""
    scan: str
    values: np.ndarray
    minus_lnF: np.ndarray
    slopes: np.ndarray
    curve: SlopeCurve

    def value_at(self, x: float) -> float:
        """Swept value at curve abscissa x."""
        return math.exp(-x) if self.scan == "gamma" else math.exp(x)

    def crossing(self, target: float) -> Crossing:
        """First slope crossing of target, as a swept value."""
        cr = find_slope_crossing(self.curve, target)
        return Crossing(x=self.value_at(cr.x), multiple=cr.multiple)


def sweep_lnF(scan: str, grid: Sequence[float], c: float, *, N: Optional[int] = None,
              delta: Optional[float] = None, alpha: float = 1.0) -> LnFSweep:
    """Exact -ln F over a sorted sweep of gamma (PathA at fixed N, delta), N (PathD at
    fixed delta; sizes rounded to even and deduplicated) or delta (PathD at fixed N).

    A gamma or delta scan runs all its products at one N, so all but its first read the
    XY trigonometry from the per-N memo of models.trig_rows."""
    path = SCAN_PATHS.get(scan)
    if path is None:
        raise DomainError(f"scan must be one of {', '.join(SCAN_PATHS)}, got {scan!r}")
    values = np.sort(np.asarray(grid, dtype=np.float64))
    if scan == "N":
        values = np.unique([even_size(v) for v in values])
    # the swept value takes the place of the fixed one it scans
    points = [{"N": N, "delta": delta, "alpha": alpha, "c": c, scan: v} for v in values.tolist()]
    names = [f.name for f in fields(path)]
    pairs = [resolve_path(path(**{n: p[n] for n in names})) for p in points]
    y = np.array([-fidelity_product(*pair, p["N"]).lnF for pair, p in zip(pairs, points)])
    if scan == "gamma":
        curve = local_slopes(1.0 / values[::-1], y[::-1])
        return LnFSweep(scan, values, y, curve.s[::-1], curve)
    curve = local_slopes(values, y)
    return LnFSweep(scan, values, y, curve.s, curve)


def gamma_crossing(N: int, delta: float, c: float, gammas: Sequence[float],
                   target: float = DEFAULT_TARGETS["gamma"]) -> Crossing:
    """Anisotropy gamma (not ln) at which the slope of ln(-ln F) vs ln(1/gamma) passes
    the target, on PathA at fixed (N, delta, c)."""
    return sweep_lnF("gamma", gammas, c, N=N, delta=delta).crossing(target)


def size_crossing(delta: float, c: float, Ns: Sequence[float], alpha: float = 1.0,
                  target: float = DEFAULT_TARGETS["N"]) -> Crossing:
    """System size at which the slope of ln(-ln F) vs ln N passes the target, on the
    multicritical approach at fixed (delta, c).  Sizes are rounded to even and
    deduplicated, so their order and repeats do not matter."""
    return sweep_lnF("N", Ns, c, delta=delta, alpha=alpha).crossing(target)


def shift_crossing(N: int, c: float, deltas: Sequence[float], alpha: float = 1.0,
                   target: float = DEFAULT_TARGETS["delta"]) -> Crossing:
    """Parameter shift at which the slope of ln(-ln F) vs ln delta passes the target."""
    return sweep_lnF("delta", deltas, c, N=N, alpha=alpha).crossing(target)
