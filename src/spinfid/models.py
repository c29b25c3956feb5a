"""Spin-chain parameter sets, dispersions, and per-mode overlap kernels.

Two free-fermion chains are covered.  The XY chain

    H = -sum_n [ (1+gamma)/2 sx_n sx_{n+1} + (1-gamma)/2 sy_n sy_{n+1} + g sz_n ]

with periodic boundaries and even N, and an extended Ising chain with a
three-site term whose ground state is an exact low-rank matrix product state,

    H = sum_n [ -2(1-g^2) sx_n sx_{n+1} - (1+g)^2 sz_n + (1-g)^2 sx_n sz_{n+1} sx_{n+2} ].

In the even-quasiparticle sector both diagonalize over the antiperiodic
momentum grid k = (2n+1) pi / N and the ground-state overlap of two parameter
sets factorizes into per-mode Bogoliubov factors f_k built from the kernels
p_k, q_k below.  Kernels accept scalar or array momenta; grid membership is
deliberately not enforced (quadrature needs off-grid evaluation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DegenerateModeError, DomainError, PoleError


@dataclass(frozen=True)
class XYParams:
    """Transverse field g and in-plane anisotropy gamma of the XY chain."""
    g: float
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.g) and math.isfinite(self.gamma)):
            raise DomainError("XY parameters must be finite")


@dataclass(frozen=True)
class ExtIsingParams:
    """Single coupling g of the extended Ising chain (critical at g = 0)."""
    g: float

    def __post_init__(self):
        if not math.isfinite(self.g):
            raise DomainError("extended-Ising coupling must be finite")


def _check_shift(delta: float, c: float, name: str) -> None:
    if delta == 0.0:
        raise DomainError(f"{name} requires delta != 0 (the two states would coincide)")
    if not (math.isfinite(delta) and math.isfinite(c)):
        raise DomainError(f"{name} parameters must be finite")


@dataclass(frozen=True)
class PathA:
    """Straight crossing of the g = 1 line: g_{1,2} = 1 + c|delta| +- delta at fixed gamma."""
    gamma: float
    delta: float
    c: float

    def __post_init__(self):
        _check_shift(self.delta, self.c, "PathA")


@dataclass(frozen=True)
class PathB:
    """Crossing of the gamma = 0 line: gamma_{1,2} = c|delta| +- delta at fixed g in (-1, 1)."""
    g: float
    delta: float
    c: float

    def __post_init__(self):
        _check_shift(self.delta, self.c, "PathB")
        if not -1.0 < self.g < 1.0:
            raise DomainError(f"PathB requires g in (-1, 1), got {self.g}")


@dataclass(frozen=True)
class PathC:
    """Displacement along the critical line g = 1: gamma_{1,2} = c|delta| +- delta."""
    delta: float
    c: float

    def __post_init__(self):
        _check_shift(self.delta, self.c, "PathC")


@dataclass(frozen=True)
class PathD:
    """Approach to the (g, gamma) = (1, 0) corner from the paramagnetic side.

    g_{1,2} = 1 + c|delta| +- delta, gamma_{1,2} = alpha (c|delta| +- delta),
    with slope alpha > 0 and c >= 1 so both states stay at g >= 1, gamma >= 0.
    """
    alpha: float
    delta: float
    c: float

    def __post_init__(self):
        _check_shift(self.delta, self.c, "PathD")
        if self.alpha <= 0.0:
            raise DomainError(f"PathD requires alpha > 0, got {self.alpha}")
        if self.c < 1.0:
            raise DomainError(f"PathD requires c >= 1, got {self.c}")


@dataclass(frozen=True)
class ExtIsingPath:
    """Crossing of the extended-Ising critical point: g_{1,2} = c|delta| +- delta."""
    delta: float
    c: float

    def __post_init__(self):
        _check_shift(self.delta, self.c, "ExtIsingPath")


PathSpec = Union[PathA, PathB, PathC, PathD, ExtIsingPath]
ModelParams = Union[XYParams, ExtIsingParams]


def resolve_path(spec: PathSpec) -> tuple[ModelParams, ModelParams]:
    """Resolve a one-parameter path into the ordered pair of parameter sets."""
    eps = spec.c * abs(spec.delta)
    d = spec.delta
    if isinstance(spec, PathA):
        return (XYParams(1.0 + eps + d, spec.gamma), XYParams(1.0 + eps - d, spec.gamma))
    if isinstance(spec, PathB):
        return (XYParams(spec.g, eps + d), XYParams(spec.g, eps - d))
    if isinstance(spec, PathC):
        return (XYParams(1.0, eps + d), XYParams(1.0, eps - d))
    if isinstance(spec, PathD):
        return (XYParams(1.0 + eps + d, spec.alpha * (eps + d)),
                XYParams(1.0 + eps - d, spec.alpha * (eps - d)))
    if isinstance(spec, ExtIsingPath):
        return (ExtIsingParams(eps + d), ExtIsingParams(eps - d))
    raise DomainError(f"unknown path spec {spec!r}")


@dataclass(frozen=True)
class MomentumGrid:
    """Antiperiodic momentum set k = (2n+1) pi / N, n = 0 .. N/2 - 1, for even N."""
    N: int

    def __post_init__(self):
        if self.N < 2 or self.N % 2 != 0:
            raise DomainError(f"momentum grid needs even N >= 2, got {self.N}")

    @property
    def modes(self) -> np.ndarray:
        n = np.arange(self.N // 2, dtype=np.float64)
        return (2.0 * n + 1.0) * math.pi / self.N


def gap_xy(k, p: XYParams):
    """Quasiparticle energy 2 sqrt((g - cos k)^2 + gamma^2 sin^2 k)."""
    k = np.asarray(k, dtype=np.float64)
    out = 2.0 * np.hypot(p.g - np.cos(k), p.gamma * np.sin(k))
    return out if out.ndim else float(out)


def gap_extising(k, p: ExtIsingParams):
    """Quasiparticle energy 4 (1 + g^2 - (1 - g^2) cos k); ~ 8 g^2 + 2 k^2 at small k, g."""
    k = np.asarray(k, dtype=np.float64)
    out = 4.0 * (1.0 + p.g ** 2 - (1.0 - p.g ** 2) * np.cos(k))
    return out if out.ndim else float(out)


def _gap_terms(ck: np.ndarray, s2: np.ndarray, g: float) -> np.ndarray:
    # g - cos k from cos k and sin^2(k/2), switching to (g - 1) + 2 sin^2(k/2) on the
    # cos k > 1/2 side where the direct difference loses absolute accuracy for g near 1
    return np.where(ck > 0.5, (g - 1.0) + 2.0 * s2, g - ck)


def _pq_xy(k: np.ndarray, p1: XYParams, p2: XYParams) -> tuple[np.ndarray, np.ndarray]:
    ck, sk = np.cos(k), np.sin(k)
    s2 = np.sin(0.5 * k) ** 2
    a1 = _gap_terms(ck, s2, p1.g)
    a2 = _gap_terms(ck, s2, p2.g)
    p = a1 * a2 + p1.gamma * p2.gamma * sk * sk
    q = (p2.gamma * a1 - p1.gamma * a2) * sk
    return p, q


def _pq_extising(k: np.ndarray, g1: float, g2: float) -> tuple[np.ndarray, np.ndarray]:
    gg = g1 * g2
    # 1 + gg - (1 - gg) cos k, in a form whose only cancellation is between
    # the O(k^2) and O(gg) pieces themselves
    p = 2.0 * (gg + (1.0 - gg) * np.sin(0.5 * k) ** 2)
    q = (g1 - g2) * np.sin(k)
    return p, q


def _raise_if_degenerate(p: np.ndarray, q: np.ndarray) -> None:
    if np.any((p == 0.0) & (q == 0.0)):
        raise DegenerateModeError(
            "p_k = q_k = 0: both states close their gap at this momentum; "
            "the mode overlap factor is undefined")


def log_abs_fk_xy(k, p1: XYParams, p2: XYParams):
    """ln f_k for the XY pair, computed without cancellation.

    f_k^2 = (S + p_k) / (2 S) with S = sqrt(p_k^2 + q_k^2).  For p_k > 0 the
    direct form loses all digits once f_k is close to 1, so the equivalent
    ln f_k = (1/2) log1p(-q_k^2 / (2 S (S + p_k))) is used there; for
    p_k <= 0 the factored form (S + p_k) = q_k^2 / (S - p_k) is exact.
    Returns -inf where f_k = 0.
    """
    k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    p, q = _pq_xy(k, p1, p2)
    _raise_if_degenerate(p, q)
    s = np.hypot(p, q)
    out = np.empty_like(s)
    pos = p > 0.0
    out[pos] = 0.5 * np.log1p(-(q[pos] ** 2) / (2.0 * s[pos] * (s[pos] + p[pos])))
    neg = ~pos
    with np.errstate(divide="ignore"):
        out[neg] = 0.5 * (np.log(q[neg] ** 2 / (s[neg] - p[neg])) - np.log(2.0 * s[neg]))
    return out


def fk_xy(k, p1: XYParams, p2: XYParams):
    """Per-mode overlap factor sqrt(1/2 + p_k / (2 sqrt(p_k^2 + q_k^2))) in [0, 1].

    Symmetric under exchanging the two parameter sets (q_k flips sign but only
    q_k^2 enters).  Equals 0 when p_k < 0, q_k = 0 and 1 when p_k > 0, q_k = 0.
    """
    out = np.exp(log_abs_fk_xy(k, p1, p2))
    return out if np.ndim(k) else float(out[0])


def fk_extising(k, g1: float, g2: float):
    """Signed overlap factor p_k / sqrt(p_k^2 + q_k^2) in [-1, 1] for the extended chain.

    The sign follows p_k; for couplings of opposite sign the factor crosses
    zero at cos k0 = (1 + g1 g2)/(1 - g1 g2), i.e. k0 ~ 2 sqrt(-g1 g2) near
    the critical point.
    """
    ka = np.atleast_1d(np.asarray(k, dtype=np.float64))
    p, q = _pq_extising(ka, g1, g2)
    _raise_if_degenerate(p, q)
    out = p / np.hypot(p, q)
    return out if np.ndim(k) else float(out[0])


def log_abs_fk_extising(k, g1: float, g2: float):
    """ln |f_k| for the extended chain, stable near |f_k| = 1; -inf at zeros."""
    k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    p, q = _pq_extising(k, g1, g2)
    _raise_if_degenerate(p, q)
    s = np.hypot(p, q)
    # |f| = |p|/s;  ln|f| = -(1/2) log1p(q^2/p^2) evaluated via s to keep
    # the q >> p corner exact as well.
    out = np.empty_like(s)
    big = np.abs(p) > 0.0
    out[big] = -0.5 * np.log1p((q[big] / p[big]) ** 2)
    out[~big] = -np.inf
    return out


def kc_anisotropic(g: float) -> float:
    """Gap-closing momentum arccos(g) of the anisotropic critical line."""
    if not -1.0 <= g <= 1.0:
        raise DomainError(f"arccos(g) needs |g| <= 1, got g = {g}")
    return math.acos(g)


def correlation_length_xy(p: XYParams) -> float:
    """Correlation length |1 / ln|(g - sqrt(g^2 - 1 + gamma^2)) / (1 - gamma)||.

    The overall prefactor is conventionally fixed to 1; the value is used for
    crossover heuristics only.  Inside g^2 + gamma^2 < 1 the square root goes
    imaginary and the modulus is taken.  At gamma = 1 the printed expression
    degenerates to 0/0 with limit 1/g, recovering xi = 1/|ln g|.  Near the
    g = 1 line with gamma^2 >> |g - 1| it reduces to ~ gamma / |g - 1|.
    """
    g, gamma = p.g, p.gamma
    if gamma == 1.0:
        ratio = math.inf if g == 0.0 else abs(1.0 / g)
    else:
        root = complex(g * g - 1.0 + gamma * gamma) ** 0.5
        ratio = abs((g - root) / (1.0 - gamma))
    if ratio == 0.0 or math.isinf(ratio):
        return 0.0
    lg = math.log(ratio)
    if lg == 0.0:
        raise PoleError(f"correlation length diverges at (g, gamma) = ({g}, {gamma})")
    return abs(1.0 / lg)
