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

This is the one module that knows which model families and paths exist.  A
parameter class (a ModelParams dataclass) owns its family's physics: the
anchors of the ln|f_k| quadrature (kernel_zero, gap_minimum), the per-mode
factors fidelity_product keeps (mode_factors), the spin Hamiltonian of the
dense oracle as spin terms (couplings, the coupling-free spin_terms pattern
on a ring of N sites, and min_sites, the shortest chain that holds it), and
the rule that a compared pair is of one family (check_same_kind).
A path class (a PathSpec dataclass) has as fields exactly the parameters it
reads, validates them when built, and resolve()s to the ordered pair of
parameter sets.  Two type dispatches stay outside on purpose: the kernel
choice in fidelity._log_kernel, so that every kernel call goes through the
names log_abs_fk_xy / log_abs_fk_extising of the fidelity module, which the
benchmark's trace layer wraps; and the formula chains of
scaling.predict_lnF and susceptibility_smallsystem, the one place each path
meets its scaling function, which a table keyed by class would only lengthen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateModeError, DomainError, PoleError


def _require_finite(obj) -> None:
    if not all(math.isfinite(getattr(obj, f.name)) for f in fields(obj)):
        raise DomainError(f"{type(obj).__name__} parameters must be finite")


class ModelParams:
    """Base of the parameter sets: one frozen dataclass per model family.

    kernel_zero(other) gives a function of k changing sign where the pair's
    f_k vanishes inside (0, pi) and a guess of that k, or None; gap_minimum()
    the momentum of the smallest gap if it lies in [0, pi], or None.
    """
    min_sites = 2  # the shortest chain holding every spin term on distinct sites

    def __post_init__(self):
        _require_finite(self)

    def check_same_kind(self, other: ModelParams) -> None:
        if type(other) is not type(self):
            raise DomainError(f"parameter sets of mixed model kinds: "
                              f"{type(self).__name__}, {type(other).__name__}")


@dataclass(frozen=True)
class XYParams(ModelParams):
    """Transverse field g and in-plane anisotropy gamma of the XY chain."""
    g: float
    gamma: float

    def kernel_zero(self, other):
        # q_k = 0 where gamma2 (g1 - cos k) = gamma1 (g2 - cos k)
        g1, gam1, g2, gam2 = self.g, self.gamma, other.g, other.gamma
        x = (gam2 * g1 - gam1 * g2) / (gam2 - gam1) if gam1 != gam2 else math.nan
        if -1.0 <= x <= 1.0:
            return lambda k: gam2 * (g1 - math.cos(k)) - gam1 * (g2 - math.cos(k)), math.acos(x)
        return None

    def gap_minimum(self):
        gam = self.gamma
        x = self.g / (1.0 - gam * gam) if abs(gam) < 1.0 else math.nan
        return math.acos(x) if -1.0 <= x <= 1.0 else None

    def mode_factors(self, other, k, log_f):
        """Per-mode overlap factors f_k at momenta k, given ln|f_k| there."""
        return np.exp(log_f)

    @property
    def couplings(self) -> tuple[float, ...]:
        """Coefficients of the spin terms, in the order spin_terms gives them."""
        return (-self.g, -1.0, -self.gamma)

    @staticmethod
    def spin_terms(states, N):
        """Per coupling, (targets, weights) of shape (N, states.size) on the N-site ring.

        Site term n takes |s> to weights[n] |targets[n]> for s in states, so the
        Hamiltonian is sum_i couplings[i] sum_n weights_i[n] |targets_i[n]><s|.
        """
        n = np.arange(N)[:, None]
        bn = (states >> n) & 1
        anti = bn != np.roll(bn, -1, axis=0)
        pair = states ^ ((1 << n) | (1 << (n + 1) % N))
        return [(np.broadcast_to(states, bn.shape), 1.0 - 2.0 * bn),  # field sz_n
                # (xx + yy)/2 flip-flop on antiparallel bonds
                (pair, anti.astype(np.float64)),
                # (xx - yy)/2 double flip on parallel bonds
                (pair, (~anti).astype(np.float64))]


@dataclass(frozen=True)
class ExtIsingParams(ModelParams):
    """Single coupling g of the extended Ising chain (critical at g = 0)."""
    g: float
    min_sites = 4

    def kernel_zero(self, other):
        # p_k = 0 at cos k = (1 + g1 g2) / (1 - g1 g2), for couplings of opposite sign
        gg = self.g * other.g
        x = (1.0 + gg) / (1.0 - gg) if gg < 0.0 else math.nan
        if -1.0 <= x <= 1.0:
            return lambda k: 1.0 + gg - (1.0 - gg) * math.cos(k), math.acos(x)
        return None

    def gap_minimum(self):
        return None  # always at k = 0

    def mode_factors(self, other, k, log_f):
        return fk_extising(k, self.g, other.g)

    @property
    def couplings(self) -> tuple[float, ...]:
        g = self.g
        return (-((1.0 + g) ** 2), -2.0 * (1.0 - g * g), (1.0 - g) ** 2)

    @staticmethod
    def spin_terms(states, N):
        n = np.arange(N)[:, None]
        bit = (states >> n) & 1
        sz = 1.0 - 2.0 * bit
        return [(np.broadcast_to(states, bit.shape), sz),  # field sz_n
                # sx_n sx_{n+1}
                (states ^ ((1 << n) | (1 << (n + 1) % N)), np.ones(bit.shape)),
                # sx_n sz_{n+1} sx_{n+2}
                (states ^ ((1 << n) | (1 << (n + 2) % N)), np.roll(sz, -1, axis=0))]


class PathSpec:
    """Base of the paths: one frozen dataclass per path, its fields all it reads."""

    def __post_init__(self):
        if self.delta == 0.0:
            raise DomainError(f"{type(self).__name__} requires delta != 0 "
                              f"(the two states would coincide)")
        _require_finite(self)

    @property
    def eps(self) -> float:
        return self.c * abs(self.delta)


@dataclass(frozen=True)
class PathA(PathSpec):
    """Straight crossing of the g = 1 line: g_{1,2} = 1 + c|delta| +- delta at fixed gamma."""
    gamma: float
    delta: float
    c: float

    def resolve(self):
        eps, d = self.eps, self.delta
        return XYParams(1.0 + eps + d, self.gamma), XYParams(1.0 + eps - d, self.gamma)


@dataclass(frozen=True)
class PathB(PathSpec):
    """Crossing of the gamma = 0 line: gamma_{1,2} = c|delta| +- delta at fixed g in (-1, 1)."""
    g: float
    delta: float
    c: float

    def __post_init__(self):
        super().__post_init__()
        if not -1.0 < self.g < 1.0:
            raise DomainError(f"PathB requires g in (-1, 1), got {self.g}")

    def resolve(self):
        eps, d = self.eps, self.delta
        return XYParams(self.g, eps + d), XYParams(self.g, eps - d)


@dataclass(frozen=True)
class PathC(PathSpec):
    """Displacement along the critical line g = 1: gamma_{1,2} = c|delta| +- delta."""
    delta: float
    c: float

    def resolve(self):
        eps, d = self.eps, self.delta
        return XYParams(1.0, eps + d), XYParams(1.0, eps - d)


@dataclass(frozen=True)
class PathD(PathSpec):
    """Approach to the (g, gamma) = (1, 0) corner from the paramagnetic side.

    g_{1,2} = 1 + c|delta| +- delta, gamma_{1,2} = alpha (c|delta| +- delta),
    with slope alpha > 0 and c >= 1 so both states stay at g >= 1, gamma >= 0.
    """
    alpha: float
    delta: float
    c: float

    def __post_init__(self):
        super().__post_init__()
        if self.alpha <= 0.0:
            raise DomainError(f"PathD requires alpha > 0, got {self.alpha}")
        if self.c < 1.0:
            raise DomainError(f"PathD requires c >= 1, got {self.c}")

    def resolve(self):
        eps, d = self.eps, self.delta
        return (XYParams(1.0 + eps + d, self.alpha * (eps + d)),
                XYParams(1.0 + eps - d, self.alpha * (eps - d)))


@dataclass(frozen=True)
class ExtIsingPath(PathSpec):
    """Crossing of the extended-Ising critical point: g_{1,2} = c|delta| +- delta."""
    delta: float
    c: float

    def resolve(self):
        eps, d = self.eps, self.delta
        return ExtIsingParams(eps + d), ExtIsingParams(eps - d)


def check_path(spec: object) -> PathSpec:
    """spec itself if it is a path; DomainError otherwise."""
    if not isinstance(spec, PathSpec):
        raise DomainError(f"unknown path spec {spec!r}")
    return spec


def resolve_path(spec: PathSpec) -> tuple[ModelParams, ModelParams]:
    """Resolve a one-parameter path into the ordered pair of parameter sets."""
    return check_path(spec).resolve()


@dataclass(frozen=True)
class MomentumGrid:
    """Antiperiodic momentum set k = (2n+1) pi / N, n = 0 .. N/2 - 1, for even N.

    N may be any whole number (1e4 and numpy integers too) and is stored as
    int; a fractional N raises DomainError instead of being truncated.
    """
    N: int

    def __post_init__(self):
        try:
            whole = int(self.N) == self.N
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise DomainError(f"chain length must be a whole number, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
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
