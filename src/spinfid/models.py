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
deliberately not enforced (quadrature needs off-grid evaluation).  The grid
hands out its modes in index blocks, and trig_rows memoizes sin k and the XY
gap base, free of fields, for the three most recently used grids; the XY
kernel reads a block's TrigRows in place of its momenta, so a memo hit makes
none.

One formula turns an XY mode's kernels into its overlap: log_overlap gives
ln f from (p, q) without cancellation, in one pass written into the caller's
array, with S = sqrt(p^2 + q^2) by the square root wherever q^2 and p^2 + q^2
are normal doubles and by hypot, mode by mode, elsewhere; excitation_probability
gives 1 - f^2 from ln f.  Every XY route reads them: the product, fidelity_integral
and the quench mode sum and k-integral through log_abs_fk_xy, and the scaled
A/B integrals of scaling at the rescaled kernels p = l^2 + c^2 - 1, q = 2l.
The extended chain's signed factor has its own ln|f_k| (log_abs_fk_extising).
Every field of a parameter set or path is finite and at most MAX_FIELD in
magnitude.

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
choice in fidelity._log_kernel, so that every momentum-space kernel call goes
through the names log_abs_fk_xy / log_abs_fk_extising of the fidelity module,
which the benchmark's trace layer wraps; and the formula chains of scaling,
which a table keyed by class would only lengthen: closed_form_rate, where
each path's smooth rate and residual order are written once, predict_lnF,
which adds each path's validity ratios and finite-N prefactor, and
susceptibility_smallsystem.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DegenerateModeError, DomainError, PoleError


#: Largest magnitude of any parameter or path field: far past every physical
#: value, and small enough that products of a few fields (the kernels p_k, q_k
#: and their squares, the closed-form rates and orders) stay finite.
MAX_FIELD = 1e50


def _require_finite(obj) -> None:
    # not |x| <= MAX_FIELD is also true of nan
    if not all(abs(getattr(obj, f.name)) <= MAX_FIELD for f in fields(obj)):
        raise DomainError(f"{type(obj).__name__} parameters must be finite and at most "
                          f"{MAX_FIELD:g} in magnitude")


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
        # p_k / 2 = g1 g2 + (1 - g1 g2) sin^2(k/2) vanishes at sin^2(k/2) = -g1 g2 / (1 - g1 g2),
        # for couplings of opposite sign; the form of _pq_extising, with no cancellation near k = 0
        gg = self.g * other.g
        s2 = -gg / (1.0 - gg) if gg < 0.0 else math.nan
        if 0.0 <= s2 <= 1.0:
            return lambda k: gg + (1.0 - gg) * math.sin(0.5 * k) ** 2, 2.0 * math.asin(math.sqrt(s2))
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
        # 1 + (eps +- d), not (1 + eps) +- d: at c = +-1 one state lands on g = 1 exactly
        eps, d = self.eps, self.delta
        return XYParams(1.0 + (eps + d), self.gamma), XYParams(1.0 + (eps - d), self.gamma)


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
        # at c = 1 the lower state is the corner (1, 0) exactly, as on PathA
        return (XYParams(1.0 + (eps + d), self.alpha * (eps + d)),
                XYParams(1.0 + (eps - d), self.alpha * (eps - d)))


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
    int; a fractional N raises DomainError instead of being truncated, and so
    does N above MAX_N.
    """
    N: int

    # Far past any size a product can be evaluated at (N = 1e7 takes under a
    # second), and small enough that every index 2n + 1 and N itself are
    # exact in float64, so each mode is one correctly rounded expression.
    MAX_N = 1 << 40
    # modes per block: a kernel call on one block keeps its temporaries in cache
    BLOCK = 1 << 13

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
        if self.N > self.MAX_N:
            raise DomainError(f"momentum grid needs N <= 2^40, got {self.N}")

    @property
    def size(self) -> int:
        """Number of modes, N/2."""
        return self.N // 2

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Modes n = lo .. hi - 1, each by the same expression as in `modes`."""
        n = np.arange(lo, hi, dtype=np.float64)
        return (2.0 * n + 1.0) * math.pi / self.N

    @property
    def modes(self) -> np.ndarray:
        return self.block(0, self.size)

    def blocks(self, lo: int = 0, hi: int | None = None):
        """(start, stop) of consecutive blocks of at most BLOCK modes over lo .. hi - 1."""
        hi = self.size if hi is None else hi
        for b in range(lo, hi, self.BLOCK):
            yield b, min(b + self.BLOCK, hi)


class TrigRows(NamedTuple):
    """The memo rows of one block of grid modes: sin k, the gap base b, and split,
    the number of leading modes whose b is 2 sin^2(k/2) (the rest hold -cos k)."""
    sin_k: np.ndarray
    base: np.ndarray
    split: int

    @property
    def size(self) -> int:
        """Number of modes, as for an array of their momenta."""
        return self.sin_k.size


# trig_rows' memo by N: the _TRIG_GRIDS most recent grids of <= _TRIG_MAX_MODES modes (16 MB each)
_TRIG_GRIDS, _TRIG_MAX_MODES = 3, 1 << 20
_trig_memo: OrderedDict[int, tuple[np.ndarray, np.ndarray, int]] = OrderedDict()


def trig_rows(grid: MomentumGrid):
    """rows(lo, hi) -> the TrigRows of modes lo .. hi - 1 from the per-N memo, or None
    past _TRIG_MAX_MODES modes.  The gap base b is 2 sin^2(k/2) on the first split modes
    (where cos k > 1/2) and -cos k beyond.  A miss evicts the least recently used
    grid, then fills the two read-only arrays block by block; a hit makes no momenta."""
    if grid.size > _TRIG_MAX_MODES:
        return None
    trig = _trig_memo.pop(grid.N, None)
    if trig is None:
        while len(_trig_memo) >= _TRIG_GRIDS:
            _trig_memo.popitem(last=False)
        sin_k, base, split = np.empty(grid.size), np.empty(grid.size), 0
        for lo, hi in grid.blocks():
            k = grid.block(lo, hi)
            ck = np.cos(k)
            # cos k falls along the ascending grid, so its > 1/2 modes are a prefix
            m = int(np.count_nonzero(ck > 0.5))
            np.sin(k, out=sin_k[lo:hi])
            base[lo:lo + m] = 2.0 * np.sin(0.5 * k[:m]) ** 2
            np.negative(ck[m:], out=base[lo + m:hi])
            split += m
        sin_k.flags.writeable = base.flags.writeable = False
        trig = sin_k, base, split
    _trig_memo[grid.N] = trig
    sin_k, base, split = trig
    return lambda lo, hi: TrigRows(sin_k[lo:hi], base[lo:hi], min(max(split - lo, 0), hi - lo))


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


def _pq_xy(x, p1: XYParams, p2: XYParams) -> tuple[np.ndarray, np.ndarray]:
    # g - cos k, as (g - 1) + 2 sin^2(k/2) where cos k > 1/2 to keep its digits for g near 1
    if isinstance(x, TrigRows):  # the same operations from the memo, as g - cos k is g + (-cos k)
        sk, base, n = x
        a1, a2 = np.empty(sk.size), np.empty(sk.size)
        for a, g in ((a1, p1.g), (a2, p2.g)):
            np.add(g - 1.0, base[:n], out=a[:n])
            np.add(g, base[n:], out=a[n:])
    else:  # the mask and the gap base once for both states: g - 1 or g, plus the base
        ck, sk = np.cos(x), np.sin(x)
        near = ck > 0.5
        base = np.where(near, 2.0 * np.sin(0.5 * x) ** 2, -ck)
        a1, a2 = ((g - near) + base for g in (p1.g, p2.g))
    # a1 a2 + gamma1 gamma2 sk sk and (gamma2 a1 - gamma1 a2) sk, by those operations in place
    t = p1.gamma * p2.gamma * sk
    p = np.add(a1 * a2, np.multiply(t, sk, out=t), out=t)
    q = np.multiply(p2.gamma, a1, out=a1)
    q -= np.multiply(p1.gamma, a2, out=a2)
    q *= sk
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


# log_overlap takes S = sqrt(p^2 + q^2) where q^2 and p^2 + q^2 lie in this range
_SQUARE_MIN, _SQUARE_MAX = float(np.finfo(np.float64).tiny), float(np.finfo(np.float64).max)
_QUIET = nullcontext()


def _fallback(p: np.ndarray, q: np.ndarray, q2: np.ndarray, s2: np.ndarray):
    # The modes whose q^2 or p^2 + q^2 is not a normal, finite double (a boolean
    # mask), with their p, q and S = hypot(p, q).  Where both |p| and |q| are below
    # 1/2 they are first scaled up by one power of two, which is exact and leaves f
    # unchanged, so that the larger lies in [1/2, 1) and a q^2 that would underflow
    # keeps its digits; p = q = 0 stays 0.
    bad = ~((q2 >= _SQUARE_MIN) & (s2 <= _SQUARE_MAX))
    pb, qb = p[bad], q[bad]
    e = np.minimum(np.frexp(np.maximum(np.abs(pb), np.abs(qb)))[1], 0)
    pb, qb = np.ldexp(pb, -e), np.ldexp(qb, -e)
    sb = np.hypot(pb, qb)
    if not sb.all():  # S = 0 exactly where p = q = 0
        _raise_if_degenerate(pb, qb)
    return bad, pb, qb, sb


def log_overlap(p: np.ndarray, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ln f of one mode from its kernels p and q (arrays of one shape), without cancellation.

    f^2 = (S + p) / (2 S) with S = sqrt(p^2 + q^2), formed by the square root
    wherever q^2 and p^2 + q^2 are normal, finite doubles.  Elsewhere, mode by
    mode, S = hypot(p, q), with p and q first scaled up by a power of two where
    both are below 1/2, so that q^2 does not underflow where the ratio of q to p
    is representable, and no mode's bits depend on the others in the array.  For
    p > 0 the direct form loses all digits once f is close to 1, so the
    equivalent ln f = (1/2) log1p(-q^2 / (2 S (S + p))) is used there; for p <= 0
    the factored form (S + p) = q^2 / (S - p) is exact.  Returns -inf where f = 0
    (q = 0 with p < 0) and raises DegenerateModeError where p = q = 0.  Where
    q^2 / (S - p) underflows (q != 0) its log is 2 ln|q| - ln(S - p), so such a
    mode stays finite; the p > 0 form needs S^2 in float range.  The result is
    written into out (an array of p's shape) when given, and returned.
    """
    out = np.multiply(q, q, out=out)
    if not out.size:
        return out
    s = np.multiply(p, p)
    s += out
    normal = _SQUARE_MIN <= out.min() and s.max() <= _SQUARE_MAX
    if normal:
        np.sqrt(s, out=s)
    else:
        bad, pb, qb, sb = _fallback(p, q, out, s)
        np.sqrt(s, out=s)
        s[bad] = sb
        p, q = p.copy(), q.copy()
        p[bad], q[bad] = pb, qb
        out[bad] = qb * qb
    pos = p.min() > 0.0
    # with every p > 0 and every S from the square root no mode can warn of 0/0 or log(0)
    with _QUIET if pos and normal else np.errstate(divide="ignore", invalid="ignore"):
        # the p > 0 form on every mode, in place: (1/2) log1p(q^2 / (-2 s (s + p)));
        # on p <= 0, where it may read 0/0 or log1p(-1), the factored form replaces it
        den = np.add(s, p)
        den *= s
        den *= -2.0
        out /= den
        np.log1p(out, out=out)
        out *= 0.5
        if not pos:
            neg = p <= 0.0  # and nan p, whose s is nan in either form
            sn, qn = s[neg], q[neg]
            dn = sn - p[neg]
            ratio = qn ** 2 / dn
            ln_sp = np.log(ratio)
            low = np.flatnonzero((ratio < _SQUARE_MIN) & (qn != 0.0))
            if low.size:
                ln_sp[low] = 2.0 * np.log(np.abs(qn[low])) - np.log(dn[low])
            out[neg] = 0.5 * (ln_sp - np.log(2.0 * sn))
    return out


def excitation_probability(log_f):
    """1 - f^2 from ln f: the probability that a sudden jump excites the mode."""
    return -np.expm1(2.0 * log_f)


def log_abs_fk_xy(k, p1: XYParams, p2: XYParams, out: np.ndarray | None = None):
    """ln f_k of the XY pair: log_overlap of its p_k, q_k, written into out when given.

    k is the momenta, or the TrigRows of a block of grid modes, which stand in
    for the block's momenta bit for bit without any being made.
    """
    if not isinstance(k, TrigRows):
        k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    return log_overlap(*_pq_xy(k, p1, p2), out=out)


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


def log_abs_fk_extising(k, g1: float, g2: float, out: np.ndarray | None = None):
    """ln |f_k| for the extended chain, stable near |f_k| = 1; -inf at zeros.
    Written into out when given."""
    k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    p, q = _pq_extising(k, g1, g2)
    _raise_if_degenerate(p, q)
    # |f| = |p| / hypot(p, q), so ln|f| = -(1/2) log1p((q/p)^2); p = 0 gives -inf
    with np.errstate(divide="ignore"):
        r = np.divide(q, p, out=q)
        out = np.log1p(np.square(r, out=r), out=out)
        out *= -0.5
        return out


def kc_anisotropic(g: float) -> float:
    """Gap-closing momentum arccos(g) of the anisotropic critical line."""
    if not -1.0 <= g <= 1.0:
        raise DomainError(f"arccos(g) needs |g| <= 1, got g = {g}")
    return math.acos(g)


def correlation_length_xy(p: XYParams) -> float:
    """Correlation length |1 / ln|(g - sqrt(g^2 - 1 + gamma^2)) / (1 - gamma)||.

    The overall prefactor is conventionally fixed to 1; nothing in the package
    reads the value, which is exported for comparison with crossover scales.  Inside g^2 + gamma^2 < 1 the square root goes
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
