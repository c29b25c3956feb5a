"""Brute-force ground truth: dense diagonalization of the 2^N spin Hamiltonians.

Both chains are real-symmetric in the sigma^z product basis once the yy bond
is expanded (it only enters as a double spin flip with coefficient -gamma
alongside the xx flip-flop).  Every term conserves spin-flip parity and the
ring is invariant under the one-site translation T, so the Hamiltonian splits
into exact (parity, momentum) sectors, k = 2 pi m / N.  A sector's basis is
one Bloch state per orbit of T (the orbit-representative technique, Sandvik,
AIP Conf. Proc. 1297, 135 (2010)).  Since H is real, sectors +k and -k have
the same spectrum, so only m = 0 .. N/2 are built.  H also commutes with the
site reflection P, which maps k to -k.  At m = 0 and m = N/2 the blocks are
real and P splits each into a reflection-even and a reflection-odd block.
For 0 < m < N/2 the antiunitary P o complex conjugation maps the sector onto
itself; its fixed vectors give a real basis of the same dimension, in which
the block is real symmetric too.  A block (at most 176 wide at N = 12, 594
at N = 14) is solved densely: no iterative solver, no convergence
ambiguity.  ed_ground_state needs only the two lowest levels and the ground
vector, so once it knows two levels it first screens each block: if a
Cholesky factorization (LAPACK potrf, about a quarter of the eigensolver's
time on the widest block) of H - tau I completes, tau the second-lowest level so far plus
a margin above the factorization's backward error (screen_margin), every
level of the block lies above that level and the block is skipped.  The
result is bit for bit the one from diagonalizing every block.

The spin terms come from the parameter class (couplings, the coupling-free
spin_terms pattern, and min_sites, the shortest chain holding every term on
distinct sites), so nothing here depends on the model family.  What does not
depend on the couplings (orbit, shift and reflection tables and every term's
entries in every block, one array per chain) is built on the first call per
(parameter class, N) and kept, and so is a block's embedding into the 2^N
basis once a ground state has needed it.  A call then combines all term
values with the couplings in one pass, scatters each block's share into its
matrix and diagonalizes.  scipy is imported on first use and only for its
LAPACK handles: eigh calls syevr as scipy.linalg.eigh would, without that
function's per-call Python, and the screen calls potrf.  dense_hamiltonian
builds the full, unsplit 2^N x 2^N matrix from the same terms for
structural checks.

Intended for tests and verification runs only: N <= 14.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .models import ModelParams, MomentumGrid

N_MAX = 14

#: two ground levels closer than this raise the degeneracy flag
DEGENERACY_TOL = 1e-10

#: relative margin of ed_ground_state's Cholesky screen (see screen_margin)
SCREEN_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def _lapack():
    """LAPACK (syevr, syevr_lwork, potrf) for float64, looked up on first use:
    only this oracle needs scipy."""
    from scipy.linalg.lapack import get_lapack_funcs
    return get_lapack_funcs(("syevr", "syevr_lwork", "potrf"), dtype=np.float64)


@functools.lru_cache(maxsize=None)
def _syevr_work(n: int) -> tuple[int, int]:
    """(lwork, liwork) of syevr at width n, as scipy.linalg.eigh asks for them.

    Kept per width: another workspace can switch LAPACK between blocked and
    unblocked code and so change the bits of the result.
    """
    lwork, liwork, info = _lapack()[1](n, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"syevr workspace query failed: info = {info}")
    return int(lwork), int(liwork)


def eigh(a: np.ndarray, *, eigvals_only: bool = False, subset_by_index):
    """Levels lo..hi (0-based, ascending) of the real-symmetric a, with their vectors
    unless eigvals_only: scipy.linalg.eigh(a, eigvals_only=..., subset_by_index=[lo, hi]).

    Calls LAPACK syevr with the arguments scipy.linalg.eigh passes its default
    evr driver (lower triangle, range 'I', 1-based il/iu, a left as it is, the
    workspace syevr_lwork gives), so the result is the same, bit for bit,
    without its per-call Python.  A non-finite entry raises ValueError and a
    LAPACK failure LinAlgError, as there.
    """
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    lo, hi = (int(i) for i in subset_by_index)
    n = a.shape[0]
    if not 0 <= lo <= hi < n:
        raise ValueError(f"level indices [{lo}, {hi}] outside [0, {n - 1}]")
    lwork, liwork = _syevr_work(n)
    w, v, m, _, info = _lapack()[0](a, compute_v=0 if eigvals_only else 1, range="I", lower=1,
                                    il=lo + 1, iu=hi + 1, lwork=lwork, liwork=liwork,
                                    overwrite_a=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK syevr failed: info = {info}")
    return w[:m] if eigvals_only else (w[:m], v[:, :m])


def screen_margin(sec: Sector, couplings, sigma: float) -> float:
    """How far above sigma ed_ground_state's screen shifts a block before its Cholesky test.

    If LAPACK potrf completes on the n x n matrix A = H - tau I, then A + dA
    is positive definite with ||dA||_2 <= e / (1 - e) ||A||_2, where
    e = n gamma_{n+1}, gamma_{n+1} = (n+1)u / (1 - (n+1)u) and u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 10.1), and ||A||_2 <= sec.norm_bound(couplings) + |tau|.  At
    n = 594 (the widest block at N = 14) e is 3.9e-11, so a margin of
    SCREEN_TOL (1 + |sigma| + norm bound) exceeds that perturbation (and the
    rounding of the shifted diagonal) about 25-fold: every level of a block
    that passes is above sigma.
    """
    return SCREEN_TOL * (1.0 + abs(sigma) + sec.norm_bound(couplings))


def _positive_definite(H: np.ndarray, tau: float) -> bool:
    """Whether LAPACK potrf completes a Cholesky factorization of H - tau I; H is left as it was."""
    a = H.copy()
    a.flat[::a.shape[0] + 1] -= tau
    # a is symmetric, so its transpose is the Fortran-ordered matrix potrf works in place on
    return _lapack()[2](a.T, overwrite_a=True, clean=False)[1] == 0


@dataclass(frozen=True)
class SpinState:
    """One eigenstate of a dense spin chain, with bookkeeping for tests.

    amplitudes is the full 2^N real vector in the sigma^z product basis,
    normalized, phase-fixed so the largest-magnitude amplitude is positive.
    parity is the spin-flip parity sector (+1 or -1) the state lives in and
    momentum the sector index m = 0 .. N/2 of its momentum k = 2 pi m / N.
    degenerate marks a ground level closer than DEGENERACY_TOL to the next.
    A ground level in a +-k pair (0 < m < N/2) is always degenerate; its
    amplitudes are then the real part of the +k sector state, or the
    imaginary part when that has the larger norm, which is a real ground
    state as well but not a momentum eigenstate.
    """
    amplitudes: np.ndarray
    N: int
    energy: float
    gap: float
    parity: int
    momentum: int
    degenerate: bool

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _check_size(N: int, params: ModelParams) -> int:
    N = MomentumGrid(N).N
    if not params.min_sites <= N <= N_MAX:
        raise DomainError(f"dense diagonalization of {type(params).__name__} supports even "
                          f"{params.min_sites} <= N <= {N_MAX}, got {N}")
    return N


def dense_hamiltonian(params: ModelParams, N: int) -> np.ndarray:
    """Full 2^N x 2^N real-symmetric Hamiltonian matrix (structural checks)."""
    N = _check_size(N, params)
    states = np.arange(1 << N, dtype=np.int64)
    H = np.zeros((states.size, states.size))
    for c, (targets, weights) in zip(params.couplings, params.spin_terms(states, N)):
        for t, w in zip(targets, weights):
            H[t, states] += c * w
    return H


def _odd_parity(N: int) -> np.ndarray:
    """1 on the basis states with an odd number of down spins, 0 on the others."""
    states = np.arange(1 << N, dtype=np.int64)
    pc = np.zeros(1 << N, dtype=np.int64)
    for b in range(N):
        pc += (states >> b) & 1
    return pc % 2


class _Orbits:
    """Orbits of the translation T (bit n -> bit n+1) on the 2^N basis states.

    rep[s] is the smallest state of s's orbit, back[s] the j with
    T^j s = rep[s] and period[s] the orbit length.
    """

    def __init__(self, N: int):
        mask = (1 << N) - 1
        states = np.arange(1 << N, dtype=np.int64)
        rep, back = states.copy(), np.zeros_like(states)
        period = np.full_like(states, N)
        rot = states
        for j in range(1, N):
            rot = ((rot << 1) & mask) | (rot >> (N - 1))
            period[(rot == states) & (period == N)] = j
            lower = rot < rep
            rep[lower], back[lower] = rot[lower], j
        self.N, self.rep, self.back, self.period = N, rep, back, period

    def phase(self, m: int, j: np.ndarray) -> np.ndarray:
        """exp(2 pi i m j / N), exactly +-1 in its real part at m = 0 and m = N/2."""
        return np.exp(2j * np.pi * ((m * j) % self.N) / self.N)


@dataclass
class Sector:
    """One symmetry block of H in a real orthonormal basis of Bloch states.

    The Bloch state of representative a is |a, k> = R_a^(-1/2)
    sum_{j < R_a} exp(-i k j) T^j |a>, R_a its orbit length, k = 2 pi m / N.
    Bloch state reps[r] has component coef[r, s] along real basis vector
    cols[r, s], s = 0, 1 (zero where it needs fewer).  The block is
    sum_i couplings[i] * terms[i] at the flat positions flat of its
    dim x dim matrix, and row_bounds[i] is the largest absolute row sum of
    terms[i].  terms is a view: the span columns of the one array of term
    values _sectors keeps for every block of the chain.  paired marks 0 < m < N/2, whose
    levels the -k sector repeats; at m = 0 and N/2, reflection is the
    block's site-reflection eigenvalue (+1 or -1), else 0.
    """
    orbits: _Orbits
    parity: int
    m: int
    reflection: int
    dim: int
    reps: np.ndarray
    cols: np.ndarray
    coef: np.ndarray
    flat: np.ndarray
    terms: np.ndarray
    row_bounds: tuple[float, ...]
    span: slice

    @property
    def paired(self) -> bool:
        return self.reflection == 0

    def norm_bound(self, couplings) -> float:
        """sum_i |couplings[i]| row_bounds[i]: the block's infinity norm, hence its
        2-norm, is at most this."""
        return sum(map(operator.mul, map(abs, couplings), self.row_bounds))

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """The dim x dim block with values (_combine of its terms) at flat, zero elsewhere."""
        h = np.zeros(self.dim * self.dim)
        h[self.flat] = values
        return h.reshape(self.dim, self.dim)

    @functools.cached_property
    def _embedding(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(positions, columns, phases, root periods): basis state positions[i] is
        T^-j of representative reps[columns[i]], j = back[positions[i]], and takes
        psi[columns[i]] * phases[i] / root periods[i], phases[i] = exp(2 pi i m j / N)."""
        orb = self.orbits
        loc = np.full(orb.rep.size, -1)
        loc[self.reps] = np.arange(self.reps.size)
        col = loc[orb.rep]
        on = np.flatnonzero(col >= 0)
        return on, col[on], orb.phase(self.m, orb.back[on]), np.sqrt(orb.period[on])

    def amplitudes(self, vec: np.ndarray) -> np.ndarray:
        """Real, normalized, phase-fixed 2^N amplitudes of a real block vector (SpinState)."""
        on, col, phase, root = self._embedding
        psi = (self.coef * vec[self.cols]).sum(axis=1)
        full = np.zeros(self.orbits.rep.size, dtype=complex)
        full[on] = psi[col] * phase / root
        amp = full.real
        if self.paired and np.linalg.norm(full.imag) > np.linalg.norm(amp):
            amp = full.imag
        amp = amp / np.linalg.norm(amp)
        imax = int(np.argmax(np.abs(amp)))
        return -amp if amp[imax] < 0.0 else amp


def _real_bases(orb: _Orbits, reps: np.ndarray, loc: np.ndarray, m: int):
    """[(reflection, cols, coef, dim), ...]: real orthonormal bases of sector m, as in Sector.

    The site reflection P maps |a, k> to exp(i phi_a) |abar, -k>, abar the
    representative of the reflected a.  At m = 0 and N/2 it maps the sector
    onto itself with a real phase sigma_a = +-1, and splits it into the
    reflection-even and -odd blocks spanned by |a> (abar = a, sigma_a = r)
    and (|a> + r sigma_a |abar>) / sqrt 2 (abar != a), r = +-1.  Otherwise
    the antiunitary A = P o complex conjugation, which commutes with H and
    T, maps the sector onto itself, and its fixed vectors
    exp(i phi_a / 2) |a> (abar = a), and exp(i phi_a / 2) (|a> + |abar>) / sqrt 2
    with i exp(i phi_a / 2) (|a> - |abar>) / sqrt 2 (abar != a), are one
    orthonormal basis in which H is real.
    """
    flipped = np.zeros_like(reps)
    for n in range(orb.N):
        flipped |= ((reps >> n) & 1) << (orb.N - 1 - n)
    own = np.arange(reps.size)
    bar = loc[orb.rep[flipped]]
    one, first = np.flatnonzero(bar == own), np.flatnonzero(bar > own)
    second = bar[first]
    if 2 * m % orb.N == 0:
        sigma = orb.phase(m, -orb.back[flipped]).real
        bases = []
        for r in (1, -1):
            single = one[sigma[one] == r]
            pair = single.size + np.arange(first.size)
            cols, coef = np.zeros((reps.size, 2), dtype=np.int64), np.zeros((reps.size, 2), dtype=complex)
            cols[single, 0], coef[single, 0] = np.arange(single.size), 1.0
            cols[first, 0], coef[first, 0] = pair, np.sqrt(0.5)
            cols[second, 0], coef[second, 0] = pair, r * sigma[first] * np.sqrt(0.5)
            if single.size + first.size:
                bases.append((r, cols, coef, single.size + first.size))
        return bases
    half = np.exp(-1j * np.pi * m * orb.back[flipped] / orb.N)
    plus = one.size + np.arange(first.size)  # the (|a> + |abar>) vectors
    minus = plus + first.size                # the i (|a> - |abar>) vectors
    h = np.sqrt(0.5) * half[first]
    cols, coef = np.zeros((reps.size, 2), dtype=np.int64), np.zeros((reps.size, 2), dtype=complex)
    cols[one, 0], coef[one, 0] = np.arange(one.size), half[one]
    cols[first], coef[first] = np.stack([plus, minus], axis=1), np.stack([h, 1j * h], axis=1)
    cols[second], coef[second] = np.stack([plus, minus], axis=1), np.stack([h, -1j * h], axis=1)
    return [(0, cols, coef, reps.size)]


def _sector(orb: _Orbits, parity: int, m: int, reps: np.ndarray, loc: np.ndarray, basis, pattern) -> Sector:
    reflection, cols, coef, d = basis
    col = np.broadcast_to(np.arange(reps.size), (orb.N, reps.size))
    keys, vals = [], []
    for targets, weights in pattern:
        row = loc[orb.rep[targets]]
        on = (row >= 0) & (weights != 0.0)
        t, a, b = targets[on], col[on], row[on]
        # T^j t = rep: <b, k| term |a, k> gains exp(-i k j) sqrt(R_a / R_b)
        v = weights[on] * orb.phase(m, -orb.back[t]) * np.sqrt(orb.period[reps[a]] / orb.period[t])
        # into the real basis: <c1| term |c2> = sum conj(coef[b, s1]) v coef[a, s2]
        v = (coef[b].conj()[:, :, None] * v[:, None, None] * coef[a][:, None, :]).real
        key = cols[b][:, :, None] * d + cols[a][:, None, :]
        live = (coef[b] != 0)[:, :, None] & (coef[a] != 0)[:, None, :]
        keys.append(key[live])
        vals.append(v[live])
    flat = np.unique(np.concatenate(keys))
    terms = np.array([np.bincount(np.searchsorted(flat, key), v, flat.size)
                      for key, v in zip(keys, vals)])
    # <c1|term|c2> and <c2|term|c1> agree to rounding only; make them equal
    mirror = np.searchsorted(flat, flat % d * d + flat // d)
    terms = 0.5 * (terms + terms[:, mirror])
    row_bounds = tuple(float(np.bincount(flat // d, np.abs(t), d).max()) for t in terms)
    return Sector(orb, 1 - 2 * parity, m, reflection, d, reps, cols, coef, flat, terms, row_bounds,
                  slice(0, flat.size))


def _combine(couplings, terms: np.ndarray) -> np.ndarray:
    """sum_i couplings[i] * terms[i], entry by entry in sum()'s order 0.0 + c_0 t_0 + c_1 t_1 + ...

    Term by term, so mirrored entries round alike and a block is exactly symmetric.
    """
    acc = np.zeros(terms.shape[1])
    tmp = np.empty_like(acc)
    for c, t in zip(couplings, terms):
        acc += np.multiply(c, t, out=tmp)
    return acc


@functools.lru_cache(maxsize=None)
def _sectors(kind: type, N: int) -> tuple[tuple[Sector, ...], np.ndarray]:
    """Every non-empty block (even parity first, then by m, reflection-even first)
    and the (terms x entries) values of all their terms, each block's a span of columns."""
    orb = _Orbits(N)
    states = np.arange(1 << N, dtype=np.int64)
    odd = _odd_parity(N)
    sectors = []
    for parity in (0, 1):
        reps = states[(orb.rep == states) & (odd == parity)]
        pattern = kind.spin_terms(reps, N)
        for m in range(N // 2 + 1):
            sel = (m * orb.period[reps]) % N == 0
            if not sel.any():
                continue
            loc = np.full(1 << N, -1)
            loc[reps[sel]] = np.arange(sel.sum())
            in_m = [(t[:, sel], w[:, sel]) for t, w in pattern]
            sectors += [_sector(orb, parity, m, reps[sel], loc, basis, in_m)
                        for basis in _real_bases(orb, reps[sel], loc, m)]
    terms = np.concatenate([sec.terms for sec in sectors], axis=1)
    ends = np.cumsum([sec.flat.size for sec in sectors]).tolist()
    spans = [slice(stop - sec.flat.size, stop) for sec, stop in zip(sectors, ends)]
    return tuple(replace(sec, terms=terms[:, span], span=span)
                 for sec, span in zip(sectors, spans)), terms


def sector_blocks(params: ModelParams, N: int) -> Iterator[tuple[Sector, np.ndarray]]:
    """Every symmetry block with its real-symmetric matrix at params, one at a time."""
    N = _check_size(N, params)
    sectors, terms = _sectors(type(params), N)
    values = _combine(params.couplings, terms)
    return ((sec, sec.scatter(values[sec.span])) for sec in sectors)


def ed_ground_state(params: ModelParams, N: int) -> SpinState:
    """Global ground state by dense diagonalization of the symmetry blocks.

    Returns the lowest level over all blocks, embedded back into the full
    2^N basis; ties go to even parity, then to the lower m, then to
    reflection-even.  gap is the distance to the next level of the full
    spectrum (levels of 0 < m < N/2 counted twice); within DEGENERACY_TOL
    the degenerate flag is raised (the state is still returned; overlaps then
    depend on which member of the ground space it is).

    Once two levels are known, a block is first screened: with sigma the
    second-lowest level so far, a block whose H - (sigma + screen_margin) I has
    a Cholesky factor holds only levels above sigma, so it can change neither
    the two lowest levels nor the ground block, and it is skipped.  Every other
    block is diagonalized as if there were no screen, so the result is the
    same, bit for bit, as diagonalizing every block.
    """
    couplings = params.couplings
    levels, best = [], None  # levels: the two lowest so far, ascending
    for sec, H in sector_blocks(params, N):
        if len(levels) == 2:
            sigma = levels[1]
            if _positive_definite(H, sigma + screen_margin(sec, couplings, sigma)):
                continue
        if sec.paired:
            w = eigh(H, eigvals_only=True, subset_by_index=[0, 0])
            levels = sorted(levels + [w[0], w[0]])[:2]
            vec = None
        else:
            w, V = eigh(H, subset_by_index=[0, min(1, sec.dim - 1)])
            levels = sorted(levels + list(w))[:2]
            vec = V[:, 0]
        if best is None or w[0] < best[0]:
            best = (w[0], sec, H, vec)
    energy, sec, H, vec = best
    if vec is None:
        vec = eigh(H, subset_by_index=[0, 0])[1][:, 0]
    gap = float(levels[1] - levels[0])
    return SpinState(amplitudes=sec.amplitudes(vec), N=sec.orbits.N, energy=float(energy), gap=gap,
                     parity=sec.parity, momentum=sec.m, degenerate=gap < DEGENERACY_TOL)


def ed_fidelity(params_a: ModelParams, params_b: ModelParams, N: int) -> float:
    """|<psi_A|psi_B>| of the two dense ground states at the same size."""
    params_a.check_same_kind(params_b)
    sa = ed_ground_state(params_a, N)
    sb = ed_ground_state(params_b, N)
    return ed_overlap(sa, sb)


def ed_overlap(sa: SpinState, sb: SpinState) -> float:
    """|<psi_A|psi_B>| of two precomputed states (reuse across many pairs)."""
    if sa.N != sb.N:
        raise DomainError(f"states live on different sizes: {sa.N} vs {sb.N}")
    return abs(float(sa.amplitudes @ sb.amplitudes))


def parity_expectation(state: SpinState) -> float:
    """Expectation of the global spin-flip parity operator prod_n sigma^z_n."""
    signs = 1.0 - 2.0 * _odd_parity(state.N)
    return float(np.sum(signs * state.amplitudes ** 2))
