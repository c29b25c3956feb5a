"""Brute-force ground truth: dense diagonalization of the 2^N spin Hamiltonians.

Both chains are real-symmetric in the sigma^z product basis once the yy bond
is expanded (it only enters as a double spin flip with coefficient -gamma
alongside the xx flip-flop), so everything here is real arithmetic.  Every
term conserves spin-flip parity, which splits the Hamiltonian into two exact
blocks of dimension 2^{N-1}; each block is solved densely (no iterative
solver, no convergence ambiguity) and the global ground state is the lower of
the two.  dense_hamiltonian exposes the full, unsplit 2^N x 2^N matrix for
structural checks.  The spin terms come from the parameter class
(add_spin_terms, and min_sites, the shortest chain holding every term on
distinct sites), so nothing here depends on the model family.

Intended for tests and verification runs only: N <= 14, about 0.5 GB per
parity block at the top size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import ModelParams, MomentumGrid

N_MAX = 14

#: two ground levels closer than this raise the degeneracy flag
DEGENERACY_TOL = 1e-10


def eigh(a: np.ndarray, **kwargs):
    """scipy.linalg.eigh, imported on first use: only this oracle needs scipy."""
    from scipy.linalg import eigh as scipy_eigh
    return scipy_eigh(a, **kwargs)


@dataclass(frozen=True)
class SpinState:
    """One eigenstate of a dense spin chain, with bookkeeping for tests.

    amplitudes is the full 2^N real vector in the sigma^z product basis,
    normalized, phase-fixed so the largest-magnitude amplitude is positive.
    parity is the spin-flip parity sector (+1 or -1) the state lives in;
    degenerate marks a ground level closer than DEGENERACY_TOL to the next.
    """
    amplitudes: np.ndarray
    N: int
    energy: float
    gap: float
    parity: int
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


def _hamiltonian(params: ModelParams, N: int, basis: np.ndarray, pos: np.ndarray) -> np.ndarray:
    H = np.zeros((basis.size, basis.size))
    params.add_spin_terms(H, basis, pos, N)
    return H


def dense_hamiltonian(params: ModelParams, N: int) -> np.ndarray:
    """Full 2^N x 2^N real-symmetric Hamiltonian matrix (structural checks)."""
    N = _check_size(N, params)
    states = np.arange(1 << N, dtype=np.int64)
    return _hamiltonian(params, N, states, states)


def _odd_parity(N: int) -> np.ndarray:
    """1 on the basis states with an odd number of down spins, 0 on the others."""
    states = np.arange(1 << N, dtype=np.int64)
    pc = np.zeros(1 << N, dtype=np.int64)
    for b in range(N):
        pc += (states >> b) & 1
    return pc % 2


def _parity_sectors(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    odd_parity = _odd_parity(N)
    even, odd = np.flatnonzero(odd_parity == 0), np.flatnonzero(odd_parity)
    pos = np.empty(1 << N, dtype=np.int64)
    pos[even] = np.arange(even.size)
    pos[odd] = np.arange(odd.size)
    return even, odd, pos


def ed_ground_state(params: ModelParams, N: int) -> SpinState:
    """Global ground state by dense diagonalization of both parity blocks.

    Returns the lower of the even- and odd-sector ground states, embedded back
    into the full 2^N basis.  gap is the distance to the next level across
    both sectors; within DEGENERACY_TOL the degenerate flag is raised (the
    state is still returned; overlaps then depend on which doublet member the
    solver picked).
    """
    N = _check_size(N, params)
    even, odd, pos = _parity_sectors(N)
    He = _hamiltonian(params, N, even, pos)
    we, Ve = eigh(He, subset_by_index=[0, 1])
    del He
    Ho = _hamiltonian(params, N, odd, pos)
    wo, Vo = eigh(Ho, subset_by_index=[0, 1])
    del Ho
    if we[0] <= wo[0]:
        basis, vec, parity = even, Ve[:, 0], +1
        levels = (we[0], min(we[1], wo[0]))
    else:
        basis, vec, parity = odd, Vo[:, 0], -1
        levels = (wo[0], min(wo[1], we[0]))
    amp = np.zeros(1 << N)
    amp[basis] = vec
    amp /= np.linalg.norm(amp)
    imax = int(np.argmax(np.abs(amp)))
    if amp[imax] < 0.0:
        amp = -amp
    gap = float(levels[1] - levels[0])
    return SpinState(amplitudes=amp, N=N, energy=float(levels[0]), gap=gap,
                     parity=parity, degenerate=gap < DEGENERACY_TOL)


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
