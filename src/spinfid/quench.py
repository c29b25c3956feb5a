"""Sudden-quench observables and the adiabatic-impulse survival estimate.

A parameter jump from lambda_1 to lambda_2 leaves the system in the old
ground state; its overlap with the new one is the equilibrium fidelity at the
midpoint, so the survival probability is F^2.  Mode k is excited with
probability p_k^ex = 1 - f_k^2, giving the quasiparticle density

    n_ex = (1/pi) int_0^pi (1 - f_k^2) dk  ~  (2/N) sum_{k>0} (1 - f_k^2)

which for a small jump across the Ising line scales as |delta| B(c) / gamma with
the scaling function B from the scaling module.  The k-integral shares the
breakpoints and quadrature of fidelity_integral and is gated by its error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .fidelity import QUAD_BUDGET, fidelity_product, k_integrand, piecewise_quad
from .models import ModelParams, MomentumGrid, PathA, log_abs_fk_xy


@dataclass(frozen=True)
class QuenchResult:
    """Excitation density and ground-state survival after a sudden jump.

    n_ex is the finite-N mode sum; n_ex_integral the thermodynamic-limit
    quadrature of the same kernel.  per_mode_pex, when kept, holds (k, p_k^ex)
    rows.  survival = F^2 of the corresponding ground-state pair.
    """
    n_ex: float
    survival: float
    n_ex_integral: Optional[float] = None
    per_mode_pex: Optional[np.ndarray] = None


def instantaneous_survival(p1: ModelParams, p2: ModelParams, N: int) -> float:
    """Probability of remaining in the ground state after the jump p1 -> p2: F^2."""
    return fidelity_product(p1, p2, N).F ** 2


def excitation_density(gamma: float, delta: float, c: float, N: int,
                       keep_per_mode: bool = False,
                       with_integral: bool = True) -> QuenchResult:
    """Quasiparticle density for a sudden shift across the Ising line.

    The jump is the straight g-crossing at fixed anisotropy (g_{1,2} =
    1 + c|delta| +- delta); other geometries would need their own scaling
    functions and are out of scope here.  The discrete sum (2/N) sum (1-f_k^2)
    is always computed; the k-integral companion is optional but on by
    default.
    """
    grid = MomentumGrid(N)
    ks = grid.modes
    if delta == 0.0:
        per = np.column_stack([ks, np.zeros(ks.size)]) if keep_per_mode else None
        return QuenchResult(n_ex=0.0, survival=1.0, n_ex_integral=0.0 if with_integral else None,
                            per_mode_pex=per)
    p1, p2 = PathA(gamma=gamma, delta=delta, c=c).resolve()
    pex = -np.expm1(2.0 * log_abs_fk_xy(ks, p1, p2))
    n_ex = (2.0 / grid.N) * math.fsum(pex)
    per = np.column_stack([ks, pex]) if keep_per_mode else None

    n_int = None
    if with_integral:
        integrand, edges = k_integrand(p1, p2, lambda lnf: -np.expm1(2.0 * lnf))
        n_int = piecewise_quad(integrand, edges, QUAD_BUDGET).value / math.pi

    surv = fidelity_product(p1, p2, grid.N).F ** 2
    return QuenchResult(n_ex=n_ex, survival=surv, n_ex_integral=n_int, per_mode_pex=per)


def kz_survival_estimate(N: int, tauQ: float, nu: float = 1.0, z: float = 1.0,
                         d: int = 1, prefactor: float = 0.5) -> float:
    """Adiabatic-impulse estimate exp(-N prefactor / tauQ^{d nu / (1 + z nu)}).

    The impulse window freezes the state a distance ~ tauQ^{-1/(1+z nu)} from
    the critical point on either side; squaring the corresponding fidelity
    gives an exponential in the density of defected regions.  The O(1)
    prefactor is not pinned beyond its order of magnitude; the default 0.5 is
    twice the c = 0 Ising scaling function, 2 A(0).  Monotonicity and the
    adiabatic limit are the only quantitative claims.
    """
    N = MomentumGrid(N).N
    if tauQ <= 0.0 or prefactor <= 0.0 or nu <= 0.0 or z <= 0.0 or d <= 0:
        raise DomainError("kz_survival_estimate needs positive tauQ, prefactor, nu, z, d")
    expo = d * nu / (1.0 + z * nu)
    return math.exp(-N * prefactor / tauQ ** expo)
