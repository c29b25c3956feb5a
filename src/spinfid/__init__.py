"""Ground-state fidelity of the XY and extended-Ising spin chains.

Three mutually validating routes to the overlap of two nearby ground states:
the exact momentum-space product at finite size, adaptive quadrature of its
thermodynamic limit, and closed-form universal scaling functions built from
complete elliptic integrals.  Crossover analysis, sudden-quench observables,
residual verification of the closed forms, and a dense-diagonalization ground
truth round out the package; the `spinfid` command drives all of it in batch.
"""

__version__ = "0.1.0"

import importlib as _importlib

from .errors import (
    ConfigError,
    DegenerateModeError,
    DomainError,
    NumericsError,
    PoleError,
    SpinfidError,
)
from .specfun import elliptic_E, elliptic_K
from .models import (
    ExtIsingParams,
    ExtIsingPath,
    MomentumGrid,
    PathA,
    PathB,
    PathC,
    PathD,
    XYParams,
    correlation_length_xy,
    fk_extising,
    fk_xy,
    gap_extising,
    gap_xy,
    kc_anisotropic,
    resolve_path,
)
from .fidelity import (
    FidelityResult,
    fidelity_integral,
    fidelity_mps_closed,
    fidelity_product,
    oscillation_factor,
    phi_offset,
)
from .scaling import (
    CRITICAL_EXPONENTS,
    ScalingPrediction,
    predict_lnF,
    scaling_A,
    scaling_A_mcp,
    scaling_A_mps,
    scaling_A_quadrature,
    scaling_B,
    scaling_B_quadrature,
    scaling_dB_dc_near1,
    scaling_param_derivative,
    susceptibility_smallsystem,
)
from .crossover import (
    Crossing,
    LnFSweep,
    PowerLawFit,
    SlopeCurve,
    find_slope_crossing,
    gamma_crossing,
    local_slopes,
    log_grid,
    powerlaw_fit,
    shift_crossing,
    size_crossing,
    sweep_lnF,
)
from .quench import QuenchResult, excitation_density, instantaneous_survival, kz_survival_estimate
from .verify import ErrorSample, residual, residual_pathA, residual_pathB

# the dense oracle loads on first use (PEP 562): no command-line run needs it
_ORACLE_NAMES = frozenset({"SpinState", "dense_hamiltonian", "ed_fidelity", "ed_ground_state",
                           "ed_overlap", "parity_expectation"})


def __getattr__(name: str):
    if name in _ORACLE_NAMES or name == "oracle":
        oracle = _importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES | {"oracle"})
