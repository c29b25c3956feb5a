"""Sudden-quench observables and the adiabatic-impulse survival estimate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfid import (
    DomainError,
    MomentumGrid,
    PathA,
    XYParams,
    excitation_density,
    fidelity_product,
    instantaneous_survival,
    kz_survival_estimate,
    resolve_path,
    scaling_A,
    scaling_B,
)
from spinfid.models import log_abs_fk_xy


class TestSurvival:
    def test_no_jump(self):
        p = XYParams(0.9, 0.6)
        assert instantaneous_survival(p, p, 128) == 1.0

    def test_square_of_fidelity(self):
        p1, p2 = resolve_path(PathA(1.0, 1e-2, 0.3))
        f = fidelity_product(p1, p2, 512).F
        assert instantaneous_survival(p1, p2, 512) == pytest.approx(f * f, abs=1e-15)

    def test_midpoint_parameterization_identity(self):
        # jump lambda_1 -> lambda_2 equals the fidelity at (midpoint, half difference)
        g1, g2, gamma = 1.04, 0.98, 1.0
        direct = instantaneous_survival(XYParams(g1, gamma), XYParams(g2, gamma), 256)
        delta = (g1 - g2) / 2.0
        eps = (g1 + g2) / 2.0 - 1.0
        via_path = resolve_path(PathA(gamma, delta, eps / delta))
        assert direct == instantaneous_survival(*via_path, 256)

    def test_large_N_doubled_prefactor(self):
        # survival ~ (sqrt2)^2 exp(-2 N |d| A(c)/gamma) across the critical point
        gamma, delta, c, N = 1.0, 1e-3, 0.0, 100_000
        surv = instantaneous_survival(*resolve_path(PathA(gamma, delta, c)), N)
        smooth = 2.0 * math.exp(-2.0 * N * delta * scaling_A(c) / gamma)
        assert surv == pytest.approx(smooth, rel=0.05)


class TestExcitationDensity:
    def test_zero_shift(self):
        res = excitation_density(1.0, 0.0, 0.5, 1000)
        assert res.n_ex == 0.0 and res.survival == 1.0 and res.n_ex_integral == 0.0

    @pytest.mark.parametrize("args", [(1.0, 1e-3, 0.5, 100_000), (0.3, -2e-4, -1.0, 16386),
                                      (0.05, 1e-5, 2.5, 2000)])
    def test_one_kernel_pass_keeps_both_sums(self, args):
        # n_ex is math.fsum over every mode, the survival the product's own F^2
        gamma, delta, c, N = args
        p1, p2 = resolve_path(PathA(gamma, delta, c))
        pex = -np.expm1(2.0 * log_abs_fk_xy(MomentumGrid(N).modes, p1, p2))
        res = excitation_density(gamma, delta, c, N, keep_per_mode=True, with_integral=False)
        assert res.n_ex == (2.0 / N) * math.fsum(pex)
        assert res.survival == fidelity_product(p1, p2, N).F ** 2
        assert np.array_equal(res.per_mode_pex[:, 1], pex)

    def test_scaling_function_agreement(self):
        delta, N = 1e-3, 100_000
        for c in (-2.0, -0.5, 0.0, 0.7, 1.5):
            res = excitation_density(1.0, delta, c, N, with_integral=False)
            assert res.n_ex / delta == pytest.approx(scaling_B(c), rel=0.02), c

    def test_far_from_critical_asymptote(self):
        # n_ex ~ delta^2 / (4 |eps|) when |c| >> 1
        delta, c, N = 1e-4, 50.0, 200_000
        res = excitation_density(1.0, delta, c, N, with_integral=False)
        assert res.n_ex == pytest.approx(delta ** 2 / (4.0 * c * delta), rel=0.05)

    def test_discrete_sum_converges_to_integral(self):
        delta = 1e-3
        for c in (0.5, 2.0):
            res = excitation_density(1.0, delta, c, 1_000_000)
            assert abs(res.n_ex - res.n_ex_integral) < 1e-6

    def test_per_mode_probabilities(self):
        res = excitation_density(1.0, 0.01, 0.5, 2000, keep_per_mode=True)
        k, pex = res.per_mode_pex[:, 0], res.per_mode_pex[:, 1]
        assert np.all((0.0 <= pex) & (pex <= 1.0))
        assert 0.0 <= res.n_ex <= 1.0
        assert res.n_ex == pytest.approx(2.0 / 2000 * np.sum(pex), abs=1e-14)

    def test_derivative_monotone_in_size_near_one(self):
        # rounded logarithmic divergence of dB/dc: deeper with growing N
        c, h, delta = 0.999, 1e-4, 1e-3
        vals = []
        for N in (100_000, 200_000, 400_000):
            up = excitation_density(1.0, delta, c + h, N, with_integral=False).n_ex
            dn = excitation_density(1.0, delta, c - h, N, with_integral=False).n_ex
            vals.append((up - dn) / (2.0 * h) / delta)
        assert vals[0] > vals[1] > vals[2]


class TestKibbleZurek:
    def test_adiabatic_limit(self):
        assert kz_survival_estimate(1000, 1e18) == pytest.approx(1.0, abs=1e-6)

    def test_ising_exponent_half(self):
        N, tau, pref = 500, 400.0, 0.5
        want = math.exp(-N * pref / math.sqrt(tau))
        assert kz_survival_estimate(N, tau, nu=1.0, z=1.0, d=1, prefactor=pref) == pytest.approx(want)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1e6), st.floats(min_value=1.01, max_value=10.0))
    def test_monotone_in_quench_time(self, tau, factor):
        a = kz_survival_estimate(200, tau)
        b = kz_survival_estimate(200, tau * factor)
        assert 0.0 < a <= b <= 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            kz_survival_estimate(100, -1.0)
        with pytest.raises(DomainError):
            kz_survival_estimate(100, 10.0, prefactor=0.0)
