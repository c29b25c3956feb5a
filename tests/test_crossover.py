"""Slope extraction, crossing location, and power-law fitting."""

import math

import numpy as np
import pytest

from spinfid import (
    DomainError,
    PathA,
    find_slope_crossing,
    fidelity_product,
    gamma_crossing,
    local_slopes,
    log_grid,
    powerlaw_fit,
    resolve_path,
    size_crossing,
    sweep_lnF,
)
from spinfid.crossover import SlopeCurve, even_size


class TestLocalSlopes:
    def test_exact_power_laws(self):
        xs = np.logspace(0.0, 2.0, 17)
        assert np.allclose(local_slopes(xs, xs ** 2).s, 2.0, atol=1e-10)
        assert np.allclose(local_slopes(xs, xs).s, 1.0, atol=1e-10)
        assert np.allclose(local_slopes(xs, 5.0 * xs ** -1.3).s, -1.3, atol=1e-10)

    def test_slope_recovery_insensitive_to_density(self):
        for n in (3, 7, 40, 301):
            xs = np.logspace(0.1, 1.7, n)
            assert np.allclose(local_slopes(xs, 2.0 * xs ** 1.7).s, 1.7, atol=1e-10)

    def test_decreasing_sweep_flipped(self):
        xs = np.logspace(2.0, 0.0, 15)
        curve = local_slopes(xs, xs ** 2)
        assert np.all(np.diff(curve.x) > 0.0)
        assert np.allclose(curve.s, 2.0, atol=1e-10)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            local_slopes([1.0, 2.0], [1.0, 4.0])
        with pytest.raises(DomainError):
            local_slopes([1.0, 2.0, 2.0], [1.0, 4.0, 9.0])
        with pytest.raises(DomainError):
            local_slopes([1.0, 3.0, 2.0], [1.0, 4.0, 9.0])
        with pytest.raises(DomainError):
            local_slopes([1.0, 2.0, 3.0], [1.0, -4.0, 9.0])

    def test_offset_invariance(self):
        # scaling the ordinate shifts ln y by a constant, slopes unchanged
        xs = np.logspace(0.0, 2.0, 25)
        ys = xs ** 1.5 * (1.0 + 0.1 * np.sin(np.log(xs)))
        a = local_slopes(xs, ys)
        b = local_slopes(xs, math.e ** 2.5 * ys)
        assert np.allclose(a.s, b.s, atol=1e-12)


class TestCrossing:
    def test_linear_curve_exact(self):
        x = np.linspace(0.0, 10.0, 21)
        s = 2.0 - x / 10.0
        got = find_slope_crossing(SlopeCurve(x=x, s=s), 1.5)
        assert got.x == pytest.approx(5.0, abs=1e-12)
        assert not got.multiple

    def test_multiple_crossings_flagged(self):
        x = np.linspace(0.0, 3.0, 4)
        s = np.array([2.0, 1.2, 1.8, 1.0])
        got = find_slope_crossing(SlopeCurve(x=x, s=s), 1.5)
        assert got.multiple
        assert got.x == pytest.approx(0.625)

    def test_no_crossing_raises(self):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DomainError):
            find_slope_crossing(SlopeCurve(x=x, s=np.full(5, 2.0)), 1.5)


class TestPowerLawFit:
    def test_exact_fit(self):
        xs = np.logspace(0.0, 2.0, 12)
        fit = powerlaw_fit(list(zip(xs, 3.0 * xs ** 1.7)))
        assert fit.slope == pytest.approx(1.7, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.slope_se == pytest.approx(0.0, abs=1e-12)
        assert fit.n_points == 12

    def test_standard_errors_positive_with_noise(self, rng):
        xs = np.logspace(0.0, 2.0, 30)
        ys = 2.0 * xs ** -0.5 * np.exp(rng.normal(0.0, 0.05, size=30))
        fit = powerlaw_fit(list(zip(xs, ys)))
        assert fit.slope == pytest.approx(-0.5, abs=0.1)
        assert fit.slope_se > 0.0 and fit.intercept_se > 0.0

    def test_degenerate_abscissas(self):
        with pytest.raises(DomainError):
            powerlaw_fit([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])
        with pytest.raises(DomainError):
            powerlaw_fit([(1.0, 1.0), (2.0, 2.0)])


def test_log_grid_density():
    g = log_grid(1e-4, 1.0, per_decade=20)
    assert g.size == 81
    assert g[0] == pytest.approx(1e-4) and g[-1] == pytest.approx(1.0)
    with pytest.raises(DomainError):
        log_grid(1.0, 0.1)


class TestSweepLnF:
    def test_gamma_sweep_matches_direct_reduction(self):
        # the slope curve runs in 1/gamma; values and slopes come back ascending in gamma
        gammas = np.logspace(-5.0, 0.0, 21)
        y = np.array([-fidelity_product(*resolve_path(PathA(g, 3e-7, -1.0)), 2000).lnF
                      for g in gammas])
        curve = local_slopes(1.0 / gammas[::-1], y[::-1])
        sw = sweep_lnF("gamma", gammas[::-1], -1.0, N=2000, delta=3e-7)
        assert np.array_equal(sw.values, gammas)
        assert np.array_equal(sw.minus_lnF, y)
        assert np.array_equal(sw.curve.x, curve.x)
        assert np.array_equal(sw.slopes, curve.s[::-1])
        want = math.exp(-find_slope_crossing(curve, 1.5).x)
        assert sw.crossing(1.5).x == want
        assert gamma_crossing(2000, 3e-7, -1.0, gammas).x == want

    def test_size_sweep_rounds_and_dedupes(self):
        sw = sweep_lnF("N", [7.0, 3.0, 2.2, 9.0, 12.9], 1.0, delta=1e-6)
        assert sw.values.tolist() == [2, 4, 8, 12]
        assert sw.slopes.shape == sw.minus_lnF.shape == (4,)

    def test_size_crossing_repeated_rounded_sizes(self):
        Ns = np.logspace(0.3, 4.3, 40)
        evens = [even_size(n) for n in Ns]
        assert len(set(evens)) < len(evens)
        want = size_crossing(1e-6, 1.0, np.unique(evens))
        assert size_crossing(1e-6, 1.0, Ns) == want
        assert size_crossing(1e-6, 1.0, Ns[::-1]) == want

    def test_unknown_scan(self):
        with pytest.raises(DomainError):
            sweep_lnF("g", [0.1, 0.2, 0.3], 1.0, N=100, delta=1e-3)
