"""Residuals between the exact rate integral and the closed forms."""

import numpy as np
import pytest

from spinfid import (DomainError, ExtIsingPath, PathA, PathB, PathC, PathD, residual,
                     residual_pathA, residual_pathB)


class TestIsingResidual:
    def test_fields_and_normalization(self):
        s = residual_pathA(0.5, 1e-4, 1.5)
        assert s.gamma == 0.5 and s.g is None
        assert s.normalized == pytest.approx(s.E * 0.5 ** 3 / 1e-8, rel=1e-12)

    def test_even_in_shift_sign(self):
        up = residual_pathA(1.0, 1e-3, 0.7)
        dn = residual_pathA(1.0, -1e-3, 0.7)
        assert up.E == pytest.approx(dn.E, abs=1e-14)

    def test_magnitude_bounds_spot_checks(self):
        for gamma, delta, c in ((1.0, 1e-3, 0.0), (1.0, 1e-3, 1.0), (0.5, 1e-4, 2.0)):
            s = residual_pathA(gamma, delta, c)
            assert abs(s.normalized) < 0.25

    def test_gamma_zero_is_a_domain_error(self):
        # the subtracted rate -|delta| A(c) / gamma has no value at gamma = 0
        with pytest.raises(DomainError, match="divides by gamma"):
            residual_pathA(0.0, 1e-3, 0.5)

    def test_quadratic_scaling_collapse(self):
        a = residual_pathA(0.5, 1e-4, 1.0).normalized
        b = residual_pathA(0.5, 1e-5, 1.0).normalized
        assert a == pytest.approx(b, rel=0.1)


class TestAnisotropicResidual:
    def test_fields(self):
        s = residual_pathB(0.5, 1e-3, 0.5)
        assert s.g == 0.5 and s.gamma is None

    def test_quarter_delta_squared(self):
        for g in (0.0, 0.9):
            s = residual_pathB(g, 1e-3, 0.5)
            assert s.normalized == pytest.approx(0.25, rel=0.2)

    def test_field_independence(self):
        vals = [residual_pathB(g, 1e-4, 0.5).normalized for g in (0.0, 0.9, 0.999)]
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-3)

    def test_even_in_shift_sign(self):
        up = residual_pathB(0.3, 1e-3, 1.2)
        dn = residual_pathB(0.3, -1e-3, 1.2)
        assert up.E == pytest.approx(dn.E, abs=1e-14)


# a seeded delta ladder over 1e-4 ... 1e-2 with random signs: the decade ends plus four
# log-uniform draws; the bounds below hold over the whole range at tol 1e-13
_rng = np.random.default_rng(1212)
LADDER = [float(s * d) for s, d in zip(_rng.choice([-1.0, 1.0], 7),
                                        [1e-4, 1e-3, 1e-2, *10.0 ** _rng.uniform(-4.0, -2.0, 4)])]


def normalized(make):
    return [residual(make(d)).normalized for d in LADDER]


class TestAnyPath:
    def test_fields_follow_the_path(self):
        s = residual(PathD(2.0, 1e-3, 1.5))
        assert (s.alpha, s.delta, s.c, s.gamma, s.g) == (2.0, 1e-3, 1.5, None, None)
        s = residual(ExtIsingPath(-1e-3, 0.5))
        assert (s.alpha, s.gamma, s.g) == (None, None, None)
        assert s.normalized == s.E / (-1e-3) ** 2

    def test_order_names_the_divisor(self):
        for spec, name, divisor in [
                (PathA(0.5, 1e-3, 0.5), "delta^2/gamma^3", 1e-6 / 0.125),
                (PathB(0.5, 1e-3, 0.5), "delta^2", 1e-6), (PathC(1e-3, 0.5), "delta^2", 1e-6),
                (PathC(1e-3, 200.0), "delta^4", 1e-12),
                (PathD(1.0, 1e-2, 1.5), "|delta|^(5/2)", 1e-5),
                (ExtIsingPath(1e-3, 0.5), "delta^2", 1e-6)]:
            s = residual(spec)
            assert s.order == name
            assert s.normalized == pytest.approx(s.E / divisor, rel=1e-12)

    def test_thin_wrappers_agree_with_residual(self):
        assert residual_pathA(0.7, 1e-3, 0.4) == residual(PathA(0.7, 1e-3, 0.4))
        assert residual_pathB(0.3, -1e-3, 1.2) == residual(PathB(0.3, -1e-3, 1.2))

    def test_rate_is_checked_before_the_integral(self, monkeypatch):
        import spinfid.verify
        monkeypatch.setattr(spinfid.verify, "fidelity_integral", None)  # never reached
        for gamma in (0.0, 1e-120):  # 1e-120: gamma^3 underflows, normalized would read 0
            with pytest.raises(DomainError, match="divides by gamma"):
                residual(PathA(gamma, 1e-3, 0.5))

    def test_underflowing_order_is_refused_before_the_integral(self, monkeypatch):
        import spinfid.verify
        monkeypatch.setattr(spinfid.verify, "fidelity_integral", None)  # never reached
        for spec in (PathB(0.5, 1e-200, 0.5), PathD(1.0, -1e-130, 1.5), ExtIsingPath(1e-160, 0.0)):
            with pytest.raises(DomainError, match="residual order of .* underflows"):
                residual(spec)

    @pytest.mark.parametrize("make", [lambda d: PathC(d, 0.5), lambda d: PathC(d, 0.2 / abs(d)),
                                      lambda d: PathD(1.0, d, 1.5), lambda d: ExtIsingPath(d, 2.0)],
                             ids=["C_universal", "C_nonuniversal", "D", "ext"])
    def test_even_in_shift_sign(self, make):
        up, dn = residual(make(1e-3)), residual(make(-1e-3))
        assert up.E == pytest.approx(dn.E, rel=1e-6, abs=1e-15)


class TestCriticalLineResidual:
    @pytest.mark.parametrize("c", [0.0, 0.5, 2.0])
    def test_universal_branch_approaches_a_quarter_delta_squared(self, c):
        # the same 0.25 delta^2 as the anisotropic crossing, reached from below
        vals = normalized(lambda d: PathC(d, c))
        assert all(0.242 < v < 0.25 for v in vals), vals
        assert residual(PathC(1e-4, c)).normalized == pytest.approx(0.25, abs=1e-3)

    @pytest.mark.parametrize("eps, value", [(0.2, -2.901), (0.5, -0.16975)])
    def test_nonuniversal_branch_is_exact_at_delta_squared(self, eps, value):
        # E / delta^4 stays put across two decades: no delta^2 term is left over
        vals = normalized(lambda d: PathC(d, eps / abs(d)))
        assert all(v == pytest.approx(value, rel=2e-3) for v in vals), vals


class TestMulticriticalResidual:
    @pytest.mark.parametrize("alpha, c, lo, hi", [
        (1.0, 1.0, -0.1505, -0.148),
        (1.0, 1.5, -0.190, -0.186),
        (2.0, 1.5, -0.255, -0.177),
        (0.5, 1.5, -0.0556, -0.0554),
    ])
    def test_three_halves_rate_leaves_delta_to_the_five_halves(self, alpha, c, lo, hi):
        vals = normalized(lambda d: PathD(alpha, d, c))
        assert all(lo < v < hi for v in vals), vals

    def test_alpha_dependence(self):
        # at |delta| = 1e-2, |E| / |delta|^{5/2} grows with alpha, though not as alpha^2
        n = {al: residual(PathD(al, 1e-2, 1.5)).normalized for al in (0.5, 1.0, 2.0)}
        assert n[0.5] > n[1.0] > n[2.0]
        assert n[1.0] / n[0.5] == pytest.approx(3.4, rel=0.05)


class TestExtendedChainResidual:
    @pytest.mark.parametrize("c", [0.0, 0.5, 2.0])
    def test_delta_squared(self, c):
        vals = normalized(lambda d: ExtIsingPath(d, c))
        assert all(0.971 < v < 1.0 for v in vals), vals
