"""Residuals between the exact rate integral and the closed forms."""

import pytest

from spinfid import DomainError, residual_pathA, residual_pathB


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
