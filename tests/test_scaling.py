"""Scaling functions, assembled predictions, and the pinch-point derivative."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from spinfid import (
    DomainError,
    ExtIsingParams,
    ExtIsingPath,
    PathA,
    PathB,
    PathC,
    PathD,
    PoleError,
    XYParams,
    fidelity_integral,
    fidelity_product,
    kc_anisotropic,
    oscillation_factor,
    predict_lnF,
    resolve_path,
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
from spinfid.models import MAX_FIELD
from spinfid.scaling import CRITICAL_EXPONENTS, closed_form_rate

SQRT2 = math.sqrt(2.0)
# one path per formula predict_lnF can return, at N = 20000:
# (spec, formula_id, prefactor, oscillatory)
FORMULAS = [
    (PathA(1.0, 1e-3, 0.5), "ising_crossing_sqrt2", SQRT2, False),
    (PathA(1.0, 1e-3, 1.5), "ising_crossing_smooth", 1.0, False),
    (PathB(0.99, 0.002, 0.5), "anisotropic_crossing_oscillating",
     oscillation_factor(kc_anisotropic(0.99), 20000), True),
    (PathB(0.99, 0.002, 1.5), "anisotropic_crossing_smooth", 1.0, False),
    (PathC(1e-3, 0.5), "critical_line_universal_sqrt2", SQRT2, False),
    (PathC(1e-3, 2.0), "critical_line_universal", 1.0, False),
    (PathC(1e-3, -150.0), "critical_line_nonuniversal", 1.0, False),
    (PathD(1.0, 1e-4, 2.0), "multicritical_paramagnetic", 1.0, False),
    (ExtIsingPath(1e-3, 0.5), "extended_ising_oscillating",
     2.0 * abs(math.cos(1e-3 * 20000 * math.sqrt(0.75))), True),
    (ExtIsingPath(1e-3, 1.0), "extended_ising_sqrt2", SQRT2, False),
    (ExtIsingPath(1e-3, 2.0), "extended_ising_smooth", 1.0, False),
]


class TestScalingA:
    def test_exact_quarter_at_zero(self):
        assert scaling_A(0.0) == 0.25

    def test_large_c_asymptote(self):
        assert scaling_A(10.0) == pytest.approx(1.0 / 160.0, rel=0.02)
        assert scaling_A(-10.0) == scaling_A(10.0)

    def test_one_sided_limits_agree_with_quadrature_at_one(self):
        a1 = scaling_A(1.0)
        assert a1 == pytest.approx(scaling_A_quadrature(1.0), abs=1e-10)
        assert scaling_A(1.0 - 1e-7) == pytest.approx(a1, abs=1e-5)
        assert scaling_A(1.0 + 1e-7) == pytest.approx(a1, abs=1e-5)

    def test_continuity_on_dense_grid(self):
        cs = np.concatenate([np.linspace(0.0, 0.9999, 300), np.linspace(1.0001, 4.0, 300)])
        vals = np.array([scaling_A(c) for c in cs])
        jumps = np.abs(np.diff(vals))
        assert np.all(vals > 0.0)
        assert np.all(jumps[np.abs(cs[:-1] - 1.0) > 0.01] < 0.02)

    def test_positive_everywhere(self):
        for c in np.linspace(-6, 6, 121):
            assert scaling_A(c) > 0.0


# 40-digit references of the defining integrals, computed once with mpmath 1.3.0
# (not a dependency of the package) by running, in Python:
#   from mpmath import mp, mpf, sqrt, log, log1p, quad, inf, pi
#   mp.dps = 40
#   def ref(c):  # the cancellation-free kernels of scaling, split at s/2, sqrt(s), 1, 8
#       a = abs(mpf(c)); s = abs(1 - a * a)
#       def xr(l):
#           x = l * l + a * a - 1
#           return x, sqrt(x * x + 4 * l * l)
#       def lk(l):
#           x, r = xr(l)
#           return log1p(-2*l*l / (r*(r+x))) if x > 0 else log(2*l*l) - log(r*(r-x))
#       def pk(l):
#           x, r = xr(l)
#           return 2*l*l / (r*(r+x)) if x > 0 else (r-x) / (2*r)
#       edges = [0, s / 2, sqrt(s), 1, 8, inf]
#       return -quad(lk, edges) / (4 * pi), quad(pk, edges) / pi
#   for c in (1 - 9e-10, 1 - 5e-10, 1 - 1e-10, 1 + 1e-10, 1 + 5e-10, 1 + 9e-10):
#       print(c, *(mp.nstr(v, 20) for v in ref(c)))
# mp.dps = 60 prints the same digits.
UNIT_WINDOW_REFERENCES = [
    (1.0 - 9e-10, 0.090845058620393830516, 0.31830988932189011962),
    (1.0 - 5e-10, 0.090845057882763826047, 0.31830988797395403937),
    (1.0 - 1e-10, 0.090845057115843997642, 0.31830988656743834713),
    (1.0 + 1e-10, 0.090845056725365332878, 0.31830988580014299597),
    (1.0 + 5e-10, 0.090845056058445512509, 0.31830988439362730413),
    (1.0 + 9e-10, 0.090845055420815313386, 0.31830988304569085533),
]


@pytest.mark.parametrize("c, A, B", UNIT_WINDOW_REFERENCES)
def test_unit_window_quadrature_matches_high_precision(c, A, B):
    # next to |c| = 1 the closed forms keep their digits through y = 1 - m formed
    # as a product
    for sign in (1.0, -1.0):
        assert abs(scaling_A(sign * c) - A) < 1e-14
        assert abs(scaling_B(sign * c) - B) < 1e-14


# the same ref(c) at c = 0.3, 0.999, 1.5, 3 (mp.dps = 60 prints the same digits)
QUADRATURE_REFERENCES = [
    (0.3, 0.23861895403518161665, 0.48855266553079247528),
    (0.999, 0.091639604098058796612, 0.31958134636528286519),
    (1.5, 0.046001919283217023607, 0.17796694933453136736),
    (3.0, 0.021288768547902449713, 0.084541962285844935876),
]


@pytest.mark.parametrize("c, A, B", QUADRATURE_REFERENCES)
def test_quadrature_matches_high_precision(c, A, B):
    for sign in (1.0, -1.0):
        assert abs(scaling_A_quadrature(sign * c) - A) < 1e-13
        assert abs(scaling_B_quadrature(sign * c) - B) < 1e-13


def large_c_reference(c: float) -> tuple[float, float]:
    """A(c) and B(c) from their defining integrals at 40 digits, for |c| > 1 (p > 0 throughout)."""
    with mpmath.workdps(40):
        a = abs(mpmath.mpf(c))

        def excited(l):  # 1 - f^2 = q^2 / (2 S (S + p)) with p = l^2 + c^2 - 1, q = 2l
            x = l * l + a * a - 1
            r = mpmath.sqrt(x * x + 4 * l * l)
            return 2 * l * l / (r * (r + x))

        edges = [0, 1, mpmath.sqrt(a * a - 1), mpmath.inf]
        A = -mpmath.quad(lambda l: mpmath.log1p(-excited(l)), edges) / (4 * mpmath.pi)
        return float(A), float(mpmath.quad(excited, edges) / mpmath.pi)


def near_unit_reference(c: float) -> tuple[float, float]:
    """A(c) and B(c) from their defining integrals at 40 digits, split at s/2,
    sqrt(s) (s = |1 - c^2|) and every half-decade from 1e-16 to 10, with
    mpmath's error estimate held far below the tolerance checked."""
    with mpmath.workdps(40):
        a = abs(mpmath.mpf(c))
        s = abs(1 - a * a)

        def excited(l):  # 1 - f^2, cancellation-free on either sign of p = l^2 + c^2 - 1
            x = l * l + a * a - 1
            r = mpmath.sqrt(x * x + 4 * l * l)
            return 2 * l * l / (r * (r + x)) if x > 0 else (r - x) / (2 * r)

        def log_f2(l):
            x = l * l + a * a - 1
            r = mpmath.sqrt(x * x + 4 * l * l)
            return mpmath.log1p(-excited(l)) if x > 0 else mpmath.log(2 * l * l / (r * (r - x)))

        halves = [mpmath.mpf(10) ** (mpmath.mpf(e) / 2) for e in range(-32, 3)]
        edges = sorted({0, s / 2, mpmath.sqrt(s), *halves}) + [mpmath.inf]
        (A, A_err), (B, B_err) = (mpmath.quad(f, edges, error=True) for f in (log_f2, excited))
        assert A_err < 1e-20 * abs(A) and B_err < 1e-20 * abs(B)
        return float(-A / (4 * mpmath.pi)), float(B / mpmath.pi)


@pytest.mark.parametrize("c", [1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-10, 1.0 + 1e-10,
                               1.0 - 1e-6, 1.0 + 1e-6])
def test_quadrature_near_unit_c_matches_high_precision(c):
    # at |1 - c| = 1e-12 six decades lie between s/2 and sqrt(s), and six more up
    # to 1; unsplit, A was off by 5.5e-12 and B by 2.8e-12 with the estimate under budget
    A, B = near_unit_reference(c)
    for sign in (1.0, -1.0):
        assert scaling_A_quadrature(sign * c) == pytest.approx(A, rel=1e-14, abs=0.0)
        assert scaling_B_quadrature(sign * c) == pytest.approx(B, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("c", [30.0, 1e3, 1e6, 5.0005e7])
def test_past_the_closed_form_matches_high_precision(c):
    # pi/2 - E ~ pi m / 8 comes from the AGM's deviation from 1, so nothing cancels as |c| grows
    A, B = large_c_reference(c)
    for sign in (1.0, -1.0):
        assert scaling_A(sign * c) == pytest.approx(A, rel=1e-15, abs=0.0)
        assert scaling_B(sign * c) == pytest.approx(B, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("fn, tail", [(scaling_A, 1.0 / 16.0), (scaling_B, 0.25)],
                         ids=["A", "B"])
def test_c_up_to_the_field_bound(fn, tail):
    # the asymptote tail / |c| is exact to 1 part in c^2 at the bound, and past it c is refused
    assert fn(MAX_FIELD) == pytest.approx(tail / MAX_FIELD, rel=1e-15, abs=0.0)
    with pytest.raises(DomainError, match="at most"):
        fn(2.0 * MAX_FIELD)


@pytest.mark.parametrize("c", [1e51, 1e80, 1e200, math.inf, -math.inf, math.nan],
                         ids=["1e51", "1e80", "1e200", "+inf", "-inf", "nan"])
@pytest.mark.parametrize("fn", [scaling_A_quadrature, scaling_B_quadrature],
                         ids=lambda fn: fn.__name__)
def test_quadrature_past_the_field_bound_raises(fn, c):
    # past MAX_FIELD the integrand's S (S + p) overflows; the quadrature refuses c
    # as the closed forms do, with no numerics warning or error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="c must be finite and at most"):
            fn(c)


def closed_form_points() -> list[float]:
    """Seeded c over [0, 3], log-uniform up to MAX_FIELD, and within 1e-15 ... 1e-9 of |c| = 1."""
    rng = np.random.default_rng(19)
    n = 60
    near = 1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-15.0, -9.0, n)
    cs = np.concatenate([rng.uniform(0.0, 3.0, n),
                         10.0 ** rng.uniform(0.0, math.log10(MAX_FIELD), n), near])
    return [float(c) for c in cs * rng.choice([-1.0, 1.0], cs.size)]


def test_closed_forms_match_quadrature_at_every_c():
    # one closed-form route at every |c|, the old quadrature window around |c| = 1 included
    for c in closed_form_points():
        assert scaling_A(c) == pytest.approx(scaling_A_quadrature(c), rel=1e-14, abs=0.0), c
        assert scaling_B(c) == pytest.approx(scaling_B_quadrature(c), rel=1e-14, abs=0.0), c


def elliptic_reference(c: float) -> tuple[float, float]:
    """A(c) and B(c) from mpmath's ellipk and ellipe, with digits to spare for pi/2 - E ~ pi m/8."""
    a = abs(mpmath.mpf(c))
    with mpmath.workdps(40 + (2 * int(mpmath.log10(a)) if a > 1 else 0)):
        m = a * a if a <= 1 else 1 / (a * a)
        E, K = mpmath.ellipe(m), mpmath.ellipk(m)
        if a <= 1:
            return float(0.25 - (E - (1 - m) * K) / (2 * mpmath.pi)), float(E / mpmath.pi)
        return (float(a * (mpmath.pi / 2 - E) / (2 * mpmath.pi)),
                float(a * (E - (1 - m) * K) / mpmath.pi))


def test_closed_forms_match_mpmath_elliptic_integrals():
    for c in closed_form_points():
        A, B = elliptic_reference(c)
        assert scaling_A(c) == pytest.approx(A, rel=1e-14, abs=0.0), c
        assert scaling_B(c) == pytest.approx(B, rel=1e-14, abs=0.0), c


class TestScalingB:
    def test_exact_half_at_zero(self):
        assert scaling_B(0.0) == 0.5

    def test_large_c_asymptote(self):
        assert scaling_B(25.0) == pytest.approx(0.01, rel=0.02)

    def test_quadrature_agreement(self, rng):
        for c in rng.uniform(0.02, 3.0, size=12):
            if abs(c - 1.0) < 1e-3:
                continue
            assert scaling_B(c) == pytest.approx(scaling_B_quadrature(c), abs=1e-9)

    def test_derivative_expansion_near_one(self):
        # arithmetic value of the printed expansion at |1 - c| = 1e-3
        got = scaling_dB_dc_near1(1.0 - 1e-3)
        assert got == pytest.approx(
            (2.0 - 3.0 * math.log(2.0)) / (2.0 * math.pi) + math.log(1e-3) / (2.0 * math.pi),
            abs=1e-12)
        assert got == pytest.approx(-1.1120469123643282, abs=1e-10)

    def test_derivative_expansion_matches_finite_difference(self):
        h = 1e-6
        for u in (1e-2, 3e-3, 1e-3):
            c = 1.0 - u
            fd = (scaling_B(c + h) - scaling_B(c - h)) / (2.0 * h)
            assert fd == pytest.approx(scaling_dB_dc_near1(c), abs=8.0 * u)

    def test_derivative_diverges_toward_one(self):
        vals = [scaling_dB_dc_near1(1.0 - u) for u in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < -2.0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            scaling_dB_dc_near1(1.0)
        with pytest.raises(DomainError):
            scaling_dB_dc_near1(0.5)


class TestScalingMcpAndMps:
    def test_mcp_at_one(self):
        assert scaling_A_mcp(1.0) == pytest.approx(0.125, abs=1e-14)

    def test_mcp_asymptote(self):
        assert scaling_A_mcp(100.0) == pytest.approx(5.0 / (32.0 * math.sqrt(200.0)), rel=0.01)

    def test_mcp_positive(self):
        for c in np.logspace(0.0, 3.0, 40):
            assert scaling_A_mcp(c) > 0.0

    def test_mcp_keeps_its_digits_at_large_c(self, rng):
        # the printed form, at enough digits to survive its own cancellation of c^3
        def printed(c):
            with mpmath.workdps(250):
                c = mpmath.mpf(c)
                return float(((c + 1) ** 1.5 * (3 - 2 * c) + (c - 1) ** 1.5 * (3 + 2 * c))
                             / (16 * mpmath.sqrt(2)))
        cs = [1.0, 1.5, *(1.0 + rng.uniform(0.0, 9.0, 40)), *(10.0 ** rng.uniform(1.0, 50.0, 40))]
        for c in cs:
            assert scaling_A_mcp(c) == pytest.approx(printed(c), rel=1e-15)
        assert math.isfinite(scaling_A_mcp(1e300)) and scaling_A_mcp(1e300) > 0.0

    def test_mcp_domain(self):
        with pytest.raises(DomainError):
            scaling_A_mcp(0.99)

    def test_mps_plateau_and_tail(self):
        assert scaling_A_mps(0.5) == 1.0
        assert scaling_A_mps(-0.2) == 1.0
        assert scaling_A_mps(1.0) == 1.0
        assert scaling_A_mps(20.0) == pytest.approx(0.025, rel=1e-3)
        assert scaling_A_mps(1.0 + 1e-12) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("c", [1e4, 1e8])
    def test_mps_tail_matches_high_precision(self, c):
        # |c| - sqrt(c^2 - 1) in doubles cancels, reading 0 at c = 1e8
        with mpmath.workdps(40):
            ref = float(c - mpmath.sqrt(mpmath.mpf(c) ** 2 - 1))
        assert scaling_A_mps(c) == pytest.approx(ref, rel=1e-15, abs=0.0)

    def test_mps_monotone_nonincreasing(self):
        cs = np.linspace(0.0, 8.0, 160)
        vals = [scaling_A_mps(c) for c in cs]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("fn", [scaling_A, scaling_B, scaling_A_mcp, scaling_A_mps],
                         ids=lambda fn: fn.__name__)
def test_non_finite_c_raises(fn, c):
    with pytest.raises(DomainError, match="c must be finite"):
        fn(c)


class TestFactorOfTwoAndCrossovers:
    def test_anisotropic_rate_doubles_ising_rate(self):
        # matched (delta, c), gamma = 1: quadrature rates differ by exactly 2
        delta = 1e-6
        for c in (0.3, 0.5, 2.0):
            ia = fidelity_integral(*resolve_path(PathA(1.0, delta, c)), tol=1e-13)
            ib = fidelity_integral(*resolve_path(PathB(0.0, delta, c)), tol=1e-13)
            assert ib / ia == pytest.approx(2.0, rel=1e-6)

    def test_path_d_reduces_to_sqrt_eps_susceptibility(self):
        # far from the corner (1 << c, c delta << 1) the rate collapses to
        # -delta^2 5 alpha^2 / (32 sqrt(2 eps))
        alpha, delta, c = 1.0, 1e-9, 1000.0
        eps = c * delta
        pred = predict_lnF(PathD(alpha, delta, c), 1000)
        want = -delta ** 2 * 5.0 * alpha ** 2 / (32.0 * math.sqrt(2.0 * eps))
        assert pred.lnF_per_site == pytest.approx(want, rel=0.01)

    def test_path_c_universal_reduces_to_nonuniversal(self):
        # |c| >> 1 with eps << 1: -2 delta A(c) -> -delta^2/(8 eps) at leading order
        delta, c = 1e-5, 50.0
        eps = c * delta
        universal = -2.0 * delta * scaling_A(c)
        nonuniversal = -delta ** 2 / (8.0 * eps * (1.0 + eps) ** 2)
        assert universal == pytest.approx(nonuniversal, rel=10.0 * eps)


def test_all_scaling_functions_continuous_on_dense_grids():
    # jumps bounded by grid-scale slope away from the documented |c| = 1 kinks
    for fn, grid in (
        (scaling_A, np.linspace(-4.0, 4.0, 1201)),
        (scaling_B, np.linspace(-4.0, 4.0, 1201)),
        (scaling_A_mps, np.linspace(-4.0, 4.0, 1201)),
        (scaling_A_mcp, np.linspace(1.0, 10.0, 1201)),
    ):
        vals = np.array([fn(c) for c in grid])
        jumps = np.abs(np.diff(vals))
        away = np.minimum(np.abs(np.abs(grid[:-1]) - 1.0), np.abs(np.abs(grid[1:]) - 1.0)) > 0.02
        assert np.all(jumps[away] < 0.03)
        near = ~away
        if np.any(near):
            assert np.all(jumps[near] < 0.2)  # continuous, only the slope diverges


def test_prediction_tracks_product_near_unit_c():
    # relative agreement within (0.4 d^2/g^3) N / |lnF| once N exceeds the
    # larger correlation length by an order of magnitude
    delta, gamma = 1e-3, 1.0
    for c in (0.9, 1.0, 1.1):
        for N in (100_000, 400_000):
            spec = PathA(gamma, delta, c)
            lnF = fidelity_product(*resolve_path(spec), N).lnF
            pred = predict_lnF(spec, N).lnF_per_site * N
            assert abs(lnF - pred) <= 0.4 * delta ** 2 / gamma ** 3 * N, (c, N)


class TestPinchPoint:
    def test_log_divergence_ratio(self):
        vals = [scaling_param_derivative(1.1, 1.0 - u, 1.0) for u in (1e-3, 1e-4, 1e-5)]
        ratio = (vals[2] - vals[1]) / (vals[1] - vals[0])
        assert ratio == pytest.approx(1.0, abs=0.1)

    def test_matches_product_finite_difference_large_N(self):
        g1, gamma, N, h = 1.1, 1.0, 1_000_000, 1e-4
        for g2 in np.linspace(0.9, 0.99, 7):
            num = -(fidelity_product(XYParams(g1, gamma), XYParams(g2 + h, gamma), N).lnF
                    - fidelity_product(XYParams(g1, gamma), XYParams(g2 - h, gamma), N).lnF) / (2.0 * h * N)
            ana = scaling_param_derivative(g1, g2, gamma)
            assert num == pytest.approx(ana, rel=0.02), g2

    def test_smooth_far_side(self):
        # both states on the same side: finite derivative
        val = scaling_param_derivative(1.2, 1.05, 1.0)
        assert math.isfinite(val)

    def test_pole_at_critical_lower_state(self):
        with pytest.raises(PoleError):
            scaling_param_derivative(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):  # gamma = 0 leaves no finite derivative either
            scaling_param_derivative(1.1, 0.9, 0.0)


class TestPredict:
    def test_path_a_shapes(self):
        pred = predict_lnF(PathA(1.0, 1e-3, 0.5), 10000)
        assert pred.prefactor == pytest.approx(math.sqrt(2.0))
        assert not pred.oscillatory
        assert pred.lnF_per_site == pytest.approx(
            -1e-3 * scaling_A(0.5) + math.log(2.0) / 20000.0, abs=1e-15)
        smooth = predict_lnF(PathA(1.0, 1e-3, 1.5), 10000)
        assert smooth.prefactor == 1.0
        # gamma = 0 leaves the rate -|d| A(c) / gamma without a finite value
        for c in (0.5, 1.5):
            with pytest.raises(DomainError):
                predict_lnF(PathA(0.0, 1e-3, c), 100)
            with pytest.raises(DomainError):
                susceptibility_smallsystem(PathA(0.0, 1e-3, c), 100)
        # while the product is exact: the two XX states across g = 1 are orthogonal
        assert fidelity_product(*resolve_path(PathA(0.0, 1e-3, 0.5)), 100).exact_zero

    def test_path_a_refuses_gamma_whose_cube_underflows(self):
        # the rate divides by gamma, the prediction by gamma^2, the residual weighs by gamma^3
        for gamma in (1e-110, -1e-120, 1e-200, 5e-324):
            spec = PathA(gamma, 1e-3, 0.5)
            for fn in (closed_form_rate, lambda s: predict_lnF(s, 100),
                       lambda s: susceptibility_smallsystem(s, 100)):
                with pytest.raises(DomainError, match="divides by gamma"):
                    fn(spec)
        assert math.isfinite(predict_lnF(PathA(1e-100, 1e-3, 0.5), 100).lnF_per_site)

    def test_path_b_oscillation_amplitude(self):
        pred = predict_lnF(PathB(0.99, 0.002, 0.5), 10000)
        assert pred.oscillatory and 0.0 <= pred.prefactor <= 2.0

    def test_path_d_rejects_sub_unit_c(self):
        with pytest.raises(DomainError):
            predict_lnF(PathD(1.0, 1e-4, 0.5), 1000)

    def test_path_d_matches_product(self):
        # multicritical rate against the exact product at N = 1e5
        N, delta = 100_000, 5e-4
        pred = predict_lnF(PathD(1.0, delta, 2.0), N)
        exact = fidelity_product(*resolve_path(PathD(1.0, delta, 2.0)), N).lnF / N
        assert pred.lnF_per_site == pytest.approx(exact, rel=0.01)

    def test_ext_ising_branches(self):
        osc = predict_lnF(ExtIsingPath(1e-3, 0.5), 20000)
        assert osc.oscillatory
        edge = predict_lnF(ExtIsingPath(1e-3, 1.0), 20000)
        assert edge.prefactor == pytest.approx(math.sqrt(2.0))
        smooth = predict_lnF(ExtIsingPath(1e-3, 2.0), 20000)
        assert smooth.prefactor == 1.0
        assert smooth.lnF_per_site == pytest.approx(-1e-3 * scaling_A_mps(2.0), abs=1e-15)

    @pytest.mark.parametrize("c", [0.5, 2.0, -150.0])
    def test_path_c_matches_product(self, c):
        # the universal rate while |eps| = |c| delta <= 0.1, the nonuniversal one past it
        N, spec = 20_000, PathC(1e-3, c)
        exact = fidelity_product(*resolve_path(spec), N).lnF / N
        assert predict_lnF(spec, N).lnF_per_site == pytest.approx(exact, rel=1e-2)

    @pytest.mark.parametrize("spec, formula, prefactor, oscillatory", FORMULAS,
                             ids=[f[1] for f in FORMULAS])
    def test_formula_branches(self, spec, formula, prefactor, oscillatory):
        pred = predict_lnF(spec, 20000)
        assert pred.formula_id == formula
        assert pred.prefactor == pytest.approx(prefactor, rel=1e-12)
        assert pred.oscillatory is oscillatory

    def test_validity_ratios_reported(self):
        pred = predict_lnF(PathA(0.5, 1e-4, 0.2), 50000)
        assert pred.validity["N_delta_over_gamma"] == pytest.approx(10.0)
        assert pred.validity["delta_over_gamma2"] == pytest.approx(4e-4)

    def test_exponent_table(self):
        assert CRITICAL_EXPONENTS["ising"]["nu"] == 1.0
        assert CRITICAL_EXPONENTS["extended_ising"]["z"] == 2.0
        assert CRITICAL_EXPONENTS["multicritical_paramagnetic"]["nu"] == 0.5


class TestSusceptibility:
    def test_zero_shift_is_unity(self):
        assert susceptibility_smallsystem(PathA(1.0, 1e-12, -1.0), 100) == pytest.approx(1.0, abs=1e-12)

    def test_path_a_critical_plateau(self):
        # quadratic-in-N regime of the crossing with one state at the critical point
        N, delta = 1_000_000, 3e-7
        sus = susceptibility_smallsystem(PathA(1.0, delta, -1.0), N)
        exact = fidelity_product(*resolve_path(PathA(1.0, delta, -1.0)), N).F
        assert 1.0 - sus == pytest.approx(delta ** 2 * N ** 2 / 16.0, rel=1e-12)
        assert 1.0 - sus == pytest.approx(1.0 - exact, rel=0.05)

    def test_path_a_off_critical(self):
        sus = susceptibility_smallsystem(PathA(1.0, 1e-6, 50.0), 1000)
        want = 1.0 - 1e-12 * 1000.0 / (16.0 * 5e-5)
        assert sus == pytest.approx(want, abs=1e-15)

    def test_ext_ising_small_eps_limit(self):
        N, delta, c = 100, 1e-6, 1e-6
        sus = susceptibility_smallsystem(ExtIsingPath(delta, c), N)
        assert sus == pytest.approx(1.0 - delta ** 2 * N ** 2, abs=1e-12)
        eps = c * delta
        exact = fidelity_product(ExtIsingParams(eps + delta), ExtIsingParams(eps - delta), N).F
        assert sus == pytest.approx(exact, abs=1e-9)

    def test_ext_ising_large_eps_limit(self):
        N, delta, c = 100_000, 1e-9, 1000.0
        eps = c * delta
        sus = susceptibility_smallsystem(ExtIsingPath(delta, c), N)
        assert sus == pytest.approx(1.0 - delta ** 2 * N / (2.0 * eps), rel=1e-4)

    def test_path_d_off_critical(self):
        N, delta, c, alpha = 1000, 1e-8, 100.0, 1.0
        sus = susceptibility_smallsystem(PathD(alpha, delta, c), N)
        want = 1.0 - delta ** 2 * N * 5.0 * alpha ** 2 / (32.0 * math.sqrt(2.0 * c * delta))
        assert sus == want

    def test_path_b_unsupported(self):
        with pytest.raises(DomainError):
            susceptibility_smallsystem(PathB(0.5, 1e-3, 0.0), 100)

    def test_ext_ising_sech_term_past_its_overflow(self):
        # |eps N| = 400: cosh(x)^2 overflows, sech^2 x is far below an ulp of tanh(x)/x
        sus = susceptibility_smallsystem(ExtIsingPath(1e-2, 2.0), 20000)
        assert sus == 1.0 - 0.5 * 1e-2 ** 2 * 20000 ** 2 * (math.tanh(400.0) / 400.0)
        assert susceptibility_smallsystem(ExtIsingPath(1e-2, 2.0), 10000) == -24.0
        # short of the overflow every value keeps its bits
        N, delta = 1000, 1e-3
        for c in np.linspace(-355.0, 355.0, 300):
            x = c * delta * N
            want = 1.0 - 0.5 * delta ** 2 * N ** 2 * (1.0 / math.cosh(x) ** 2 + math.tanh(x) / x)
            assert susceptibility_smallsystem(ExtIsingPath(delta, float(c)), N) == want


@pytest.mark.parametrize("fn", [resolve_path, lambda spec: predict_lnF(spec, 100),
                                lambda spec: susceptibility_smallsystem(spec, 100)],
                         ids=["resolve_path", "predict_lnF", "susceptibility_smallsystem"])
def test_object_that_is_not_a_path_raises(fn):
    for spec in (XYParams(1.0, 1.0), "A", None, (1.0, 1e-3, 0.5)):
        with pytest.raises(DomainError):
            fn(spec)
