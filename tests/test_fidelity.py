"""Product fidelity, quadrature fidelity, closed form, and grid-offset machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfid import (
    DegenerateModeError,
    DomainError,
    ExtIsingParams,
    ExtIsingPath,
    NumericsError,
    PathA,
    PathB,
    PathD,
    XYParams,
    ed_fidelity,
    ed_ground_state,
    excitation_density,
    fidelity_integral,
    fidelity_mps_closed,
    fidelity_product,
    fk_extising,
    kz_survival_estimate,
    oscillation_factor,
    phi_offset,
    predict_lnF,
    resolve_path,
    scaling_A,
    scaling_A_quadrature,
    scaling_B_quadrature,
    susceptibility_smallsystem,
)
from spinfid.fidelity import QuadResult, _bisect_root, piecewise_quad

from conftest import even, every_panel_reports_error_one


class TestProduct:
    def test_identical_params_unity(self):
        res = fidelity_product(XYParams(0.8, 0.6), XYParams(0.8, 0.6), 64)
        assert res.lnF == 0.0 and res.F == 1.0 and not res.exact_zero
        res = fidelity_product(ExtIsingParams(0.2), ExtIsingParams(0.2), 64)
        assert res.lnF == 0.0 and res.F == 1.0

    def test_two_site_hand_value(self):
        res = fidelity_product(XYParams(1.0, 1.0), XYParams(0.0, 1.0), 2)
        assert res.F == pytest.approx(0.9238795, abs=1e-7)

    def test_matches_ed_oracle_small(self, rng):
        from spinfid import ed_ground_state, ed_overlap
        done = 0
        while done < 4:
            p1 = XYParams(rng.uniform(0.3, 2.0), rng.uniform(0.3, 1.5))
            p2 = XYParams(rng.uniform(0.3, 2.0), rng.uniform(0.3, 1.5))
            sa, sb = ed_ground_state(p1, 10), ed_ground_state(p2, 10)
            if min(sa.gap, sb.gap) < 1e-8 or sa.parity != 1 or sb.parity != 1:
                continue
            assert fidelity_product(p1, p2, 10).F == pytest.approx(
                ed_overlap(sa, sb), abs=1e-10)
            done += 1

    def test_symmetry_bit_for_bit(self, rng):
        for _ in range(5):
            p1 = XYParams(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            p2 = XYParams(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            a = fidelity_product(p1, p2, 1024)
            b = fidelity_product(p2, p1, 1024)
            assert a.lnF == b.lnF and a.F == b.F

    def test_deterministic_rerun(self):
        p1, p2 = resolve_path(PathA(1.0, 1e-3, 0.5))
        a = fidelity_product(p1, p2, 100000)
        b = fidelity_product(p1, p2, 100000)
        assert a.lnF == b.lnF

    def test_exact_zero_mode(self):
        # pin the transverse field to the bit-exact cosine of a grid momentum:
        # that mode's q vanishes exactly and opposite-sign anisotropies push
        # its factor to an exact zero
        from spinfid import MomentumGrid
        g = float(np.cos(MomentumGrid(4).modes)[1])
        res = fidelity_product(XYParams(g, 0.1), XYParams(g, -0.1), 4)
        assert res.exact_zero and res.F == 0.0 and res.lnF == -math.inf

    def test_resonant_mode_near_zero(self):
        # the same resonance off the representable grid: tiny but finite
        p1, p2 = resolve_path(PathB(g=0.0, delta=0.1, c=0.0))
        res = fidelity_product(p1, p2, 2)
        assert res.F < 1e-15

    def test_per_mode_retention(self):
        p1, p2 = resolve_path(PathA(1.0, 0.01, 0.0))
        res = fidelity_product(p1, p2, 16, keep_per_mode=True)
        assert res.per_mode is not None and res.per_mode.shape == (8, 2)
        assert math.fsum(np.log(res.per_mode[:, 1])) == pytest.approx(res.lnF, abs=1e-12)
        assert fidelity_product(p1, p2, 16).per_mode is None

    def test_per_mode_retention_extended_chain(self):
        res = fidelity_product(ExtIsingParams(0.05), ExtIsingParams(-0.03), 400,
                               keep_per_mode=True)
        ks, f = res.per_mode.T
        assert np.array_equal(f, fk_extising(ks, 0.05, -0.03))
        assert (np.sum(f < 0), np.sum(f > 0)) == (5, 195)  # signed factors, not |f_k|
        # 1.8e-15 on x86-64; the bound leaves room for libm differences across 200 logs
        assert math.fsum(np.log(np.abs(f))) == pytest.approx(res.lnF, abs=1e-13)

    def test_degenerate_mode_propagates(self):
        # both states gapless exactly on a representable grid momentum
        from spinfid import MomentumGrid
        g = float(np.cos(MomentumGrid(4).modes)[1])
        p = XYParams(g, 0.0)
        with pytest.raises(DegenerateModeError):
            fidelity_product(p, p, 4)

    def test_requires_even_size(self):
        with pytest.raises(DomainError):
            fidelity_product(XYParams(1.0, 1.0), XYParams(0.5, 1.0), 7)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-2, max_value=2), st.floats(min_value=-1.5, max_value=1.5),
           st.floats(min_value=-2, max_value=2), st.floats(min_value=-1.5, max_value=1.5))
    def test_bounds_property(self, g1, gam1, g2, gam2):
        try:
            res = fidelity_product(XYParams(g1, gam1), XYParams(g2, gam2), 128)
        except DegenerateModeError:
            return
        assert 0.0 <= res.F <= 1.0
        assert res.lnF <= 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=0.05), st.floats(min_value=-2, max_value=2),
           st.floats(min_value=0.2, max_value=1.0))
    def test_shift_sign_symmetry(self, delta, c, gamma):
        up = fidelity_product(*resolve_path(PathA(gamma, delta, c)), 256)
        dn = fidelity_product(*resolve_path(PathA(gamma, -delta, c)), 256)
        assert up.lnF == dn.lnF


class TestIntegral:
    def test_identical_params_zero(self):
        p = XYParams(1.1, 0.8)
        assert fidelity_integral(p, p) == 0.0

    def test_small_shift_closed_form_at_c0(self):
        # rate -|delta| A(0) = -delta/4 up to a relative O(delta/gamma^2) error
        delta = 1e-5
        p1, p2 = resolve_path(PathA(1.0, delta, 0.0))
        got = fidelity_integral(p1, p2)
        assert got == pytest.approx(-delta / 4.0, rel=5e-4)

    def test_rate_within_quadratic_error_band(self):
        gamma, delta = 1.0, 1e-3
        for c in (0.4, 1.0, 2.5):
            p1, p2 = resolve_path(PathA(gamma, delta, c))
            E = fidelity_integral(p1, p2) - (-delta * scaling_A(c) / gamma)
            assert abs(E) < 0.4 * delta ** 2 / gamma ** 3

    def test_route_agreement_random_paths(self, rng):
        # product per site vs integral plus the discretization correction
        checked = 0
        while checked < 100:
            kind = rng.integers(0, 3)
            delta = 10.0 ** rng.uniform(-3.5, -2.5)
            c = rng.uniform(-2.0, 2.0)
            if abs(abs(c) - 1.0) < 0.3:
                continue
            if kind == 0:
                spec = PathA(gamma=rng.uniform(0.4, 1.0), delta=delta, c=c)
                xi = spec.gamma / (delta * abs(1.0 - abs(c)))
            elif kind == 1:
                spec = PathB(g=rng.uniform(-0.7, 0.7), delta=delta, c=c)
                xi = 1.0 / (delta * abs(1.0 - abs(c)))
            else:
                spec = ExtIsingPath(delta=delta, c=c)
                xi = 1.0 / (delta * abs(1.0 - abs(c)))
            N = even(min(max(60.0 * xi, 2000.0), 2.0e6))
            pred = predict_lnF(spec, N)
            if pred.oscillatory and pred.prefactor < 1.0:
                continue  # keep clear of near-zero mode factors
            p1, p2 = resolve_path(spec)
            lhs = fidelity_product(p1, p2, N).lnF / N
            shift = pred.lnF_per_site - _smooth_rate(spec)
            rhs = fidelity_integral(p1, p2) + shift
            assert abs(lhs - rhs) <= 10.0 * delta ** 2 + 1e-12, (spec, N)
            checked += 1

    @pytest.mark.parametrize("integral", [
        lambda: fidelity_integral(*resolve_path(PathA(1.0, 1e-3, 0.5))),
        lambda: excitation_density(1.0, 1e-3, 0.5, 100, with_integral=True),
        lambda: scaling_A_quadrature(0.5),
        lambda: scaling_B_quadrature(0.5),
    ], ids=["fidelity_integral", "excitation_density", "scaling_A_quadrature",
            "scaling_B_quadrature"])
    def test_error_estimate_over_budget_raises(self, integral, monkeypatch):
        every_panel_reports_error_one(monkeypatch)
        with pytest.raises(NumericsError, match="error estimate"):
            integral()


# 40-digit references of the k-integrals, computed once with mpmath 1.3.0 (not a
# dependency of the package) by running, in Python:
#   from mpmath import mp, mpf, sin, cos, sqrt, log, acos, quad, pi
#   import spinfid as sf
#   mp.dps = 40
#   def lnf(p1, p2):  # ln|f_k| from the defining p_k, q_k, with S = sqrt(p^2 + q^2)
#       if isinstance(p1, sf.XYParams):  # f^2 = (S + p) / 2S, and S + p = q^2 / (S - p)
#           g1, a1, g2, a2 = map(mpf, (p1.g, p1.gamma, p2.g, p2.gamma))
#           def f(k):
#               c, s = cos(k), sin(k)
#               p = (g1 - c) * (g2 - c) + a1 * a2 * s * s
#               q = (a2 * (g1 - c) - a1 * (g2 - c)) * s
#               S = sqrt(p * p + q * q)
#               if S == 0:  # a critical state at k = 0, where f -> 1
#                   return mpf(0)
#               return log((S + p if p > 0 else q * q / (S - p)) / (2 * S)) / 2
#       else:  # |f| = |p| / S
#           g1, g2 = mpf(p1.g), mpf(p2.g)
#           def f(k):
#               p = 1 + g1 * g2 - (1 - g1 * g2) * cos(k)
#               q = (g1 - g2) * sin(k)
#               return log(abs(p) / sqrt(p * p + q * q))
#       return f
#   def splits(p1, p2):  # zeros of f_k and gap minima, with ladders 10^-12..10^-1 around them
#       anchors = []
#       if isinstance(p1, sf.XYParams):
#           g1, a1, g2, a2 = map(mpf, (p1.g, p1.gamma, p2.g, p2.gamma))
#           if a1 != a2:
#               anchors.append((a2 * g1 - a1 * g2) / (a2 - a1))
#           anchors += [g / (1 - a * a) for g, a in ((g1, a1), (g2, a2)) if abs(a) < 1]
#       else:
#           gg = mpf(p1.g) * mpf(p2.g)
#           anchors.append((1 + gg) / (1 - gg))
#       ks = [acos(x) for x in anchors if -1 <= x <= 1]
#       pts = {mpf(0), +pi}
#       for k in ks + [mpf(0), +pi]:
#           pts |= {k + s * mpf(10) ** j for j in range(-12, 0) for s in (1, -1)} | {k}
#       return sorted(x for x in pts if 0 <= x <= pi)
#   def fid_ref(p1, p2):
#       return quad(lnf(p1, p2), splits(p1, p2)) / (2 * pi)
#   def nex_ref(gamma, delta, c):
#       p1, p2 = sf.resolve_path(sf.PathA(gamma, delta, c))
#       f = lnf(p1, p2)
#       return quad(lambda k: 1 - mp.exp(2 * f(k)), splits(p1, p2)) / pi
#   print(mp.nstr(fid_ref(*sf.resolve_path(sf.PathA(1.0, 1e-3, 0.5))), 20))  # and so on
# mp.dps = 30 prints the same digits.
FIDELITY_REFERENCES = [
    (PathA(1.0, 1e-3, 0.5), -0.0002175468723579738553),
    (PathA(0.6, 2e-3, -1.8), -0.00012367801637290726097),
    (PathB(0.4, 1e-3, 0.3), -0.00047698809681310830097),
    (PathB(-0.5, 1e-3, 2.5), -0.000051360679354731814449),
    (PathD(1.5, 1e-3, 1.0), -8.3843335023458053797e-6),
    (PathD(0.7, 1e-3, 3.0), -8.7912556287864766411e-7),
    (ExtIsingPath(1e-3, 0.6), -0.00099900069261438145979),
    (ExtIsingPath(1e-4, -2.0), -0.000026784922176928346658),
]
N_EX_REFERENCES = [
    ((1.0, 1e-3, 0.5), 0.00046667683880620513143),
    ((0.7, 2e-3, -1.5), 0.00050893302478782265903),
]
# a kernel zero 2.7e-14 from its anchor when anchors were polished to 1e-13 only
UNBRACKETED_PAIR = (XYParams(1.893841099065651, -0.604796330949373),
                    XYParams(-0.7440559918626528, 1.1751332113354716))
UNBRACKETED_REFERENCE = -0.96713011126013749851


class TestHighPrecision:
    @pytest.mark.parametrize("spec, want", FIDELITY_REFERENCES, ids=repr)
    def test_fidelity_integral(self, spec, want):
        assert abs(fidelity_integral(*resolve_path(spec)) - want) < 1e-13

    @pytest.mark.parametrize("args, want", N_EX_REFERENCES)
    def test_quench_k_integral(self, args, want):
        assert abs(excitation_density(*args, 100).n_ex_integral - want) < 1e-13

    def test_kernel_zero_next_to_its_anchor(self):
        got = fidelity_integral(*UNBRACKETED_PAIR)
        assert math.isfinite(got) and got <= 0.0
        assert abs(got - UNBRACKETED_REFERENCE) < 1e-13

    def test_anchor_within_one_ulp_of_the_sign_change(self):
        (g1, a1), (g2, a2) = ((p.g, p.gamma) for p in UNBRACKETED_PAIR)
        x = (a2 * g1 - a1 * g2) / (a2 - a1)
        fn = lambda k: a2 * (g1 - math.cos(k)) - a1 * (g2 - math.cos(k))  # noqa: E731
        k0 = _bisect_root(fn, math.acos(x))
        below, above = fn(math.nextafter(k0, 0.0)), fn(math.nextafter(k0, 4.0))
        assert fn(k0) == 0.0 or below * fn(k0) <= 0.0 or fn(k0) * above <= 0.0


class TestDriver:
    def test_diagnostics_record(self):
        res = piecewise_quad(lambda x, lo, hi: x * x, [0.0, 0.5, 1.0], 1e-12)
        assert res == QuadResult(value=res.value, error=res.error, panels=2, nodes=30, rounds=0)
        assert abs(res.value - 1.0 / 3.0) < 1e-15 and res.error <= 1e-12

    def test_infinite_tail(self):
        # int_0^inf dx / (1 + x^2) = pi / 2, the [8, inf) piece in t = 8 / x
        res = piecewise_quad(lambda x, lo, hi: 1.0 / (1.0 + x * x), [0.0, 1.0, 8.0, np.inf], 1e-13)
        assert abs(res.value - math.pi / 2.0) < 1e-14

    def test_refines_a_log_singularity(self):
        res = piecewise_quad(lambda x, lo, hi: np.log(x), [0.0, 1.0], 1e-11)
        assert abs(res.value + 1.0) < 1e-12
        assert res.rounds > 0 and res.panels > 1 and res.nodes == 15 * (2 * res.panels - 1)

    def test_cap_message_quotes_the_cost(self, monkeypatch):
        every_panel_reports_error_one(monkeypatch)
        with pytest.raises(NumericsError, match=r"panel cap: \d+ rounds, \d+ panels, "
                                                r"\d+ integrand nodes; worst panels: \[\("):
            fidelity_integral(*resolve_path(PathA(1.0, 1e-3, 0.5)))


def _smooth_rate(spec):
    if isinstance(spec, PathA):
        return -abs(spec.delta) * scaling_A(spec.c) / spec.gamma
    if isinstance(spec, PathB):
        return -2.0 * abs(spec.delta) * scaling_A(spec.c)
    from spinfid import scaling_A_mps
    return -abs(spec.delta) * scaling_A_mps(spec.c)


class TestClosedForm:
    def test_identical_couplings(self):
        assert fidelity_mps_closed(0.3, 0.3, 100).F == 1.0
        assert fidelity_mps_closed(-0.4, -0.4, 50).F == 1.0

    def test_matches_product_grid(self, rng):
        for N in (100, 400, 1200, 2000):
            for _ in range(5):
                g1, g2 = rng.uniform(1e-3, 0.8, size=2)
                if rng.uniform() < 0.5:
                    g1, g2 = -g1, -g2
                closed = fidelity_mps_closed(g1, g2, N)
                prod = fidelity_product(ExtIsingParams(g1), ExtIsingParams(g2), N)
                assert closed.F == pytest.approx(prod.F, abs=1e-10)

    def test_large_N_stays_finite(self):
        res = fidelity_mps_closed(0.011, 0.009, 10_000_000)
        assert math.isfinite(res.lnF) and res.lnF < 0.0

    def test_hyperbolic_approximation_regime(self):
        # cosh-based small-coupling form; relative error O(delta) in lnF
        delta, c, N = 1e-3, 2.0, 5000
        eps = c * delta
        g1, g2 = eps + delta, eps - delta
        got = fidelity_mps_closed(g1, g2, N).lnF
        hyp = (math.log(abs(math.cosh(N * math.sqrt(eps * eps - delta * delta))))
               - 0.5 * (math.log(math.cosh(N * (eps + delta)))
                        + math.log(math.cosh(N * (eps - delta)))))
        assert got == pytest.approx(hyp, rel=20.0 * delta)

    def test_rejects_mixed_signs(self):
        with pytest.raises(DomainError):
            fidelity_mps_closed(0.1, -0.1, 100)


class TestGridOffset:
    def test_phi_examples(self):
        assert phi_offset(math.pi * 1002.0 / 4000.0, 2000) == pytest.approx(1.0, abs=1e-9)
        assert phi_offset(math.pi / 4.0, 2000) == pytest.approx(0.0, abs=1e-9)
        assert phi_offset(math.pi * 1001.0 / 4000.0, 2000) == pytest.approx(0.5, abs=1e-9)

    def test_phi_range(self, rng):
        for _ in range(200):
            phi = phi_offset(rng.uniform(0.0, math.pi), int(2 * rng.integers(1, 5000)))
            assert -1.0 < phi <= 1.0

    def test_oscillation_examples(self):
        # phi = 1: a mode sits exactly on kc and kills the product
        kc = math.pi * 1002.0 / 4000.0
        assert oscillation_factor(kc, 2000) == pytest.approx(0.0, abs=1e-8)
        assert oscillation_factor(math.pi / 4.0, 2000) == pytest.approx(2.0, abs=1e-9)
        assert oscillation_factor(math.pi * 1001.0 / 4000.0, 2000) == pytest.approx(
            math.sqrt(2.0), abs=1e-9)

    def test_oscillation_matches_direct_cosine(self, rng):
        for _ in range(50):
            kc = rng.uniform(0.0, math.pi)
            N = int(2 * rng.integers(2, 2000))
            assert oscillation_factor(kc, N) == pytest.approx(
                2.0 * abs(math.cos(kc * N / 2.0)), abs=1e-7)


def test_log_shift_saturates_to_half_ln2():
    # grid sum minus integral of ln(alpha k) over M cells below the cutoff
    for N in (100_000, 1_000_000):
        alpha = 3.7
        M = N // 50
        kcut = 2.0 * M * math.pi / N
        s = math.fsum(math.log(alpha * (2 * n + 1) * math.pi / N) for n in range(M))
        integral = (N / (2.0 * math.pi)) * kcut * (math.log(alpha * kcut) - 1.0)
        assert s - integral == pytest.approx(math.log(2.0) / 2.0, abs=1e-4)


# every entry point taking a chain length, as a function of that length
SIZED = {
    "fidelity_product": lambda N: fidelity_product(XYParams(1.1, 1.0), XYParams(0.9, 1.0), N),
    "fidelity_mps_closed": lambda N: fidelity_mps_closed(0.1, 0.2, N),
    "predict_lnF": lambda N: predict_lnF(PathA(1.0, 1e-3, 0.5), N),
    "susceptibility_smallsystem": lambda N: susceptibility_smallsystem(PathA(1.0, 1e-3, 0.5), N),
    "phi_offset": lambda N: phi_offset(1.0, N),
    "excitation_density": lambda N: excitation_density(1.0, 1e-3, 0.5, N),
    "ed_ground_state": lambda N: ed_ground_state(XYParams(1.0, 1.0), N),
    "kz_survival_estimate": lambda N: kz_survival_estimate(N, 100.0),
}


@pytest.mark.parametrize("name", sorted(SIZED))
def test_chain_length_must_be_a_whole_number(name):
    for N in (10.9, 4.7, 10.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            SIZED[name](N)
    want = repr(SIZED[name](10))
    for N in (10.0, np.int64(10), np.float64(10.0)):
        assert repr(SIZED[name](N)) == want


@pytest.mark.parametrize("fn", [lambda p, q: fidelity_product(p, q, 10),
                                lambda p, q: fidelity_integral(p, q),
                                lambda p, q: ed_fidelity(p, q, 8)],
                         ids=["fidelity_product", "fidelity_integral", "ed_fidelity"])
def test_mixed_model_kinds_raise(fn):
    xy, ext = XYParams(1.0, 1.0), ExtIsingParams(0.1)
    for p, q in ((xy, ext), (ext, xy)):
        with pytest.raises(DomainError):
            fn(p, q)
