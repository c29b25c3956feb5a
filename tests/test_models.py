"""Paths, dispersions, mode kernels, and correlation length."""

import itertools
import math
import warnings

import mpmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfid import (
    DegenerateModeError,
    DomainError,
    ExtIsingParams,
    ExtIsingPath,
    MomentumGrid,
    PathA,
    PathB,
    PathC,
    PathD,
    PoleError,
    XYParams,
    correlation_length_xy,
    fk_extising,
    fk_xy,
    gap_extising,
    gap_xy,
    kc_anisotropic,
    fidelity_product,
    resolve_path,
)
from spinfid.models import (MAX_FIELD, excitation_probability, log_abs_fk_xy, log_overlap,
                            trig_rows)
from spinfid.scaling import closed_form_rate, predict_lnF

finite_small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestPaths:
    def test_path_a_one_state_critical(self):
        p1, p2 = resolve_path(PathA(gamma=1.0, delta=0.01, c=-1.0))
        assert p1 == XYParams(1.0, 1.0)
        assert p2 == XYParams(0.98, 1.0)

    def test_path_b_substitution(self):
        p1, p2 = resolve_path(PathB(g=0.5, delta=0.1, c=0.0))
        assert p1 == XYParams(0.5, 0.1)
        assert p2 == XYParams(0.5, -0.1)

    def test_path_c_pins_g(self):
        p1, p2 = resolve_path(PathC(delta=0.05, c=2.0))
        assert p1.g == p2.g == 1.0
        assert p1.gamma == pytest.approx(0.15)
        assert p2.gamma == pytest.approx(0.05)

    def test_path_d_corner_pair(self):
        p1, p2 = resolve_path(PathD(alpha=1.0, delta=1e-8, c=1.0))
        assert p1.g == pytest.approx(1.0 + 2e-8, abs=1e-15)
        assert p1.gamma == pytest.approx(2e-8, abs=1e-22)
        assert p2.g == pytest.approx(1.0, abs=1e-15)
        assert p2.gamma == 0.0

    def test_states_put_on_a_critical_line_land_on_it(self):
        # c = +-1 puts one state on g = 1 (PathA) or on the corner (1, 0) (PathD)
        # exactly; (1 + eps) -+ delta missed it by an ulp for about a quarter of deltas
        missed = []
        for d in (s * x for x in np.logspace(-10.0, -1.0, 2000).tolist() for s in (1.0, -1.0)):
            at_plus, at_minus = (1, 0) if d > 0 else (0, 1)  # the state whose eps -+ d is 0
            corner = resolve_path(PathD(1.5, d, 1.0))[at_plus]
            if (resolve_path(PathA(0.3, d, 1.0))[at_plus].g != 1.0
                    or resolve_path(PathA(0.3, d, -1.0))[at_minus].g != 1.0
                    or (corner.g, corner.gamma) != (1.0, 0.0)):
                missed.append(d)
        assert missed == []

    def test_ext_ising_pair(self):
        p1, p2 = resolve_path(ExtIsingPath(delta=0.01, c=0.5))
        assert p1 == ExtIsingParams(0.015)
        assert p2 == ExtIsingParams(-0.005)

    def test_constraints(self):
        with pytest.raises(DomainError):
            PathA(gamma=1.0, delta=0.0, c=1.0)
        with pytest.raises(DomainError):
            PathB(g=1.0, delta=0.1, c=0.0)
        with pytest.raises(DomainError):
            PathD(alpha=1.0, delta=0.1, c=0.5)
        with pytest.raises(DomainError):
            PathD(alpha=-1.0, delta=0.1, c=2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0 * MAX_FIELD, -1e200],
                             ids=["nan", "+inf", "-inf", "past-bound", "-1e200"])
    @pytest.mark.parametrize("cls, valid", [
        (XYParams, dict(g=0.5, gamma=1.0)),
        (ExtIsingParams, dict(g=0.5)),
        (PathA, dict(gamma=1.0, delta=1e-3, c=0.5)),
        (PathB, dict(g=0.5, delta=1e-3, c=0.5)),
        (PathC, dict(delta=1e-3, c=0.5)),
        (PathD, dict(alpha=1.0, delta=1e-3, c=1.5)),
        (ExtIsingPath, dict(delta=1e-3, c=0.5)),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else "")
    def test_every_field_must_be_finite(self, cls, valid, bad):
        cls(**valid)
        for name in valid:
            with pytest.raises(DomainError, match="must be finite"):
                cls(**dict(valid, **{name: bad}))


    @pytest.mark.parametrize("cls, valid", [
        (PathA, dict(gamma=1.0, delta=1e-3, c=0.5)),
        (PathB, dict(g=0.5, delta=1e-3, c=0.5)),
        (PathC, dict(delta=1e-3, c=0.5)),
        (PathD, dict(alpha=1.0, delta=1e-3, c=1.5)),
        (ExtIsingPath, dict(delta=1e-3, c=0.5)),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else "")
    def test_fields_at_the_bound_give_finite_rates_and_predictions(self, cls, valid):
        checked = 0
        for name in valid:
            for value in (MAX_FIELD, -MAX_FIELD):
                try:
                    spec = cls(**dict(valid, **{name: value}))
                except DomainError:
                    continue  # outside the path's own domain (PathB's g, PathD's c and alpha)
                assert all(math.isfinite(x) for x in closed_form_rate(spec)[:3])
                for N in (2, 10 ** 4, MomentumGrid.MAX_N):
                    assert math.isfinite(predict_lnF(spec, N).lnF_per_site)
                checked += 1
        assert checked >= len(valid)

    def test_states_at_the_bound_give_finite_products(self):
        vals = (MAX_FIELD, -MAX_FIELD, 1.0, 0.0)
        for g1, gam1, g2, gam2 in itertools.product(vals, repeat=4):
            res = fidelity_product(XYParams(g1, gam1), XYParams(g2, gam2), 100)
            assert res.exact_zero or math.isfinite(res.lnF) and res.lnF <= 0.0
        for g1, g2 in itertools.product(vals, repeat=2):
            res = fidelity_product(ExtIsingParams(g1), ExtIsingParams(g2), 100)
            assert res.exact_zero or math.isfinite(res.lnF) and res.lnF <= 0.0
        assert fidelity_product(ExtIsingParams(MAX_FIELD), ExtIsingParams(MAX_FIELD), 100).lnF == 0.0


class TestGaps:
    def test_xy_zeros(self):
        assert gap_xy(0.0, XYParams(1.0, 0.7)) == 0.0
        assert gap_xy(math.pi, XYParams(-1.0, 0.3)) == pytest.approx(0.0, abs=1e-15)
        assert gap_xy(math.pi / 2.0, XYParams(0.0, 1.0)) == pytest.approx(2.0)

    def test_xy_closes_on_anisotropic_line(self):
        for g in (-0.9, -0.3, 0.0, 0.4, 0.99):
            kc = kc_anisotropic(g)
            assert gap_xy(kc, XYParams(g, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_extising_values(self):
        assert gap_extising(0.0, ExtIsingParams(0.0)) == pytest.approx(0.0, abs=1e-15)
        assert gap_extising(0.0, ExtIsingParams(1.0)) == pytest.approx(8.0)

    def test_extising_small_k_expansion(self):
        exact = gap_extising(0.01, ExtIsingParams(0.01))
        approx = 8.0 * 0.01 ** 2 + 2.0 * 0.01 ** 2
        assert exact == pytest.approx(approx, rel=0.01)


class TestModeKernels:
    def test_equal_params_give_unity(self):
        k = np.linspace(0.05, math.pi - 0.05, 40)
        p = XYParams(0.7, 0.4)
        assert fk_xy(k, p, p) == pytest.approx(np.ones_like(k), abs=1e-14)
        assert fk_extising(k, 0.3, 0.3) == pytest.approx(np.ones_like(k), abs=1e-14)

    def test_hand_value_at_half_pi(self):
        got = fk_xy(math.pi / 2.0, XYParams(1.0, 1.0), XYParams(0.0, 1.0))
        assert got == pytest.approx(math.sqrt(0.5 + 0.5 / math.sqrt(2.0)), abs=1e-12)
        assert got == pytest.approx(0.9238795, abs=1e-7)

    def test_path_b_vanishes_at_gap_momentum(self):
        # opposite-side anisotropies pull f to zero at arccos(g)
        g, delta, c = 0.5, 0.01, 0.3
        p1, p2 = resolve_path(PathB(g=g, delta=delta, c=c))
        kc = kc_anisotropic(g)
        assert fk_xy(kc + 1e-9, p1, p2) < 1e-5

    def test_discontinuity_triple(self):
        delta, k = 1e-3, 1e-9
        f0 = fk_xy(k, *resolve_path(PathA(1.0, delta, 0.0)))
        f1 = fk_xy(k, *resolve_path(PathA(1.0, delta, 1.0)))
        f15 = fk_xy(k, *resolve_path(PathA(1.0, delta, 1.5)))
        assert f0 < 0.01
        assert abs(f1 - 1.0 / math.sqrt(2.0)) < 0.01
        assert f15 > 0.99

    @settings(max_examples=60, deadline=None)
    @given(finite_small, finite_small, finite_small, finite_small,
           st.floats(min_value=1e-3, max_value=math.pi - 1e-3))
    def test_symmetry_and_bounds(self, g1, gam1, g2, gam2, k):
        p1 = XYParams(g1, gam1)
        p2 = XYParams(g2, gam2)
        try:
            a = fk_xy(k, p1, p2)
            b = fk_xy(k, p2, p1)
        except DegenerateModeError:
            return
        assert a == b
        assert 0.0 <= a <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
           st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
           st.floats(min_value=1e-3, max_value=math.pi - 1e-3))
    def test_extising_bounds(self, g1, g2, k):
        try:
            f = fk_extising(k, g1, g2)
        except DegenerateModeError:
            return
        assert -1.0 <= f <= 1.0

    def test_extising_small_k_limits(self):
        delta = 0.01
        for c, want in ((0.5, -1.0), (1.0, 0.0), (1.5, 1.0)):
            p1, p2 = resolve_path(ExtIsingPath(delta=delta, c=c))
            got = fk_extising(1e-7, p1.g, p2.g)
            assert got == pytest.approx(want, abs=1e-2)

    def test_extising_zero_crossing_location(self):
        delta, c = 0.01, 0.5
        p1, p2 = resolve_path(ExtIsingPath(delta=delta, c=c))
        k0 = 2.0 * delta * math.sqrt(1.0 - c * c)
        lo = fk_extising(k0 * 0.98, p1.g, p2.g)
        hi = fk_extising(k0 * 1.02, p1.g, p2.g)
        assert lo < 0.0 < hi

    def test_extising_log_kernel_is_minus_inf_exactly_where_p_vanishes(self):
        # ulps around the kernel zero, where p_k rounds to exactly 0 on some of them
        from spinfid.models import _pq_extising, log_abs_fk_extising
        rng = np.random.default_rng(4)
        hits = 0
        while hits < 5:
            g1, g2 = rng.uniform(0.05, 1.5), -rng.uniform(0.05, 1.5)
            zero = ExtIsingParams(g1).kernel_zero(ExtIsingParams(g2))
            if zero is None:
                continue
            k = zero[1] + np.arange(-64, 65) * np.spacing(zero[1])
            p, q = _pq_extising(k, g1, g2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = log_abs_fk_extising(k, g1, g2)
            nonzero = p != 0.0
            assert np.array_equal(np.isneginf(out), ~nonzero)
            assert out[nonzero] == pytest.approx(np.log(np.abs(fk_extising(k, g1, g2)[nonzero])),
                                                 rel=1e-12)
            hits += int(not nonzero.all())

    def test_extising_kernel_zero_within_a_few_ulp(self):
        # the bisected sign change of p_k for couplings of opposite sign, small and
        # large, against the zero of 1 + g1 g2 - (1 - g1 g2) cos k at 40 digits; the
        # cancelling form of p_k put it up to 7.6e6 ulp off at such draws
        from spinfid.fidelity import _bisect_root
        rng = np.random.default_rng(32)
        for _ in range(200):
            g1, g2 = 10.0 ** rng.uniform(-4, 0.3), -(10.0 ** rng.uniform(-4, 0.3))
            fn, guess = ExtIsingParams(g1).kernel_zero(ExtIsingParams(g2))
            k0 = _bisect_root(fn, guess)
            with mpmath.workdps(40):
                gg = mpmath.mpf(g1) * mpmath.mpf(g2)
                exact = 2 * mpmath.asin(mpmath.sqrt(-gg / (1 - gg)))
                assert abs(mpmath.mpf(k0) - exact) <= 4 * math.ulp(float(exact)), (g1, g2)
                assert abs(mpmath.mpf(guess) - exact) <= 4 * math.ulp(float(exact)), (g1, g2)
        assert ExtIsingParams(0.3).kernel_zero(ExtIsingParams(0.2)) is None
        assert ExtIsingParams(0.3).kernel_zero(ExtIsingParams(0.0)) is None

    def test_degenerate_mode_raises(self):
        # field pinned to the bit-exact cosine of the probe momentum
        from spinfid import MomentumGrid
        k = MomentumGrid(4).modes
        g = float(np.cos(k)[1])
        p = XYParams(g, 0.0)
        with pytest.raises(DegenerateModeError):
            fk_xy(float(k[1]), p, p)


class TestLogOverlap:
    """log_overlap and excitation_probability against 40-digit references."""

    @staticmethod
    def reference(p: float, q: float, dps: int = 40) -> tuple[float, float]:
        # ln f = (1/2) ln((S + p) / 2S) and 1 - f^2 = (S - p) / 2S, from the exact doubles
        with mpmath.workdps(dps):
            p, q = mpmath.mpf(p), mpmath.mpf(q)
            S = mpmath.sqrt(p * p + q * q)
            return float(mpmath.log((S + p) / (2 * S)) / 2), float((S - p) / (2 * S))

    @staticmethod
    def seeded(rng, n: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        sign = lambda: rng.choice([-1.0, 1.0], n)  # noqa: E731
        p_pos = 10.0 ** rng.uniform(-3.0, 3.0, n)
        p_neg = -10.0 ** rng.uniform(-3.0, 3.0, n)
        return {
            # f within 1e-16 of 1: the direct form rounds (S + p) / 2S to 1
            "p > 0, |q| << p": (p_pos, sign() * p_pos * 10.0 ** rng.uniform(-12.0, -8.5, n)),
            "p > 0": (p_pos, sign() * p_pos * 10.0 ** rng.uniform(-3.0, 3.0, n)),
            "p < 0": (p_neg, sign() * -p_neg * 10.0 ** rng.uniform(-6.0, 3.0, n)),
            "p = 0": (np.zeros(n), sign() * 10.0 ** rng.uniform(-3.0, 3.0, n)),
        }

    def test_matches_the_40_digit_reference(self, rng):
        for case, (p, q) in self.seeded(rng, 200).items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                log_f = log_overlap(p, q)
                pex = excitation_probability(log_f)
            ref = np.array([self.reference(a, b) for a, b in zip(p, q)])
            assert log_f == pytest.approx(ref[:, 0], rel=1e-14, abs=0.0), case
            assert pex == pytest.approx(ref[:, 1], rel=1e-13, abs=0.0), case

    def test_direct_form_loses_the_near_unit_case(self, rng):
        # what the cancellation-free branch is for: the direct form reads ln f = 0
        p, q = self.seeded(rng, 50)["p > 0, |q| << p"]
        s = np.hypot(p, q)
        assert np.all(0.5 * np.log((s + p) / (2.0 * s)) == 0.0)
        assert np.all(log_overlap(p, q) < 0.0)

    def test_unexcited_and_orthogonal_modes(self):
        p = np.array([3.0, 1e-100, 1e100, -3.0, -1e-100, -1e100])
        log_f = log_overlap(p, np.zeros(6))
        assert np.array_equal(log_f, [0.0, 0.0, 0.0, -np.inf, -np.inf, -np.inf])
        assert np.array_equal(excitation_probability(log_f), [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])

    def test_underflowing_q_squared_stays_finite(self):
        # q^2 / (S - p) below the smallest normal double, with q != 0: f is tiny, not 0
        p = np.array([-1.0, -1e-100, -1e100, -1.0, -3.0])
        q = np.array([1e-170, 1e-210, 1e-120, 5e-324, 2e-160])
        # 1000 digits, so that S + p = S - |p| keeps q^2 / 2|p| down to q = 5e-324
        ref = [self.reference(a, b, dps=1000)[0] for a, b in zip(p, q)]
        assert log_overlap(p, q) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_degenerate_mode_raises(self):
        with pytest.raises(DegenerateModeError):
            log_overlap(np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_any_array_shape(self, rng):
        # the scaled A/B integrands pass (panels, nodes) arrays
        p, q = rng.normal(size=(2, 7, 15))
        assert np.array_equal(log_overlap(p, q), log_overlap(p.ravel(), q.ravel()).reshape(7, 15))

    @staticmethod
    def below_the_square_root(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
        # |p|, |q| in [1e-170, 1e-150], across the edge near 1.5e-154 below which
        # p^2 + q^2 underflows and S is no longer its square root
        sign = lambda: rng.choice([-1.0, 1.0], n)  # noqa: E731
        return (sign() * 10.0 ** rng.uniform(-170.0, -150.0, n),
                sign() * 10.0 ** rng.uniform(-170.0, -150.0, n))

    def test_underflowing_squares_match_the_reference(self, rng):
        p, q = self.below_the_square_root(rng, 400)
        tiny = np.finfo(np.float64).tiny
        fallback = (q * q < tiny) | (p * p + q * q < tiny)
        assert 100 < np.count_nonzero(fallback) < 400
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_f = log_overlap(p, q)
        # 100 digits: at |q/p| down to 1e-20, S + p cancels 40 of them when p < 0
        ref = np.array([self.reference(a, b, dps=100)[0] for a, b in zip(p, q)])
        # modes scaled into [1/2, 1) by the fallback, and every p > 0 mode, to 1e-14
        strict = fallback | (p > 0.0)
        assert log_f[strict] == pytest.approx(ref[strict], rel=1e-14, abs=0.0)
        # p <= 0 on the square-root side: the factored form subtracts ln(2S) ~ -350
        # from ln(q^2 / (S - p)), each within an ulp of about 6e-14
        s, want = np.hypot(p, q)[~strict], ref[~strict]
        bound = 1e-14 * np.abs(want) + 2.0 * np.spacing(np.abs(np.log(2.0 * s)))
        assert np.all(np.abs(log_f[~strict] - want) <= bound)

    def test_a_mode_keeps_its_bits_among_others(self, rng):
        # the fallback is per mode: the same values alone, one by one, or mixed into
        # normal ones give the same bits
        tiny_p, tiny_q = self.below_the_square_root(rng, 50)
        alone = log_overlap(tiny_p, tiny_q)
        assert np.array_equal(alone, [log_overlap(tiny_p[i:i + 1], tiny_q[i:i + 1])[0]
                                      for i in range(50)])
        p, q = np.concatenate([self.seeded(rng, 100)[case] for case in ("p > 0", "p < 0")], axis=1)
        at = np.sort(rng.choice(p.size + 50, 50, replace=False))  # where they land
        before = at - np.arange(50)
        mixed = log_overlap(np.insert(p, before, tiny_p), np.insert(q, before, tiny_q))
        assert np.array_equal(mixed[at], alone)
        assert np.array_equal(np.delete(mixed, at), log_overlap(p, q))

    @pytest.mark.parametrize("fallback", [False, True], ids=["normal", "with underflow"])
    def test_out_is_written_in_place(self, rng, fallback):
        p, q = rng.normal(size=(2, 64))
        if fallback:
            p[::7], q[::7] = self.below_the_square_root(rng, p[::7].size)
        p0, q0 = p.copy(), q.copy()
        out = np.full(64, np.nan)
        got = log_overlap(p, q, out=out)
        assert got is out
        assert np.array_equal(out, log_overlap(p, q))
        assert np.array_equal(p, p0) and np.array_equal(q, q0)  # the inputs are left as they were


class TestMomentumGrid:
    def test_blocks_are_slices_of_the_modes(self):
        grid = MomentumGrid(40002)
        ks = grid.modes
        assert ks.size == grid.size == 20001
        for lo, hi in ((0, 8192), (8192, 16384), (16384, 20001), (5, 6)):
            assert np.array_equal(grid.block(lo, hi), ks[lo:hi])

    @pytest.mark.parametrize("N", [2, 10, 8194, 100_002, 1 << 21])
    def test_memo_rows_stand_in_for_the_momenta_bit_for_bit(self, N):
        # the XY kernel on the grid's momenta and on its memo rows gives the same bits,
        # and the momenta branch forms g - cos k as (g - 1) + 2 sin^2(k/2) where
        # cos k > 1/2 and as g - cos k elsewhere, each state on its own: seeded pairs,
        # pairs with both g within 1e-12 ... 1e-3 of 1, and pairs across g = 1, whose
        # modes between the two fields have p <= 0
        grid = MomentumGrid(N)
        ks, rows = grid.modes, trig_rows(grid)(0, grid.size)
        rng = np.random.default_rng([33, N])
        near = lambda: float(1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -3.0))  # noqa: E731
        gam = lambda: float(rng.uniform(-1.5, 1.5))  # noqa: E731
        pairs = ([(XYParams(*rng.uniform(-2.0, 2.0, 2)), XYParams(*rng.uniform(-2.0, 2.0, 2)))
                  for _ in range(3)]
                 + [(XYParams(near(), gam()), XYParams(near(), gam())) for _ in range(3)]
                 + [(XYParams(float(rng.uniform(0.0, 1.0)), gam()),
                     XYParams(float(rng.uniform(1.0, 2.0)), gam())) for _ in range(2)])
        ck, sk, s2 = np.cos(ks), np.sin(ks), np.sin(0.5 * ks) ** 2
        nonpositive = 0
        for p1, p2 in pairs:
            got = log_abs_fk_xy(ks, p1, p2)
            assert got.tobytes() == log_abs_fk_xy(rows, p1, p2).tobytes(), (p1, p2)
            a1, a2 = (np.where(ck > 0.5, (p.g - 1.0) + 2.0 * s2, p.g - ck) for p in (p1, p2))
            p = a1 * a2 + p1.gamma * p2.gamma * sk * sk
            q = (p2.gamma * a1 - p1.gamma * a2) * sk
            assert got.tobytes() == log_overlap(p, q).tobytes(), (p1, p2)
            nonpositive += int(np.count_nonzero(p <= 0.0))
        assert nonpositive > 0 or N == 2

    def test_size_bound(self):
        assert MomentumGrid(MomentumGrid.MAX_N).N == 2 ** 40
        for N in (MomentumGrid.MAX_N + 2, 10 ** 20):
            with pytest.raises(DomainError, match="N <= 2\\^40"):
                MomentumGrid(N)


class TestKcAndXi:
    def test_kc_examples(self):
        assert kc_anisotropic(0.5) == pytest.approx(math.pi / 3.0)
        assert kc_anisotropic(1.0) == 0.0
        assert kc_anisotropic(0.0) == pytest.approx(math.pi / 2.0)
        with pytest.raises(DomainError):
            kc_anisotropic(1.5)

    def test_xi_diverges_at_critical_point(self):
        with pytest.raises(PoleError):
            correlation_length_xy(XYParams(1.0, 0.5))

    def test_xi_near_critical_matches_gamma_over_distance(self):
        xi = correlation_length_xy(XYParams(1.001, 1.0))
        assert 500.0 <= xi <= 2000.0  # within factor 2 of gamma/|g-1| = 1000

    def test_xi_direct_value(self):
        # evaluated away from criticality; 1/ln((2 - sqrt(3))^{-1})
        xi = correlation_length_xy(XYParams(2.0, 0.0))
        assert xi == pytest.approx(1.0 / math.log(1.0 / (2.0 - math.sqrt(3.0))), abs=1e-10)
        assert xi == pytest.approx(0.7595, abs=5e-4)

    def test_xi_grows_toward_critical(self):
        xs = [correlation_length_xy(XYParams(g, 1.0)) for g in (1.5, 1.2, 1.05, 1.01)]
        assert all(b > a for a, b in zip(xs, xs[1:]))
