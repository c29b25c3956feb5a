"""Dense-diagonalization ground truth: structure, spectra, overlaps."""

import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import eigh

from spinfid import (
    DomainError,
    ExtIsingParams,
    MomentumGrid,
    XYParams,
    dense_hamiltonian,
    ed_fidelity,
    ed_ground_state,
    ed_overlap,
    fidelity_mps_closed,
    fidelity_product,
    gap_extising,
    gap_xy,
    parity_expectation,
)
from spinfid import oracle
from spinfid.oracle import DEGENERACY_TOL, N_MAX, SpinState, screen_margin, sector_blocks


def free_fermion_energy(params, N):
    k = MomentumGrid(N).modes
    if isinstance(params, XYParams):
        return -float(np.sum(gap_xy(k, params)))
    return -float(np.sum(gap_extising(k, params)))


def cyclic_permutation(N):
    dim = 1 << N
    s = np.arange(dim)
    # one-site relabeling: bit i of the new state is bit i-1 of the old
    t = ((s << 1) & (dim - 1)) | (s >> (N - 1))
    return t


def reflection_permutation(N):
    s = np.arange(1 << N)
    # site reflection n -> N-1-n: bit i of the new state is bit N-1-i of the old
    t = np.zeros_like(s)
    for i in range(N):
        t |= ((s >> (N - 1 - i)) & 1) << i
    return t


def random_params(rng, kind):
    if kind == "xy":
        return XYParams(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
    return ExtIsingParams(rng.uniform(-1.5, 1.5))


class TestStructure:
    def test_hermiticity_exact(self, rng):
        for params in (XYParams(0.9, 0.7), XYParams(-1.3, -0.4), ExtIsingParams(0.35)):
            H = dense_hamiltonian(params, 8)
            assert np.array_equal(H, H.T)

    def test_translation_invariance(self):
        # term accumulation order differs after relabeling, so matrix entries
        # agree to addition roundoff, not bit-exactly
        for params in (XYParams(1.05, 0.6), ExtIsingParams(-0.2)):
            H = dense_hamiltonian(params, 8)
            perm = cyclic_permutation(8)
            assert np.max(np.abs(H[np.ix_(perm, perm)] - H)) < 1e-12

    def test_reflection_invariance(self):
        # the real sector bases rest on H commuting with the site reflection
        for params in (XYParams(1.05, 0.6), XYParams(-0.4, -1.2), ExtIsingParams(-0.2),
                       ExtIsingParams(0.7)):
            H = dense_hamiltonian(params, 8)
            perm = reflection_permutation(8)
            assert np.max(np.abs(H[np.ix_(perm, perm)] - H)) < 1e-12

    @pytest.mark.parametrize("N", [4, 6, 8])
    @pytest.mark.parametrize("params", [XYParams(0.8, 0.5), XYParams(-1.3, -0.4), XYParams(0.3, 0.0),
                                        ExtIsingParams(0.35), ExtIsingParams(-1.2)], ids=repr)
    def test_sector_levels_are_the_full_spectrum(self, params, N):
        # 0 < m < N/2 stands for the +-k pair, so its levels count twice;
        # the stored row bounds bound every level of every block
        levels = []
        for sec, block in sector_blocks(params, N):
            assert np.array_equal(block, block.T)
            w = eigh(block, eigvals_only=True)
            assert max(abs(w[0]), abs(w[-1])) <= sec.norm_bound(params.couplings)
            levels += list(w) * (2 if sec.paired else 1)
        full = eigh(dense_hamiltonian(params, N), eigvals_only=True)
        assert len(levels) == full.size
        assert np.max(np.abs(np.sort(levels) - full)) <= 1e-11

    def test_translation_energy_invariance(self):
        H = dense_hamiltonian(XYParams(0.8, 0.5), 8)
        perm = cyclic_permutation(8)
        w0 = eigh(H, eigvals_only=True, subset_by_index=[0, 0])[0]
        w1 = eigh(H[np.ix_(perm, perm)], eigvals_only=True, subset_by_index=[0, 0])[0]
        assert w0 == pytest.approx(w1, abs=1e-12)

    def test_size_guards(self):
        with pytest.raises(DomainError):
            ed_ground_state(XYParams(1.0, 1.0), 16)
        with pytest.raises(DomainError):
            ed_ground_state(XYParams(1.0, 1.0), 7)
        with pytest.raises(DomainError):
            ed_ground_state(ExtIsingParams(0.1), 2)
        with pytest.raises(DomainError):
            dense_hamiltonian(ExtIsingParams(0.1), 2)
        assert dense_hamiltonian(XYParams(0.5, 1.0), 2).shape == (4, 4)


class TestGroundState:
    def test_blocked_matches_full_diagonalization(self, rng):
        for _ in range(3):
            params = XYParams(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            state = ed_ground_state(params, 8)
            H = dense_hamiltonian(params, 8)
            w, v = eigh(H, subset_by_index=[0, 0])
            assert state.energy == pytest.approx(w[0], abs=1e-11)
            assert abs(float(v[:, 0] @ state.amplitudes)) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("N", [4, 6, 8, 10])
    @pytest.mark.parametrize("kind", ["xy", "ext"])
    def test_blocked_matches_full_diagonalization_both_families(self, kind, N):
        rng = np.random.default_rng([N, kind == "xy"])
        for _ in range(3):
            params = random_params(rng, kind)
            state = ed_ground_state(params, N)
            H = dense_hamiltonian(params, N)
            w, v = eigh(H, subset_by_index=[0, 1])
            assert state.energy == pytest.approx(w[0], abs=1e-11)
            assert state.gap == pytest.approx(w[1] - w[0], abs=1e-11)
            assert np.linalg.norm(H @ state.amplitudes - state.energy * state.amplitudes) < 1e-10
            if not state.degenerate:
                assert abs(float(v[:, 0] @ state.amplitudes)) == pytest.approx(1.0, abs=1e-11)

    def test_momentum_relabeling_sign(self):
        # a one-site relabeling multiplies a real momentum eigenstate by
        # exp(2 pi i m / N): +1 at m = 0, -1 at m = N/2, to the last bit
        rng = np.random.default_rng(5)
        signs = set()
        for N in (4, 6, 8, 10):
            perm = cyclic_permutation(N)
            for kind in ("xy", "ext"):
                for _ in range(4):
                    params = random_params(rng, kind)
                    state = ed_ground_state(params, N)
                    if not state.degenerate:
                        assert state.momentum in (0, N // 2)
                        sign = 1.0 if state.momentum == 0 else -1.0
                        assert np.array_equal(state.amplitudes[perm], sign * state.amplitudes)
                    # the lowest state of every real sector, m = N/2 included
                    for sec, block in sector_blocks(params, N):
                        if not sec.paired:
                            amp = sec.amplitudes(eigh(block, subset_by_index=[0, 0])[1][:, 0])
                            sign = 1.0 if sec.m == 0 else -1.0
                            assert np.array_equal(amp[perm], sign * amp)
                            signs.add(sign)
        assert signs == {1.0, -1.0}

    @pytest.mark.parametrize("params", [XYParams(0.3, 0.5), XYParams(0.0, 0.0), ExtIsingParams(-0.6)],
                             ids=repr)
    def test_paired_sector_amplitudes(self, params):
        # what a ground level in a +-k pair would return: a real unit vector of
        # that level, built from the real or imaginary part of the sector state
        N = 8
        H = dense_hamiltonian(params, N)
        for sec, block in sector_blocks(params, N):
            if sec.paired:
                w, v = eigh(block, subset_by_index=[0, 0])
                amp = sec.amplitudes(v[:, 0])
                assert amp.dtype == np.float64
                assert np.linalg.norm(amp) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(H @ amp - w[0] * amp) < 1e-10

    def test_polarized_limit(self):
        state = ed_ground_state(XYParams(100.0, 1.0), 8)
        up = np.zeros(256)
        up[0] = 1.0  # all spins up in the bit-0 convention
        assert abs(float(up @ state.amplitudes)) > 0.999

    def test_free_fermion_energy_xy(self, rng):
        # the free-fermion energy is the even sector's ground level, so an odd
        # ground state lies below it
        for _ in range(4):
            params = XYParams(rng.uniform(-2, 2), rng.uniform(0.3, 1.5))
            state = ed_ground_state(params, 8)
            even_energy = free_fermion_energy(params, 8)
            if state.parity == 1:
                assert state.energy == pytest.approx(even_energy, abs=1e-9)
            else:
                assert state.energy < even_energy

    def test_free_fermion_energy_extising(self, rng):
        for _ in range(4):
            params = ExtIsingParams(rng.uniform(-0.9, 0.9))
            state = ed_ground_state(params, 8)
            assert state.energy == pytest.approx(free_fermion_energy(params, 8), abs=1e-9)

    def test_even_parity_in_studied_regimes(self):
        for params in (XYParams(1.2, 1.0), XYParams(0.5, 0.8), XYParams(1.0, 0.05),
                       ExtIsingParams(0.3), ExtIsingParams(-0.4)):
            state = ed_ground_state(params, 10)
            assert state.parity == 1
            assert parity_expectation(state) == pytest.approx(1.0, abs=1e-10)

    def test_norm_and_phase_fix(self):
        state = ed_ground_state(XYParams(0.7, 0.9), 8)
        assert state.norm == pytest.approx(1.0, abs=1e-12)
        assert state.amplitudes[np.argmax(np.abs(state.amplitudes))] > 0.0

    def test_degeneracy_flag_deep_ferromagnet(self):
        # doublet splitting ~ g^N is far below the tolerance here
        state = ed_ground_state(XYParams(0.1, 1.0), 10)
        assert state.degenerate

    def test_extising_even_sector_excitation_at_zero_coupling(self):
        # lowest even-sector excitation = one +k,-k quasiparticle pair at the
        # smallest grid momentum
        N = 8
        params = ExtIsingParams(0.0)
        H = dense_hamiltonian(params, N)
        w, v = eigh(H)
        dim = 1 << N
        s = np.arange(dim)
        pc = np.zeros(dim, dtype=np.int64)
        for b in range(N):
            pc += (s >> b) & 1
        signs = 1.0 - 2.0 * (pc % 2)
        par = np.einsum("ij,i,ij->j", v, signs, v)
        even_levels = np.sort(w[par > 0.5])
        want = 2.0 * gap_extising(math.pi / N, params)
        assert even_levels[1] - even_levels[0] == pytest.approx(want, abs=1e-9)


class TestOverlap:
    def test_identical_params(self):
        assert ed_fidelity(XYParams(0.8, 0.5), XYParams(0.8, 0.5), 8) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_sizes_error(self):
        a = ed_ground_state(XYParams(1.0, 1.0), 6)
        b = ed_ground_state(XYParams(1.0, 1.0), 8)
        with pytest.raises(DomainError):
            ed_overlap(a, b)

    def test_mixed_model_error(self):
        with pytest.raises(DomainError):
            ed_fidelity(XYParams(1.0, 1.0), ExtIsingParams(0.1), 8)

    def test_product_agreement_xy(self, rng):
        # the momentum product is the overlap of the even-sector states, so the
        # comparison needs the global ground to be even (gap-filtered as well)
        done = 0
        while done < 6:
            p1 = XYParams(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            p2 = XYParams(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            sa = ed_ground_state(p1, 10)
            sb = ed_ground_state(p2, 10)
            if min(sa.gap, sb.gap) < 1e-8 or sa.parity != 1 or sb.parity != 1:
                continue
            assert ed_overlap(sa, sb) == pytest.approx(
                fidelity_product(p1, p2, 10).F, abs=1e-10)
            done += 1

    def test_triple_agreement_extising(self, rng):
        done = 0
        while done < 6:
            g1, g2 = rng.uniform(0.05, 0.9, size=2)
            if rng.uniform() < 0.5:
                g1, g2 = -g1, -g2
            sa = ed_ground_state(ExtIsingParams(g1), 8)
            sb = ed_ground_state(ExtIsingParams(g2), 8)
            if min(sa.gap, sb.gap) < 1e-8:
                continue
            ov = ed_overlap(sa, sb)
            assert ov == pytest.approx(fidelity_product(ExtIsingParams(g1), ExtIsingParams(g2), 8).F, abs=1e-10)
            assert ov == pytest.approx(fidelity_mps_closed(g1, g2, 8).F, abs=1e-10)
            done += 1

    def test_product_agreement_at_largest_size(self):
        # criterion 1's rejection rule and tolerance at N = N_MAX = 14
        rng = np.random.default_rng(14)
        for kind in ("xy", "ext"):
            done = attempts = 0
            while done < 2:
                attempts += 1
                assert attempts < 20, "rejection sampling stuck"
                pa, pb = random_params(rng, kind), random_params(rng, kind)
                sa, sb = ed_ground_state(pa, 14), ed_ground_state(pb, 14)
                if min(sa.gap, sb.gap) <= 1e-8 or sa.parity != 1 or sb.parity != 1:
                    continue
                assert abs(fidelity_product(pa, pb, 14).F - ed_overlap(sa, sb)) <= 1e-10
                done += 1


def unscreened_ground_state(params, N):
    """ed_ground_state without its Cholesky screen: oracle.eigh on every block."""
    levels, best = [], None
    for sec, H in sector_blocks(params, N):
        if sec.paired:
            w = oracle.eigh(H, eigvals_only=True, subset_by_index=[0, 0])
            levels += [w[0], w[0]]
            vec = None
        else:
            w, V = oracle.eigh(H, subset_by_index=[0, min(1, sec.dim - 1)])
            levels += list(w)
            vec = V[:, 0]
        if best is None or w[0] < best[0]:
            best = (w[0], sec, H, vec)
    energy, sec, H, vec = best
    if vec is None:
        vec = oracle.eigh(H, subset_by_index=[0, 0])[1][:, 0]
    levels.sort()
    gap = float(levels[1] - levels[0])
    return SpinState(amplitudes=sec.amplitudes(vec), N=sec.orbits.N, energy=float(energy), gap=gap,
                     parity=sec.parity, momentum=sec.m, degenerate=gap < DEGENERACY_TOL)


def state_bits(state):
    """Every SpinState field as bytes, so -0.0 and 0.0 or two NaNs differ as bits do."""
    return {f.name: np.asarray(getattr(state, f.name)).tobytes() for f in fields(state)}


# degenerate and critical points: the isotropic ring at g = 0 and g = 1, the
# critical lines g = +-1, and the extended chain at g = 0 and g = +-1
EDGE_CASES = [XYParams(0.0, 0.0), XYParams(1.0, 0.0), XYParams(1.0, 1.0), XYParams(-1.0, 0.5),
              ExtIsingParams(0.0), ExtIsingParams(1.0), ExtIsingParams(-1.0)]


class TestScreen:
    @pytest.mark.parametrize("N", [4, 6, 8, 10, 12])
    @pytest.mark.parametrize("kind", ["xy", "ext"])
    def test_screened_equals_unscreened(self, kind, N):
        rng = np.random.default_rng([N, kind == "xy", 29])
        params = [random_params(rng, kind) for _ in range(6)]
        params += [p for p in EDGE_CASES if isinstance(p, XYParams) == (kind == "xy")]
        for p in params:
            assert state_bits(ed_ground_state(p, N)) == state_bits(unscreened_ground_state(p, N)), p

    def test_screened_equals_unscreened_at_largest_size(self):
        rng = np.random.default_rng([N_MAX, 29])
        for kind in ("xy", "ext"):
            for _ in range(4):  # two pairs
                p = random_params(rng, kind)
                assert state_bits(ed_ground_state(p, N_MAX)) == state_bits(unscreened_ground_state(p, N_MAX)), p

    def test_screen_skips_blocks(self, monkeypatch):
        # the screen is what makes the oracle cheap: most blocks never reach eigh
        dims = []
        real = oracle.eigh
        monkeypatch.setattr(oracle, "eigh", lambda a, **kw: dims.append(a.shape[0]) or real(a, **kw))
        for p in (XYParams(0.7, 0.4), ExtIsingParams(0.3)):
            dims.clear()
            ed_ground_state(p, 12)
            blocks = [sec.dim for sec, _ in sector_blocks(p, 12)]
            assert len(dims) < len(blocks) // 2 and sum(dims) < sum(blocks) // 4

    @pytest.mark.parametrize("kind", ["xy", "ext"])
    def test_margin_is_rigorous(self, kind):
        # Cholesky backward error: potrf completing on A = H - tau I means A + dA is
        # positive definite with ||dA||_2 <= e / (1 - e) ||A||_2, e = n gamma_{n+1}
        # (at least n(n+1)u), and ||A||_2 <= norm_bound + |tau|; the margin must
        # exceed that bound, here with a factor of 20 to spare
        rng = np.random.default_rng([N_MAX, kind == "xy"])
        params = [random_params(rng, kind) for _ in range(4)]
        params += [p for p in EDGE_CASES if isinstance(p, XYParams) == (kind == "xy")]
        sec, H = max(sector_blocks(params[0], N_MAX), key=lambda b: b[0].dim)
        n, u = sec.dim, 2.0 ** -53
        nu = n * (n + 1) * u / (1.0 - (n + 1) * u)
        assert n == 594 and n * (n + 1) * u <= nu < 4e-11
        w = eigh(H, eigvals_only=True)
        assert max(abs(w[0]), abs(w[-1])) <= sec.norm_bound(params[0].couplings)
        for p in params:
            bound = sec.norm_bound(p.couplings)
            for sigma in (-10.0 * bound, -bound, -1.0, 0.0, 1.0, bound, 10.0 * bound):
                margin = screen_margin(sec, p.couplings, sigma)
                tau = sigma + margin
                assert nu / (1.0 - nu) * (bound + abs(tau)) < margin / 20.0, (p, sigma)


def scipy_ground_state(params, N):
    """ed_ground_state without the screen, from scipy.linalg.eigh on every block.

    Each block is assembled as sum(c * t) of its terms and the ground vector is
    embedded with the uncached orbit formula, both written out here.
    """
    levels, best = [], None
    for sec, _ in sector_blocks(params, N):
        h = np.zeros(sec.dim * sec.dim)
        h[sec.flat] = sum(c * t for c, t in zip(params.couplings, sec.terms))
        H = h.reshape(sec.dim, sec.dim)
        if sec.paired:
            w = eigh(H, eigvals_only=True, subset_by_index=[0, 0])
            levels += [w[0], w[0]]
            vec = None
        else:
            w, V = eigh(H, subset_by_index=[0, min(1, sec.dim - 1)])
            levels += list(w)
            vec = V[:, 0]
        if best is None or w[0] < best[0]:
            best = (w[0], sec, H, vec)
    energy, sec, H, vec = best
    if vec is None:
        vec = eigh(H, subset_by_index=[0, 0])[1][:, 0]
    levels.sort()
    gap = float(levels[1] - levels[0])
    return SpinState(amplitudes=reference_amplitudes(sec, vec), N=N, energy=float(energy), gap=gap,
                     parity=sec.parity, momentum=sec.m, degenerate=gap < DEGENERACY_TOL)


def reference_amplitudes(sec, vec):
    """Sector.amplitudes with every orbit position, column and phase worked out anew."""
    orb = sec.orbits
    N = orb.N
    loc = np.full(orb.rep.size, -1)
    loc[sec.reps] = np.arange(sec.reps.size)
    col = loc[orb.rep]
    on = col >= 0
    psi = (sec.coef * vec[sec.cols]).sum(axis=1)
    full = np.zeros(orb.rep.size, dtype=complex)
    phase = np.exp(2j * np.pi * ((sec.m * orb.back[on]) % N) / N)
    full[on] = psi[col[on]] * phase / np.sqrt(orb.period[on])
    amp = full.real
    if sec.paired and np.linalg.norm(full.imag) > np.linalg.norm(amp):
        amp = full.imag
    amp = amp / np.linalg.norm(amp)
    imax = int(np.argmax(np.abs(amp)))
    return -amp if amp[imax] < 0.0 else amp


class TestDirectLapack:
    """oracle.eigh calls LAPACK syevr itself; every result keeps scipy.linalg.eigh's bits."""

    @pytest.mark.parametrize("N", [4, 6, 8, 10, 12])
    @pytest.mark.parametrize("kind", ["xy", "ext"])
    def test_eigh_is_scipy_bit_for_bit(self, kind, N):
        rng = np.random.default_rng([N, kind == "xy", 32])
        for p in [random_params(rng, kind) for _ in range(2)]:
            for sec, H in sector_blocks(p, N):
                for hi in {0, min(1, sec.dim - 1)}:
                    want = eigh(H, eigvals_only=True, subset_by_index=[0, hi])
                    got = oracle.eigh(H, eigvals_only=True, subset_by_index=[0, hi])
                    assert got.tobytes() == want.tobytes(), (p, sec.parity, sec.m, hi)
                    want_w, want_v = eigh(H, subset_by_index=[0, hi])
                    got_w, got_v = oracle.eigh(H, subset_by_index=[0, hi])
                    assert got_w.tobytes() == want_w.tobytes(), (p, sec.parity, sec.m, hi)
                    assert got_v.tobytes() == want_v.tobytes(), (p, sec.parity, sec.m, hi)

    def test_eigh_leaves_its_input_and_checks_it(self):
        H = next(sector_blocks(XYParams(0.7, 0.4), 8))[1]
        before = H.copy()
        oracle.eigh(H, subset_by_index=[0, 1])
        assert H.tobytes() == before.tobytes()
        for bad in (np.nan, np.inf):
            A = H.copy()
            A[1, 0] = A[0, 1] = bad
            with pytest.raises(ValueError):
                oracle.eigh(A, subset_by_index=[0, 0])
        with pytest.raises(ValueError):
            oracle.eigh(H, subset_by_index=[1, 0])
        with pytest.raises(ValueError):
            oracle.eigh(H, subset_by_index=[0, H.shape[0]])

    @pytest.mark.parametrize("N", [4, 6, 8, 10, 12])
    @pytest.mark.parametrize("kind", ["xy", "ext"])
    def test_ground_state_is_the_scipy_reference(self, kind, N):
        rng = np.random.default_rng([N, kind == "xy", 320])
        params = [random_params(rng, kind) for _ in range(6)]
        params += [p for p in EDGE_CASES + [XYParams(0.0, 1.0)] if isinstance(p, XYParams) == (kind == "xy")]
        for p in params:
            assert state_bits(ed_ground_state(p, N)) == state_bits(scipy_ground_state(p, N)), p

    def test_ground_state_is_the_scipy_reference_at_largest_size(self):
        rng = np.random.default_rng([N_MAX, 32])
        for kind in ("xy", "ext"):
            for _ in range(4):  # two pairs
                p = random_params(rng, kind)
                assert state_bits(ed_ground_state(p, N_MAX)) == state_bits(scipy_ground_state(p, N_MAX)), p

    @pytest.mark.parametrize("N", [6, 8, 10])
    def test_amplitudes_of_every_block(self, N):
        # paired blocks included, whose phases are not +-1; each block twice, so the
        # second call reads the embedding the first one kept
        for p in (XYParams(0.3, 0.5), ExtIsingParams(-0.6)):
            for sec, H in sector_blocks(p, N):
                vec = eigh(H, subset_by_index=[0, 0])[1][:, 0]
                want = reference_amplitudes(sec, vec).tobytes()
                assert sec.amplitudes(vec).tobytes() == want
                assert sec.amplitudes(vec).tobytes() == want

    def test_blocks_from_one_term_array(self):
        # every sector's terms view one array, combined with the couplings in one pass
        # that keeps the bits of sum(c * t) block by block
        for p in (XYParams(0.7, -0.4), XYParams(0.0, 1.0), ExtIsingParams(-0.3)):
            blocks = list(sector_blocks(p, 10))
            base = blocks[0][0].terms.base
            assert base is not None
            for sec, H in blocks:
                assert sec.terms.base is base
                h = np.zeros(sec.dim * sec.dim)
                h[sec.flat] = sum(c * t for c, t in zip(p.couplings, sec.terms))
                assert h.tobytes() == H.tobytes()
