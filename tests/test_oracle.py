"""Dense-diagonalization ground truth: structure, spectra, overlaps."""

import math

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
