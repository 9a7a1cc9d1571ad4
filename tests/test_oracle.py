"""Brute-force Liouvillian oracles: construction invariants, thermal steady
states, tilted-eigenvalue vs closed-form rates, and finite differencing."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dicke_fcs.errors import (CutoffTooSmall, EigenvalueCrossing,
                              InvalidParams)
from dicke_fcs.jets import CountingJet
from dicke_fcs.model import ModelParams, critical_couplings
from dicke_fcs.oracle import (build_dicke_liouvillian, build_rwa_liouvillian,
                              cumulant_rates_fd, dominant_eigenvalue,
                              finite_difference_weights, steady_state_vector,
                              trace_vector)
from dicke_fcs.statistics import mode_cgf_rate, system_frame

DESK = ModelParams(omega0=2.0, omega=1.0, lam=0.3, gamma_loss=1.0)


@pytest.fixture(scope="module")
def desk_frame():
    return system_frame(DESK).frame


def _density_matrix(lv, vec):
    return vec.reshape(lv.side, lv.side)


def _mean_photons(lv, vec):
    n_ph = lv.cutoffs[-1] + 1
    nvals = np.tile(np.arange(n_ph, dtype=float), lv.side // n_ph)
    pops = vec[:: lv.side + 1].real
    return float(pops @ nvals)


def test_finite_difference_weights_known_stencils():
    w1 = finite_difference_weights(1, [-2, -1, 0, 1, 2])
    assert np.allclose(w1, [1 / 12, -2 / 3, 0, 2 / 3, -1 / 12], atol=1e-14)
    w2 = finite_difference_weights(2, [-2, -1, 0, 1, 2])
    assert np.allclose(w2, [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12],
                       atol=1e-14)
    assert np.allclose(finite_difference_weights(1, [0, 1]), [-1, 1],
                       atol=1e-15)
    assert np.allclose(finite_difference_weights(2, [-1, 0, 1]), [1, -2, 1],
                       atol=1e-14)
    with pytest.raises(InvalidParams):
        finite_difference_weights(3, [-1, 0, 1])


def test_rwa_steady_state_is_thermal(desk_frame):
    fr = desk_frame
    lv = build_rwa_liouvillian(fr, 1, 1.0, 0.0, cutoff=30)
    vec = steady_state_vector(lv)
    rho = _density_matrix(lv, vec)
    nbar = fr.B ** 2 / (fr.A ** 2 - fr.B ** 2)
    # geometric populations with ratio nbar/(1+nbar)
    pops = np.diag(rho).real
    ratio = nbar / (1.0 + nbar)
    want = (1.0 - ratio) * ratio ** np.arange(31)
    assert np.abs(pops - want).max() < 1e-12
    assert np.abs(rho - np.diag(pops)).max() < 1e-12
    assert _mean_photons(lv, vec) == pytest.approx(nbar, abs=1e-12)


def test_trace_vector_annihilates_untilted_generator(desk_frame):
    lv = build_rwa_liouvillian(desk_frame, 2, 1.0, 0.0, cutoff=12)
    tr = trace_vector(lv.side)
    assert np.abs(tr @ lv.matrix).max() < 1e-12
    dl = build_dicke_liouvillian(DESK, photon_cutoff=8)
    assert np.abs(trace_vector(dl.side) @ dl.matrix).max() < 1e-12
    # counting breaks trace preservation
    tilted = build_rwa_liouvillian(desk_frame, 2, 1.0, 0.3, cutoff=12)
    assert np.abs(tr @ tilted.matrix).max() > 1e-3


def test_dominant_eigenvalue_vanishes_without_counting(desk_frame):
    lv = build_rwa_liouvillian(desk_frame, 1, 1.0, 0.0, cutoff=20)
    assert abs(dominant_eigenvalue(lv)) < 1e-10
    dl = build_dicke_liouvillian(DESK, photon_cutoff=10)
    assert abs(dominant_eigenvalue(dl)) < 1e-10


def test_tilted_eigenvalue_matches_mode_rate(desk_frame):
    fr = desk_frame
    for mode, cutoff in ((1, 40), (2, 16)):
        for chi in (0.1, 0.3):
            lv = build_rwa_liouvillian(fr, mode, 1.0, chi, cutoff)
            eig = dominant_eigenvalue(lv)
            want = mode_cgf_rate(fr, 1.0, mode, chi)
            assert abs(eig - want) < 1e-10


def test_tilted_generator_matches_fresh_build(desk_frame):
    pairs = [(build_rwa_liouvillian(desk_frame, mode, 1.0, 0.3, cutoff=12),
              lambda c, mode=mode: build_rwa_liouvillian(desk_frame, mode,
                                                         1.0, c, cutoff=12))
             for mode in (1, 2)]
    pairs.append((build_dicke_liouvillian(DESK, photon_cutoff=6, chi=0.3),
                   lambda c: build_dicke_liouvillian(DESK, 6, c)))
    for lv, build in pairs:
        assert abs(lv.matrix - build(0.3).matrix).max() == 0.0
        for chi in (0.0, -0.7, 1.9):
            assert abs(lv.at(chi) - build(chi).matrix).max() < 1e-14


def test_fd_cumulants_match_jet_derivatives(desk_frame):
    fr = desk_frame
    angles = []

    def build(c):
        angles.append(c)
        return build_rwa_liouvillian(fr, 2, 1.0, c, cutoff=16)

    rates = cumulant_rates_fd(build, orders=(1, 2, 3))
    assert angles == [0.0]                 # one generator serves all points
    jet = mode_cgf_rate(fr, 1.0, 2, CountingJet.variable(4))
    for k in (1, 2, 3):
        assert rates[k] == pytest.approx(jet.derivative(k).real, rel=1e-5)


def test_decoupled_soft_mode_is_dark():
    fr = system_frame(DESK.with_lam(0.0)).frame
    lv = build_rwa_liouvillian(fr, 1, 1.0, 0.0, cutoff=6)
    vec = steady_state_vector(lv)
    pops = vec[:: lv.side + 1].real
    assert pops[0] == pytest.approx(1.0, abs=1e-12)     # vacuum
    tilted = build_rwa_liouvillian(fr, 1, 1.0, 0.4, cutoff=6)
    assert abs(dominant_eigenvalue(tilted)) < 1e-12     # nothing to count
    # fully decoupled stiff channel has no steady state at all
    with pytest.raises(InvalidParams):
        build_rwa_liouvillian(fr, 2, 1.0, 0.0, cutoff=6)


def test_evolved_state_stays_physical(desk_frame):
    lv = build_rwa_liouvillian(desk_frame, 1, 1.0, 0.0, cutoff=12)
    rho0 = np.zeros((lv.side, lv.side), dtype=complex)
    rho0[2, 2] = 1.0                                    # two-quanta Fock state
    vec_t = spla.expm_multiply(lv.matrix * 5.0, rho0.reshape(-1))
    rho_t = _density_matrix(lv, vec_t)
    assert abs(np.trace(rho_t) - 1.0) < 1e-10
    assert np.abs(rho_t - rho_t.conj().T).max() < 1e-10
    evals = np.linalg.eigvalsh(rho_t)
    assert evals.min() > -1e-10


def test_cutoff_convergence(desk_frame):
    eigs_by_cutoff = [
        dominant_eigenvalue(build_rwa_liouvillian(desk_frame, 2, 1.0, 0.3, c))
        for c in (12, 24)
    ]
    assert abs(eigs_by_cutoff[1] - eigs_by_cutoff[0]) < 1e-8


def test_cutoff_too_small_raised():
    # close to the soft-mode closing, where thermal occupations blow up
    near = DESK.with_lam(critical_couplings(DESK).lambda1 * (1.0 - 1e-4))
    fr = system_frame(near).frame
    with pytest.raises(CutoffTooSmall):
        build_rwa_liouvillian(fr, 1, 1.0, 0.0, cutoff=16)
    with pytest.raises(CutoffTooSmall):
        build_dicke_liouvillian(near, photon_cutoff=8)


def test_gap_region_has_no_cutoff_estimate():
    crit = critical_couplings(DESK)
    inside = DESK.with_lam(0.5 * (crit.lambda1 + crit.lambda3))
    lv = build_dicke_liouvillian(inside, photon_cutoff=4)
    assert lv.side == 2 * 5                # estimate unavailable: built as asked


def test_validation_errors(desk_frame):
    with pytest.raises(InvalidParams):
        build_rwa_liouvillian(desk_frame, 3, 1.0, 0.0, cutoff=10)
    with pytest.raises(InvalidParams):
        build_rwa_liouvillian(desk_frame, 1, 0.0, 0.0, cutoff=10)
    with pytest.raises(InvalidParams):
        build_rwa_liouvillian(desk_frame, 1, 1.0, 0.0, cutoff=1)
    for bad_j in (0.3, 10.0):
        with pytest.raises(InvalidParams):
            build_dicke_liouvillian(dataclasses.replace(DESK, j_atoms=bad_j),
                                    photon_cutoff=8)
    for bad_cut in (0, 65):
        with pytest.raises(InvalidParams):
            build_dicke_liouvillian(DESK, photon_cutoff=bad_cut)
    lv = build_rwa_liouvillian(desk_frame, 1, 1.0, 0.2, cutoff=10)
    with pytest.raises(InvalidParams):
        steady_state_vector(lv)
    build = lambda c: build_rwa_liouvillian(desk_frame, 2, 1.0, c, cutoff=10)
    with pytest.raises(InvalidParams):
        cumulant_rates_fd(build, orders=(5,))
    with pytest.raises(InvalidParams):
        cumulant_rates_fd(build, step=0.0)


def test_homotopy_overlap_guard(desk_frame):
    lv = build_rwa_liouvillian(desk_frame, 2, 1.0, 0.2, cutoff=10)
    with pytest.raises(EigenvalueCrossing):
        dominant_eigenvalue(lv, overlap_min=1.01)


def test_small_j_emission_rate_plausible():
    lv = build_dicke_liouvillian(DESK, photon_cutoff=12)
    vec = steady_state_vector(lv)
    rate = DESK.gamma_loss * _mean_photons(lv, vec)
    assert 0.0 < rate < 2.0 * 0.027439024390243892
