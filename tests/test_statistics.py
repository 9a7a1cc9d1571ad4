"""Observables layer: CGF rates, cumulants, Fano factors, occupations,
relaxation times, and their cross-identities."""

import dataclasses
import math

import numpy as np
import pytest

from dicke_fcs import cli
from dicke_fcs.errors import (DegenerateDenominator, GapRegion, InvalidParams)
from dicke_fcs.jets import CountingJet
from dicke_fcs.model import ModelParams, critical_couplings
from dicke_fcs.prep_dynamics import GaussianIC
from dicke_fcs.statistics import (cgf_finite_time, cgf_rate, cumulants,
                                  fano_factors, mode_cgf_rate, occupations,
                                  relaxation_times, system_frame)

DESK = ModelParams(omega0=2.0, omega=1.0, lam=0.3, gamma_loss=1.0)
SR = ModelParams(omega0=0.5, omega=2.0, lam=0.63, gamma_loss=1.0)
FIG2 = ModelParams(omega0=0.5, omega=2.0, lam=0.0, gamma_loss=1.0)

FROZEN_FLUCT_RATES = {
    1: 0.027439024390243892,
    2: 0.06725572575847708,
    3: 0.20664359261872278,
    4: 0.9070919958880375,
    5: 5.876860395173411,
}


def test_cgf_rate_vanishes_at_zero_angle():
    for p in (DESK, SR):
        assert abs(cgf_rate(p, 0.0)) < 1e-14 * p.gamma_loss


def test_cgf_rate_jet_matches_scalar():
    jet = cgf_rate(DESK, CountingJet.variable(8))
    s = 1j * 0.01
    taylor = sum(jet.coefficients[k] * s ** k for k in range(9))
    assert abs(taylor - cgf_rate(DESK, 0.01)) < 1e-14


def test_mode_rates_sum_to_fluctuation_rate():
    for p in (DESK, SR):
        fr = system_frame(p).frame
        for chi in (0.1, 0.35):
            total = (mode_cgf_rate(fr, p.gamma_loss, 1, chi)
                     + mode_cgf_rate(fr, p.gamma_loss, 2, chi))
            # subtract the macroscopic Poisson part from the full rate
            o = occupations(p)
            macro = p.gamma_loss * o.photon_macro * (np.exp(1j * chi) - 1.0)
            assert abs(cgf_rate(p, chi) - macro - total) < 1e-14


def test_frozen_fluctuation_rates():
    cs = cumulants(DESK)
    assert cs.time is None
    for k, want in FROZEN_FLUCT_RATES.items():
        assert cs.fluctuation[k] == pytest.approx(want, rel=1e-12)
        assert cs.macroscopic[k] == 0.0


def test_first_cumulant_equals_rate_times_occupation():
    for p in (DESK, SR):
        cs = cumulants(p)
        o = occupations(p)
        assert cs.fluctuation[1] == pytest.approx(
            p.gamma_loss * o.photon_fluct, rel=1e-12)
        assert cs.macroscopic[1] == pytest.approx(
            p.gamma_loss * o.photon_macro, rel=1e-12, abs=1e-300)


def test_superradiant_occupations_frozen():
    o = occupations(SR)
    assert o.photon_fluct == pytest.approx(0.11349858264153542, rel=1e-13)
    assert o.atom_fluct == pytest.approx(0.5287209307872195, rel=1e-13)
    assert o.photon_macro == pytest.approx(0.0515601614719962, rel=1e-13)
    assert o.atom_macro == pytest.approx(0.16537540942302847, rel=1e-13)


def test_macroscopic_channel_is_poissonian():
    big = dataclasses.replace(SR, j_atoms=1e6)
    cs = cumulants(big)
    vals = [cs.macroscopic[k] for k in cs.orders]
    assert vals[0] > 1e5                      # extensive
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-12)
    # fluctuation part stays intensive
    assert cs.fluctuation[1] == pytest.approx(0.11349858264153542, rel=1e-12)


def _within_ulps(got: float, want: float, n: int) -> bool:
    return abs(got - want) <= n * math.ulp(abs(want))


def _scan_cells(tmp_path, lam_range: str, quantity: str, j: str) -> list:
    out = tmp_path / f"{quantity}-{j}.csv"
    assert cli.main(["scan", "--quantity", quantity, "--lambda-range",
                     lam_range, "--j", j, "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header)
            if name.startswith(("fluct_", "fano_"))]
    return [[row.split(",")[i] for i in keep] for row in lines[1:]]


def test_fluctuation_parts_independent_of_atom_number(tmp_path):
    # the macroscopic part grows with j; the fluctuation part must not
    # pick up its rounding error
    lam3 = critical_couplings(SR).lambda3
    ic = GaussianIC(epsilon_width=0.4, gamma1_0=0.6 - 0.3j,
                    gamma2_0=-0.2 + 0.5j)
    for factor in (1.3, 3.0):
        ref = SR.with_lam(factor * lam3)
        for t in (None, 50.0):
            want = cumulants(ref, t=t, ic=ic)
            want_fano = fano_factors(want)
            for j in (1e3, 1e6, 1e9):
                big = dataclasses.replace(ref, j_atoms=j)
                got = cumulants(big, t=t, ic=ic)
                assert got.macroscopic[1] > 1e-3 * j
                got_fano = fano_factors(got)
                for k in got.orders:
                    assert _within_ulps(got.fluctuation[k],
                                        want.fluctuation[k], 4)
                    assert _within_ulps(got_fano[k], want_fano[k], 4)
                if t is None:
                    assert got.fluctuation[1] == pytest.approx(
                        big.gamma_loss * occupations(big).photon_fluct,
                        rel=1e-13)
    # SR uses the CLI's default omega0, omega and gamma
    lam_range = f"{1.3 * lam3!r}:{3.0 * lam3!r}:5"
    for quantity in ("cumulants", "fano"):
        assert (_scan_cells(tmp_path, lam_range, quantity, "0.5")
                == _scan_cells(tmp_path, lam_range, quantity, "1e9"))


def test_occupations_dual_route():
    for p in (DESK, SR):
        fr = system_frame(p).frame
        taus = relaxation_times(fr, p.gamma_loss)
        t = 20.0 * max(taus.tau1, taus.tau2)
        closed = occupations(p)
        evolved = occupations(p, t=t, ic=GaussianIC(0.2))
        assert evolved.photon_fluct == pytest.approx(closed.photon_fluct,
                                                     abs=1e-9)
        assert evolved.atom_fluct == pytest.approx(closed.atom_fluct,
                                                   abs=1e-9)
        assert evolved.photon_macro == closed.photon_macro
        assert evolved.atom_macro == closed.atom_macro


def test_finite_time_cumulants_vanish_at_zero():
    cs = cumulants(DESK, t=0.0)
    assert cs.time == 0.0
    for k in cs.orders:
        assert cs.total(k) == 0.0


def test_accumulated_cumulants_approach_rates():
    fr = system_frame(DESK).frame
    tau2 = relaxation_times(fr, DESK.gamma_loss).tau2
    t1, t2 = 60.0 * tau2, 70.0 * tau2
    rates = cumulants(DESK)
    c1 = cumulants(DESK, t=t1)
    c2 = cumulants(DESK, t=t2)
    for k in rates.orders:
        slope = (c2.total(k) - c1.total(k)) / (t2 - t1)
        assert slope == pytest.approx(rates.total(k), rel=1e-6)


def test_truncated_generating_function():
    fr = system_frame(DESK).frame
    tau2 = relaxation_times(fr, DESK.gamma_loss).tau2
    t1, t2 = 60.0 * tau2, 70.0 * tau2
    diffs = []
    for t in (t1, t2):
        full = cgf_finite_time(DESK, 6, t)
        trunc = cgf_finite_time(DESK, 6, t, full_gaussian=False)
        delta = full.coefficients - trunc.coefficients
        assert np.abs(delta).max() > 1e-3      # routes genuinely differ
        diffs.append(delta)
    # ... by a t-independent offset once transients are gone
    assert np.abs(diffs[1] - diffs[0]).max() < 1e-8


def test_fano_factors_grow():
    f = fano_factors(cumulants(DESK))
    assert f[1] == 1.0
    assert 1.0 < f[2] < f[3] < f[4] < f[5]
    assert f[2] == pytest.approx(2.45109756097561, rel=1e-12)


def test_third_fano_grows_into_superradiant_phase():
    lam2 = critical_couplings(FIG2).lambda2
    f_a = fano_factors(cumulants(FIG2.with_lam(2.0 * lam2)))[3]
    f_b = fano_factors(cumulants(FIG2.with_lam(3.0 * lam2)))[3]
    assert f_b > f_a > 1.0


def test_fano_degenerate_at_decoupled_point():
    with pytest.raises(DegenerateDenominator):
        fano_factors(cumulants(DESK.with_lam(0.0)))


def test_relaxation_times_frozen_and_sum_rule():
    fr = system_frame(DESK).frame
    taus = relaxation_times(fr, DESK.gamma_loss)
    assert taus.tau1 == pytest.approx(1.069296691827464, rel=1e-13)
    assert taus.tau2 == pytest.approx(15.430703308172538, rel=1e-13)
    assert 1.0 / taus.tau1 + 1.0 / taus.tau2 == pytest.approx(
        DESK.gamma_loss, rel=1e-13)
    # decoupled point: stiff mode never relaxes through the cavity
    fr0 = system_frame(DESK.with_lam(0.0)).frame
    taus0 = relaxation_times(fr0, DESK.gamma_loss)
    assert taus0.tau1 == pytest.approx(1.0, rel=1e-15)
    assert taus0.tau2 == math.inf


def test_occupation_divergence_at_both_boundaries():
    crit = critical_couplings(DESK)
    near_normal = DESK.with_lam(crit.lambda1 * (1.0 - 1e-7))
    near_sr = DESK.with_lam(crit.lambda3 * (1.0 + 1e-7))
    assert occupations(near_normal).photon_fluct > 1e3
    assert occupations(near_sr).photon_fluct > 1e3


def test_gap_region_raises():
    crit = critical_couplings(DESK)
    inside = DESK.with_lam(0.5 * (crit.lambda1 + crit.lambda3))
    with pytest.raises(GapRegion):
        system_frame(inside)
    with pytest.raises(GapRegion):
        occupations(inside)
    with pytest.raises(GapRegion):
        cumulants(inside)


def test_closed_system_rejected():
    closed = dataclasses.replace(DESK, gamma_loss=0.0)
    for op in (lambda: cgf_rate(closed, 0.1),
               lambda: cumulants(closed),
               lambda: occupations(closed),
               lambda: cgf_finite_time(closed, 4, 1.0)):
        with pytest.raises(InvalidParams):
            op()
    fr = system_frame(DESK).frame
    with pytest.raises(InvalidParams):
        relaxation_times(fr, 0.0)
    with pytest.raises(InvalidParams):
        mode_cgf_rate(fr, 0.0, 1, 0.1)


def test_counting_variable_validation():
    for bad in (0.3, 0, -2, True,
                2.0 * CountingJet.variable(4),
                CountingJet.constant(1.0, 4)):
        with pytest.raises(InvalidParams):
            cgf_finite_time(DESK, bad, 1.0)
    with pytest.raises(InvalidParams):
        cgf_finite_time(DESK, 4, -1.0)
    with pytest.raises(InvalidParams):
        mode_cgf_rate(system_frame(DESK).frame, 1.0, 3, 0.1)
    # both accepted spellings agree
    a = cgf_finite_time(DESK, 4, 1.0)
    b = cgf_finite_time(DESK, CountingJet.variable(4), 1.0)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_sign_branch_invariance():
    for branch in (+1, -1):
        assert cgf_rate(SR, 0.2, sign_branch=branch) == cgf_rate(SR, 0.2)
        o = occupations(SR, sign_branch=branch)
        assert o == occupations(SR)
