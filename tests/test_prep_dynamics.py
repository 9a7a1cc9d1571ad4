"""Seven-ODE Gaussian P-dynamics: initial-condition mapping, convergence to
the closed-form steady widths, relaxation times, and jet stability."""

import math

import numpy as np
import pytest
from scipy.optimize import curve_fit

from dicke_fcs.errors import BranchAmbiguity, InvalidParams, NumericalRange
from dicke_fcs.jets import CountingJet
from dicke_fcs.model import ModelParams
from dicke_fcs.prep_dynamics import (GaussianIC, OdeCoefficients, evolve,
                                     initial_state, log_gaussian_mass,
                                     ode_coefficients, ode_rhs, propagate,
                                     steady_a_rate, steady_state)
from dicke_fcs.statistics import relaxation_times, system_frame

DESK = ModelParams(omega0=2.0, omega=1.0, lam=0.3, gamma_loss=1.0)


def _desk_setup(order=6, alpha_abs=0.0):
    frame = system_frame(DESK).frame
    coeffs = ode_coefficients(frame, DESK.gamma_loss, alpha_abs=alpha_abs,
                              order=order)
    return frame, coeffs


def test_initial_state_mapping():
    ic = GaussianIC(epsilon_width=0.25, gamma1_0=0.3 - 0.4j, gamma2_0=1.1j)
    st = initial_state(ic, order=3)
    eps = 0.25
    assert st.b1.coefficients[0] == (0.3 + 0.4j) / eps
    assert st.c1.coefficients[0] == (0.3 - 0.4j) / eps
    assert st.b2.coefficients[0] == -1.1j / eps
    assert st.c2.coefficients[0] == 1.1j / eps
    assert st.d1.coefficients[0] == st.d2.coefficients[0] == 1.0 / eps
    # all coefficients constant in s
    for field in ("a", "b1", "b2", "c1", "c2", "d1", "d2"):
        assert np.all(getattr(st, field).coefficients[1:] == 0.0)
    # normalization: unit total P-mass
    mass = log_gaussian_mass(st).coefficients
    assert abs(mass[0]) < 1e-12
    assert np.all(mass[1:] == 0.0)


def test_invalid_widths_rejected():
    for eps in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidParams):
            GaussianIC(epsilon_width=eps)


def test_coefficient_validation():
    frame = system_frame(DESK).frame
    with pytest.raises(InvalidParams):
        ode_coefficients(frame, -1.0)
    with pytest.raises(InvalidParams):
        ode_coefficients(frame, 1.0, order=-2)


def test_drive_rate_series():
    frame, coeffs = _desk_setup(order=4, alpha_abs=2.5)
    # drive_rate = G|alpha|(1 - e^s): zero constant term, -G|alpha| slope
    assert coeffs.drive_rate.coefficients[0] == 0.0
    assert coeffs.drive_rate.derivative(1) == pytest.approx(-2.5, rel=1e-15)
    assert coeffs.counting_loss.derivative(2) == pytest.approx(-1.0, rel=1e-15)


def test_steady_width_closed_form():
    frame, coeffs = _desk_setup()
    st = steady_state(coeffs)
    d1 = st.d1.coefficients[0].real
    assert d1 == pytest.approx(250.0478947899135, rel=1e-13)
    c2 = math.cos(frame.gamma_angle) ** 2
    assert d1 == pytest.approx(c2 / frame.B ** 2, rel=1e-13)
    s2 = math.sin(frame.gamma_angle) ** 2
    assert st.d2.coefficients[0].real == pytest.approx(s2 / frame.D ** 2,
                                                       rel=1e-13)


def test_steady_state_is_fixed_point():
    _, coeffs = _desk_setup()
    st = steady_state(coeffs)
    dt = ode_rhs(st, coeffs)
    for field in ("b1", "b2", "c1", "c2", "d1", "d2"):
        assert np.abs(getattr(dt, field).coefficients).max() < 1e-10
    # the constant grows linearly at the closed-form rate
    want = steady_a_rate(coeffs).coefficients
    assert np.abs(dt.a.coefficients - want).max() < 1e-12 * np.abs(want).max()


def test_evolution_reaches_steady_widths():
    # displacement coefficients relax at half the width rate, so the
    # displaced start gets a proportionally longer horizon
    frame, coeffs = _desk_setup()
    taus = relaxation_times(frame, DESK.gamma_loss)
    t20 = 20.0 * max(taus.tau1, taus.tau2)
    cases = ((GaussianIC(0.05), t20),
             (GaussianIC(0.2, gamma1_0=1.5, gamma2_0=-1j), 2.25 * t20))
    for ic, t_final in cases:
        final = evolve(ic, coeffs, t_final, frame, t_eval=[t_final])[-1]
        steady = steady_state(coeffs)
        for field in ("b1", "b2", "c1", "c2"):
            assert abs(getattr(final, field).coefficients[0]) < 1e-8
        for field in ("d1", "d2"):
            got = getattr(final, field).coefficients[0]
            want = getattr(steady, field).coefficients[0]
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))
        # trace conservation at s = 0
        assert abs(log_gaussian_mass(final).coefficients[0]) < 1e-8


def test_full_jet_converges_to_steady():
    frame, coeffs = _desk_setup()
    taus = relaxation_times(frame, DESK.gamma_loss)
    t_final = 60.0 * taus.tau2
    t_a, t_b = 0.8 * t_final, t_final
    states = evolve(GaussianIC(1.0), coeffs, t_final, frame,
                    t_eval=[t_a, t_b])
    steady = steady_state(coeffs)
    for field in ("d1", "d2"):
        got = getattr(states[-1], field).coefficients
        want = getattr(steady, field).coefficients
        assert np.abs(got - want).max() < 1e-8 * np.abs(want).max()
    # late-time slope of the full jet of a matches the closed-form rate
    slope = (states[1].a.coefficients - states[0].a.coefficients) / (t_b - t_a)
    want = steady_a_rate(coeffs).coefficients
    assert np.abs(slope - want).max() < 1e-9 * max(1.0, np.abs(want).max())


def test_centered_ic_keeps_displacements_zero():
    frame, coeffs = _desk_setup(order=2)
    states = evolve(GaussianIC(0.5), coeffs, 10.0, frame,
                    t_eval=np.linspace(0.0, 10.0, 11))
    for st in states:
        for field in ("b1", "b2", "c1", "c2"):
            assert np.all(getattr(st, field).coefficients == 0.0)


def test_width_relaxation_time_matches_tau1():
    frame, coeffs = _desk_setup(order=0)
    taus = relaxation_times(frame, DESK.gamma_loss)
    grid = np.linspace(0.0, 5.0 * taus.tau1, 60)
    states = evolve(GaussianIC(0.05), coeffs, grid[-1], frame, t_eval=grid)
    inv_width = np.array([1.0 / st.d1.coefficients[0].real for st in states])

    def model(t, w_inf, amp, tau):
        return w_inf + amp * np.exp(-t / tau)

    popt, _ = curve_fit(model, grid, inv_width,
                        p0=(inv_width[-1], inv_width[0] - inv_width[-1], 1.0))
    assert popt[2] == pytest.approx(taus.tau1, rel=0.02)


def test_jet_order_stability():
    frame = system_frame(DESK).frame
    finals = []
    for order in (4, 6):
        coeffs = ode_coefficients(frame, DESK.gamma_loss, order=order)
        finals.append(evolve(GaussianIC(0.7, gamma1_0=0.4), coeffs, 8.0,
                             frame, t_eval=[8.0])[-1])
    for field in ("a", "b1", "c1", "d1", "d2"):
        low = getattr(finals[0], field).coefficients
        high = getattr(finals[1], field).coefficients[:5]
        assert np.abs(low - high).max() < 1e-8


def test_time_zero_returns_initial_state():
    frame, coeffs = _desk_setup(order=3)
    ic = GaussianIC(0.9, gamma1_0=0.2j)
    (st,) = evolve(ic, coeffs, 0.0, frame)
    ref = initial_state(ic, order=3)
    for field in ("a", "b1", "b2", "c1", "c2", "d1", "d2"):
        assert np.array_equal(getattr(st, field).coefficients,
                              getattr(ref, field).coefficients)
    assert st.time == 0.0


def test_branch_ambiguity_on_vanishing_rate():
    zero = CountingJet.constant(0.0, 2)
    one = CountingJet.constant(1.0, 2)
    bad = OdeCoefficients(U_bar=zero, V_bar=one, W_bar=one, T_bar=one,
                          drive_rate=zero, counting_loss=zero,
                          src1=1.0, src2=1.0, b_sq=0.5, d_sq=0.5,
                          gamma_loss=1.0, order=2)
    with pytest.raises(BranchAmbiguity):
        steady_state(bad)
    with pytest.raises(BranchAmbiguity):
        steady_a_rate(bad)


def test_frame_mismatch_rejected():
    frame, coeffs = _desk_setup()
    other = system_frame(DESK.with_lam(0.5)).frame
    with pytest.raises(InvalidParams):
        evolve(GaussianIC(1.0), coeffs, 1.0, other)


def test_time_grid_validation():
    frame, coeffs = _desk_setup(order=1)
    with pytest.raises(InvalidParams):
        evolve(GaussianIC(1.0), coeffs, -1.0, frame)
    with pytest.raises(InvalidParams):
        evolve(GaussianIC(1.0), coeffs, 1.0, frame, t_eval=[0.0, 2.0])
    with pytest.raises(InvalidParams):
        evolve(GaussianIC(1.0), coeffs, 1.0, frame, t_eval=[-0.5, 1.0])


# ---------------------------------------------------------------------------
# closed-form propagator
# ---------------------------------------------------------------------------

#: the point where a sqrt(X)-jet form of the flow loses 4e-7 at order 7
STEEP = ModelParams(omega0=1.90985, omega=4.73535, lam=1.78686,
                    gamma_loss=3.88389)


def _fluct_cumulants(state, order):
    mass = log_gaussian_mass(state)
    return np.array([mass.derivative(k).real for k in range(1, order + 1)])


def test_propagate_matches_tight_ode():
    # both routes of the flow: at t = 5 the STEEP stiff mode has
    # |U0| t = 8, its soft mode 1.7
    cases = ((STEEP, GaussianIC(0.18982), 0.0602),
             (STEEP, GaussianIC(0.18982, gamma1_0=0.3 + 0.2j,
                                gamma2_0=-0.4j), 0.0602),
             (STEEP, GaussianIC(0.5, gamma1_0=0.3 + 0.2j,
                                gamma2_0=-0.4j), 5.0),
             (DESK, GaussianIC(0.7, gamma1_0=0.4, gamma2_0=0.2j), 8.0))
    order = 8
    for params, ic, t_final in cases:
        frame = system_frame(params).frame
        coeffs = ode_coefficients(frame, params.gamma_loss, order=order)
        grid = np.linspace(0.0, t_final, 4)[1:]
        closed = propagate(ic, coeffs, grid)
        ode = evolve(ic, coeffs, t_final, frame, t_eval=grid,
                     rtol=1e-13, atol=1e-16)
        for got, want in zip(closed, ode):
            assert got.time == want.time
            g, w = _fluct_cumulants(got, order), _fluct_cumulants(want, order)
            assert np.all(np.abs(g - w) <= 1e-10 * np.abs(w))


def _exact_mode_jets(mp, gamma, cool, heat, d0, t, order):
    """1/q and d = p/q of one mode as jets, from a 60-digit evaluation of
    exp(M t)."""
    with mp.workdps(60):
        G, d0, t = mp.mpf(gamma), mp.mpf(d0), mp.mpf(t)
        cool, heat = mp.mpf(cool), mp.mpf(heat)

        def flow(s):
            es = mp.exp(s)
            U = G / 2 * (cool + heat * (1 - 2 * es))
            W, S = G * heat * es, G * (1 - es) * (cool + heat)
            root = mp.sqrt(U * U + W * S)
            ch, sh = mp.cosh(t * root), mp.sinh(t * root) / root
            return ch * d0 + (U * d0 + S) * sh, ch + (W * d0 - U) * sh

        q0 = flow(0)[1]
        inv_q = [x / q0 for x in mp.taylor(lambda s: q0 / flow(s)[1], 0,
                                           order)]
        width = mp.taylor(lambda s: flow(s)[0] / flow(s)[1], 0, order)
        return (np.array([complex(x) for x in inv_q]),
                np.array([complex(x) for x in width]))


def test_propagate_matches_high_precision_flow():
    # b/b0 = 1/q and d = p/q of each mode, over both forms of the flow and
    # far past relaxation
    mp = pytest.importorskip("mpmath")
    order, eps, gamma0 = 8, 0.3, 0.5
    for params in (STEEP, DESK):
        frame = system_frame(params).frame
        coeffs = ode_coefficients(frame, params.gamma_loss, order=order)
        times = [0.05, 2.0, 20.0, 1e3]
        states = propagate(GaussianIC(eps, gamma1_0=gamma0, gamma2_0=gamma0),
                           coeffs, times)
        for cool, heat, b, d in ((frame.A ** 2, frame.B ** 2, "b1", "d1"),
                                 (frame.G ** 2, frame.D ** 2, "b2", "d2")):
            for t, st in zip(times, states):
                inv_q, width = _exact_mode_jets(
                    mp, params.gamma_loss, cool, heat, 1.0 / eps, t, order)
                for got, want in (
                        (getattr(st, b).coefficients * eps / gamma0, inv_q),
                        (getattr(st, d).coefficients, width)):
                    assert np.abs(got - want).max() <= \
                        1e-12 * np.abs(want).max()


def test_propagate_batch_matches_single_samples():
    frame, coeffs = _desk_setup(order=5)
    ic = GaussianIC(0.4, gamma1_0=0.2 - 0.1j, gamma2_0=0.3)
    grid = [0.0, 0.5, 3.0, 130.0, 400.0]
    batch = propagate(ic, coeffs, grid)
    for t, st in zip(grid, batch):
        (one,) = propagate(ic, coeffs, [t])
        for field in ("a", "b1", "b2", "c1", "c2", "d1", "d2"):
            got = getattr(st, field).coefficients
            want = getattr(one, field).coefficients
            assert np.abs(got - want).max() <= 1e-13 * max(
                1.0, np.abs(want).max())
    ref = initial_state(ic, 5)
    for field in ("a", "b1", "b2", "c1", "c2", "d1", "d2"):
        assert np.array_equal(getattr(batch[0], field).coefficients,
                              getattr(ref, field).coefficients)


def test_non_finite_and_unordered_times_rejected():
    frame, coeffs = _desk_setup(order=2)
    ic = GaussianIC(1.0)
    for bad in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(InvalidParams):
            propagate(ic, coeffs, [bad])
        with pytest.raises(InvalidParams):
            evolve(ic, coeffs, bad, frame)
    for t_eval in ([0.0, math.nan, 3.0], [0.0, 2.0, 1.0], [0.0, 3.5]):
        with pytest.raises(InvalidParams):
            evolve(ic, coeffs, 3.0, frame, t_eval=t_eval)
    with pytest.raises(InvalidParams):
        propagate(ic, coeffs, [2.0, 1.0])
    # one state per requested time, also at t_final = 0
    assert len(evolve(ic, coeffs, 0.0, frame, t_eval=[0.0, 0.0])) == 2


def test_decoupled_mode_matches_ode_then_raises_typed():
    # at lam = 0 the photon mode has no heating (W = 0): its width grows as
    # e^(Gamma t), which the ODE follows up to t ~ 100
    base = DESK.with_lam(0.0)
    frame = system_frame(base).frame
    coeffs = ode_coefficients(frame, base.gamma_loss, order=5)
    ic = GaussianIC(0.5, gamma1_0=0.3, gamma2_0=-0.2j)
    grid = [10.0, 50.0, 100.0]
    closed = propagate(ic, coeffs, grid)
    ode = evolve(ic, coeffs, 100.0, frame, t_eval=grid)
    for got, want in zip(closed, ode):
        g, w = _fluct_cumulants(got, 5), _fluct_cumulants(want, 5)
        assert np.all(np.abs(g - w) <= 1e-8 * np.abs(w))
    for t in (1e3, 1e4, 1e6):
        with pytest.raises(NumericalRange):
            propagate(ic, coeffs, [t])


def test_evolve_samples_are_step_end_points():
    # near the attractor DOP853 takes long steps, and its dense output
    # between them put this width off by 5e-6 relative at rtol 1e-10
    params = ModelParams(omega0=4.059097299721356, omega=4.998143873384699,
                         lam=4.135759077196674, gamma_loss=4.726634786783128)
    frame = system_frame(params).frame
    coeffs = ode_coefficients(frame, params.gamma_loss, order=3)
    ic = GaussianIC(0.5807200677730169)
    grid = np.linspace(0.0, 54.134113237117354, 196)
    ode = evolve(ic, coeffs, grid[-1], frame, t_eval=grid)
    for got, want in zip(ode, propagate(ic, coeffs, grid)):
        for field in ("d1", "d2"):
            g = getattr(got, field).coefficients
            w = getattr(want, field).coefficients
            assert np.abs(g - w).max() <= 1e-9 * np.abs(w).max()
