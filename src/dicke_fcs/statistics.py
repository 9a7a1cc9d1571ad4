"""Steady-state observables and photon counting statistics.

This module ties the layers together: mean field -> effective quadratic
form -> Bogoliubov frame -> counting dynamics.  All quantities are reported
per mode in the thermodynamic limit; macroscopic (order-parameter) parts
scale with the atom number through ``2 * j_atoms`` and are kept separate
from the fluctuation parts throughout, because the two have very different
character (the macroscopic channel is exactly Poissonian).

Counting series are jets in s = i*chi; cumulant k is k! times the k-th
series coefficient.  Asymptotic cumulants are rates (per unit time),
finite-time cumulants are totals accumulated up to t.

The generating function is a macroscopic plus a fluctuation part, each
formed once from its own formula, so the fluctuation part does not depend
on ``j_atoms``.  Macroscopic: rate Gamma*|alpha|*(e^s - 1) with |alpha| the
extensive photon number; at finite t -t*drive_rate.  Fluctuation: rate
(Gamma/2)*(term1 + term2), one square-root term per diagonal mode; at
finite t the Gaussian log-mass (or -a alone) minus its constant term.

All operations here count emitted photons, so a strictly positive loss rate
is required; the closed-system limit gamma_loss = 0 is rejected even where
the bare formulas would stay finite, since without the bath there is no
steady state to report.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .bogoliubov import (BogoliubovFrame, frame_coefficients, DEFAULT_EPS_TOL)
from .errors import DegenerateDenominator, GapRegion, InvalidParams
from .jets import CountingJet
from .model import (EffectiveQuadratic, MeanField, ModelParams, Phase,
                    classify_phase, effective_parameters, solve_displacements)
from .prep_dynamics import (GaussianIC, PState, evolve, log_gaussian_mass,
                            ode_coefficients)

__all__ = [
    "SystemFrame",
    "CumulantSet",
    "Occupations",
    "RelaxationTimes",
    "system_frame",
    "cgf_rate",
    "mode_cgf_rate",
    "cgf_finite_time",
    "cumulants",
    "fano_factors",
    "occupations",
    "occupations_from_state",
    "relaxation_times",
]


@dataclass(frozen=True)
class SystemFrame:
    """Everything downstream code needs about one parameter point."""

    phase: Phase
    mean_field: MeanField
    quadratic: EffectiveQuadratic
    frame: BogoliubovFrame


@dataclass(frozen=True)
class CumulantSet:
    """Counting cumulants split into macroscopic and fluctuation parts.

    ``time`` is None for asymptotic rates, otherwise the accumulation time.
    """

    macroscopic: dict
    fluctuation: dict
    orders: tuple
    time: float | None = None

    def total(self, k: int) -> float:
        return self.macroscopic[k] + self.fluctuation[k]


@dataclass(frozen=True)
class Occupations:
    photon_fluct: float
    atom_fluct: float
    photon_macro: float
    atom_macro: float


@dataclass(frozen=True)
class RelaxationTimes:
    tau1: float
    tau2: float


def _require_counting(params: ModelParams):
    if params.gamma_loss <= 0:
        raise InvalidParams(
            "counting statistics require gamma_loss > 0 (no emission channel)")


def system_frame(params: ModelParams, sign_branch: int = +1,
                 eps_tol: float = DEFAULT_EPS_TOL) -> SystemFrame:
    """Classify the phase and build the diagonalizing frame.

    Raises GapRegion inside [lambda1, lambda3] where neither quadratic form
    is stable, and propagates CriticalSingularity from the frame
    construction when the soft mode closes below ``eps_tol``.
    """
    phase = classify_phase(params)
    if phase is Phase.GAP:
        raise GapRegion(
            f"lam={params.lam:g} lies in the undefined window between the "
            "normal and superradiant stability boundaries")
    mf = solve_displacements(params, sign_branch=sign_branch)
    eq = effective_parameters(params, mf)
    frame = frame_coefficients(eq, eps_tol=eps_tol)
    return SystemFrame(phase=phase, mean_field=mf, quadratic=eq, frame=frame)


def _alpha_extensive(params: ModelParams, mf: MeanField) -> float:
    return abs(mf.sqrt_alpha_intensive) ** 2 * 2.0 * params.j_atoms


def _sqrt(x):
    return x.sqrt() if isinstance(x, CountingJet) else cmath.sqrt(x)


def _expm1(s):
    """exp(s) - 1 without cancellation for small scalar s (jets are exact)."""
    if isinstance(s, CountingJet):
        return s.exp() - 1.0
    z = complex(s)
    re = math.expm1(z.real) * math.cos(z.imag) \
        - 2.0 * math.sin(0.5 * z.imag) ** 2
    return complex(re, math.exp(z.real) * math.sin(z.imag))


def _mode_term(cool: float, heat: float, one_minus_e2s):
    """(cool - heat) - sqrt(cool^2 + heat^2 - 2 cool heat (2 e^{2s} - 1)).

    Works on scalars and jets; the caller supplies 1 - e^{2s} precomputed
    without cancellation.  Evaluated in the equivalent conjugate form
    -y / (x + sqrt(x^2 + y)) with x = cool - heat >= 0 and
    y = 4 cool heat (1 - e^{2s}), which vanishes identically at s = 0 and
    stays relatively accurate for small counting angles, where the direct
    form subtracts two near-equal O(1) quantities.  A channel with
    cool = heat = 0 never emits and contributes zero.
    """
    if cool == 0.0 and heat == 0.0:
        return 0.0 * one_minus_e2s
    x = cool - heat
    y = 4.0 * cool * heat * one_minus_e2s
    return -y / (x + _sqrt(x * x + y))


def _rate_parts(params: ModelParams, sf: SystemFrame, s) -> tuple:
    """Macroscopic and fluctuation parts of the asymptotic CGF rate as
    functions of s = i*chi (scalars or jets)."""
    e_s_m1 = _expm1(s)
    one_minus_e2s = -(2.0 * e_s_m1 + e_s_m1 * e_s_m1)
    term1 = _mode_term(sf.frame.A ** 2, sf.frame.B ** 2, one_minus_e2s)
    term2 = _mode_term(sf.frame.G ** 2, sf.frame.D ** 2, one_minus_e2s)
    alpha_ext = _alpha_extensive(params, sf.mean_field)
    return (params.gamma_loss * alpha_ext * e_s_m1,
            0.5 * params.gamma_loss * (term1 + term2))


def mode_cgf_rate(frame: BogoliubovFrame, gamma_loss: float, mode: int, chi):
    """Fluctuation CGF rate of a single diagonal mode.

    This is the square-root term of the full rate belonging to ``mode`` (1
    soft, 2 stiff); it equals the dominant eigenvalue of the corresponding
    single-mode counting master equation and is what the brute-force oracle
    checks against.  ``chi`` as in :func:`cgf_rate`.
    """
    if mode not in (1, 2):
        raise InvalidParams(f"mode must be 1 or 2, got {mode}")
    if gamma_loss <= 0:
        raise InvalidParams(f"gamma_loss must be positive, got {gamma_loss}")
    if mode == 1:
        cool, heat = frame.A ** 2, frame.B ** 2
    else:
        cool, heat = frame.G ** 2, frame.D ** 2
    s = chi if isinstance(chi, CountingJet) else 1j * complex(chi)
    e_s_m1 = _expm1(s)
    one_minus_e2s = -(2.0 * e_s_m1 + e_s_m1 * e_s_m1)
    return 0.5 * gamma_loss * _mode_term(cool, heat, one_minus_e2s)


def cgf_rate(params: ModelParams, chi, sign_branch: int = +1):
    """Long-time cumulant generating rate lim_{t->inf} F(chi, t)/t.

    ``chi`` may be a real or complex counting angle (returns a complex
    number) or a CountingJet in the variable s = i*chi (returns a jet, whose
    k-th derivative is the k-th asymptotic cumulant rate).
    """
    _require_counting(params)
    s = chi if isinstance(chi, CountingJet) else 1j * complex(chi)
    macro, fluct = _rate_parts(params, system_frame(params, sign_branch), s)
    return macro + fluct


def _as_counting_variable(chi, name: str) -> CountingJet:
    if isinstance(chi, CountingJet):
        coeff = chi.coefficients
        ok = (chi.order >= 1 and coeff[0] == 0 and coeff[1] == 1
              and not coeff[2:].any())
        if not ok:
            raise InvalidParams(
                f"{name} must be the bare counting variable "
                "CountingJet.variable(order) or an integer order")
        return chi
    if isinstance(chi, int) and not isinstance(chi, bool):
        if chi < 1:
            raise InvalidParams(f"{name} order must be >= 1, got {chi}")
        return CountingJet.variable(chi)
    raise InvalidParams(
        f"{name} must be a CountingJet or an integer jet order")


def _finite_time_parts(params: ModelParams, sf: SystemFrame,
                       ic: GaussianIC | None, times, order: int,
                       full_gaussian: bool = True):
    """Yield (state, macroscopic, fluctuation) parts of F(s, t), as jets of
    ``order``, at each of ``times`` along one trajectory from ``ic``."""
    if ic is None:
        ic = GaussianIC(epsilon_width=1.0)
    alpha_ext = _alpha_extensive(params, sf.mean_field)
    coeffs = ode_coefficients(sf.frame, params.gamma_loss,
                              alpha_abs=alpha_ext, order=order)
    for state in evolve(ic, coeffs, times[-1], sf.frame, t_eval=times):
        fluct = log_gaussian_mass(state) if full_gaussian else -state.a
        yield (state, -state.time * coeffs.drive_rate,
               fluct - fluct.coefficients[0])


def cgf_finite_time(params: ModelParams, chi, t: float,
                    ic: GaussianIC | None = None, full_gaussian: bool = True,
                    sign_branch: int = +1) -> CountingJet:
    """Finite-time cumulant generating function F(chi, t) as a jet in s.

    ``chi`` is the counting variable as a jet (or an integer order).  With
    ``full_gaussian`` the exact log-mass of the Gaussian ansatz is used;
    without it the generating function is truncated to the normalization
    constant alone, which drops contributions that stay bounded in time.
    The s-independent offset is subtracted so F(0, t) = 0 exactly.
    """
    _require_counting(params)
    s = _as_counting_variable(chi, "chi")
    _, macro, fluct = next(_finite_time_parts(
        params, system_frame(params, sign_branch), ic, [t], s.order,
        full_gaussian))
    return macro + fluct


def cumulants(params: ModelParams, t: float | None = None, order: int = 5,
              ic: GaussianIC | None = None, sign_branch: int = +1,
              full_gaussian: bool = True) -> CumulantSet:
    """Counting cumulants 1..order, split into macroscopic and fluctuation
    parts, each the k-th s-derivative of its own formula.

    With ``t`` omitted these are asymptotic rates, from Gamma*|alpha|*(e^s
    - 1) (Gamma*|alpha| for every k) and from (Gamma/2)*(term1 + term2);
    otherwise the cumulants accumulated up to t from ``ic``, from
    -t*drive_rate and from the Gaussian log-mass.  Jets carry one guard
    coefficient beyond the requested order.
    """
    if order < 1:
        raise InvalidParams(f"order must be >= 1, got {order}")
    _require_counting(params)
    s = CountingJet.variable(order + 1)
    sf = system_frame(params, sign_branch)
    if t is None:
        macro, fluct = _rate_parts(params, sf, s)
    else:
        _, macro, fluct = next(_finite_time_parts(params, sf, ic, [t],
                                                  s.order, full_gaussian))
    orders = tuple(range(1, order + 1))
    return CumulantSet(
        macroscopic={k: macro.derivative(k).real for k in orders},
        fluctuation={k: fluct.derivative(k).real for k in orders},
        orders=orders, time=t)


def fano_factors(cumulant_set: CumulantSet) -> dict:
    """Fano factors F_k = fluct_k / fluct_1 of the fluctuation channel.

    The macroscopic channel is Poissonian, so all its Fano factors are one
    and are not reported.  Raises DegenerateDenominator when the first
    fluctuation cumulant vanishes (decoupled modes at lam = 0).
    """
    first = cumulant_set.fluctuation[1]
    if first == 0.0 or not math.isfinite(first):
        raise DegenerateDenominator(
            f"first fluctuation cumulant is {first}; Fano factors undefined")
    return {k: cumulant_set.fluctuation[k] / first
            for k in cumulant_set.orders}


def occupations(params: ModelParams, t: float | None = None,
                ic: GaussianIC | None = None,
                sign_branch: int = +1) -> Occupations:
    """Photon and atom occupation numbers.

    Steady state (t omitted) uses the closed forms of the fluctuation
    occupations; finite t integrates the width/displacement ODEs at s = 0
    and reconstructs the moments.  Macroscopic parts are the stationary
    order-parameter occupations |alpha| and |beta| (extensive).
    """
    _require_counting(params)
    sf = system_frame(params, sign_branch)
    if t is not None:
        state = next(_finite_time_parts(params, sf, ic, [t], 0))[0]
        nf1, nf2 = occupations_from_state(sf.frame, state)
    elif sf.phase is Phase.NORMAL:
        nf1, nf2 = _normal_occupations(params)
    else:
        nf1, nf2 = _superradiant_occupations(sf.quadratic, sf.frame)
    return Occupations(
        photon_fluct=nf1, atom_fluct=nf2,
        photon_macro=_alpha_extensive(params, sf.mean_field),
        atom_macro=sf.mean_field.beta_intensive * 2.0 * params.j_atoms)


def _normal_occupations(p: ModelParams) -> tuple:
    det = p.omega * p.omega0 - 4.0 * p.lam ** 2
    photon = p.lam ** 2 / (2.0 * det)
    atom = 0.125 * (-4.0 + p.omega / p.omega0 + 2.0 * p.omega0 / p.omega
                    + p.omega ** 2 / det)
    return photon, atom


def _superradiant_occupations(eq: EffectiveQuadratic,
                              fr: BogoliubovFrame) -> tuple:
    w, W0 = eq.omega_c, eq.Omega0
    em2, ep2 = fr.eps_minus ** 2, fr.eps_plus ** 2
    c2 = math.cos(fr.gamma_angle) ** 2
    s2 = math.sin(fr.gamma_angle) ** 2
    photon = 0.125 * (-2.0 + w * w * c2 / em2 + c2 * em2 / (w * w)
                      + w * w * s2 / ep2 + s2 * ep2 / (w * w))
    atom = 0.125 * (-4.0 + w / W0 + W0 / w
                    + w * W0 * s2 / em2 + s2 * em2 / (w * W0)
                    + w * W0 * c2 / ep2 + c2 * ep2 / (w * W0))
    return photon, atom


def occupations_from_state(frame: BogoliubovFrame,
                           state: PState) -> tuple:
    """Reconstruct (photon, atom) fluctuation occupations from a Gaussian
    P-state at s = 0.

    Moments are evaluated in the rotating frame of the diagonal modes; the
    populations are frame-independent, while displacement cross terms would
    acquire oscillatory phases in the lab frame.
    """
    b1, c1, d1 = (state.b1.coefficients[0], state.c1.coefficients[0],
                  state.d1.coefficients[0])
    b2, c2, d2 = (state.b2.coefficients[0], state.c2.coefficients[0],
                  state.d2.coefficients[0])
    # per-mode first/second P-moments
    p, q = c1 / d1, b1 / d1
    r, s = c2 / d2, b2 / d2
    s11 = (b1 * c1 + d1) / (d1 * d1)
    s22 = (b2 * c2 + d2) / (d2 * d2)

    def row(Ar, Br, Gr, Dr):
        val = (Ar * Ar * s11 + Br * Br * (s11 + 1.0)
               + Gr * Gr * s22 + Dr * Dr * (s22 + 1.0)
               + Ar * Br * (p * p + q * q) + Gr * Dr * (r * r + s * s)
               + (Ar * Gr + Br * Dr) * (q * r + p * s)
               + (Ar * Dr + Br * Gr) * (q * s + p * r))
        return val.real

    photon = row(frame.A, frame.B, frame.G, frame.D)
    atom = row(frame.A2, frame.B2, frame.G2, frame.D2)
    return photon, atom


def relaxation_times(frame: BogoliubovFrame,
                     gamma_loss: float) -> RelaxationTimes:
    """Relaxation times of the two diagonal modes.

    tau1 = 1/(Gamma cos^2 gamma) governs the photon-like mode, tau2 =
    1/(Gamma sin^2 gamma) the atom-like mode; their inverse sum is the bare
    loss rate.  Decoupled channels get an infinite time.
    """
    if gamma_loss <= 0:
        raise InvalidParams(
            f"relaxation times need gamma_loss > 0, got {gamma_loss}")
    c2 = math.cos(frame.gamma_angle) ** 2
    s2 = math.sin(frame.gamma_angle) ** 2
    tau1 = 1.0 / (gamma_loss * c2) if c2 > 0 else math.inf
    tau2 = 1.0 / (gamma_loss * s2) if s2 > 0 else math.inf
    return RelaxationTimes(tau1=tau1, tau2=tau2)
