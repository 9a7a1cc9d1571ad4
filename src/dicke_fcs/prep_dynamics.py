"""Gaussian P-function dynamics of the fluctuation modes with counting field.

In the diagonal (Bogoliubov) frame the counting-field master equation for
the fluctuations couples the two normal modes to effective thermal baths.
Expanding the density operator over coherent states |g1, g2> with a Gaussian
ansatz

    P(g1, g2, t) = exp[ -a - sum_i ( d_i |g_i|^2 - b_i g_i - c_i g_i* ) ]

closes the equation of motion into seven coupled ODEs for (a, b1, b2, c1,
c2, d1, d2).  Every coefficient is valued in a truncated power series
(:class:`~dicke_fcs.jets.CountingJet`) in s = i*chi, so a single integration
carries all counting cumulants up to the jet order.

The rates entering the ODEs are

    U = (G/2) (A^2 + B^2 (1 - 2 e^s))      W = G B^2 e^s
    V = (G/2) (G^2 + D^2 (1 - 2 e^s))      T = G D^2 e^s

with (A, B) the photon-row coefficients of the soft mode and (G, D) those of
the stiff mode, G the photon loss rate.  The macroscopic emission channel
enters only through the additive Poisson rate ``drive_rate`` = G|alpha|(1-e^s),
which consumers add to the fluctuation part when assembling the full
generating function; it never feeds back into the seven ODEs.

Every rate is constant in time, so the ODEs have a closed form, which
:func:`propagate` evaluates for all sample times in one vectorised pass.
Per mode the width obeys d' = 2U d - W d^2 + S with S = counting_loss *
src; with d = p/q the pair (p, q) evolves under exp(M t), M = [[U, S],
[W, -U]], and by Cayley-Hamilton exp(M t) = cosh(t sqrt X) I +
sinh(t sqrt X)/sqrt X M with X = U^2 + W S.  Then b = b0/q, c = c0/q and

    a(t) = a0 + sum_i [ln q_i - U_i t - b0 c0 Phi21_i/q_i]
           + counting_loss (B^2 + D^2) t,

the last bracket term from the Wronskian identity int_0^t W/q^2 = Phi21/q.
While |U0| t is small, cosh and sinh/sqrt are expanded as entire
functions of X (modified spherical Bessel coefficients); later the
eigenvalue form e^(+-t sqrt X) is used, whose growing part is damped by
e^(-2 t sqrt X).  :func:`evolve` integrates the same ODEs with DOP853 and
is kept as the independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .bogoliubov import BogoliubovFrame
from .errors import (BranchAmbiguity, InvalidParams, NonConvergence,
                     NumericalRange)
from .jets import (CountingJet, seq_exp, seq_log, seq_mul, seq_reciprocal,
                   seq_sqrt)

__all__ = [
    "CountingJet",
    "OdeCoefficients",
    "PState",
    "GaussianIC",
    "ode_coefficients",
    "initial_state",
    "ode_rhs",
    "steady_state",
    "steady_a_rate",
    "evolve",
    "propagate",
    "log_gaussian_mass",
]


@dataclass(frozen=True)
class OdeCoefficients:
    """Jet-valued rates of the seven-ODE system plus bookkeeping constants."""

    U_bar: CountingJet
    V_bar: CountingJet
    W_bar: CountingJet
    T_bar: CountingJet
    #: Poisson rate of the macroscopic channel, G*|alpha|*(1 - e^s)
    drive_rate: CountingJet
    #: G*(1 - e^s); prefactor of the width sources in the d equations
    counting_loss: CountingJet
    #: source constants A^2+B^2 and G^2+D^2 of the two d equations
    src1: float
    src2: float
    #: squared heating coefficients B^2, D^2
    b_sq: float
    d_sq: float
    gamma_loss: float
    order: int


@dataclass(frozen=True)
class PState:
    """The seven Gaussian-ansatz coefficients at one instant.

    All fields are jets in s = i*chi.  For derivative objects returned by
    :func:`ode_rhs` the fields hold d/dt values and ``time`` is carried
    through unchanged.
    """

    a: CountingJet
    b1: CountingJet
    b2: CountingJet
    c1: CountingJet
    c2: CountingJet
    d1: CountingJet
    d2: CountingJet
    time: float


@dataclass(frozen=True)
class GaussianIC:
    """Isotropic Gaussian of width epsilon displaced to (gamma1_0, gamma2_0)."""

    epsilon_width: float
    gamma1_0: complex = 0.0
    gamma2_0: complex = 0.0

    def __post_init__(self):
        if not (self.epsilon_width > 0 and math.isfinite(self.epsilon_width)):
            raise InvalidParams(
                f"epsilon_width must be positive, got {self.epsilon_width}")


def ode_coefficients(frame: BogoliubovFrame, gamma_loss: float,
                     alpha_abs: float = 0.0, order: int = 6) -> OdeCoefficients:
    """Assemble the jet-valued ODE rates for a given frame and loss rate.

    ``alpha_abs`` is the extensive macroscopic photon number |alpha| (zero in
    the normal phase); it only sets ``drive_rate``.
    """
    if gamma_loss < 0:
        raise InvalidParams(f"gamma_loss must be nonnegative, got {gamma_loss}")
    if order < 0:
        raise InvalidParams(f"jet order must be nonnegative, got {order}")
    e_s = CountingJet.variable(order).exp() if order >= 1 \
        else CountingJet.constant(1.0, 0)
    one = CountingJet.constant(1.0, order)
    A2, B2 = frame.A ** 2, frame.B ** 2
    G2, D2 = frame.G ** 2, frame.D ** 2
    U = 0.5 * gamma_loss * (A2 + B2 * (one - 2.0 * e_s))
    V = 0.5 * gamma_loss * (G2 + D2 * (one - 2.0 * e_s))
    W = gamma_loss * B2 * e_s
    T = gamma_loss * D2 * e_s
    counting_loss = gamma_loss * (one - e_s)
    return OdeCoefficients(
        U_bar=U, V_bar=V, W_bar=W, T_bar=T,
        drive_rate=alpha_abs * counting_loss,
        counting_loss=counting_loss,
        src1=A2 + B2, src2=G2 + D2,
        b_sq=B2, d_sq=D2,
        gamma_loss=gamma_loss, order=order,
    )


def initial_state(ic: GaussianIC, order: int = 6) -> PState:
    """Map a displaced Gaussian to the ansatz coefficients at t = 0.

    The normalization constant is chosen so the total P-mass is exactly one:
    a(0) = ln((pi*eps)^2) + (|g1|^2 + |g2|^2)/eps.  All jets are constant in
    s (the initial state carries no counting phase).
    """
    eps = ic.epsilon_width
    a0 = math.log((math.pi * eps) ** 2) \
        + (abs(ic.gamma1_0) ** 2 + abs(ic.gamma2_0) ** 2) / eps
    const = lambda z: CountingJet.constant(z, order)
    return PState(
        a=const(a0),
        b1=const(np.conj(ic.gamma1_0) / eps),
        b2=const(np.conj(ic.gamma2_0) / eps),
        c1=const(ic.gamma1_0 / eps),
        c2=const(ic.gamma2_0 / eps),
        d1=const(1.0 / eps),
        d2=const(1.0 / eps),
        time=0.0,
    )


# ---------------------------------------------------------------------------
# right-hand side
#
# The integrator works on a flat real view of the stacked coefficient rows
# (a, b1, b2, c1, c2, d1, d2); _rhs_rows is the hot path and stays on raw
# arrays, ode_rhs is the jet-typed wrapper.
# ---------------------------------------------------------------------------

def _rhs_rows(z: np.ndarray, co: OdeCoefficients) -> np.ndarray:
    a, b1, b2, c1, c2, d1, d2 = z
    U = co.U_bar.coefficients
    V = co.V_bar.coefficients
    W = co.W_bar.coefficients
    T = co.T_bar.coefficients
    loss = co.counting_loss.coefficients
    out = np.empty_like(z)
    out[0] = (-seq_mul(W, seq_mul(c1, b1) - d1)
              - seq_mul(T, seq_mul(c2, b2) - d2)
              - 2.0 * (U + V)
              + loss * (co.b_sq + co.d_sq))
    out[1] = seq_mul(U, b1) - seq_mul(W, seq_mul(b1, d1))
    out[2] = seq_mul(V, b2) - seq_mul(T, seq_mul(b2, d2))
    out[3] = seq_mul(U, c1) - seq_mul(W, seq_mul(c1, d1))
    out[4] = seq_mul(V, c2) - seq_mul(T, seq_mul(c2, d2))
    out[5] = 2.0 * seq_mul(U, d1) - seq_mul(W, seq_mul(d1, d1)) + loss * co.src1
    out[6] = 2.0 * seq_mul(V, d2) - seq_mul(T, seq_mul(d2, d2)) + loss * co.src2
    return out


def _state_rows(state: PState) -> np.ndarray:
    return np.array([state.a.coefficients, state.b1.coefficients,
                     state.b2.coefficients, state.c1.coefficients,
                     state.c2.coefficients, state.d1.coefficients,
                     state.d2.coefficients])


def _rows_state(z: np.ndarray, time: float) -> PState:
    return PState(a=CountingJet(z[0]), b1=CountingJet(z[1]),
                  b2=CountingJet(z[2]), c1=CountingJet(z[3]),
                  c2=CountingJet(z[4]), d1=CountingJet(z[5]),
                  d2=CountingJet(z[6]), time=time)


def ode_rhs(state: PState, coeffs: OdeCoefficients) -> PState:
    """Time derivatives of all seven coefficients (pure algebra, no errors)."""
    return _rows_state(_rhs_rows(_state_rows(state), coeffs), state.time)


def _riccati_root(rate2, cross, loss, src):
    """Steady root (rate + sqrt(rate^2 - cross*G*(e^s-1)*src)) / cross of the
    width Riccati equation, principal branch anchored at s=0."""
    # cross*G*(e^s-1)*src = -cross*counting_loss*src
    arg = seq_mul(rate2, rate2) + seq_mul(cross, loss) * src
    if arg[0].real <= 0.0:
        raise BranchAmbiguity(
            f"square-root argument has nonpositive constant term {arg[0]:g}")
    return seq_mul(rate2 + seq_sqrt(arg), seq_reciprocal(cross))


def steady_state(coeffs: OdeCoefficients) -> PState:
    """Long-time attractor of the seven ODEs.

    b and c vanish; the widths take the counting-dependent closed form
    d_i = (rate_i + sqrt(rate_i^2 + cross_i * counting_loss * src_i))/cross_i.
    The constant ``a`` has no attractor (it grows linearly at
    :func:`steady_a_rate`), so the returned state carries a = 0 and
    time = inf.
    """
    n = coeffs.order + 1
    zero = CountingJet(np.zeros(n, dtype=complex))
    loss = coeffs.counting_loss.coefficients
    d1 = _riccati_root(coeffs.U_bar.coefficients, coeffs.W_bar.coefficients,
                       loss, coeffs.src1)
    d2 = _riccati_root(coeffs.V_bar.coefficients, coeffs.T_bar.coefficients,
                       loss, coeffs.src2)
    return PState(a=zero, b1=zero, b2=zero, c1=zero, c2=zero,
                  d1=CountingJet(d1), d2=CountingJet(d2), time=math.inf)


def steady_a_rate(coeffs: OdeCoefficients) -> CountingJet:
    """Asymptotic linear growth rate of the ansatz constant a.

    Equals minus the fluctuation part of the counting generating-function
    rate (the Poisson ``drive_rate`` is not included here).
    """
    U = coeffs.U_bar.coefficients
    V = coeffs.V_bar.coefficients
    loss = coeffs.counting_loss.coefficients
    arg1 = seq_mul(U, U) + seq_mul(coeffs.W_bar.coefficients, loss) * coeffs.src1
    arg2 = seq_mul(V, V) + seq_mul(coeffs.T_bar.coefficients, loss) * coeffs.src2
    if arg1[0].real <= 0.0 or arg2[0].real <= 0.0:
        raise BranchAmbiguity("square-root argument has nonpositive constant term")
    rate = -U - V + seq_sqrt(arg1) + seq_sqrt(arg2) \
        + loss * (coeffs.b_sq + coeffs.d_sq)
    return CountingJet(rate)


def log_gaussian_mass(state):
    """ln of the total P-mass: -a + sum_i [ln(pi/d_i) + b_i c_i / d_i].

    At s = 0 and with a normalized initial state this is the conserved
    log-trace (identically zero along exact trajectories).  Given a sequence
    of states it returns the list of their log-masses, formed in one batched
    pass.
    """
    if isinstance(state, PState):
        return CountingJet(_log_mass_rows(_state_rows(state)))
    if not state:
        return []
    rows = np.array([_state_rows(st) for st in state])
    return [CountingJet(row) for row in _log_mass_rows(rows)]


def _log_mass_rows(z: np.ndarray) -> np.ndarray:
    total = -z[..., 0, :]
    for b, c, d in ((1, 3, 5), (2, 4, 6)):
        rec = seq_reciprocal(z[..., d, :])
        total = total + seq_log(math.pi * rec) \
            + seq_mul(seq_mul(z[..., b, :], z[..., c, :]), rec)
    return total


# ---------------------------------------------------------------------------
# closed-form propagator
# ---------------------------------------------------------------------------

#: a mode with |U0| t above this takes the eigenvalue form of its flow
_Z_SWITCH = 4.0
#: 1/q and e^(-2 Delta t) below e^-_LN_FLUSH (about 1e-304) are set to 0
_LN_FLUSH = 700.0


def _check_times(times, name: str = "t") -> np.ndarray:
    """Sample times as a float array: finite, nonnegative, nondecreasing."""
    arr = np.atleast_1d(np.asarray(times, dtype=float))
    if arr.ndim != 1 or not np.isfinite(arr).all() or (arr < 0).any():
        raise InvalidParams(
            f"{name} must be finite and nonnegative, got {times!r}")
    if (np.diff(arr) < 0).any():
        raise InvalidParams(f"{name} must be nondecreasing, got {times!r}")
    return arr


def _bessel_j(z: np.ndarray, order: int) -> np.ndarray:
    """e^-z i_m(z)/z^m for m = -1..order, one row per z.

    i_m is the modified spherical Bessel function of the first kind, with
    i_-1(z)/z^-1 = cosh z.  The top two come from their positive-term series
    sum_k z^2k / (2^k k! (2m+2k+1)!!); the rest from the downward recurrence
    j_(m-1) = (2m+1) j_m + z^2 j_(m+1), whose terms are positive as well.
    """
    top = np.array([order - 1, order])
    n_terms = int(2.0 * z.max(initial=0.0)) + 25
    k = np.arange(1, n_terms)[:, None, None]
    ratio = (z * z)[None, :, None] / (2.0 * k * (2 * top + 2 * k + 1))
    first = [1.0 / math.prod(range(2 * m + 1, 0, -2)) for m in top]
    series = first * (1.0 + np.cumprod(ratio, axis=0).sum(axis=0))
    j = np.empty((z.size, order + 2))
    j[:, order:] = series
    for m in range(order - 1, -1, -1):
        j[:, m] = (2 * m + 1) * j[:, m + 1] + z * z * j[:, m + 2]
    return j * np.exp(-z)[:, None]


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """Rows x^0 .. x^(count-1) of a jet."""
    rows = np.zeros((count, len(x)), dtype=complex)
    rows[0, 0] = 1.0
    for m in range(1, count):
        rows[m] = seq_mul(rows[m - 1], x)
    return rows


def _exp_rows(x: np.ndarray) -> np.ndarray:
    """exp of jet rows, with rows whose e^(x0) is below e^-_LN_FLUSH set
    to zero."""
    out = np.zeros_like(x)
    live = x[:, 0].real > -_LN_FLUSH
    out[live] = seq_exp(x[live])
    return out


def _unit(n: int) -> np.ndarray:
    one = np.zeros(n, dtype=complex)
    one[0] = 1.0
    return one


def _scaled_log(den: np.ndarray, shift: np.ndarray, t: np.ndarray):
    """ln q = ln den + shift and 1/den for q = e^shift den.

    den stays of order one except for a mode without heating (W = 0),
    whose width grows as e^(2 U t); NumericalRange is raised once den falls
    below sqrt(tiny), where that width and its square would overflow.
    """
    if not (den[:, 0].real > np.finfo(float).tiny ** 0.5).all():
        raise NumericalRange(
            "the width of a mode without heating (W = 0) grows beyond the "
            f"floating-point range by t = {t.max():g}")
    return seq_log(den) + shift, seq_reciprocal(den)


def _flow_entire(U, W, S, X, d0: float, t: np.ndarray):
    """Short-time form of one mode's flow: ln q, d = p/q and Phi21/q.

    With z = |U0| t, C = cosh(t sqrt X) and Sh = sinh(t sqrt X)/sqrt X are
    entire in X; their Taylor coefficients about X0 = U0^2 (S vanishes at
    s = 0) are

        C_m = (t^2/2)^m / m! j_(m-1)(z),   Sh_m = t (t^2/2)^m / m! j_m(z),

    with j_m = i_m(z)/z^m scaled by e^-z, so every sample is one row of a
    matrix product with the powers of X - X0.  Then q = C + (W d0 - U) Sh
    and p = C d0 + (U d0 + S) Sh.  For a weakly heated mode (W -> 0) q
    cancels down to e^-Ut, which costs at most a factor e^2z <= e^8 in
    relative accuracy for z <= _Z_SWITCH.
    """
    n = len(U)
    xi = X.copy()
    xi[0] = 0.0
    xi_pow = _powers(xi, n)
    z = abs(U[0].real) * t
    fac = np.cumprod(np.column_stack(
        [np.ones_like(t)] + [t * t / (2.0 * m) for m in range(1, n)]), axis=1)
    j = _bessel_j(z, n - 1)
    C = (fac * j[:, :-1]) @ xi_pow
    Sh = (t[:, None] * fac * j[:, 1:]) @ xi_pow
    q = C + seq_mul(Sh, d0 * W - U)
    p = d0 * C + seq_mul(Sh, d0 * U + S)
    log_q, inv_q = _scaled_log(q, np.outer(z, _unit(n)), t)
    return log_q, seq_mul(p, inv_q), seq_mul(seq_mul(Sh, W), inv_q)


def _flow_eigen(U, W, S, X, d0: float, t: np.ndarray):
    """Long-time form of one mode's flow: ln q, d = p/q and Phi21/q.

    M has eigenvalues +-Delta, Delta = sqrt X.  With E = e^(-2 Delta t),
    g = d0 + S/(Delta+U) and h = Delta + U - W d0,

        q = e^(Delta t) (W g + h E) / 2Delta,
        d = [(Delta+U) - (S h/(Delta+U)) E/g] / [W + h E/g],
        Phi21/q = W (1 - E) / (W g + h E),

    where Delta - U is formed as W S/(Delta+U).  The jets of Delta and of
    1/g have nearby singularities, so their coefficients grow fast; once
    |U0| t is large the factor E damps that growth, while ln q keeps its
    exact linear part Delta t.
    """
    n = len(U)
    one = _unit(n)
    delta = seq_sqrt(X)
    u_plus = U + delta
    inv_u_plus = seq_reciprocal(u_plus)
    g = d0 * one + seq_mul(S, inv_u_plus)
    h = u_plus - d0 * W
    E = _exp_rows(np.outer(-2.0 * t, delta))
    inv_2delta = seq_reciprocal(2.0 * delta)
    log_q, inv_den = _scaled_log(
        seq_mul(seq_mul(W, g) + seq_mul(E, h), inv_2delta),
        np.outer(t, delta), t)
    F = seq_mul(E, seq_reciprocal(g))
    d = seq_mul(u_plus - seq_mul(F, seq_mul(seq_mul(S, h), inv_u_plus)),
                seq_reciprocal(W + seq_mul(F, h)))
    phi = seq_mul(seq_mul(one - E, seq_mul(W, inv_2delta)), inv_den)
    return log_q, d, phi


def _mode_flow(U, W, S, d0: float, times: np.ndarray):
    """ln q, d = p/q and Phi21/q of one mode at each of ``times``.

    With d = p/q the width equation d' = 2U d - W d^2 + S is linear:
    (p, q) evolves under exp(M t), M = [[U, S], [W, -U]], from (d0, 1), and
    exp(M t) = C I + Sh M.  Samples with |U0| t <= _Z_SWITCH take
    :func:`_flow_entire`, later ones :func:`_flow_eigen`.
    """
    X = seq_mul(U, U) + seq_mul(W, S)
    late = U[0].real * times > _Z_SWITCH
    out = np.empty((3, times.size, len(U)), dtype=complex)
    for rows, route in ((~late, _flow_entire), (late, _flow_eigen)):
        if rows.any():
            out[:, rows] = route(U, W, S, X, d0, times[rows])
    return out


def propagate(ic: GaussianIC, coeffs: OdeCoefficients, times) -> list[PState]:
    """Exact states of the seven jet ODEs from ``ic`` at each of ``times``.

    Every rate is constant in time, so with d = p/q each mode is the linear
    flow of :func:`_mode_flow`, b = b0/q, c = c0/q, and

        a(t) = a0 + sum_i [ln q_i - U_i t - b0 c0 Phi21/q_i]
               + counting_loss (B^2 + D^2) t,

    using the Wronskian identity int_0^t W/q^2 = Phi21/q.  All times are
    evaluated in one vectorised pass; ``times`` must be finite, nonnegative
    and nondecreasing.  Raises NumericalRange where a mode without heating
    (W = 0, a decoupled channel) collapses beyond the floating-point range.
    """
    times = _check_times(times)
    state0 = initial_state(ic, coeffs.order)
    loss = coeffs.counting_loss.coefficients
    z = np.empty((times.size, 7, coeffs.order + 1), dtype=complex)
    z[:, 0] = state0.a.coefficients + np.outer(
        times, loss * (coeffs.b_sq + coeffs.d_sq))
    d0 = 1.0 / ic.epsilon_width
    for i, (rate, cross, src) in enumerate(
            ((coeffs.U_bar, coeffs.W_bar, coeffs.src1),
             (coeffs.V_bar, coeffs.T_bar, coeffs.src2)), 1):
        b0 = getattr(state0, f"b{i}").coefficients[0]
        c0 = getattr(state0, f"c{i}").coefficients[0]
        log_q, z[:, 4 + i], phi = _mode_flow(
            rate.coefficients, cross.coefficients, loss * src, d0, times)
        z[:, 0] += log_q - np.outer(times, rate.coefficients) - b0 * c0 * phi
        inv_q = _exp_rows(-log_q)
        z[:, i], z[:, 2 + i] = b0 * inv_q, c0 * inv_q
    if not np.isfinite(z).all():
        raise NumericalRange(
            f"the Gaussian state leaves the floating-point range by "
            f"t = {times[-1]:g}")
    return [_rows_state(row, float(t)) for row, t in zip(z, times)]


def _check_frame_consistency(coeffs: OdeCoefficients, frame: BogoliubovFrame):
    g = coeffs.gamma_loss
    pairs = (
        (coeffs.U_bar.coefficients[0], 0.5 * g * (frame.A ** 2 - frame.B ** 2)),
        (coeffs.V_bar.coefficients[0], 0.5 * g * (frame.G ** 2 - frame.D ** 2)),
        (coeffs.W_bar.coefficients[0], g * frame.B ** 2),
        (coeffs.T_bar.coefficients[0], g * frame.D ** 2),
    )
    for got, want in pairs:
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            raise InvalidParams(
                "ode coefficients do not belong to the supplied frame")


def evolve(ic: GaussianIC, coeffs: OdeCoefficients, t_final: float,
           frame: BogoliubovFrame, t_eval=None,
           rtol: float = 1e-10, atol: float = 1e-12) -> list[PState]:
    """Integrate the seven jet ODEs from a Gaussian initial condition.

    Returns the state at each requested time (default: 201 uniform samples
    including the endpoints); ``t_eval`` must be finite, nondecreasing and
    within [0, t_final].  ``frame`` is cross-checked against ``coeffs`` to
    catch mismatched inputs early.  This DOP853 integration is the
    independent reference for the closed form of :func:`propagate`.
    """
    (t_final,) = _check_times(t_final, "t_final")
    _check_frame_consistency(coeffs, frame)
    state0 = initial_state(ic, coeffs.order)
    if t_eval is None:
        t_eval = np.linspace(0.0, t_final, 201) if t_final > 0 else [0.0]
    t_eval = _check_times(t_eval, "t_eval")
    if t_eval.size and t_eval[-1] > t_final:
        raise InvalidParams("t_eval must lie within [0, t_final]")
    if t_final == 0.0:
        return [state0] * t_eval.size

    n = coeffs.order + 1
    shape = (7, n)

    def rhs(_t, y):
        z = np.ascontiguousarray(y).view(complex).reshape(shape)
        return _rhs_rows(z, coeffs).reshape(-1).view(float)

    # each sample is a step end point: DOP853's dense output between long
    # steps near an attractor can be off by far more than rtol
    y = _state_rows(state0).reshape(-1).view(float).copy()
    states, t_prev = [], 0.0
    for t in t_eval:
        if t > t_prev:
            sol = solve_ivp(rhs, (t_prev, t), y, method="DOP853",
                            rtol=rtol, atol=atol)
            if not sol.success:
                raise NonConvergence(f"ODE integration failed: {sol.message}")
            y, t_prev = sol.y[:, -1], t
        z = np.ascontiguousarray(y).view(complex).reshape(shape)
        states.append(_rows_state(z.copy(), float(t)))
    return states
