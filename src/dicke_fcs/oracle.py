"""Brute-force finite-dimensional oracles for the counting statistics.

Two independent checks of the analytic machinery:

* a single-mode thermal-like master equation in the diagonal frame, whose
  tilted Liouvillian spectrum must reproduce one square-root term of the
  closed cumulant generating rate, and
* the full Dicke model at small spin j and finite photon cutoff, whose
  steady emission rate must approach the thermodynamic-limit value as j
  grows.

Superoperators use the row-major vectorization vec(A rho B) = (A kron B^T)
vec(rho) and sparse storage throughout.  The counting field chi multiplies
the quantum-jump term of the photon loss channel by e^{i chi}; cumulant
rates follow from chi-derivatives of the dominant eigenvalue, evaluated with
high-order central differences and Richardson extrapolation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigs, spsolve
from scipy.sparse.linalg import ArpackNoConvergence

from .bogoliubov import BogoliubovFrame
from .errors import (CutoffTooSmall, DickeFcsError, EigenvalueCrossing,
                     InvalidParams, NonConvergence)
from .model import ModelParams
from .statistics import occupations

__all__ = [
    "TruncatedLiouvillian",
    "build_rwa_liouvillian",
    "build_dicke_liouvillian",
    "steady_state_vector",
    "dominant_eigenvalue",
    "finite_difference_weights",
    "cumulant_rates_fd",
    "trace_vector",
]

_HOMOTOPY_STEP = 0.1
_OVERLAP_MIN = 0.5


@dataclass(frozen=True)
class TruncatedLiouvillian:
    """A tilted Lindblad generator on a truncated Hilbert space.

    The generator at counting angle chi is ``at(chi) = no_jump + e^{i chi}
    jump``: ``jump`` is the counted quantum-jump term of the photon loss,
    ``no_jump`` everything else.  Both act on row-major vectorized density
    matrices of size ``side`` x ``side``; ``matrix`` is the generator at
    the stored angle ``chi``.
    """

    no_jump: sp.csc_matrix
    jump: sp.csc_matrix
    side: int
    chi: float
    cutoffs: tuple

    def at(self, chi: float) -> sp.csc_matrix:
        return (self.no_jump + np.exp(1j * chi) * self.jump).tocsc()

    @cached_property
    def matrix(self) -> sp.csc_matrix:
        return self.at(self.chi)


def _destroy(side: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, side, dtype=float)), 1, format="csr")


def _pre(x: sp.spmatrix, side: int) -> sp.csr_matrix:
    return sp.kron(x, sp.identity(side, format="csr"), format="csr")


def _post(x: sp.spmatrix, side: int) -> sp.csr_matrix:
    return sp.kron(sp.identity(side, format="csr"), x.T, format="csr")


def _dissipator_parts(jump: sp.spmatrix, weight: float, side: int) -> tuple:
    """weight * (-{J^dag J, rho}/2) and weight * J rho J^dag, vectorized:
    the no-jump and the counted jump part of one loss channel."""
    jj = (jump.conj().T @ jump).tocsr()
    return (-0.5 * weight * (_pre(jj, side) + _post(jj, side)),
            weight * sp.kron(jump, jump.conj(), format="csr"))


def trace_vector(side: int) -> np.ndarray:
    """Row vector representing Tr(.) on vectorized density matrices."""
    tr = np.zeros(side * side)
    tr[:: side + 1] = 1.0
    return tr


def build_rwa_liouvillian(frame: BogoliubovFrame, mode: int,
                          gamma_loss: float, chi: float,
                          cutoff: int) -> TruncatedLiouvillian:
    """Single diagonal mode coupled to cooling/heating channels with
    counting on both, truncated at ``cutoff`` quanta.

    ``mode`` 1 uses the soft-mode photon-row weights (A^2, B^2), mode 2 the
    stiff-mode ones (G^2, D^2).
    """
    if mode not in (1, 2):
        raise InvalidParams(f"mode must be 1 or 2, got {mode}")
    if gamma_loss <= 0:
        raise InvalidParams(f"gamma_loss must be positive, got {gamma_loss}")
    if cutoff < 2:
        raise InvalidParams(f"cutoff must be at least 2, got {cutoff}")
    if mode == 1:
        cool, heat = frame.A ** 2, frame.B ** 2
    else:
        cool, heat = frame.G ** 2, frame.D ** 2
    if cool <= heat:
        raise InvalidParams(
            f"channel is not cooling dominated (cool={cool:g}, "
            f"heat={heat:g}); no thermal steady state exists")
    nbar = heat / (cool - heat)
    if nbar > cutoff / 4:
        raise CutoffTooSmall(
            f"thermal occupation {nbar:.3g} needs cutoff > {4 * nbar:.0f}, "
            f"got {cutoff}")
    side = cutoff + 1
    a = _destroy(side)
    cool_parts = _dissipator_parts(a, gamma_loss * cool, side)
    heat_parts = _dissipator_parts(a.conj().T.tocsr(), gamma_loss * heat,
                                   side)
    return TruncatedLiouvillian(
        no_jump=(cool_parts[0] + heat_parts[0]).tocsc(),
        jump=(cool_parts[1] + heat_parts[1]).tocsc(),
        side=side, chi=chi, cutoffs=(cutoff,))


def _spin_operators(j: float):
    two_j = int(round(2 * j))
    m = j - np.arange(two_j + 1)          # j, j-1, ..., -j
    jz = sp.diags(m, 0, format="csr")
    raise_elem = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = sp.diags(raise_elem, 1, format="csr")
    return jz, jp


def build_dicke_liouvillian(params: ModelParams, photon_cutoff: int,
                            chi: float = 0.0) -> TruncatedLiouvillian:
    """Full Dicke Lindbladian at finite j with photon-loss counting.

    Basis ordering is spin (m descending) kron photon Fock.  The photon
    cutoff is sanity-checked against the thermodynamic-limit occupation
    estimate whenever that estimate is available.
    """
    j = params.j_atoms
    two_j = 2 * j
    if abs(two_j - round(two_j)) > 1e-9 or not (0 < j <= 8):
        raise InvalidParams(
            f"j_atoms must be a half-integer in (0, 8] for the oracle, "
            f"got {j}")
    if not 1 <= photon_cutoff <= 64:
        raise InvalidParams(
            f"photon_cutoff must be in [1, 64], got {photon_cutoff}")
    _check_cutoff_estimate(params, photon_cutoff)

    n_ph = photon_cutoff + 1
    n_sp = int(round(two_j)) + 1
    side = n_sp * n_ph
    jz, jp = _spin_operators(j)
    a = _destroy(n_ph)
    x_ph = a + a.conj().T
    jx2 = jp + jp.conj().T                # J_+ + J_-
    ident_sp = sp.identity(n_sp, format="csr")
    ident_ph = sp.identity(n_ph, format="csr")
    h = (params.omega0 * sp.kron(jz, ident_ph)
         + params.omega * sp.kron(ident_sp, a.conj().T @ a)
         + (params.lam / math.sqrt(two_j)) * sp.kron(jx2, x_ph)).tocsr()
    a_full = sp.kron(ident_sp, a, format="csr")
    no_jump, jump = _dissipator_parts(a_full, params.gamma_loss, side)
    return TruncatedLiouvillian(
        no_jump=(no_jump - 1j * (_pre(h, side) - _post(h, side))).tocsc(),
        jump=jump.tocsc(), side=side, chi=chi,
        cutoffs=(int(round(two_j)), photon_cutoff))


def _check_cutoff_estimate(params: ModelParams, photon_cutoff: int):
    try:
        occ = occupations(params)
    except DickeFcsError:
        return                            # no estimate available; trust caller
    estimate = occ.photon_fluct + occ.photon_macro
    if estimate > photon_cutoff / 4:
        raise CutoffTooSmall(
            f"estimated photon occupation {estimate:.3g} needs cutoff > "
            f"{4 * estimate:.0f}, got {photon_cutoff}")


def steady_state_vector(lv: TruncatedLiouvillian) -> np.ndarray:
    """Vectorized steady density matrix, normalized to unit trace.

    Only defined at chi = 0, where the generator is trace preserving; the
    singular system is closed by replacing one redundant row with the trace
    condition.
    """
    if lv.chi != 0:
        raise InvalidParams("steady state is defined only at chi = 0")
    n = lv.side ** 2
    m = lv.matrix.tolil(copy=True)
    m.rows[0] = list(range(0, n, lv.side + 1))
    m.data[0] = [1.0] * lv.side
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = 1.0
    v = spsolve(m.tocsc(), rhs)
    residual = np.abs(lv.matrix @ v).max()
    if not np.isfinite(residual) or residual > 1e-8:
        raise NonConvergence(
            f"steady-state solve left residual {residual:.3g}")
    return v


def _zero_mode(lv: TruncatedLiouvillian) -> tuple:
    """Normalized steady state of ``lv`` at chi = 0 and its eigenvalue."""
    base = lv if lv.chi == 0 else dataclasses.replace(lv, chi=0.0)
    vec = steady_state_vector(base)
    vec = vec / np.linalg.norm(vec)
    return vec, complex(vec.conj() @ (base.matrix @ vec))


def _follow_branch(lv: TruncatedLiouvillian, chi: float, vec: np.ndarray,
                   eig: complex, homotopy_step: float,
                   overlap_min: float) -> complex:
    """Walk the eigenpair (vec, eig) of ``lv.at(0)`` to ``lv.at(chi)``."""
    if chi == 0:
        return eig
    n_steps = max(1, math.ceil(abs(chi) / homotopy_step))
    for chi_k in np.linspace(0.0, chi, n_steps + 1)[1:]:
        step_matrix = lv.at(float(chi_k))
        try:
            try:
                vals, vecs = eigs(step_matrix, k=1, sigma=eig, v0=vec)
            except RuntimeError:
                # shift sits exactly on an eigenvalue; nudge it off
                sigma = eig + 1e-6 * (1.0 + abs(eig))
                vals, vecs = eigs(step_matrix, k=1, sigma=sigma, v0=vec)
        except ArpackNoConvergence as exc:
            raise NonConvergence(
                f"eigensolver stalled at chi = {chi_k:g}") from exc
        new_vec = vecs[:, 0]
        new_vec = new_vec / np.linalg.norm(new_vec)
        overlap = abs(np.vdot(vec, new_vec))
        if overlap < overlap_min:
            raise EigenvalueCrossing(
                f"eigenvector overlap {overlap:.3g} at chi = {chi_k:g}; "
                "reduce homotopy_step")
        eig = complex(vals[0])
        vec = new_vec
    return eig


def dominant_eigenvalue(lv: TruncatedLiouvillian,
                        homotopy_step: float = _HOMOTOPY_STEP,
                        overlap_min: float = _OVERLAP_MIN) -> complex:
    """Eigenvalue of the tilted generator continuously connected to the
    steady-state zero mode at chi = 0.

    The counting angle is walked from 0 to ``lv.chi`` in steps of at most
    ``homotopy_step`` along ``lv.at(chi)``, each step solved by shifted
    inverse iteration seeded with the previous eigenpair.  A drop of the
    successive eigenvector overlap below ``overlap_min`` aborts with
    EigenvalueCrossing rather than silently jumping branches.
    """
    return _follow_branch(lv, lv.chi, *_zero_mode(lv), homotopy_step,
                          overlap_min)


def finite_difference_weights(deriv_order: int, offsets) -> np.ndarray:
    """Weights of the finite-difference stencil on ``offsets`` (in units of
    the step) approximating the ``deriv_order``-th derivative at 0.

    Classic recursive construction valid for arbitrary point sets.
    """
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.size
    m = deriv_order
    if n < m + 1:
        raise InvalidParams(
            f"need at least {m + 1} points for derivative order {m}")
    delta = np.zeros((n, n, m + 1))
    delta[0, 0, 0] = 1.0
    c1 = 1.0
    for i in range(1, n):
        c2 = 1.0
        for jj in range(i):
            c3 = offsets[i] - offsets[jj]
            c2 *= c3
            for k in range(min(i, m), -1, -1):
                prev = delta[i - 1, jj, k - 1] if k > 0 else 0.0
                delta[i, jj, k] = (offsets[i] * delta[i - 1, jj, k]
                                   - k * prev) / c3
        for k in range(min(i, m), -1, -1):
            prev = delta[i - 1, i - 1, k - 1] if k > 0 else 0.0
            delta[i, i, k] = (c1 / c2) * (k * prev - offsets[i - 1]
                                          * delta[i - 1, i - 1, k])
        c1 = c2
    return delta[n - 1, :, m]


def cumulant_rates_fd(build: Callable, orders=(1, 2, 3), step: float = 1e-2,
                      richardson: bool = True) -> dict:
    """Cumulant rates from chi-derivatives of the dominant eigenvalue.

    ``build(chi)`` must return a TruncatedLiouvillian; it is called once,
    at chi = 0, and every stencil point walks the dominant eigenvalue of
    that one generator from its single steady state.  Real-chi stencils
    (5-point for orders 1-2, 7-point above) are rotated by (-i)^k to convert
    d/d(chi) into d/d(i chi) derivatives; Richardson extrapolation combines
    steps h and h/2 for two extra orders of accuracy.  Eigenvalue
    evaluations are cached across stencils.
    """
    if step <= 0:
        raise InvalidParams(f"step must be positive, got {step}")
    for k in orders:
        if not 1 <= k <= 4:
            raise InvalidParams(f"orders must lie in 1..4, got {k}")
    lv = build(0.0)
    zero_mode = _zero_mode(lv)

    @cache
    def g(x: float) -> complex:
        return _follow_branch(lv, x, *zero_mode, _HOMOTOPY_STEP, _OVERLAP_MIN)

    def stencil(k: int, h: float) -> complex:
        half = 2 if k <= 2 else 3
        offs = np.arange(-half, half + 1)
        w = finite_difference_weights(k, offs)
        return sum(w[i] * g(float(offs[i] * h))
                   for i in range(offs.size)) / h ** k

    out = {}
    for k in orders:
        d_h = stencil(k, step)
        if richardson:
            d_half = stencil(k, step / 2)
            d_h = (16.0 * d_half - d_h) / 15.0
        out[k] = ((-1j) ** k * d_h).real
    return out
