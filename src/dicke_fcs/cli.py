"""Command-line front end: sweeps, time traces and verification suites.

All frequencies are dimensionless; the built-in defaults use the loss rate
as the unit (omega = 2, omega0 = 0.5, gamma = 1).  Output is CSV with a
``#``-prefixed preamble echoing the fully resolved configuration, formatted
with 17 significant digits so reruns are byte-identical.  Sweep points are
independent of each other (a pure map over the grid); rows are written in
grid order and per-point failures go to an ``error`` column instead of
aborting the sweep.

Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import statistics as stats
from .bogoliubov import numeric_diagonalize
from .errors import DickeFcsError
from .jets import CountingJet
from .model import ModelParams, Phase, classify_phase, critical_couplings
from .oracle import (build_dicke_liouvillian, build_rwa_liouvillian,
                     dominant_eigenvalue, steady_state_vector)
from .prep_dynamics import (GaussianIC, PState, evolve, log_gaussian_mass,
                            ode_coefficients, propagate, steady_a_rate,
                            steady_state)

__all__ = ["RunConfig", "main", "cmd_criticals", "cmd_scan", "cmd_evolve",
           "cmd_verify"]

QUANTITIES = ("energies", "occupations", "cumulants", "fano")
SUITES = ("all", "diagonalizer", "prep-steady", "rwa-oracle", "finite-j")
VERIFY_SEED = 20260814


@dataclass
class RunConfig:
    """Fully resolved run configuration (defaults = the sweep-figure set)."""

    omega0: float = 0.5
    omega: float = 2.0
    gamma: float = 1.0
    lam: float | None = None
    lambda_range: tuple | None = None      # (lo, hi, n)
    lambda_units: str = "absolute"         # or "lambda2"
    lambda_scale: str = "linear"           # or "log"
    quantity: str = "energies"
    t_max: float | None = None
    samples: int = 200
    jet_order: int = 6
    j: float = 1e6
    rwa_cutoff: int = 60
    photon_cutoff: int = 24
    ic_width: float = 1.0
    sign_branch: int = 1
    suite: str = "all"
    out: str = "-"


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


def _parse_lambda_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--lambda-range expects A:B:N, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --lambda-range {text!r}: {exc}") from None
    if n < 2:
        raise UsageError(f"sweep needs at least 2 points, got {n}")
    return lo, hi, n


_FIELD_PARSERS = {
    "omega0": float, "omega": float, "gamma": float, "lam": float,
    "lambda_range": _parse_lambda_range, "lambda_units": str,
    "lambda_scale": str, "quantity": str, "t_max": float, "samples": int,
    "jet_order": int, "j": float, "rwa_cutoff": int, "photon_cutoff": int,
    "ic_width": float, "sign_branch": int, "suite": str, "out": str,
}
_KEY_ALIASES = {"lambda": "lam"}


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = _KEY_ALIASES.get(key.strip(), key.strip())
            if key not in _FIELD_PARSERS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _FIELD_PARSERS[key](value.strip())
            except (ValueError, UsageError) as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from None
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    layers = []
    if getattr(args, "config", None):
        layers.append(_read_config_file(args.config))
    flag_layer = {name: getattr(args, name)
                  for name in _FIELD_PARSERS
                  if getattr(args, name, None) is not None}
    layers.append(flag_layer)
    for layer in layers:
        for key, value in layer.items():
            setattr(cfg, key, value)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig):
    if cfg.quantity not in QUANTITIES:
        raise UsageError(f"quantity must be one of {QUANTITIES}, "
                         f"got {cfg.quantity!r}")
    if cfg.suite not in SUITES:
        raise UsageError(f"suite must be one of {SUITES}, got {cfg.suite!r}")
    if cfg.lambda_units not in ("absolute", "lambda2"):
        raise UsageError(f"lambda_units must be absolute or lambda2, "
                         f"got {cfg.lambda_units!r}")
    if cfg.lambda_scale not in ("linear", "log"):
        raise UsageError(f"lambda_scale must be linear or log, "
                         f"got {cfg.lambda_scale!r}")
    if cfg.samples < 2:
        raise UsageError(f"samples must be >= 2, got {cfg.samples}")
    if cfg.jet_order < 1:
        raise UsageError(f"jet order must be >= 1, got {cfg.jet_order}")
    if cfg.sign_branch not in (1, -1):
        raise UsageError(f"sign_branch must be +1 or -1, "
                         f"got {cfg.sign_branch}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, tuple):
        return ":".join(_fmt(v) for v in value)
    return format(float(value), ".17g")


def _config_header(cfg: RunConfig) -> list:
    lines = []
    for field in dataclasses.fields(RunConfig):
        lines.append(f"# {field.name} = {_fmt(getattr(cfg, field.name))}")
    return lines


def _base_params(cfg: RunConfig, lam: float) -> ModelParams:
    return ModelParams(omega0=cfg.omega0, omega=cfg.omega, lam=lam,
                       gamma_loss=cfg.gamma, j_atoms=cfg.j)


# ---------------------------------------------------------------------------
# criticals
# ---------------------------------------------------------------------------

def cmd_criticals(cfg: RunConfig) -> str:
    params = _base_params(cfg, cfg.lam if cfg.lam is not None else 0.0)
    crit = critical_couplings(params)
    lines = _config_header(cfg)
    lines.append(f"lambda1 = {_fmt(crit.lambda1)}")
    lines.append(f"lambda2 = {_fmt(crit.lambda2)}")
    lines.append(f"lambda3 = {_fmt(crit.lambda3)}")
    if cfg.gamma == 0:
        lines.append("note: closed system (gamma = 0); all three critical "
                     "couplings coincide at the equilibrium value")
    else:
        lines.append("phases: normal for lambda < lambda1; undefined window "
                     "for lambda1 <= lambda <= lambda3; superradiant for "
                     "lambda > lambda3")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _lambda_grid(cfg: RunConfig) -> np.ndarray:
    lo, hi, n = cfg.lambda_range
    if cfg.lambda_scale == "log":
        if lo <= 0 or hi <= 0:
            raise UsageError("log lambda scale needs positive endpoints")
        grid = np.geomspace(lo, hi, n)
    else:
        grid = np.linspace(lo, hi, n)
    if cfg.lambda_units == "lambda2":
        lam2 = critical_couplings(_base_params(cfg, 0.0)).lambda2
        grid = grid * lam2
    return grid


def _scan_columns(cfg: RunConfig) -> list:
    orders = range(1, max(2, cfg.jet_order))
    if cfg.quantity == "energies":
        values = ["eps_minus", "eps_plus"]
    elif cfg.quantity == "occupations":
        values = ["photon_fluct", "atom_fluct",
                  "photon_macro_per_atom", "atom_macro_per_atom",
                  "photon_macro", "atom_macro"]
    elif cfg.quantity == "cumulants":
        values = [f"fluct_{k}" for k in orders]
        values += [f"macro_per_atom_{k}" for k in orders]
        values += [f"macro_{k}" for k in orders]
    else:
        values = [f"fano_{k}" for k in orders]
    return ["lambda", "lambda_over_lambda2", "gap"] + values + ["error"]


def _scan_point(cfg: RunConfig, lam: float, n_values: int) -> list:
    n_atoms = 2.0 * cfg.j
    try:
        params = _base_params(cfg, lam)
        lam2 = critical_couplings(params).lambda2
        rel = lam / lam2
        if classify_phase(params) is Phase.GAP:
            return [lam, rel, 1] + [None] * n_values + [""]
        cells = [lam, rel, 0]
        if cfg.quantity == "energies":
            sf = stats.system_frame(params, cfg.sign_branch)
            values = [sf.frame.eps_minus, sf.frame.eps_plus]
        elif cfg.quantity == "occupations":
            occ = stats.occupations(params, sign_branch=cfg.sign_branch)
            values = [occ.photon_fluct, occ.atom_fluct,
                      occ.photon_macro / n_atoms, occ.atom_macro / n_atoms,
                      occ.photon_macro, occ.atom_macro]
        else:
            cs = stats.cumulants(params, order=max(1, cfg.jet_order - 1),
                                 sign_branch=cfg.sign_branch)
            if cfg.quantity == "fano":
                values = list(stats.fano_factors(cs).values())
            else:
                values = [cs.fluctuation[k] for k in cs.orders]
                values += [cs.macroscopic[k] / n_atoms for k in cs.orders]
                values += [cs.macroscopic[k] for k in cs.orders]
    except DickeFcsError as exc:
        return [lam, None, None] + [None] * n_values + [type(exc).__name__]
    return cells + values + [""]


def cmd_scan(cfg: RunConfig) -> str:
    if cfg.lambda_range is None:
        raise UsageError("scan requires --lambda-range A:B:N")
    columns = _scan_columns(cfg)
    n_values = len(columns) - 4          # minus lambda, rel, gap, error
    rows = [_scan_point(cfg, float(lam), n_values)
            for lam in _lambda_grid(cfg)]
    lines = _config_header(cfg)
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def cmd_evolve(cfg: RunConfig) -> str:
    if cfg.lam is None:
        raise UsageError("evolve requires --lambda")
    lam = cfg.lam
    if cfg.lambda_units == "lambda2":
        lam *= critical_couplings(_base_params(cfg, 0.0)).lambda2
    params = _base_params(cfg, lam)
    sf = stats.system_frame(params, cfg.sign_branch)
    times = stats.relaxation_times(sf.frame, cfg.gamma)
    t_max = cfg.t_max
    if t_max is None:
        t_max = 20.0 * max(times.tau1, times.tau2)
    if not math.isfinite(t_max) or t_max <= 0:
        raise UsageError(f"t_max must be positive and finite, got {t_max}")
    parts = stats._finite_time_parts(
        params, sf, GaussianIC(epsilon_width=cfg.ic_width),
        np.linspace(0.0, t_max, cfg.samples), cfg.jet_order)

    orders = range(1, cfg.jet_order + 1)
    columns = (["t", "photon_occupation", "atom_occupation"]
               + [f"cumulant_{k}" for k in orders])
    lines = _config_header(cfg)
    lines.append(",".join(columns))
    for state, macro, fluct in parts:
        occ1, occ2 = stats.occupations_from_state(sf.frame, state)
        f_jet = macro + fluct
        cums = [f_jet.derivative(k).real for k in orders]
        lines.append(",".join(_fmt(c)
                              for c in [state.time, occ1, occ2] + cums))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(name: str, ok: bool, detail: str) -> tuple:
    return (name, bool(ok), detail)


def _pick_normal_lambda(cfg: RunConfig) -> float:
    if cfg.lam is not None:
        return cfg.lam
    return 0.6 * critical_couplings(_base_params(cfg, 0.0)).lambda1


def _suite_diagonalizer(cfg: RunConfig) -> list:
    rng = np.random.default_rng(VERIFY_SEED)
    worst = 0.0
    n_points = 200
    for i in range(n_points):
        omega0, omega, gamma = 10.0 ** rng.uniform(-0.7, 0.7, size=3)
        probe = ModelParams(omega0=omega0, omega=omega, lam=0.0,
                            gamma_loss=gamma)
        crit = critical_couplings(probe)
        if i % 2 == 0:
            lam = crit.lambda1 * rng.uniform(0.05, 0.95)
        else:
            lam = crit.lambda3 * rng.uniform(1.05, 3.0)
        params = dataclasses.replace(probe, lam=lam)
        sf = stats.system_frame(params)
        closed = sf.frame
        numeric = numeric_diagonalize(sf.quadratic)
        for field in ("eps_minus", "eps_plus", "A", "B", "G", "D",
                      "A2", "B2", "G2", "D2"):
            worst = max(worst,
                        abs(getattr(closed, field) - getattr(numeric, field)))
    ok = worst < 1e-10
    return [_check("diagonalizer/closed-vs-numeric", ok,
                   f"max_residual={worst:.3e} tol=1e-10 points={n_points}")]


def _transient_horizon(ic: GaussianIC, target, rates, floor: float) -> float:
    """Time by which every transient of the seven-ODE system has decayed
    below ``floor``, from the known exponential rates: each width relaxes at
    the full mode rate, each displacement at half of it."""
    t_req = 0.0
    for d_jet, gamma0, rate in ((target.d1, ic.gamma1_0, rates[0]),
                                (target.d2, ic.gamma2_0, rates[1])):
        d_star = d_jet.coefficients[0].real
        amp_width = abs(ic.epsilon_width - 1.0 / d_star) * d_star ** 2
        amp_disp = abs(gamma0) / ic.epsilon_width
        if amp_width > floor:
            t_req = max(t_req, math.log(amp_width / floor) / rate)
        if amp_disp > floor:
            t_req = max(t_req, 2.0 * math.log(amp_disp / floor) / rate)
    return t_req


def _closed_vs_ode_gap(closed: PState, ode: PState) -> float:
    """Largest gap between a closed-form and an ODE state, relative to
    max(1, |ODE value|): the log-mass jet to every order and each of the
    seven coefficients at s = 0."""
    pairs = [(log_gaussian_mass(closed).coefficients,
              log_gaussian_mass(ode).coefficients)]
    pairs += [(getattr(closed, f).coefficients[:1],
               getattr(ode, f).coefficients[:1])
              for f in ("a", "b1", "b2", "c1", "c2", "d1", "d2")]
    return max(float(np.max(np.abs(c - o) / np.maximum(1.0, np.abs(o))))
               for c, o in pairs)


def _suite_prep_steady(cfg: RunConfig) -> list:
    params = _base_params(cfg, _pick_normal_lambda(cfg))
    sf = stats.system_frame(params, cfg.sign_branch)
    coeffs = ode_coefficients(sf.frame, cfg.gamma, order=cfg.jet_order)
    times = stats.relaxation_times(sf.frame, cfg.gamma)
    target = steady_state(coeffs)
    rates = (cfg.gamma * math.cos(sf.frame.gamma_angle) ** 2,
             cfg.gamma * math.sin(sf.frame.gamma_angle) ** 2)
    checks = []
    gap = 0.0
    ics = (GaussianIC(epsilon_width=1.0),
           GaussianIC(epsilon_width=0.25, gamma1_0=1.0 + 0.5j,
                      gamma2_0=-0.3 + 0.2j))
    for idx, ic in enumerate(ics, 1):
        t_end = max(20.0 * max(times.tau1, times.tau2),
                    _transient_horizon(ic, target, rates, 1e-10))
        grid = np.linspace(0.0, t_end, 21)
        trajectory = evolve(ic, coeffs, t_end, sf.frame, t_eval=grid,
                            rtol=1e-12, atol=1e-15)
        final = trajectory[-1]
        resid = max(
            abs(final.d1.coefficients[0] - target.d1.coefficients[0]),
            abs(final.d2.coefficients[0] - target.d2.coefficients[0]),
            abs(final.b1.coefficients[0]), abs(final.b2.coefficients[0]),
            abs(final.c1.coefficients[0]), abs(final.c2.coefficients[0]))
        checks.append(_check(
            f"prep-steady/ic{idx}-attractor", resid < 1e-8,
            f"residual={resid:.3e} tol=1e-8 t={t_end:.3g}"))
        drift = max(abs(log_gaussian_mass(s).coefficients[0])
                    for s in trajectory)
        checks.append(_check(
            f"prep-steady/ic{idx}-trace", drift < 1e-8,
            f"max_drift={drift:.3e} tol=1e-8"))
        for closed, ode in zip(propagate(ic, coeffs, grid), trajectory):
            gap = max(gap, _closed_vs_ode_gap(closed, ode))
    checks.append(_check(
        "prep-steady/closed-vs-ode", gap < 1e-10,
        f"max_gap={gap:.3e} tol=1e-10 ics={len(ics)}"))
    rate = steady_a_rate(coeffs)
    closed = stats.mode_cgf_rate(sf.frame, cfg.gamma, 1,
                                 CountingJet.variable(cfg.jet_order)) \
        + stats.mode_cgf_rate(sf.frame, cfg.gamma, 2,
                              CountingJet.variable(cfg.jet_order))
    resid = np.abs(rate.coefficients + closed.coefficients).max()
    checks.append(_check(
        "prep-steady/rate-identity", resid < 5e-13,
        f"residual={resid:.3e} tol=5e-13"))
    return checks


def _suite_rwa_oracle(cfg: RunConfig) -> list:
    params = _base_params(cfg, _pick_normal_lambda(cfg))
    sf = stats.system_frame(params, cfg.sign_branch)
    checks = []
    for chi in (0.05, 0.1, 0.2, 0.4):
        lv = build_rwa_liouvillian(sf.frame, 1, cfg.gamma, chi,
                                   cfg.rwa_cutoff)
        eig = dominant_eigenvalue(lv)
        closed = stats.mode_cgf_rate(sf.frame, cfg.gamma, 1, chi)
        resid = abs(eig - closed)
        checks.append(_check(
            f"rwa-oracle/chi={chi:g}", resid < 1e-6,
            f"residual={resid:.3e} tol=1e-6 cutoff={cfg.rwa_cutoff}"))
    return checks


def _emission_rate(params: ModelParams, cutoff: int) -> float:
    lv = build_dicke_liouvillian(params, cutoff, 0.0)
    rho_vec = steady_state_vector(lv)
    n_ph = cutoff + 1
    diag_n = np.tile(np.arange(n_ph, dtype=float), lv.side // n_ph)
    populations = rho_vec[:: lv.side + 1].real
    return params.gamma_loss * float(populations @ diag_n)


def _suite_finite_j(cfg: RunConfig) -> list:
    lam = _pick_normal_lambda(cfg)
    errors = {}
    for j in (1.0, 4.0):
        params = ModelParams(omega0=cfg.omega0, omega=cfg.omega, lam=lam,
                             gamma_loss=cfg.gamma, j_atoms=j)
        occ = stats.occupations(params, sign_branch=cfg.sign_branch)
        limit = cfg.gamma * (occ.photon_fluct + occ.photon_macro)
        rate = _emission_rate(params, cfg.photon_cutoff)
        errors[j] = (abs(rate - limit), abs(limit))
    improves = errors[4.0][0] < errors[1.0][0]
    rel4 = errors[4.0][0] / errors[4.0][1]
    return [
        _check("finite-j/monotone-approach", improves,
               f"err_j1={errors[1.0][0]:.3e} err_j4={errors[4.0][0]:.3e}"),
        _check("finite-j/j4-within-25pct", rel4 < 0.25,
               f"relative={rel4:.3e} tol=0.25 cutoff={cfg.photon_cutoff}"),
    ]


def cmd_verify(cfg: RunConfig) -> tuple:
    """Run the requested verification suite(s); returns (report, all_ok)."""
    suites = {
        "diagonalizer": _suite_diagonalizer,
        "prep-steady": _suite_prep_steady,
        "rwa-oracle": _suite_rwa_oracle,
        "finite-j": _suite_finite_j,
    }
    names = list(suites) if cfg.suite == "all" else [cfg.suite]
    lines = _config_header(cfg)
    all_ok = True
    n_pass = n_fail = 0
    for name in names:
        for check_name, ok, detail in suites[name](cfg):
            status = "PASS" if ok else "FAIL"
            lines.append(f"{status} {check_name} {detail}")
            all_ok &= ok
            n_pass += ok
            n_fail += not ok
    lines.append(f"SUMMARY pass={n_pass} fail={n_fail}")
    return "\n".join(lines) + "\n", all_ok


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--omega0", type=float)
    common.add_argument("--omega", type=float)
    common.add_argument("--gamma", type=float, help="photon loss rate")
    common.add_argument("--lambda", dest="lam", type=float,
                        help="coupling strength")
    common.add_argument("--lambda-range", dest="lambda_range",
                        type=_parse_lambda_range, metavar="A:B:N")
    common.add_argument("--lambda-units", dest="lambda_units",
                        choices=("absolute", "lambda2"))
    common.add_argument("--lambda-scale", dest="lambda_scale",
                        choices=("linear", "log"))
    common.add_argument("--quantity", choices=QUANTITIES)
    common.add_argument("--jet-order", dest="jet_order", type=int)
    common.add_argument("--j", type=float, help="spin j for extensive parts")
    common.add_argument("--t-max", dest="t_max", type=float)
    common.add_argument("--samples", type=int)
    common.add_argument("--ic-width", dest="ic_width", type=float)
    common.add_argument("--sign-branch", dest="sign_branch", type=int,
                        choices=(1, -1))
    common.add_argument("--rwa-cutoff", dest="rwa_cutoff", type=int)
    common.add_argument("--photon-cutoff", dest="photon_cutoff", type=int)
    common.add_argument("--suite", choices=SUITES)
    common.add_argument("--out", help="output path ('-' for stdout)")

    parser = _Parser(prog="dicke-fcs",
                     description="Photon counting statistics of the driven "
                                 "dissipative Dicke model")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    sub.add_parser("criticals", parents=[common],
                   help="print the three critical couplings")
    sub.add_parser("scan", parents=[common],
                   help="sweep lambda and emit a CSV of the chosen quantity")
    sub.add_parser("evolve", parents=[common],
                   help="time trace of occupations and cumulants")
    sub.add_parser("verify", parents=[common],
                   help="run self-verification suites against the oracles")
    return parser


def _write_output(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        if args.command == "criticals":
            text, ok = cmd_criticals(cfg), True
        elif args.command == "scan":
            text, ok = cmd_scan(cfg), True
        elif args.command == "evolve":
            text, ok = cmd_evolve(cfg), True
        else:
            text, ok = cmd_verify(cfg)
        _write_output(text, cfg.out)
    except (UsageError, DickeFcsError, OSError) as exc:
        print(f"dicke-fcs: error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
