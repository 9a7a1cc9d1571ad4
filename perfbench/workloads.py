"""Seeded request streams for the three benchmark workloads, with checks.

Each workload turns ``(seed, cycle)`` into a fixed-length cycle of requests.
The physical parameters of a cycle form a Latin hypercube, and each request
keeps a fixed slice of every size range (grid points, jet order, cutoff,
chi), so every cycle carries the same mix of small and large requests and a
run's cost depends little on the seed.

``execute`` is the timed part.  It calls the package through module
attributes (``cli.cmd_scan``, ``statistics.cumulants``, ``oracle.spsolve``
via the oracle functions ...), so the tracer's wrappers see every call.
``check`` runs after the clock has stopped and uses functions bound here at
import time, which tracing never replaces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from dicke_fcs import cli, oracle, statistics
from dicke_fcs.bogoliubov import frame_coefficients, numeric_diagonalize
from dicke_fcs.jets import CountingJet
from dicke_fcs.model import (ModelParams, Phase, classify_phase,
                             critical_couplings)
from dicke_fcs.prep_dynamics import (GaussianIC, evolve, log_gaussian_mass,
                                     ode_coefficients, steady_state)
from dicke_fcs.statistics import (cgf_finite_time, cumulants,
                                  fano_factors, mode_cgf_rate, occupations,
                                  occupations_from_state, relaxation_times,
                                  system_frame)

#: (omega0, omega, gamma) are drawn log-uniformly from 10**[-0.7, 0.7]
LOG_PARAM_SPAN = 0.7
FRAME_FIELDS = ("eps_minus", "eps_plus", "A", "B", "G", "D",
                "A2", "B2", "G2", "D2")
ULP = np.finfo(float).eps
#: redraws allowed before a point is given up as unreachable
MAX_DRAWS = 10000
#: relative agreement of a transient output with the check's own
#: integration of the same request (same jet order, same steps)
TRAJECTORY_TOL = 1e-8


@dataclass
class Request:
    kind: str
    args: dict = field(default_factory=dict)
    points: int = 0


def _lhs(rng, n: int, dims: int) -> np.ndarray:
    """Latin hypercube of n points in [0, 1)^dims: every column puts one
    draw in each of n equal slices, in its own seeded order."""
    slices = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (slices + rng.random((n, dims))) / n


def _sizes(rng, n: int, stride: int) -> np.ndarray:
    """Draw i falls in slice (stride * i) mod n of [0, 1).  The slice each
    request gets is fixed, so the pairing of sizes within a cycle (points
    with jet order, cutoff with chi ...) never depends on the seed."""
    return ((stride * np.arange(n)) % n + rng.random(n)) / n


def _rates(u) -> tuple:
    """(omega0, omega, gamma), log-uniform, from three uniforms."""
    return tuple(10.0 ** (LOG_PARAM_SPAN * (2.0 * np.asarray(u) - 1.0)))


def _stable_point(u, superradiant: bool, j_atoms: float = 0.5,
                  hi: float = 2.0) -> ModelParams:
    """A point at least 5% inside a stable phase, from four uniforms."""
    omega0, omega, gamma = _rates(u[:3])
    cc = critical_couplings(ModelParams(omega0, omega, 0.0, gamma))
    if superradiant:
        lam = cc.lambda3 * (1.05 + (hi - 1.05) * u[3])
    else:
        lam = cc.lambda1 * (0.05 + 0.9 * u[3])
    return ModelParams(omega0, omega, lam, gamma, j_atoms=j_atoms)


def _accepted_point(rng, u, accept, **kwargs):
    """The point at ``u`` if ``accept`` takes it, else the first accepted
    point of fresh draws."""
    for _ in range(MAX_DRAWS):
        params = _stable_point(u, **kwargs)
        found = accept(params)
        if found is not None:
            return found
        u = rng.random(4)
    raise RuntimeError(f"no accepted point in {MAX_DRAWS} draws")


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def _boundary_tolerance(params: ModelParams) -> float:
    """1e-10 relative, widened near the window edges by the conditioning.

    Within a relative distance delta of lambda1 or lambda3 the soft mode
    scales like delta^(1/2), so one rounding of the inputs moves the
    occupations and frame coefficients by ~ulp/delta; two exact routes can
    differ by that much.  100 ulp/delta is 2.2e-8 at delta = 1e-6.
    """
    cc = critical_couplings(params)
    delta = min(abs(params.lam / cc.lambda1 - 1.0),
                abs(params.lam / cc.lambda3 - 1.0))
    return 1e-10 + 100.0 * ULP / delta


class Workload:
    name = ""
    cycle_length = 0

    def cycle(self, rng, index: int) -> list:
        raise NotImplementedError

    def warm_up_requests(self) -> list:
        """Small requests of every kind, run once before timing."""
        raise NotImplementedError

    def schedule(self, seed: int):
        for index in itertools.count():
            rng = np.random.default_rng([seed, index])
            yield from self.cycle(rng, index)

    def execute(self, req: Request):
        raise NotImplementedError

    def check(self, req: Request, out) -> list:
        """Problems found in one request's output (empty when correct)."""
        raise NotImplementedError

    def reissue_check(self, req: Request, out):
        """Problems found by re-issuing the first request, or None for a
        workload that does not re-issue."""
        return None

    def warm_up(self):
        for req in self.warm_up_requests():
            self.execute(req)


# ---------------------------------------------------------------------------
# sweep: closed-form lambda scans through cli.cmd_scan
# ---------------------------------------------------------------------------

class Sweep(Workload):
    """One ``cli.cmd_scan`` per request over a grid in lambda2 units that
    runs from the normal phase through the undefined window into the
    superradiant phase.  One endpoint sits within ~1e-6 of lambda1 (even
    requests, and odd ones whose window is too wide to leave half the range
    to the normal phase) or of lambda3 (the other odd requests).  A request
    has 50-400 grid points outside the window and at most as many inside."""

    name = "sweep"
    cycle_length = 16

    def cycle(self, rng, index: int) -> list:
        n = self.cycle_length
        u = _lhs(rng, n, 5)
        u_points, u_order = _sizes(rng, n, 5), _sizes(rng, n, 7)
        out = []
        for i in range(n):
            omega0, omega, gamma = _rates(u[i, :3])
            cc = critical_couplings(ModelParams(omega0, omega, 0.0, gamma))
            r1, r3 = cc.lambda1 / cc.lambda2, cc.lambda3 / cc.lambda2
            near = 10.0 ** (-7.0 + u[i, 4])
            window = r3 - r1
            if i % 2 == 0 or 2.0 * window > r3 - 0.05 * r1:
                lo = r1 * (1.0 - near)
                hi = max(r3 * (1.2 + 1.8 * u[i, 3]), lo + 2.0 * window)
            else:
                hi = r3 * (1.0 + near)
                lo = min(r1 * (0.05 + 0.85 * u[i, 3]), hi - 2.0 * window)
            # the window takes at most half of the range, and the grid
            # gets enough points that `stable` of them lie outside it, so
            # the cost of a request hardly depends on its rates
            stable = 50 + int(350 * u_points[i])
            points = 1 + round((stable - 1) / (1.0 - window / (hi - lo)))
            cfg = cli.RunConfig(
                omega0=omega0, omega=omega, gamma=gamma,
                lambda_range=(lo, hi, points), lambda_units="lambda2",
                quantity=cli.QUANTITIES[(i // 2) % 4],
                jet_order=2 + int(7 * u_order[i]))
            out.append(Request("scan", {"cfg": cfg,
                                        "sample": rng.random()}, points))
        return out

    def warm_up_requests(self) -> list:
        return [Request("scan", {"cfg": cli.RunConfig(
            lambda_range=(0.5, 1.5, 8), lambda_units="lambda2",
            quantity=q, jet_order=4)}, 8) for q in cli.QUANTITIES]

    def execute(self, req: Request):
        return cli.cmd_scan(req.args["cfg"])

    def check(self, req: Request, out: str) -> list:
        cfg = req.args["cfg"]
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        columns = lines[0].split(",")
        rows = [ln.split(",") for ln in lines[1:]]
        problems = []
        if len(rows) != req.points:
            problems.append(f"{len(rows)} rows for {req.points} points")
        gap_at, err_at = columns.index("gap"), columns.index("error")
        fluct_at = (columns.index("fluct_1") if "fluct_1" in columns
                    else None)
        macro_at = columns.index("macro_1") if fluct_at is not None else None
        stable = []
        for row in rows:
            params = ModelParams(cfg.omega0, cfg.omega, float(row[0]),
                                 cfg.gamma, j_atoms=cfg.j)
            if row[err_at]:
                problems.append(f"row lambda={row[0]} error {row[err_at]}")
                continue
            in_gap = classify_phase(params) is Phase.GAP
            if row[gap_at] != ("1" if in_gap else "0"):
                problems.append(f"row lambda={row[0]} gap={row[gap_at]} "
                                f"but classify_phase gap={in_gap}")
            if in_gap:
                continue
            stable.append((params, row))
            if fluct_at is not None:
                # cumulants() forms the fluctuation part as total - macro,
                # which rounds at the scale of the macroscopic cumulant
                # (~2j |alpha|^2, large at the CLI default j = 1e6)
                want = cfg.gamma * occupations(params).photon_fluct
                got = float(row[fluct_at])
                allowed = (_boundary_tolerance(params) * max(1.0, abs(want))
                           + 8.0 * ULP * abs(float(row[macro_at])))
                if not abs(got - want) <= allowed:
                    problems.append(f"row lambda={row[0]} fluct_1="
                                    f"{row[fluct_at]} != gamma*photon_fluct"
                                    f"={want!r}")
        if stable:
            params, row = stable[int(req.args["sample"] * len(stable))]
            tol = _boundary_tolerance(params)
            quad = system_frame(params).quadratic
            closed = frame_coefficients(quad)
            numeric = numeric_diagonalize(quad)
            for name in FRAME_FIELDS:
                a, b = getattr(closed, name), getattr(numeric, name)
                if not _close(a, b, tol):
                    problems.append(f"frame {name} closed={a!r} "
                                    f"numeric={b!r} at lam={params.lam!r}")
            for name, want in self._reference_columns(cfg, params, numeric):
                got = float(row[columns.index(name)])
                if not _close(got, want, tol):
                    problems.append(f"row lambda={row[0]} {name}={got!r} "
                                    f"!= {want!r}")
        return problems

    @staticmethod
    def _reference_columns(cfg, params, numeric) -> list:
        """(column, value) pairs of one stable row, recomputed: energies
        from the numeric diagonalisation, the rest from the package's
        statistics functions bound at import."""
        n_atoms = 2.0 * cfg.j
        if cfg.quantity == "energies":
            return [("eps_minus", numeric.eps_minus),
                    ("eps_plus", numeric.eps_plus)]
        if cfg.quantity == "occupations":
            occ = occupations(params)
            return [("photon_fluct", occ.photon_fluct),
                    ("atom_fluct", occ.atom_fluct),
                    ("photon_macro_per_atom", occ.photon_macro / n_atoms),
                    ("atom_macro_per_atom", occ.atom_macro / n_atoms),
                    ("photon_macro", occ.photon_macro),
                    ("atom_macro", occ.atom_macro)]
        cs = cumulants(params, order=max(1, cfg.jet_order - 1))
        if cfg.quantity == "fano":
            return [(f"fano_{k}", v) for k, v in fano_factors(cs).items()]
        return ([(f"fluct_{k}", cs.fluctuation[k]) for k in cs.orders]
                + [(f"macro_per_atom_{k}", cs.macroscopic[k] / n_atoms)
                   for k in cs.orders]
                + [(f"macro_{k}", cs.macroscopic[k]) for k in cs.orders])

    def reissue_check(self, req: Request, out: str) -> list:
        if self.execute(req) != out:
            return ["re-issued scan is not byte-identical"]
        return []


# ---------------------------------------------------------------------------
# transient: jet-valued ODE integration from Gaussian starts
# ---------------------------------------------------------------------------

class Transient(Workload):
    """Finite-time cumulants: ``statistics.cumulants(p, t, ic)`` on six of
    every eight requests and ``cli.cmd_evolve`` on the other two.  Phases
    alternate; t is log-uniform in [1, 20 max(tau1, tau2)], and every
    fourth request uses the upper end so the attractor check applies.
    Points whose 20 max(tau1, tau2) exceeds ``T_LONG_MAX`` are redrawn."""

    name = "transient"
    cycle_length = 8
    #: nearly decoupled modes relax over 1e4-1e6 time units and one
    #: integration would take seconds; such points are redrawn
    T_LONG_MAX = 100.0

    def _horizon(self, params):
        """(params, 20 max(tau1, tau2)) when that horizon is short enough."""
        times = relaxation_times(system_frame(params).frame,
                                 params.gamma_loss)
        t_long = 20.0 * max(times.tau1, times.tau2)
        return (params, t_long) if t_long <= self.T_LONG_MAX else None

    def cycle(self, rng, index: int) -> list:
        n = self.cycle_length
        u = _lhs(rng, n, 6)
        u_order, u_samples = _sizes(rng, n, 3), _sizes(rng, n, 5)
        out = []
        for i in range(n):
            params, t_long = _accepted_point(rng, u[i, :4], self._horizon,
                                             superradiant=i % 2 == 1)
            t = t_long if i % 4 == 0 else t_long ** u[i, 4]
            width = 10.0 ** (-1.0 + math.log10(20.0) * u[i, 5])
            order = 2 + int(7 * u_order[i])
            if i % 4 == 3:
                cfg = cli.RunConfig(
                    omega0=params.omega0, omega=params.omega,
                    gamma=params.gamma_loss, lam=params.lam, t_max=t,
                    samples=21 + int(181 * u_samples[i]), jet_order=order,
                    ic_width=width, j=params.j_atoms)
                ic = GaussianIC(epsilon_width=width)
                out.append(Request("evolve", {"cfg": cfg, "params": params,
                                              "ic": ic, "t": t,
                                              "t_long": t_long}))
            else:
                disp = rng.uniform(-1.0, 1.0, 4) / math.sqrt(2.0)
                ic = GaussianIC(epsilon_width=width,
                                gamma1_0=complex(disp[0], disp[1]),
                                gamma2_0=complex(disp[2], disp[3]))
                # cumulants() carries one guard order, so its jets have
                # the same order as cmd_evolve's
                out.append(Request("cumulants", {
                    "params": params, "ic": ic, "t": t, "t_long": t_long,
                    "order": order - 1, "check_cgf": i % 4 == 2}))
        return out

    def warm_up_requests(self) -> list:
        params = ModelParams(0.5, 2.0, 0.2, 1.0)
        cfg = cli.RunConfig(lam=0.2, t_max=1.0, samples=3, jet_order=2)
        return [Request("cumulants", {"params": params, "t": 1.0,
                                      "ic": GaussianIC(0.5), "order": 2}),
                Request("evolve", {"cfg": cfg})]

    def execute(self, req: Request):
        a = req.args
        if req.kind == "evolve":
            return cli.cmd_evolve(a["cfg"])
        return statistics.cumulants(a["params"], t=a["t"], ic=a["ic"],
                                    order=a["order"])

    def check(self, req: Request, out) -> list:
        a = req.args
        params, ic, t = a["params"], a["ic"], a["t"]
        problems = []
        # the request's own trajectory: same jet order, hence same steps
        order = a["cfg"].jet_order if req.kind == "evolve" else a["order"] + 1
        sf = system_frame(params)
        alpha_ext = (abs(sf.mean_field.sqrt_alpha_intensive) ** 2
                     * 2.0 * params.j_atoms)
        coeffs = ode_coefficients(sf.frame, params.gamma_loss,
                                  alpha_abs=alpha_ext, order=order)
        samples = a["cfg"].samples if req.kind == "evolve" else 21
        path = evolve(ic, coeffs, t, sf.frame,
                      t_eval=np.linspace(0.0, t, samples))
        drift = max(abs(log_gaussian_mass(s).coefficients[0]) for s in path)
        if not drift < 1e-8:
            problems.append(f"log-trace drift {drift:.3e} >= 1e-8")
        if t >= a["t_long"]:
            target = steady_state(coeffs)
            for name in ("d1", "d2"):
                got = 1.0 / getattr(path[-1], name).coefficients[0]
                want = 1.0 / getattr(target, name).coefficients[0]
                if not _close(got, want, 1e-8):
                    problems.append(f"width 1/{name}={got!r} != steady "
                                    f"{want!r} at t={t:g}")

        def cgf(state):
            return -state.time * coeffs.drive_rate + log_gaussian_mass(state)

        if req.kind == "evolve":
            rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
            if len(rows) - 1 != samples:
                return problems + [f"{len(rows) - 1} rows for "
                                   f"{samples} samples"]
            for row, state in zip(rows[1:], path):
                got = [float(x) for x in row.split(",")]
                jet = cgf(state)
                want = ([state.time]
                        + list(occupations_from_state(sf.frame, state))
                        + [jet.derivative(k).real
                           for k in range(1, order + 1)])
                bad = [(g, w) for g, w in zip(got, want)
                       if not _close(g, w, TRAJECTORY_TOL)]
                if bad or len(got) != len(want):
                    problems.append(f"evolve row t={row.split(',')[0]}: "
                                    f"{bad[:1]} (got, recomputed)")
                    break
        else:
            jet = cgf(path[-1])
            for k in out.orders:
                want = jet.derivative(k).real
                if not _close(out.total(k), want, TRAJECTORY_TOL):
                    problems.append(f"cumulant {k} total {out.total(k)!r} "
                                    f"!= trajectory {want!r}")
            if a["check_cgf"]:
                cgf1 = cgf_finite_time(params, 1, t, ic=ic)
                if cgf1.coefficients[0] != 0:
                    problems.append(f"F(0,t)={cgf1.coefficients[0]!r}")
                if not _close(cgf1.derivative(1).real, out.total(1), 1e-6):
                    problems.append(
                        f"order-1 cumulant {cgf1.derivative(1).real!r} != "
                        f"order-{a['order']} run {out.total(1)!r}")
        return problems


# ---------------------------------------------------------------------------
# oracle: brute-force Liouvillians
# ---------------------------------------------------------------------------

def _thermal_tail(frame, mode: int, cutoff: int) -> float:
    cool, heat = ((frame.A ** 2, frame.B ** 2) if mode == 1
                  else (frame.G ** 2, frame.D ** 2))
    nbar = heat / (cool - heat)
    return (nbar / (1.0 + nbar)) ** (cutoff + 1)


class Oracle(Workload):
    """A fixed mix per cycle of 20: one finite-j steady state at j = 3
    (cutoff 8-10), one ``cumulant_rates_fd`` call, nine small finite-j
    steady states (j = 1/2 .. 2, cutoff 8-12) and nine RWA dominant
    eigenvalues (cutoff 20-60, chi in [0.05, 1]).  Phases alternate."""

    name = "oracle"
    cycle_length = 20
    SMALL_J = (0.5, 1.0, 1.5, 2.0)
    #: the truncated thermal tail beyond the cutoff stays below this, so
    #: the RWA eigenvalue is converged well inside the 1e-6 check
    TAIL_MAX = 1e-12

    def _fits(self, cutoff: int):
        """Accept a finite-j point whose photon number fits the cutoff (the
        oracle refuses one that needs more than cutoff/4)."""
        def accept(params):
            occ = occupations(params)
            fits = occ.photon_fluct + occ.photon_macro <= cutoff / 4
            return params if fits else None
        return accept

    def _converged(self, mode: int, cutoff: int):
        """Accept a point whose thermal tail beyond the cutoff is small."""
        def accept(params):
            frame = system_frame(params).frame
            if _thermal_tail(frame, mode, cutoff) <= self.TAIL_MAX:
                return params, frame
            return None
        return accept

    def cycle(self, rng, index: int) -> list:
        u = _lhs(rng, 19, 4)
        u_small, u_rwa, u_chi = _sizes(rng, 9, 2), _sizes(rng, 9, 1), \
            _sizes(rng, 9, 4)
        big_cutoff = 8 + index % 3
        out = [Request("steady", {"params": _accepted_point(
            rng, u[18], self._fits(big_cutoff), superradiant=index % 2 == 1,
            j_atoms=3.0, hi=1.5), "cutoff": big_cutoff})]
        for i in range(9):
            superradiant = i % 2 == 1
            cutoff = 8 + int(5 * u_small[i])
            out.append(Request("steady", {"params": _accepted_point(
                rng, u[i], self._fits(cutoff), superradiant=superradiant,
                j_atoms=self.SMALL_J[i % 4], hi=1.5), "cutoff": cutoff}))
            mode, cutoff = 1 + i % 2, 20 + int(41 * u_rwa[i])
            params, frame = _accepted_point(
                rng, u[9 + i], self._converged(mode, cutoff),
                superradiant=not superradiant, hi=3.0)
            out.append(Request("eigenvalue", {
                "frame": frame, "gamma": params.gamma_loss, "mode": mode,
                "chi": 0.05 + 0.95 * u_chi[i], "cutoff": cutoff}))
            if i == 4:
                mode, cutoff = 1 + index % 2, 12 + int(19 * rng.random())
                params, frame = _accepted_point(
                    rng, rng.random(4), self._converged(mode, cutoff),
                    superradiant=index % 2 == 0, hi=3.0)
                out.append(Request("fd", {
                    "frame": frame, "gamma": params.gamma_loss,
                    "mode": mode, "cutoff": cutoff}))
        return out

    def warm_up_requests(self) -> list:
        frame = system_frame(ModelParams(0.5, 2.0, 0.2, 1.0)).frame
        return [Request("steady", {"params": ModelParams(0.5, 2.0, 0.2, 1.0),
                                   "cutoff": 4}),
                Request("eigenvalue", {"frame": frame, "gamma": 1.0,
                                       "mode": 1, "chi": 0.2, "cutoff": 6})]

    def execute(self, req: Request):
        a = req.args
        if req.kind == "steady":
            lv = oracle.build_dicke_liouvillian(a["params"], a["cutoff"])
            return lv.side, oracle.steady_state_vector(lv)
        if req.kind == "eigenvalue":
            lv = oracle.build_rwa_liouvillian(a["frame"], a["mode"],
                                              a["gamma"], a["chi"],
                                              a["cutoff"])
            return oracle.dominant_eigenvalue(lv)
        return oracle.cumulant_rates_fd(
            lambda chi: oracle.build_rwa_liouvillian(
                a["frame"], a["mode"], a["gamma"], chi, a["cutoff"]),
            orders=(1, 2, 3))

    def check(self, req: Request, out) -> list:
        a = req.args
        if req.kind == "steady":
            side, vec = out
            populations = vec[:: side + 1]
            trace = populations.sum()
            if not (np.all(np.isfinite(vec)) and abs(trace - 1.0) < 1e-8
                    and populations.real.min() > -1e-8):
                return [f"steady state not a density matrix "
                        f"(trace {trace!r}, min population "
                        f"{populations.real.min()!r})"]
            return []
        if req.kind == "eigenvalue":
            want = mode_cgf_rate(a["frame"], a["gamma"], a["mode"], a["chi"])
            if not abs(out - want) < 1e-6:
                return [f"RWA eigenvalue {out!r} != mode_cgf_rate {want!r}"]
            return []
        jet = mode_cgf_rate(a["frame"], a["gamma"], a["mode"],
                            CountingJet.variable(4))
        problems = []
        for k, got in out.items():
            want = jet.derivative(k).real
            if not abs(got - want) <= 1e-5 * abs(want) + 1e-12:
                problems.append(f"fd cumulant {k}: {got!r} != {want!r}")
        return problems


WORKLOADS = {w.name: w for w in (Sweep, Transient, Oracle)}
