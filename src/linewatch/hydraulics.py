"""Steady and transient 1D pipe flow: continuity, momentum, and energy.

The transient solver uses an implicit four-point box scheme, theta-weighted
in time, with Newton iteration on the full (P, V, T) nodal vector.  The
continuity equation is discretized in conservation form so the per-step
mass ledger (boundary fluxes vs. linepack change vs. leak draw) closes to
the Newton tolerance.  Leaks enter as constant mass-rate sinks at grid
nodes.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    ConfigurationError,
    InfeasibleScenarioError,
    InfeasibleStateError,
    SolverError,
)
from .fluid import FluidModel, LiquidEos, dP_dT_const_density
from .network import GRAVITY, Grid, PipelineModel, elevation_at

__all__ = [
    "TimeSeries",
    "BoundaryLeg",
    "BoundaryConditions",
    "LeakEvent",
    "SolverSettings",
    "GridState",
    "MassLedgerEntry",
    "StepResult",
    "PipeFlowSolver",
    "linepack",
    "modeled_profile",
]

_FD_EPS = 1e-7           # relative finite-difference step for the Jacobian
_STEADY_T_REG = 1e-8     # 1/s, regularizes the energy row at zero flow


class TimeSeries:
    """Piecewise-linear time series; constant outside its sample range."""

    def __init__(self, times, values):
        self.times = np.atleast_1d(np.asarray(times, dtype=float))
        self.values = np.atleast_1d(np.asarray(values, dtype=float))
        if self.times.size != self.values.size or self.times.size == 0:
            raise ConfigurationError("time series needs equal-length times and values")
        if np.any(np.diff(self.times) < 0):
            raise ConfigurationError("time series times must be non-decreasing")

    @classmethod
    def constant(cls, value):
        return cls([0.0], [float(value)])

    def at(self, t):
        return float(np.interp(t, self.times, self.values))

    def __repr__(self):
        if self.values.size == 1:
            return f"TimeSeries(constant {self.values[0]:g})"
        return f"TimeSeries({self.values.size} points)"


@dataclass(frozen=True)
class BoundaryLeg:
    """One end of the line: either pressure (Pa) or mass flow (kg/s) is held."""

    kind: str              # "pressure" | "flow"
    series: TimeSeries

    def __post_init__(self):
        if self.kind not in ("pressure", "flow"):
            raise ConfigurationError(f"boundary kind must be pressure or flow, got {self.kind!r}")


@dataclass(frozen=True)
class BoundaryConditions:
    inlet: BoundaryLeg
    outlet: BoundaryLeg
    temperature: TimeSeries            # K, applied at temperature_end
    temperature_end: str = "inlet"     # upwind end for the energy equation

    def __post_init__(self):
        if self.temperature_end not in ("inlet", "outlet"):
            raise ConfigurationError("temperature_end must be 'inlet' or 'outlet'")

    @property
    def has_pressure_anchor(self):
        return self.inlet.kind == "pressure" or self.outlet.kind == "pressure"


@dataclass(frozen=True)
class LeakEvent:
    """Constant mass-rate sink switching on at start_time."""

    position: float     # m from inlet, strictly interior
    start_time: float   # s
    mass_rate: float    # kg/s, >= 0

    def __post_init__(self):
        if self.mass_rate < 0:
            raise ConfigurationError(f"leak mass_rate must be >= 0, got {self.mass_rate}")

    def rate_at(self, t):
        return self.mass_rate if t >= self.start_time else 0.0


@dataclass(frozen=True)
class SolverSettings:
    dt: float = 1.0            # s
    theta: float = 0.6         # implicit weighting, [0.5, 1]
    newton_tol: float = 1e-10  # on scaled residuals
    newton_max_iter: int = 30

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be > 0, got {self.dt}")
        if not 0.5 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must be in [0.5, 1], got {self.theta}")
        if self.newton_tol <= 0:
            raise ConfigurationError("newton_tol must be > 0")


@dataclass(frozen=True)
class GridState:
    """Snapshot of the line at one model time."""

    t: float
    x: np.ndarray      # node positions, m
    P: np.ndarray      # Pa
    V: np.ndarray      # m/s
    T: np.ndarray      # K
    rho: np.ndarray    # kg/m^3


@dataclass(frozen=True)
class MassLedgerEntry:
    """Mass bookkeeping for one step, in the scheme's own flux weighting."""

    t_start: float
    t_end: float
    mass_in: float        # kg through the inlet face
    mass_out: float       # kg through the outlet face
    leak_mass: float      # kg drawn by leaks
    linepack_start: float  # kg
    linepack_end: float    # kg

    @property
    def residual(self):
        return (
            self.linepack_end
            - self.linepack_start
            - self.mass_in
            + self.mass_out
            + self.leak_mass
        )


@dataclass(frozen=True)
class StepResult:
    state: GridState
    ledger: MassLedgerEntry


def linepack(state: GridState, pipeline: PipelineModel):
    """Fluid inventory in kg: trapezoidal integral of rho*A over the line."""
    return pipeline.area * float(np.trapezoid(state.rho, state.x))


def modeled_profile(state: GridState, pipeline: PipelineModel):
    """Per-node (pressure Pa, mass flow kg/s) readout; pure projection."""
    return state.P.copy(), state.rho * state.V * pipeline.area


class PipeFlowSolver:
    """Implicit box-scheme solver bound to one pipeline/fluid/grid triple.

    A solver instance owns a cached Jacobian that is reused across Newton
    iterations and steps while convergence stays healthy; it is rebuilt
    automatically when progress stalls.  Instances are not thread-safe;
    run independent scenarios on independent solvers.
    """

    def __init__(self, pipeline: PipelineModel, fluid: FluidModel, grid: Grid,
                 settings: SolverSettings = SolverSettings()):
        self.pipeline = pipeline
        self.fluid = fluid
        self.grid = grid
        self.settings = settings

        self.x = grid.node_positions
        self.N = grid.node_count
        self.n_unknowns = 3 * self.N
        self.dxc = np.diff(self.x)
        self.A = pipeline.area
        self.D = pipeline.diameter
        xm = 0.5 * (self.x[:-1] + self.x[1:])
        self.f_cell = np.array([pipeline.friction_at(x) for x in xm])
        self.U_cell = np.array([pipeline.heat_transfer_at(x) for x in xm])
        H = elevation_at(pipeline, self.x)
        self.dHdx = np.diff(H) / self.dxc
        self.Tg = pipeline.Tg

        # Fixed unknown scales (P, V, T per node); residual row scales are
        # frozen on first use so a cached Jacobian stays consistent.
        self.u_scale = np.tile([1e5, 1.0, 100.0], self.N)
        self._mdot_scale = None
        self._P_scale = 1e5
        self._T_scale = 100.0

        self._structures = {}
        self._ab_cache = None
        self._cache_key = None

    # ---------------------------------------------------------------- public

    def steady_state(self, bc: BoundaryConditions, t=0.0, leaks=(), initial_guess=None):
        """Solve the zero-time-derivative problem; the returned state is a
        fixed point of :meth:`advance` under constant boundary conditions.

        ``initial_guess`` (a prior GridState) warm-starts Newton; useful
        when scanning many nearby steady problems.
        """
        if not bc.has_pressure_anchor:
            raise InfeasibleScenarioError(
                "steady state needs at least one pressure-specified boundary"
            )
        q = self._leak_cells(leaks, t)
        if initial_guess is not None:
            u0 = self._pack(initial_guess.P, initial_guess.V, initial_guess.T)
        else:
            u0 = self._steady_guess(bc, t)
        self._freeze_scales(u0)
        res = lambda u: self._residual(u, None, t, bc, q, None, steady=True, dt=None)
        key = ("steady", bc.temperature_end)
        u, _ = self._newton(u0, res, key, fresh_jacobian=initial_guess is None)
        state = self._state_from(u, t)
        self._check_physical(state, InfeasibleScenarioError)
        return state

    def advance(self, state: GridState, bc: BoundaryConditions, leaks=(), dt=None):
        """One implicit step from state.t to state.t + dt.

        Returns a StepResult carrying the new state and the step's mass
        ledger.  Raises SolverError (with residual history) on Newton
        failure and InfeasibleStateError if the new state is unphysical.
        """
        dt = self.settings.dt if dt is None else float(dt)
        t0, t1 = state.t, state.t + dt
        q_old = self._leak_cells(leaks, t0)
        q_new = self._leak_cells(leaks, t1)
        old = (state.P, state.V, state.T, state.rho)
        u0 = self._pack(state.P, state.V, state.T)
        self._freeze_scales(u0)
        res = lambda u: self._residual(u, old, t1, bc, q_new, q_old, steady=False, dt=dt)
        key = ("transient", bc.temperature_end, dt)
        u, _ = self._newton(u0, res, key, fresh_jacobian=False)
        new_state = self._state_from(u, t1)
        self._check_physical(new_state, InfeasibleStateError)

        th = self.settings.theta
        flux_new = self.A * new_state.rho * new_state.V
        flux_old = self.A * state.rho * state.V
        leak_total_new = float(np.sum(q_new))
        leak_total_old = float(np.sum(q_old))
        entry = MassLedgerEntry(
            t_start=t0,
            t_end=t1,
            mass_in=dt * (th * flux_new[0] + (1 - th) * flux_old[0]),
            mass_out=dt * (th * flux_new[-1] + (1 - th) * flux_old[-1]),
            leak_mass=dt * (th * leak_total_new + (1 - th) * leak_total_old),
            linepack_start=linepack(state, self.pipeline),
            linepack_end=linepack(new_state, self.pipeline),
        )
        return StepResult(state=new_state, ledger=entry)

    # ------------------------------------------------------------- residuals

    def _residual(self, u, old, t_new, bc, q_new, q_old, steady, dt):
        N = self.N
        P, V, T = u[0::3], u[1::3], u[2::3]
        with np.errstate(all="ignore"):
            rho = self._density_raw(P, T)

            if steady:
                th, invdt = 1.0, 0.0
                Po = Vo = To = rhoo = None
            else:
                th, invdt = self.settings.theta, 1.0 / dt
                Po, Vo, To, rhoo = old

            def mid(a):
                return 0.5 * (a[:-1] + a[1:])

            def bar(a_new, a_old):
                m = mid(a_new)
                return m if steady else th * m + (1 - th) * mid(a_old)

            def ddx(a_new, a_old):
                d = np.diff(a_new) / self.dxc
                return d if steady else th * d + (1 - th) * np.diff(a_old) / self.dxc

            Vb = bar(V, Vo)
            rb = bar(rho, rhoo)
            Tb = bar(T, To)
            Pb = bar(P, Po)

            flux = self.A * rho * V
            if steady:
                R_c = np.diff(flux) + q_new
            else:
                flux_o = self.A * rhoo * Vo
                R_c = (
                    self.dxc * self.A * (mid(rho) - mid(rhoo)) * invdt
                    + th * np.diff(flux)
                    + (1 - th) * np.diff(flux_o)
                    + (th * q_new + (1 - th) * q_old)
                )

            R_m = (
                (0.0 if steady else (mid(V) - mid(Vo)) * invdt)
                + Vb * ddx(V, Vo)
                + ddx(P, Po) / rb
                + GRAVITY * self.dHdx
                + self.f_cell * Vb * np.abs(Vb) / (2.0 * self.D)
            )

            c = self.fluid.c
            dPdT = dP_dT_const_density(self.fluid, Pb, Tb)
            R_e = (
                (0.0 if steady else (mid(T) - mid(To)) * invdt)
                + Vb * ddx(T, To)
                + (Tb / (rb * c)) * dPdT * ddx(V, Vo)
                - self.f_cell * np.abs(Vb) ** 3 / (2.0 * c * self.D)
                + (4.0 * self.U_cell / (rb * c * self.D)) * (Tb - self.Tg)
            )
            T_anchor = bc.temperature.at(t_new)
            if steady:
                R_e = R_e + _STEADY_T_REG * (Tb - T_anchor)

            # Boundary rows
            def leg_residual(leg, node):
                target = leg.series.at(t_new)
                if leg.kind == "pressure":
                    return (P[node] - target) / self._P_scale
                return (flux[node] - target) / self._mdot_scale

            r_in = leg_residual(bc.inlet, 0)
            r_out = leg_residual(bc.outlet, -1)
            t_node = 0 if bc.temperature_end == "inlet" else -1
            r_T = (T[t_node] - T_anchor) / self._T_scale

            R = np.empty(self.n_unknowns)
            head = 2 if bc.temperature_end == "inlet" else 1
            R[0] = r_in
            if bc.temperature_end == "inlet":
                R[1] = r_T
            base = head
            R[base + 0 : base + 3 * (N - 1) : 3] = R_c / self._mdot_scale
            R[base + 1 : base + 3 * (N - 1) : 3] = R_m / GRAVITY
            R[base + 2 : base + 3 * (N - 1) : 3] = R_e  # K/s, unit scale
            R[base + 3 * (N - 1)] = r_out
            if bc.temperature_end == "outlet":
                R[-1] = r_T
        return R

    def _density_raw(self, P, T):
        # EOS without domain guards; Newton intermediates may stray and the
        # line search recovers from any resulting NaN/negative values.
        eos = self.fluid.eos
        if isinstance(eos, LiquidEos):
            return eos.rho0 * (1.0 + (P - eos.P0) / eos.B + eos.alpha * (T - eos.T0))
        return P * (1.0 + eos.k * P / T**eos.y) / (eos.R * T)

    # --------------------------------------------------------------- newton

    def _newton(self, u0, res_fn, key, fresh_jacobian):
        tol = self.settings.newton_tol
        max_iter = self.settings.newton_max_iter
        u = np.array(u0, dtype=float)
        R = res_fn(u)
        norm = self._norm(R)
        history = [norm]
        if not np.isfinite(norm):
            raise SolverError("initial residual is not finite", history=history)

        ab = None if (fresh_jacobian or self._cache_key != key) else self._ab_cache
        rebuilt = False

        it = 0
        while norm > tol:
            if it >= max_iter:
                raise SolverError(
                    f"Newton did not converge in {max_iter} iterations "
                    f"(residual {norm:.3e})",
                    iterations=it,
                    residual=norm,
                    history=history,
                )
            if ab is None:
                ab = self._jacobian(u, res_fn, R, key)
                rebuilt = True
            try:
                du_hat = solve_banded((4, 4), ab, -R)
            except np.linalg.LinAlgError:
                if rebuilt:
                    raise SolverError("singular Jacobian", history=history)
                ab, rebuilt = None, False
                continue

            lam, accepted = 1.0, False
            for _ in range(12):
                u_try = u + lam * du_hat * self.u_scale
                R_try = res_fn(u_try)
                n_try = self._norm(R_try)
                if np.isfinite(n_try) and (n_try < norm or n_try < tol):
                    accepted = True
                    break
                lam *= 0.5
            if not accepted:
                if rebuilt:
                    raise SolverError(
                        "Newton stalled (line search failed with a fresh Jacobian)",
                        iterations=it,
                        residual=norm,
                        history=history,
                    )
                ab, rebuilt = None, False   # retry the iteration with a fresh Jacobian
                continue

            slow = n_try > 0.2 * norm
            u, R, norm = u_try, R_try, n_try
            history.append(norm)
            it += 1
            if slow and not rebuilt and norm > tol:
                ab = None  # stale cached Jacobian; rebuild next iteration

        self._ab_cache, self._cache_key = ab, key
        return u, history

    @staticmethod
    def _norm(R):
        return float(np.max(np.abs(R)))

    def _jacobian(self, u, res_fn, R0, key):
        rows_for, colors = self._structure(key[1])  # key = (mode, temperature_end, ...)
        ab = np.zeros((9, self.n_unknowns))
        for idx in colors:
            up = u.copy()
            up[idx] += _FD_EPS * self.u_scale[idx]
            dR = (res_fn(up) - R0) / _FD_EPS
            for j in idx:
                rows = rows_for[j]
                ab[4 + rows - j, j] = dR[rows]
        return ab

    def _structure(self, temperature_end):
        if temperature_end in self._structures:
            return self._structures[temperature_end]
        N = self.N
        head = 2 if temperature_end == "inlet" else 1
        out_row = head + 3 * (N - 1)

        rows_for = []
        for k in range(N):
            rows = []
            for cell in (k - 1, k):
                if 0 <= cell <= N - 2:
                    base = head + 3 * cell
                    rows.extend((base, base + 1, base + 2))
            if k == 0:
                rows.append(0)
                if temperature_end == "inlet":
                    rows.append(1)
            if k == N - 1:
                rows.append(out_row)
                if temperature_end == "outlet":
                    rows.append(out_row + 1)
            arr = np.array(sorted(rows), dtype=int)
            rows_for.extend([arr, arr, arr])  # same stencil for P, V, T at node k

        colors = []
        for v in range(3):
            for m in range(3):
                idx = np.array([3 * k + v for k in range(N) if k % 3 == m], dtype=int)
                if idx.size:
                    colors.append(idx)
        self._structures[temperature_end] = (rows_for, colors)
        return self._structures[temperature_end]

    # ------------------------------------------------------------- utilities

    def _pack(self, P, V, T):
        u = np.empty(self.n_unknowns)
        u[0::3], u[1::3], u[2::3] = P, V, T
        return u

    def _state_from(self, u, t):
        P, V, T = u[0::3].copy(), u[1::3].copy(), u[2::3].copy()
        # raw EOS here: _check_physical turns unphysical values into the
        # typed error naming the offending node
        with np.errstate(all="ignore"):
            rho = np.broadcast_to(np.asarray(self._density_raw(P, T), dtype=float),
                                  P.shape).copy()
        return GridState(t=t, x=self.x, P=P, V=V, T=T, rho=rho)

    def _check_physical(self, state, exc_type):
        for name, arr, floor in (("P", state.P, 0.0), ("T", state.T, 0.0), ("rho", state.rho, 0.0)):
            bad = np.flatnonzero(arr <= floor)
            if bad.size:
                i = int(bad[0])
                raise exc_type(
                    f"{name} = {arr[i]:.6g} at node {i} (x = {self.x[i]:.1f} m) "
                    "is not physical"
                )

    def _leak_cells(self, leaks, t):
        q = np.zeros(self.N - 1)
        for leak in leaks:
            rate = leak.rate_at(t)
            j = self._leak_node(leak)
            if rate > 0.0:
                q[j - 1] += 0.5 * rate
                q[j] += 0.5 * rate
        return q

    def _leak_node(self, leak):
        j = int(np.argmin(np.abs(self.x - leak.position)))
        if j <= 0 or j >= self.N - 1:
            raise ConfigurationError(
                f"leak at {leak.position} m snaps to a boundary node; "
                "leaks must be strictly interior"
            )
        return j

    def _freeze_scales(self, u):
        if self._mdot_scale is not None:
            return
        P, V, T = u[0::3], u[1::3], u[2::3]
        rho = np.asarray(self.fluid.density(np.maximum(P, 1e3), T))
        v_ref = max(float(np.max(np.abs(V))), 0.1)
        self._mdot_scale = max(float(np.max(rho)) * self.A * v_ref, 1e-9)

    def _steady_guess(self, bc, t):
        T0 = bc.temperature.at(t)
        p_in = bc.inlet.series.at(t) if bc.inlet.kind == "pressure" else None
        p_out = bc.outlet.series.at(t) if bc.outlet.kind == "pressure" else None
        anchor = p_in if p_in is not None else p_out
        rho_ref = float(self.fluid.density(anchor, T0))

        H = elevation_at(self.pipeline, self.x)
        if bc.inlet.kind == "flow":
            mdot = bc.inlet.series.at(t)
        elif bc.outlet.kind == "flow":
            mdot = bc.outlet.series.at(t)
        else:
            drive = p_in - p_out - rho_ref * GRAVITY * (H[-1] - H[0])
            f_mean = float(np.mean(self.f_cell))
            v = np.sign(drive) * np.sqrt(
                2.0 * self.D * abs(drive) / (f_mean * self.pipeline.length * rho_ref)
            )
            mdot = rho_ref * self.A * v

        v_ref = mdot / (rho_ref * self.A)
        grad_f = self.f_cell * rho_ref * v_ref * abs(v_ref) / (2.0 * self.D)
        dP_cell = (grad_f + rho_ref * GRAVITY * self.dHdx) * self.dxc
        if p_in is not None:
            P = p_in - np.concatenate(([0.0], np.cumsum(dP_cell)))
        else:
            P = p_out + np.concatenate(([0.0], np.cumsum(dP_cell[::-1])))[::-1]
        P = np.maximum(P, 0.5 * anchor if anchor > 0 else 1e4)
        T = np.full(self.N, T0)
        rho = np.asarray(self.fluid.density(np.maximum(P, 1e3), T), dtype=float)
        V = mdot / (rho * self.A)
        return self._pack(P, np.broadcast_to(V, P.shape), T)

