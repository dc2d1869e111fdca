"""Steady and transient 1D pipe flow: continuity, momentum, and energy.

The transient solver uses an implicit four-point box scheme, theta-weighted
in time, with Newton iteration on the full (P, V, T) nodal vector.  The
scheme runs on fixed settings, theta 0.6, a Newton tolerance of 1e-10 on
the scaled residuals and at most 30 iterations; the only per-step input
is the step length, which each caller passes to ``advance``.  The
continuity equation is discretized in conservation form so the per-step
mass ledger (boundary fluxes vs. linepack change vs. leak draw) closes to
the Newton tolerance.  Leaks enter as constant mass-rate sinks at grid
nodes.

Each solve builds its residual once, as a function of the new state alone:
the old-state halves of the theta-weighted terms and the boundary targets
are evaluated before Newton starts, not on every residual call.  A solve
reads its boundary series only at the end of its step, so a caller that
already holds those three values (the RTM shadow) passes them instead of
series.  The coefficient vectors, the scalars, the residual's workspace
and its row and cell slices are built once per solver.  Operand order is
kept exactly as in the written-out scheme, so the hoisting changes no bit
of any result.  Newton ends on an evaluation at the iterate it returns,
and the new state is one copy of the workspace that evaluation filled.

A solver owns every buffer its Newton step writes, allocated once: the
residual's workspace, its intermediates (cell means, gradients, flux,
theta blends, time differences, rates and row sums), the old-state terms
of the step being solved, Newton's two full-step buffers, its right-hand
side and the |R| its norm reads.  Each intermediate is written with a
positional ``out``, the same operation on the same operands as the
expression it replaces, so every bit stays.  Only the residual ``R``
itself is fresh per call, since Newton and the Jacobian hold two at once;
a solver therefore runs one solve at a time, and building a transient
residual replaces the old-state terms of the one built before.  From one
``advance`` to the next the solver carries the new state's linepack,
which is the next step's starting linepack when that step starts from
this very state, and the grid node of each leak position it has seen.

The residual works on one flat, field-major vector P | V | T | rho, so each
stencil (cell means, gradients, theta blends, time differences) is one
numpy call over every field rather than one per field on a strided view.
The entries of a stencil that straddle two fields are computed but never
read; every other entry sees the same operations on the same operands.
The scalars it combines with arrays are 0-d arrays bound once per solver,
which numpy dispatches faster than Python floats with the same double
arithmetic.  A steady problem whose flow runs toward the held-temperature
end is rejected, since the energy equation takes its temperature upwind:
before Newton when the initial guess already runs that way, and after it
when the converged state does.

The finite-difference Jacobian is filled from its bandwidth alone, with no
stored sparsity pattern: unknowns 9 apart share no residual row, and a row
that does not depend on a perturbed unknown differences to exactly 0.0.
It is factored by LAPACK's banded LU from :mod:`linewatch.lapack`, which
calls the LAPACK numpy itself links, and scipy's only where numpy's does
not export it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import lapack
from .errors import (
    ConfigurationError,
    InfeasibleScenarioError,
    InfeasibleStateError,
    SolverError,
)
from .fluid import FluidModel, LiquidEos, dP_dT_const_density, density, raw_density
from .network import GRAVITY, Grid, PipelineModel, elevation_at

__all__ = [
    "TimeSeries",
    "BoundaryLeg",
    "BoundaryConditions",
    "LeakEvent",
    "GridState",
    "MassLedgerEntry",
    "StepResult",
    "PipeFlowSolver",
    "linepack",
]

_THETA = 0.6             # implicit weighting of the new time level
_NEWTON_TOL = 1e-10      # on scaled residuals
_NEWTON_MAX_ITER = 30
_FD_EPS = 1e-7           # relative finite-difference step for the Jacobian
_STEADY_T_REG = 1e-8     # 1/s, regularizes the energy row at zero flow
_REVERSE_V = 1e-6        # m/s, steady flow toward the held-temperature end


class TimeSeries:
    """Piecewise-linear time series; constant outside its sample range."""

    def __init__(self, times, values):
        self.times = np.array(times, dtype=float, ndmin=1)
        self.values = np.array(values, dtype=float, ndmin=1)
        if self.times.size != self.values.size or self.times.size == 0:
            raise ConfigurationError("time series needs equal-length times and values")
        if (self.times[1:] < self.times[:-1]).any():
            raise ConfigurationError("time series times must be non-decreasing")

    @classmethod
    def constant(cls, value):
        return cls([0.0], [float(value)])

    def at(self, t):
        if self.values.size == 1:
            return float(self.values[0])
        return float(np.interp(t, self.times, self.values))

    def __repr__(self):
        if self.values.size == 1:
            return f"TimeSeries(constant {self.values[0]:g})"
        return f"TimeSeries({self.values.size} points)"


def _check_positive(name, series):
    """Fail unless every value of ``series`` is > 0, as an absolute value must be."""
    low = float(series.values.min())
    if not low > 0:
        raise ConfigurationError(f"{name} must be > 0, got {low}")


@dataclass(frozen=True)
class BoundaryLeg:
    """One end of the line: either pressure (Pa) or mass flow (kg/s) is held."""

    kind: str              # "pressure" | "flow"
    series: TimeSeries

    def __post_init__(self):
        if self.kind not in ("pressure", "flow"):
            raise ConfigurationError(f"boundary kind must be pressure or flow, got {self.kind!r}")
        # an absolute pressure; a flow may run either way
        if self.kind == "pressure":
            _check_positive("boundary pressure", self.series)


@dataclass(frozen=True)
class BoundaryConditions:
    inlet: BoundaryLeg
    outlet: BoundaryLeg
    temperature: TimeSeries            # K, applied at temperature_end
    temperature_end: str = "inlet"     # upwind end for the energy equation

    def __post_init__(self):
        if self.temperature_end not in ("inlet", "outlet"):
            raise ConfigurationError("temperature_end must be 'inlet' or 'outlet'")
        _check_positive("boundary temperature", self.temperature)

    @property
    def has_pressure_anchor(self):
        return self.inlet.kind == "pressure" or self.outlet.kind == "pressure"

    def at(self, t):
        """The inlet target, outlet target and temperature at time ``t``."""
        return self.inlet.series.at(t), self.outlet.series.at(t), self.temperature.at(t)


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
    """Fluid inventory in kg: trapezoidal integral of rho*A over the line,
    written as ``np.trapezoid``'s own expression, so bit for bit its sum."""
    x, rho = state.x, state.rho
    return pipeline.area * float(((x[1:] - x[:-1]) * (rho[1:] + rho[:-1]) / 2.0).sum())


class PipeFlowSolver:
    """Implicit box-scheme solver bound to one pipeline/fluid/grid triple.

    A solver instance caches the banded LU factors of its Jacobian and
    reuses them across Newton iterations and steps while convergence stays
    healthy; the Jacobian is rebuilt and factored again automatically when
    progress stalls.  Instances are not thread-safe; run independent
    scenarios on independent solvers.
    """

    def __init__(self, pipeline: PipelineModel, fluid: FluidModel, grid: Grid):
        self.pipeline = pipeline
        self.fluid = fluid
        self.grid = grid

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
        self._rise = float(H[-1] - H[0])
        self.Tg = pipeline.Tg
        self._g_dHdx = GRAVITY * self.dHdx
        self._four_U = 4.0 * self.U_cell
        # The residual reads its P, V and T gradients from one difference of
        # the flat P | V | T vector: dxc once per field, and 1.0 at the two
        # entries that straddle fields, which no residual row reads.
        self._dx3 = np.concatenate((self.dxc, [1.0], self.dxc, [1.0], self.dxc))
        # The scalars the residual combines with arrays, bound once as 0-d
        # arrays: numpy dispatches such an operand in about half the time of
        # a Python float, and the double arithmetic is the same.
        c = fluid.c
        self._scalars = tuple(np.array(float(v)) for v in (
            0.5, self.A, _THETA, c, self.D, self.Tg,
            2.0 * self.D, 2.0 * c * self.D, GRAVITY))
        self._dxcA = self.dxc * self._scalars[1]
        # A liquid's dP/dT at constant density does not depend on the state.
        self._dPdT_liquid = (np.array(dP_dT_const_density(fluid.eos, 0.0, 0.0))
                             if isinstance(fluid.eos, LiquidEos) else None)

        # The residual's workspace: the flat P | V | T | rho vector it fills on
        # every call, with fixed views into it (the P | V | T block, each
        # field, the two halves of the cell means and of the gradients).
        N, n3 = self.N, 3 * self.N
        w = np.empty(4 * N)
        self._w = w
        self._w_views = (w[:n3].reshape(3, N), w[:N], w[N : 2 * N], w[2 * N : n3], w[n3:],
                         w[:-1], w[1:], w[: n3 - 1], w[1:n3])
        self._w_at = None           # the u the workspace was last filled from
        # The residual's intermediates, written with a positional ``out``:
        # cell means, gradients, flux and its difference, theta blends of
        # the means and gradients, the time difference of the means and its
        # rate, then per cell the three row sums, |Vb|, rho*c and two
        # temporaries.  A step's old-state terms go in the second set: the
        # old fields, their cell means, the old halves of the blends, the
        # old flux and its weighted difference, and the blended leak draw.
        self._scratch = tuple(np.empty(n) for n in (
            4 * N - 1, n3 - 1, N, N - 1, 4 * N - 1, n3 - 1, 4 * N - 1, 4 * N - 1,
            *[N - 1] * 7))
        self._old_terms = tuple(np.empty(n) for n in (
            4 * N, 4 * N - 1, 4 * N - 1, n3 - 1, N, N - 1, N - 1))
        self._no_leak = np.zeros(N - 1)
        self._no_leak.flags.writeable = False
        # Newton's full steps, written into whichever of the two buffers
        # does not hold the current iterate, and its right-hand side and |R|.
        self._steps = (np.empty(n3), np.empty(n3))
        self._rhs, self._abs_R = np.empty(n3), np.empty(n3)
        self._leak_nodes = {}       # leak position -> its interior node
        self._last = (None, None)   # advance's last new state and its linepack
        # Each field's cells within the cell means and the gradients.
        self._cells = (slice(0, N - 1), slice(N, 2 * N - 1),
                       slice(2 * N, n3 - 1), slice(n3, 4 * N - 1))
        # Residual rows of the continuity, momentum and energy equations of
        # each cell, and the outlet row, by held-temperature end: the row of
        # the temperature anchor comes first at the inlet, last at the outlet.
        self._rows = {}
        for end, head in (("inlet", 2), ("outlet", 1)):
            self._rows[end] = (slice(head, head + 3 * (N - 1), 3),
                               slice(head + 1, head + 3 * (N - 1), 3),
                               slice(head + 2, head + 3 * (N - 1), 3),
                               head + 3 * (N - 1))

        # Fixed unknown scales (P, V, T per node); residual row scales are
        # frozen on first use so a cached Jacobian stays consistent.
        self.u_scale = np.tile([1e5, 1.0, 100.0], self.N)
        self._mdot_scale = None     # 0-d, like the residual's other scalars
        self._P_scale = 1e5
        self._T_scale = 100.0

        self._lu_cache = None       # lapack.Factors
        self._cache_key = None

    # ---------------------------------------------------------------- public

    def steady_state(self, bc: BoundaryConditions, t=0.0, leaks=(), initial_guess=None):
        """Solve the zero-time-derivative problem; the returned state is a
        fixed point of :meth:`advance` under constant boundary conditions.

        ``initial_guess`` (a prior GridState) warm-starts Newton; useful
        when scanning many nearby steady problems.  Raises
        InfeasibleScenarioError for an unphysical state, and for one whose
        flow runs toward ``bc.temperature_end`` at every node.
        """
        if not bc.has_pressure_anchor:
            raise InfeasibleScenarioError(
                "steady state needs at least one pressure-specified boundary"
            )
        q = self._leak_cells(leaks, t)
        targets = bc.at(t)
        if initial_guess is not None:
            u0 = self._pack(initial_guess.P, initial_guess.V, initial_guess.T)
        else:
            u0 = self._steady_guess(bc, targets)
        self._freeze_scales(u0)
        res = self._build_residual(bc, targets, q)
        key = ("steady", bc.temperature_end)
        self._newton(u0, res, key, fresh_jacobian=initial_guess is None)
        state = self._new_state(t)
        self._check_physical(state, InfeasibleScenarioError)
        self._check_upwind(bc, state.V, state.P[0], state.P[-1], state.rho)
        return state

    def steady_leak_response(self, state: GridState, bc: BoundaryConditions, reads):
        """Linear response of steady nodal values to a leak at each node.

        ``state`` is a leak-free steady state under ``bc`` (from
        :meth:`steady_state`); ``reads`` is a sequence of ``(field, node)``
        pairs, field ``"P"``, ``"V"`` or ``"T"``.  Returns an array of shape
        ``(len(reads), N)`` whose entry ``[r, j]`` is the derivative of
        read ``r`` with respect to the rate of a leak at node ``j``, in SI
        units per kg/s; the boundary columns 0 and N-1 are zero.

        A leak at node j enters only the continuity rows of cells j-1 and
        j, so one transposed solve per read gives its response to every
        node: one fresh Jacobian, factored once, serves the whole set.  The
        factors stay cached, so warm-started steady solves near ``state``
        reuse them.
        """
        key = ("steady", bc.temperature_end)
        res = self._build_residual(bc, bc.at(state.t), self._no_leak)
        u = self._pack(state.P, state.V, state.T)
        with np.errstate(all="ignore"):
            lu = self._factor(u, res, res(u), history=[])
        if lu.info > 0:
            raise SolverError("singular Jacobian")
        self._lu_cache, self._cache_key = lu, key

        offset = {"P": 0, "V": 1, "T": 2}
        idx = np.array([3 * node + offset[field] for field, node in reads], dtype=int)
        unit = np.zeros((self.n_unknowns, idx.size), order="F")
        unit[idx, np.arange(idx.size)] = 1.0
        adjoint = lapack.dgbtrs(lu, unit, trans=1)
        # A unit leak adds 0.5/_mdot_scale to the continuity rows of two
        # cells, and J du = -dR.
        cont = adjoint[self._rows[bc.temperature_end][0]]
        out = np.zeros((idx.size, self.N))
        out[:, 1:-1] = (cont[:-1] + cont[1:]).T
        out *= (-0.5 / self._mdot_scale) * self.u_scale[idx][:, None]
        return out

    def advance(self, state: GridState, bc: BoundaryConditions, dt, leaks=(), targets=None):
        """One implicit step of ``dt`` seconds from state.t to state.t + dt.

        The step reads its boundary values only at its end, ``t1``:
        ``targets`` gives them as (inlet, outlet, temperature), and by
        default they are ``bc.at(t1)``.  ``bc`` gives each end's kind and
        the held-temperature end either way.  Returns a StepResult carrying
        the new state and the step's mass ledger.  Raises SolverError (with
        residual history) on Newton failure and InfeasibleStateError if the
        new state is unphysical.

        When ``state`` is the state this solver's last ``advance`` returned,
        the ledger's starting linepack is that step's ``linepack_end``: the
        same function of the same arrays, not computed again.
        """
        t0, t1 = state.t, state.t + dt
        q_old = self._leak_cells(leaks, t0)
        q_new = self._leak_cells(leaks, t1)
        old = (state.P, state.V, state.T, state.rho)
        u0 = self._pack(state.P, state.V, state.T)
        self._freeze_scales(u0)
        res = self._build_residual(bc, bc.at(t1) if targets is None else targets,
                                   q_new, old, q_old, dt)
        key = ("transient", bc.temperature_end, dt)
        self._newton(u0, res, key, fresh_jacobian=False)
        new_state = self._new_state(t1)
        self._check_physical(new_state, InfeasibleStateError)

        last, lp_last = self._last
        linepack_start = lp_last if state is last else linepack(state, self.pipeline)
        linepack_end = linepack(new_state, self.pipeline)
        self._last = (new_state, linepack_end)
        th, A = _THETA, self.A
        rho0, V0, rho1, V1 = state.rho, state.V, new_state.rho, new_state.V
        # A leak vector of no leaks is all zeros, and its sum exactly 0.0.
        leak_total_new = float(q_new.sum()) if leaks else 0.0
        leak_total_old = float(q_old.sum()) if leaks else 0.0
        entry = MassLedgerEntry(
            t_start=t0,
            t_end=t1,
            mass_in=dt * (th * (A * rho1[0] * V1[0]) + (1 - th) * (A * rho0[0] * V0[0])),
            mass_out=dt * (th * (A * rho1[-1] * V1[-1]) + (1 - th) * (A * rho0[-1] * V0[-1])),
            leak_mass=dt * (th * leak_total_new + (1 - th) * leak_total_old),
            linepack_start=linepack_start,
            linepack_end=linepack_end,
        )
        return StepResult(state=new_state, ledger=entry)

    # ------------------------------------------------------------- residuals

    def _build_residual(self, bc, targets, q_new, old=None, q_old=None, dt=None):
        """The scaled residual of one solve, as a function of ``u`` alone.

        Steady when ``old`` is None, else one theta-weighted step of ``dt``
        from the old ``(P, V, T, rho)``.  ``targets`` are the inlet target,
        outlet target and temperature anchor at the end of the step (see
        :meth:`BoundaryConditions.at`); ``bc`` gives the legs' kinds and
        the held-temperature end.  Everything that does not depend on the
        new state is evaluated here, once per solve, into the solver's
        old-state buffers: the ``(1-theta)`` halves of the cell means and
        gradients of the old state, the old flux difference and leak draw.
        The coefficient vectors, the scalars, a liquid's constant dP/dT, the
        workspace, the intermediates' buffers and the row and cell slices are fixed per solver and come from
        ``__init__``.  The residual does not enter ``np.errstate``: its
        callers do, once per solve.

        The residual copies ``u`` into the solver's workspace, one
        field-major vector ``w = P | V | T | rho`` of length 4N, so each
        stencil is one numpy call over every field at once: the cell means
        of all four fields, the gradients of P, V and T, the theta blends
        and the time differences.  The entries of those results that
        straddle two fields mix the end of one field with the start of the
        next; no residual row reads them.  Every other entry is the same
        operation on the same operands as per field, and the 0-d scalars
        give the same double arithmetic as Python floats.  Each call leaves
        the state at its ``u`` in the workspace, and records that ``u``.
        It writes every intermediate into the solver's buffers and returns
        a fresh ``R``.

        Each hoisted value is a whole operand of the expression it enters,
        and every sum and product keeps its operand order, so the result is
        bit for bit the residual of the expressions written out in full.
        Re-associating would move the round-off of the step ledger.
        """
        N, n3 = self.N, 3 * self.N
        dx3, f = self._dx3, self.f_cell
        half, A, th, c, D, Tg, two_D, two_cD, g = self._scalars
        eos = self.fluid.eos
        steady = old is None
        temperature_inlet = bc.temperature_end == "inlet"
        mdot_scale, P_scale, T_scale = self._mdot_scale, self._P_scale, self._T_scale

        inlet_target, outlet_target, T_anchor = targets
        inlet_pressure = bc.inlet.kind == "pressure"
        outlet_pressure = bc.outlet.kind == "pressure"

        g_dHdx, four_U, dPdT_liquid = self._g_dHdx, self._four_U, self._dPdT_liquid
        rows_c, rows_m, rows_e, row_out = self._rows[bc.temperature_end]
        fields, P, V, T, rho, w_lo, w_hi, g_lo, g_hi = self._w_views
        cP, cV, cT, cR = self._cells
        (mids, grads, flux, dflux, bars, gb, dmid, rate,
         R_c, R_m, R_e, abs_Vb, rbc, t1, t2) = self._scratch
        if steady:
            bars, gb = mids, grads
        Vb, Tb, rb, Pb = bars[cV], bars[cT], bars[cR], bars[cP]
        dP, dV, dT = gb[cP], gb[cV], gb[cT]
        flux_hi, flux_lo = flux[1:], flux[:-1]

        if not steady:
            invdt = np.array(1.0 / dt)
            wo = 1 - _THETA    # weight of the old time level
            o, mids_old, bars_old, grads_old, flux_o, dflux_old, q_bar = self._old_terms
            np.concatenate(old, out=o)
            np.add(o[:-1], o[1:], mids_old)
            np.multiply(half, mids_old, mids_old)
            np.multiply(wo, mids_old, bars_old)
            np.subtract(o[1:n3], o[: n3 - 1], grads_old)
            np.multiply(wo, grads_old, grads_old)
            np.divide(grads_old, dx3, grads_old)
            np.multiply(A, o[n3:], flux_o)
            np.multiply(flux_o, o[N : 2 * N], flux_o)
            np.subtract(flux_o[1:], flux_o[:-1], dflux_old)
            np.multiply(wo, dflux_old, dflux_old)
            np.multiply(th, q_new, q_bar)
            np.multiply(wo, q_old, t1)
            np.add(q_bar, t1, q_bar)
            dxcA, dmid_rho, rate_V, rate_T = self._dxcA, dmid[cR], rate[cV], rate[cT]

        def residual(u):
            fields[...] = u.reshape(N, 3).T
            rho[...] = raw_density(eos, P, T)
            self._w_at = u
            np.add(w_lo, w_hi, mids)
            np.multiply(half, mids, mids)
            np.subtract(g_hi, g_lo, grads)
            np.divide(grads, dx3, grads)
            np.multiply(A, rho, flux)
            np.multiply(flux, V, flux)
            np.subtract(flux_hi, flux_lo, dflux)
            if steady:
                np.add(dflux, q_new, R_c)
                # the zero time term is still added: it turns a -0.0 into 0.0
                np.multiply(Vb, dV, R_m)
                np.add(0.0, R_m, R_m)
                np.multiply(Vb, dT, R_e)
                np.add(0.0, R_e, R_e)
            else:
                np.multiply(th, mids, bars)
                np.add(bars, bars_old, bars)
                np.multiply(th, grads, gb)
                np.add(gb, grads_old, gb)
                np.subtract(mids, mids_old, dmid)
                np.multiply(dmid, invdt, rate)
                np.multiply(dxcA, dmid_rho, R_c)
                np.multiply(R_c, invdt, R_c)
                np.multiply(th, dflux, t1)
                np.add(R_c, t1, R_c)
                np.add(R_c, dflux_old, R_c)
                np.add(R_c, q_bar, R_c)
                np.multiply(Vb, dV, R_m)
                np.add(rate_V, R_m, R_m)
                np.multiply(Vb, dT, R_e)
                np.add(rate_T, R_e, R_e)

            # R_m + dP / rb + g_dHdx + f * Vb * |Vb| / two_D
            np.abs(Vb, abs_Vb)
            np.divide(dP, rb, t1)
            np.add(R_m, t1, R_m)
            np.add(R_m, g_dHdx, R_m)
            np.multiply(f, Vb, t1)
            np.multiply(t1, abs_Vb, t1)
            np.divide(t1, two_D, t1)
            np.add(R_m, t1, R_m)

            # R_e + (Tb / rbc) * dPdT * dV - f * |Vb| ** 3 / two_cD
            #     + (four_U / (rbc * D)) * (Tb - Tg)
            np.multiply(rb, c, rbc)
            dPdT = dPdT_liquid if dPdT_liquid is not None else dP_dT_const_density(eos, Pb, Tb)
            np.divide(Tb, rbc, t1)
            np.multiply(t1, dPdT, t1)
            np.multiply(t1, dV, t1)
            np.add(R_e, t1, R_e)
            np.power(abs_Vb, 3, t1)
            np.multiply(f, t1, t1)
            np.divide(t1, two_cD, t1)
            np.subtract(R_e, t1, R_e)
            np.multiply(rbc, D, t1)
            np.divide(four_U, t1, t1)
            np.subtract(Tb, Tg, t2)
            np.multiply(t1, t2, t1)
            np.add(R_e, t1, R_e)
            if steady:
                np.subtract(Tb, T_anchor, t1)
                np.multiply(_STEADY_T_REG, t1, t1)
                np.add(R_e, t1, R_e)

            R = np.empty(n3)
            R[0] = ((P[0] - inlet_target) / P_scale if inlet_pressure
                    else (flux[0] - inlet_target) / mdot_scale)
            np.divide(R_c, mdot_scale, R[rows_c])
            np.divide(R_m, g, R[rows_m])
            R[rows_e] = R_e  # K/s, unit scale
            R[row_out] = ((P[-1] - outlet_target) / P_scale if outlet_pressure
                          else (flux[-1] - outlet_target) / mdot_scale)
            r_T = (T[0 if temperature_inlet else -1] - T_anchor) / T_scale
            R[1 if temperature_inlet else -1] = r_T
            return R

        return residual

    # --------------------------------------------------------------- newton

    def _newton(self, u0, res_fn, key, fresh_jacobian):
        """Newton iteration on ``res_fn`` from ``u0``, with a backtracking line
        search and the cached LU factors under ``key``.  Returns the
        converged iterate and the residual-norm history.  The iterate may be
        one of the solver's full-step buffers, which the next solve
        overwrites.  On return the workspace holds ``res_fn``'s evaluation
        at that iterate, so :meth:`_new_state` reads the new state from it.
        """
        tol, max_iter = _NEWTON_TOL, _NEWTON_MAX_ITER
        # Trial states may stray into NaN or overflow; the line search
        # rejects them, so floating-point warnings are silenced per solve.
        with np.errstate(all="ignore"):
            u = np.array(u0, dtype=float)
            R = res_fn(u)
            norm = self._norm(R)
            history = [norm]
            if not math.isfinite(norm):
                raise SolverError("initial residual is not finite", history=history)

            lu = None if (fresh_jacobian or self._cache_key != key) else self._lu_cache
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
                if lu is None:
                    lu = self._factor(u, res_fn, R, history)
                    rebuilt = True
                if lu.info > 0:
                    if rebuilt:
                        raise SolverError("singular Jacobian", history=history)
                    lu, rebuilt = None, False
                    continue
                du_hat = lapack.dgbtrs(lu, np.negative(R, self._rhs))
                # The full step into the buffer that does not hold u; at
                # lam = 1 the product lam * du_hat is du_hat, exactly.
                full = self._steps[u is self._steps[0]]
                np.multiply(du_hat, self.u_scale, full)
                np.add(u, full, full)

                lam, accepted = 1.0, False
                for _ in range(12):
                    u_try = full if lam == 1.0 else u + lam * du_hat * self.u_scale
                    R_try = res_fn(u_try)
                    n_try = self._norm(R_try)
                    if math.isfinite(n_try) and (n_try < norm or n_try < tol):
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
                    lu, rebuilt = None, False   # retry the iteration with a fresh Jacobian
                    continue

                slow = n_try > 0.2 * norm
                u, R, norm = u_try, R_try, n_try
                history.append(norm)
                it += 1
                if slow and not rebuilt and norm > tol:
                    lu = None  # stale cached Jacobian; rebuild next iteration

            # The loop ends only on its first evaluation or on an accepted
            # trial, each at u; evaluating again if that ever stops holding
            # keeps the new state the state at u.
            if self._w_at is not u:
                res_fn(u)
            self._lu_cache, self._cache_key = lu, key
            return u, history

    def _factor(self, u, res_fn, R, history):
        """Build the Jacobian at ``u`` and factor it: a ``lapack.Factors``."""
        ab = self._jacobian(u, res_fn, R)
        if not np.isfinite(ab).all():
            raise SolverError("non-finite Jacobian", history=history)
        return lapack.dgbtrf(ab, 4, 4)

    def _norm(self, R):
        return float(np.abs(R, self._abs_R).max())

    def _jacobian(self, u, res_fn, R0):
        """Finite-difference Jacobian in LAPACK's ``gbtrf`` band layout.

        The bandwidth is 4 below and 4 above the diagonal: entry (i, j)
        sits at row 8 + i - j of 13; rows 0-3 are left zero for the fill-in
        of partial pivoting.  Color ``s`` perturbs unknowns ``s, s+9, ...``
        at once and writes every band slot of their columns straight from
        the bandwidth, with no stored sparsity pattern.  That is exact:
        unknowns 9 apart share no residual row, and a row that does not
        depend on the perturbed unknown differences to exactly 0.0.
        """
        n = self.n_unknowns
        ab = np.zeros((13, n), order="F")
        offsets = np.arange(-4, 5)[:, None]
        dR = np.zeros(n + 8)  # residual difference, zero-padded by 4 at each end
        for s in range(min(9, n)):
            idx = np.arange(s, n, 9)
            up = u.copy()
            up[idx] += _FD_EPS * self.u_scale[idx]
            dR[4:-4] = (res_fn(up) - R0) / _FD_EPS
            ab[4:, idx] = dR[4 + idx + offsets]
        return ab

    # ------------------------------------------------------------- utilities

    def _pack(self, P, V, T):
        u = np.empty(self.n_unknowns)
        u[0::3], u[1::3], u[2::3] = P, V, T
        return u

    def _new_state(self, t):
        """The state in the residual's workspace, as one copy of it: P, V, T
        and the raw EOS density at the last iterate evaluated.  The density
        is unguarded: _check_physical turns unphysical values into the
        typed error naming the offending node."""
        w, N = self._w.copy(), self.N
        return GridState(t=t, x=self.x, P=w[:N], V=w[N : 2 * N], T=w[2 * N : 3 * N],
                         rho=w[3 * N :])

    def _check_physical(self, state, exc_type):
        """Raise ``exc_type`` naming the first field and node that is not
        positive.  A liquid's pressure below zero means its column has
        separated (a vapour cavity), a regime the model does not represent,
        and the message says so."""
        if state.P.min() > 0.0 and state.T.min() > 0.0 and state.rho.min() > 0.0:
            return
        fields = (("P", state.P), ("T", state.T), ("rho", state.rho))
        for name, arr in fields:
            bad = np.flatnonzero(arr <= 0.0)
            if bad.size:
                i = int(bad[0])
                why = ("; pressure below zero: column separation is outside the model"
                       if name == "P" and isinstance(self.fluid.eos, LiquidEos) else "")
                raise exc_type(
                    f"{name} = {arr[i]:.6g} at node {i} (x = {self.x[i]:.1f} m) "
                    f"is not physical{why}"
                )

    def _check_upwind(self, bc, V, p_in, p_out, rho):
        """Reject a steady profile (V, the end pressures and rho) whose flow
        runs toward the end where the temperature is held: the energy
        equation then has no inflow temperature, and the transient turns
        unphysical within a few steps.
        """
        toward = V if bc.temperature_end == "outlet" else -V
        if toward.min() <= _REVERSE_V:
            return
        source = "outlet" if bc.temperature_end == "inlet" else "inlet"
        head = float(np.mean(rho)) * GRAVITY * self._rise
        raise InfeasibleScenarioError(
            f"steady flow runs from the {source} to the {bc.temperature_end} "
            f"(V = {V[0]:.3g} m/s at the inlet), but the temperature is "
            f"held at the {bc.temperature_end}: inlet pressure {p_in:.0f} Pa, "
            f"outlet pressure {p_out:.0f} Pa, static head of the "
            f"{self._rise:g} m rise {head:.0f} Pa"
        )

    def _leak_cells(self, leaks, t):
        """Each cell's leak draw at ``t``: half of each leak's rate to the
        two cells beside its node.  No leaks give the solver's read-only
        zero vector."""
        if not leaks:
            return self._no_leak
        q = np.zeros(self.N - 1)
        for leak in leaks:
            rate = leak.rate_at(t)
            j = self._leak_node(leak)
            if rate > 0.0:
                q[j - 1] += 0.5 * rate
                q[j] += 0.5 * rate
        return q

    def _leak_node(self, leak):
        j = self._leak_nodes.get(leak.position)
        if j is not None:
            return j
        j = int(np.argmin(np.abs(self.x - leak.position)))
        if j <= 0 or j >= self.N - 1:
            raise ConfigurationError(
                f"leak at {leak.position} m snaps to a boundary node; "
                "leaks must be strictly interior"
            )
        self._leak_nodes[leak.position] = j
        return j

    def _freeze_scales(self, u):
        if self._mdot_scale is not None:
            return
        P, V, T = u[0::3], u[1::3], u[2::3]
        rho = np.asarray(density(self.fluid.eos, np.maximum(P, 1e3), T))
        v_ref = max(float(np.max(np.abs(V))), 0.1)
        self._mdot_scale = np.array(max(float(np.max(rho)) * self.A * v_ref, 1e-9))

    def _steady_guess(self, bc, targets):
        b_in, b_out, T0 = targets
        p_in = b_in if bc.inlet.kind == "pressure" else None
        p_out = b_out if bc.outlet.kind == "pressure" else None
        anchor = p_in if p_in is not None else p_out
        rho_ref = float(density(self.fluid.eos, anchor, T0))

        if bc.inlet.kind == "flow":
            mdot = b_in
        elif bc.outlet.kind == "flow":
            mdot = b_out
        else:
            drive = p_in - p_out - rho_ref * GRAVITY * self._rise
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
        rho = np.asarray(density(self.fluid.eos, np.maximum(P, 1e3), T), dtype=float)
        V = np.broadcast_to(mdot / (rho * self.A), P.shape)
        # The direction is known before Newton: a flow toward the held
        # temperature is rejected here, where Newton might stall on it.
        self._check_upwind(bc, V, P[0], P[-1] if p_out is None else p_out, rho)
        return self._pack(P, V, T)

