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

A solver builds one residual per held-temperature end and keeps it for
its lifetime, as a function of the new state alone.  Each solve writes
only what it changes into buffers that residual reads: the mode, the
boundary kinds and targets, 1/dt, the leak draw and the old-state halves
of the theta-weighted terms, all evaluated before Newton starts, not on
every residual call.  A solve reads its boundary series only at the end of
its step, so a caller that already holds those three values (the RTM
shadow) passes them instead of series.  The coefficient vectors, the
scalars, the residual's workspace and its row and cell slices are built
once per solver.  Operand order is kept exactly as in the written-out
scheme, so the hoisting changes no bit of any result.  Newton ends on an
evaluation at the iterate it returns, and the new state is one copy of the
workspace that evaluation filled.

A solver owns every buffer its Newton step writes, allocated once: the
residual's workspace, its intermediates (cell means, gradients, flux,
theta blends, time differences, rates and row sums), the old-state terms
of the step being solved, Newton's two full-step buffers, its right-hand
side and the |R| its norm reads.  Each intermediate is written with a
positional ``out``, the same operation on the same operands as the
expression it replaces, so every bit stays; operations that the momentum
and energy rows (or all three row blocks) take alike go as one call on a
stacked view.  Only the residual ``R`` itself is fresh per call, since
Newton and the Jacobian hold two at once; a solver therefore runs one
solve at a time, and setting up a solve replaces the problem of the one
before, for every residual the solver has handed out.

A step reads its old state from the workspace, one way for every step:
the old cell means, differences and flux difference give its old-state
terms, and the cell-mean densities and the flux its ledger's opening
linepack and end fluxes.  One marker records which iterate the workspace
holds: the ``u`` of the residual call that last filled it, or None once a
step has loaded an old state there.  A residual called with that very
``u`` skips the field copy, the density and the stencils.  From one
``advance`` to the next the solver carries the state it returned and
that state's linepack and end fluxes; the marker is then Newton's iterate
for it.  A step from that very state starts Newton from the marked
iterate, so its first evaluation finds the workspace filled.  A step from
any other state (after a steady solve or the locate scan, which leave
other states in the workspace, or from a copy) first loads that state's
fields and density into the workspace and takes the same stencils the
residual takes.  The solver also keeps the grid node of each leak
position it has seen.

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
            0.5, self.A, _THETA, 1 - _THETA, c, self.D, self.Tg))
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
        # The u the workspace was last filled from (None after a step loads
        # an old state), in a list the residuals write into: they hold no
        # reference to the solver, which holds them.
        self._w_at = [None]
        # The residual's intermediates, written with a positional ``out``.
        # Three vectors hold their runs end to end, so the theta blends are
        # one call over all of them: the new state's cell means, gradients
        # and flux difference; theta times those (the blends' new halves,
        # then theta times the flux difference); and the blends' old halves.
        # Then the raw differences, the flux, the time difference of the
        # means and its rate, and per cell rho*c, a temporary and dP/dT.  A
        # step's other old-state terms follow: the old cell means, the old
        # flux difference's weighted half and the blended leak draw.
        runs = np.cumsum((0, 4 * N - 1, n3 - 1, N - 1))
        split = lambda v: tuple(v[a:b] for a, b in zip(runs[:-1], runs[1:]))
        self._stencils, self._blends = np.empty(runs[-1]), np.empty(runs[-1])
        self._old_blends = np.empty(runs[2])
        self._flux = np.empty(N)
        self._scratch = (*split(self._stencils), *split(self._blends),
                         *split(self._old_blends)[:2], np.empty(n3 - 1), self._flux,
                         *(np.empty(n) for n in (4 * N - 1, 4 * N - 1, *[N - 1] * 3)))
        self._old_terms = tuple(np.empty(n) for n in (4 * N - 1, N - 1, N - 1))
        # Each cell's continuity, momentum and energy row sums, stacked.  The
        # momentum and energy rows take their terms in pairs, one stacked
        # add each, in the order written: dP/rb with the dP/dT term, then
        # g dH/dx with the energy row's friction, then the momentum row's
        # friction with the heat exchange.  The last two pairs are rows 0, 2
        # and 1, 3 of one (4, N-1) array, whose rows 1 and 2, the two
        # friction terms, are computed as a pair too: times |Vb| and -f,
        # then over 2D and 2cD.  Adding the energy friction with -f in
        # place of f is the same subtraction.  g dH/dx and -f are fixed.
        self._row_sums = np.empty((3, N - 1))
        self._pair, self._quad = np.empty((2, N - 1)), np.empty((4, N - 1))
        self._quad[0] = self._g_dHdx
        self._abs_V_neg_f = np.empty((2, N - 1))
        self._abs_V_neg_f[1] = -self.f_cell
        self._friction_div = np.array([[2.0 * self.D], [2.0 * c * self.D]])
        self._no_leak = np.zeros(N - 1)
        self._no_leak.flags.writeable = False
        # Newton's full steps, written into whichever of the two buffers
        # does not hold the current iterate, and its right-hand side and |R|.
        self._steps = (np.empty(n3), np.empty(n3))
        self._rhs, self._abs_R = np.empty(n3), np.empty(n3)
        # The residual is assembled here and returned as a copy.
        self._R = np.empty(n3)
        self._lp_terms = np.empty(N - 1)
        self._leak_nodes = {}       # leak position -> its interior node
        # advance's last new state and its linepack and end fluxes, while
        # the workspace still holds that state's evaluation
        self._held = None
        self._residuals = {}        # held-temperature end -> (residual, configure)
        # Each field's cells within the cell means and the gradients.
        self._cells = (slice(0, N - 1), slice(N, 2 * N - 1),
                       slice(2 * N, n3 - 1), slice(n3, 4 * N - 1))

        # Fixed unknown scales (P, V, T per node); residual row scales are
        # frozen on first use so a cached Jacobian stays consistent.
        self.u_scale = np.tile([1e5, 1.0, 100.0], self.N)
        self._mdot_scale = None     # 0-d, like the residual's other scalars
        # what the continuity, momentum and energy rows are divided by, once
        # the scales are frozen
        self._row_scales = np.empty((3, 1))
        self._P_scale = 1e5
        self._T_scale = 100.0

        self._lu_cache = None       # lapack.Factors
        self._cache_key = None

    # ---------------------------------------------------------------- public

    def steady_state(self, bc: BoundaryConditions, t=0.0, leaks=(), initial_guess=None):
        """Solve the zero-time-derivative problem; the returned state is a
        fixed point of :meth:`advance` under constant boundary conditions.

        ``initial_guess`` (a prior GridState) warm-starts Newton; useful
        when scanning many nearby steady problems.  A guess too far from
        the solution for Newton to converge from is dropped, and the solve
        starts again from the cold guess; one whose residual is not finite
        raises SolverError.  Raises InfeasibleScenarioError for an
        unphysical state, and for one whose flow runs toward
        ``bc.temperature_end`` at every node.
        """
        if not bc.has_pressure_anchor:
            raise InfeasibleScenarioError(
                "steady state needs at least one pressure-specified boundary"
            )
        q = self._leak_cells(leaks, t)
        targets = bc.at(t)
        key = ("steady", bc.temperature_end)
        if initial_guess is not None:
            u0 = self._pack(initial_guess.P, initial_guess.V, initial_guess.T)
            self._freeze_scales(u0)
            try:
                self._newton(u0, self._build_residual(bc, targets, q), key, fresh_jacobian=False)
            except SolverError as e:
                if not math.isfinite(e.history[0]):
                    raise               # a guess the residual cannot evaluate
                initial_guess = None   # start again from the cold guess
        if initial_guess is None:
            u0 = self._steady_guess(bc, targets)
            self._freeze_scales(u0)
            self._newton(u0, self._build_residual(bc, targets, q), key, fresh_jacobian=True)
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
        cont = adjoint[self._row_layout(bc.temperature_end)[0]][0::3]
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

        The ledger's opening linepack and end fluxes are read from the
        workspace holding ``state`` (see :meth:`_build_residual`), as its
        closing ones are from the workspace holding the new state.  When
        ``state`` is the state this solver's last ``advance`` returned and
        no other solve came between, they are that step's closing values,
        and Newton starts from the iterate the workspace is marked with,
        that step's own, so its first evaluation reuses the workspace.
        """
        t0, t1 = state.t, state.t + dt
        q_old = self._leak_cells(leaks, t0)
        q_new = self._leak_cells(leaks, t1)
        held = self._held
        warm = held is not None and held[0] is state
        u0 = self._w_at[0] if warm else self._pack(state.P, state.V, state.T)
        self._freeze_scales(u0)
        res = self._build_residual(bc, bc.at(t1) if targets is None else targets, q_new,
                                   (state.P, state.V, state.T, state.rho), q_old, dt, warm)
        # the set-up has left the old state's evaluation in the workspace
        linepack_start, F0_in, F0_out = held[1] if warm else self._ledger_terms()
        key = ("transient", bc.temperature_end, dt)
        self._newton(u0, res, key, fresh_jacobian=False)
        new_state = self._new_state(t1)
        self._check_physical(new_state, InfeasibleStateError)
        closing = self._ledger_terms()
        self._held = (new_state, closing)
        linepack_end, F1_in, F1_out = closing
        th = _THETA
        # A leak vector of no leaks is all zeros, and its sum exactly 0.0.
        leak_total_new = float(q_new.sum()) if leaks else 0.0
        leak_total_old = float(q_old.sum()) if leaks else 0.0
        entry = MassLedgerEntry(
            t_start=t0,
            t_end=t1,
            mass_in=dt * (th * F1_in + (1 - th) * F0_in),
            mass_out=dt * (th * F1_out + (1 - th) * F0_out),
            leak_mass=dt * (th * leak_total_new + (1 - th) * leak_total_old),
            linepack_start=linepack_start,
            linepack_end=linepack_end,
        )
        return StepResult(state=new_state, ledger=entry)

    def _ledger_terms(self):
        """The linepack and the inlet and outlet fluxes of the state in the
        workspace: its cell-mean densities give the linepack, with
        :func:`linepack`'s round-off (halving is exact), and its flux the
        end fluxes."""
        lp_terms = np.multiply(self.dxc, self._stencils[self._cells[3]], self._lp_terms)
        return self.A * float(np.add.reduce(lp_terms)), float(self._flux[0]), float(self._flux[-1])

    # ------------------------------------------------------------- residuals

    def _build_residual(self, bc, targets, q_new, old=None, q_old=None, dt=None, warm=False):
        """The scaled residual of one solve, as a function of ``u`` alone.

        Steady when ``old`` is None, else one theta-weighted step of ``dt``
        from the old ``(P, V, T, rho)``.  ``targets`` are the inlet target,
        outlet target and temperature anchor at the end of the step (see
        :meth:`BoundaryConditions.at`); ``bc`` gives the legs' kinds and
        the held-temperature end.  The function returned is the solver's
        residual for that end, built once (:meth:`_make_residual`); this
        call only writes what the solve changes into the buffers it reads:
        the mode, the boundary kinds and targets, 1/dt, the leak draw and
        the old-state terms (the ``(1-theta)`` halves of the cell means and
        gradients of the old state and the old flux difference).  So a
        residual built earlier evaluates the latest solve's problem.

        A step's old-state terms are read from the workspace's cell means,
        differences and flux difference.  ``warm`` says the workspace holds
        the old state's evaluation already, as it does when :meth:`advance`
        steps from the state it last returned.  Otherwise the old fields
        and density are loaded into the workspace, its stencils taken by
        the residual's own code, and its marker cleared.  Every build
        cancels what the solver held.
        """
        self._held = None
        end = bc.temperature_end
        built = self._residuals.get(end)
        if built is None:
            built = self._residuals[end] = self._make_residual(end)
        residual, configure = built
        configure(bc, targets, q_new, old, q_old, dt, warm)
        return residual

    def _row_layout(self, end):
        """Where the residual's rows sit with the temperature held at
        ``end``: the slice of the cell rows, then the outlet boundary row
        and the temperature anchor row.  Row 0 is the inlet boundary; with
        the temperature held at the inlet its anchor is row 1, else the
        last row.  Between them run the cells, each one's continuity,
        momentum and energy rows in turn, then the outlet boundary row."""
        first = 2 if end == "inlet" else 1
        cells = slice(first, first + 3 * (self.N - 1))
        return cells, cells.stop, (1 if end == "inlet" else self.n_unknowns - 1)

    def _make_residual(self, end):
        """The residual for the held-temperature ``end`` and the function
        that sets it up for one solve, sharing their settings.

        The residual copies ``u`` into the solver's workspace, one
        field-major vector ``w = P | V | T | rho`` of length 4N, so each
        stencil is one numpy call over every field at once: the cell means
        of all four fields, the gradients of P, V and T, the theta blends
        and the time differences.  The entries of those results that
        straddle two fields mix the end of one field with the start of the
        next; no residual row reads them.  Every other entry is the same
        operation on the same operands as per field, and the 0-d scalars
        give the same double arithmetic as Python floats.  Operations that
        the momentum and energy rows take alike go as one call over both
        rows, and the three row blocks are scaled into ``R`` in one call
        (the energy rows by 1.0, which is exact).  Each call leaves the
        state at its ``u`` in the workspace, and records that ``u``; a
        call with the ``u`` recorded finds its fields, density and
        stencils there and skips them, so a caller writes into no ``u``
        while it is the one recorded (see :meth:`_newton`).  It
        writes every intermediate into the solver's buffers and returns a
        fresh ``R``.  The residual does not enter ``np.errstate``: its
        callers do, once per solve.  Its state-only stencils (cell means,
        differences, gradients, flux and flux difference) are one block of
        code, which the set-up also runs on an old state it loads.

        Each hoisted value is a whole operand of the expression it enters,
        and every sum and product keeps its operand order, so the result is
        bit for bit the residual of the expressions written out in full.
        Re-associating would move the round-off of the step ledger.
        """
        N = self.N
        dx3, f = self._dx3, self.f_cell
        half, A, th, wo, c, D, Tg = self._scalars
        eos = self.fluid.eos
        P_scale, T_scale = self._P_scale, self._T_scale
        t_node = 0 if end == "inlet" else -1
        four_U, dPdT_liquid, dxcA = self._four_U, self._dPdT_liquid, self._dxcA

        fields, P, V, T, rho, w_lo, w_hi, g_lo, g_hi = self._w_views
        cP, cV, cT, cR = self._cells
        (mids, grads, dflux, bars, gb, th_dflux, bars_old, grads_old,
         diffs, flux, dmid, rate, rbc, t2, dPdT_buf) = self._scratch
        stencils, blends, old_blends = self._stencils, self._blends, self._old_blends
        blends_new = blends[: old_blends.size]
        mids_old, dflux_old, q_bar_buf = self._old_terms
        q_bar = q_bar_buf
        flux_hi, flux_lo = flux[1:], flux[:-1]
        dmid_rho = dmid[cR]
        R_c, _, R_e = row_sums = self._row_sums
        R_me = row_sums[1:]
        # The scaled rows of each equation within R, as one (3, N-1) view.
        R, row_scales, w_at, no_leak = self._R, self._row_scales, self._w_at, self._no_leak
        cell_rows, row_out, row_T = self._row_layout(end)
        R_rows = R[cell_rows].reshape(N - 1, 3).T
        pair, quad = self._pair, self._quad
        (tm, te), (_, fm, fe, heat) = pair, quad
        friction, quad_02, quad_13 = quad[1:3], quad[0::2], quad[1::2]
        abs_V_neg_f, friction_div = self._abs_V_neg_f, self._friction_div
        abs_Vb = abs_V_neg_f[0]
        # The V and T cells of a gradient or rate vector as one (2, N-1) view.
        stack, step = np.lib.stride_tricks.as_strided, N * rate.itemsize
        # The ufuncs, bound once: a call then skips two lookups.  The EOS's
        # dP/dT stays a module global, which perfbench's tracer wraps.
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        absolute, power = np.abs, np.power

        def views(means, gradients):
            """Vb, Tb, rb, Pb, dP, dV, and dV over dT as one (2, N-1) view."""
            vt = stack(gradients[N:], shape=(2, N - 1), strides=(step, gradients.itemsize),
                       writeable=False)
            return (means[cV], means[cT], means[cR], means[cP],
                    gradients[cP], gradients[cV], vt)
        steady_views, step_views = views(mids, grads), views(bars, gb)
        rate_VT = stack(rate[N:], shape=(2, N - 1), strides=(step, rate.itemsize),
                        writeable=False)

        def take_stencils():
            """The stencils of the fields in the workspace: the cell means,
            the differences and gradients, the flux and its difference."""
            add(w_lo, w_hi, mids)
            multiply(half, mids, mids)
            subtract(g_hi, g_lo, diffs)
            divide(diffs, dx3, grads)
            multiply(A, rho, flux)
            multiply(flux, V, flux)
            subtract(flux_hi, flux_lo, dflux)

        steady = inlet_pressure = outlet_pressure = None
        inlet_target = outlet_target = T_anchor = q_steady = None
        Vb = Tb = rb = Pb = dP = dV = dVT = None
        invdt = np.array(0.0)

        def configure(bc, targets, q_new, old, q_old, dt, warm):
            nonlocal steady, inlet_pressure, outlet_pressure
            nonlocal inlet_target, outlet_target, T_anchor, q_steady, q_bar
            nonlocal Vb, Tb, rb, Pb, dP, dV, dVT
            steady = old is None
            inlet_target, outlet_target, T_anchor = targets
            inlet_pressure = bc.inlet.kind == "pressure"
            outlet_pressure = bc.outlet.kind == "pressure"
            Vb, Tb, rb, Pb, dP, dV, dVT = steady_views if steady else step_views
            if steady:
                q_steady = q_new
                return
            invdt[...] = 1.0 / dt
            if not warm:
                # the old state's own fields, density included, and stencils
                P[...], V[...], T[...], rho[...] = old
                w_at[0] = None
                take_stencils()
            # The workspace holds the old state's evaluation: its cell means,
            # differences and flux difference are the old ones.
            mids_old[...] = mids
            multiply(wo, mids_old, bars_old)
            multiply(wo, diffs, grads_old)
            divide(grads_old, dx3, grads_old)
            multiply(wo, dflux, dflux_old)
            if q_new is q_old is no_leak:
                q_bar = q_new       # theta * 0.0 + (1 - theta) * 0.0 is 0.0
            else:
                q_bar = q_bar_buf
                multiply(th, q_new, q_bar)
                multiply(wo, q_old, t2)
                add(q_bar, t2, q_bar)

        def residual(u):
            if w_at[0] is not u:
                fields[...] = u.reshape(N, 3).T
                raw_density(eos, P, T, rho)
                take_stencils()
                w_at[0] = u
            if steady:
                add(dflux, q_steady, R_c)
                # the zero time term is still added: it turns a -0.0 into 0.0
                multiply(Vb, dVT, R_me)
                add(0.0, R_me, R_me)
            else:
                multiply(th, stencils, blends)
                add(blends_new, old_blends, blends_new)
                subtract(mids, mids_old, dmid)
                multiply(dmid, invdt, rate)
                multiply(dxcA, dmid_rho, R_c)
                multiply(R_c, invdt, R_c)
                add(R_c, th_dflux, R_c)
                add(R_c, dflux_old, R_c)
                add(R_c, q_bar, R_c)
                multiply(Vb, dVT, R_me)
                add(rate_VT, R_me, R_me)

            # R_m + dP / rb + g_dHdx + f * Vb * |Vb| / (2 * D)
            # R_e + (Tb / rbc) * dPdT * dV - f * |Vb| ** 3 / (2 * c * D)
            #     + (four_U / (rbc * D)) * (Tb - Tg)
            # one term of each row per stacked add, in the order written
            divide(dP, rb, tm)
            multiply(rb, c, rbc)
            dPdT = (dPdT_liquid if dPdT_liquid is not None
                    else dP_dT_const_density(eos, Pb, Tb, dPdT_buf))
            divide(Tb, rbc, te)
            multiply(te, dPdT, te)
            multiply(te, dV, te)
            add(R_me, pair, R_me)
            absolute(Vb, abs_Vb)
            multiply(f, Vb, fm)
            power(abs_Vb, 3, fe)
            multiply(friction, abs_V_neg_f, friction)
            divide(friction, friction_div, friction)
            add(R_me, quad_02, R_me)
            multiply(rbc, D, heat)
            divide(four_U, heat, heat)
            subtract(Tb, Tg, t2)
            multiply(heat, t2, heat)
            add(R_me, quad_13, R_me)
            if steady:
                subtract(Tb, T_anchor, t2)
                multiply(_STEADY_T_REG, t2, t2)
                add(R_e, t2, R_e)

            divide(row_sums, row_scales, R_rows)
            R[0] = ((P[0] - inlet_target) / P_scale if inlet_pressure
                    else (flux[0] - inlet_target) / row_scales[0, 0])
            R[row_out] = ((P[-1] - outlet_target) / P_scale if outlet_pressure
                          else (flux[-1] - outlet_target) / row_scales[0, 0])
            R[row_T] = (T[t_node] - T_anchor) / T_scale
            return R.copy()

        return residual, configure

    # --------------------------------------------------------------- newton

    def _newton(self, u, res_fn, key, fresh_jacobian):
        """Newton iteration on ``res_fn`` from ``u`` itself, with a
        backtracking line search and the cached LU factors under ``key``.
        Returns the converged iterate and the residual-norm history.  The
        iterate may be one of the solver's full-step buffers, which a later
        solve overwrites.  On return the workspace holds ``res_fn``'s
        evaluation at that iterate and is marked with it, so
        :meth:`_new_state` reads the new state from it and a solve started
        from it skips its first evaluation's field copy and stencils.
        Newton never writes into the marked ``u``: its full steps go into
        the step buffer that does not hold its iterate, and every other
        trial is a fresh array.

        A Jacobian is fresh from its factorization until Newton accepts a
        step from it.  A step that cuts the norm by less than a factor 5
        and leaves it above the tolerance drops the Jacobian, so the next
        iteration factors one at the new iterate.  A refused step or a
        singular factor drops a stale Jacobian too, and raises on a fresh
        one.
        """
        tol, max_iter = _NEWTON_TOL, _NEWTON_MAX_ITER
        # A residual's max-norm, with |R| written into one buffer.
        max_of, absolute, abs_R = np.maximum.reduce, np.abs, self._abs_R
        # Trial states may stray into NaN or overflow; the line search
        # rejects them, so floating-point warnings are silenced per solve.
        with np.errstate(all="ignore"):
            R = res_fn(u)
            norm = float(max_of(absolute(R, abs_R)))
            history = [norm]
            if not math.isfinite(norm):
                raise SolverError("initial residual is not finite", history=history)

            lu = None if (fresh_jacobian or self._cache_key != key) else self._lu_cache
            fresh = False

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
                    lu, fresh = self._factor(u, res_fn, R, history), True
                if lu.info > 0:
                    if fresh:
                        raise SolverError("singular Jacobian", history=history)
                    lu = None
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
                    n_try = float(max_of(absolute(R_try, abs_R)))
                    if math.isfinite(n_try) and (n_try < norm or n_try < tol):
                        accepted = True
                        break
                    lam *= 0.5
                if not accepted:
                    if fresh:
                        raise SolverError(
                            "Newton stalled (line search failed with a fresh Jacobian)",
                            iterations=it,
                            residual=norm,
                            history=history,
                        )
                    lu = None   # retry the iteration with a fresh Jacobian
                    continue

                slow = n_try > 0.2 * norm
                u, R, norm = u_try, R_try, n_try
                history.append(norm)
                it += 1
                fresh = False
                if slow and norm > tol:
                    lu = None   # rebuild at the new iterate

            # The loop ends only on its first evaluation or on an accepted
            # trial, each at u; evaluating again if that ever stops holding
            # keeps the new state the state at u.
            if self._w_at[0] is not u:
                res_fn(u)
            self._lu_cache, self._cache_key = lu, key
            return u, history

    def _factor(self, u, res_fn, R, history):
        """Build the Jacobian at ``u`` and factor it: a ``lapack.Factors``."""
        ab = self._jacobian(u, res_fn, R)
        if not np.isfinite(ab).all():
            raise SolverError("non-finite Jacobian", history=history)
        return lapack.dgbtrf(ab, 4, 4)

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
        low = np.minimum.reduce
        if low(state.P) > 0.0 and low(state.T) > 0.0 and low(state.rho) > 0.0:
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
        mdot_scale = max(float(np.max(rho)) * self.A * v_ref, 1e-9)
        self._mdot_scale = np.array(mdot_scale)
        self._row_scales[:, 0] = mdot_scale, GRAVITY, 1.0

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

