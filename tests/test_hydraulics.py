import collections
import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from linewatch import hydraulics
from linewatch.errors import (
    ConfigurationError,
    InfeasibleScenarioError,
    InfeasibleStateError,
    SolverError,
)
from linewatch.fluid import FluidModel, GasEos, LiquidEos, dP_dT_const_density, density, raw_density
from linewatch.hydraulics import (
    BoundaryConditions,
    BoundaryLeg,
    GridState,
    LeakEvent,
    PipeFlowSolver,
    TimeSeries,
    _STEADY_T_REG,
    _THETA,
    linepack,
)
from linewatch.network import GRAVITY, PipelineModel, discretize


def bc_pp(p_in, p_out, T=300.0, temperature_end="inlet"):
    return BoundaryConditions(
        inlet=BoundaryLeg("pressure", TimeSeries.constant(p_in)),
        outlet=BoundaryLeg("pressure", TimeSeries.constant(p_out)),
        temperature=TimeSeries.constant(T),
        temperature_end=temperature_end,
    )


def bc_fp(mdot, p_out, T=300.0):
    return BoundaryConditions(
        inlet=BoundaryLeg("flow", TimeSeries.constant(mdot)),
        outlet=BoundaryLeg("pressure", TimeSeries.constant(p_out)),
        temperature=TimeSeries.constant(T),
    )


def make_solver(fluid, pipe, dx=100.0, points=()):
    return PipeFlowSolver(pipe, fluid, discretize(pipe, dx, points))


class TestSteadyState:
    @pytest.mark.parametrize(
        "f,elev,label",
        [
            (0.02, None, "flat"),
            (0.02, ((0.0, 0.0), (10000.0, 100.0)), "inclined"),
            (0.08, None, "high-friction"),
        ],
    )
    def test_darcy_weisbach_plus_hydrostatic(self, water_like, f, elev, label):
        pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=f,
                             elevation_profile=elev, U=0.0, Tg=300.0)
        solver = make_solver(water_like, pipe)
        mdot = 70.0
        st = solver.steady_state(bc_fp(mdot, 6.0e5))
        dp_solver = st.P[0] - st.P[-1]
        rho = float(np.mean(st.rho))
        v = mdot / (rho * pipe.area)
        dH = (elev[-1][1] - elev[0][1]) if elev else 0.0
        dp_oracle = f * (pipe.length / pipe.diameter) * rho * v * abs(v) / 2.0 \
            + rho * GRAVITY * dH
        assert dp_solver == pytest.approx(dp_oracle, rel=5e-3), label

    def test_zero_flow_flat_line_uniform_pressure(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        st = solver.steady_state(bc_fp(0.0, 8.0e5))
        assert np.allclose(st.P, 8.0e5, rtol=1e-9)
        assert np.allclose(st.V, 0.0, atol=1e-9)

    @pytest.mark.parametrize("temperature_end,pressures,rise,source", [
        ("inlet", (1.0e6, 6.7e5), 60.0, "outlet"),   # the rise outweighs the drive
        ("outlet", (1.0e6, 6.7e5), 0.0, "inlet"),    # held at the downstream end
    ], ids=["uphill_reverses_flow", "held_downstream"])
    def test_flow_toward_held_temperature_is_rejected(self, water_like, temperature_end,
                                                       pressures, rise, source):
        pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=0.02, U=2.0,
                             Tg=288.15, elevation_profile=((0.0, 0.0), (10000.0, rise)))
        solver = make_solver(water_like, pipe)
        with pytest.raises(InfeasibleScenarioError) as err:
            solver.steady_state(bc_pp(*pressures, temperature_end=temperature_end))
        message = str(err.value)
        assert f"runs from the {source} to the {temperature_end}" in message
        assert "inlet pressure 1000000 Pa, outlet pressure 670000 Pa" in message
        head = re.search(rf"static head of the {rise:g} m rise (\S+) Pa", message)
        assert float(head.group(1)) == pytest.approx(1000.0 * GRAVITY * rise, rel=2e-3)

    def test_hydrostatic_incline(self, water_like):
        pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=0.02,
                             elevation_profile=((0.0, 0.0), (10000.0, 100.0)),
                             U=2.0, Tg=300.0)
        solver = make_solver(water_like, pipe)
        st = solver.steady_state(bc_fp(0.0, 8.0e5))
        rho = float(np.mean(st.rho))
        assert st.P[0] - st.P[-1] == pytest.approx(rho * GRAVITY * 100.0, rel=5e-3)

    def test_mass_flow_uniform(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        st = solver.steady_state(bc_pp(1.0e6, 6.7e5))
        mdot = st.rho * st.V * ten_km_line.area
        assert (mdot.max() - mdot.min()) / mdot.mean() < 1e-8

    def test_needs_pressure_anchor(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        bc = BoundaryConditions(
            inlet=BoundaryLeg("flow", TimeSeries.constant(70.0)),
            outlet=BoundaryLeg("flow", TimeSeries.constant(70.0)),
            temperature=TimeSeries.constant(300.0),
        )
        with pytest.raises(InfeasibleScenarioError):
            solver.steady_state(bc)

    def test_infeasible_pressures_name_a_node(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        bc = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries.constant(1.0e5)),
            outlet=BoundaryLeg("flow", TimeSeries.constant(300.0)),
            temperature=TimeSeries.constant(300.0),
        )
        with pytest.raises(InfeasibleScenarioError, match="node"):
            solver.steady_state(bc)  # friction drop far exceeds the available head

    @pytest.mark.parametrize("bad,node,expected", [
        ({"P": -250.0}, 37, "P = -250 at node 37 (x = 3700.0 m) is not physical; "
                            "pressure below zero: column separation is outside the model"),
        ({"T": 0.0}, 0, "T = 0 at node 0 (x = 0.0 m) is not physical"),
        ({"rho": -1.5}, 100, "rho = -1.5 at node 100 (x = 10000.0 m) is not physical"),
        ({"rho": -1.5, "T": -2.0}, 12, "T = -2 at node 12 (x = 1200.0 m) is not physical"),
    ], ids=["P", "T", "rho", "T_before_rho"])
    @pytest.mark.parametrize("exc_type", [InfeasibleScenarioError, InfeasibleStateError])
    def test_check_physical_names_field_and_node(self, water_like, ten_km_line, bad, node,
                                                 expected, exc_type):
        solver = make_solver(water_like, ten_km_line)
        fields = {"P": np.full(solver.N, 8.0e5), "T": np.full(solver.N, 300.0),
                  "rho": np.full(solver.N, 1000.0)}
        good = GridState(t=0.0, x=solver.x, V=np.ones(solver.N), **fields)
        assert solver._check_physical(good, exc_type) is None
        for name, value in bad.items():
            fields[name] = fields[name].copy()
            fields[name][node] = value
        state = GridState(t=0.0, x=solver.x, V=np.ones(solver.N), **fields)
        with pytest.raises(exc_type) as err:
            solver._check_physical(state, exc_type)
        assert type(err.value) is exc_type
        assert str(err.value) == expected

    def test_gas_pressure_below_zero_is_not_column_separation(self, ten_km_line):
        solver = make_solver(_GAS, ten_km_line)
        P = np.full(solver.N, 5.0e6)
        P[37] = -250.0
        state = GridState(t=0.0, x=solver.x, P=P, V=np.ones(solver.N),
                          T=np.full(solver.N, 300.0), rho=np.full(solver.N, 40.0))
        with pytest.raises(InfeasibleStateError) as err:
            solver._check_physical(state, InfeasibleStateError)
        assert str(err.value) == "P = -250 at node 37 (x = 3700.0 m) is not physical"

    def test_eos_consistency(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        st = solver.steady_state(bc_pp(1.0e6, 6.7e5))
        np.testing.assert_allclose(st.rho, density(water_like.eos, st.P, st.T), rtol=1e-8)

    @pytest.mark.parametrize("eos", [
        LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4),
        GasEos(R=500.0),
        GasEos.from_z_reference(R=500.0, P_ref=5e6, T_ref=300.0, Z_ref=0.9, y=1.0),
    ], ids=["liquid", "ideal_gas", "correlated_gas"])
    def test_solver_density_is_fluid_density(self, eos):
        fluid = FluidModel(eos=eos, c=2200.0)
        pipe = PipelineModel(length=20000.0, diameter=0.5, friction_factor=0.015,
                             U=1.0, Tg=288.15)
        st = make_solver(fluid, pipe, dx=500.0).steady_state(bc_fp(45.0, 5.0e6))
        assert np.array_equal(st.rho, density(eos, st.P, st.T))

    def test_grid_refinement_convergence(self, water_like, ten_km_line):
        coarse = make_solver(water_like, ten_km_line, dx=200.0)
        fine = make_solver(water_like, ten_km_line, dx=100.0)
        dp = []
        for s in (coarse, fine):
            st = s.steady_state(bc_fp(70.0, 6.7e5))
            dp.append(float(st.P[0] - st.P[-1]))
        assert abs(dp[1] - dp[0]) / dp[1] < 5e-3


class TestGasSteadyAgainstIvp:
    def test_profiles_match_independent_integration(self):
        gas = GasEos.from_z_reference(R=500.0, P_ref=5e6, T_ref=300.0, Z_ref=0.9, y=1.0)
        fluid = FluidModel(eos=gas, c=2200.0)
        pipe = PipelineModel(length=50000.0, diameter=0.5, friction_factor=0.015,
                             U=1.0, Tg=288.15)
        solver = make_solver(fluid, pipe, dx=250.0)
        st = solver.steady_state(bc_fp(45.0, 5.0e6))
        mdot, A, c = 45.0, pipe.area, fluid.c

        def rho_and_partials(P, T):
            k, y, R = gas.k, gas.y, gas.R
            rho = P * (1 + k * P / T**y) / (R * T)
            drho_dP = (1 + 2 * k * P / T**y) / (R * T)
            drho_dT = -y * k * P**2 * T ** (-y - 1) / (R * T) - rho / T
            return rho, drho_dP, drho_dT

        def rhs(x, yv):
            P, T = yv
            rho, dr_dP, dr_dT = rho_and_partials(P, T)
            V = mdot / (rho * A)
            aP = -(V / rho) * dr_dP
            aT = -(V / rho) * dr_dT
            fric = pipe.friction_factor * V * abs(V) / (2 * pipe.diameter)
            dPdT_rho = dP_dT_const_density(gas, P, T)
            lhs = np.array([
                [V * aP + 1.0 / rho, V * aT],
                [(T / (rho * c)) * dPdT_rho * aP, V + (T / (rho * c)) * dPdT_rho * aT],
            ])
            rhs_v = np.array([
                -fric,
                pipe.friction_factor * abs(V) ** 3 / (2 * c * pipe.diameter)
                - 4 * pipe.U / (rho * c * pipe.diameter) * (T - pipe.Tg),
            ])
            return np.linalg.solve(lhs, rhs_v)

        sol = solve_ivp(rhs, (0.0, pipe.length), [st.P[0], st.T[0]],
                        t_eval=st.x, rtol=1e-10, atol=1e-8)
        assert sol.success
        dp_total = st.P[0] - st.P[-1]
        assert np.max(np.abs(st.P - sol.y[0])) < 3e-3 * dp_total
        assert np.max(np.abs(st.T - sol.y[1])) < 0.1


class TestAdvance:
    def test_steady_is_fixed_point(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        bc = bc_pp(1.0e6, 6.7e5)
        st = solver.steady_state(bc)
        new = solver.advance(st, bc, 1.0).state
        for name in ("P", "V", "T", "rho"):
            a, b = getattr(st, name), getattr(new, name)
            scale = np.maximum(np.abs(a), 1e-12)
            assert np.max(np.abs(b - a) / scale) < 1e-8, name

    def test_pressure_step_travels_at_sound_speed(self, water_like):
        pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=0.02,
                             U=0.0, Tg=300.0)
        solver = make_solver(water_like, pipe, dx=100.0)
        dt = 0.1
        a = np.sqrt(water_like.eos.B / water_like.eos.rho0)
        step = 5.0e4
        bc0 = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries.constant(1.0e6)),
            outlet=BoundaryLeg("flow", TimeSeries.constant(70.35)),
            temperature=TimeSeries.constant(300.0),
        )
        bc1 = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries([0.0, 0.05], [1.0e6, 1.0e6 + step])),
            outlet=BoundaryLeg("flow", TimeSeries.constant(70.35)),
            temperature=TimeSeries.constant(300.0),
        )
        st = solver.steady_state(bc0)
        p_out0 = st.P[-1]
        t_half = 0.5 * pipe.length / a
        worst = 0.0
        cur = st
        while cur.t + dt < t_half:
            cur = solver.advance(cur, bc1, dt).state
            worst = max(worst, abs(cur.P[-1] - p_out0))
        assert worst < 1e-3 * step
        # and the front does arrive around one transit time
        while cur.t < 1.5 * pipe.length / a:
            cur = solver.advance(cur, bc1, dt).state
        assert abs(cur.P[-1] - p_out0) > 0.5 * step

    def test_mass_ledger_no_leak(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        # a genuinely transient run: ramp the inlet boundary
        bc = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries([0.0, 300.0], [1.0e6, 1.08e6])),
            outlet=BoundaryLeg("pressure", TimeSeries.constant(6.7e5)),
            temperature=TimeSeries.constant(300.0),
        )
        st = solver.steady_state(bc, t=0.0)
        for _ in range(100):
            result = solver.advance(st, bc, 2.0)
            st = result.state
            assert abs(result.ledger.residual) < 1e-8 * result.ledger.linepack_end

    def test_mass_ledger_with_leak(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line, points=(5000.0,))
        bc = bc_pp(1.0e6, 6.7e5)
        leaks = [LeakEvent(position=5000.0, start_time=20.0, mass_rate=5.0)]
        st = solver.steady_state(bc, t=0.0)
        for _ in range(100):
            result = solver.advance(st, bc, 2.0, leaks=leaks)
            st = result.state
            assert abs(result.ledger.residual) < 1e-8 * result.ledger.linepack_end
        assert result.ledger.leak_mass == pytest.approx(5.0 * 2.0, rel=1e-12)

    def test_ledger_linepack_chains_bit_for_bit(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line, points=(5000.0,))
        bc = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries([0.0, 30.0], [1.0e6, 1.08e6])),
            outlet=BoundaryLeg("pressure", TimeSeries.constant(6.7e5)),
            temperature=TimeSeries.constant(300.0),
        )
        leaks = [LeakEvent(position=5000.0, start_time=10.0, mass_rate=5.0)]
        st = solver.steady_state(bc, t=0.0)
        ledgers = []
        for _ in range(20):
            result = solver.advance(st, bc, 2.0, leaks=leaks)
            st = result.state
            ledgers.append(result.ledger)
        for before, after in zip(ledgers, ledgers[1:]):
            assert after.linepack_start.hex() == before.linepack_end.hex()
        assert ledgers[-1].linepack_end != ledgers[0].linepack_start

    def test_leak_global_mass_audit(self, water_like, ten_km_line):
        # flow-specified inlet; integrated (in - out - d linepack) -> q*T
        solver = make_solver(water_like, ten_km_line, points=(5000.0,))
        bc = bc_fp(70.35, 6.7e5)
        q = 3.0
        leaks = [LeakEvent(position=5000.0, start_time=60.0, mass_rate=q)]
        st = solver.steady_state(bc, t=0.0)
        lp0 = linepack(st, ten_km_line)
        mass_in = mass_out = 0.0
        horizon = 600.0
        while st.t < horizon - 1e-9:
            result = solver.advance(st, bc, 1.0, leaks=leaks)
            st = result.state
            mass_in += result.ledger.mass_in
            mass_out += result.ledger.mass_out
        leaked = mass_in - mass_out - (linepack(st, ten_km_line) - lp0)
        assert leaked == pytest.approx(q * (horizon - 60.0), rel=5e-3)

    def test_mirror_symmetry(self, water_like):
        pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=0.02,
                             U=0.0, Tg=300.0)
        fwd = make_solver(water_like, pipe, dx=200.0)
        rev = make_solver(water_like, pipe, dx=200.0)
        series = TimeSeries([0.0, 30.0], [8.0e5, 8.6e5])
        bc_f = BoundaryConditions(
            inlet=BoundaryLeg("flow", TimeSeries.constant(70.35)),
            outlet=BoundaryLeg("pressure", series),
            temperature=TimeSeries.constant(300.0),
            temperature_end="inlet",
        )
        bc_r = BoundaryConditions(
            inlet=BoundaryLeg("pressure", series),
            outlet=BoundaryLeg("flow", TimeSeries.constant(-70.35)),
            temperature=TimeSeries.constant(300.0),
            temperature_end="outlet",
        )
        sf = fwd.steady_state(bc_f)
        sr = rev.steady_state(bc_r)
        for _ in range(20):
            sf = fwd.advance(sf, bc_f, 1.0).state
            sr = rev.advance(sr, bc_r, 1.0).state
            assert np.max(np.abs(sr.P - sf.P[::-1]) / sf.P[::-1]) < 1e-8
            assert np.max(np.abs(sr.V + sf.V[::-1])) < 1e-8 * np.max(np.abs(sf.V))
            assert np.max(np.abs(sr.T - sf.T[::-1])) < 1e-6

    def test_energy_pure_advection_stays_uniform(self, water_like):
        pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=1e-12,
                             U=0.0, Tg=250.0)
        solver = make_solver(water_like, pipe)
        bc = bc_fp(70.35, 8.0e5, T=300.0)
        st = solver.steady_state(bc)
        for _ in range(100):
            st = solver.advance(st, bc, 1.0).state
        assert np.max(np.abs(st.T - 300.0)) < 1e-4  # 1e-6 K per step budget

    def test_dt_override_changes_step(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        bc = bc_pp(1.0e6, 6.7e5)
        st = solver.steady_state(bc)
        out = solver.advance(st, bc, 5.0)
        assert out.state.t == pytest.approx(5.0)


class TestReadouts:
    def test_linepack_uniform_density(self, water_like, ten_km_line):
        x = np.linspace(0.0, 10000.0, 101)
        state = GridState(t=0.0, x=x, P=np.full(101, 1e6), V=np.zeros(101),
                          T=np.full(101, 300.0), rho=np.full(101, 1000.0))
        assert linepack(state, ten_km_line) == pytest.approx(
            1000.0 * ten_km_line.area * 10000.0, rel=1e-12)

    def test_linepack_linear_density_is_average(self, ten_km_line):
        x = np.linspace(0.0, 10000.0, 101)
        rho = np.linspace(990.0, 1010.0, 101)
        state = GridState(t=0.0, x=x, P=np.full(101, 1e6), V=np.zeros(101),
                          T=np.full(101, 300.0), rho=rho)
        assert linepack(state, ten_km_line) == pytest.approx(
            1000.0 * ten_km_line.area * 10000.0, rel=1e-12)

    @pytest.mark.parametrize("fluid_kind", ["liquid", "gas"])
    def test_linepack_is_trapezoid_bit_for_bit(self, water_like, ten_km_line, fluid_kind):
        fluid, pipe = (water_like, ten_km_line) if fluid_kind == "liquid" else (_GAS, _GAS_LINE)
        p_in, p_out = _LINES[fluid_kind][:2]
        L = pipe.length
        grid = discretize(pipe, L / 37.0, (0.123 * L, 0.61 * L))
        assert np.ptp(np.diff(grid.node_positions)) > 1e-3 * L / 37.0  # non-uniform
        st = PipeFlowSolver(pipe, fluid, grid).steady_state(bc_pp(p_in, p_out))
        assert np.ptp(st.rho) > 0.0
        expected = pipe.area * float(np.trapezoid(st.rho, st.x))
        assert linepack(st, pipe).hex() == expected.hex()

    @pytest.mark.parametrize("t", [0.0, 10.0, 1.0e6], ids=["before", "at", "after"])
    def test_constant_series_matches_interp(self, t):
        ts = TimeSeries([10.0], [7.25])
        v = ts.at(t)
        assert type(v) is float
        assert v == float(np.interp(t, ts.times, ts.values))


class TestTimeSeriesChecks:
    @pytest.mark.parametrize("times,values,match", [
        ([10.0, 5.0], [1.0, 2.0], "non-decreasing"),
        ([0.0, 5.0], [1.0], "equal-length"),
        ([], [], "equal-length"),
    ], ids=["backwards", "unequal_lengths", "empty"])
    def test_bad_series_rejected(self, times, values, match):
        with pytest.raises(ConfigurationError, match=match):
            TimeSeries(times, values)

    def test_scalar_input_is_one_point(self):
        ts = TimeSeries(10.0, 7.25)
        assert ts.times.shape == ts.values.shape == (1,)
        assert [ts.at(t) for t in (0.0, 10.0, 20.0)] == [7.25, 7.25, 7.25]

    def test_zero_length_span_is_accepted(self):
        ts = TimeSeries([5.0, 5.0], [1.0, 2.0])
        assert [ts.at(t) for t in (4.0, 6.0)] == [1.0, 2.0]


def _assert_state_is_iterate(solver, st, u):
    """P, V and T of ``st`` are the iterate ``u`` and rho is its raw EOS
    density, bit for bit."""
    for k, name in enumerate("PVT"):
        assert getattr(st, name).tobytes() == u[k::3].tobytes()
    rho = raw_density(solver.fluid.eos, u[0::3].copy(), u[2::3].copy())
    assert st.rho.tobytes() == rho.tobytes()


class TestNewState:
    """A solve returns the state at the iterate Newton returned, as one copy
    of the residual's workspace, in arrays that no later solve touches."""

    @staticmethod
    def _recorded(solver, monkeypatch):
        """Record, per solve, Newton's iterate, its iterations, its Jacobian
        builds and its line-search halvings."""
        solves = []
        counts = collections.Counter()
        build, factor, newton = solver._build_residual, solver._factor, solver._newton

        def counted_build(*args):
            res = build(*args)

            def evaluate(u):
                counts["evaluations"] += 1
                return res(u)
            return evaluate

        def counted_factor(*args):
            counts["builds"] += 1
            return factor(*args)

        def recorded_newton(*args, **kwargs):
            counts.clear()
            u, history = newton(*args, **kwargs)
            iterations = len(history) - 1
            # One evaluation to start, one per iteration, 9 per Jacobian
            # build: any more are line-search halvings.
            halvings = counts["evaluations"] - 1 - iterations - 9 * counts["builds"]
            solves.append((u.copy(), iterations, counts["builds"], halvings))
            return u, history

        monkeypatch.setattr(solver, "_build_residual", counted_build)
        monkeypatch.setattr(solver, "_factor", counted_factor)
        monkeypatch.setattr(solver, "_newton", recorded_newton)
        return solves

    @pytest.mark.parametrize("fluid_kind", ["liquid", "gas"])
    def test_state_is_the_returned_iterate(self, water_like, ten_km_line, fluid_kind, monkeypatch):
        fluid, pipe = (water_like, ten_km_line) if fluid_kind == "liquid" else (_GAS, _GAS_LINE)
        p_in, p_out = _LINES[fluid_kind][:2]
        # An inlet slam over one step at t=20 dt slows Newton enough to force
        # Jacobian rebuilds (the liquid one is test_boundary_series_read_once_per_step's),
        # and a steady inlet pressure far enough off that Newton, started
        # from a step of the old one, halves its steps.
        dx, dt, p_slam, p_far = {"liquid": (100.0, 1.0, 2.0e6, 3.0e6),
                                 "gas": (2500.0, 2.0, 7.0e6, 1.1e7)}[fluid_kind]
        solver = make_solver(fluid, pipe, dx=dx)
        solves = self._recorded(solver, monkeypatch)
        bc = bc_pp(p_in, p_out)
        slam = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries([0.0, 20 * dt, 21 * dt],
                                                     [p_in, p_in, p_slam])),
            outlet=bc.outlet, temperature=bc.temperature)

        states = [solver.steady_state(bc)]
        states.append(solver.steady_state(bc, initial_guess=states[0]))
        for _ in range(30):
            states.append(solver.advance(states[-1], slam, dt).state)
        states.append(solver.steady_state(bc_pp(p_far, p_out), initial_guess=states[2]))
        kept = [[getattr(st, f).copy() for f in ("P", "V", "T", "rho")] for st in states]

        assert len(solves) == len(states)
        for st, (u, *_) in zip(states, solves):
            _assert_state_is_iterate(solver, st, u)
        iterations, builds, halvings = (np.array(c) for c in list(zip(*solves))[1:])
        assert iterations[1] == 0                     # the warm-started steady solve
        assert (builds[3:-1] > 0).any()               # a rebuild during the slam
        assert halvings[-1] > 0 and not halvings[:-1].any()

        # Later solves and the workspace itself leave every returned state as it was.
        solver._w[:] = np.nan
        for st, fields in zip(states, kept):
            for f, arr in zip(("P", "V", "T", "rho"), fields):
                assert getattr(st, f).tobytes() == arr.tobytes()

    def test_newton_ends_on_its_iterate(self, water_like, ten_km_line):
        # Newton must return with the workspace at its iterate even when the
        # residual was last evaluated elsewhere.
        solver = make_solver(water_like, ten_km_line)
        bc = bc_pp(1.0e6, 6.7e5)
        st = solver.steady_state(bc)
        res = solver._build_residual(bc, bc.at(0.0), np.zeros(solver.N - 1))
        probed = []

        def res_then_probe(u):
            R = res(u)
            if not probed:
                probed.append(u)
                res(u + solver.u_scale)
            return R

        u, history = solver._newton(solver._pack(st.P, st.V, st.T), res_then_probe,
                                    ("steady", "inlet"), fresh_jacobian=False)
        assert len(history) == 1 and probed[0] is u
        _assert_state_is_iterate(solver, solver._new_state(0.0), u)


class TestSolverReuse:
    """What a solver keeps between solves (its residual's buffers, Newton's
    step buffers, its leak nodes and the last step's linepack) leaves no
    trace in a later solve."""

    @staticmethod
    def _bytes(step):
        fields = [getattr(step.state, f).tobytes() for f in ("P", "V", "T", "rho")]
        return fields, np.array(dataclasses.astuple(step.ledger)).tobytes()

    @pytest.mark.parametrize("temperature_end", ["inlet", "outlet"])
    @pytest.mark.parametrize("fluid_kind", ["liquid", "gas"])
    def test_step_after_a_locate_scan_matches_a_fresh_solver(self, water_like, ten_km_line,
                                                             fluid_kind, temperature_end):
        fluid, pipe = (water_like, ten_km_line) if fluid_kind == "liquid" else (_GAS, _GAS_LINE)
        p_in, p_out, mdot, dx, dt = _LINES[fluid_kind]
        if temperature_end == "outlet":   # the flow runs away from the held end
            p_in, p_out = p_out, p_in
        bc = bc_pp(p_in, p_out, temperature_end=temperature_end)
        leaks = [LeakEvent(position=0.4 * pipe.length, start_time=0.5 * dt,
                           mass_rate=0.02 * mdot)]

        def started():
            # The steady start freezes the residual's scales the same way
            # on both solvers.
            solver = make_solver(fluid, pipe, dx=dx)
            return solver, solver.steady_state(bc)

        # The RTM shadow's sequence: a step, then at declaration the locate
        # scan (a warm-started steady solve, the leak response, an exact
        # leaky steady solve), then the next step from the shadow's state.
        solver, start = started()
        first = solver.advance(start, bc, dt, leaks=leaks)
        t = first.state.t
        base = solver.steady_state(bc, t=t, initial_guess=first.state)
        solver.steady_leak_response(base, bc, [("P", 3), ("V", 0), ("T", solver.N - 2)])
        probe = LeakEvent(position=0.7 * pipe.length, start_time=-np.inf, mass_rate=0.02 * mdot)
        solver.steady_state(bc, t=t, leaks=[probe], initial_guess=base)
        again = solver.advance(first.state, bc, dt, leaks=leaks)

        fresh, _ = started()
        expected = fresh.advance(first.state, bc, dt, leaks=leaks)
        assert self._bytes(again) == self._bytes(expected)
        assert again.ledger.linepack_start == first.ledger.linepack_end
        # From any other state, a step takes that state's own linepack.
        assert solver.advance(start, bc, dt).ledger.linepack_start == linepack(start, pipe)


    def test_solver_is_freed_without_the_cycle_collector(self, water_like, ten_km_line):
        # The residuals a solver keeps hold no reference back to it, so a
        # dropped solver frees its buffers at once, not at the next
        # collection: repeated runs in one process keep their peak memory.
        solver = make_solver(water_like, ten_km_line)
        bc = bc_pp(1.0e6, 6.7e5)
        solver.advance(solver.steady_state(bc), bc, 1.0)
        freed = weakref.ref(solver)
        gc.disable()
        try:
            del solver
            assert freed() is None
        finally:
            gc.enable()


class TestLedgerOpening:
    """A step's ledger opens on its old state's own linepack and end fluxes,
    bit for bit, whichever way the solver came to that state."""

    @pytest.mark.parametrize("temperature_end", ["inlet", "outlet"])
    @pytest.mark.parametrize("fluid_kind", ["liquid", "gas"])
    def test_opening_values_are_the_old_state_s(self, water_like, ten_km_line, fluid_kind,
                                                temperature_end):
        fluid, pipe = (water_like, ten_km_line) if fluid_kind == "liquid" else (_GAS, _GAS_LINE)
        p_in, p_out, mdot, dx, dt = _LINES[fluid_kind]
        if temperature_end == "outlet":   # the flow runs away from the held end
            p_in, p_out = p_out, p_in
        bc = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries([0.0, dt, 2 * dt], [p_in, p_in, 1.02 * p_in])),
            outlet=BoundaryLeg("pressure", TimeSeries.constant(p_out)),
            temperature=TimeSeries.constant(300.0), temperature_end=temperature_end)
        leaks = [LeakEvent(position=0.4 * pipe.length, start_time=0.5 * dt,
                           mass_rate=0.02 * mdot)]
        solver = make_solver(fluid, pipe, dx=dx)
        A, th = pipe.area, _THETA

        def checked_step(state):
            step = solver.advance(state, bc, dt, leaks=leaks)
            new, ledger = step.state, step.ledger
            assert ledger.linepack_start == linepack(state, pipe)
            assert ledger.linepack_end == linepack(new, pipe)
            for node, mass in ((0, ledger.mass_in), (-1, ledger.mass_out)):
                flux_old = A * state.rho[node] * state.V[node]
                flux_new = A * new.rho[node] * new.V[node]
                assert mass == dt * (th * flux_new + (1 - th) * flux_old), node
            return new

        start = solver.steady_state(bc)
        first = checked_step(start)               # from the steady start
        own = checked_step(first)                 # from the state the solver returned
        copy = dataclasses.replace(own, **{f: getattr(own, f).copy()
                                           for f in ("P", "V", "T", "rho")})
        after_copy = checked_step(copy)           # from a copy of it
        solver.steady_state(bc_pp(p_in, p_out, temperature_end=temperature_end),
                            t=after_copy.t, initial_guess=after_copy)
        checked_step(after_copy)                  # from its own state, a steady solve between


class TestWarmStep:
    """A step from the state the solver last returned starts Newton from the
    iterate its workspace holds and skips the first evaluation's stencils;
    the same solver history stepping from copies of its states takes the
    full path.  Both give the same bits at every step."""

    @staticmethod
    def _bytes(step):
        fields = [getattr(step.state, f).tobytes() for f in ("P", "V", "T", "rho")]
        return fields, np.array(dataclasses.astuple(step.ledger)).tobytes()

    @pytest.mark.parametrize("temperature_end", ["inlet", "outlet"])
    @pytest.mark.parametrize("fluid_kind", ["liquid", "gas"])
    def test_step_from_own_state_matches_step_from_a_copy(self, water_like, ten_km_line,
                                                         fluid_kind, temperature_end,
                                                         monkeypatch):
        fluid, pipe = (water_like, ten_km_line) if fluid_kind == "liquid" else (_GAS, _GAS_LINE)
        p_in, p_out, mdot, dx, dt = _LINES[fluid_kind]
        if temperature_end == "outlet":   # the flow runs away from the held end
            p_in, p_out = p_out, p_in
        # A leak opens at step 3, the locate scan runs before step 5, and a 5%
        # inlet slam at step 6 takes Newton several iterations.
        bc = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries([0.0, 6 * dt, 7 * dt],
                                                     [p_in, p_in, 1.05 * p_in])),
            outlet=BoundaryLeg("pressure", TimeSeries.constant(p_out)),
            temperature=TimeSeries.constant(300.0), temperature_end=temperature_end)
        leaks = [LeakEvent(position=0.4 * pipe.length, start_time=2.5 * dt,
                           mass_rate=0.02 * mdot)]
        densities = collections.Counter()
        real_density = hydraulics.raw_density

        def counted(*args):
            densities["calls"] += 1
            return real_density(*args)
        monkeypatch.setattr(hydraulics, "raw_density", counted)

        def step(solver, state):
            densities.clear()
            result = solver.advance(state, bc, dt, leaks=leaks)
            return result, densities["calls"]

        def locate_scan(solver, state):
            # what the RTM's locate scan asks of the shadow between two steps
            steady = bc_pp(p_in, p_out, temperature_end=temperature_end)
            base = solver.steady_state(steady, t=state.t, initial_guess=state)
            solver.steady_leak_response(base, steady, [("P", 3), ("V", 0)])
            probe = LeakEvent(position=0.7 * pipe.length, start_time=-np.inf,
                              mass_rate=0.02 * mdot)
            solver.steady_state(steady, t=state.t, leaks=[probe], initial_guess=base)

        own, full = make_solver(fluid, pipe, dx=dx), make_solver(fluid, pipe, dx=dx)
        own_state = own.steady_state(bc)
        full_state = full.steady_state(bc)
        for k in range(12):
            if k == 4:
                locate_scan(own, own_state)
                locate_scan(full, full_state)
            copy = dataclasses.replace(full_state, **{f: getattr(full_state, f).copy()
                                                      for f in ("P", "V", "T", "rho")})
            own_step, own_densities = step(own, own_state)
            full_step, full_densities = step(full, copy)
            assert self._bytes(own_step) == self._bytes(full_step), k
            # The same Newton path; the own-state step's first evaluation
            # reuses its workspace, except after the steady start and after
            # the locate scan, which leave other states there.
            warm = k not in (0, 4)
            assert own_densities == full_densities - warm, k
            own_state, full_state = own_step.state, full_step.state


class TestWarmSteadyStart:
    """A steady solve warm-started from a transient state of the same line,
    as the RTM's locate scan starts from the shadow's state."""

    @pytest.mark.parametrize("temperature_end", ["inlet", "outlet"])
    def test_from_a_gas_state_after_a_pressure_step(self, temperature_end):
        p_in, p_out, mdot, dx, dt = _LINES["gas"]
        if temperature_end == "outlet":   # the flow runs away from the held end
            p_in, p_out = p_out, p_in
        # TestWarmStep's history: a 2% leak opens at step 3 and the inlet
        # rises 5% over step 7; the state is the one after step 9.
        bc = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries([0.0, 6 * dt, 7 * dt],
                                                     [p_in, p_in, 1.05 * p_in])),
            outlet=BoundaryLeg("pressure", TimeSeries.constant(p_out)),
            temperature=TimeSeries.constant(300.0), temperature_end=temperature_end)
        leaks = [LeakEvent(position=0.4 * _GAS_LINE.length, start_time=2.5 * dt,
                           mass_rate=0.02 * mdot)]
        solver = make_solver(_GAS, _GAS_LINE, dx=dx)
        state = solver.steady_state(bc)
        for _ in range(9):
            state = solver.advance(state, bc, dt, leaks=leaks).state
        stepped = bc_pp(1.05 * p_in, p_out, temperature_end=temperature_end)
        warm = solver.steady_state(stepped, t=state.t, initial_guess=state)
        cold = make_solver(_GAS, _GAS_LINE, dx=dx).steady_state(stepped, t=state.t)
        for f in ("P", "V", "T"):
            np.testing.assert_allclose(getattr(warm, f), getattr(cold, f), rtol=1e-9)

    @pytest.mark.parametrize("p_far", [1.0e7, 1.35e7, 1.6e7])
    def test_from_a_guess_too_far_off_it_starts_cold(self, p_far):
        # Newton started from one step after a 6.0e6 Pa steady start stalls
        # or runs out of iterations on these inlet pressures; the cold guess
        # converges.
        p_in, p_out, _, dx, dt = _LINES["gas"]
        solver = make_solver(_GAS, _GAS_LINE, dx=dx)
        bc = bc_pp(p_in, p_out)
        state = solver.advance(solver.steady_state(bc), bc, dt).state
        far = bc_pp(p_far, p_out)
        warm = solver.steady_state(far, t=state.t, initial_guess=state)
        cold = make_solver(_GAS, _GAS_LINE, dx=dx).steady_state(far, t=state.t)
        for f in ("P", "V", "T"):
            np.testing.assert_allclose(getattr(warm, f), getattr(cold, f), rtol=1e-9)


class TestSettingsValidation:
    def test_leak_validation(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        bc = bc_pp(1.0e6, 6.7e5)
        st = solver.steady_state(bc)
        with pytest.raises(ConfigurationError, match="interior"):
            solver.advance(st, bc, 1.0,
                           leaks=[LeakEvent(position=10.0, start_time=0.0, mass_rate=1.0)])

    def test_boundary_leg_kind(self):
        with pytest.raises(ConfigurationError):
            BoundaryLeg("head", TimeSeries.constant(1.0))

    def test_absolute_boundary_values_must_be_positive(self):
        # an operator setpoint error: the outlet pressure commanded below zero
        with pytest.raises(ConfigurationError,
                           match=r"^boundary pressure must be > 0, got -50000\.0$"):
            BoundaryLeg("pressure", TimeSeries([0.0, 1.0], [6.7e5, -5.0e4]))
        with pytest.raises(ConfigurationError,
                           match=r"^boundary temperature must be > 0, got 0\.0$"):
            bc_pp(1.0e6, 6.7e5, T=0.0)
        # a flow may run either way
        assert BoundaryLeg("flow", TimeSeries.constant(-70.0)).series.at(0.0) == -70.0


class TestFailureModes:
    def test_advance_into_negative_pressure_is_infeasible_state(self, water_like, ten_km_line):
        from linewatch.errors import InfeasibleStateError
        solver = make_solver(water_like, ten_km_line)
        st = solver.steady_state(bc_pp(1.0e6, 6.7e5))
        # the outlet draws 150 kg/s within 1 s: the rarefaction drains the
        # line below zero pressure
        bad = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries.constant(1.0e6)),
            outlet=BoundaryLeg("flow", TimeSeries([0.0, 1.0], [70.5, 150.0])),
            temperature=TimeSeries.constant(300.0),
        )
        with pytest.raises(InfeasibleStateError, match="node"):
            for _ in range(5):
                st = solver.advance(st, bad, 1.0).state

    def test_non_finite_guess_fails_before_newton(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        bc = bc_pp(1.0e6, 6.7e5)
        guess = dataclasses.replace(solver.steady_state(bc), P=np.full(solver.N, np.nan))
        with pytest.raises(SolverError, match="^initial residual is not finite$") as err:
            solver.steady_state(bc, initial_guess=guess)
        assert len(err.value.history) == 1 and np.isnan(err.value.history[0])

    def test_solver_error_carries_residual_history(self, water_like, ten_km_line, monkeypatch):
        solver = make_solver(water_like, ten_km_line)
        # the steady start needs more than one Newton iteration
        st = solver.steady_state(bc_pp(1.0e6, 6.7e5))
        monkeypatch.setattr(hydraulics, "_NEWTON_MAX_ITER", 1)
        slam = bc_pp(2.5e6, 6.7e5)  # 15 bar slam: one iteration cannot converge
        with pytest.raises(SolverError, match="in 1 iterations") as err:
            solver.advance(st, slam, 1.0)
        assert len(err.value.history) >= 1
        assert err.value.residual is not None

    @pytest.mark.parametrize("fill,match", [
        (np.nan, "non-finite Jacobian"),
        (0.0, "singular Jacobian"),
    ], ids=["nan", "zero"])
    def test_bad_jacobian_is_solver_error(self, water_like, ten_km_line, monkeypatch, fill, match):
        solver = make_solver(water_like, ten_km_line)
        real = solver._jacobian
        monkeypatch.setattr(solver, "_jacobian", lambda *args: np.full_like(real(*args), fill))
        with pytest.raises(SolverError, match=match) as err:
            solver.steady_state(bc_pp(1.0e6, 6.7e5))
        assert len(err.value.history) >= 1


class TestNewtonRetries:
    """Cached factors that fail are rebuilt once; fresh ones that fail stop the solve."""

    LEAK = [LeakEvent(position=4000.0, start_time=0.0, mass_rate=2.0)]

    def _second_step(self, fluid, pipe, monkeypatch, spoil):
        """The second step into a leak, after ``spoil(solver, J)`` has
        replaced the factors the first step cached (of the Jacobian J); its
        StepResult and the number of factorizations it made."""
        solver = make_solver(fluid, pipe)
        jacobians = []  # copies: the factorization overwrites its input
        real = solver._jacobian

        def recorded(*args):
            ab = real(*args)
            jacobians.append(ab.copy())
            return ab

        monkeypatch.setattr(solver, "_jacobian", recorded)
        bc = bc_pp(1.0e6, 6.7e5)
        st = solver.advance(solver.steady_state(bc), bc, 1.0, leaks=self.LEAK).state
        spoil(solver, jacobians[-1])
        before = len(jacobians)
        result = solver.advance(st, bc, 1.0, leaks=self.LEAK)
        return result, len(jacobians) - before

    def _assert_same_step(self, a, b):
        for name in ("P", "V", "T", "rho"):
            assert np.array_equal(getattr(a.state, name), getattr(b.state, name)), name
        assert a.ledger == b.ledger

    def _cleared(self, solver, J):
        solver._lu_cache = None

    @pytest.mark.parametrize("spoil", ["negated", "singular"])
    def test_spoiled_cache_is_rebuilt_once(self, water_like, ten_km_line, monkeypatch, spoil):
        def negated(solver, J):
            # -J points Newton uphill: every line-search trial is rejected
            solver._lu_cache = hydraulics.lapack.dgbtrf(-J, 4, 4)

        def singular(solver, J):
            solver._lu_cache = hydraulics.lapack.dgbtrf(np.zeros_like(J), 4, 4)
            assert solver._lu_cache.info == 1

        ref, ref_builds = self._second_step(water_like, ten_km_line, monkeypatch, self._cleared)
        step, builds = self._second_step(water_like, ten_km_line, monkeypatch,
                                         {"negated": negated, "singular": singular}[spoil])
        assert builds == ref_builds >= 1
        self._assert_same_step(step, ref)

    def test_fresh_factors_that_fail_the_line_search_stop_newton(self, water_like, ten_km_line,
                                                                 monkeypatch):
        solver = make_solver(water_like, ten_km_line)
        real = solver._jacobian
        monkeypatch.setattr(solver, "_jacobian", lambda *args: -real(*args))
        with pytest.raises(SolverError, match=re.escape(
                "Newton stalled (line search failed with a fresh Jacobian)")) as err:
            solver.steady_state(bc_pp(1.0e6, 6.7e5))
        assert err.value.iterations == 0 and len(err.value.history) == 1

    def test_factors_that_served_a_step_are_rebuilt_when_refused(self, water_like, ten_km_line,
                                                               monkeypatch):
        # A Jacobian is fresh only until Newton accepts a step from it: the
        # second solve with the first factors points uphill, and Newton
        # factors again at its iterate rather than giving up.
        bc = bc_pp(1.0e6, 6.7e5)
        ref = make_solver(water_like, ten_km_line).steady_state(bc)
        solver = make_solver(water_like, ten_km_line)
        real_factor, real_solve = solver._factor, hydraulics.lapack.dgbtrs
        builds, solves = [], []

        def counted_factor(*args):
            builds.append(len(solves))
            return real_factor(*args)

        def uphill_second(lu, b, **kwargs):
            solves.append(len(builds))
            x = real_solve(lu, b, **kwargs)
            return -x if len(solves) == 2 else x

        monkeypatch.setattr(solver, "_factor", counted_factor)
        monkeypatch.setattr(hydraulics.lapack, "dgbtrs", uphill_second)
        state = solver.steady_state(bc)
        # the refused step was the first factors' second, and the next solve
        # used new factors
        assert builds[:2] == [0, 2] and solves[:3] == [1, 1, 2]
        for f in ("P", "V", "T"):
            np.testing.assert_allclose(getattr(state, f), getattr(ref, f), rtol=1e-9)


class TestFactorOnce:
    def test_each_jacobian_is_factored_once(self, water_like, ten_km_line, monkeypatch):
        counts = collections.Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(PipeFlowSolver, "_jacobian", counting("builds", PipeFlowSolver._jacobian))
        monkeypatch.setattr(hydraulics.lapack, "dgbtrf", counting("factorizations", hydraulics.lapack.dgbtrf))
        monkeypatch.setattr(hydraulics.lapack, "dgbtrs", counting("solves", hydraulics.lapack.dgbtrs))

        solver = make_solver(water_like, ten_km_line)
        bc = bc_pp(1.0e6, 6.7e5)
        base = solver.steady_state(bc)
        leak = [LeakEvent(position=4000.0, start_time=5.0, mass_rate=0.7)]
        st = base
        for _ in range(50):
            st = solver.advance(st, bc, 1.0, leaks=leak).state
        for x in np.linspace(500.0, 9500.0, 20):
            solver.steady_state(bc, leaks=[LeakEvent(position=x, start_time=0.0, mass_rate=0.7)],
                                initial_guess=base)

        assert counts["builds"] >= 1
        assert counts["factorizations"] == counts["builds"]
        assert counts["solves"] >= 10 * counts["factorizations"]


    def test_boundary_series_read_once_per_step(self, water_like, ten_km_line, monkeypatch):
        solver = make_solver(water_like, ten_km_line)
        bc = bc_pp(1.0e6, 6.7e5)
        st = solver.steady_state(bc)
        # A 10 bar inlet slam over 1 s at t=20 s slows Newton enough to force
        # Jacobian rebuilds.
        slam = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries([0.0, 20.0, 21.0], [1.0e6, 1.0e6, 2.0e6])),
            outlet=bc.outlet, temperature=bc.temperature,
        )
        counts = collections.Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(TimeSeries, "at", counting("reads", TimeSeries.at))
        monkeypatch.setattr(PipeFlowSolver, "_jacobian", counting("builds", PipeFlowSolver._jacobian))
        steps = 50
        for _ in range(steps):
            st = solver.advance(st, slam, 1.0).state

        # The first transient step builds one Jacobian; the slam forces more.
        assert counts["builds"] >= 2
        assert counts["reads"] <= 3 * steps

    @pytest.mark.parametrize("inlet", ["pressure", "flow"])
    def test_boundary_series_read_once_per_steady_solve(self, water_like, ten_km_line, inlet,
                                                        monkeypatch):
        solver = make_solver(water_like, ten_km_line)
        bc = bc_pp(1.0e6, 6.7e5) if inlet == "pressure" else bc_fp(70.0, 6.7e5)
        reads = collections.Counter()
        at = TimeSeries.at

        def counted(series, t):
            reads[id(series)] += 1
            return at(series, t)

        monkeypatch.setattr(TimeSeries, "at", counted)
        solver.steady_state(bc)   # cold: the start guess reads the boundaries too
        series = (bc.inlet.series, bc.outlet.series, bc.temperature)
        assert reads == collections.Counter(id(s) for s in series)

class TestLeakResponse:
    @pytest.mark.parametrize("temperature_end", ["inlet", "outlet"])
    def test_matches_small_leak_steady_solves(self, water_like, ten_km_line, temperature_end):
        solver = make_solver(water_like, ten_km_line)
        # the flow runs away from the held-temperature end
        pressures = (1.0e6, 6.7e5) if temperature_end == "inlet" else (6.7e5, 1.0e6)
        bc = bc_pp(*pressures, temperature_end=temperature_end)
        base = solver.steady_state(bc)
        reads = [("P", 30), ("V", 0), ("V", 100), ("T", 70)]
        response = solver.steady_leak_response(base, bc, reads)
        assert response.shape == (len(reads), solver.N)
        assert not response[:, [0, -1]].any()
        rate = 0.05  # under 0.1% of the line flow, so the response is near linear
        for j in (1, 30, 31, 99):
            leak = LeakEvent(position=float(solver.x[j]), start_time=-np.inf, mass_rate=rate)
            st = solver.steady_state(bc, leaks=[leak], initial_guess=base)
            finite = [(getattr(st, f)[k] - getattr(base, f)[k]) / rate for f, k in reads]
            np.testing.assert_allclose(response[:, j], finite, rtol=5e-3)


# The residual as written out in full before its old-state, boundary and
# coefficient terms were hoisted into PipeFlowSolver._build_residual; kept
# verbatim as the reference the hoisted residual must match bit for bit.
def _reference_residual(self, u, old, t_new, bc, q_new, q_old, steady, dt):
    N = self.N
    P, V, T = u[0::3], u[1::3], u[2::3]
    with np.errstate(all="ignore"):
        rho = raw_density(self.fluid.eos, P, T)

        if steady:
            th, invdt = 1.0, 0.0
            Po = Vo = To = rhoo = None
        else:
            th, invdt = _THETA, 1.0 / dt
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
        dPdT = dP_dT_const_density(self.fluid.eos, Pb, Tb)
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


_GAS = FluidModel(
    eos=GasEos.from_z_reference(R=500.0, P_ref=5e6, T_ref=300.0, Z_ref=0.9, y=1.0),
    c=2200.0,
)
_GAS_LINE = PipelineModel(length=50000.0, diameter=0.5, friction_factor=0.015,
                          U=1.0, Tg=288.15, elevation_profile=((0.0, 0.0), (50000.0, 40.0)))
# (pressure Pa at a pressure leg, mass flow kg/s at a flow leg, dx m, dt s)
_LINES = {"liquid": (1.0e6, 6.7e5, 70.0, 500.0, 1.0), "gas": (6.0e6, 5.0e6, 45.0, 2500.0, 2.0)}


def _scheme_case(fluid_kind, legs, temperature_end, mode, leak, nodes, water_like, ten_km_line):
    """A solver and a converged state of one solve kind, with the residual
    built for that solve and the arguments ``_reference_residual`` takes
    after ``u``.  The flow runs away from the held-temperature end: with
    the temperature held at the outlet, the pressures swap and the flows
    reverse."""
    fluid, pipe = (water_like, ten_km_line) if fluid_kind == "liquid" else (_GAS, _GAS_LINE)
    p_in, p_out, mdot, dx, dt = _LINES[fluid_kind]
    if temperature_end == "outlet":
        p_in, p_out, mdot = p_out, p_in, -mdot
    if nodes is not None:
        dx = pipe.length / (nodes - 1)
    solver = make_solver(fluid, pipe, dx=dx)
    assert nodes in (None, solver.N)
    ramp = lambda v: TimeSeries([0.0, 10.0 * dt], [v, 1.02 * v])
    inlet = BoundaryLeg("pressure", ramp(p_in)) if legs[0] == "p" else BoundaryLeg("flow", ramp(mdot))
    outlet = BoundaryLeg("pressure", ramp(p_out)) if legs[1] == "p" else BoundaryLeg("flow", ramp(mdot))
    bc = BoundaryConditions(inlet=inlet, outlet=outlet,
                            temperature=TimeSeries([0.0, 10.0 * dt], [300.0, 301.0]),
                            temperature_end=temperature_end)
    # Steady solves need a pressure anchor; the flow-flow pair never occurs.
    start = 0.5 * dt if mode == "transient" else -np.inf
    leaks = ([LeakEvent(position=0.4 * pipe.length, start_time=start, mass_rate=0.02 * abs(mdot))]
             if leak else [])

    if mode == "steady":
        st = solver.steady_state(bc, t=3.0 * dt, leaks=leaks)
        q = solver._leak_cells(leaks, st.t)
        args = (None, st.t, bc, q, None, True, None)
        res = solver._build_residual(bc, bc.at(st.t), q)
    else:
        old = solver.steady_state(bc, leaks=leaks)
        st = solver.advance(old, bc, dt, leaks=leaks).state
        q_new, q_old = solver._leak_cells(leaks, st.t), solver._leak_cells(leaks, old.t)
        assert (q_new != q_old).any() == leak
        fields = (old.P, old.V, old.T, old.rho)
        args = (fields, st.t, bc, q_new, q_old, False, dt)
        res = solver._build_residual(bc, bc.at(st.t), q_new, fields, q_old, dt)
    return solver, st, res, args


class TestHoistedResidual:
    @pytest.mark.parametrize("nodes,leak", [
        (None, False), (None, True), (2, False), (3, False), (3, True),
    ], ids=["no_leak", "leak", "2_nodes", "3_nodes", "3_nodes_leak"])
    @pytest.mark.parametrize("mode", ["steady", "transient"])
    @pytest.mark.parametrize("temperature_end", ["inlet", "outlet"])
    @pytest.mark.parametrize("legs", ["pp", "fp", "pf"])
    @pytest.mark.parametrize("fluid_kind", ["liquid", "gas"])
    def test_bit_identical_to_written_out_residual(self, water_like, ten_km_line, fluid_kind,
                                                    legs, temperature_end, mode, nodes, leak):
        # On 2 and 3 nodes every field is one or two cells long, so each
        # entry the residual reads sits next to one straddling two fields.
        solver, st, res, args = _scheme_case(fluid_kind, legs, temperature_end, mode, leak,
                                             nodes, water_like, ten_km_line)
        u = solver._pack(st.P, st.V, st.T)
        rng = np.random.default_rng(7)
        for point in (u, u + 1e-3 * rng.standard_normal(u.size) * solver.u_scale):
            expected = _reference_residual(solver, point, *args)
            assert np.isfinite(expected).all()
            assert res(point).tobytes() == expected.tobytes()


# The finite-difference Jacobian as filled column by column before the fill
# became one scatter per color in PipeFlowSolver._jacobian; kept verbatim,
# with the structure it read, as the reference the scatter must match bit
# for bit.
def _reference_jacobian(self, u, res_fn, R0, key):
    rows_for, colors = _reference_structure(self, key[1])  # key = (mode, temperature_end, ...)
    ab = np.zeros((13, self.n_unknowns), order="F")
    for idx in colors:
        up = u.copy()
        up[idx] += hydraulics._FD_EPS * self.u_scale[idx]
        dR = (res_fn(up) - R0) / hydraulics._FD_EPS
        for j in idx:
            rows = rows_for[j]
            ab[8 + rows - j, j] = dR[rows]
    return ab


def _reference_structure(self, temperature_end):
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
    return rows_for, colors


class TestScatterJacobian:
    @pytest.mark.parametrize("nodes,leak", [
        (None, False), (None, True), (2, False), (3, False), (3, True), (4, False), (4, True),
    ], ids=["no_leak", "leak", "2_nodes", "3_nodes", "3_nodes_leak", "4_nodes", "4_nodes_leak"])
    @pytest.mark.parametrize("mode", ["steady", "transient"])
    @pytest.mark.parametrize("temperature_end", ["inlet", "outlet"])
    @pytest.mark.parametrize("legs", ["pp", "fp", "pf"])
    @pytest.mark.parametrize("fluid_kind", ["liquid", "gas"])
    def test_bit_identical_to_column_fill(self, water_like, ten_km_line, fluid_kind,
                                          legs, temperature_end, mode, nodes, leak):
        solver, st, res, _ = _scheme_case(fluid_kind, legs, temperature_end, mode, leak,
                                          nodes, water_like, ten_km_line)
        key = (mode, temperature_end)

        calls = collections.Counter()

        def counted(name):
            def evaluate(v):
                calls[name] += 1
                return res(v)
            return evaluate

        u = solver._pack(st.P, st.V, st.T)
        rng = np.random.default_rng(11)
        for point in (u, u + 1e-3 * rng.standard_normal(u.size) * solver.u_scale):
            R0 = res(point)
            calls.clear()
            expected = _reference_jacobian(solver, point, counted("reference"), R0, key)
            assert np.isfinite(expected).all()
            assert np.count_nonzero(expected) > 9 * solver.N
            assert solver._jacobian(point, counted("band"), R0).tobytes() == expected.tobytes()
            assert calls["band"] == calls["reference"] == min(9, 3 * solver.N)
