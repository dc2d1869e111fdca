import numpy as np
import pytest
from scipy.integrate import solve_ivp

from linewatch.errors import ConfigurationError, InfeasibleScenarioError
from linewatch.fluid import FluidModel, GasEos, LiquidEos
from linewatch.hydraulics import (
    BoundaryConditions,
    BoundaryLeg,
    GridState,
    LeakEvent,
    PipeFlowSolver,
    SolverSettings,
    TimeSeries,
    linepack,
    modeled_profile,
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


def make_solver(fluid, pipe, dx=100.0, dt=1.0, **extra):
    grid = discretize(pipe, dx, extra_points=extra.pop("extra_points", ()))
    return PipeFlowSolver(pipe, fluid, grid, SolverSettings(dt=dt, **extra))


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

    def test_eos_consistency(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        st = solver.steady_state(bc_pp(1.0e6, 6.7e5))
        np.testing.assert_allclose(st.rho, water_like.density(st.P, st.T), rtol=1e-8)

    def test_grid_refinement_convergence(self, water_like, ten_km_line):
        coarse = make_solver(water_like, ten_km_line, dx=200.0, dt=2.0)
        fine = make_solver(water_like, ten_km_line, dx=100.0, dt=1.0)
        dp = []
        for s in (coarse, fine):
            st = s.steady_state(bc_fp(70.0, 6.7e5))
            dp.append(float(st.P[0] - st.P[-1]))
        assert abs(dp[1] - dp[0]) / dp[1] < 5e-3


class TestGasSteadyAgainstIvp:
    def test_profiles_match_independent_integration(self):
        gas = GasEos.from_z_reference(R=500.0, P_ref=5e6, T_ref=300.0, Z_ref=0.9, y=1.0)
        fluid = FluidModel(eos=gas, c=2200.0, sound_speed_hint=380.0)
        pipe = PipelineModel(length=50000.0, diameter=0.5, friction_factor=0.015,
                             U=1.0, Tg=288.15)
        solver = make_solver(fluid, pipe, dx=250.0, dt=2.0)
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
            dPdT_rho = fluid.dP_dT_const_density(P, T)
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
        new = solver.advance(st, bc).state
        for name in ("P", "V", "T", "rho"):
            a, b = getattr(st, name), getattr(new, name)
            scale = np.maximum(np.abs(a), 1e-12)
            assert np.max(np.abs(b - a) / scale) < 1e-8, name

    def test_pressure_step_travels_at_sound_speed(self, water_like):
        pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=0.02,
                             U=0.0, Tg=300.0)
        solver = make_solver(water_like, pipe, dx=100.0, dt=0.1)
        a = np.sqrt(water_like.eos.B / water_like.eos.rho0)
        step = 5.0e4
        bc0 = bc_fp(70.35, 0.0)
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
        while cur.t + solver.settings.dt < t_half:
            cur = solver.advance(cur, bc1).state
            worst = max(worst, abs(cur.P[-1] - p_out0))
        assert worst < 1e-3 * step
        # and the front does arrive around one transit time
        while cur.t < 1.5 * pipe.length / a:
            cur = solver.advance(cur, bc1).state
        assert abs(cur.P[-1] - p_out0) > 0.5 * step

    def test_mass_ledger_no_leak(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line, dt=2.0)
        # a genuinely transient run: ramp the inlet boundary
        bc = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries([0.0, 300.0], [1.0e6, 1.08e6])),
            outlet=BoundaryLeg("pressure", TimeSeries.constant(6.7e5)),
            temperature=TimeSeries.constant(300.0),
        )
        st = solver.steady_state(bc, t=0.0)
        for _ in range(100):
            result = solver.advance(st, bc)
            st = result.state
            assert abs(result.ledger.residual) < 1e-8 * result.ledger.linepack_end

    def test_mass_ledger_with_leak(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line, dt=2.0, extra_points=(5000.0,))
        bc = bc_pp(1.0e6, 6.7e5)
        leaks = [LeakEvent(position=5000.0, start_time=20.0, mass_rate=5.0)]
        st = solver.steady_state(bc, t=0.0)
        for _ in range(100):
            result = solver.advance(st, bc, leaks=leaks)
            st = result.state
            assert abs(result.ledger.residual) < 1e-8 * result.ledger.linepack_end
        assert result.ledger.leak_mass == pytest.approx(5.0 * 2.0, rel=1e-12)

    def test_leak_global_mass_audit(self, water_like, ten_km_line):
        # flow-specified inlet; integrated (in - out - d linepack) -> q*T
        solver = make_solver(water_like, ten_km_line, dt=1.0, extra_points=(5000.0,))
        bc = bc_fp(70.35, 6.7e5)
        q = 3.0
        leaks = [LeakEvent(position=5000.0, start_time=60.0, mass_rate=q)]
        st = solver.steady_state(bc, t=0.0)
        lp0 = linepack(st, ten_km_line)
        mass_in = mass_out = 0.0
        horizon = 600.0
        while st.t < horizon - 1e-9:
            result = solver.advance(st, bc, leaks=leaks)
            st = result.state
            mass_in += result.ledger.mass_in
            mass_out += result.ledger.mass_out
        leaked = mass_in - mass_out - (linepack(st, ten_km_line) - lp0)
        assert leaked == pytest.approx(q * (horizon - 60.0), rel=5e-3)

    def test_mirror_symmetry(self, water_like):
        pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=0.02,
                             U=0.0, Tg=300.0)
        fwd = make_solver(water_like, pipe, dx=200.0, dt=1.0)
        rev = make_solver(water_like, pipe, dx=200.0, dt=1.0)
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
            sf = fwd.advance(sf, bc_f).state
            sr = rev.advance(sr, bc_r).state
            assert np.max(np.abs(sr.P - sf.P[::-1]) / sf.P[::-1]) < 1e-8
            assert np.max(np.abs(sr.V + sf.V[::-1])) < 1e-8 * np.max(np.abs(sf.V))
            assert np.max(np.abs(sr.T - sf.T[::-1])) < 1e-6

    def test_energy_pure_advection_stays_uniform(self, water_like):
        pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=1e-12,
                             U=0.0, Tg=250.0)
        solver = make_solver(water_like, pipe, dt=1.0)
        bc = bc_fp(70.35, 8.0e5, T=300.0)
        st = solver.steady_state(bc)
        for _ in range(100):
            st = solver.advance(st, bc).state
        assert np.max(np.abs(st.T - 300.0)) < 1e-4  # 1e-6 K per step budget

    def test_dt_override_changes_step(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line, dt=1.0)
        bc = bc_pp(1.0e6, 6.7e5)
        st = solver.steady_state(bc)
        out = solver.advance(st, bc, dt=5.0)
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

    def test_modeled_profile_projection(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        st = solver.steady_state(bc_pp(1.0e6, 6.7e5))
        P, Q = modeled_profile(st, ten_km_line)
        assert np.array_equal(P, st.P)
        assert np.allclose(Q, st.rho * st.V * ten_km_line.area)


class TestSettingsValidation:
    def test_theta_bounds(self):
        with pytest.raises(ConfigurationError):
            SolverSettings(theta=0.3)
        with pytest.raises(ConfigurationError):
            SolverSettings(dt=-1.0)

    def test_leak_validation(self, water_like, ten_km_line):
        solver = make_solver(water_like, ten_km_line)
        bc = bc_pp(1.0e6, 6.7e5)
        st = solver.steady_state(bc)
        with pytest.raises(ConfigurationError, match="interior"):
            solver.advance(st, bc, leaks=[LeakEvent(position=10.0, start_time=0.0, mass_rate=1.0)])

    def test_boundary_leg_kind(self):
        with pytest.raises(ConfigurationError):
            BoundaryLeg("head", TimeSeries.constant(1.0))


class TestFailureModes:
    def test_advance_into_negative_pressure_is_infeasible_state(self, water_like, ten_km_line):
        from linewatch.errors import InfeasibleStateError
        solver = make_solver(water_like, ten_km_line, dt=1.0)
        bc0 = bc_pp(1.0e6, 6.7e5)
        st = solver.steady_state(bc0)
        # operator setpoint error: outlet pressure commanded below zero
        bad = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries.constant(1.0e6)),
            outlet=BoundaryLeg("pressure", TimeSeries([0.0, 1.0], [6.7e5, -5.0e4])),
            temperature=TimeSeries.constant(300.0),
        )
        with pytest.raises(InfeasibleStateError, match="node"):
            for _ in range(5):
                st = solver.advance(st, bad).state

    def test_solver_error_carries_residual_history(self, water_like, ten_km_line):
        from linewatch.errors import SolverError
        grid = discretize(ten_km_line, 100.0)
        solver = PipeFlowSolver(ten_km_line, water_like, grid,
                                SolverSettings(dt=1.0, newton_max_iter=1))
        # the steady start needs more than one Newton iteration
        st = PipeFlowSolver(ten_km_line, water_like, grid).steady_state(bc_pp(1.0e6, 6.7e5))
        slam = bc_pp(2.5e6, 6.7e5)  # 15 bar slam: one iteration cannot converge
        with pytest.raises(SolverError) as err:
            solver.advance(st, slam)
        assert len(err.value.history) >= 1
        assert err.value.residual is not None
