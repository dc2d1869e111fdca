"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a [PASS] line with the measured figure once its
assertions hold, so `pytest -s tests/test_acceptance.py` reads as a
checklist.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import linewatch.scenario as scenario_module
from conftest import flow_drive_cfg, set_noise_scale, standard_config
from linewatch.acoustic import AcousticSensor, WaveModel, localize, propagate
from linewatch.acoustic import report as acoustic_report
from linewatch.availability import chain_availability, compare_configurations, reference_chains
from linewatch.fluid import FluidModel, LiquidEos
from linewatch.hydraulics import (
    BoundaryConditions,
    BoundaryLeg,
    LeakEvent,
    PipeFlowSolver,
    TimeSeries,
)
from linewatch.network import GRAVITY, PipelineModel, discretize
from linewatch.scenario import run_scenario, scenario_from_dict

RATED_FLOW = 70.0  # kg/s, standard desk scenario

SCENARIOS = Path(__file__).parents[1] / "demos" / "scenarios"


def run_cfg(cfg):
    return run_scenario(scenario_from_dict(cfg))


class TestRtmSensitivity:
    """A 1%-of-rated leak is declared within 10 min under noise and within
    60 s noiseless, inside a 2-minute wall-clock budget."""

    def test_one_percent_leak_with_noise(self):
        cfg = standard_config(seed=42)
        cfg["leaks"] = [{"position": 5000.0, "start_time": 120.0, "mass_rate": 0.01 * RATED_FLOW}]
        t0 = time.perf_counter()
        report = run_cfg(cfg)
        wall = time.perf_counter() - t0
        assert report.rtm["declared"]
        latency = report.metrics["rtm_detection_latency"]
        assert latency <= 600.0
        assert wall < 120.0
        print(f"\n[PASS] RTM sensitivity (noisy): 1% leak declared {latency:.0f} s "
              f"after onset; wall clock {wall:.1f} s")

    def test_one_percent_leak_noiseless(self):
        cfg = standard_config(seed=0)
        set_noise_scale(cfg, 0.0)
        cfg["leaks"] = [{"position": 5000.0, "start_time": 120.0, "mass_rate": 0.01 * RATED_FLOW}]
        report = run_cfg(cfg)
        latency = report.metrics["rtm_detection_latency"]
        assert report.rtm["declared"] and latency <= 60.0
        print(f"\n[PASS] RTM sensitivity (noiseless): declared {latency:.0f} s after onset")


class TestLeakPhenomenologySigns:
    """Before the alarm, the measured downstream pressure falls while the
    flow-driven shadow model predicts it rising (inventory packing)."""

    def test_divergence_signs(self):
        report = run_cfg(flow_drive_cfg())
        assert report.rtm["declared"]
        t_alarm = report.rtm["declared_time"]
        assert t_alarm > 125.0, "need at least one pre-alarm poll after onset"

        times, measured, modeled = [], [], []
        for rec in report.rtm_records:
            if not rec.available:
                continue
            if 115.0 <= rec.poll_time <= t_alarm:  # last pre-onset poll .. alarm
                d = rec.delta.get("p_mid")
                m = rec.frame.good_value("p_mid")
                if d is None or m is None:
                    continue
                times.append(rec.poll_time)
                measured.append(m)
                modeled.append(m - d)
        assert len(times) >= 4
        # The leak launches a rarefaction that reflects between the ends, so
        # the measured trace reaches its minimum early and rings; the trend
        # over the window is the net change from the pre-onset baseline to
        # the final pre-alarm polls.  The modeled trace rises monotonically.
        elapsed = times[-1] - times[0]
        trend_measured = (np.mean(measured[-2:]) - measured[0]) / elapsed
        trend_modeled = (np.mean(modeled[-2:]) - modeled[0]) / elapsed
        assert trend_measured < 0.0
        assert trend_modeled > 0.0
        assert np.polyfit(times, modeled, 1)[0] > 0.0  # packing is steady, not ringing
        print(f"\n[PASS] Leak phenomenology signs: measured trend "
              f"{trend_measured:.0f} Pa/s < 0 < modeled trend {trend_modeled:.0f} Pa/s "
              f"over the pre-alarm window")


class TestFlowDriveVerdict:
    """The flow-driven verdict on the phenomenology case is pinned, once with
    the outlet pressure anchoring the shadow model and once with the inlet."""

    @pytest.mark.parametrize("anchor", ["p_out", "p_in"])
    def test_verdict_pinned(self, anchor):
        cfg = flow_drive_cfg()
        if anchor == "p_in":  # without p_out the inlet pressure is the anchor
            cfg["instruments"] = [i for i in cfg["instruments"] if i["id"] != "p_out"]
        report = run_cfg(cfg)
        assert report.rtm["declared_time"] == 150.0
        assert report.rtm["size_estimate"] == pytest.approx(1.3939044870451973, rel=1e-9)
        assert report.rtm["location_estimate"] == pytest.approx(3800.0, rel=1e-9)
        print(f"\n[PASS] Flow drive ({anchor} anchor): declared at 150 s, "
              f"{report.rtm['size_estimate']:.4f} kg/s at {report.rtm['location_estimate']:.0f} m")


class TestMassConservation:
    """Per-step ledger closes to 1e-8 of linepack, with and without leaks."""

    def _march(self, leaks):
        fluid = FluidModel(eos=LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4),
                           c=2000.0)
        pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=0.02,
                             U=2.0, Tg=288.15)
        grid = discretize(pipe, 200.0, [5000.0])
        solver = PipeFlowSolver(pipe, fluid, grid)
        bc = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries([0.0, 1800.0, 3600.0],
                                                     [1.0e6, 1.05e6, 0.97e6])),
            outlet=BoundaryLeg("pressure", TimeSeries.constant(6.7e5)),
            temperature=TimeSeries([0.0, 3600.0], [300.0, 302.0]),
        )
        st = solver.steady_state(bc, t=0.0)
        worst = 0.0
        while st.t < 3600.0 - 1e-9:
            out = solver.advance(st, bc, 5.0, leaks=leaks)
            st = out.state
            worst = max(worst, abs(out.ledger.residual) / out.ledger.linepack_end)
        return worst

    def test_no_leak_hour(self):
        worst = self._march([])
        assert worst < 1e-8
        print(f"\n[PASS] Mass conservation (no leak, 1 h transient): "
              f"worst step residual {worst:.2e} x linepack")

    def test_with_leak_hour(self):
        worst = self._march([LeakEvent(position=5000.0, start_time=600.0, mass_rate=2.0)])
        assert worst < 1e-8
        print(f"\n[PASS] Mass conservation (leaking): worst step residual "
              f"{worst:.2e} x linepack")


class TestSteadyStateOracle:
    """Solver pressure drop matches Darcy-Weisbach + hydrostatics within 0.5%."""

    @pytest.mark.parametrize(
        "f,elev,label",
        [
            (0.02, None, "flat"),
            (0.02, ((0.0, 0.0), (10000.0, 120.0)), "inclined"),
            (0.08, None, "high-friction"),
        ],
    )
    def test_three_configurations(self, f, elev, label):
        fluid = FluidModel(eos=LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4),
                           c=2000.0)
        pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=f,
                             elevation_profile=elev, U=0.0, Tg=300.0)
        solver = PipeFlowSolver(pipe, fluid, discretize(pipe, 100.0))
        mdot = 70.0
        bc = BoundaryConditions(
            inlet=BoundaryLeg("flow", TimeSeries.constant(mdot)),
            outlet=BoundaryLeg("pressure", TimeSeries.constant(6.0e5)),
            temperature=TimeSeries.constant(300.0),
        )
        st = solver.steady_state(bc)
        rho = float(np.mean(st.rho))
        v = mdot / (rho * pipe.area)
        dH = (elev[-1][1] - elev[0][1]) if elev else 0.0
        oracle = f * (pipe.length / pipe.diameter) * rho * v * v / 2.0 + rho * GRAVITY * dH
        got = st.P[0] - st.P[-1]
        assert got == pytest.approx(oracle, rel=5e-3)
        print(f"\n[PASS] Steady oracle ({label}): dP {got:.4g} Pa vs closed form "
              f"{oracle:.4g} Pa ({100 * abs(got - oracle) / oracle:.3f}%)")


class TestAcousticForwardInverse:
    """localize(propagate(x)) recovers x within speed x timestamp resolution;
    latencies match the reference wave speeds to within quantization."""

    def test_hundred_random_positions(self):
        rng = np.random.default_rng(123)
        speed, res, L = 1414.2, 0.01, 10000.0
        sensors = [AcousticSensor("a", 0.0, 1.0, res), AcousticSensor("b", L, 1.0, res)]
        wave = WaveModel(speed=speed, attenuation=5e-5)
        worst = 0.0
        for _ in range(100):
            x = float(rng.uniform(1.0, L - 1.0))
            recs = propagate(LeakEvent(position=x, start_time=30.0, mass_rate=1.0),
                             1e5, sensors, wave)
            est = localize(recs[0].position, recs[0].arrival_time,
                           recs[1].position, recs[1].arrival_time, speed)
            worst = max(worst, abs(est.position - x))
        assert worst <= speed * res + 1e-9
        print(f"\n[PASS] Acoustic forward-inverse: worst of 100 recoveries "
              f"{worst:.2f} m <= a*resolution = {speed * res:.2f} m")

    def test_latencies_match_reference_speeds(self):
        gas_speed, liquid_speed = 321.87, 1609.34
        leak = LeakEvent(position=0.0, start_time=0.0, mass_rate=1.0)
        for speed, expect in ((gas_speed, 10.0), (liquid_speed, 2.0)):
            sensors = [AcousticSensor("s", 3218.7, 1.0, 0.01)]
            section = acoustic_report([leak], 100.0, sensors, WaveModel(speed=speed))
            lat = section["detections"][0]["latency"]
            assert lat == pytest.approx(expect, abs=0.01 + 1e-4 * expect)
        print("\n[PASS] Acoustic latencies: 3218.7 m in 10.0 s (gas) / 2.0 s (liquid)")


class TestBalanceIdentity:
    """Eq-style window identity holds exactly; a 1 kg/s leak over a full
    3600 s window integrates to 3600 kg within 1%."""

    def test_identity_and_full_window_leak(self):
        cfg = standard_config(seed=9, horizon=7200.0)
        set_noise_scale(cfg, 0.0)
        cfg["solver"]["dt"] = 5.0
        cfg["leaks"] = [{"position": 5000.0, "start_time": 300.0, "mass_rate": 1.0}]
        cfg["balance"] = {"window": 3600.0, "threshold": 500.0, "mode": "model"}
        cfg["rtm"]["flow_threshold"] = 0.35
        report = run_cfg(cfg)
        windows = report.balance["windows"]
        assert len(windows) == 2
        for w in windows:
            assert w["imbalance"] == w["v_in"] - w["v_out"] - w["delta_inventory"]
        full = windows[1]  # leak active for the whole second window
        assert full["imbalance"] == pytest.approx(3600.0, rel=0.01)
        assert full["alarm"]
        print(f"\n[PASS] Balance identity: exact on both windows; full-window leak "
              f"integrates to {full['imbalance']:.1f} kg (target 3600 +/- 1%)")


class TestVotingDominanceAndSpecificity:
    def test_dominance_across_seeds(self):
        """(M=3, K=2) alarm polls are a subset of (1, 1) alarm polls, per seed."""
        for seed in (1, 2, 3, 4):
            strict_cfg = standard_config(seed=seed, horizon=600.0)
            loose_cfg = standard_config(seed=seed, horizon=600.0)
            loose_cfg["rtm"].update(consecutive_polls=1, min_indicators=1)
            strict = set(run_cfg(strict_cfg).rtm["alarm_condition_polls"])
            loose = set(run_cfg(loose_cfg).rtm["alarm_condition_polls"])
            assert strict <= loose, f"seed {seed}"
        print("\n[PASS] Voting dominance: (3,2) alarm polls subset of (1,1) on 4 seeds")

    def test_no_false_alarms_in_24h_at_default_thresholds(self):
        cfg = standard_config(seed=2024, horizon=24 * 3600.0)
        cfg["leaks"] = []
        cfg["solver"] = {"dt": 5.0, "target_dx": 200.0}
        # default thresholds: drop the explicit scenario overrides
        for key in ("flow_threshold", "pressure_threshold"):
            cfg["rtm"].pop(key, None)
        cfg["balance"] = {"enabled": False}
        cfg["acoustic"] = {"enabled": False}
        report = run_cfg(cfg)
        assert not report.rtm["declared"]
        assert report.rtm["alarm_condition_polls"] == []
        print("\n[PASS] Specificity: zero false alarms over 24 noisy no-leak hours "
              f"({report.rtm['polls']} polls) at default 3-sigma thresholds")


class TestTransientSpecificity:
    """Throttling the outlet of the leak-free standard line from 70.5 to 60
    kg/s at t=100 s is an operational transient, not a leak: no poll meets
    the vote.  Over 1 s the 5 s poll aliases the line's 14 s (2L/a) pressure
    wave in the boundary drive, and the pressure-driven RTM declares at
    130 s, with alarm polls at 130-145 s (ROADMAP item 2)."""

    @pytest.mark.parametrize("ramp", [
        pytest.param(1.0, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 2: the RTM vote is not yet transient-aware")),
        10.0, 30.0, 60.0,
    ])
    def test_throttled_outlet_raises_no_alarm(self, ramp):
        cfg = standard_config(horizon=300.0)
        cfg["leaks"] = []
        cfg["acoustic"] = {"enabled": False}
        cfg["boundaries"]["outlet"] = {
            "kind": "flow", "series": [[0.0, 70.5], [100.0, 70.5], [100.0 + ramp, 60.0]]}
        report = run_cfg(cfg)
        assert report.run["solver_failure"] is None
        assert report.rtm["alarm_condition_polls"] == []
        assert not report.rtm["declared"]
        print(f"\n[PASS] Transient specificity: a {ramp:.0f} s outlet throttle raises no alarm")


@st.composite
def quiet_variants(draw):
    """A shipped scenario on a drawn line, grid, step and horizon, run
    noiseless with no leak, constant boundaries and acoustic off."""
    name = draw(st.sampled_from(
        ["standard_leak.yaml", "gas_line.yaml", "phenomenology.yaml", "mirror_leak.yaml"]))
    cfg = yaml.safe_load((SCENARIOS / name).read_text())
    pipe = cfg["pipeline"]
    stretch = draw(st.floats(0.3, 1.5))
    # The end instruments stay at the ends and a mid-line one at its fraction.
    length = pipe["length"] * stretch
    for inst in cfg["instruments"]:
        inst["position"] *= stretch
        inst["sigma"] = 0.0
    pipe["length"] = length
    pipe["diameter"] *= draw(st.floats(0.7, 1.5))
    rise = draw(st.none() | st.floats(-30.0, 10.0))
    if rise is not None:
        pipe["elevation"] = [[0.0, 0.0], [length, rise]]
    poll = cfg["telemetry"]["poll_interval"]
    cfg["telemetry"].pop("plausibility", None)  # a scaled line reads outside the shipped window
    cfg["solver"] = {"dt": poll / draw(st.sampled_from([1, 2, 5])),
                     "target_dx": length / draw(st.sampled_from([10, 20, 50]))}
    cfg["horizon"] = poll * draw(st.integers(12, 60))
    cfg["leaks"] = []
    cfg["acoustic"] = {"enabled": False}
    cfg["balance"]["window"] = 6 * poll
    if draw(st.booleans()):
        for key in ("flow_threshold", "pressure_threshold"):
            del cfg["rtm"][key]
    return cfg


class TestQuietInvariants:
    """On any line the shipped scenarios can be stretched to, a noiseless,
    leak-free run under constant boundaries never alarms, never fails, and
    closes its step mass ledger to 1e-8 of linepack (TestMassConservation's
    bound)."""

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(cfg=quiet_variants())
    def test_quiet_line_stays_quiet(self, cfg):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario_module, "_may_fork", lambda: False)
            report = run_cfg(cfg)
        assert report.run["solver_failure"] is None
        assert report.rtm["alarm_condition_polls"] == []
        assert report.balance["first_alarm_time"] is None
        assert report.mass_ledger["max_step_residual_relative"] < 1e-8


class TestAvailabilityPresets:
    def test_products_and_ranking(self):
        chains = reference_chains(0.99)
        expected = {"mass_flow": 0.99**11, "pressure": 0.99**13, "acoustic": 0.99**7}
        for name, want in expected.items():
            got = chain_availability(chains[name])
            assert abs(got - want) <= 1e-12
        rows = compare_configurations(list(chains.values()))
        assert [r["name"] for r in rows] == ["acoustic", "mass_flow", "pressure"]
        print("\n[PASS] Availability presets: 0.99^11/13/7 exact; ranking follows "
              "element count (7 < 11 < 13)")


class TestLocationAccuracy:
    def test_noiseless_within_one_grid_cell(self):
        cfg = standard_config(seed=0)
        set_noise_scale(cfg, 0.0)
        cfg["leaks"] = [{"position": 3000.0, "start_time": 120.0, "mass_rate": 5.0}]
        report = run_cfg(cfg)
        err = report.metrics["rtm_location_error"]
        assert err <= 100.0 + 1e-9  # one grid cell at target_dx 100 m
        print(f"\n[PASS] Location accuracy (noiseless): error {err:.0f} m <= 1 cell (100 m)")

    def test_median_under_noise_within_five_percent(self):
        loc_errors, size_errors = [], []
        for seed in range(20):
            cfg = standard_config(seed=seed, horizon=540.0)
            set_noise_scale(cfg, 2.5)  # 0.5% of span
            cfg["leaks"] = [{"position": 3000.0, "start_time": 120.0, "mass_rate": 5.0}]
            cfg["rtm"].update(flow_threshold=1.0, pressure_threshold=6250.0)
            report = run_cfg(cfg)
            assert report.rtm["declared"], f"seed {seed} missed the 7% leak"
            loc_errors.append(report.metrics["rtm_location_error"])
            size_errors.append(abs(report.rtm["size_estimate"] - 5.0) / 5.0)
        med = float(np.median(loc_errors))
        med_size = float(np.median(size_errors))
        assert med <= 0.05 * 10000.0
        assert med_size <= 0.15
        print(f"\n[PASS] Location accuracy (0.5% span noise, 20 seeds): median error "
              f"{med:.0f} m <= 500 m; median size error {100 * med_size:.1f}% <= 15%")


class TestMirroredLine:
    """The standard line run end for end (boundary pressures swapped, the
    temperature held at the outlet, the leak at L - x) is detected like the
    forward line: the shadow holds its temperature at the scenario's end."""

    @pytest.mark.parametrize("rate,x", [(0.70, 5000.0), (5.0, 3000.0)],
                             ids=["one_percent_mid_line", "seven_percent_3km"])
    def test_declares_and_locates_as_the_forward_line(self, rate, x):
        length = 10000.0
        reports = []
        for mirrored in (False, True):
            cfg = standard_config(seed=0)
            set_noise_scale(cfg, 0.0)
            if mirrored:
                b = cfg["boundaries"]
                b["inlet"], b["outlet"] = b["outlet"], b["inlet"]
                b["temperature_end"] = "outlet"
            position = length - x if mirrored else x
            cfg["leaks"] = [{"position": position, "start_time": 120.0, "mass_rate": rate}]
            report = run_cfg(cfg)
            assert report.run["solver_failure"] is None
            assert report.rtm["declared"]
            reports.append(report)
        forward, mirror = (r.rtm for r in reports)
        assert mirror["declared_time"] == forward["declared_time"]
        assert abs(mirror["location_estimate"] - (length - x)) <= 100.0 + 1e-9  # one cell
        assert mirror["size_estimate"] == pytest.approx(forward["size_estimate"], rel=1e-9)
        print(f"\n[PASS] Mirrored line: declared at {mirror['declared_time']:.0f} s as forward, "
              f"located at {mirror['location_estimate']:.0f} m (leak at {length - x:.0f} m)")
