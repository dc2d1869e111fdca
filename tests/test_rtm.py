import collections
from pathlib import Path

import numpy as np
import pytest

from conftest import flow_drive_cfg, set_noise_scale, standard_config
from linewatch import hydraulics
from linewatch.errors import ConfigurationError
from linewatch.fluid import FluidModel, LiquidEos
from linewatch.hydraulics import (
    BoundaryConditions,
    BoundaryLeg,
    LeakEvent,
    PipeFlowSolver,
    SolverSettings,
    TimeSeries,
    modeled_profile,
)
from linewatch.network import InstrumentPlacement, PipelineModel, discretize
from linewatch.rtm import RtmDetector, VotingPolicy, combined_verdict, vote
from linewatch.scenario import load_scenario, run_scenario, scenario_from_dict
from linewatch.telemetry import (GOOD, MISSING, NoiseSpec, Reading, TelemetryFrame,
                                 instrument_nodes, sample)


def policy(**kw):
    args = dict(flow_threshold=0.25, pressure_threshold=2500.0,
                consecutive_required=3, min_indicators=2, smoothing_polls=8)
    args.update(kw)
    return VotingPolicy(**args)


class TestVote:
    def norm(self, *vals):
        return {f"i{k}": v for k, v in enumerate(vals)}

    def test_all_quiet(self):
        history = [self.norm(0.0, 0.1)] * 5
        assert not vote(history, policy())

    def test_two_indicators_three_consecutive(self):
        p = policy(consecutive_required=3, min_indicators=2)
        quiet = self.norm(0.0, 0.0)
        hot = self.norm(1.2, -1.5)
        assert not vote([quiet, hot, hot], p)
        assert vote([quiet, hot, hot, hot], p)

    def test_single_indicator_never_enough_for_k2(self):
        p = policy(min_indicators=2)
        history = [self.norm(5.0, 0.0)] * 50
        assert not vote(history, p)

    def test_none_breaks_streak(self):
        p = policy(consecutive_required=3, min_indicators=1)
        hot = self.norm(2.0, 2.0)
        gap = {"i0": None, "i1": None}
        assert not vote([hot, gap, hot, hot], p)
        assert vote([gap, hot, hot, hot], p)

    def test_short_history(self):
        assert not vote([self.norm(9.0, 9.0)], policy(consecutive_required=3, min_indicators=1))

    def test_dominance_on_synthetic_histories(self):
        # (M=3, K=2) alarm polls are always a subset of (1, 1) alarm polls
        rng = np.random.default_rng(11)
        strict = policy(consecutive_required=3, min_indicators=2)
        loose = policy(consecutive_required=1, min_indicators=1)
        for _ in range(30):
            history = [self.norm(*rng.normal(0, 1.0, 3)) for _ in range(40)]
            for k in range(1, len(history) + 1):
                if vote(history[:k], strict):
                    assert vote(history[:k], loose)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            policy(flow_threshold=0.0)
        with pytest.raises(ConfigurationError):
            policy(consecutive_required=0)

    def test_default_thresholds_are_three_sigma(self):
        instruments = [
            InstrumentPlacement("f", "flow", 0.0, noise_sigma=0.2),
            InstrumentPlacement("p", "pressure", 0.0, noise_sigma=2000.0),
        ]
        p = VotingPolicy.default_for(instruments)
        assert p.flow_threshold == pytest.approx(0.6)
        assert p.pressure_threshold == pytest.approx(6000.0)


class _MiniLoop:
    """Plant + detector loop on the standard desk line, zero noise."""

    def __init__(self, leak_rate=0.0, leak_pos=5000.0, drive="pressure", seed=1,
                 pol=None, mangle=None, dx=100.0):
        self.fluid = FluidModel(
            eos=LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4),
            c=2000.0, sound_speed_hint=1414.2)
        self.pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=0.02,
                                  U=2.0, Tg=288.15)
        self.instruments = [
            InstrumentPlacement("flow_in", "flow", 0.0),
            InstrumentPlacement("flow_out", "flow", 10000.0),
            InstrumentPlacement("p_in", "pressure", 0.0),
            InstrumentPlacement("p_out", "pressure", 10000.0),
            InstrumentPlacement("t_in", "temperature", 0.0),
        ]
        self.grid = discretize(self.pipe, dx, self.instruments,
                               extra_points=[leak_pos])
        self.bc = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries.constant(1.0e6)),
            outlet=BoundaryLeg("pressure", TimeSeries.constant(6.7e5)),
            temperature=TimeSeries.constant(300.0),
        )
        self.leaks = ([LeakEvent(position=leak_pos, start_time=120.0, mass_rate=leak_rate)]
                      if leak_rate else [])
        self.plant = PipeFlowSolver(self.pipe, self.fluid, self.grid, SolverSettings(dt=1.0))
        self.state = self.plant.steady_state(self.bc)
        self.noise = NoiseSpec(seed)
        self.det = RtmDetector(self.pipe, self.fluid, self.grid, self.instruments,
                               pol or policy(), poll_interval=5.0, drive=drive,
                               fallback_temperature=300.0)
        self.mangle = mangle

    def run(self, polls):
        nodes = instrument_nodes(self.grid.node_positions, self.instruments)
        frame = sample(self.state, self.instruments, self.noise, 0.0, pipeline=self.pipe,
                       nodes=nodes)
        self.det.observe(self._mangled(frame, 0))
        for k in range(1, polls + 1):
            for _ in range(5):
                self.state = self.plant.advance(self.state, self.bc, leaks=self.leaks).state
            frame = sample(self.state, self.instruments, self.noise, self.state.t,
                           pipeline=self.pipe, nodes=nodes)
            self.det.observe(self._mangled(frame, k))
        return self.det

    def _mangled(self, frame, k):
        if self.mangle is None:
            return frame
        return self.mangle(frame, k)


class TestShadowModel:
    def test_no_leak_zero_noise_discrepancies_vanish(self):
        det = _MiniLoop().run(40)
        full_scale_flow, full_scale_p = 70.0, 1.0e6
        for rec in det.records[5:]:
            assert rec.available
            for iid, d in rec.discrepancy.delta.items():
                scale = full_scale_flow if iid.startswith("flow") else full_scale_p
                assert abs(d) < 1e-6 * scale

    def test_leak_alarm_and_downstream_delta_sign(self):
        det = _MiniLoop(leak_rate=2.0).run(60)
        assert det.verdict.declared
        # pressure-driven shadow: measured outlet flow drops below modeled
        post = [r for r in det.records if r.poll_time > 130.0 and r.discrepancy]
        deltas = [r.discrepancy.delta["flow_out"] for r in post[:10]]
        assert all(d < 0 for d in deltas)
        deltas_in = [r.discrepancy.delta["flow_in"] for r in post[:10]]
        assert all(d > 0 for d in deltas_in)

    def test_staleness_suspends_and_recovers(self):
        def mangle(frame, k):
            if 10 <= k < 20:  # boundary pressure goes dark for 10 polls
                readings = tuple(
                    Reading(r.instrument_id, None, MISSING)
                    if r.instrument_id == "p_in" else r
                    for r in frame.readings
                )
                return TelemetryFrame(frame.poll_time, readings)
            return frame
        det = _MiniLoop(mangle=mangle).run(30)
        suspended = [r for r in det.records if not r.available]
        assert suspended, "staleness never engaged"
        assert all("stale" in (r.reason or "") for r in suspended if r.poll_time > 0)
        # holds bridge the first polls of the outage, then suspension
        assert det.records[11].available and not det.records[15].available
        # recovery after readings return
        assert det.records[25].available

    def test_report_counts_come_from_the_poll_log(self):
        def mangle(frame, k):
            if 5 <= k < 12:  # long enough a boundary outage to suspend
                readings = tuple(Reading(r.instrument_id, None, MISSING)
                                 if r.instrument_id == "p_in" else r for r in frame.readings)
                return TelemetryFrame(frame.poll_time, readings)
            return frame
        det = _MiniLoop(leak_rate=2.0, mangle=mangle).run(50)
        section = det.report()
        assert section["enabled"] and section["declared"] == det.verdict.declared
        assert section["polls"] == len(det.records) == 51
        unavailable = [r for r in det.records if not r.available]
        assert section["unavailable_polls"] == len(unavailable) > 1
        alarms = [r.poll_time for r in det.records if r.alarm_condition]
        assert section["alarm_condition_polls"] == alarms and alarms
        assert [p["t"] for p in section["indicator_trace"]] == [r.poll_time for r in det.records]

    def test_suspended_polls_never_vote(self):
        def mangle(frame, k):
            if k >= 10:
                readings = tuple(
                    Reading(r.instrument_id, None, MISSING)
                    if r.instrument_id == "p_in" else r
                    for r in frame.readings
                )
                return TelemetryFrame(frame.poll_time, readings)
            return frame
        det = _MiniLoop(leak_rate=5.0, mangle=mangle).run(40)
        for rec in det.records:
            if not rec.available:
                assert not rec.alarm_condition

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 12, 16])
    def test_smoothed_is_numpy_mean_bit_for_bit(self, n):
        # numpy sums 8 or more samples in its own unrolled order, which a
        # plain Python sum does not follow.  The orders agree whenever every
        # partial sum is exact, as for deltas far below their readings, so
        # the flow indicators here read hundreds of kg/s off the model.
        rng = np.random.default_rng(n)

        def mangle(frame, k):
            return TelemetryFrame(frame.poll_time, tuple(
                Reading(r.instrument_id, r.value + 500.0 * rng.standard_normal(), r.quality)
                if r.instrument_id.startswith("flow") else r for r in frame.readings))

        pol = policy(smoothing_polls=n, flow_threshold=1e9)
        det = _MiniLoop(pol=pol, mangle=mangle).run(n + 10)
        history = collections.defaultdict(list)
        compared = 0
        for rec in det.records:
            for iid, d in rec.discrepancy.delta.items():
                history[iid].append(d)
                sm = rec.discrepancy.smoothed[iid]
                if len(history[iid]) < n:
                    assert sm is None
                    continue
                assert sm == float(np.mean(history[iid][-n:]))
                compared += 1
        assert compared == 2 * 12  # n + 11 polls, the first n - 1 warming up

    def test_zero_leak_size_estimate_is_noise_floor(self):
        det = _MiniLoop().run(20)
        size, note = det.size_leak()
        assert note is None
        assert abs(size) < 1e-5

    def test_detector_requires_boundary_instruments(self):
        loop = _MiniLoop()
        bad = [i for i in loop.instruments if i.id != "p_out"]
        with pytest.raises(ConfigurationError, match="pressure instrument"):
            RtmDetector(loop.pipe, loop.fluid, loop.grid, bad, policy(), poll_interval=5.0)

    def test_flow_drive_requires_anchor(self):
        loop = _MiniLoop()
        bad = [i for i in loop.instruments if i.kind != "pressure"]
        with pytest.raises(ConfigurationError):
            RtmDetector(loop.pipe, loop.fluid, loop.grid, bad, policy(),
                        poll_interval=5.0, drive="flow")


class TestSizeAndLocate:
    def test_five_kgs_leak_sized_within_five_percent(self):
        cfg = standard_config()
        set_noise_scale(cfg, 0.0)
        cfg["leaks"] = [{"position": 5000.0, "start_time": 120.0, "mass_rate": 5.0}]
        report = run_scenario(scenario_from_dict(cfg))
        assert report.rtm["declared"]
        assert report.rtm["size_estimate"] == pytest.approx(5.0, rel=0.05)

    def test_midline_leak_locates_to_midline_node(self):
        cfg = standard_config()
        set_noise_scale(cfg, 0.0)
        cfg["leaks"] = [{"position": 5000.0, "start_time": 120.0, "mass_rate": 3.0}]
        report = run_scenario(scenario_from_dict(cfg))
        assert report.rtm["location_estimate"] == pytest.approx(5000.0, abs=1e-9)

    def test_location_scan_returns_global_minimizer(self):
        det = _MiniLoop(leak_rate=5.0, leak_pos=3000.0).run(60)
        scan = det.locate_leak(det.verdict.size_estimate, window=12)
        assert scan.node_index == int(np.argmin(scan.ssr)) + 1
        assert scan.position == scan.candidates[np.argmin(scan.ssr)]
        assert not scan.ambiguous

    def test_combined_verdict_joins_balance(self):
        det = _MiniLoop(leak_rate=5.0).run(40)
        joint = combined_verdict(det.verdict, balance_alarm_time=600.0)
        assert joint["declared"] and joint["confirmed_by_balance"]
        assert joint["declared_time"] == det.verdict.declared_time


GAS_LINE = Path(__file__).parents[1] / "demos" / "scenarios" / "gas_line.yaml"


def exhaustive_scan(det, size, window):
    """The per-node scan that ``locate_leak`` replaced, built from public
    solver calls: one warm-started exact steady solve per candidate node.
    Returns (node_index, ambiguous, ssr)."""
    recs = [r for r in det.records[-window:] if r.available]
    values = {iid: float(np.mean([r.boundary_values[iid] for r in recs]))
              for iid in recs[-1].boundary_values}
    meas = {}
    for ind in det.indicators:
        vals = [r.measured[ind.id] for r in recs if r.measured.get(ind.id) is not None]
        if vals:
            meas[ind.id] = float(np.mean(vals))
    if det.drive == "flow":
        values[det.pressure_anchor.id] = meas[det.pressure_anchor.id]
    t_bc = det.fallback_temperature
    if det.temperature_instrument is not None:
        t_bc = det._hold.get(det.temperature_instrument.id, t_bc)
    bc = det._steady_bc(values, t_bc)

    solver = PipeFlowSolver(det.pipeline, det.fluid, det.grid, det.solver.settings)
    ssr, guess = [], det._state
    for x in det.grid.node_positions[1:-1]:
        leak = LeakEvent(position=float(x), start_time=-np.inf, mass_rate=size)
        guess = solver.steady_state(bc, t=recs[-1].poll_time, leaks=[leak], initial_guess=guess)
        P, Q = modeled_profile(guess, det.pipeline)
        total = 0.0
        for ind in det.indicators:
            if ind.id in meas:
                k = det.grid.node_at(ind.position)
                pred = Q[k] if ind.kind == "flow" else P[k]
                total += ((meas[ind.id] - pred) / det.policy.threshold_for(ind.kind)) ** 2
        ssr.append(total)
    ssr = np.array(ssr)
    ambiguous = float(np.ptp(ssr)) <= 0.01 * max(float(np.max(ssr)), 1e-30)
    return int(np.argmin(ssr)) + 1, ambiguous, ssr


def _elevated_cfg():
    """The standard line rising 120 m, with the inlet pressure raised by
    the static head so the same flow still runs uphill."""
    cfg = standard_config()
    cfg["pipeline"]["elevation"] = [[0.0, 0.0], [10000.0, 120.0]]
    cfg["boundaries"]["inlet"]["value"] = 2.18e6
    return cfg


class TestSuperpositionScan:
    """The superposition scan against the exhaustive per-node scan, and its cost."""

    @pytest.mark.parametrize("case", ["standard", "gas_line", "elevated", "flow_drive"])
    def test_picks_the_exhaustive_scans_node(self, case, monkeypatch):
        scenario = {
            "standard": lambda: scenario_from_dict(standard_config()),
            "gas_line": lambda: load_scenario(GAS_LINE),
            "elevated": lambda: scenario_from_dict(_elevated_cfg()),
            "flow_drive": lambda: scenario_from_dict(flow_drive_cfg()),
        }[case]()
        pairs = []
        locate = RtmDetector.locate_leak

        def both(det, size, window=None):
            scan = locate(det, size, window)
            w = det.locate_window_polls if window is None else window
            pairs.append((scan, exhaustive_scan(det, size, w)))
            return scan

        monkeypatch.setattr(RtmDetector, "locate_leak", both)
        run_scenario(scenario)
        assert len(pairs) == 2  # at declaration and at refinement
        for scan, (node, ambiguous, ssr) in pairs:
            assert scan.node_index == node
            assert scan.ambiguous == ambiguous
            best = scan.node_index - 1
            near = slice(max(best - 1, 0), best + 2)
            np.testing.assert_allclose(scan.ssr[near], ssr[near], rtol=1e-6)

    def _scan_cost(self, dx, monkeypatch):
        det = _MiniLoop(leak_rate=5.0, leak_pos=3000.0, dx=dx).run(60)
        counts = collections.Counter()
        in_steady = [False]
        steady, dgbtrf = PipeFlowSolver.steady_state, hydraulics.lapack.dgbtrf

        def counted_steady(*args, **kwargs):
            counts["steady"] += 1
            in_steady[0] = True
            try:
                return steady(*args, **kwargs)
            finally:
                in_steady[0] = False

        def counted_dgbtrf(*args, **kwargs):
            counts["newton" if in_steady[0] else "response"] += 1
            return dgbtrf(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(PipeFlowSolver, "steady_state", counted_steady)
            m.setattr(hydraulics.lapack, "dgbtrf", counted_dgbtrf)
            scan = det.locate_leak(det.verdict.size_estimate, window=12)
        assert scan.position == pytest.approx(3000.0, abs=dx + 1e-9)
        return counts, scan.candidates.size

    def test_one_factorization_and_few_exact_solves(self, monkeypatch):
        small, _ = self._scan_cost(100.0, monkeypatch)
        large, candidates = self._scan_cost(20.0, monkeypatch)
        for counts in (small, large):
            assert counts["response"] == 1
            # The base solve factors once; the exact solves near the best
            # node reuse the response's factors.
            assert counts["newton"] == 1
        # Five times the candidates cost at most one more exact solve.
        exact_small, exact_large = small["steady"] - 1, large["steady"] - 1
        assert 3 <= exact_small <= exact_large <= exact_small + 1
        assert exact_large < 0.05 * candidates
