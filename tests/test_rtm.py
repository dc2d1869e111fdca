import collections
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import flow_drive_cfg, set_noise_scale, standard_config
from linewatch import hydraulics
from linewatch.errors import ConfigurationError, InfeasibleScenarioError
from linewatch.fluid import FluidModel, LiquidEos
from linewatch.hydraulics import (
    BoundaryConditions,
    BoundaryLeg,
    LeakEvent,
    PipeFlowSolver,
    TimeSeries,
)
from linewatch.network import InstrumentPlacement, PipelineModel, discretize
from linewatch.rtm import (_LOCATE_WINDOW_POLLS, _STALENESS_POLLS, RtmDetector, VotingPolicy,
                           combined_verdict, vote)
from linewatch.scenario import load_scenario, run_scenario, scenario_from_dict
from linewatch.telemetry import (GOOD, MISSING, NoiseSpec, Reading, TelemetryFrame,
                                 instrument_nodes, noiseless_reading, sample)


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
                 pol=None, mangle=None, dx=100.0, poll_interval=5.0):
        self.fluid = FluidModel(
            eos=LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4),
            c=2000.0)
        self.pipe = PipelineModel(length=10000.0, diameter=0.3, friction_factor=0.02,
                                  U=2.0, Tg=288.15)
        self.instruments = [
            InstrumentPlacement("flow_in", "flow", 0.0),
            InstrumentPlacement("flow_out", "flow", 10000.0),
            InstrumentPlacement("p_in", "pressure", 0.0),
            InstrumentPlacement("p_out", "pressure", 10000.0),
            InstrumentPlacement("t_in", "temperature", 0.0),
        ]
        self.grid = discretize(self.pipe, dx,
                               [i.position for i in self.instruments] + [leak_pos])
        self.bc = BoundaryConditions(
            inlet=BoundaryLeg("pressure", TimeSeries.constant(1.0e6)),
            outlet=BoundaryLeg("pressure", TimeSeries.constant(6.7e5)),
            temperature=TimeSeries.constant(300.0),
        )
        self.leaks = ([LeakEvent(position=leak_pos, start_time=120.0, mass_rate=leak_rate)]
                      if leak_rate else [])
        self.plant = PipeFlowSolver(self.pipe, self.fluid, self.grid)
        self.state = self.plant.steady_state(self.bc)
        self.noise = NoiseSpec(seed)
        self.poll_interval = poll_interval
        self.det = RtmDetector(self.pipe, self.fluid, self.grid, self.instruments,
                               pol or policy(), drive=drive, fallback_temperature=300.0)
        self.mangle = mangle

    def run(self, polls):
        nodes = instrument_nodes(self.grid.node_positions, self.instruments)
        frame = sample(self.state, self.instruments, self.noise, pipeline=self.pipe, nodes=nodes)
        self.det.observe(self._mangled(frame, 0))
        for k in range(1, polls + 1):
            for _ in range(5):
                self.state = self.plant.advance(self.state, self.bc, self.poll_interval / 5,
                                                leaks=self.leaks).state
            frame = sample(self.state, self.instruments, self.noise, pipeline=self.pipe,
                           nodes=nodes)
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
            for iid, d in rec.delta.items():
                scale = full_scale_flow if iid.startswith("flow") else full_scale_p
                assert abs(d) < 1e-6 * scale

    @pytest.mark.parametrize("drive", ["pressure", "flow"])
    def test_model_value_is_the_noiseless_sample_bit_for_bit(self, drive):
        # Mid-line flow and pressure indicators beside the end instruments; a
        # noiseless SCADA frame of the shadow's own state then reads each
        # indicator's model value exactly, so every delta is 0.0.
        loop = _MiniLoop(drive=drive)
        instruments = loop.instruments + [InstrumentPlacement("f_mid", "flow", 3000.0),
                                          InstrumentPlacement("p_mid", "pressure", 7000.0)]
        det = RtmDetector(loop.pipe, loop.fluid, loop.grid, instruments, policy(),
                          drive=drive, fallback_temperature=300.0)
        nodes = instrument_nodes(loop.grid.node_positions, instruments)
        take = lambda st: sample(st, instruments, NoiseSpec(5), pipeline=loop.pipe, nodes=nodes)
        det.observe(take(loop.state))
        assert {i.kind for i in det.indicators} == {"flow", "pressure"}
        delta = det._record(take(det._state), 0.0).delta
        assert delta == {i.id: 0.0 for i in det.indicators}

    def test_leak_alarm_and_downstream_delta_sign(self):
        det = _MiniLoop(leak_rate=2.0).run(60)
        assert det.verdict.declared
        # pressure-driven shadow: measured outlet flow drops below modeled
        post = [r for r in det.records if r.poll_time > 130.0 and r.available]
        deltas = [r.delta["flow_out"] for r in post[:10]]
        assert all(d < 0 for d in deltas)
        deltas_in = [r.delta["flow_in"] for r in post[:10]]
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

    def test_reading_no_model_can_hold_is_infeasible(self):
        # A reading is a measurement, not a setting: a boundary pressure read
        # below zero stops the shadow as a solver failure, not a set-up error.
        def mangle(frame, k):
            return TelemetryFrame(frame.poll_time, tuple(
                Reading(r.instrument_id, -1000.0, GOOD) if r.instrument_id == "p_out" else r
                for r in frame.readings))
        with pytest.raises(InfeasibleScenarioError,
                           match="^shadow model boundary readings: boundary pressure must be > 0"):
            _MiniLoop(mangle=mangle).run(1)

    def test_unavailable_record_carries_no_indicators_and_the_held_drive(self):
        def mangle(frame, k):
            if k < 2 or 10 <= k < 20:  # p_in dark at the start and for 10 polls
                readings = tuple(Reading(r.instrument_id, None, MISSING)
                                 if r.instrument_id == "p_in" else r for r in frame.readings)
                return TelemetryFrame(frame.poll_time, readings)
            return frame
        det = _MiniLoop(mangle=mangle).run(20)
        awaiting, suspended = det.records[1], det.records[15]
        assert awaiting.reason == "awaiting good boundary readings"
        assert suspended.reason == "boundary readings stale; detection suspended"
        for rec in (awaiting, suspended):
            assert not rec.available and not rec.alarm_condition
            assert rec.delta == rec.normalized == {}
        assert awaiting.shadow_linepack is None and suspended.shadow_linepack is not None
        # Nothing is held before the shadow starts; then the last good p_in
        # (poll 9) and this poll's p_out.
        assert awaiting.boundary_values == {"p_in": None, "p_out": None}
        assert suspended.boundary_values == {
            "p_in": det.records[9].frame.good_value("p_in"),
            "p_out": suspended.frame.good_value("p_out")}

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
        assert [p["reason"] for p in section["indicator_trace"]] == [r.reason for r in det.records]
        assert section["unavailable_by_reason"] == dict(
            collections.Counter(r.reason for r in unavailable))

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
        # the flow indicators here read hundreds of kg/s off the model.  A
        # power-of-two threshold divides exactly, so the normalized
        # indicator still shows the mean's every bit.
        rng = np.random.default_rng(n)

        def mangle(frame, k):
            return TelemetryFrame(frame.poll_time, tuple(
                Reading(r.instrument_id, r.value + 500.0 * rng.standard_normal(), r.quality)
                if r.instrument_id.startswith("flow") else r for r in frame.readings))

        threshold = 2.0 ** 30
        pol = policy(smoothing_polls=n, flow_threshold=threshold)
        det = _MiniLoop(pol=pol, mangle=mangle).run(n + 10)
        history = collections.defaultdict(list)
        compared = 0
        for rec in det.records:
            for iid, d in rec.delta.items():
                history[iid].append(d)
                norm = rec.normalized[iid]
                if len(history[iid]) < n:
                    assert norm is None
                    continue
                assert norm == float(np.mean(history[iid][-n:])) / threshold
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
            RtmDetector(loop.pipe, loop.fluid, loop.grid, bad, policy())

    def test_flow_drive_requires_anchor(self):
        loop = _MiniLoop()
        bad = [i for i in loop.instruments if i.kind != "pressure"]
        with pytest.raises(ConfigurationError):
            RtmDetector(loop.pipe, loop.fluid, loop.grid, bad, policy(), drive="flow")


# RtmDetector._step as it drove the shadow before the drive was built once
# and each poll took its end-of-step targets: three checked TimeSeries, two
# BoundaryLegs and a BoundaryConditions every poll, ramped from the previous
# readings.  Kept, with its one step per poll, as the reference the held
# readings must match bit for bit.
def _reference_step(self, frame):
    t0, t1 = self._state.t, frame.poll_time
    prev = dict(self._hold)
    for inst in (self.boundary_in, self.boundary_out):
        v = frame.good_value(inst.id)
        if v is not None:
            self._hold[inst.id] = v
            self._stale[inst.id] = 0
        else:
            self._stale[inst.id] += 1
    suspended = any(self._stale[i.id] > _STALENESS_POLLS
                    for i in (self.boundary_in, self.boundary_out))

    t_now = self._temperature_value(frame)
    if self.temperature_instrument is not None:
        t_prev = prev.get(self.temperature_instrument.id, t_now)
        self._hold[self.temperature_instrument.id] = t_now
    else:
        t_prev = t_now

    kind = "pressure" if self.drive == "pressure" else "flow"
    leg = lambda inst: BoundaryLeg(
        kind, TimeSeries([t0, t1], [prev[inst.id], self._hold[inst.id]])
    )
    bc = BoundaryConditions(
        inlet=leg(self.boundary_in),
        outlet=leg(self.boundary_out),
        temperature=TimeSeries([t0, t1], [t_prev, t_now]),
    )
    step = self.solver.advance(self._state, bc, dt=t1 - t0)
    self._state = step.state
    reason = "boundary readings stale; detection suspended" if suspended else None
    return self._record(frame, step.ledger.linepack_end, reason)


class TestShadowTargets:
    @pytest.mark.parametrize("poll_interval", [5.0, 0.3])
    def test_shadow_matches_per_poll_series(self, poll_interval, monkeypatch):
        def loop():
            rng = np.random.default_rng(23)
            noise = {"p_in": 2000.0, "p_out": 2000.0, "t_in": 0.1}

            def mangle(frame, k):
                readings = []
                for r in frame.readings:
                    if r.instrument_id == "p_out" and k in (6, 7):
                        r = Reading(r.instrument_id, None, MISSING)   # held unchanged
                    elif r.instrument_id in noise:
                        r = Reading(r.instrument_id,
                                    r.value + noise[r.instrument_id] * rng.standard_normal(),
                                    r.quality)
                    readings.append(r)
                return TelemetryFrame(frame.poll_time, tuple(readings))
            return _MiniLoop(leak_rate=2.0, mangle=mangle, poll_interval=poll_interval)

        new, ref = loop(), loop()
        monkeypatch.setattr(ref.det, "_step", _reference_step.__get__(ref.det))
        polls = 30
        new.run(polls)
        ref.run(polls)
        assert len(new.det.records) == len(ref.det.records) == polls + 1
        for a, b in zip(new.det.records, ref.det.records):
            assert a.poll_time == b.poll_time and a.available == b.available
            assert a.shadow_linepack == b.shadow_linepack
            assert a.delta == b.delta
        for f in ("P", "V", "T", "rho"):
            assert getattr(new.det._state, f).tobytes() == getattr(ref.det._state, f).tobytes()
        assert new.det._state.t == ref.det._state.t

    def test_frames_out_of_poll_order_rejected(self):
        loop = _MiniLoop()
        loop.run(2)
        nodes = instrument_nodes(loop.grid.node_positions, loop.instruments)
        early = sample(dataclasses.replace(loop.state, t=5.0), loop.instruments, loop.noise,
                       pipeline=loop.pipe, nodes=nodes)
        with pytest.raises(ConfigurationError, match="poll order"):
            loop.det.observe(early)

    def test_second_frame_at_the_same_poll_time_rejected(self):
        loop = _MiniLoop()
        loop.run(2)
        nodes = instrument_nodes(loop.grid.node_positions, loop.instruments)
        again = sample(loop.state, loop.instruments, loop.noise, pipeline=loop.pipe, nodes=nodes)
        with pytest.raises(ConfigurationError, match="poll order"):
            loop.det.observe(again)

    def test_observe_builds_no_boundary_objects_after_initialisation(self, monkeypatch):
        counts = collections.Counter()
        seen = {"polls": 0, "observing": False}

        def counting(cls):
            init = cls.__init__

            def counted(obj, *args, **kwargs):
                if seen["observing"] and seen["polls"] > 1:   # past the initialising poll
                    counts[cls.__name__] += 1
                init(obj, *args, **kwargs)
            return counted

        loop = _MiniLoop()
        for cls in (TimeSeries, BoundaryLeg, BoundaryConditions):
            monkeypatch.setattr(cls, "__init__", counting(cls))
        observe = loop.det.observe

        def observed(frame):
            seen["polls"] += 1
            seen["observing"] = True
            try:
                return observe(frame)
            finally:
                seen["observing"] = False

        monkeypatch.setattr(loop.det, "observe", observed)
        loop.run(20)
        assert seen["polls"] == len(loop.det.records) == 21
        assert loop.det.records[0].available
        assert not counts


class TestDriveInputsAndRefinement:
    @pytest.mark.parametrize("refine_after", [0, 6])
    def test_refinement_fires_once_refine_after_polls_after_declaring(
            self, refine_after, monkeypatch):
        loop = _MiniLoop(leak_rate=2.0)
        loop.det = RtmDetector(loop.pipe, loop.fluid, loop.grid, loop.instruments, policy(),
                               refine_after_polls=refine_after, fallback_temperature=300.0)
        verdicts = []
        observe = loop.det.observe

        def observed(frame):
            rec = observe(frame)
            verdicts.append(loop.det.verdict)
            return rec

        monkeypatch.setattr(loop.det, "observe", observed)
        loop.run(40)
        changed = [k for k in range(1, len(verdicts)) if verdicts[k] != verdicts[k - 1]]
        declaring = changed[0]
        first, last = verdicts[declaring], verdicts[-1]
        assert first.declared and first.declared_time == loop.det.records[declaring].poll_time
        refined = f"estimates refined {refine_after} polls after declaration"
        if refine_after:
            assert changed == [declaring, declaring + refine_after]
            assert last.declared_time == first.declared_time
            assert last.notes == first.notes + (refined,)
        else:
            assert changed == [declaring] and last == first
            assert refined not in last.notes

    def test_temperature_dropout_holds_the_last_good_reading(self):
        # t_in reads 1.5 K above the line and drifts, so its last good value
        # is neither this poll's nor the fallback temperature.
        def loop(dropped):
            first = {}

            def mangle(frame, k):
                readings = []
                for r in frame.readings:
                    if r.instrument_id == "t_in":
                        value = r.value + 1.5 + 0.05 * k
                        first.setdefault("t_in", value)
                        if 1 <= k <= 4:
                            r = (Reading("t_in", None, MISSING) if dropped
                                 else Reading("t_in", first["t_in"], r.quality))
                        else:
                            r = Reading("t_in", value, r.quality)
                    readings.append(r)
                return TelemetryFrame(frame.poll_time, tuple(readings))
            return _MiniLoop(leak_rate=2.0, mangle=mangle).run(12)

        dropped, repeated = loop(True), loop(False)
        assert dropped.records[2].frame.good_value("t_in") is None
        for a, b in zip(dropped.records, repeated.records, strict=True):
            assert (a.poll_time, a.reason, a.delta, a.normalized, a.alarm_condition,
                    a.shadow_linepack, a.boundary_values) == (
                b.poll_time, b.reason, b.delta, b.normalized, b.alarm_condition,
                b.shadow_linepack, b.boundary_values)
        for f in ("P", "V", "T", "rho"):
            assert getattr(dropped._state, f).tobytes() == getattr(repeated._state, f).tobytes()


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


def _dark(frame, *ids):
    """``frame`` with the readings of ``ids`` missing."""
    return TelemetryFrame(frame.poll_time, tuple(
        Reading(r.instrument_id, None, MISSING) if r.instrument_id in ids else r
        for r in frame.readings))


def _size_term(det, k):
    """Poll k's sample in size_leak: end-flow imbalance less linepack rate."""
    rec, prev = det.records[k], det.records[k - 1]
    return (rec.frame.good_value("flow_in") - rec.frame.good_value("flow_out")
            - (rec.shadow_linepack - prev.shadow_linepack) / (rec.poll_time - prev.poll_time))


class TestDegradedEstimates:
    """Sizing and location when readings, polls or the linepack rate are missing."""

    def test_size_skips_a_poll_missing_an_end_flow(self):
        loop = _MiniLoop(leak_rate=2.0, mangle=lambda f, k: _dark(f, "flow_out") if k == 40 else f)
        det = loop.run(40)
        size, note = det.size_leak()   # polls 38-40
        assert note is None
        assert size == float(np.mean([_size_term(det, 38), _size_term(det, 39)]))

    def test_size_skips_polls_without_a_previous_linepack(self):
        # p_in dark at polls 0 and 1: the shadow starts at poll 2, so only
        # poll 3 has a linepack for itself and for the poll before it
        det = _MiniLoop(mangle=lambda f, k: _dark(f, "p_in") if k < 2 else f).run(3)
        assert [r.shadow_linepack is None for r in det.records] == [True, True, False, False]
        size, note = det.size_leak(window=4)
        assert note is None and size == _size_term(det, 3)

    def test_size_unavailable_without_end_flows(self):
        det = _MiniLoop(mangle=lambda f, k: _dark(f, "flow_out") if k >= 8 else f).run(10)
        assert det.size_leak() == (
            None, "size unavailable: end flow readings or linepack rate missing")

    def test_locate_needs_an_available_poll(self):
        # p_in dark from poll 10: after 3 held polls every poll is suspended
        det = _MiniLoop(mangle=lambda f, k: _dark(f, "p_in") if k >= 10 else f).run(30)
        assert not any(r.available for r in det.records[-12:])
        assert det.locate_leak(2.0) is None

    def test_locate_needs_a_good_indicator(self):
        det = _MiniLoop(
            mangle=lambda f, k: _dark(f, "flow_in", "flow_out") if k >= 19 else f).run(30)
        assert all(r.available for r in det.records[-12:])
        assert det.locate_leak(2.0) is None

    def test_flow_drive_locate_needs_the_anchor_reading(self):
        det = _MiniLoop(drive="flow",
                        mangle=lambda f, k: _dark(f, "p_out") if k >= 19 else f).run(30)
        assert det.pressure_anchor.id == "p_out"
        assert all(r.available for r in det.records[-12:])
        assert det.locate_leak(2.0) is None

    def test_declared_with_no_available_poll_to_locate(self):
        # p_in dark at polls 20-39 suspends detection over the leak's start
        # (poll 24); with M = K = 1 the first poll back declares, while the
        # 12 polls before it are all suspended
        loop = _MiniLoop(leak_rate=2.0,
                         mangle=lambda f, k: _dark(f, "p_in") if 20 <= k < 40 else f)
        loop.det = RtmDetector(loop.pipe, loop.fluid, loop.grid, loop.instruments,
                               policy(consecutive_required=1, min_indicators=1, smoothing_polls=1),
                               fallback_temperature=300.0)
        v = loop.run(41).verdict
        assert v.declared_time == loop.det.records[40].poll_time
        assert v.size_estimate > 0
        assert v.location_estimate is None and not v.location_ambiguous
        assert v.notes == ("location unavailable",)

    def test_flat_residual_landscape_is_ambiguous(self):
        # A mid-line gauge reading 30 bar high adds a residual that no
        # candidate explains, which flattens the landscape below 1%
        loop = _MiniLoop(leak_rate=2.0)
        loop.instruments = loop.instruments + [
            InstrumentPlacement("p_mid", "pressure", 3000.0, bias=3.0e6)]
        loop.det = RtmDetector(loop.pipe, loop.fluid, loop.grid, loop.instruments, policy(),
                               fallback_temperature=300.0)
        v = loop.run(40).verdict
        assert v.declared and v.location_ambiguous
        assert v.notes == ("location ambiguous: flat residual landscape",)

    def test_refine_keeps_the_first_estimates_when_its_size_fails(self):
        # flow_out goes dark once the detector declares, so the refine
        # window has no size sample
        at_declaration = []

        def mangle(frame, k):
            if not loop.det.verdict.declared:
                return frame
            if not at_declaration:
                at_declaration.append(loop.det.verdict)
            return _dark(frame, "flow_out")

        loop = _MiniLoop(leak_rate=2.0, mangle=mangle)
        det = loop.run(60)
        assert det._refine_at is not None and len(det.records) > det._refine_at
        assert det.size_leak(window=det.refine_after_polls)[0] is None
        assert at_declaration[0].size_estimate > 0
        assert det.verdict == at_declaration[0]


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
        vals = [r.frame.good_value(ind.id) for r in recs]
        vals = [v for v in vals if v is not None]
        if vals:
            meas[ind.id] = float(np.mean(vals))
    if det.drive == "flow":
        values[det.pressure_anchor.id] = meas[det.pressure_anchor.id]
    bc = det._constant_bc(det._steady_ends, values, det._t_held)

    solver = PipeFlowSolver(det.pipeline, det.fluid, det.grid)
    ssr, guess = [], det._state
    for x in det.grid.node_positions[1:-1]:
        leak = LeakEvent(position=float(x), start_time=-np.inf, mass_rate=size)
        guess = solver.steady_state(bc, t=recs[-1].poll_time, leaks=[leak], initial_guess=guess)
        total = 0.0
        for ind in det.indicators:
            if ind.id in meas:
                (k,) = instrument_nodes(det.grid.node_positions, [ind])
                pred = noiseless_reading(guess, ind.kind, k, det.pipeline)
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
            w = _LOCATE_WINDOW_POLLS if window is None else window
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
