"""Real-time transient model (RTM) leak detection.

A shadow hydraulic model runs in lockstep with the telemetry stream,
driven by measured boundary conditions.  Discrepancies between measured
and modeled values at the remaining instruments are the leak indicators;
a voting scheme (K indicators beyond threshold for M consecutive polls)
declares the alarm, after which the leak is sized from the end-flow
imbalance and located by steady-state superposition of the sized leak
over candidate nodes.

Two drive modes exist.  ``pressure`` (the default) holds the shadow to
the measured end pressures, so flow meters become the indicators; it is
the well-posed choice under flow imbalance.  ``flow`` drives the shadow
with the measured end flows, reproducing the classic divergence where a
leak makes the model predict rising pressures (inventory packing) while
the measured pressures fall.

The detector takes each poll's readings from the run's
:class:`TelemetryLog` and copies none of them: what it adds per poll is
what it computes, written into an :class:`RtmTrace` as columns of plain
numbers.
:meth:`RtmDetector.report` and a run's ``rtm_trace.csv`` read those
columns; the sizing and locate windows read them and the log; the vote
keeps one count per indicator, its streak of polls beyond threshold.
"""

import json
import math
from array import array
from collections import Counter, deque
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import SOLVER_FAILURES, ConfigurationError, InfeasibleScenarioError
from .fluid import raw_density
from .formats import csv_cell, csv_line, json_floats, masked, pieces
from .hydraulics import (
    BoundaryConditions,
    BoundaryLeg,
    LeakEvent,
    PipeFlowSolver,
    TimeSeries,
    linepack,
)
from .network import end_flow_meters
from .telemetry import OptionalFloats, TelemetryLog, instrument_nodes, noiseless_reading

__all__ = [
    "VotingPolicy",
    "RtmTrace",
    "IndicatorTrace",
    "LeakVerdict",
    "LocationScan",
    "vote",
    "RtmDetector",
    "combined_verdict",
]

# Polls a bad boundary reading is held before detection is suspended.
_STALENESS_POLLS = 3
# Polls averaged to locate a leak when the alarm is declared.
_LOCATE_WINDOW_POLLS = 12


@dataclass(frozen=True)
class VotingPolicy:
    """Alarm thresholds and the (M, K) voting rule.

    Indicators are moving averages of the raw measured-minus-modeled
    deltas over ``smoothing_polls`` polls; with smoothing_polls=1 they are
    the raw per-poll deltas.
    """

    flow_threshold: float        # kg/s
    pressure_threshold: float    # Pa
    consecutive_required: int = 3   # M: polls an indicator must stay beyond threshold
    min_indicators: int = 2         # K: indicators required in alarm together
    smoothing_polls: int = 8

    def __post_init__(self):
        if self.flow_threshold <= 0 or self.pressure_threshold <= 0:
            raise ConfigurationError("voting thresholds must be > 0")
        if self.consecutive_required < 1 or self.min_indicators < 1:
            raise ConfigurationError("voting M and K must be >= 1")
        if self.smoothing_polls < 1:
            raise ConfigurationError("smoothing_polls must be >= 1")

    def threshold_for(self, kind):
        return self.flow_threshold if kind == "flow" else self.pressure_threshold

    @classmethod
    def default_for(cls, instruments, **overrides):
        """3x instrument sigma per kind, with small floors for noiseless runs."""
        sigma_f = max([i.noise_sigma for i in instruments if i.kind == "flow"], default=0.0)
        sigma_p = max([i.noise_sigma for i in instruments if i.kind == "pressure"], default=0.0)
        params = dict(
            flow_threshold=max(3.0 * sigma_f, 1e-3),
            pressure_threshold=max(3.0 * sigma_p, 1.0),
        )
        params.update(overrides)
        return cls(**params)


class RtmTrace:
    """Every poll an :class:`RtmDetector` observed, as columns: the poll
    time, the reason it was unavailable (None when it counted), the alarm
    condition, each indicator's delta and normalized value (read as None on
    an unavailable poll, which carries none), the shadow's linepack and the
    held boundary readings.  Index k of every column is poll k."""

    def __init__(self, indicator_ids, boundary_ids):
        self.indicator_ids = tuple(dict.fromkeys(indicator_ids))
        self.boundary_ids = tuple(dict.fromkeys(boundary_ids))
        self.times = array("d")
        self.reasons = []
        self.alarm = bytearray()
        self.delta = {i: OptionalFloats() for i in self.indicator_ids}
        self.normalized = {i: OptionalFloats() for i in self.indicator_ids}
        self.linepack = OptionalFloats()
        self.held = {i: OptionalFloats() for i in self.boundary_ids}

    def __len__(self):
        return len(self.times)

    def append(self, poll_time, reason, alarm, delta, normalized, linepack, held):
        """Write one poll: its time, reason and alarm condition, its
        {indicator: value} ``delta`` and ``normalized`` (an indicator
        missing from them is None), the shadow's linepack, and the
        {id: value} of every held boundary reading, each of which must be
        there."""
        held = [held[i] for i in self.boundary_ids]
        self.times.append(poll_time)
        self.reasons.append(reason)
        self.alarm.append(alarm)
        for iid in self.indicator_ids:
            self.delta[iid].append(delta.get(iid))
            self.normalized[iid].append(normalized.get(iid))
        self.linepack.append(linepack)
        for iid, v in zip(self.boundary_ids, held):
            self.held[iid].append(v)

    def csv_pieces(self, chunk):
        """rtm_trace.csv's text, the bytes ``csv.writer`` writes for it: the
        header line, then each poll's time, whether it counted (0/1), its
        reason, its alarm condition (0/1), and each indicator's normalized
        value and delta (empty where None), at most ``chunk`` polls a piece.
        An indicator has a column once a poll counted, and every one then
        does."""
        ids = sorted(self.indicator_ids) if None in self.reasons else []
        yield csv_line(["poll_time", "available", "reason", "alarm"]
                       + [f"norm_{i}" for i in ids] + [f"delta_{i}" for i in ids])
        columns = [column[i] for column in (self.normalized, self.delta) for i in ids]
        # a poll's cells from "available" up to "alarm", by reason
        middles = {r: f",0,{csv_cell(r)}," for r in set(self.reasons) if r is not None}
        middles[None] = ",1,,"
        for start, stop in pieces(len(self), chunk):
            cells = [masked(map(float.__repr__, c.values[start:stop]), c.none[start:stop], "")
                     for c in columns]
            ends = ([f",{row}\r\n" for row in map(",".join, zip(*cells))] if cells
                    else ["\r\n"] * (stop - start))
            yield "".join([t + middles[r] + "01"[alarm] + end for t, r, alarm, end in zip(
                map(float.__repr__, self.times[start:stop]), self.reasons[start:stop],
                self.alarm[start:stop], ends)])

    def indicator_values(self, column, k):
        """Poll k's {indicator: value} of ``column`` (``delta`` or
        ``normalized``): empty on an unavailable poll."""
        ids = self.indicator_ids if self.reasons[k] is None else ()
        return {i: column[i][k] for i in ids}


class IndicatorTrace:
    """The report's ``indicator_trace``: one entry per poll traced when it
    was made, each built from the trace's columns as it is iterated; it
    equals a list of the same entries.  report.json's text of it is
    formatted from the columns directly (:meth:`json_pieces`)."""

    def __init__(self, trace: RtmTrace):
        self._trace = trace
        self._n = len(trace)

    def __len__(self):
        return self._n

    def __iter__(self):
        tr = self._trace
        for k in range(self._n):
            reason = tr.reasons[k]
            yield {
                "t": tr.times[k],
                "available": reason is None,
                "reason": reason,
                "normalized": tr.indicator_values(tr.normalized, k),
                "alarm": bool(tr.alarm[k]),
            }

    def __eq__(self, other):
        if not isinstance(other, (list, IndicatorTrace)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def json_pieces(self, depth, chunk):
        """``json.dumps(list(self), indent=2, sort_keys=True)`` for a list
        nested ``depth`` levels deep, at most ``chunk`` entries a piece."""
        if not self._n:
            yield "[]"
            return
        tr = self._trace
        # the line break and indent of an entry, of its keys and of its indicators
        i1 = "\n" + "  " * (depth + 1)
        i2, i3 = i1 + "  ", i1 + "    "
        entry = (f'{i1}{{{i2}"alarm": %s,{i2}"available": %s,{i2}"normalized": %s,'
                 f'{i2}"reason": %s,{i2}"t": %s{i1}}}')
        ids = sorted(tr.indicator_ids)
        keys = [f"{i3}{json.dumps(i)}: " for i in ids]
        # the texts of "available" and "reason", by reason
        by_reason = {r: ("false", json.dumps(r)) for r in set(tr.reasons) if r is not None}
        by_reason[None] = ("true", "null")
        sep = "["
        for start, stop in pieces(self._n, chunk):
            values = [masked(json_floats(tr.normalized[i].values[start:stop]),
                             tr.normalized[i].none[start:stop], "null") for i in ids]
            normalized = ["{" + ",".join(map(str.__add__, keys, row)) + i2 + "}"
                          for row in zip(*values)] if ids else ["{}"] * (stop - start)
            entries = [entry % (("false", "true")[alarm], by_reason[r][0],
                                norm if r is None else "{}", by_reason[r][1], t)
                       for t, r, alarm, norm in zip(json_floats(tr.times[start:stop]),
                                                    tr.reasons[start:stop],
                                                    tr.alarm[start:stop], normalized)]
            yield sep + ",".join(entries)
            sep = ","
        yield "\n" + "  " * depth + "]"


@dataclass(frozen=True)
class LeakVerdict:
    declared: bool
    declared_time: Optional[float] = None
    size_estimate: Optional[float] = None       # kg/s
    location_estimate: Optional[float] = None   # m from inlet
    location_ambiguous: bool = False
    notes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class LocationScan:
    position: float
    node_index: int
    ambiguous: bool
    candidates: np.ndarray   # candidate x, m
    # Sum of squared normalized residuals per candidate.  Entries at
    # node_index, at its two neighbours and at every candidate solved on
    # the way there come from exact steady solves; the rest are linear
    # superposition predictions (see RtmDetector.locate_leak).
    ssr: np.ndarray


class _Streaks:
    """The voting rule poll by poll: each indicator's count of consecutive
    polls beyond threshold, ending at the latest poll.  A poll that lacks
    an indicator, or reads it as None or NaN, ends its streak, so an
    unavailable poll (which carries no indicators) ends every one."""

    def __init__(self, policy: VotingPolicy):
        self.M, self.K = policy.consecutive_required, policy.min_indicators
        self.counts: Dict[str, int] = {}

    def vote(self, normalized) -> bool:
        """Count one poll's {indicator: normalized} in; whether >= K
        indicators have now been beyond threshold for M polls."""
        counts, self.counts = self.counts, {}
        passing = 0
        for iid, v in normalized.items():
            # None ends a streak, and so does NaN: it is never >= 1
            if v is not None and abs(v) >= 1.0:
                c = self.counts[iid] = counts.get(iid, 0) + 1
                passing += c >= self.M
            else:
                self.counts[iid] = 0
        return passing >= self.K


def vote(history, policy: VotingPolicy) -> bool:
    """Alarm iff >= K indicators are beyond threshold for the last M polls.

    ``history`` is a sequence of per-poll {indicator: normalized} maps;
    None entries (warmup, bad readings, suspension) never count.  This is
    the rule :class:`RtmDetector` applies poll by poll.
    """
    streaks, alarm = _Streaks(policy), False
    for normalized in history[-policy.consecutive_required:]:
        alarm = streaks.vote(normalized)
    return alarm


def combined_verdict(rtm: LeakVerdict, balance_alarm_time=None):
    """Join the RTM verdict with its line-balance back-up."""
    declared = rtm.declared or balance_alarm_time is not None
    times = [t for t in (rtm.declared_time, balance_alarm_time) if t is not None]
    return {
        "declared": declared,
        "declared_time": min(times) if times else None,
        "balance_alarm_time": balance_alarm_time,
        "confirmed_by_balance": rtm.declared and balance_alarm_time is not None,
    }


class RtmDetector:
    """Sequential state machine over the poll stream; one per pipeline.

    Feed it a telemetry log of filtered frames via :meth:`observe`, once
    a poll; ``trace`` keeps what it computes of every poll as columns, and
    the sizing and locate windows read it and the log (see the module
    docstring).  Boundary readings that go bad are held for up to
    ``_STALENESS_POLLS`` polls, after which detection is suspended until
    good readings return: those polls are unavailable, with their reason,
    and never count toward voting.
    """

    def __init__(self, pipeline, fluid, grid, instruments, policy: VotingPolicy, *,
                 drive="pressure", refine_after_polls=24, fallback_temperature=288.15,
                 temperature_end="inlet"):
        if drive not in ("pressure", "flow"):
            raise ConfigurationError(f"drive must be 'pressure' or 'flow', got {drive!r}")
        if temperature_end not in ("inlet", "outlet"):
            raise ConfigurationError(
                f"temperature_end must be 'inlet' or 'outlet', got {temperature_end!r}")
        self.pipeline = pipeline
        self.fluid = fluid
        self.grid = grid
        self.instruments = list(instruments)
        self.policy = policy
        self.drive = drive
        self.temperature_end = temperature_end
        # Fast leaks alarm before the flow split settles, so first estimates
        # are biased by pre-leak polls; size/location are recomputed this
        # many polls after declaration from purely post-alarm data.
        self.refine_after_polls = int(refine_after_polls)

        # The boundary readings exist once per poll, so the shadow steps once
        # per poll, on the same fixed scheme as the plant.
        self.solver = PipeFlowSolver(pipeline, fluid, grid)

        self._classify_instruments()
        ids = [i.id for i in self.indicators]
        if policy.min_indicators > len(ids):
            raise ConfigurationError(
                f"min_indicators {policy.min_indicators} exceeds the {len(ids)} indicators "
                f"({', '.join(ids)}), so the vote could never pass")
        self._state = None
        self._drive_bc = None       # built from the first good boundary readings
        # the two boundary instruments' held readings (None until the first)
        self._hold: Dict[str, Optional[float]] = dict.fromkeys(
            (self.boundary_in.id, self.boundary_out.id))
        self._stale: Dict[str, int] = {}
        self._t_held = float(fallback_temperature)
        # each indicator's id, kind, node, threshold and moving-average window
        self._smooth = [(i.id, i.kind, self._node_of[i.id], policy.threshold_for(i.kind),
                         deque(maxlen=policy.smoothing_polls)) for i in self.indicators]
        self.trace = RtmTrace(ids, (self.boundary_in.id, self.boundary_out.id))
        self._log: Optional[TelemetryLog] = None   # the log last observed
        self._streaks = _Streaks(policy)
        self.verdict = LeakVerdict(declared=False)
        self._refine_at: Optional[int] = None   # poll count at which to refine

    # ------------------------------------------------------------ wiring

    def _classify_instruments(self):
        L = self.pipeline.length
        at = lambda pos, kind: [
            i for i in self.instruments
            if i.kind == kind and math.isclose(i.position, pos, rel_tol=0, abs_tol=1e-6)
        ]
        b_in, b_out = at(0.0, self.drive), at(L, self.drive)
        if not b_in or not b_out:
            raise ConfigurationError(
                f"{self.drive}-driven detection needs a {self.drive} instrument "
                "at each end of the line"
            )
        self.boundary_in, self.boundary_out = b_in[0], b_out[0]

        self.indicators = [
            i for i in self.instruments
            if i.kind in ("flow", "pressure") and i not in (self.boundary_in, self.boundary_out)
        ]
        if not self.indicators:
            raise ConfigurationError("no indicator instruments remain beyond the boundaries")
        # The SCADA's own node map, so an indicator's model value is taken
        # at the node its reading comes from.
        self._node_of = dict(zip((i.id for i in self.indicators),
                                 instrument_nodes(self.grid.node_positions, self.indicators)))

        temps = at(0.0 if self.temperature_end == "inlet" else L, "temperature")
        self.temperature_instrument = temps[0] if temps else None

        # End flow meters for sizing (in flow drive these are the boundaries).
        self.flow_in_meter, self.flow_out_meter = end_flow_meters(self.instruments, L)

        # (kind, instrument) at the inlet and at the outlet: the shadow's
        # drive, and its steady problems, where in flow drive the pressure
        # anchor replaces the flow at its end.
        self._drive_ends = ((self.drive, self.boundary_in), (self.drive, self.boundary_out))
        self._steady_ends = self._drive_ends
        if self.drive == "flow":
            anchors = at(L, "pressure") + at(0.0, "pressure")  # the outlet's first
            if not anchors:
                raise ConfigurationError(
                    "flow-driven detection needs an end pressure instrument to "
                    "anchor the shadow model's initial state"
                )
            self.pressure_anchor = anchors[0]
            if self.pressure_anchor.position > L / 2:
                self._steady_ends = (("flow", self.boundary_in), ("pressure", self.pressure_anchor))
            else:
                self._steady_ends = (("pressure", self.pressure_anchor), ("flow", self.boundary_out))

    # ------------------------------------------------------------ stepping

    def report(self):
        """The ``rtm`` section of a run report: the verdict and, from the
        trace, the poll counts, the unavailable polls by reason, and each
        poll's normalized indicators and reason.  ``indicator_trace`` is an
        :class:`IndicatorTrace` of the polls traced so far, whose entries are
        made as it is iterated; ``RunReport.to_dict`` lists it."""
        v = self.verdict
        tr = self.trace
        by_reason = Counter(r for r in tr.reasons if r is not None)
        return {
            "enabled": True,
            "declared": v.declared,
            "declared_time": v.declared_time,
            "size_estimate": v.size_estimate,
            "location_estimate": v.location_estimate,
            "location_ambiguous": v.location_ambiguous,
            "notes": list(v.notes),
            "polls": len(tr),
            "unavailable_polls": sum(by_reason.values()),
            "unavailable_by_reason": dict(by_reason),
            "alarm_condition_polls": [t for t, alarm in zip(tr.times, tr.alarm) if alarm],
            "indicator_trace": IndicatorTrace(tr),
        }

    def observe(self, log: TelemetryLog):
        """Advance the shadow model to the log's next poll, the one of index
        ``len(trace)``, and evaluate the leak vote; the trace then ends with
        the poll."""
        self._log = log
        k = len(self.trace)
        if self._state is None:
            self._try_initialize(k)
        else:
            self._step(k)
        if len(self.trace) == self._refine_at:
            self._refine()

    def _try_initialize(self, k):
        t = self._log.times[k]
        needed = [self.boundary_in, self.boundary_out]
        if self.drive == "flow":
            needed.append(self.pressure_anchor)
        values = {i.id: self._log.good_value(k, i.id) for i in needed}
        if any(v is None for v in values.values()):
            return self._record(k, reason="awaiting good boundary readings")

        t_bc = self._temperature_value(k)
        self._state = self.solver.steady_state(
            self._constant_bc(self._steady_ends, values, t_bc), t=t)
        self._drive_bc = self._constant_bc(self._drive_ends, values, t_bc)
        for i in (self.boundary_in, self.boundary_out):
            self._hold[i.id] = values[i.id]
            self._stale[i.id] = 0
        return self._record(k, linepack(self._state, self.pipeline))

    def _constant_bc(self, ends, values, t_bc):
        """Constant boundary conditions from one value per instrument id at
        the (kind, instrument) ``ends``; ``_steady_ends`` give a steady
        problem, where in flow drive the pressure anchor's value replaces
        the flow at its end.  The values are readings, so one that no model
        can hold (a pressure at or below zero) makes the shadow's problem
        infeasible, not the scenario misconfigured."""
        leg = lambda kind, inst: BoundaryLeg(kind, TimeSeries.constant(values[inst.id]))
        try:
            return BoundaryConditions(inlet=leg(*ends[0]), outlet=leg(*ends[1]),
                                      temperature=TimeSeries.constant(t_bc),
                                      temperature_end=self.temperature_end)
        except ConfigurationError as e:
            raise InfeasibleScenarioError(f"shadow model boundary readings: {e}") from None

    def _step(self, k):
        t0, t1 = self._state.t, self._log.times[k]
        if t1 <= t0:
            raise ConfigurationError(
                f"poll at t={t1} s does not come after the shadow's t={t0} s: "
                "frames must arrive in poll order")
        hold, stale, good = self._hold, self._stale, self._log.good_value
        for iid in hold:
            v = good(k, iid)
            if v is not None:
                hold[iid] = v
                stale[iid] = 0
            else:
                stale[iid] += 1
        suspended = max(stale.values()) > _STALENESS_POLLS

        # One step per poll, to the readings held at its end.
        targets = (*hold.values(), self._temperature_value(k))
        step = self.solver.advance(self._state, self._drive_bc, dt=t1 - t0, targets=targets)
        self._state = step.state
        reason = "boundary readings stale; detection suspended" if suspended else None
        return self._record(k, step.ledger.linepack_end, reason)

    def _temperature_value(self, k):
        """The temperature drive: poll k's good reading, else the last one
        taken, else ``fallback_temperature``."""
        if self.temperature_instrument is not None:
            v = self._log.good_value(k, self.temperature_instrument.id)
            if v is not None:
                self._t_held = v
        return self._t_held

    # ------------------------------------------------------------ evaluation

    def _record(self, k, lp=None, reason=None):
        """Append poll k to the trace, declaring on the first alarm.  An
        available poll (no ``reason``) takes each indicator's
        measured-minus-modeled delta into its moving average, numpy's mean;
        an unavailable one carries none."""
        delta, normalized = {}, {}
        if reason is None:
            state, pipeline, good = self._state, self.pipeline, self._log.good_value
            for iid, kind, node, threshold, buf in self._smooth:
                v = good(k, iid)
                if v is None:
                    delta[iid] = normalized[iid] = None
                    continue
                d = delta[iid] = float(v - noiseless_reading(state, kind, node, pipeline))
                buf.append(d)
                n = len(buf)
                normalized[iid] = (float(np.add.reduce(np.fromiter(buf, float, n)))
                                   / n / threshold if n == buf.maxlen else None)

        t = self._log.times[k]
        alarm = self._streaks.vote(normalized)
        if alarm and not self.verdict.declared:
            self._declare(t)
        self.trace.append(t, reason, alarm, delta, normalized, lp, self._hold)

    # ------------------------------------------------------------ sizing

    def size_leak(self, window=None):
        """Leak rate from the end-flow imbalance less the modeled linepack
        rate, averaged over the last M (voting) polls, or the last
        ``window``.

        Returns (size, note); size is None when both end meters were never
        simultaneously good in the window (the alarm itself stands).
        """
        M = self.policy.consecutive_required if window is None else window
        tr, lp, times = self.trace, self.trace.linepack, self.trace.times
        ends = (self.flow_in_meter, self.flow_out_meter)
        # a line without a meter at each end gives no sample
        polls = range(max(len(tr) - M, 0), len(tr)) if None not in ends else ()
        samples = []
        for k in polls:
            flow_in, flow_out = (self._log.good_value(k, m.id) for m in ends)
            if flow_in is None or flow_out is None:
                continue
            if self.drive == "pressure":
                if k == 0 or lp[k] is None or lp[k - 1] is None:
                    continue
                rate = (lp[k] - lp[k - 1]) / (times[k] - times[k - 1])
            else:
                # A flow-driven shadow's inventory rate equals the measured
                # imbalance by construction; subtracting it would cancel the
                # leak signal exactly.  The raw imbalance is the estimate.
                rate = 0.0
            samples.append(flow_in - flow_out - rate)
        if not samples:
            return None, "size unavailable: end flow readings or linepack rate missing"
        return float(np.mean(samples)), None

    # ------------------------------------------------------------ location

    def locate_leak(self, size, window=None) -> Optional[LocationScan]:
        """Steady-superposition scan: the node where the sized leak best
        explains the measurements averaged over the last ``window`` polls
        (``_LOCATE_WINDOW_POLLS`` by default), by least squared normalized
        residuals at the indicators.

        One leak-free steady solve at the averaged boundary values and one
        factorization of its Jacobian give each indicator's linear
        response to a leak at every node, so every candidate is first
        scored from the readout at base + size x response.  Then the
        candidate with the least residual, or its neighbour when it is
        already exact, is re-scored with an exact warm-started steady
        solve, one at a time, until the least residual and both its
        neighbours are exact: the result is an exact local minimum, and
        the global minimum of the returned ``ssr``.  Each exact solve also
        shifts the predictions still linear by its readout error there.
        """
        if size is None or size <= 0:
            return None
        window = _LOCATE_WINDOW_POLLS if window is None else window
        tr = self.trace
        polls = [k for k in range(max(len(tr) - window, 0), len(tr)) if tr.reasons[k] is None]
        if not polls:
            return None

        values = {iid: float(np.mean([held[k] for k in polls]))
                  for iid, held in tr.held.items()}
        meas_avg = {}
        for ind in self.indicators:
            vals = [self._log.good_value(k, ind.id) for k in polls]
            vals = [v for v in vals if v is not None]
            if vals:
                meas_avg[ind.id] = float(np.mean(vals))
        if not meas_avg:
            return None
        if self.drive == "flow":
            # The anchor is an indicator here; its averaged reading pins the
            # steady profile's pressure level.
            if self.pressure_anchor.id not in meas_avg:
                return None
            values[self.pressure_anchor.id] = meas_avg[self.pressure_anchor.id]
        bc = self._constant_bc(self._steady_ends, values, self._t_held)

        used = [ind for ind in self.indicators if ind.id in meas_avg]
        nodes = [self._node_of[ind.id] for ind in used]
        meas = np.array([[meas_avg[ind.id]] for ind in used])
        thresholds = np.array([[self.policy.threshold_for(ind.kind)] for ind in used])

        t_ref = tr.times[polls[-1]]
        base = self.solver.steady_state(bc, t=t_ref, initial_guess=self._state)
        reads = sorted({(f, k) for ind, k in zip(used, nodes)
                        for f in ("PVT" if ind.kind == "flow" else "P")})
        response = self.solver.steady_leak_response(base, bc, reads)[:, 1:-1]
        row = {read: r for r, read in enumerate(reads)}
        at = lambda f, k: getattr(base, f)[k] + size * response[row[f, k]]

        def predicted(kind, k):
            if kind != "flow":
                return at("P", k)
            rho = raw_density(self.fluid.eos, at("P", k), at("T", k))
            return rho * at("V", k) * self.pipeline.area

        # Modeled readouts, one row per indicator and one column per candidate.
        readouts = np.array([predicted(ind.kind, k) for ind, k in zip(used, nodes)])
        candidates = self.grid.node_positions[1:-1]

        def exact(ci):
            leak = LeakEvent(position=float(candidates[ci]), start_time=-np.inf, mass_rate=size)
            st = self.solver.steady_state(bc, t=t_ref, leaks=[leak], initial_guess=base)
            return np.array([noiseless_reading(st, ind.kind, k, self.pipeline)
                             for ind, k in zip(used, nodes)])

        is_exact = np.zeros(candidates.size, dtype=bool)
        while True:
            ssr = np.sum(((meas - readouts) / thresholds) ** 2, axis=0)
            best = int(np.argmin(ssr))
            todo = [ci for ci in (best, best - 1, best + 1)
                    if 0 <= ci < ssr.size and not is_exact[ci]]
            if not todo:
                break
            # The linearization error varies slowly along the line, so the
            # defect at a solved candidate also corrects the predictions.
            ci = todo[0]
            solved = exact(ci)
            readouts[:, ~is_exact] += (solved - readouts[:, ci])[:, None]
            readouts[:, ci] = solved
            is_exact[ci] = True

        spread_flat = float(np.max(ssr) - np.min(ssr)) <= 0.01 * max(float(np.max(ssr)), 1e-30)
        return LocationScan(
            position=float(candidates[best]),
            node_index=best + 1,
            ambiguous=spread_flat,
            candidates=candidates.copy(),
            ssr=ssr,
        )

    def _locate(self, size, window=None):
        """:meth:`locate_leak`, and the solver failure that stopped its scan
        (None when none did): a failed scan leaves the alarm standing."""
        try:
            return self.locate_leak(size, window), None
        except SOLVER_FAILURES as err:
            return None, err

    def _declare(self, poll_time):
        # the poll is not in the trace yet, so the windows end at the poll before it
        size, note = self.size_leak()
        scan, failure = self._locate(size)
        if size is None or size <= 0:
            where = "location skipped: no usable size estimate"
        elif failure is not None:
            where = f"location unavailable: {failure}"
        elif scan is None:
            where = "location unavailable"
        elif scan.ambiguous:
            where = "location ambiguous: flat residual landscape"
        else:
            where = None
        self.verdict = LeakVerdict(
            declared=True,
            declared_time=poll_time,
            size_estimate=size,
            location_estimate=None if scan is None else scan.position,
            location_ambiguous=scan is not None and scan.ambiguous,
            notes=tuple(n for n in (note, where) if n),
        )
        if self.refine_after_polls > 0:
            # The poll being recorded is number len(trace) + 1.
            self._refine_at = len(self.trace) + 1 + self.refine_after_polls

    def _refine(self):
        """Recompute size/location from post-declaration polls.

        Estimates made at declaration mix pre-leak and settling-transient
        data; once ``refine_after_polls`` post-alarm polls exist they are
        replaced by estimates over that window.  Declaration time is not
        touched.  Failed refinements keep the original estimates: a size
        that is not positive keeps both, and a location scan that finds
        nothing or whose solver fails keeps the location.
        """
        window = self.refine_after_polls
        size, _ = self.size_leak(window=window)
        if size is None or size <= 0:
            return
        v = self.verdict
        scan, failure = self._locate(size, window=window)
        kept = () if failure is None else (f"location not refined: {failure}",)
        self.verdict = replace(
            v,
            size_estimate=size,
            location_estimate=v.location_estimate if scan is None else scan.position,
            location_ambiguous=v.location_ambiguous if scan is None else scan.ambiguous,
            notes=v.notes + (f"estimates refined {window} polls after declaration",) + kept,
        )
