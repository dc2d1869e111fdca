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
"""

import math
from collections import Counter, deque
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, InfeasibleScenarioError
from .fluid import raw_density
from .hydraulics import (
    BoundaryConditions,
    BoundaryLeg,
    LeakEvent,
    PipeFlowSolver,
    TimeSeries,
    linepack,
)
from .network import end_flow_meters
from .telemetry import TelemetryFrame, instrument_nodes, noiseless_reading

__all__ = [
    "VotingPolicy",
    "RtmPollRecord",
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


@dataclass(frozen=True)
class RtmPollRecord:
    """What the detector made of one poll.  The readings stay in ``frame``;
    a poll with a ``reason`` is unavailable (initializing or suspended) and
    carries no indicators, so it never counts toward the vote."""

    frame: TelemetryFrame
    reason: Optional[str]
    delta: Dict[str, Optional[float]]       # measured minus modeled, this poll
    normalized: Dict[str, Optional[float]]  # moving average / threshold (None until warm)
    alarm_condition: bool                   # voting rule satisfied at this poll
    shadow_linepack: Optional[float]
    boundary_values: Dict[str, Optional[float]]  # held drive readings

    @property
    def poll_time(self):
        return self.frame.poll_time

    @property
    def available(self):
        return self.reason is None


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


def vote(history, policy: VotingPolicy) -> bool:
    """Alarm iff >= K indicators are beyond threshold for the last M polls.

    ``history`` is a sequence of per-poll {indicator: normalized} maps;
    None entries (warmup, bad readings, suspension) never count.
    """
    M, K = policy.consecutive_required, policy.min_indicators
    if len(history) < M:
        return False
    recent = history[-M:]
    # an indicator missing from the newest poll reads None there, so only
    # the newest poll's indicators can count
    count = sum(all(v is not None and abs(v) >= 1.0 for v in (h.get(iid) for h in recent))
                for iid in recent[-1])
    return count >= K


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

    Feed filtered telemetry frames in poll order via :meth:`observe`;
    each poll leaves one :class:`RtmPollRecord` in ``records``.  Boundary
    readings that go bad are held for up to ``_STALENESS_POLLS`` polls,
    after which detection is suspended until good readings return: those
    polls are unavailable, with their reason, and never count toward
    voting.
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
        self._hold: Dict[str, float] = {}   # the two boundary instruments' held readings
        self._stale: Dict[str, int] = {}
        self._t_held = float(fallback_temperature)
        self._smooth: Dict[str, deque] = {
            i.id: deque(maxlen=policy.smoothing_polls) for i in self.indicators
        }
        self.records: List[RtmPollRecord] = []
        self.verdict = LeakVerdict(declared=False)
        self._refine_at: Optional[int] = None   # record count at which to refine

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
        poll log, the poll counts, the unavailable polls by reason, and each
        poll's normalized indicators and reason."""
        v = self.verdict
        by_reason = Counter(r.reason for r in self.records if not r.available)
        return {
            "enabled": True,
            "declared": v.declared,
            "declared_time": v.declared_time,
            "size_estimate": v.size_estimate,
            "location_estimate": v.location_estimate,
            "location_ambiguous": v.location_ambiguous,
            "notes": list(v.notes),
            "polls": len(self.records),
            "unavailable_polls": sum(by_reason.values()),
            "unavailable_by_reason": dict(by_reason),
            "alarm_condition_polls": [r.poll_time for r in self.records if r.alarm_condition],
            "indicator_trace": [
                {
                    "t": r.poll_time,
                    "available": r.available,
                    "reason": r.reason,
                    "normalized": dict(r.normalized),
                    "alarm": r.alarm_condition,
                }
                for r in self.records
            ],
        }

    def observe(self, frame: TelemetryFrame) -> RtmPollRecord:
        """Advance the shadow model one poll and evaluate the leak vote."""
        if self._state is None:
            rec = self._try_initialize(frame)
        else:
            rec = self._step(frame)
        self.records.append(rec)
        if len(self.records) == self._refine_at:
            self._refine()
        return rec

    def _try_initialize(self, frame):
        t = frame.poll_time
        needed = [self.boundary_in, self.boundary_out]
        if self.drive == "flow":
            needed.append(self.pressure_anchor)
        values = {i.id: frame.good_value(i.id) for i in needed}
        if any(v is None for v in values.values()):
            return self._record(frame, reason="awaiting good boundary readings")

        t_bc = self._temperature_value(frame)
        self._state = self.solver.steady_state(
            self._constant_bc(self._steady_ends, values, t_bc), t=t)
        self._drive_bc = self._constant_bc(self._drive_ends, values, t_bc)
        for i in (self.boundary_in, self.boundary_out):
            self._hold[i.id] = values[i.id]
            self._stale[i.id] = 0
        return self._record(frame, linepack(self._state, self.pipeline))

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

    def _step(self, frame):
        t0, t1 = self._state.t, frame.poll_time
        if t1 <= t0:
            raise ConfigurationError(
                f"poll at t={t1} s does not come after the shadow's t={t0} s: "
                "frames must arrive in poll order")
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
        # One step per poll, to the readings held at its end.
        targets = (self._hold[self.boundary_in.id], self._hold[self.boundary_out.id], t_now)
        step = self.solver.advance(self._state, self._drive_bc, dt=t1 - t0, targets=targets)
        self._state = step.state
        reason = "boundary readings stale; detection suspended" if suspended else None
        return self._record(frame, step.ledger.linepack_end, reason)

    def _temperature_value(self, frame):
        """The temperature drive: this poll's good reading, else the last
        one taken, else ``fallback_temperature``."""
        if self.temperature_instrument is not None:
            v = frame.good_value(self.temperature_instrument.id)
            if v is not None:
                self._t_held = v
        return self._t_held

    # ------------------------------------------------------------ evaluation

    def _record(self, frame, lp=None, reason=None):
        """The poll's record, declaring on the first alarm.  An available
        poll (no ``reason``) takes each indicator's measured-minus-modeled
        delta into its moving average; an unavailable one carries none."""
        delta, normalized = {}, {}
        if reason is None:
            for ind in self.indicators:
                v = frame.good_value(ind.id)
                if v is None:
                    delta[ind.id] = normalized[ind.id] = None
                    continue
                model = noiseless_reading(self._state, ind.kind, self._node_of[ind.id],
                                          self.pipeline)
                d = float(v - model)
                delta[ind.id] = d
                buf = self._smooth[ind.id]
                buf.append(d)
                if len(buf) == buf.maxlen:
                    # np.mean's own sum, without its wrapper: the same bits
                    sm = float(np.array(buf).sum()) / len(buf)
                    normalized[ind.id] = sm / self.policy.threshold_for(ind.kind)
                else:
                    normalized[ind.id] = None

        recent = [r.normalized for r in self.records[-self.policy.consecutive_required:]]
        rec = RtmPollRecord(
            frame=frame,
            reason=reason,
            delta=delta,
            normalized=normalized,
            alarm_condition=vote(recent + [normalized], self.policy),
            shadow_linepack=lp,
            boundary_values={i.id: self._hold.get(i.id)
                             for i in (self.boundary_in, self.boundary_out)},
        )
        if rec.alarm_condition and not self.verdict.declared:
            self._declare(rec)
        return rec

    # ------------------------------------------------------------ sizing

    def size_leak(self, window=None):
        """Leak rate from the end-flow imbalance less the modeled linepack
        rate, averaged over the last M (voting) polls.

        Returns (size, note); size is None when both end meters were never
        simultaneously good in the window (the alarm itself stands).
        """
        M = self.policy.consecutive_required if window is None else window
        meters = (self.flow_in_meter, self.flow_out_meter)
        samples = []
        for k in range(max(len(self.records) - M, 0), len(self.records)):
            rec = self.records[k]
            flow_in, flow_out = (None if m is None else rec.frame.good_value(m.id)
                                 for m in meters)
            if flow_in is None or flow_out is None:
                continue
            if self.drive == "pressure":
                prev = self.records[k - 1] if k > 0 else None
                if prev is None or prev.shadow_linepack is None or rec.shadow_linepack is None:
                    continue
                rate = ((rec.shadow_linepack - prev.shadow_linepack)
                        / (rec.poll_time - prev.poll_time))
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
        recs = [r for r in self.records[-window:] if r.available]
        if not recs:
            return None

        values = {iid: float(np.mean([r.boundary_values[iid] for r in recs]))
                  for iid in recs[-1].boundary_values}
        meas_avg = {}
        for ind in self.indicators:
            vals = [r.frame.good_value(ind.id) for r in recs]
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

        t_ref = recs[-1].poll_time
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

    def _declare(self, rec):
        size, note = self.size_leak()
        scan = self.locate_leak(size)
        if size is None or size <= 0:
            where = "location skipped: no usable size estimate"
        elif scan is None:
            where = "location unavailable"
        elif scan.ambiguous:
            where = "location ambiguous: flat residual landscape"
        else:
            where = None
        self.verdict = LeakVerdict(
            declared=True,
            declared_time=rec.poll_time,
            size_estimate=size,
            location_estimate=None if scan is None else scan.position,
            location_ambiguous=scan is not None and scan.ambiguous,
            notes=tuple(n for n in (note, where) if n),
        )
        if self.refine_after_polls > 0:
            # The record being built is number len(records) + 1.
            self._refine_at = len(self.records) + 1 + self.refine_after_polls

    def _refine(self):
        """Recompute size/location from post-declaration polls.

        Estimates made at declaration mix pre-leak and settling-transient
        data; once ``refine_after_polls`` post-alarm polls exist they are
        replaced by estimates over that window.  Declaration time is not
        touched.  Failed refinements keep the original estimates.
        """
        window = self.refine_after_polls
        size, _ = self.size_leak(window=window)
        if size is None or size <= 0:
            return
        v = self.verdict
        scan = self.locate_leak(size, window=window)
        self.verdict = replace(
            v,
            size_estimate=size,
            location_estimate=v.location_estimate if scan is None else scan.position,
            location_ambiguous=v.location_ambiguous if scan is None else scan.ambiguous,
            notes=v.notes + (f"estimates refined {window} polls after declaration",),
        )
