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
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigurationError
from .fluid import raw_density
from .hydraulics import (
    BoundaryConditions,
    BoundaryLeg,
    LeakEvent,
    PipeFlowSolver,
    SolverSettings,
    TimeSeries,
    linepack,
    modeled_profile,
)
from .network import end_flow_meters
from .telemetry import TelemetryFrame

__all__ = [
    "VotingPolicy",
    "Discrepancy",
    "RtmPollRecord",
    "LeakVerdict",
    "LocationScan",
    "vote",
    "RtmDetector",
    "combined_verdict",
]


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
class Discrepancy:
    """Measured-minus-modeled deltas at the non-boundary instruments."""

    poll_time: float
    delta: Dict[str, Optional[float]]       # raw, this poll
    smoothed: Dict[str, Optional[float]]    # moving average (None until warm)
    normalized: Dict[str, Optional[float]]  # smoothed / threshold


@dataclass(frozen=True)
class RtmPollRecord:
    poll_time: float
    available: bool                  # False while initializing or suspended
    reason: Optional[str]
    discrepancy: Optional[Discrepancy]
    alarm_condition: bool            # voting rule satisfied at this poll
    shadow_linepack: Optional[float]
    measured_flow_in: Optional[float]
    measured_flow_out: Optional[float]
    boundary_values: Dict[str, float]
    measured: Dict[str, Optional[float]]


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
    ids = set().union(*(h.keys() for h in recent))
    count = 0
    for iid in ids:
        vals = [h.get(iid) for h in recent]
        if all(v is not None and abs(v) >= 1.0 for v in vals):
            count += 1
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

    Feed filtered telemetry frames in poll order via :meth:`observe`.
    Boundary readings that go bad are held for up to ``staleness_limit``
    polls, after which detection is suspended (marked, never silent) until
    good readings return; suspended polls never count toward voting.
    """

    def __init__(self, pipeline, fluid, grid, instruments, policy: VotingPolicy,
                 poll_interval, *, drive="pressure", theta=0.6, newton_tol=1e-10,
                 substeps=1, staleness_limit=3, locate_window_polls=12,
                 refine_after_polls=24, fallback_temperature=288.15):
        if drive not in ("pressure", "flow"):
            raise ConfigurationError(f"drive must be 'pressure' or 'flow', got {drive!r}")
        self.pipeline = pipeline
        self.fluid = fluid
        self.grid = grid
        self.instruments = list(instruments)
        self.policy = policy
        self.poll_interval = float(poll_interval)
        self.drive = drive
        self.substeps = int(substeps)
        self.staleness_limit = int(staleness_limit)
        self.locate_window_polls = int(locate_window_polls)
        # Fast leaks alarm before the flow split settles, so first estimates
        # are biased by pre-leak polls; size/location are recomputed this
        # many polls after declaration from purely post-alarm data.
        self.refine_after_polls = int(refine_after_polls)
        self.fallback_temperature = float(fallback_temperature)

        settings = SolverSettings(
            dt=self.poll_interval / self.substeps, theta=theta, newton_tol=newton_tol
        )
        self.solver = PipeFlowSolver(pipeline, fluid, grid, settings)

        self._classify_instruments()
        self._state = None
        self._hold: Dict[str, float] = {}
        self._stale: Dict[str, int] = {}
        self._smooth: Dict[str, deque] = {
            i.id: deque(maxlen=policy.smoothing_polls) for i in self.indicators
        }
        self.records: List[RtmPollRecord] = []
        self._verdict: Optional[LeakVerdict] = None
        self._declared_at_poll: Optional[int] = None
        self._refined = False

    # ------------------------------------------------------------ wiring

    def _classify_instruments(self):
        L = self.pipeline.length
        at = lambda pos, kind: [
            i for i in self.instruments
            if i.kind == kind and math.isclose(i.position, pos, rel_tol=0, abs_tol=1e-6)
        ]
        boundary_kind = "pressure" if self.drive == "pressure" else "flow"
        b_in, b_out = at(0.0, boundary_kind), at(L, boundary_kind)
        if not b_in or not b_out:
            raise ConfigurationError(
                f"{self.drive}-driven detection needs a {boundary_kind} instrument "
                "at each end of the line"
            )
        self.boundary_in, self.boundary_out = b_in[0], b_out[0]
        boundary_ids = {self.boundary_in.id, self.boundary_out.id}

        self.indicators = [
            i for i in self.instruments
            if i.kind in ("flow", "pressure") and i.id not in boundary_ids
        ]
        if not self.indicators:
            raise ConfigurationError("no indicator instruments remain beyond the boundaries")
        self._node_of = {i.id: self.grid.node_at(i.position) for i in self.indicators}

        temps = at(0.0, "temperature")
        self.temperature_instrument = temps[0] if temps else None

        # End flow meters for sizing (in flow drive these are the boundaries).
        self.flow_in_meter, self.flow_out_meter = end_flow_meters(self.instruments, L)

        if self.drive == "flow":
            anchors = [i for i in self.instruments if i.kind == "pressure"
                       and (math.isclose(i.position, L, abs_tol=1e-6)
                            or math.isclose(i.position, 0.0, abs_tol=1e-6))]
            anchors.sort(key=lambda i: -i.position)  # prefer the outlet anchor
            self.pressure_anchor = anchors[0] if anchors else None
            if self.pressure_anchor is None:
                raise ConfigurationError(
                    "flow-driven detection needs an end pressure instrument to "
                    "anchor the shadow model's initial state"
                )

    # ------------------------------------------------------------ stepping

    @property
    def verdict(self) -> LeakVerdict:
        return self._verdict if self._verdict is not None else LeakVerdict(declared=False)

    def report(self):
        """The ``rtm`` section of a run report: the verdict and, from the
        poll log, the poll counts and each poll's normalized indicators."""
        v = self.verdict
        return {
            "enabled": True,
            "declared": v.declared,
            "declared_time": v.declared_time,
            "size_estimate": v.size_estimate,
            "location_estimate": v.location_estimate,
            "location_ambiguous": v.location_ambiguous,
            "notes": list(v.notes),
            "polls": len(self.records),
            "unavailable_polls": sum(1 for r in self.records if not r.available),
            "alarm_condition_polls": [r.poll_time for r in self.records if r.alarm_condition],
            "indicator_trace": [
                {
                    "t": r.poll_time,
                    "available": r.available,
                    "normalized": dict(r.discrepancy.normalized) if r.discrepancy else {},
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
        if (
            self._declared_at_poll is not None
            and not self._refined
            and len(self.records) - self._declared_at_poll >= self.refine_after_polls > 0
        ):
            self._refine()
        return rec

    def _try_initialize(self, frame):
        t = frame.poll_time
        needed = [self.boundary_in, self.boundary_out]
        if self.drive == "flow":
            needed.append(self.pressure_anchor)
        values = {i.id: frame.good_value(i.id) for i in needed}
        if any(v is None for v in values.values()):
            return self._unavailable(frame, "awaiting good boundary readings")

        t_bc = self._temperature_value(frame)
        self._state = self.solver.steady_state(self._steady_bc(values, t_bc), t=t)
        for i in needed:
            self._hold[i.id] = values[i.id]
            self._stale[i.id] = 0
        if self.temperature_instrument is not None:
            self._hold[self.temperature_instrument.id] = t_bc
        return self._evaluate(frame, linepack(self._state, self.pipeline))

    def _steady_bc(self, values, t_bc):
        """Constant boundary conditions from one value per boundary
        instrument id; in flow drive the pressure anchor's value replaces
        the flow at its end."""
        const = lambda inst: TimeSeries.constant(values[inst.id])
        if self.drive == "pressure":
            inlet = BoundaryLeg("pressure", const(self.boundary_in))
            outlet = BoundaryLeg("pressure", const(self.boundary_out))
        elif self.pressure_anchor.position > self.pipeline.length / 2:
            inlet = BoundaryLeg("flow", const(self.boundary_in))
            outlet = BoundaryLeg("pressure", const(self.pressure_anchor))
        else:
            inlet = BoundaryLeg("pressure", const(self.pressure_anchor))
            outlet = BoundaryLeg("flow", const(self.boundary_out))
        return BoundaryConditions(inlet=inlet, outlet=outlet,
                                  temperature=TimeSeries.constant(t_bc))

    def _step(self, frame):
        t0, t1 = self._state.t, frame.poll_time
        prev = dict(self._hold)
        for inst in (self.boundary_in, self.boundary_out):
            v = frame.good_value(inst.id)
            if v is not None:
                self._hold[inst.id] = v
                self._stale[inst.id] = 0
            else:
                self._stale[inst.id] += 1
        suspended = any(self._stale[i.id] > self.staleness_limit
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
        dt_sub = (t1 - t0) / self.substeps
        for _ in range(self.substeps):
            step = self.solver.advance(self._state, bc, dt=dt_sub)
            self._state = step.state
        lp = step.ledger.linepack_end
        if suspended:
            return self._unavailable(frame, "boundary readings stale; detection suspended",
                                     shadow_linepack=lp)
        return self._evaluate(frame, lp)

    def _temperature_value(self, frame):
        if self.temperature_instrument is not None:
            v = frame.good_value(self.temperature_instrument.id)
            if v is not None:
                return v
            held = self._hold.get(self.temperature_instrument.id)
            if held is not None:
                return held
        return self.fallback_temperature

    # ------------------------------------------------------------ evaluation

    def _evaluate(self, frame, lp):
        t = frame.poll_time
        P_mod, Q_mod = modeled_profile(self._state, self.pipeline)
        delta, smoothed, normalized = {}, {}, {}
        measured = {}
        for ind in self.indicators:
            v = frame.good_value(ind.id)
            measured[ind.id] = v
            if v is None:
                delta[ind.id] = smoothed[ind.id] = normalized[ind.id] = None
                continue
            node = self._node_of[ind.id]
            model = Q_mod[node] if ind.kind == "flow" else P_mod[node]
            d = float(v - model)
            delta[ind.id] = d
            buf = self._smooth[ind.id]
            buf.append(d)
            if len(buf) == buf.maxlen:
                # np.mean's own sum, without its wrapper: the same bits
                sm = float(np.array(buf).sum()) / len(buf)
                smoothed[ind.id] = sm
                normalized[ind.id] = sm / self.policy.threshold_for(ind.kind)
            else:
                smoothed[ind.id] = normalized[ind.id] = None

        # Unavailable polls carry no indicators, so they never count.
        recent = [r.discrepancy.normalized if r.available else {}
                  for r in self.records[-self.policy.consecutive_required:]]
        alarm_now = vote(recent + [normalized], self.policy)
        disc = Discrepancy(poll_time=t, delta=delta, smoothed=smoothed, normalized=normalized)

        rec = RtmPollRecord(
            poll_time=t,
            available=True,
            reason=None,
            discrepancy=disc,
            alarm_condition=alarm_now,
            shadow_linepack=lp,
            measured_flow_in=self._meter_value(frame, self.flow_in_meter),
            measured_flow_out=self._meter_value(frame, self.flow_out_meter),
            boundary_values={i.id: self._hold[i.id]
                             for i in (self.boundary_in, self.boundary_out)},
            measured=measured,
        )
        if alarm_now and self._verdict is None:
            self._declare(rec)
        return rec

    def _unavailable(self, frame, reason, shadow_linepack=None):
        return RtmPollRecord(
            poll_time=frame.poll_time,
            available=False,
            reason=reason,
            discrepancy=None,
            alarm_condition=False,
            shadow_linepack=shadow_linepack,
            measured_flow_in=self._meter_value(frame, self.flow_in_meter),
            measured_flow_out=self._meter_value(frame, self.flow_out_meter),
            boundary_values=dict(self._hold),
            measured={},
        )

    def _meter_value(self, frame, meter):
        return None if meter is None else frame.good_value(meter.id)

    # ------------------------------------------------------------ sizing

    def size_leak(self, window=None):
        """Leak rate from the end-flow imbalance less the modeled linepack
        rate, averaged over the last M (voting) polls.

        Returns (size, note); size is None when both end meters were never
        simultaneously good in the window (the alarm itself stands).
        """
        M = self.policy.consecutive_required if window is None else window
        samples = []
        for k in range(max(len(self.records) - M, 0), len(self.records)):
            rec = self.records[k]
            if rec.measured_flow_in is None or rec.measured_flow_out is None:
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
            samples.append(rec.measured_flow_in - rec.measured_flow_out - rate)
        if not samples:
            return None, "size unavailable: end flow readings or linepack rate missing"
        return float(np.mean(samples)), None

    # ------------------------------------------------------------ location

    def locate_leak(self, size, window=None) -> Optional[LocationScan]:
        """Steady-superposition scan: the node where the sized leak best
        explains the averaged measurements, by least squared normalized
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
        window = self.locate_window_polls if window is None else window
        recs = [r for r in self.records[-window:] if r.available]
        if not recs:
            return None

        values = {iid: float(np.mean([r.boundary_values[iid] for r in recs]))
                  for iid in recs[-1].boundary_values}
        meas_avg = {}
        for ind in self.indicators:
            vals = [r.measured.get(ind.id) for r in recs]
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
        t_bc = self.fallback_temperature
        if self.temperature_instrument is not None:
            t_bc = self._hold.get(self.temperature_instrument.id, t_bc)
        bc = self._steady_bc(values, t_bc)

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
            P_mod, Q_mod = modeled_profile(st, self.pipeline)
            return np.array([Q_mod[k] if ind.kind == "flow" else P_mod[k]
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
        notes = []
        size, note = self.size_leak()
        if note:
            notes.append(note)
        location, ambiguous = None, False
        if size is not None and size > 0:
            scan = self.locate_leak(size)
            if scan is not None:
                location, ambiguous = scan.position, scan.ambiguous
                if ambiguous:
                    notes.append("location ambiguous: flat residual landscape")
            else:
                notes.append("location unavailable")
        else:
            notes.append("location skipped: no usable size estimate")
        self._verdict = LeakVerdict(
            declared=True,
            declared_time=rec.poll_time,
            size_estimate=size,
            location_estimate=location,
            location_ambiguous=ambiguous,
            notes=tuple(notes),
        )
        self._declared_at_poll = len(self.records) + 1  # the record being built

    def _refine(self):
        """Recompute size/location from post-declaration polls.

        Estimates made at declaration mix pre-leak and settling-transient
        data; once ``refine_after_polls`` post-alarm polls exist they are
        replaced by estimates over that window.  Declaration time is not
        touched.  Failed refinements keep the original estimates.
        """
        self._refined = True
        window = self.refine_after_polls
        size, note = self.size_leak(window=window)
        if size is None or size <= 0:
            return
        v = self._verdict
        notes = list(v.notes) + [f"estimates refined {window} polls after declaration"]
        location, ambiguous = v.location_estimate, v.location_ambiguous
        scan = self.locate_leak(size, window=window)
        if scan is not None:
            location, ambiguous = scan.position, scan.ambiguous
        self._verdict = LeakVerdict(
            declared=True,
            declared_time=v.declared_time,
            size_estimate=size,
            location_estimate=location,
            location_ambiguous=ambiguous,
            notes=tuple(notes),
        )
