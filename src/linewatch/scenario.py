"""Scenario loading, validation, and the end-to-end run loop.

A scenario is one YAML document describing the line, the fluid, the
instruments, boundary schedules, leak events, noise, and detector
policies.  ``run_scenario`` marches the plant model, synthesizes
telemetry, feeds every enabled detector, and returns a RunReport with
ground truth echoed next to each detector's verdict.  Runs are
deterministic for a fixed seed.
"""

import copy
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import yaml

from . import acoustic as ac
from .availability import availability_report, compare_configurations, reference_chains
from .balance import BalanceDetector
from .errors import (ConfigurationError, InfeasibleScenarioError,
                     InfeasibleStateError, SolverError)
from .fluid import FluidModel, GasEos, LiquidEos, assert_off_critical
from .hydraulics import (
    BoundaryConditions,
    BoundaryLeg,
    GridState,
    LeakEvent,
    PipeFlowSolver,
    SolverSettings,
    TimeSeries,
    linepack,
)
from .network import InstrumentPlacement, PipelineModel, Segment, discretize
from .rtm import RtmDetector, VotingPolicy, combined_verdict
from .telemetry import NoiseSpec, PlausibilityLimits, plausibility_filter, sample

__all__ = ["Scenario", "RunReport", "load_scenario", "scenario_from_dict", "run_scenario", "sweep"]

# SI (factor, offset) of each unit a scenario may declare under ``units:``;
# the first unit of each dimension is the SI one.
_UNITS = {
    "pressure": {"Pa": (1.0, 0.0), "kPa": (1e3, 0.0), "MPa": (1e6, 0.0),
                 "bar": (1e5, 0.0), "psi": (6894.757293168, 0.0)},
    "length": {"m": (1.0, 0.0), "km": (1000.0, 0.0)},
    "temperature": {"K": (1.0, 0.0), "degC": (1.0, 273.15)},
}

# Dimension of an instrument kind's readings, as (absolute value, difference).
_READING_DIMS = {
    "pressure": ("pressure", "pressure"),
    "temperature": ("temperature", "temperature difference"),
}


class _Path:
    """Field-path bookkeeping so config errors name the offending entry.

    ``units`` maps a field dimension to the (factor, offset) that takes a
    value written in the scenario's declared units to SI.
    """

    def __init__(self, raw, path="", units=None):
        self.raw = raw
        self.path = path
        self.units = units

    def child(self, key, default=None, required=False):
        if self.raw is None:
            if required:
                raise ConfigurationError(f"{self._join(key)}: required field is missing")
            return _Path(default, self._join(key), self.units)
        if not isinstance(self.raw, dict):
            raise ConfigurationError(f"{self.path or '<root>'}: expected a mapping")
        if key not in self.raw:
            if required:
                raise ConfigurationError(f"{self._join(key)}: required field is missing")
            return _Path(default, self._join(key), self.units)
        return _Path(self.raw[key], self._join(key), self.units)

    def get(self, key, default=None):
        child = self.child(key, default)
        return child.raw if child.raw is not None else default

    def items(self):
        if self.raw is None:
            return []
        if not isinstance(self.raw, (list, tuple)):
            raise ConfigurationError(f"{self.path}: expected a list")
        return [_Path(v, f"{self.path}[{i}]", self.units) for i, v in enumerate(self.raw)]

    def number(self, key, default=None, required=False, dim=None):
        """Field ``key`` as a float in SI; ``dim`` names its dimension.

        ``dim`` is one of ``pressure``, ``length``, ``1/length``,
        ``temperature`` (absolute, converted with its offset),
        ``temperature difference`` (no offset) or None (always SI).
        Defaults are SI and never converted.
        """
        v = self.child(key, None, required).raw
        if v is None:
            return default
        try:
            v = float(v)
        except (TypeError, ValueError):
            raise ConfigurationError(f"{self._join(key)}: expected a number, got {v!r}")
        return self.to_si(v, dim)

    def to_si(self, value, dim):
        if dim is None:
            return value
        factor, offset = self.units[dim]
        return value * factor + offset

    def _join(self, key):
        return f"{self.path}.{key}" if self.path else str(key)

    def error(self, message):
        raise ConfigurationError(f"{self.path or '<root>'}: {message}")


def _resolve_units(node):
    """Conversion to SI for each field dimension, from the ``units`` section."""
    si = {}
    for dim, table in _UNITS.items():
        unit = node.get(dim, next(iter(table)))
        if not isinstance(unit, str) or unit not in table:
            node.child(dim).error(f"unknown unit {unit!r} (expected one of {', '.join(table)})")
        si[dim] = table[unit]
    for key in node.raw or {}:
        if key not in _UNITS:
            node.child(key).error(f"not a unit dimension (expected one of {', '.join(_UNITS)})")
    si["1/length"] = (1.0 / si["length"][0], 0.0)
    si["temperature difference"] = (si["temperature"][0], 0.0)
    return si


@dataclass
class Scenario:
    name: str
    raw: dict
    config_hash: str
    fluid: FluidModel
    pipeline: PipelineModel
    instruments: List[InstrumentPlacement]
    bc: BoundaryConditions
    leaks: List[LeakEvent]
    seed: int
    horizon: float
    poll_interval: float
    plant_settings: SolverSettings
    target_dx: float
    plausibility: Dict[str, PlausibilityLimits]
    rtm: Optional[dict]            # detector options, None when disabled
    balance: Optional[dict]
    acoustic: Optional[dict]
    availability: Optional[dict]
    dump_states: bool
    state_stride: int


@dataclass
class RunReport:
    scenario_name: str
    config_hash: str
    seed: int
    truth: dict
    rtm: dict
    balance: dict
    acoustic: dict
    combined: dict
    metrics: dict
    mass_ledger: dict
    run: dict
    availability: Optional[list] = None
    frames: list = field(default_factory=list, repr=False)
    rtm_records: list = field(default_factory=list, repr=False)
    states: list = field(default_factory=list, repr=False)

    def to_dict(self):
        return {
            "scenario": self.scenario_name,
            "config_sha256": self.config_hash,
            "seed": self.seed,
            "truth": self.truth,
            "rtm": self.rtm,
            "balance": self.balance,
            "acoustic": self.acoustic,
            "combined": self.combined,
            "metrics": self.metrics,
            "mass_ledger": self.mass_ledger,
            "availability": self.availability,
            "run": self.run,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# --------------------------------------------------------------------- loading

def load_scenario(path) -> Scenario:
    """Parse and validate a scenario YAML file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        raw = yaml.safe_load(blob)
    except yaml.YAMLError as e:
        raise ConfigurationError(f"{path}: not valid YAML ({e})")
    return scenario_from_dict(raw, config_hash=hashlib.sha256(blob).hexdigest())


def scenario_from_dict(raw, config_hash=None) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigurationError("scenario must be a mapping")
    if config_hash is None:
        canonical = json.dumps(raw, sort_keys=True, default=str).encode()
        config_hash = hashlib.sha256(canonical).hexdigest()
    root = _Path(raw, units=_resolve_units(_Path(raw).child("units")))

    name = str(root.get("name", "scenario"))
    seed = int(root.number("seed", 0))
    horizon = root.number("horizon", required=True)
    if horizon <= 0:
        root.error("horizon must be > 0")

    fluid = _parse_fluid(root.child("fluid", required=True))
    pipeline = _parse_pipeline(root.child("pipeline", required=True))
    instruments = _parse_instruments(root.child("instruments", required=True), pipeline)
    bc = _parse_boundaries(root.child("boundaries", required=True))
    leaks = _parse_leaks(root.child("leaks"), pipeline, horizon)

    tele = root.child("telemetry")
    poll_interval = tele.number("poll_interval", 5.0)
    if poll_interval <= 0:
        tele.error("poll_interval must be > 0")
    plaus = _parse_plausibility(tele.child("plausibility"))

    sol = root.child("solver")
    dt = sol.number("dt", min(1.0, poll_interval))
    target_dx = sol.number("target_dx", pipeline.length / 100.0, dim="length")
    plant_settings = SolverSettings(
        dt=dt,
        theta=sol.number("theta", 0.6),
        newton_tol=sol.number("newton_tol", 1e-10),
        newton_max_iter=int(sol.number("newton_max_iter", 30)),
    )
    if abs(poll_interval / dt - round(poll_interval / dt)) > 1e-9:
        sol.error(f"poll_interval {poll_interval} must be a multiple of dt {dt}")

    # Reject operation near a declared critical point over the BC envelope.
    for leg in (bc.inlet, bc.outlet):
        if leg.kind == "pressure":
            for p in leg.series.values:
                for t in bc.temperature.values:
                    assert_off_critical(fluid, float(p), float(t))

    rtm_cfg = _parse_rtm(root.child("rtm"), instruments)
    balance_cfg = _parse_balance(root.child("balance"), instruments, rtm_cfg)
    acoustic_cfg = _parse_acoustic(root.child("acoustic"), fluid, pipeline)
    avail_cfg = _parse_availability(root.child("availability"))

    out = root.child("output")
    return Scenario(
        name=name,
        raw=copy.deepcopy(raw),
        config_hash=config_hash,
        fluid=fluid,
        pipeline=pipeline,
        instruments=instruments,
        bc=bc,
        leaks=leaks,
        seed=seed,
        horizon=horizon,
        poll_interval=poll_interval,
        plant_settings=plant_settings,
        target_dx=target_dx,
        plausibility=plaus,
        rtm=rtm_cfg,
        balance=balance_cfg,
        acoustic=acoustic_cfg,
        availability=avail_cfg,
        dump_states=bool(out.get("dump_states", False)),
        state_stride=int(out.number("state_stride", 1)),
    )


def _parse_fluid(node):
    kind = node.get("kind")
    if kind not in ("liquid", "gas"):
        node.error("fluid.kind must be 'liquid' or 'gas'")
    if kind == "liquid":
        eos = LiquidEos(
            rho0=node.number("rho0", required=True),
            P0=node.number("P0", 0.0, dim="pressure"),
            T0=node.number("T0", 288.15, dim="temperature"),
            B=node.number("bulk_modulus", required=True, dim="pressure"),
            alpha=node.number("alpha", 0.0),
        )
    else:
        zr = node.child("z_reference")
        crit = dict(
            critical_pressure=node.number("critical_pressure", dim="pressure"),
            critical_temperature=node.number("critical_temperature", dim="temperature"),
        )
        if zr.raw is not None:
            eos = GasEos.from_z_reference(
                R=node.number("R", required=True),
                P_ref=zr.number("P", required=True, dim="pressure"),
                T_ref=zr.number("T", required=True, dim="temperature"),
                Z_ref=zr.number("Z", required=True),
                y=node.number("y", 1.0),
                **crit,
            )
        else:
            eos = GasEos(
                R=node.number("R", required=True),
                y=node.number("y", 1.0),
                z_mode=node.get("z_mode", "ideal"),
                k=node.number("k", 0.0),
                **crit,
            )
    return FluidModel(
        eos=eos,
        c=node.number("specific_heat", required=True),
        sound_speed_hint=node.number("sound_speed", required=True),
    )


def _parse_pipeline(node):
    elevation = node.get("elevation")
    if elevation is not None:
        elevation = tuple((node.to_si(float(x), "length"), float(h)) for x, h in elevation)
    segments = tuple(
        Segment(
            start=seg.number("start", required=True, dim="length"),
            end=seg.number("end", required=True, dim="length"),
            friction_factor=seg.number("friction_factor"),
            U=seg.number("U"),
            diameter=seg.number("diameter"),
        )
        for seg in node.child("segments").items()
    )
    return PipelineModel(
        length=node.number("length", required=True, dim="length"),
        diameter=node.number("diameter", required=True),
        friction_factor=node.number("friction_factor", required=True),
        elevation_profile=elevation,
        U=node.number("U", 0.0),
        Tg=node.number("ground_temperature", 288.15, dim="temperature"),
        segments=segments,
    )


def _parse_instruments(node, pipeline):
    instruments = []
    for item in node.items():
        kind = str(item.child("kind", required=True).raw)
        _, diff = _READING_DIMS.get(kind, (None, None))
        inst = InstrumentPlacement(
            id=str(item.child("id", required=True).raw),
            kind=kind,
            position=item.number("position", required=True, dim="length"),
            noise_sigma=item.number("sigma", 0.0, dim=diff),
            bias=item.number("bias", 0.0, dim=diff),
            dropout_prob=item.number("dropout", 0.0),
        )
        if not 0.0 <= inst.position <= pipeline.length:
            item.error(f"position {inst.position} outside [0, {pipeline.length}]")
        instruments.append(inst)
    ids = [i.id for i in instruments]
    if len(ids) != len(set(ids)):
        node.error("instrument ids must be unique")
    return instruments


def _series_from(node, dim):
    if node.get("series") is not None:
        pts = node.get("series")
        # TimeSeries holds its end values constant outside the sampled
        # range, so a series need not reach the horizon.
        return TimeSeries([float(t) for t, _ in pts], [node.to_si(float(v), dim) for _, v in pts])
    value = node.number("value", required=True, dim=dim)
    return TimeSeries.constant(value)


def _parse_boundaries(node):
    def leg(end):
        child = node.child(end, required=True)
        kind = child.get("kind")
        if kind not in ("pressure", "flow"):
            child.error("kind must be 'pressure' or 'flow'")
        return BoundaryLeg(kind, _series_from(child, "pressure" if kind == "pressure" else None))

    temp_node = node.child("temperature", required=True)
    return BoundaryConditions(
        inlet=leg("inlet"),
        outlet=leg("outlet"),
        temperature=_series_from(temp_node, "temperature"),
        temperature_end=node.get("temperature_end", "inlet"),
    )


def _parse_leaks(node, pipeline, horizon):
    leaks = []
    for item in node.items():
        leak = LeakEvent(
            position=item.number("position", required=True, dim="length"),
            start_time=item.number("start_time", required=True),
            mass_rate=item.number("mass_rate", required=True),
        )
        if not 0.0 < leak.position < pipeline.length:
            item.error("leak position must be strictly inside the line")
        if leak.start_time <= 0:
            item.error("leak start_time must be > 0 (the run starts from a leak-free steady state)")
        if leak.start_time >= horizon:
            item.error(f"leak start_time {leak.start_time} is beyond the horizon {horizon}")
        leaks.append(leak)
    return leaks


def _parse_plausibility(node):
    limits = {}
    if node.raw is None:
        return limits
    for kind in ("flow", "pressure", "temperature"):
        child = node.child(kind)
        if child.raw is None:
            continue
        flat = child.number("flatline_polls")
        value, diff = _READING_DIMS.get(kind, (None, None))
        limits[kind] = PlausibilityLimits(
            min_value=child.number("min", -np.inf, dim=value),
            max_value=child.number("max", np.inf, dim=value),
            max_rate=child.number("max_rate", np.inf, dim=diff),
            flatline_polls=int(flat) if flat else None,
        )
    return limits


def _parse_rtm(node, instruments):
    if node.raw is None or not node.get("enabled", True):
        return None
    policy = VotingPolicy.default_for(
        instruments,
        **{
            k: v
            for k, v in {
                "flow_threshold": node.number("flow_threshold"),
                "pressure_threshold": node.number("pressure_threshold", dim="pressure"),
                "consecutive_required": _maybe_int(node.number("consecutive_polls")),
                "min_indicators": _maybe_int(node.number("min_indicators")),
                "smoothing_polls": _maybe_int(node.number("smoothing_polls")),
            }.items()
            if v is not None
        },
    )
    drive = node.get("drive", "pressure")
    if drive not in ("pressure", "flow"):
        node.error("rtm.drive must be 'pressure' or 'flow'")
    return {
        "policy": policy,
        "drive": drive,
        "substeps": int(node.number("substeps", 1)),
        "staleness_limit": int(node.number("staleness_polls", 3)),
        "locate_window_polls": int(node.number("locate_window_polls", 12)),
        "refine_after_polls": int(node.number("refine_after_polls", 24)),
        "theta": node.number("theta", 0.6),
        "newton_tol": node.number("newton_tol", 1e-10),
    }


def _maybe_int(v):
    return None if v is None else int(v)


def _parse_balance(node, instruments, rtm_cfg):
    if node.raw is None or not node.get("enabled", True):
        return None
    flows = sorted((i for i in instruments if i.kind == "flow"), key=lambda i: i.position)
    if len(flows) < 2:
        node.error("line balance needs flow meters at both ends")
    mode = node.get("mode", "model")
    if mode == "model" and rtm_cfg is None:
        node.error("balance mode 'model' needs the RTM shadow model enabled")
    return {
        "flow_in_id": flows[0].id,
        "flow_out_id": flows[-1].id,
        "window": node.number("window", 3600.0),
        "threshold": node.number("threshold", required=True),
        "mode": mode,
    }


def _parse_acoustic(node, fluid, pipeline):
    if node.raw is None or not node.get("enabled", True):
        return None
    sensors = []
    for item in node.child("sensors", required=True).items():
        sensors.append(
            ac.AcousticSensor(
                id=str(item.child("id", required=True).raw),
                position=item.number("position", required=True, dim="length"),
                trigger_threshold=item.number("threshold", required=True, dim="pressure"),
                timestamp_resolution=item.number("resolution", 0.0),
            )
        )
        if not 0.0 <= sensors[-1].position <= pipeline.length:
            item.error("sensor position outside the line")
    wave = ac.WaveModel(
        speed=node.number("speed", fluid.sound_speed_hint),
        attenuation=node.number("attenuation", 0.0, dim="1/length"),
    )
    return {
        "sensors": sensors,
        "wave": wave,
        "initial_amplitude": node.number("initial_amplitude", required=True, dim="pressure"),
    }


def _parse_availability(node):
    if node.raw is None:
        return None
    per_unit = node.get("per_unit", 0.99)
    chain_names = node.get("chains", ["mass_flow", "pressure", "acoustic"])
    presets = reference_chains(per_unit)
    chains = []
    for cn in chain_names:
        if cn not in presets:
            node.error(f"unknown availability chain preset {cn!r}")
        chains.append(presets[cn])
    return {"chains": chains}


# --------------------------------------------------------------------- running

def run_scenario(scenario: Scenario) -> RunReport:
    """March the plant, feed the detectors, and assemble the report."""
    s = scenario
    extra = [lk.position for lk in s.leaks]
    if s.acoustic:
        extra += [sen.position for sen in s.acoustic["sensors"]]
    scada = [i for i in s.instruments if i.kind != "acoustic"]
    grid = discretize(s.pipeline, s.target_dx, scada, extra_points=extra)

    plant = PipeFlowSolver(s.pipeline, s.fluid, grid, s.plant_settings)
    state = plant.steady_state(s.bc, t=0.0)
    noise = NoiseSpec(s.seed)

    rtm_det = None
    if s.rtm:
        cfg = dict(s.rtm)
        policy = cfg.pop("policy")
        rtm_det = RtmDetector(
            s.pipeline, s.fluid, grid, scada, policy,
            poll_interval=s.poll_interval,
            fallback_temperature=s.bc.temperature.at(0.0),
            drive=cfg.pop("drive"),
            **cfg,
        )
    bal_det = None
    if s.balance:
        b = s.balance
        bal_det = BalanceDetector(
            b["flow_in_id"], b["flow_out_id"],
            window_duration=b["window"], threshold=b["threshold"], mode=b["mode"],
        )

    steps_per_poll = round(s.poll_interval / s.plant_settings.dt)
    n_polls = int(round(s.horizon / s.poll_interval))
    history: List = []
    frames: List = []
    states: List[GridState] = []
    max_ledger_residual = 0.0
    max_ledger_relative = 0.0
    solver_failure = None

    def do_poll(st):
        frame = sample(st, scada, noise, st.t, pipeline=s.pipeline)
        frame = plausibility_filter(frame, history, s.plausibility, scada)
        history.append(frame)
        if len(history) > 64:
            del history[0]
        frames.append(frame)
        lp_est = None
        if rtm_det is not None:
            rec = rtm_det.observe(frame)
            lp_est = rec.shadow_linepack
        if bal_det is not None:
            bal_det.observe(frame, lp_est)

    do_poll(state)
    if s.dump_states:
        states.append(state)
    try:
        for k in range(1, n_polls + 1):
            for i in range(steps_per_poll):
                result = plant.advance(state, s.bc, leaks=s.leaks)
                state = result.state
                res = abs(result.ledger.residual)
                max_ledger_residual = max(max_ledger_residual, res)
                max_ledger_relative = max(
                    max_ledger_relative, res / max(result.ledger.linepack_end, 1e-12)
                )
                if s.dump_states and ((k - 1) * steps_per_poll + i + 1) % s.state_stride == 0:
                    states.append(state)
            do_poll(state)
    except (SolverError, InfeasibleScenarioError, InfeasibleStateError) as e:
        solver_failure = f"{type(e).__name__}: {e}"

    # --- acoustic channel (kinematic, from ground truth) ---
    acoustic_report = {"enabled": bool(s.acoustic), "events": [], "detections": []}
    if s.acoustic and s.leaks:
        for leak in s.leaks:
            recs = ac.propagate(leak, s.acoustic["initial_amplitude"],
                                s.acoustic["sensors"], s.acoustic["wave"])
            latency = ac.detection_latency(leak, s.acoustic["initial_amplitude"],
                                           s.acoustic["sensors"], s.acoustic["wave"])
            pair = ac.triggered_pair(recs)
            loc = None
            if pair is not None:
                a, b = pair
                est = ac.localize(a.position, a.arrival_time, b.position, b.arrival_time,
                                  s.acoustic["wave"].speed)
                loc = {
                    "position": est.position,
                    "out_of_bracket": est.out_of_bracket,
                    "sensors": [a.sensor_id, b.sensor_id],
                }
            acoustic_report["events"].extend(
                {
                    "leak_position": leak.position,
                    "sensor": r.sensor_id,
                    "sensor_position": r.position,
                    "arrival_time": r.arrival_time,
                    "amplitude": r.amplitude,
                    "triggered": r.triggered,
                }
                for r in recs
            )
            acoustic_report["detections"].append(
                {"leak_position": leak.position, "latency": latency, "localization": loc}
            )

    # --- assemble ---
    truth = {
        "leaks": [
            {"position": lk.position, "start_time": lk.start_time, "mass_rate": lk.mass_rate}
            for lk in s.leaks
        ]
    }

    rtm_report = {"enabled": rtm_det is not None}
    if rtm_det is not None:
        v = rtm_det.verdict
        rtm_report.update(
            declared=v.declared,
            declared_time=v.declared_time,
            size_estimate=v.size_estimate,
            location_estimate=v.location_estimate,
            location_ambiguous=v.location_ambiguous,
            notes=list(v.notes),
            polls=len(rtm_det.records),
            unavailable_polls=sum(1 for r in rtm_det.records if not r.available),
            alarm_condition_polls=[r.poll_time for r in rtm_det.records if r.alarm_condition],
            indicator_trace=[
                {
                    "t": r.poll_time,
                    "available": r.available,
                    "normalized": dict(r.discrepancy.normalized) if r.discrepancy else {},
                    "alarm": r.alarm_condition,
                }
                for r in rtm_det.records
            ],
        )

    balance_report = {"enabled": bal_det is not None}
    if bal_det is not None:
        balance_report.update(
            first_alarm_time=bal_det.first_alarm_time,
            windows=[
                {
                    "start": w.start_time,
                    "end": w.end_time,
                    "v_in": w.v_in,
                    "v_out": w.v_out,
                    "delta_inventory": w.delta_inventory,
                    "imbalance": w.imbalance,
                    "indeterminate": w.indeterminate,
                    "alarm": alarmed,
                }
                for w, alarmed in zip(bal_det.windows, bal_det.alarms)
            ],
        )

    combined = {}
    if rtm_det is not None:
        combined = combined_verdict(
            rtm_det.verdict, bal_det.first_alarm_time if bal_det else None
        )

    metrics = _metrics(s, rtm_report, balance_report, acoustic_report)

    avail_rows = None
    if s.availability:
        avail_rows = [availability_report(c) for c in s.availability["chains"]]
        ranking = compare_configurations(s.availability["chains"])
        by_name = {r["name"]: r["rank"] for r in ranking}
        for row in avail_rows:
            row["rank"] = by_name[row["name"]]

    report = RunReport(
        scenario_name=s.name,
        config_hash=s.config_hash,
        seed=s.seed,
        truth=truth,
        rtm=rtm_report,
        balance=balance_report,
        acoustic=acoustic_report,
        combined=combined,
        metrics=metrics,
        mass_ledger={
            "max_step_residual_kg": max_ledger_residual,
            "max_step_residual_relative": max_ledger_relative,
            "final_linepack_kg": linepack(state, s.pipeline),
        },
        run={
            "horizon": s.horizon,
            "poll_interval": s.poll_interval,
            "solver_dt": s.plant_settings.dt,
            "node_count": grid.node_count,
            "polls": len(frames),
            "solver_failure": solver_failure,
        },
        availability=avail_rows,
        frames=frames,
        rtm_records=rtm_det.records if rtm_det else [],
        states=states,
    )
    return report


def _metrics(s, rtm_report, balance_report, acoustic_report):
    metrics = {}
    if not s.leaks:
        return metrics
    leak = s.leaks[0]
    if rtm_report.get("declared"):
        metrics["rtm_detection_latency"] = rtm_report["declared_time"] - leak.start_time
        if rtm_report.get("size_estimate") is not None:
            metrics["rtm_size_error"] = abs(rtm_report["size_estimate"] - leak.mass_rate)
        if rtm_report.get("location_estimate") is not None:
            metrics["rtm_location_error"] = abs(rtm_report["location_estimate"] - leak.position)
    if balance_report.get("first_alarm_time") is not None:
        metrics["balance_detection_latency"] = balance_report["first_alarm_time"] - leak.start_time
    for det in acoustic_report.get("detections", []):
        if det["leak_position"] == leak.position:
            if det["latency"] is not None:
                metrics["acoustic_detection_latency"] = det["latency"]
            if det["localization"] is not None:
                metrics["acoustic_location_error"] = abs(
                    det["localization"]["position"] - leak.position
                )
    return metrics


# --------------------------------------------------------------------- sweep

def sweep(base_raw: dict, grid_spec: Dict[str, list]) -> List[dict]:
    """Cartesian product of overrides applied to a base scenario dict.

    ``grid_spec`` maps dotted config paths (e.g. ``leaks.0.mass_rate``) to
    value lists.  One result row per cell; failures are recorded per row
    and the sweep continues.
    """
    keys = sorted(grid_spec.keys())
    value_lists = [grid_spec[k] for k in keys]
    rows = []
    for idx, combo in enumerate(itertools.product(*value_lists)):
        raw = copy.deepcopy(base_raw)
        for key, value in zip(keys, combo):
            _set_path(raw, key, value)
        row = {"cell": idx}
        row.update({k: v for k, v in zip(keys, combo)})
        try:
            scenario = scenario_from_dict(raw)
            report = run_scenario(scenario)
            row.update(
                rtm_declared=report.rtm.get("declared"),
                rtm_declared_time=report.rtm.get("declared_time"),
                rtm_size_estimate=report.rtm.get("size_estimate"),
                rtm_location_estimate=report.rtm.get("location_estimate"),
                balance_alarm_time=report.balance.get("first_alarm_time"),
                error=None,
            )
            row.update({f"metric_{k}": v for k, v in report.metrics.items()})
        except Exception as e:  # cell failures must not kill the sweep
            row.update(error=f"{type(e).__name__}: {e}")
        rows.append(row)
    return rows


def _set_path(raw, dotted, value):
    parts = dotted.split(".")
    node = raw
    for part in parts[:-1]:
        node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
    last = parts[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value
