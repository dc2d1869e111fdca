"""Scenario loading, validation, and the end-to-end run loop.

A scenario is one YAML document describing the line, the fluid, the
instruments, boundary schedules, leak events, noise, and detector
policies.  ``run_scenario`` marches the plant model, synthesizes
telemetry, feeds every enabled detector, and returns a RunReport with
ground truth echoed next to each detector's verdict.  Runs are
deterministic for a fixed seed.

A run has two sides, as a pipeline's field and control room do.  The
field side marches the plant, samples its SCADA and filters each frame;
it reads nothing the detectors make.  The control-room side takes the
frames and feeds them to the RTM and line-balance detectors.  When fork
is available and the process may use two or more CPUs, the field side
runs in a forked child that streams its frames over a one-way pipe, so
the two sides overlap; otherwise it runs in the same process.  The
report is the same bytes either way; ``taskset -c 0`` keeps a run in one
process.  A frame is a named tuple of columns (see ``TelemetryFrame``):
its time, its instrument ids, its values and its qualities, so a batch of
frames pickles as a few flat tuples a frame, and pickle sends each id and
quality string once a batch.

What the control-room side keeps of a poll is a few hundred bytes of plain
numbers: the frame's columns copied into a ``TelemetryLog`` and the RTM's
row of the poll written into the columns of an ``RtmTrace``.  No detector
keeps a frame past its poll.  ``report.json``'s indicator trace,
``telemetry.csv`` and ``rtm_trace.csv`` are formatted from those columns
directly, to the bytes json and the csv module would write, a bounded
number of polls at a time.
"""

import contextlib
import copy
import hashlib
import itertools
import json
import math
import os
import pickle
import sys
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

import yaml

from . import acoustic as ac
from .availability import availability_report, compare_configurations, reference_chains
from .balance import BalanceDetector
from .errors import (SOLVER_FAILURES, ConfigurationError, InfeasibleScenarioError,
                     ParameterDomainError, SolverError)
from .fluid import FluidModel, GasEos, LiquidEos, assert_finite_eos, assert_off_critical
from .hydraulics import (
    BoundaryConditions,
    BoundaryLeg,
    GridState,
    LeakEvent,
    PipeFlowSolver,
    TimeSeries,
    linepack,
)
from .network import InstrumentPlacement, PipelineModel, Segment, discretize, end_flow_meters
from .rtm import IndicatorTrace, RtmDetector, RtmTrace, VotingPolicy, combined_verdict
from .telemetry import (NoiseSpec, PlausibilityLimits, TelemetryFrame, TelemetryLog,
                        instrument_nodes, noiseless_reading, plausibility_filter, sample)

__all__ = ["Scenario", "RunReport", "load_scenario", "scenario_from_dict", "start_plant",
           "run_scenario", "sweep"]

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

# The ``default`` that tells _Path.number a key is absent, not null.
_ABSENT = object()
# The largest count a scenario may give: the largest whole number the float
# that _Path.integer reads it through holds exactly.
_MAX_COUNT = 2**53


class _Path:
    """Field-path bookkeeping so config errors name the offending entry.

    This is the one place where a scenario value becomes a float and is
    checked: :meth:`real` converts every number the parsers read,
    :meth:`text` and :meth:`flag` check every string and boolean, and
    :meth:`build` makes a model's own checks name the field it was built
    from.  ``units`` maps a field dimension to the (factor, offset) that
    takes a value written in the scenario's declared units to SI.  ``read``
    is the set of key paths the parsers have asked for, shared by the whole
    tree, so keys nobody read can be reported.
    """

    def __init__(self, raw, path="", units=None, read=None):
        self.raw = raw
        self.path = path
        self.units = units
        self.read = set() if read is None else read

    def child(self, key, default=None, required=False):
        path = self._join(key)
        self.read.add(path)
        if self.raw is None:
            if required:
                raise ConfigurationError(f"{path}: required field is missing")
            return _Path(default, path, self.units, self.read)
        if not isinstance(self.raw, dict):
            raise ConfigurationError(f"{self.path or '<root>'}: expected a mapping")
        if key not in self.raw:
            if required:
                raise ConfigurationError(f"{path}: required field is missing")
            return _Path(default, path, self.units, self.read)
        return _Path(self.raw[key], path, self.units, self.read)

    def text(self, key, default=None, required=False):
        """Field ``key`` as a string, or ``default`` when the key is absent."""
        node = self.child(key, _ABSENT, required)
        if node.raw is _ABSENT:
            return default
        if not isinstance(node.raw, str):
            node.error(f"expected text, got {node.raw!r}")
        return node.raw

    def flag(self, key, default):
        """Field ``key`` as a boolean, or ``default`` when the key is absent."""
        node = self.child(key, _ABSENT)
        if node.raw is _ABSENT:
            return default
        if not isinstance(node.raw, bool):
            node.error(f"expected true or false, got {node.raw!r}")
        return node.raw

    def items(self):
        if self.raw is None:
            return []
        if not isinstance(self.raw, (list, tuple)):
            raise ConfigurationError(f"{self.path}: expected a list")
        return [_Path(v, f"{self.path}[{i}]", self.units, self.read)
                for i, v in enumerate(self.raw)]

    def number(self, key, default=None, required=False, dim=None, above=None):
        """Field ``key`` as :meth:`real`, or ``default`` (SI, never converted
        or checked) when the key is absent."""
        node = self.child(key, _ABSENT, required)
        return default if node.raw is _ABSENT else node.real(dim, above)

    def integer(self, key, default=None, least=None):
        """Field ``key`` as an int: a whole number, at least ``least`` and
        at most ``_MAX_COUNT``."""
        v = self.number(key)
        if v is None:
            return default
        node = self.child(key)
        if not v.is_integer():
            node.error(f"expected a whole number, got {node.raw!r}")
        if least is not None and v < least:
            node.error(f"must be >= {least}, got {node.raw!r}")
        if v > _MAX_COUNT:
            node.error(f"must be <= {_MAX_COUNT}, got {node.raw!r}")
        return int(v)

    def pair(self, dims):
        """This ``[x, y]`` entry as SI floats; ``dims`` names each one's dimension."""
        if not isinstance(self.raw, (list, tuple)) or len(self.raw) != 2:
            self.error(f"expected a [number, number] pair, got {self.raw!r}")
        return tuple(item.real(dim) for item, dim in zip(self.items(), dims))

    def real(self, dim=None, above=None):
        """This entry as a finite float in SI, greater than ``above`` if given.

        ``dim`` is one of ``pressure``, ``length``, ``1/length``,
        ``temperature`` (absolute, converted with its offset),
        ``temperature difference`` (no offset) or None (always SI).  A
        numeric string counts (PyYAML reads ``5.0e6`` as one); null, a
        boolean, NaN and infinity do not.
        """
        try:
            v = float(self.raw)
        except (TypeError, ValueError, OverflowError):
            v = math.nan
        if dim is not None:
            factor, offset = self.units[dim]
            v = v * factor + offset
        if isinstance(self.raw, bool) or not math.isfinite(v):
            self.error(f"expected a number, got {self.raw!r}")
        if above is not None and not v > above:
            self.error(f"must be > {above}, got {v}")
        return v

    def multiple_of(self, key, value, other, step):
        """Fail at field ``key`` unless its ``value`` is a whole multiple (one
        or more) of ``step``, the value of the field at path ``other``."""
        ratio = value / step
        if not (math.isfinite(ratio) and ratio >= 0.5 and abs(ratio - round(ratio)) <= 1e-9):
            self.child(key).error(f"{value} must be a multiple of {other} {step}")

    def _join(self, key):
        return f"{self.path}.{key}" if self.path else str(key)

    def error(self, message):
        raise ConfigurationError(f"{self.path or '<root>'}: {message}")

    def build(self, factory, **kwargs):
        """``factory(**kwargs)``; a ConfigurationError or ParameterDomainError
        it raises becomes a ConfigurationError naming this path, as does an
        OverflowError: a value too large for the model's arithmetic (a gas
        ``y`` of 1e30 overflows ``T**y``)."""
        try:
            return factory(**kwargs)
        except (ConfigurationError, ParameterDomainError) as exc:
            self.error(str(exc))
        except OverflowError as exc:
            detail = exc.args[-1] if exc.args else "overflow"
            self.error(f"a value is too large for the model's arithmetic ({detail})")


def _key_paths(raw, path):
    """Every mapping key under ``raw`` as a field path, in document order."""
    if isinstance(raw, dict):
        for key, value in raw.items():
            sub = f"{path}.{key}" if path else str(key)
            yield sub
            yield from _key_paths(value, sub)
    elif isinstance(raw, (list, tuple)):
        for i, value in enumerate(raw):
            yield from _key_paths(value, f"{path}[{i}]")


def _resolve_units(node):
    """Conversion to SI for each field dimension, from the ``units`` section."""
    si = {}
    for dim, table in _UNITS.items():
        unit = node.text(dim, next(iter(table)))
        if unit not in table:
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
    dt: float                      # the plant's step
    target_dx: float
    plausibility: Dict[str, PlausibilityLimits]
    rtm: Optional[dict]            # RtmDetector keyword options, None when disabled
    balance: Optional[dict]        # BalanceDetector keyword arguments
    acoustic: Optional[dict]       # acoustic.report keyword arguments
    availability: Optional[dict]


# Polls of a per-poll output, and entries of any other long report list,
# that a writer formats per piece: what it holds of them at once.
_JSON_CHUNK = 64


def _long(value):
    """Whether ``value`` is an indicator trace, a sequence longer than
    ``_JSON_CHUNK``, or a mapping that holds one."""
    if isinstance(value, dict):
        return any(map(_long, value.values()))
    return isinstance(value, IndicatorTrace) or (
        isinstance(value, Sequence) and not isinstance(value, str) and len(value) > _JSON_CHUNK)


def _json_pieces(value, depth=0):
    """``json.dumps(value, indent=2, sort_keys=True)``, in pieces, for a
    value nested ``depth`` levels deep, where an indicator trace counts as
    a list.  An indicator trace formats itself from its columns, and any
    other sequence longer than ``_JSON_CHUNK`` is encoded ``_JSON_CHUNK``
    entries per call, so neither all its entries nor all the pieces of
    either exist at once; the mappings that hold one are opened here, and
    the rest goes whole to ``json.dumps``.  A JSON text holds no raw
    newline, so nesting is the indent added after each one."""
    pad = "\n" + "  " * depth
    is_dict = isinstance(value, dict)
    if isinstance(value, IndicatorTrace):
        yield from value.json_pieces(depth, _JSON_CHUNK)
    elif not _long(value) or is_dict and not all(isinstance(k, str) for k in value):
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)
    elif is_dict:
        sep = "{"
        for key in sorted(value):
            yield f"{sep}{pad}  {json.dumps(key)}: "
            yield from _json_pieces(value[key], depth + 1)
            sep = ","
        yield pad + "}"
    else:
        sep = "["
        for start in range(0, len(value), _JSON_CHUNK):
            chunk = json.dumps(value[start:start + _JSON_CHUNK], indent=2, sort_keys=True)
            yield sep + chunk[1:-2].replace("\n", pad)   # without its "[" and "\n]"
            sep = ","
        yield pad + "]"


@dataclass
class RunReport:
    """A run's report sections, and what its tables are written from: the
    frames' readings (``telemetry``), the RTM's per-poll trace
    (``rtm_trace``, None with the RTM off) and, with ``dump_states``, every
    plant state."""

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
    telemetry: TelemetryLog = field(default_factory=TelemetryLog, repr=False)
    rtm_trace: Optional[RtmTrace] = field(default=None, repr=False)
    states: list = field(default_factory=list, repr=False)

    def to_dict(self):
        """The whole report, as report.json holds it."""
        doc = self._sections()
        if "indicator_trace" in self.rtm:
            doc["rtm"] = {**self.rtm, "indicator_trace": list(self.rtm["indicator_trace"])}
        return doc

    def _sections(self):
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

    def json_pieces(self):
        """:meth:`to_json`'s text, in pieces of bounded length."""
        return _json_pieces(self._sections())

    def to_json(self):
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``, made
        without listing the indicator trace."""
        return "".join(self.json_pieces())


# --------------------------------------------------------------------- loading

# libyaml's parser where PyYAML was built with it: the same documents, in
# about an eighth of the time of the pure-Python one.
_FAST_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _UniqueKeys:
    """A loader's mapping constructor that refuses a mapping repeating a
    key, which YAML would otherwise read as the last one silently
    overriding the first.  A key merged in with ``<<`` may be overridden."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep)


class _FastUniqueLoader(_UniqueKeys, _FAST_LOADER):
    pass


class _UniqueLoader(_UniqueKeys, yaml.SafeLoader):
    pass


def _parse_yaml(blob):
    """``yaml.safe_load(blob)``, parsed by libyaml where PyYAML has it, except
    that a mapping may not repeat a key.  A document libyaml refuses is read
    again by the pure-Python parser, so an error names its problem in that
    parser's words."""
    try:
        return yaml.load(blob, Loader=_FastUniqueLoader)
    except yaml.YAMLError:
        return yaml.load(blob, Loader=_UniqueLoader)


def read_yaml_mapping(path):
    """The mapping the YAML file at ``path`` holds, and the file's bytes.

    A file that cannot be read, is not valid YAML or holds anything but a
    mapping raises a one-line ConfigurationError that starts with ``path``.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ConfigurationError(f"{path}: cannot read the file ({e.strerror})") from None
    try:
        raw = _parse_yaml(blob)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = "" if mark is None else f" at line {mark.line + 1}, column {mark.column + 1}"
        problem = getattr(e, "problem", None) or " ".join(str(e).split())
        raise ConfigurationError(f"{path}: not valid YAML{where}: {problem}") from None
    if not isinstance(raw, dict):
        got = "nothing" if raw is None else type(raw).__name__
        raise ConfigurationError(f"{path}: expected a mapping, got {got}")
    return raw, blob


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario YAML file."""
    raw, blob = read_yaml_mapping(path)
    return scenario_from_dict(raw, config_hash=hashlib.sha256(blob).hexdigest())


def scenario_from_dict(raw, config_hash=None) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigurationError("scenario must be a mapping")
    if config_hash is None:
        canonical = json.dumps(raw, sort_keys=True, default=str).encode()
        config_hash = hashlib.sha256(canonical).hexdigest()
    top = _Path(raw)
    root = _Path(raw, units=_resolve_units(top.child("units")), read=top.read)

    name = root.text("name", "scenario")
    if "".join(name.splitlines()) != name:   # it heads every table's provenance line
        raise ConfigurationError(f"name: must be one line of text, got {name!r}")
    seed = root.integer("seed", 0, least=0)
    horizon = root.number("horizon", required=True, above=0)
    tele = root.child("telemetry")
    poll_interval = tele.number("poll_interval", 5.0, above=0)
    root.multiple_of("horizon", horizon, "telemetry.poll_interval", poll_interval)

    fluid, sound_speed = _parse_fluid(root.child("fluid", required=True))
    pipeline = _parse_pipeline(root.child("pipeline", required=True))
    instruments = _parse_instruments(root.child("instruments", required=True), pipeline)
    bc = _parse_boundaries(root.child("boundaries", required=True))
    leaks = _parse_leaks(root.child("leaks"), pipeline, horizon)
    plaus = _parse_plausibility(tele.child("plausibility"))

    sol = root.child("solver")
    dt = sol.number("dt", min(1.0, poll_interval), above=0)
    target_dx = sol.number("target_dx", pipeline.length / 100.0, dim="length", above=0)
    tele.multiple_of("poll_interval", poll_interval, "solver.dt", dt)

    # Reject operation near a declared critical point over the BC envelope,
    # and an EOS that is not finite there.
    for leg in (bc.inlet, bc.outlet):
        if leg.kind == "pressure":
            for p in leg.series.values.tolist():
                for t in bc.temperature.values.tolist():
                    root.child("boundaries").build(assert_off_critical, eos=fluid.eos, P=p, T=t)
                    root.child("fluid").build(assert_finite_eos, eos=fluid.eos, P=p, T=t)

    rtm_cfg = _parse_rtm(root.child("rtm"), instruments)
    balance_cfg = _parse_balance(root.child("balance"), instruments, rtm_cfg, pipeline.length,
                                 poll_interval)
    acoustic_cfg = _parse_acoustic(root.child("acoustic"), sound_speed, pipeline)
    avail_cfg = _parse_availability(root.child("availability"))

    unread = next((p for p in _key_paths(raw, "") if p not in root.read), None)
    if unread is not None:
        raise ConfigurationError(f"{unread}: unknown key (no field of that name is read here)")
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
        dt=dt,
        target_dx=target_dx,
        plausibility=plaus,
        rtm=rtm_cfg,
        balance=balance_cfg,
        acoustic=acoustic_cfg,
        availability=avail_cfg,
    )


def _parse_fluid(node):
    """The fluid model, and ``fluid.sound_speed``: the acoustic channel's
    default wave speed, which no model reads."""
    kind = node.text("kind", required=True)
    if kind not in ("liquid", "gas"):
        node.child("kind").error(f"must be 'liquid' or 'gas', got {kind!r}")
    if kind == "liquid":
        eos = node.build(
            LiquidEos,
            rho0=node.number("rho0", required=True),
            P0=node.number("P0", 0.0, dim="pressure"),
            T0=node.number("T0", 288.15, dim="temperature"),
            B=node.number("bulk_modulus", required=True, dim="pressure"),
            **_given(alpha=node.number("alpha")),
        )
    else:
        zr = node.child("z_reference")
        # k is fitted from the reference point; without one the gas is ideal
        shared = dict(
            R=node.number("R", required=True),
            critical_pressure=node.number("critical_pressure", dim="pressure"),
            critical_temperature=node.number("critical_temperature", dim="temperature"),
            **_given(y=node.number("y")),
        )
        if zr.raw is not None:
            eos = node.build(
                GasEos.from_z_reference,
                P_ref=zr.number("P", required=True, dim="pressure"),
                T_ref=zr.number("T", required=True, dim="temperature"),
                Z_ref=zr.number("Z", required=True),
                **shared,
            )
        else:
            eos = node.build(GasEos, **shared)
    c = node.number("specific_heat", required=True)
    sound_speed = node.number("sound_speed", required=True, above=0)
    return node.build(FluidModel, eos=eos, c=c), sound_speed


def _parse_pipeline(node):
    elevation = node.child("elevation")
    profile = None
    if elevation.raw is not None:
        profile = tuple(pt.pair(("length", None)) for pt in elevation.items())
    segments = tuple(
        seg.build(
            Segment,
            start=seg.number("start", required=True, dim="length"),
            end=seg.number("end", required=True, dim="length"),
            friction_factor=seg.number("friction_factor"),
            U=seg.number("U"),
        )
        for seg in node.child("segments").items()
    )
    return node.build(
        PipelineModel,
        length=node.number("length", required=True, dim="length"),
        diameter=node.number("diameter", required=True),
        friction_factor=node.number("friction_factor", required=True),
        elevation_profile=profile,
        segments=segments,
        **_given(U=node.number("U"),
                 Tg=node.number("ground_temperature", dim="temperature")),
    )


def _parse_instruments(node, pipeline):
    instruments = []
    for item in node.items():
        kind = item.text("kind", required=True)
        _, diff = _READING_DIMS.get(kind, (None, None))
        inst = item.build(
            InstrumentPlacement,
            id=item.text("id", required=True),
            kind=kind,
            position=item.number("position", required=True, dim="length"),
            **_given(noise_sigma=item.number("sigma", dim=diff),
                     bias=item.number("bias", dim=diff),
                     dropout_prob=item.number("dropout")),
        )
        if not 0.0 <= inst.position <= pipeline.length:
            item.error(f"position {inst.position} outside [0, {pipeline.length}]")
        if any(inst.id == other.id for other in instruments):
            item.error(f"instrument id {inst.id!r} is used twice")
        instruments.append(inst)
    return instruments


def _series_from(node, dim):
    series = node.child("series")
    if series.raw is None:
        return node.build(TimeSeries.constant,
                          value=node.number("value", required=True, dim=dim))
    pts = [pt.pair((None, dim)) for pt in series.items()]
    # TimeSeries holds its end values constant outside the sampled
    # range, so a series need not reach the horizon.
    return series.build(TimeSeries, times=[t for t, _ in pts], values=[v for _, v in pts])


def _parse_boundaries(node):
    def leg(end):
        child = node.child(end, required=True)
        kind = child.text("kind", required=True)
        return child.build(BoundaryLeg, kind=kind,
                           series=_series_from(child, "pressure" if kind == "pressure" else None))

    bc = node.build(
        BoundaryConditions,
        inlet=leg("inlet"),
        outlet=leg("outlet"),
        temperature=_series_from(node.child("temperature", required=True), "temperature"),
        **_given(temperature_end=node.text("temperature_end")),
    )
    # A run starts from the steady state, which a pressure at one end pins.
    if not bc.has_pressure_anchor:
        node.error("the steady start needs a pressure boundary at one end; both hold flow")
    return bc


def _parse_leaks(node, pipeline, horizon):
    leaks = []
    for item in node.items():
        leak = item.build(
            LeakEvent,
            position=item.number("position", required=True, dim="length"),
            # the run starts from a leak-free steady state
            start_time=item.number("start_time", required=True, above=0),
            mass_rate=item.number("mass_rate", required=True),
        )
        if not 0.0 < leak.position < pipeline.length:
            item.error("leak position must be strictly inside the line")
        if leak.start_time >= horizon:
            item.error(f"leak start_time {leak.start_time} is beyond the horizon {horizon}")
        leaks.append(leak)
    return leaks


def _parse_plausibility(node):
    limits = {}
    if node.raw is None:
        return limits
    for kind in InstrumentPlacement.KINDS:
        child = node.child(kind)
        if child.raw is None:
            continue
        flat = child.integer("flatline_polls", least=2)
        value, diff = _READING_DIMS.get(kind, (None, None))
        limits[kind] = child.build(PlausibilityLimits, flatline_polls=flat, **_given(
            min_value=child.number("min", dim=value),
            max_value=child.number("max", dim=value),
            # 0 or less would flag every reading that moves
            max_rate=child.number("max_rate", dim=diff, above=0),
        ))
    return limits


def _parse_rtm(node, instruments):
    if _disabled(node):
        return None
    policy = node.build(VotingPolicy.default_for, instruments=instruments, **_given(
        flow_threshold=node.number("flow_threshold"),
        pressure_threshold=node.number("pressure_threshold", dim="pressure"),
        consecutive_required=node.integer("consecutive_polls", least=1),
        min_indicators=node.integer("min_indicators", least=1),
        smoothing_polls=node.integer("smoothing_polls", least=1),
    ))
    drive = node.text("drive")
    if drive not in (None, "pressure", "flow"):
        node.child("drive").error(f"must be 'pressure' or 'flow', got {drive!r}")
    # Keys the scenario leaves out take RtmDetector's defaults.
    return {"policy": policy, **_given(
        drive=drive,
        refine_after_polls=node.integer("refine_after_polls", least=0),
    )}


def _disabled(node):
    """True when an optional section is absent or has ``enabled: false``;
    the keys of a disabled section are kept but not checked."""
    if node.raw is None:
        return True
    if node.flag("enabled", True):
        return False
    node.read.update(_key_paths(node.raw, node.path))
    return True


def _given(**fields):
    return {k: v for k, v in fields.items() if v is not None}


def _parse_balance(node, instruments, rtm_cfg, length, poll_interval):
    if _disabled(node):
        return None
    flow_in, flow_out = end_flow_meters(instruments, length)
    if flow_in is None or flow_out is None:
        node.error("line balance needs a flow meter in each half of the line")
    mode = node.text("mode", "model")
    if mode not in ("model", "simple"):
        node.child("mode").error(f"must be 'model' or 'simple', got {mode!r}")
    if mode == "model" and rtm_cfg is None:
        node.error("balance mode 'model' needs the RTM shadow model enabled")
    # A flow-driven shadow's inventory change is the metered imbalance by
    # construction, so every model-mode window would read about zero.
    if mode == "model" and rtm_cfg.get("drive") == "flow":
        node.child("mode").error("'model' needs a pressure-driven RTM shadow model; "
                                 "with rtm.drive 'flow' use 'simple'")
    # A window ends at a poll, so any other length would be rounded up to one.
    window = node.number("window", 3600.0, above=0)
    node.multiple_of("window", window, "telemetry.poll_interval", poll_interval)
    return {
        "flow_in_id": flow_in.id,
        "flow_out_id": flow_out.id,
        "window_duration": window,
        "threshold": node.number("threshold", required=True, above=0),
        "mode": mode,
    }


def _parse_acoustic(node, sound_speed, pipeline):
    if _disabled(node):
        return None
    sensors = []
    for item in node.child("sensors", required=True).items():
        sensor = item.build(
            ac.AcousticSensor,
            id=item.text("id", required=True),
            position=item.number("position", required=True, dim="length"),
            trigger_threshold=item.number("threshold", required=True, dim="pressure"),
            **_given(timestamp_resolution=item.number("resolution")),
        )
        if not 0.0 <= sensor.position <= pipeline.length:
            item.error("sensor position outside the line")
        # a localization pair needs two named sensors at two positions
        for other in sensors:
            if sensor.id == other.id:
                item.error(f"sensor id {sensor.id!r} is used twice")
            if sensor.position == other.position:
                item.error(f"sensor {sensor.id} shares position {sensor.position} m "
                           f"with sensor {other.id}")
        sensors.append(sensor)
    wave = node.build(
        ac.WaveModel,
        speed=node.number("speed", sound_speed),
        **_given(attenuation=node.number("attenuation", dim="1/length")),
    )
    amplitude = node.number("initial_amplitude", required=True, dim="pressure", above=0)
    return {"sensors": sensors, "wave": wave, "initial_amplitude": amplitude}


def _parse_availability(node):
    if node.raw is None:
        return None
    presets = node.child("per_unit").build(
        reference_chains, **_given(availabilities=node.number("per_unit")))
    chains = []
    for item in node.child("chains", list(presets)).items():
        if not isinstance(item.raw, str) or item.raw not in presets:
            item.error(f"unknown availability chain preset {item.raw!r}")
        chains.append(presets[item.raw])
    return {"chains": chains}


# --------------------------------------------------------------------- running

def start_plant(scenario: Scenario):
    """The run's grid, the plant solver, its steady start at t=0, and the
    RTM and balance detectors (None when disabled); raises what building
    them raises for a scenario the run would reject.

    A ConfigurationError here names the field it comes from, as a parser
    error does: ``solver.target_dx`` for a grid that cannot hold its fixed
    points, ``fluid`` for an EOS that gives a non-positive density at the
    steady start, and ``rtm`` for a detector the instruments cannot drive.
    A steady start the solver cannot solve (values far outside any real
    line's, such as a friction factor of 1e30) is an
    InfeasibleScenarioError that says so and names the sections that set
    that problem.

    Every instrument must read its steady start inside its kind's
    plausibility window: one that does not would have each of its readings
    dropped, so the scenario is taken to mix units (a ConfigurationError
    naming the instrument's entry, ``instruments[k]``)."""
    s = scenario
    at = lambda path: _Path(None, path)
    # The acoustic channel is kinematic and reads no grid: its sensors are not snapped.
    grid = at("solver.target_dx").build(
        discretize, pipeline=s.pipeline, target_dx=s.target_dx,
        points=[i.position for i in s.instruments] + [lk.position for lk in s.leaks])
    plant = PipeFlowSolver(s.pipeline, s.fluid, grid)
    try:
        state = at("fluid").build(plant.steady_state, bc=s.bc, t=0.0)
    except SolverError as e:
        raise InfeasibleScenarioError(
            "the steady state at t=0 that the pipeline, fluid and boundaries sections "
            f"set could not be solved: {e}") from e
    nodes = instrument_nodes(grid.node_positions, s.instruments)
    for k, (inst, node) in enumerate(zip(s.instruments, nodes)):
        lim = s.plausibility.get(inst.kind)
        value = noiseless_reading(state, inst.kind, node, s.pipeline)
        if lim is not None and not lim.min_value <= value <= lim.max_value:
            at(f"instruments[{k}]").error(
                f"instrument {inst.id} reads {value:.6g} at the steady start, outside its "
                f"plausibility window [{lim.min_value:g}, {lim.max_value:g}]: are the "
                "scenario's units mixed up?")
    rtm_det = bal_det = None
    if s.rtm:
        rtm_det = at("rtm").build(RtmDetector, pipeline=s.pipeline, fluid=s.fluid, grid=grid,
                                  instruments=s.instruments,
                                  fallback_temperature=s.bc.temperature.at(0.0),
                                  temperature_end=s.bc.temperature_end, **s.rtm)
    if s.balance:
        bal_det = BalanceDetector(**s.balance)
    return grid, plant, state, rtm_det, bal_det


# Polls per message from a forked field side to the detectors.
_BATCH_POLLS = 16


class _Poll(NamedTuple):
    """One record of a run's field side.  ``ledger`` is (largest step
    mass-ledger residual, the same relative to linepack, linepack of the
    latest plant state) so far; ``states`` holds the plant states since the
    previous record, with ``dump_states`` only.  The closing record has no
    frame and carries the plant's solver failure, if any."""

    frame: Optional[TelemetryFrame]
    ledger: tuple
    states: list
    failure: Optional[str] = None


def _field_side(s, grid, plant, state, dump_states):
    """March the plant, sample its SCADA and filter each frame: one _Poll
    per poll, then the closing _Poll.  Reads nothing the detectors make."""
    nodes = instrument_nodes(grid.node_positions, s.instruments)
    noise = NoiseSpec(s.seed)
    memory = {}  # the plausibility filter's, per instrument
    kinds = {inst.id: inst.kind for inst in s.instruments}

    def poll(st):
        frame = sample(st, s.instruments, noise, pipeline=s.pipeline, nodes=nodes)
        return plausibility_filter(frame, memory, s.plausibility, kinds)

    steps_per_poll = round(s.poll_interval / s.dt)
    n_polls = int(round(s.horizon / s.poll_interval))
    max_residual = max_relative = 0.0
    lp = linepack(state, s.pipeline)
    yield _Poll(poll(state), (max_residual, max_relative, lp), [state] if dump_states else [])
    states = []
    failure = None
    try:
        for _ in range(n_polls):
            for _ in range(steps_per_poll):
                result = plant.advance(state, s.bc, s.dt, leaks=s.leaks)
                state = result.state
                res = abs(result.ledger.residual)
                lp = result.ledger.linepack_end
                max_residual = max(max_residual, res)
                max_relative = max(max_relative, res / max(lp, 1e-12))
                if dump_states:
                    states.append(state)
            yield _Poll(poll(state), (max_residual, max_relative, lp), states)
            states = []
    except SOLVER_FAILURES as e:
        failure = f"{type(e).__name__}: {e}"
    yield _Poll(None, (max_residual, max_relative, lp), states, failure)


def _may_fork():
    """Whether a run may put its field side in a forked process: the
    platform forks, this process may use two or more CPUs, it runs no
    other thread (a lock another thread holds at the fork stays held in
    the child), and it is not a daemonic multiprocessing worker (which may
    start no process)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    if len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1:
        return False
    mp = sys.modules.get("multiprocessing")
    return mp is None or not mp.current_process().daemon


def _forked(records):
    """Iterate ``records`` in a forked child, which streams them here in
    batches over a one-way pipe.  An exception the child raised is raised
    here, after the records before it.  Closing this generator early stops
    the child; the child is joined whenever this generator ends."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_produce, args=(records, reader, writer), daemon=True)
    try:
        child.start()
    except OSError:  # no process to be had: run the field side here
        reader.close()
        writer.close()
        yield from records
        return
    writer.close()
    finished = False
    try:
        while not finished:
            try:
                batch = reader.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"the field-side process exited with code {child.exitcode}") from None
            for rec in batch:
                if isinstance(rec, BaseException):
                    raise rec
                finished = rec.frame is None
                yield rec
    finally:
        if not finished:
            child.terminate()
        reader.close()
        child.join()


def _produce(records, reader, writer):
    """Body of the forked child: send ``records`` in batches of
    _BATCH_POLLS, ending with the exception they raised, if any; exit
    quietly once the parent stops reading.  The first record goes alone,
    so the detectors' steady start overlaps the making of the next batch."""
    import signal

    reader.close()
    # Ctrl-C reaches the whole process group; the parent stops this child.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    batch, size = [], 1
    try:
        for rec in _with_exception(records):
            batch.append(rec)
            if len(batch) == size:
                writer.send(batch)
                batch, size = [], _BATCH_POLLS
        writer.send(batch)
    except BrokenPipeError:
        pass


def _with_exception(records):
    """``records``, then, if they raise, the exception as the last item:
    itself if it survives pickling, else a RuntimeError naming it."""
    try:
        yield from records
    except Exception as e:
        try:
            pickle.loads(pickle.dumps(e))
        except Exception:
            e = RuntimeError(f"{type(e).__name__}: {e}")
        yield e


def run_scenario(scenario: Scenario, dump_states=False) -> RunReport:
    """March the plant, feed the detectors, and collect their report sections;
    with ``dump_states`` the report also keeps the plant state of every step.

    The field side (:func:`_field_side`) runs in a forked process when
    :func:`_may_fork` allows, else in this one; the report is the same bytes
    either way."""
    s = scenario
    grid, plant, state, rtm_det, bal_det = start_plant(s)
    records = _field_side(s, grid, plant, state, dump_states)
    telemetry = TelemetryLog()
    states: List[GridState] = []
    solver_failure = None

    def observe(rec):
        states.extend(rec.states)
        telemetry.append(rec.frame)
        lp_est = None
        if rtm_det is not None:
            rtm_det.observe(rec.frame)
            lp_est = rtm_det.trace.linepack[-1]
        if bal_det is not None:
            bal_det.observe(rec.frame, lp_est)

    with contextlib.closing(_forked(records) if _may_fork() else records) as feed:
        rec = next(feed)
        observe(rec)  # a failure at the first poll is the set-up's and propagates
        try:
            for rec in feed:
                if rec.frame is None:
                    states.extend(rec.states)
                    solver_failure = rec.failure
                    break
                observe(rec)
        except SOLVER_FAILURES as e:
            solver_failure = f"{type(e).__name__}: {e}"
    max_ledger_residual, max_ledger_relative, final_linepack = rec.ledger

    rtm_report = rtm_det.report() if rtm_det else {"enabled": False}
    balance_report = bal_det.report() if bal_det else {"enabled": False}
    # The acoustic channel is kinematic, from ground truth, up to the last poll.
    acoustic_report = (ac.report(s.leaks, **s.acoustic, until=telemetry.times[-1])
                       if s.acoustic
                       else {"enabled": False, "events": [], "detections": []})
    combined = {}
    if rtm_det is not None:
        combined = combined_verdict(rtm_det.verdict, balance_report.get("first_alarm_time"))

    avail_rows = None
    if s.availability:
        chains = s.availability["chains"]
        ranks = {r["name"]: r["rank"] for r in compare_configurations(chains)}
        avail_rows = [{**availability_report(c), "rank": ranks[c.name]} for c in chains]

    return RunReport(
        scenario_name=s.name,
        config_hash=s.config_hash,
        seed=s.seed,
        truth={"leaks": [
            {"position": lk.position, "start_time": lk.start_time, "mass_rate": lk.mass_rate}
            for lk in s.leaks
        ]},
        rtm=rtm_report,
        balance=balance_report,
        acoustic=acoustic_report,
        combined=combined,
        metrics=_metrics(s, rtm_report, balance_report, acoustic_report),
        mass_ledger={
            "max_step_residual_kg": max_ledger_residual,
            "max_step_residual_relative": max_ledger_relative,
            "final_linepack_kg": final_linepack,
        },
        run={
            "horizon": s.horizon,
            "poll_interval": s.poll_interval,
            "solver_dt": s.dt,
            "node_count": grid.node_count,
            "polls": len(telemetry),
            "solver_failure": solver_failure,
        },
        availability=avail_rows,
        telemetry=telemetry,
        rtm_trace=rtm_det.trace if rtm_det else None,
        states=states,
    )


def _metrics(s, rtm_report, balance_report, acoustic_report):
    metrics = {}
    if not s.leaks:
        return metrics
    leak = s.leaks[0]
    # An alarm raised before the leak opened did not detect it: no latency,
    # and its estimates measure nothing against the leak's truth.
    if rtm_report.get("declared") and rtm_report["declared_time"] >= leak.start_time:
        metrics["rtm_detection_latency"] = rtm_report["declared_time"] - leak.start_time
        if rtm_report.get("size_estimate") is not None:
            metrics["rtm_size_error"] = abs(rtm_report["size_estimate"] - leak.mass_rate)
        if rtm_report.get("location_estimate") is not None:
            metrics["rtm_location_error"] = abs(rtm_report["location_estimate"] - leak.position)
    t_balance = balance_report.get("first_alarm_time")
    if t_balance is not None and t_balance >= leak.start_time:
        metrics["balance_detection_latency"] = t_balance - leak.start_time
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
    non-empty value lists.  A path that does not fit the template raises a
    ConfigurationError naming it before any cell runs.  One result row per
    cell; failures are recorded per row and the sweep continues.
    """
    for key, values in grid_spec.items():
        if not isinstance(key, str):
            raise ConfigurationError(f"{key}: a sweep path must be dotted text")
        if not isinstance(values, list) or not values:
            raise ConfigurationError(
                f"{key}: sweep values must be a non-empty list, got {values!r}")
    keys = sorted(grid_spec.keys())
    value_lists = [grid_spec[k] for k in keys]
    first = copy.deepcopy(base_raw)
    for key, values in zip(keys, value_lists):
        _set_path(first, key, values[0])
    rows = []
    for idx, combo in enumerate(itertools.product(*value_lists)):
        row = {"cell": idx}
        row.update({k: v for k, v in zip(keys, combo)})
        try:
            raw = copy.deepcopy(base_raw)
            for key, value in zip(keys, combo):
                _set_path(raw, key, value)
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
    """Set ``value`` at the ``dotted`` path of the config dict ``raw``,
    adding the mappings a path names and the template lacks.  A list entry
    must exist already: a path that indexes a list with anything but one
    of its indices, or that steps into a plain value, raises a
    ConfigurationError naming the path."""
    parts = dotted.split(".")
    node = raw
    for depth, part in enumerate(parts):
        here = ".".join(parts[:depth])
        if isinstance(node, list):
            try:
                part = int(part)
                node[part]
            except (ValueError, IndexError):
                raise ConfigurationError(
                    f"{dotted}: {here} is a list of {len(node)}, and {part!r} is not "
                    "one of its indices") from None
        elif not isinstance(node, dict):
            raise ConfigurationError(f"{dotted}: {here} is {node!r}, not a mapping or a list")
        if depth == len(parts) - 1:
            node[part] = value
        else:
            node = node.setdefault(part, {}) if isinstance(node, dict) else node[part]
