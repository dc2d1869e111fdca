import collections
import contextlib
import copy
import csv
import importlib.util
import inspect
import io
import itertools
import json
import math
import multiprocessing
import os
import re
import signal
import threading
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import linewatch.cli as cli
import linewatch.hydraulics as hydraulics
import linewatch.scenario as scenario_module
from conftest import (flow_drive_cfg, frame_of, readings_of, set_noise_scale, standard_config,
                      trace_columns)
from linewatch.cli import main
from linewatch.errors import ConfigurationError, InfeasibleScenarioError, SolverError
from linewatch.fluid import GasEos
from linewatch.hydraulics import linepack
from linewatch.network import discretize
from linewatch.rtm import IndicatorTrace, RtmDetector, RtmTrace
from linewatch.scenario import load_scenario, run_scenario, scenario_from_dict, start_plant, sweep
from linewatch.telemetry import GOOD, MISSING, SUSPECT, TelemetryLog, sample

GOLDEN = Path(__file__).parent / "golden" / "standard_leak_report.json"


SHIPPED_STANDARD = Path(__file__).parents[1] / "demos" / "scenarios" / "standard_leak.yaml"
SHIPPED_GAS = SHIPPED_STANDARD.with_name("gas_line.yaml")
WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads"


def _leaves(raw, path="", keys=()):
    """(field path, key sequence, value) of every scalar under ``raw``."""
    if isinstance(raw, (dict, list)):
        for key, value in (raw.items() if isinstance(raw, dict) else enumerate(raw)):
            sub = f"{path}[{key}]" if isinstance(raw, list) else (
                f"{path}.{key}" if path else str(key))
            yield from _leaves(value, sub, keys + (key,))
    else:
        yield path, keys, raw


def _field_paths(raw, path=""):
    """The field path of ``raw`` and of everything under it, sections and
    values alike, as a ConfigurationError names them."""
    yield path
    if isinstance(raw, (dict, list)):
        for key, value in (raw.items() if isinstance(raw, dict) else enumerate(raw)):
            yield from _field_paths(value, f"{path}[{key}]" if isinstance(raw, list) else (
                f"{path}.{key}" if path else str(key)))


def _is_number(value):
    """Whether a scenario reads ``value`` as a number (PyYAML reads 5.0e6 as text)."""
    try:
        return not isinstance(value, bool) and math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


class TestParsing:
    def test_standard_config_parses(self):
        s = scenario_from_dict(standard_config())
        assert s.pipeline.length == 10000.0
        assert len(s.instruments) == 6
        assert s.rtm is not None and s.balance is not None and s.acoustic is not None

    def test_missing_required_field_names_path(self):
        cfg = standard_config()
        del cfg["fluid"]
        with pytest.raises(ConfigurationError, match="fluid"):
            scenario_from_dict(cfg)

    def test_bad_boundary_kind_names_path(self):
        cfg = standard_config()
        cfg["boundaries"]["inlet"]["kind"] = "head"
        with pytest.raises(ConfigurationError, match="boundaries.inlet"):
            scenario_from_dict(cfg)

    def test_leak_outside_line_names_path(self):
        cfg = standard_config()
        cfg["leaks"] = [{"position": 20000.0, "start_time": 10.0, "mass_rate": 1.0}]
        with pytest.raises(ConfigurationError, match=r"leaks\[0\]"):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("section,key,points,path", [
        ("boundaries.inlet", "series", [[0.0, "x"]], "boundaries.inlet.series[0]"),
        ("boundaries.inlet", "series", [[0.0, 1.0e6], [0.0]], "boundaries.inlet.series[1]"),
        ("pipeline", "elevation", [[0.0, 0.0, 5.0]], "pipeline.elevation[0]"),
    ], ids=["non_number", "short_point", "long_point"])
    def test_malformed_point_names_path(self, section, key, points, path):
        cfg = standard_config()
        node = cfg
        for part in section.split("."):
            node = node[part]
        node[key] = points
        with pytest.raises(ConfigurationError, match=re.escape(path)):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("section,edit,message", [
        ("pipeline", {"diameter": -1}, "pipeline: diameter must be > 0, got -1.0"),
        ("fluid", {"bulk_modulus": -5}, "fluid: bulk modulus B must be > 0"),
        # k = 0 is the ideal gas: there is no Z mode to choose
        ("fluid", lambda cfg: cfg.update(fluid={
            "kind": "gas", "R": 500.0, "z_mode": "ideal",
            "specific_heat": 2200.0, "sound_speed": 380.0}),
         "fluid.z_mode: unknown key"),
        # a gas states its correlation by its reference point, z_reference
        ("fluid", lambda cfg: cfg.update(fluid={
            "kind": "gas", "R": 500.0, "k": 0.1,
            "specific_heat": 2200.0, "sound_speed": 380.0}),
         "fluid.k: unknown key"),
        ("fluid", {"sound_speed": 0}, "fluid.sound_speed: must be > 0, got 0.0"),
        ("balance", {"mode": "smple"}, "balance.mode: must be 'model' or 'simple', got 'smple'"),
        ("balance", {"threshold": 0}, "balance.threshold: must be > 0, got 0.0"),
        ("balance", {"threshold": -5}, "balance.threshold: must be > 0, got -5.0"),
        ("balance", {"window": -1}, "balance.window: must be > 0, got -1.0"),
        # a flow-driven shadow's inventory change is the metered imbalance
        ("rtm", {"drive": "flow"},
         "balance.mode: 'model' needs a pressure-driven RTM shadow model; "
         "with rtm.drive 'flow' use 'simple'"),
        ("acoustic", {"initial_amplitude": 0},
         "acoustic.initial_amplitude: must be > 0, got 0.0"),
        ("pipeline", {"segments": [{"start": 0.0, "end": 5000.0},
                                   {"start": 6000.0, "end": 5000.0}]},
         "pipeline.segments[1]: segment bounds (6000.0, 5000.0)"),
        ("availability", {"per_unit": 1.5},
         "availability.per_unit: flowmeter: availability must be in [0, 1]"),
        ("availability", {"per_unit": "high"},
         "availability.per_unit: expected a number, got 'high'"),
        ("availability", {"chains": "mass_flow"}, "availability.chains: expected a list"),
        ("availability", {"chains": ["pressure", ["mass_flow"]]},
         "availability.chains[1]: unknown availability chain preset ['mass_flow']"),
        # 0 would turn the rule off; a negative value would flag every reading
        ("telemetry", {"plausibility": {"pressure": {"flatline_polls": 0}}},
         "telemetry.plausibility.pressure.flatline_polls: must be >= 2, got 0"),
        ("telemetry", {"plausibility": {"flow": {"flatline_polls": -3}}},
         "telemetry.plausibility.flow.flatline_polls: must be >= 2, got -3"),
        # the outlet flow meter moved to 2 km of 10 km: the meters no longer bracket the line
        ("instruments", lambda cfg: cfg["instruments"][1].update(position=2000.0),
         "balance: line balance needs a flow meter in each half of the line"),
        # counts are whole numbers: 2.7 would be read as 2, -1 would turn refinement off
        ("seed", lambda cfg: cfg.update(seed=1.5), "seed: expected a whole number, got 1.5"),
        ("seed", lambda cfg: cfg.update(seed=-1), "seed: must be >= 0, got -1"),
        ("rtm", {"consecutive_polls": 2.7},
         "rtm.consecutive_polls: expected a whole number, got 2.7"),
        ("rtm", {"consecutive_polls": 0}, "rtm.consecutive_polls: must be >= 1, got 0"),
        ("rtm", {"min_indicators": 1.5}, "rtm.min_indicators: expected a whole number, got 1.5"),
        ("rtm", {"smoothing_polls": 0}, "rtm.smoothing_polls: must be >= 1, got 0"),
        # a count beyond 2**53 is not read exactly, and a smoothing deque
        # that long would overflow
        ("rtm", {"smoothing_polls": 1e30},
         "rtm.smoothing_polls: must be <= 9007199254740992, got 1e+30"),
        ("rtm", {"smoothing_polls": 10**40},
         f"rtm.smoothing_polls: must be <= 9007199254740992, got {10**40}"),
        ("seed", lambda cfg: cfg.update(seed=2**53 + 2),
         "seed: must be <= 9007199254740992, got 9007199254740994"),
        ("rtm", {"refine_after_polls": -1}, "rtm.refine_after_polls: must be >= 0, got -1"),
        ("telemetry", {"plausibility": {"flow": {"flatline_polls": 2.5}}},
         "telemetry.plausibility.flow.flatline_polls: expected a whole number, got 2.5"),
        ("rtm", {"flow_threshold": 0}, "rtm: voting thresholds must be > 0"),
        ("solver", {"dt": 0}, "solver.dt: must be > 0, got 0.0"),
        ("solver", {"dt": -1.0}, "solver.dt: must be > 0, got -1.0"),
        ("solver", {"target_dx": 0}, "solver.target_dx: must be > 0, got 0.0"),
        # with 5 s polls, 8 s would run to 10 s and 12.5 s would stop at 10 s
        ("horizon", lambda cfg: cfg.update(horizon=8.0),
         "horizon: 8.0 must be a multiple of telemetry.poll_interval 5.0"),
        ("horizon", lambda cfg: cfg.update(horizon=12.5),
         "horizon: 12.5 must be a multiple of telemetry.poll_interval 5.0"),
        ("horizon", lambda cfg: cfg.update(horizon=math.nan),
         "horizon: expected a number, got nan"),
        ("solver", {"dt": math.nan}, "solver.dt: expected a number, got nan"),
        # every positivity check has one format
        ("horizon", lambda cfg: cfg.update(horizon=0), "horizon: must be > 0, got 0.0"),
        ("telemetry", {"poll_interval": -5}, "telemetry.poll_interval: must be > 0, got -5.0"),
        # a model's own checks name the entry it was built from
        ("boundaries", lambda cfg: cfg["boundaries"]["inlet"].update(kind="head"),
         "boundaries.inlet: boundary kind must be pressure or flow, got 'head'"),
        ("boundaries", lambda cfg: cfg["boundaries"].update(
            inlet={"kind": "pressure", "series": [[60.0, 1.0e6], [0.0, 1.1e6]]}),
         "boundaries.inlet.series: time series times must be non-decreasing"),
        ("boundaries", lambda cfg: cfg["boundaries"].update(
            inlet={"kind": "pressure", "series": []}),
         "boundaries.inlet.series: time series needs equal-length times and values"),
        ("boundaries", {"temperature_end": "middle"},
         "boundaries: temperature_end must be 'inlet' or 'outlet'"),
        ("instruments", lambda cfg: cfg["instruments"][2].update(kind="pressur"),
         "instruments[2]: instrument p_in: unknown kind 'pressur'"),
        # acoustic sensors belong under acoustic.sensors, not instruments
        ("instruments", lambda cfg: cfg["instruments"].append(
            {"id": "mic", "kind": "acoustic", "position": 3333.0}),
         "instruments[6]: instrument mic: unknown kind 'acoustic'"),
        ("instruments", lambda cfg: cfg["instruments"][2].update(sigma=-1.0),
         "instruments[2]: instrument p_in: noise_sigma must be >= 0"),
        ("instruments", lambda cfg: cfg["instruments"][0].update(dropout=1.0),
         "instruments[0]: instrument flow_in: dropout_prob must be in [0, 1)"),
        ("leaks", lambda cfg: cfg["leaks"][0].update(mass_rate=-0.7),
         "leaks[0]: leak mass_rate must be >= 0, got -0.7"),
        ("acoustic", lambda cfg: cfg["acoustic"]["sensors"][1].update(threshold=0),
         "acoustic.sensors[1]: sensor ac_out: trigger_threshold must be > 0"),
        ("acoustic", lambda cfg: cfg["acoustic"]["sensors"][0].update(resolution=-0.01),
         "acoustic.sensors[0]: sensor ac_in: timestamp_resolution must be >= 0"),
        # localize() needs x1 < x2, and its result names the pair by id
        ("acoustic", lambda cfg: cfg["acoustic"]["sensors"][1].update(id="ac_in"),
         "acoustic.sensors[1]: sensor id 'ac_in' is used twice"),
        ("acoustic", lambda cfg: cfg["acoustic"]["sensors"][1].update(position=0.0),
         "acoustic.sensors[1]: sensor ac_out shares position 0.0 m with sensor ac_in"),
        ("acoustic", {"speed": -1414.2}, "acoustic: wave speed must be > 0, got -1414.2"),
        ("acoustic", {"attenuation": -1.0e-4}, "acoustic: attenuation must be >= 0, got -0.0001"),
        # limits that would flag every reading
        ("telemetry", {"plausibility": {"pressure": {"min": 5.0e6, "max": 0.0}}},
         "telemetry.plausibility.pressure: min 5000000.0 must be <= max 0.0"),
        ("telemetry", {"plausibility": {"pressure": {"max_rate": 0}}},
         "telemetry.plausibility.pressure.max_rate: must be > 0, got 0.0"),
        ("telemetry", {"plausibility": {"flow": {"max_rate": -1}}},
         "telemetry.plausibility.flow.max_rate: must be > 0, got -1.0"),
        # with 5 s polls, windows of 7 s and 12.5 s would run to 10 s and 15 s
        ("balance", {"window": 7.0},
         "balance.window: 7.0 must be a multiple of telemetry.poll_interval 5.0"),
        ("balance", {"window": 12.5},
         "balance.window: 12.5 must be a multiple of telemetry.poll_interval 5.0"),
        ("solver", {"dt": 3.0},
         "telemetry.poll_interval: 5.0 must be a multiple of solver.dt 3.0"),
        # a step longer than the poll would never advance the plant
        ("solver", {"dt": 1.0e12},
         "telemetry.poll_interval: 5.0 must be a multiple of solver.dt 1000000000000.0"),
        # each instrument's readings are keyed by its id
        ("instruments", lambda cfg: cfg["instruments"].append(
            {"id": "p_in", "kind": "pressure", "position": 5000.0}),
         "instruments[6]: instrument id 'p_in' is used twice"),
        # a run starts from the steady state, which a pressure at one end pins
        ("boundaries", lambda cfg: cfg["boundaries"].update(
            inlet={"kind": "flow", "value": 70.0}, outlet={"kind": "flow", "value": 70.0}),
         "boundaries: the steady start needs a pressure boundary at one end; both hold flow"),
        # absolute pressures and temperatures are > 0 in the model that holds them
        ("boundaries", lambda cfg: cfg["boundaries"]["outlet"].update(value=0),
         "boundaries.outlet: boundary pressure must be > 0, got 0.0"),
        ("boundaries", lambda cfg: cfg["boundaries"]["outlet"].update(value=-1),
         "boundaries.outlet: boundary pressure must be > 0, got -1.0"),
        ("boundaries", lambda cfg: cfg["boundaries"]["inlet"].update(value=0),
         "boundaries.inlet: boundary pressure must be > 0, got 0.0"),
        ("boundaries", lambda cfg: cfg["boundaries"].update(
            outlet={"kind": "pressure", "series": [[0.0, 6.7e5], [60.0, -5.0e4]]}),
         "boundaries.outlet: boundary pressure must be > 0, got -50000.0"),
        ("boundaries", {"temperature": {"value": 0.0}},
         "boundaries: boundary temperature must be > 0, got 0.0"),
        ("pipeline", {"ground_temperature": 0},
         "pipeline: ground temperature Tg must be > 0, got 0.0"),
        ("pipeline", {"ground_temperature": -1},
         "pipeline: ground temperature Tg must be > 0, got -1.0"),
        ("fluid", lambda cfg: cfg.update(fluid={
            "kind": "gas", "R": 500.0, "critical_pressure": 4.6e6, "critical_temperature": 0,
            "specific_heat": 2200.0, "sound_speed": 380.0}),
         "fluid: critical_temperature must be > 0, got 0.0"),
        ("fluid", lambda cfg: cfg.update(fluid={
            "kind": "gas", "R": 500.0, "critical_pressure": 0, "critical_temperature": 190.6,
            "specific_heat": 2200.0, "sound_speed": 380.0}),
         "fluid: critical_pressure must be > 0, got 0.0"),
        # T_ref**y of the fitted correlation overflows
        ("fluid", lambda cfg: cfg.update(fluid={
            "kind": "gas", "R": 500.0, "y": 1e30, "z_reference": {"P": 5.0e6, "T": 300.0, "Z": 0.9},
            "specific_heat": 2200.0, "sound_speed": 380.0}),
         "fluid: a value is too large for the model's arithmetic (Numerical result out of range)"),
        # y*k*P**2 of dP/dT at constant density overflows, the density stays finite
        ("fluid", lambda cfg: cfg.update(fluid={
            "kind": "gas", "R": 500.0, "y": 124, "z_reference": {"P": 5.0e6, "T": 300.0, "Z": 0.9},
            "specific_heat": 2200.0, "sound_speed": 380.0}),
         "fluid: density 6.81481 kg/m^3 and dP/dT at constant density inf Pa/K at the "
         "operating point (P=1e+06 Pa, T=300 K) must both be finite"),
        ("pipeline", lambda cfg: cfg.update(pipeline=None), "pipeline.length: required field is missing"),
        ("fluid", lambda cfg: cfg.update(fluid=None), "fluid.kind: required field is missing"),
        ("pipeline", {"segments": [{"start": 0.0, "end": 20000.0}]},
         "pipeline: segments[0]: end 20000.0 beyond the line length 10000.0"),
    ], ids=["pipeline_diameter", "liquid_bulk_modulus", "gas_z_mode", "gas_k",
            "fluid_sound_speed_zero", "balance_mode",
            "balance_threshold_zero", "balance_threshold_negative", "balance_window",
            "balance_model_flow_drive",
            "acoustic_amplitude", "segment_bounds", "availability_per_unit",
            "availability_per_unit_not_a_number", "availability_chains_not_a_list",
            "availability_chain_not_a_name", "flatline_polls_zero", "flatline_polls_negative",
            "balance_meters_not_bracketing", "seed_fractional", "seed_negative",
            "rtm_consecutive_fractional", "rtm_consecutive_zero", "rtm_min_indicators_fractional",
            "rtm_smoothing_zero", "rtm_smoothing_huge", "rtm_smoothing_huge_int", "seed_huge",
            "rtm_refine_negative",
            "flatline_polls_fractional", "rtm_flow_threshold_zero", "solver_dt_zero",
            "solver_dt_negative", "solver_target_dx_zero", "horizon_past_a_poll",
            "horizon_between_polls", "horizon_nan", "solver_dt_nan", "horizon_zero",
            "poll_interval_negative", "boundary_kind", "series_decreasing", "series_empty",
            "temperature_end", "instrument_kind", "instrument_kind_acoustic", "instrument_sigma",
            "instrument_dropout",
            "leak_mass_rate", "sensor_threshold", "sensor_resolution", "sensor_id_repeated",
            "sensor_position_repeated", "wave_speed",
            "wave_attenuation", "plausibility_min_above_max", "plausibility_max_rate_zero",
            "plausibility_max_rate_negative", "balance_window_past_a_poll",
            "balance_window_between_polls", "poll_not_a_multiple_of_dt", "solver_dt_beyond_poll",
            "instrument_id_repeated", "boundaries_both_flow", "outlet_pressure_zero",
            "outlet_pressure_negative", "inlet_pressure_zero", "pressure_series_below_zero",
            "boundary_temperature_zero", "ground_temperature_zero",
            "ground_temperature_negative", "critical_temperature_zero", "critical_pressure_zero",
            "gas_y_huge", "gas_dPdT_overflow", "pipeline_null", "fluid_null",
            "segment_beyond_the_line"])
    def test_model_error_names_section(self, section, edit, message):
        cfg = standard_config()
        if callable(edit):
            edit(cfg)
        else:
            cfg.setdefault(section, {}).update(edit)
        with pytest.raises(ConfigurationError, match="^" + re.escape(message)):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("bad", [None, math.nan, math.inf, "abc", [], {}, True, -1, 0, 1e300],
                             ids=["null", "nan", "inf", "text", "list", "mapping", "true",
                                  "minus_one", "zero", "huge"])
    def test_every_leaf_fails_only_with_a_configuration_error(self, bad):
        # Each leaf of the shipped standard scenario, with each optional
        # section's ``enabled`` switch written out, in turn takes ``bad``.  A
        # number given something that is not a finite number, a text given
        # something that is not a string, and a switch given something that
        # is not a boolean each fail with their own path; no value makes the
        # parser raise another type.
        raw = yaml.safe_load(SHIPPED_STANDARD.read_text())
        for section in ("rtm", "balance", "acoustic"):
            raw[section]["enabled"] = True
        for path, keys, value in _leaves(raw):
            cfg = copy.deepcopy(raw)
            node = cfg
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = bad
            if (_is_number(value) and not _is_number(bad)
                    or isinstance(value, str) and not _is_number(value)
                    and not isinstance(bad, str)
                    or isinstance(value, bool) and not isinstance(bad, bool)):
                with pytest.raises(ConfigurationError, match="^" + re.escape(path + ": ")):
                    scenario_from_dict(cfg)
            else:
                with contextlib.suppress(ConfigurationError):
                    scenario_from_dict(cfg)

    def test_every_mutation_of_the_shipped_scenarios_names_its_field(self):
        # Each leaf of three shipped scenarios in turn takes each value below,
        # or is deleted, and the file goes through what ``validate`` runs.  It
        # validates, is infeasible, or fails with a ConfigurationError that
        # starts with a path the mutated file has (<root> for the file), or
        # with the deleted key or the section it was deleted from.
        deleted = object()
        mutations = ["text", -1, 0, None, [], {}, 1e30, -1e30, True, math.nan, math.inf,
                     10**40, deleted]
        outcomes = collections.Counter()
        for name in ("standard_leak", "gas_line", "phenomenology"):
            raw = yaml.safe_load(SHIPPED_STANDARD.with_name(f"{name}.yaml").read_text())
            for path, keys, _ in _leaves(raw):
                for value in mutations:
                    cfg = copy.deepcopy(raw)
                    node = cfg
                    for key in keys[:-1]:
                        node = node[key]
                    named = {"<root>"}
                    if value is deleted:
                        del node[keys[-1]]
                        named |= {path, path[:path.rfind("[")] if isinstance(node, list)
                                  else path.rpartition(".")[0]}
                    else:
                        node[keys[-1]] = copy.deepcopy(value)
                    named |= set(_field_paths(cfg)) - {""}
                    try:
                        start_plant(scenario_from_dict(cfg))
                        outcomes["validates"] += 1
                    except InfeasibleScenarioError:
                        outcomes["infeasible"] += 1
                    except ConfigurationError as e:
                        assert str(e).split(": ", 1)[0] in named, (name, path, value, str(e))
                        outcomes["named"] += 1
        assert sum(outcomes.values()) == 2769   # 213 leaves, 13 mutations each
        assert min(outcomes.values()) > 0 and len(outcomes) == 3, outcomes

    def test_rtm_passes_on_only_the_options_set(self):
        cfg = standard_config()
        cfg["rtm"] = {"flow_threshold": 0.25, "refine_after_polls": 18}
        s = scenario_from_dict(cfg)
        assert set(s.rtm) == {"policy", "refine_after_polls"}
        assert s.rtm["refine_after_polls"] == 18

    @pytest.mark.parametrize("edit,path", [
        (lambda c: c["pipeline"].update(diamter=0.5), "pipeline.diamter"),
        (lambda c: c["rtm"].update(flow_treshold=99), "rtm.flow_treshold"),
        (lambda c: c["instruments"][2].update(sigm=1.0), "instruments[2].sigm"),
        (lambda c: c["boundaries"]["inlet"].update(series=[[0.0, 1.0e6]]),
         "boundaries.inlet.value"),
        (lambda c: c.update(horizn=60.0), "horizn"),
        # segments override friction_factor and U only; the line has one diameter
        (lambda c: c["pipeline"].update(
            segments=[{"start": 0.0, "end": 5000.0, "diameter": 0.4}]),
         "pipeline.segments[0].diameter"),
        (lambda c: c["telemetry"].update(plausibility={"flow": {"mx": 1.0}}),
         "telemetry.plausibility.flow.mx"),
    ], ids=["pipeline", "rtm", "instrument", "value_beside_series", "top_level",
            "segment_diameter", "nested"])
    def test_unread_key_names_path(self, edit, path):
        cfg = standard_config()
        edit(cfg)
        with pytest.raises(ConfigurationError, match="^" + re.escape(path + ": unknown key")):
            scenario_from_dict(cfg)

    def test_first_unread_key_in_document_order(self):
        cfg = standard_config()
        cfg["pipeline"]["diamter"] = 0.5
        cfg["rtm"]["flow_treshold"] = 99
        with pytest.raises(ConfigurationError, match="^pipeline.diamter"):
            scenario_from_dict(cfg)

    def test_disabled_section_keeps_its_keys(self):
        cfg = standard_config()
        cfg["acoustic"]["enabled"] = False
        cfg["acoustic"]["atenuation"] = 1.0
        assert scenario_from_dict(cfg).acoustic is None

    @pytest.mark.parametrize("edit,message", [
        (lambda c: c["acoustic"].update(enabled="false"),
         "acoustic.enabled: expected true or false, got 'false'"),
        (lambda c: c["rtm"].update(enabled=None), "rtm.enabled: expected true or false, got None"),
        (lambda c: c["instruments"][0].update(id=None), "instruments[0].id: expected text, got None"),
        (lambda c: c["instruments"][1].update(kind=1), "instruments[1].kind: expected text, got 1"),
        (lambda c: c["acoustic"]["sensors"][0].update(id=7),
         "acoustic.sensors[0].id: expected text, got 7"),
        (lambda c: c.update(name=["a"]), "name: expected text, got ['a']"),
        # the name heads every table's provenance line
        (lambda c: c.update(name="line one\nline,two"),
         "name: must be one line of text, got 'line one\\nline,two'"),
        (lambda c: c["fluid"].update(kind="oil"), "fluid.kind: must be 'liquid' or 'gas', got 'oil'"),
        (lambda c: c["rtm"].update(drive="head"), "rtm.drive: must be 'pressure' or 'flow', got 'head'"),
    ], ids=["enabled_text", "enabled_null", "instrument_id_null", "instrument_kind_number",
            "sensor_id_number", "name_list", "name_two_lines", "fluid_kind", "rtm_drive"])
    def test_text_and_switch_fields_name_their_path(self, edit, message):
        cfg = standard_config()
        edit(cfg)
        with pytest.raises(ConfigurationError, match="^" + re.escape(message) + "$"):
            scenario_from_dict(cfg)

    def test_shipped_scenarios_read_every_key(self):
        root = Path(__file__).parents[1]
        for path in sorted(root.glob("demos/scenarios/*.yaml")):
            load_scenario(path)

    def test_leak_must_start_after_zero(self):
        cfg = standard_config()
        cfg["leaks"] = [{"position": 5000.0, "start_time": 0.0, "mass_rate": 1.0}]
        with pytest.raises(ConfigurationError, match="start_time"):
            scenario_from_dict(cfg)

    def test_poll_must_be_multiple_of_dt(self):
        cfg = standard_config()
        cfg["solver"]["dt"] = 3.0
        with pytest.raises(ConfigurationError, match="multiple"):
            scenario_from_dict(cfg)

    def test_balance_model_mode_needs_rtm(self):
        cfg = standard_config()
        cfg["rtm"] = {"enabled": False}
        with pytest.raises(ConfigurationError, match="shadow"):
            scenario_from_dict(cfg)

    def test_unit_conversion(self):
        cfg = standard_config()
        cfg["units"] = {"pressure": "bar", "length": "km", "temperature": "degC"}
        cfg["pipeline"]["length"] = 10.0
        cfg["boundaries"]["inlet"]["value"] = 10.0
        cfg["boundaries"]["outlet"]["value"] = 6.7
        cfg["boundaries"]["temperature"]["value"] = 26.85
        cfg["fluid"]["P0"] = 1.0
        cfg["fluid"]["T0"] = 26.85
        cfg["pipeline"]["ground_temperature"] = 15.0
        for inst in cfg["instruments"]:
            inst["position"] /= 1000.0
        cfg["leaks"][0]["position"] = 5.0
        cfg["rtm"]["pressure_threshold"] = 0.025
        cfg["acoustic"]["initial_amplitude"] = 0.5
        for sens in cfg["acoustic"]["sensors"]:
            sens["position"] /= 1000.0
            sens["threshold"] = 0.05
        cfg["solver"]["target_dx"] = 0.1
        s = scenario_from_dict(cfg)
        assert s.pipeline.length == 10000.0
        assert s.bc.inlet.series.at(0.0) == pytest.approx(1.0e6)
        assert s.bc.temperature.at(0.0) == pytest.approx(300.0)
        assert s.fluid.eos.T0 == pytest.approx(300.0)
        assert s.leaks[0].position == 5000.0
        assert s.rtm["policy"].pressure_threshold == pytest.approx(2500.0)

    def test_gas_fluid_section(self):
        cfg = standard_config()
        cfg["fluid"] = {
            "kind": "gas", "R": 500.0, "y": 1.0,
            "z_reference": {"P": 5.0e6, "T": 300.0, "Z": 0.9},
            "specific_heat": 2200.0, "sound_speed": 380.0,
        }
        cfg["boundaries"]["inlet"]["value"] = 6.0e6
        cfg["boundaries"]["outlet"]["value"] = 5.0e6
        s = scenario_from_dict(cfg)
        assert isinstance(s.fluid.eos, GasEos) and s.fluid.eos.k > 0


_PRESSURE_SI = {"Pa": 1.0, "kPa": 1e3, "MPa": 1e6, "bar": 1e5, "psi": 6894.757293168}
_LENGTH_SI = {"m": 1.0, "km": 1e3}
_KELVIN_AT_ZERO = {"K": 0.0, "degC": 273.15}

_PLAUSIBILITY = {
    "pressure": {"min": 0.0, "max": 5.0e6, "max_rate": 1.0e5},
    "flow": {"min": -150.0, "max": 150.0, "max_rate": 50.0},
    "temperature": {"min": 200.0, "max": 400.0, "max_rate": 2.0},
}


def _in_units(si_cfg, pressure, length, temperature):
    """Re-express an SI scenario dict in the given units, field by field."""
    cfg = copy.deepcopy(si_cfg)
    cfg["units"] = {"pressure": pressure, "length": length, "temperature": temperature}
    p = lambda v: v / _PRESSURE_SI[pressure]
    m = lambda v: v / _LENGTH_SI[length]
    k = lambda v: v - _KELVIN_AT_ZERO[temperature]

    def conv(node, f, *keys):
        for key in keys:
            if key in node:
                node[key] = f(node[key])

    def value_or_series(node, f):
        conv(node, f, "value")
        if "series" in node:
            node["series"] = [[t, f(v)] for t, v in node["series"]]

    fl = cfg["fluid"]
    conv(fl, p, "P0", "bulk_modulus", "critical_pressure")
    conv(fl, k, "T0", "critical_temperature")
    conv(fl.get("z_reference", {}), p, "P")
    conv(fl.get("z_reference", {}), k, "T")
    pl = cfg["pipeline"]
    conv(pl, m, "length")
    conv(pl, k, "ground_temperature")
    if "elevation" in pl:
        pl["elevation"] = [[m(x), h] for x, h in pl["elevation"]]
    for seg in pl.get("segments", []):
        conv(seg, m, "start", "end")
    for inst in cfg["instruments"]:
        conv(inst, m, "position")
        if inst["kind"] == "pressure":
            conv(inst, p, "sigma", "bias")
    for end in ("inlet", "outlet"):
        leg = cfg["boundaries"][end]
        value_or_series(leg, p if leg["kind"] == "pressure" else float)
    value_or_series(cfg["boundaries"]["temperature"], k)
    for leak in cfg["leaks"]:
        conv(leak, m, "position")
    plaus = cfg["telemetry"].get("plausibility", {})
    conv(plaus.get("pressure", {}), p, "min", "max", "max_rate")
    conv(plaus.get("temperature", {}), k, "min", "max")
    conv(cfg["rtm"], p, "pressure_threshold")
    ac = cfg["acoustic"]
    conv(ac, p, "initial_amplitude")
    conv(ac, lambda v: v * _LENGTH_SI[length], "attenuation")
    for sensor in ac["sensors"]:
        conv(sensor, m, "position")
        conv(sensor, p, "threshold")
    conv(cfg["solver"], m, "target_dx")
    return cfg


def _every_dimension_config(gas, explicit_pressure_threshold):
    cfg = standard_config()
    if gas:
        cfg["fluid"] = {
            "kind": "gas", "R": 500.0, "y": 1.0,
            "z_reference": {"P": 5.0e6, "T": 300.0, "Z": 0.9},
            "critical_pressure": 4.6e6, "critical_temperature": 190.6,
            "specific_heat": 2200.0, "sound_speed": 380.0,
        }
        cfg["boundaries"]["inlet"]["value"] = 6.0e6
        cfg["boundaries"]["outlet"] = {"kind": "pressure", "series": [[0.0, 5.0e6], [300.0, 4.9e6]]}
    else:
        cfg["boundaries"]["outlet"] = {"kind": "pressure", "series": [[0.0, 6.7e5], [300.0, 6.5e5]]}
    cfg["pipeline"]["elevation"] = [[0.0, 0.0], [4000.0, 12.0], [10000.0, 5.0]]
    cfg["pipeline"]["segments"] = [
        {"start": 2000.0, "end": 3000.0, "friction_factor": 0.03, "U": 1.5}]
    bias = {"flow": 0.05, "pressure": 300.0, "temperature": 0.02}
    for inst in cfg["instruments"]:
        inst["bias"] = bias[inst["kind"]]
    cfg["boundaries"]["temperature"] = {"series": [[0.0, 300.0], [600.0, 301.5]]}
    cfg["telemetry"]["plausibility"] = copy.deepcopy(_PLAUSIBILITY)
    if not explicit_pressure_threshold:
        del cfg["rtm"]["pressure_threshold"]  # defaults to 3x the pressure sigma
    cfg["acoustic"]["speed"] = 1400.0
    return cfg


def _assert_same_si(path, expected, actual):
    if isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-12, abs=0.0), path
    elif isinstance(expected, np.ndarray):
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0.0, err_msg=path)
    elif isinstance(expected, dict):
        assert sorted(expected) == sorted(actual), path
        for key in expected:
            _assert_same_si(f"{path}.{key}", expected[key], actual[key])
    elif isinstance(expected, (list, tuple)):
        assert len(expected) == len(actual), path
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_same_si(f"{path}[{i}]", e, a)
    elif hasattr(expected, "__dict__"):
        assert type(expected) is type(actual), path
        _assert_same_si(path, vars(expected), vars(actual))
    else:
        assert expected == actual, path


class TestUnits:
    @settings(max_examples=40, deadline=None)
    @given(
        pressure=st.sampled_from(sorted(_PRESSURE_SI)),
        length=st.sampled_from(sorted(_LENGTH_SI)),
        temperature=st.sampled_from(sorted(_KELVIN_AT_ZERO)),
        gas=st.booleans(),
        explicit_pressure_threshold=st.booleans(),
    )
    def test_declared_units_parse_to_the_same_si_scenario(
            self, pressure, length, temperature, gas, explicit_pressure_threshold):
        si_cfg = _every_dimension_config(gas, explicit_pressure_threshold)
        si = vars(scenario_from_dict(si_cfg))
        declared = vars(scenario_from_dict(_in_units(si_cfg, pressure, length, temperature)))
        for name in ("raw", "config_hash"):
            del si[name], declared[name]
        _assert_same_si("scenario", si, declared)

    @pytest.mark.parametrize("units, match", [
        ({"presure": "bar"}, r"units\.presure"),
        ({"pressure": "atm"}, r"units\.pressure: unknown unit 'atm'"),
        ("bar", r"units: expected a mapping"),
    ])
    def test_bad_units_section_names_path(self, units, match):
        with pytest.raises(ConfigurationError, match=match):
            scenario_from_dict(standard_config(units=units))

    def test_raw_reparses_and_sweeps_in_declared_units(self, monkeypatch):
        s = scenario_from_dict(_in_units(standard_config(horizon=130.0), "Pa", "km", "K"))
        assert scenario_from_dict(s.raw).pipeline.length == 10000.0
        swept = []
        real_run = scenario_module.run_scenario
        monkeypatch.setattr(scenario_module, "run_scenario",
                            lambda sc: swept.append(sc) or real_run(sc))
        rows = sweep(s.raw, {"leaks.0.position": [5.0]})
        assert rows[0]["error"] is None
        assert swept[0].leaks[0].position == 5000.0
        assert swept[0].pipeline.length == 10000.0

    def test_bar_km_degc_run_matches_si_run(self):
        si_cfg = standard_config()
        si_cfg["telemetry"]["plausibility"] = copy.deepcopy(_PLAUSIBILITY)
        si = run_scenario(scenario_from_dict(si_cfg))
        declared = run_scenario(scenario_from_dict(_in_units(si_cfg, "bar", "km", "degC")))
        assert declared.rtm["declared_time"] == 185.0
        assert all(quality == "good" for *_, quality in declared.telemetry.rows())
        expected, actual = si.to_dict(), declared.to_dict()
        expected["config_sha256"] = actual["config_sha256"] = "pinned"
        _assert_same_structure("report", expected, actual)


class TestRunning:
    def test_no_leak_run_all_detectors_silent(self):
        cfg = standard_config(horizon=420.0)
        cfg["leaks"] = []
        report = run_scenario(scenario_from_dict(cfg))
        assert not report.rtm["declared"]
        assert report.balance["first_alarm_time"] is None
        assert report.acoustic["detections"] == []
        assert report.metrics == {}
        assert report.truth["leaks"] == []

    def test_detectors_left_out_are_reported_off(self):
        cfg = standard_config(horizon=150.0)
        del cfg["acoustic"]
        report = run_scenario(scenario_from_dict(cfg))
        assert report.acoustic == {"enabled": False, "events": [], "detections": []}
        assert report.rtm["enabled"] and report.balance["enabled"]
        # model-mode balance reads the RTM's linepack, so both go together
        del cfg["rtm"], cfg["balance"]
        report = run_scenario(scenario_from_dict(cfg))
        assert report.rtm == report.balance == {"enabled": False}
        assert report.combined == {} and report.rtm_trace is None
        assert report.run["polls"] == 31 and report.run["solver_failure"] is None

    def test_identical_seed_byte_identical_reports(self):
        a = run_scenario(scenario_from_dict(standard_config(horizon=420.0)))
        b = run_scenario(scenario_from_dict(standard_config(horizon=420.0)))
        assert a.to_json() == b.to_json()

    def test_standard_leak_detected_with_truth_metrics(self):
        report = run_scenario(scenario_from_dict(standard_config()))
        assert report.rtm["declared"]
        assert 0 < report.metrics["rtm_detection_latency"] <= 600.0
        assert report.metrics["acoustic_detection_latency"] == pytest.approx(
            5000.0 / 1414.2, abs=0.02)
        assert report.mass_ledger["max_step_residual_relative"] < 1e-8

    def test_ground_truth_echoed_verbatim(self):
        report = run_scenario(scenario_from_dict(standard_config()))
        assert report.truth["leaks"][0] == {
            "position": 5000.0, "start_time": 120.0, "mass_rate": 0.70}

    def test_golden_report_schema_stable(self):
        cfg = standard_config(horizon=420.0, seed=2025)
        report = run_scenario(scenario_from_dict(cfg)).to_dict()
        report["config_sha256"] = "pinned"
        golden = json.loads(GOLDEN.read_text())
        _assert_same_structure("report", golden, report)

    def test_acoustic_sensors_leave_the_grid_alone(self):
        # The acoustic channel is kinematic: a sensor off the grid's nodes
        # neither adds a node nor fails a spacing check (5050 m lies 50 m
        # from the leak's node, under the 100 m target spacing).
        cfg = yaml.safe_load(SHIPPED_STANDARD.read_text())
        base = run_scenario(scenario_from_dict(cfg))
        for position in (3333.0, 5050.0):
            with_sensor = copy.deepcopy(cfg)
            with_sensor["acoustic"]["sensors"].append(
                {"id": "ac_mid", "position": position, "threshold": 5.0e3})
            report = run_scenario(scenario_from_dict(with_sensor))
            assert report.run["node_count"] == base.run["node_count"] == 101
            for section in ("rtm", "balance", "mass_ledger"):
                assert getattr(report, section) == getattr(base, section), (position, section)

    def test_availability_section_in_report(self):
        cfg = standard_config(horizon=60.0)
        cfg["leaks"] = []
        cfg["availability"] = {"per_unit": 0.99}
        report = run_scenario(scenario_from_dict(cfg))
        rows = {r["name"]: r for r in report.availability}
        assert rows["mass_flow"]["product"] == pytest.approx(0.99**11, abs=1e-12)
        assert rows["acoustic"]["rank"] == 1


def _assert_same_structure(path, expected, actual):
    if isinstance(expected, bool) or isinstance(actual, bool):
        assert expected == actual, path
        return
    if isinstance(expected, float) and isinstance(actual, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), path
        return
    assert type(expected) is type(actual), f"{path}: {type(expected)} vs {type(actual)}"
    if isinstance(expected, dict):
        assert sorted(expected) == sorted(actual), f"{path}: key set changed"
        for k in expected:
            _assert_same_structure(f"{path}.{k}", expected[k], actual[k])
    elif isinstance(expected, list):
        assert len(expected) == len(actual), f"{path}: length changed"
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_same_structure(f"{path}[{i}]", e, a)
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), path
    else:
        assert expected == actual, path


class TestSweep:
    def test_empty_grid_is_template_run(self):
        cfg = standard_config(horizon=420.0)
        rows = sweep(cfg, {})
        assert len(rows) == 1 and rows[0]["error"] is None

    def test_leak_size_grid(self):
        cfg = standard_config(horizon=480.0)
        set_noise_scale(cfg, 0.0)
        rows = sweep(cfg, {"leaks.0.mass_rate": [1.4, 3.5]})
        assert [r["leaks.0.mass_rate"] for r in rows] == [1.4, 3.5]
        lat = [r.get("metric_rtm_detection_latency") for r in rows]
        assert all(l is not None for l in lat)
        assert lat[0] >= lat[1]  # bigger leak found no later

    def test_cell_failure_recorded_not_fatal(self):
        cfg = standard_config(horizon=420.0)
        rows = sweep(cfg, {"leaks.0.position": [5000.0, 99999.0]})
        assert rows[0]["error"] is None
        assert "ConfigurationError" in rows[1]["error"]

    def test_leak_size_sweep_latency_monotone(self):
        # 0.5% / 1% / 2% / 5% of rated flow at zero noise; an undetected
        # leak counts as infinite time-to-alarm
        cfg = standard_config(horizon=480.0)
        set_noise_scale(cfg, 0.0)
        sizes = [0.005 * 70.0, 0.01 * 70.0, 0.02 * 70.0, 0.05 * 70.0]
        rows = sweep(cfg, {"leaks.0.mass_rate": sizes})
        latencies = [
            row.get("metric_rtm_detection_latency")
            if row.get("metric_rtm_detection_latency") is not None else math.inf
            for row in rows
        ]
        assert all(a >= b for a, b in zip(latencies, latencies[1:]))
        assert math.isinf(latencies[0])   # 0.5% sits below the scenario thresholds
        assert latencies[-1] < latencies[1]


class TestCli:
    def write_cfg(self, tmp_path, cfg):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return path

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, standard_config())
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        cfg = standard_config()
        cfg["pipeline"]["diameter"] = -1.0
        path = self.write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_validate_rejects_a_null_number(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, standard_config(horizon=None))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: horizon: expected a number, got None\n")

    def test_validate_solves_the_plants_steady_start(self, tmp_path, capsys):
        # The 60 m rise reverses the steady flow toward the held temperature:
        # validate fails as run does, with run's message and exit status.
        cfg = standard_config()
        cfg["pipeline"]["elevation"] = [[0.0, 0.0], [10000.0, 60.0]]
        path = self.write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
        failure = [ln for ln in captured.err.splitlines() if ln.startswith("solver failure")]
        assert len(failure) == 1 and "runs from the outlet to the inlet" in failure[0]
        assert failure[0] in capsys.readouterr().err.splitlines()

    def test_validate_builds_the_detectors(self, tmp_path, capsys):
        # Without p_out the pressure-driven shadow has no outlet boundary:
        # validate fails as run does, with run's message and exit status.
        cfg = standard_config()
        cfg["instruments"] = [i for i in cfg["instruments"] if i["id"] != "p_out"]
        path = self.write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
        assert captured.err == capsys.readouterr().err == (
            "configuration error: rtm: pressure-driven detection needs a pressure instrument "
            "at each end of the line\n")

    def test_flow_drive_without_an_end_pressure_instrument(self, tmp_path, capsys):
        # A flow-driven shadow's steady start is pinned by an end pressure.
        cfg = yaml.safe_load(SHIPPED_STANDARD.with_name("phenomenology.yaml").read_text())
        cfg["instruments"] = [i for i in cfg["instruments"] if i["id"] not in ("p_in", "p_out")]
        path = self.write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: rtm: flow-driven detection needs an end pressure instrument "
            "to anchor the shadow model's initial state\n")

    def test_a_name_of_more_than_one_line_is_refused(self, tmp_path, capsys):
        # A line break in the name would split the provenance line that
        # heads every table, so a reader would take its second half for
        # the header: refused by run, and by each sweep cell.
        error = "name: must be one line of text, got 'line one\\nline,two'"
        path = self.write_cfg(tmp_path, standard_config(horizon=420.0, name="line one\nline,two"))
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {error}\n"
        assert not out.exists()

        path = self.write_cfg(tmp_path, standard_config(horizon=420.0))
        grid = tmp_path / "grid.yaml"
        grid.write_text(yaml.safe_dump({"name": ["line one\nline,two"]}))
        assert main(["sweep", str(path), "--grid", str(grid), "-o", str(out)]) == 1
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# scenario=") and lines[1].startswith("cell,")
        (row,) = csv.DictReader(lines[1:])
        assert row["error"] == f"ConfigurationError: {error}"

    @pytest.mark.parametrize("edit,message", [
        # a temperature in degrees Celsius read as kelvin
        (lambda cfg: cfg["boundaries"]["temperature"].update(value=26.85),
         "instruments[4]: instrument t_in reads 26.85 at the steady start, outside its "
         "plausibility window [200, 400]"),
        # a diameter in millimetres read as metres
        (lambda cfg: cfg["pipeline"].update(diameter=300),
         "instruments[0]: instrument flow_in reads 2.22382e+09 at the steady start, outside "
         "its plausibility window [-150, 150]"),
    ], ids=["celsius_as_kelvin", "millimetres_as_metres"])
    def test_unit_mix_up_fails_at_load(self, tmp_path, capsys, edit, message):
        cfg = yaml.safe_load(SHIPPED_STANDARD.read_text())
        edit(cfg)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            start_plant(scenario_from_dict(cfg))
        path = self.write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0].startswith("configuration error: " + message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("y", [1e30, 10**40], ids=["float", "int"])
    @pytest.mark.parametrize("correlated", [True, False], ids=["z_reference", "ideal"])
    def test_gas_exponent_too_large_exits_2_naming_fluid(self, tmp_path, capsys, y, correlated):
        # With a reference point, fitting k overflows T_ref**y at parse; an
        # ideal gas (no reference point) overflows T**y at the steady start.
        cfg = yaml.safe_load(SHIPPED_GAS.read_text())
        cfg["fluid"]["y"] = y
        if not correlated:
            del cfg["fluid"]["z_reference"]
        path = self.write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: fluid: a value is too large for the model's arithmetic "
            "(Numerical result out of range)\n")

    def test_gas_exponent_that_overflows_dPdT_exits_2_naming_fluid(self, tmp_path, capsys):
        # At y 124 the fitted k is about 3.2e299: T_ref**y and the density stay
        # finite, but y*k*P**2 of dP/dT at constant density does not.
        cfg = yaml.safe_load(SHIPPED_GAS.read_text())
        cfg["fluid"]["y"] = 124
        path = self.write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: fluid: density 45.3333 kg/m^3 and dP/dT at "
                       "constant density inf Pa/K at the operating point (P=6e+06 Pa, T=300 K) "
                       "must both be finite"] * 2
        assert not (tmp_path / "out").exists()

    def test_vote_that_can_never_pass_exits_2(self, tmp_path, capsys):
        # in pressure drive p_in and p_out drive the shadow: two indicators remain
        cfg = yaml.safe_load(SHIPPED_STANDARD.read_text())
        cfg["rtm"]["min_indicators"] = 3
        path = self.write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: rtm: min_indicators 3 exceeds the 2 indicators "
                       "(flow_in, flow_out), so the vote could never pass"] * 2
        assert not (tmp_path / "out").exists()

    def test_grid_that_cannot_hold_its_fixed_points_exits_2(self, tmp_path, capsys):
        # a leak 50 m from the inlet needs a node closer to it than target_dx allows
        cfg = yaml.safe_load(SHIPPED_STANDARD.read_text())
        cfg["leaks"][0]["position"] = 50.0
        path = self.write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0].startswith(
            "configuration error: solver.target_dx: fixed grid points at 0.0 m and 50.0 m ")
        assert not (tmp_path / "out").exists()

    def test_eos_that_cannot_cover_the_line_exits_2(self, tmp_path, capsys):
        # alpha*(T - T0) = -0.5 * 10 K drives the liquid's density below zero
        cfg = yaml.safe_load(SHIPPED_STANDARD.read_text())
        cfg["fluid"]["alpha"] = -0.5
        cfg["boundaries"]["temperature"]["value"] = 310.0
        path = self.write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0] == ("configuration error: fluid: non-positive density computed "
                          "(min -3999.55 kg/m^3); EOS parameters do not cover this (P, T) region")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key", [
        ("pipeline", "friction_factor"), ("pipeline", "diameter"), ("pipeline", "U"),
        ("fluid", "bulk_modulus"), ("pipeline", "ground_temperature")])
    def test_steady_start_that_cannot_be_solved_says_so(self, tmp_path, capsys, section, key):
        # No line has such a value, and Newton cannot solve the steady problem
        # it sets; the run says which problem failed and which sections set it.
        cfg = yaml.safe_load(SHIPPED_STANDARD.read_text())
        cfg[section][key] = 1e30
        scenario = scenario_from_dict(cfg)
        message = ("the steady state at t=0 that the pipeline, fluid and boundaries sections "
                   "set could not be solved: ")
        with pytest.raises(InfeasibleScenarioError, match=f"^{re.escape(message)}") as raised:
            start_plant(scenario)
        assert isinstance(raised.value.__cause__, SolverError)
        # the solver keeps its own error for a library caller
        grid = discretize(scenario.pipeline, target_dx=scenario.target_dx,
                          points=[i.position for i in scenario.instruments])
        with pytest.raises(SolverError):
            hydraulics.PipeFlowSolver(scenario.pipeline, scenario.fluid, grid).steady_state(
                scenario.bc, t=0.0)
        path = self.write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"solver failure: {raised.value}"] * 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [("substeps", 2), ("theta", 0.7),
                                           ("newton_tol", 1e-8), ("staleness_polls", 3),
                                           ("locate_window_polls", 12)])
    def test_removed_shadow_settings_exit_2_naming_the_key(self, tmp_path, capsys, key, value):
        # The shadow steps once per poll on the scheme's own settings, and
        # the detector holds and locates over its own fixed windows.
        cfg = standard_config()
        cfg["rtm"][key] = value
        assert main(["validate", str(self.write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: rtm.{key}: unknown key")

    @pytest.mark.parametrize("edit,path", [
        (lambda c: c["solver"].update(theta=0.7), "solver.theta"),
        (lambda c: c["solver"].update(newton_tol=1e-8), "solver.newton_tol"),
        (lambda c: c["solver"].update(newton_max_iter=50), "solver.newton_max_iter"),
        (lambda c: c.update(output={"dump_states": True}), "output"),
    ], ids=["theta", "newton_tol", "newton_max_iter", "output"])
    def test_removed_plant_settings_exit_2_naming_the_key(self, tmp_path, capsys, edit, path):
        # The plant runs on the scheme's fixed settings; states are dumped by
        # run --dump-states alone.
        cfg = standard_config()
        edit(cfg)
        assert main(["validate", str(self.write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {path}: unknown key")

    def test_run_writes_outputs(self, tmp_path):
        cfg = standard_config(horizon=420.0)
        path = self.write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == 0
        for name in ("report.json", "telemetry.csv", "rtm_trace.csv",
                     "balance_windows.csv", "acoustic_events.csv"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "standard-leak"
        first = (out / "telemetry.csv").read_text().splitlines()[0]
        assert report["config_sha256"] in first  # provenance hash on outputs

    def test_every_csv_cell_is_a_number(self, tmp_path):
        cfg = standard_config(horizon=660.0)   # one full 600 s balance window
        cfg["availability"] = {"per_unit": 0.99}
        path = self.write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == 0
        text_columns = {"instrument", "quality", "sensor", "chain"}
        written = sorted(out.glob("*.csv"))
        assert [p.name for p in written] == [
            "acoustic_events.csv", "availability.csv", "balance_windows.csv",
            "rtm_trace.csv", "telemetry.csv",
        ]
        for csv_path in written:
            lines = [ln for ln in csv_path.read_text().splitlines() if not ln.startswith("#")]
            rows = list(csv.DictReader(lines))
            assert rows, csv_path.name
            for row in rows:
                for column, cell in row.items():
                    if column not in text_columns and cell != "":
                        float(cell)  # raises on e.g. "np.float64(0.42)"

    def test_unmeasured_balance_window_is_null(self, tmp_path):
        # The inlet meter is never good in the first 60 s window: its volume
        # and the imbalance are null in the report, which stays strict JSON,
        # and empty in the table.
        cfg = standard_config(horizon=180.0)
        cfg["balance"]["window"] = 60.0
        cfg["instruments"][0]["dropout"] = 0.999
        out = tmp_path / "out"
        assert main(["run", str(self.write_cfg(tmp_path, cfg)), "-o", str(out)]) == 0

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")
        report = json.loads((out / "report.json").read_text(), parse_constant=no_constant)
        first = report["balance"]["windows"][0]
        assert first["v_in"] is first["imbalance"] is None and first["indeterminate"]
        assert first["v_out"] > 0.0 and first["delta_inventory"] is not None
        lines = (out / "balance_windows.csv").read_text().splitlines()[1:]
        row = next(csv.DictReader(lines))
        assert row["v_in_kg"] == row["imbalance_kg"] == "" and float(row["v_out_kg"]) > 0.0

    def test_run_dump_states(self, tmp_path):
        cfg = standard_config(horizon=60.0)
        cfg["leaks"] = []
        path = self.write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out), "--dump-states"]) == 0
        lines = (out / "states.dat").read_text().splitlines()
        assert lines[1].split() == ["t", "x", "P", "V", "T", "rho"]
        # the start and every 1 s plant step of the 60 s run
        assert len({ln.split()[0] for ln in lines[2:]}) == 61
        assert main(["run", str(path), "-o", str(tmp_path / "plain")]) == 0
        assert not (tmp_path / "plain" / "states.dat").exists()

    def test_sweep_command(self, tmp_path):
        cfg = standard_config(horizon=420.0)
        path = self.write_cfg(tmp_path, cfg)
        grid = tmp_path / "grid.yaml"
        grid.write_text(yaml.safe_dump({"seed": [1, 2]}))
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--grid", str(grid), "-o", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4  # note + header + 2 cells
        declared = [row["rtm_declared"] for row in csv.DictReader(rows[1:])]
        assert len(declared) == 2 and set(declared) <= {"0", "1"}  # as every run table


    @pytest.mark.parametrize("key, values", [
        ("leaks.0.mass_rate", "0.7"),   # a string would sweep its characters
        ("seed", 5),
        ("seed", []),                   # an empty list would run no cell
    ], ids=["text", "number", "empty_list"])
    def test_sweep_values_not_a_non_empty_list_rejected(self, tmp_path, capsys, key, values):
        path = self.write_cfg(tmp_path, standard_config(horizon=420.0))
        grid = tmp_path / "grid.yaml"
        grid.write_text(yaml.safe_dump({key: values}))
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--grid", str(grid), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: {key}: sweep values must be a non-empty list")
        assert not out.exists()

    @pytest.mark.parametrize("key, message", [
        ("leaks.5.mass_rate", "leaks is a list of 1, and 5 is not one of its indices"),
        ("leaks.x.mass_rate", "leaks is a list of 1, and 'x' is not one of its indices"),
        ("seed.x", "seed is 42, not a mapping or a list"),
        (1, "a sweep path must be dotted text"),
    ], ids=["index_out_of_range", "index_not_a_number", "into_a_value", "not_text"])
    def test_sweep_path_that_misses_the_template_rejected(self, tmp_path, capsys, monkeypatch,
                                                          key, message):
        # The path is applied to the template before any cell runs, so a
        # path that cannot fit fails the sweep with its name, and no cell
        # runs or writes a row.
        runs = []
        monkeypatch.setattr(scenario_module, "run_scenario", lambda *a, **k: runs.append(a))
        path = self.write_cfg(tmp_path, standard_config(horizon=420.0))
        grid = tmp_path / "grid.yaml"
        grid.write_text(yaml.safe_dump({key: [1.0], "horizon": [360.0, 420.0]}))
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--grid", str(grid), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {key}: {message}\n"
        assert not runs and not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("fault, text, reason", [
        ("missing", None, "cannot read the file (No such file or directory)"),
        ("directory", None, "cannot read the file (Is a directory)"),
        ("malformed", "horizon: [60\n",
         "not valid YAML at line 2, column 1: expected ',' or ']', but got '<stream end>'"),
        ("list", "- horizon\n- 60\n", "expected a mapping, got list"),
        ("empty", "", "expected a mapping, got nothing"),
        # YAML would read the last of a repeated key and drop the first
        ("repeated_key", "rtm:\n  flow_threshold: 0.25\n  flow_threshold: 99.0\n",
         "not valid YAML at line 3, column 3: duplicate key 'flow_threshold'"),
    ], ids=["missing", "directory", "malformed", "list", "empty", "repeated_key"])
    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    def test_unusable_input_file_exits_2_naming_it(self, tmp_path, capsys, fault, text, reason,
                                                   command):
        # The scenario file, or sweep's --grid file, is read one way: a file
        # that cannot be read, is not YAML or holds no mapping is one line
        # that starts with its path, and no traceback.
        bad = tmp_path / f"{fault}.yaml"
        if fault == "directory":
            bad.mkdir()
        elif text is not None:
            bad.write_text(text)
        out = tmp_path / "out"
        if command == "sweep":
            scenario = self.write_cfg(tmp_path, standard_config(horizon=420.0))
            argv = ["sweep", str(scenario), "--grid", str(bad)]
        else:
            argv = [command, str(bad)]
        if command != "validate":
            argv += ["-o", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {bad}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("where, reason", [
        ("file", "File exists"), ("under_a_file", "Not a directory"),
        ("unwritable", "Permission denied")])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unusable_output_dir_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                        command, where, reason):
        # -o naming a file, a path under one, or a directory to be made in
        # one this process may not write, fails with one line that starts
        # with the path, before the scenario or any cell runs.
        runs = []
        monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: runs.append(a))
        monkeypatch.setattr(scenario_module, "run_scenario", lambda *a, **k: runs.append(a))
        path = self.write_cfg(tmp_path, standard_config())
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = {"file": blocker, "under_a_file": blocker / "out",
               "unwritable": tmp_path / "locked" / "out"}[where]
        if where == "unwritable":
            # a permission a test run as root would not meet, so the check is asked
            (tmp_path / "locked").mkdir()
            access = os.access
            monkeypatch.setattr(cli.os, "access", lambda p, mode: (
                Path(p) != tmp_path / "locked" and access(p, mode)))
        argv = [command, str(path), "-o", str(out)]
        if command == "sweep":
            grid = tmp_path / "grid.yaml"
            grid.write_text(yaml.safe_dump({"seed": [1, 2]}))
            argv[2:2] = ["--grid", str(grid)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{out}: not a usable output directory ({reason})\n"
        assert not runs and not out.is_dir()
        assert blocker.read_text() == "not a directory"


def _old_tables(frames, records):
    """telemetry.csv's and rtm_trace.csv's (header, rows) as the writers
    made them from a run's frames and RTM polls (each poll's values as
    ``RtmTrace.append`` takes them, by name): the reference the tables
    written from the columns must match byte for byte."""
    tables = {"telemetry.csv": (
        ["poll_time", "instrument", "value", "quality"],
        [[f.poll_time, *r] for f in frames for r in readings_of(f)])}
    if records:
        ids = sorted({iid for rec in records for iid in rec["normalized"]})
        tables["rtm_trace.csv"] = (
            ["poll_time", "available", "reason", "alarm"]
            + [f"norm_{i}" for i in ids] + [f"delta_{i}" for i in ids],
            [[rec["poll_time"], int(rec["reason"] is None), rec["reason"], int(rec["alarm"])]
             + [m.get(i) for m in (rec["normalized"], rec["delta"]) for i in ids]
             for rec in records])
    return tables


def _old_section_tables(doc):
    """balance_windows.csv's, acoustic_events.csv's and availability.csv's
    (header, rows) as the writers made them from the report's sections,
    each boolean as 0/1."""
    tables = {}
    if doc["balance"].get("enabled"):
        keys = ["start", "end", "v_in", "v_out", "delta_inventory", "imbalance"]
        tables["balance_windows.csv"] = (
            ["start", "end", "v_in_kg", "v_out_kg", "delta_inventory_kg", "imbalance_kg",
             "indeterminate", "alarm"],
            [[w[k] for k in keys] + [int(w["indeterminate"]), int(w["alarm"])]
             for w in doc["balance"]["windows"]])
    if doc["acoustic"].get("enabled"):
        keys = ["leak_position", "sensor", "sensor_position", "arrival_time", "amplitude"]
        tables["acoustic_events.csv"] = (
            keys + ["triggered"],
            [[ev[k] for k in keys] + [int(ev["triggered"])] for ev in doc["acoustic"]["events"]])
    if doc["availability"]:
        keys = ["name", "elements", "rank", "product", "approximate"]
        tables["availability.csv"] = (
            ["chain"] + keys[1:] + ["approximate_valid"],
            [[row[k] for k in keys] + [int(row["approximate_valid"])]
             for row in doc["availability"]])
    return tables


def _csv_text(header, rows):
    """What ``csv.writer`` writes for ``header`` and ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _old_rtm_log(records):
    """The ``rtm`` section's per-poll keys as RtmDetector.report made them
    from every poll's values."""
    by_reason = collections.Counter(r["reason"] for r in records if r["reason"] is not None)
    return {
        "polls": len(records),
        "unavailable_polls": sum(by_reason.values()),
        "unavailable_by_reason": dict(by_reason),
        "alarm_condition_polls": [r["poll_time"] for r in records if r["alarm"]],
        "indicator_trace": [{"t": r["poll_time"], "available": r["reason"] is None,
                             "reason": r["reason"], "normalized": dict(r["normalized"]),
                             "alarm": r["alarm"]}
                            for r in records],
    }


def _edited_standard(horizon, edit):
    def build():
        cfg = standard_config(horizon=horizon)
        edit(cfg)
        return cfg
    return build


def _dark_p_in(cfg):
    cfg["instruments"][2]["dropout"] = 0.999999   # the shadow never starts
    cfg["balance"]["window"] = 60.0               # so no window has its linepack


def _missing_and_suspect(cfg):
    for inst in cfg["instruments"]:
        inst["dropout"] = 0.1
    # the noisy flows move faster than this most polls
    cfg["telemetry"]["plausibility"] = {"flow": {"max_rate": 0.02}}


def _unmeasured_balance(cfg):
    cfg["balance"]["window"] = 60.0
    cfg["instruments"][0]["dropout"] = 0.999


_WRITER_CASES = {
    name: lambda name=name: yaml.safe_load(SHIPPED_STANDARD.with_name(name + ".yaml").read_text())
    for name in ("standard_leak", "gas_line", "phenomenology", "mirror_leak")
}
_WRITER_CASES.update(
    no_available_poll=_edited_standard(150.0, _dark_p_in),
    missing_and_suspect=_edited_standard(300.0, _missing_and_suspect),
    unmeasured_balance=_edited_standard(180.0, _unmeasured_balance),
)


# Ids, reasons and floats a formatter must write as json and csv.writer do:
# the characters csv quotes or doubles, a line break of each kind and
# non-ASCII text; NaN, the infinities, -0.0, subnormal and huge floats.
_AWKWARD_TEXT = st.text(st.sampled_from('a_9,"\r\n \u00e9\u20ac'), max_size=4)
_AWKWARD_FLOAT = st.none() | st.floats() | st.sampled_from(
    (math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.5e-310, 1.7976931348623157e308, 1e22))


def _poll(t, ids, reason, value, alarm=False):
    """A poll's values as ``RtmTrace.append`` takes them, by name: on an
    available poll (no ``reason``) every indicator reads ``value(i)`` as
    its delta and normalized value."""
    values = lambda: {} if reason is not None else {i: value(i) for i in ids}
    return dict(poll_time=t, reason=reason, alarm=alarm, delta=values(), normalized=values(),
                linepack=None, held={}, readings={})


@st.composite
def _columns(draw):
    """(indicator ids, frames, each poll's values) of a few polls."""
    ids = draw(st.lists(_AWKWARD_TEXT, unique=True, max_size=3))
    frames, records = [], []
    for k in range(draw(st.integers(0, 9))):
        t = draw(st.just(5.0 * k) | st.floats())
        frames.append(frame_of(t, *[
            (i, draw(_AWKWARD_FLOAT), draw(st.sampled_from((GOOD, SUSPECT, MISSING))))
            for i in ids]))
        records.append(_poll(t, ids, draw(st.none() | _AWKWARD_TEXT),
                             lambda i: draw(_AWKWARD_FLOAT), draw(st.booleans())))
    return ids, frames, records


class TestYamlParsers:
    """Input files are parsed by libyaml where PyYAML has it, to the mapping
    the pure-Python parser gives; a file libyaml refuses is reported in the
    pure-Python parser's words."""

    @staticmethod
    def _parsed_alike(blob):
        fast = yaml.load(blob, Loader=scenario_module._FAST_LOADER)
        slow = yaml.load(blob, Loader=yaml.SafeLoader)
        # repr tells 1 from 1.0 and True from 1, which == does not
        assert isinstance(slow, dict) and repr(fast) == repr(slow)
        return slow

    def test_libyaml_is_used_where_pyyaml_has_it(self):
        if yaml.__with_libyaml__:
            assert scenario_module._FAST_LOADER is yaml.CSafeLoader

    @pytest.mark.parametrize("path", sorted(SHIPPED_STANDARD.parent.glob("*.yaml"))
                             + sorted(WORKLOADS.glob("*.yaml")), ids=lambda p: p.stem)
    def test_shipped_scenarios_and_workloads(self, path):
        slow = self._parsed_alike(path.read_bytes())
        assert repr(scenario_module.read_yaml_mapping(path)[0]) == repr(slow)

    @pytest.mark.parametrize("name", ["standard", "flow_drive", "quiet_line", *_WRITER_CASES])
    def test_test_configs(self, name):
        build = {"standard": standard_config, "flow_drive": flow_drive_cfg,
                 "quiet_line": TestSolverWork._quiet_line, **_WRITER_CASES}[name]
        cfg = build()
        assert self._parsed_alike(yaml.safe_dump(cfg).encode()) == cfg

    @pytest.mark.parametrize("text", [
        "horizon: [60\n", "a: b: c\n", "key: 'unterminated\n", "\tfoo: 1\n",
        "a:\n  - 1\n - 2\n", "x: *nope\n"])
    def test_malformed_file_is_reported_in_the_python_parsers_words(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(yaml.YAMLError) as slow:
            yaml.load(text, Loader=yaml.SafeLoader)
        mark = slow.value.problem_mark
        with pytest.raises(ConfigurationError) as err:
            scenario_module.read_yaml_mapping(path)
        assert str(err.value) == (f"{path}: not valid YAML at line {mark.line + 1}, "
                                  f"column {mark.column + 1}: {slow.value.problem}")


    def test_both_parsers_refuse_a_repeated_key_and_let_a_merged_one_be_overridden(self):
        # The fast parser's error sends a file to the pure-Python one, so
        # both must refuse it.
        merged = "base: &b {a: 1, c: 2}\nx:\n  <<: *b\n  a: 3\n"
        for loader in (scenario_module._FastUniqueLoader, scenario_module._UniqueLoader):
            assert yaml.load(merged, Loader=loader) == {"base": {"a": 1, "c": 2},
                                                        "x": {"a": 3, "c": 2}}
            with pytest.raises(yaml.YAMLError) as err:
                yaml.load("seed: [1]\nseed: [2, 3]\n", Loader=loader)
            assert err.value.problem == "duplicate key 'seed'"
            assert (err.value.problem_mark.line, err.value.problem_mark.column) == (1, 0)


class TestWritersFromColumns:
    """Every file a run writes is the bytes the writers made: report.json
    that of ``json.dumps`` of the whole report, the tables written from the
    telemetry and RTM trace columns those of ``csv.writer`` on the run's
    frames and on the values each poll wrote into the trace, the other tables those of ``csv.writer`` on
    the report's sections, and states.dat one line a node of each state."""

    @pytest.mark.parametrize("case", list(_WRITER_CASES))
    def test_outputs_match_the_frame_and_record_writers(self, case, tmp_path, monkeypatch):
        frames, records, reports = [], [], []
        append, write, run = TelemetryLog.append, RtmTrace.append, cli.run_scenario
        monkeypatch.setattr(TelemetryLog, "append",
                            lambda log, frame: frames.append(frame) or append(log, frame))

        def written(trace, *args, **kwargs):
            # a copy of each value, as the caller may change its mappings later
            values = inspect.signature(write).bind(trace, *args, **kwargs).arguments
            records.append(copy.deepcopy({k: v for k, v in values.items() if k != "self"}))
            write(trace, *args, **kwargs)
        monkeypatch.setattr(RtmTrace, "append", written)
        monkeypatch.setattr(cli, "run_scenario",
                            lambda *args, **kw: reports.append(run(*args, **kw)) or reports[-1])
        # seven entries a piece, so every per-poll list is spliced from several
        monkeypatch.setattr(scenario_module, "_JSON_CHUNK", 7)
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(_WRITER_CASES[case]()))
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out), "--dump-states"]) == 0
        (report,) = reports

        doc = report.to_dict()
        if records:
            old_log = _old_rtm_log(records)
            assert json.dumps({k: doc["rtm"][k] for k in old_log}) == json.dumps(old_log)
        expected = json.dumps(doc, indent=2, sort_keys=True)
        assert (out / "report.json").read_text() == expected + "\n"
        for chunk in (1, 64, 10**9):
            monkeypatch.setattr(scenario_module, "_JSON_CHUNK", chunk)
            assert report.to_json() == expected, chunk
        note = cli._note(report.scenario_name, report.config_hash)
        tables = {**_old_tables(frames, records), **_old_section_tables(doc)}
        for name, (header, rows) in tables.items():
            assert (out / name).read_bytes() == (note + _csv_text(header, rows)).encode(), name
        assert report.states
        states = note + "t x P V T rho\n" + "".join(
            f"{st.t} {st.x[i]} {st.P[i]} {st.V[i]} {st.T[i]} {st.rho[i]}\n"
            for st in report.states for i in range(st.x.size))
        assert (out / "states.dat").read_bytes() == states.encode()
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["report.json", "states.dat", *tables])

        # each case reaches what it is named for
        qualities = {row[-1] for row in report.telemetry.rows()}
        if case == "no_available_poll":
            assert doc["rtm"]["unavailable_polls"] == doc["rtm"]["polls"] == 31
            assert tables["rtm_trace.csv"][0] == ["poll_time", "available", "reason", "alarm"]
        if case == "missing_and_suspect":
            assert qualities == {"good", "missing", "suspect"}
        if case in ("no_available_poll", "unmeasured_balance"):
            assert None in [w[k] for w in doc["balance"]["windows"] for k in ("v_in", "v_out",
                                                                             "delta_inventory")]
        if case == "standard_leak":
            assert doc["rtm"]["alarm_condition_polls"]
            assert doc["rtm"]["notes"][-1] == "estimates refined 24 polls after declaration"

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(doc=st.recursive(
               st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
               lambda inner: (st.lists(inner, max_size=7)
                              | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
               max_leaves=40),
           chunk=st.integers(1, 3))
    def test_pieces_join_to_json_dumps(self, doc, chunk):
        saved = scenario_module._JSON_CHUNK
        scenario_module._JSON_CHUNK = chunk
        try:
            pieces = "".join(scenario_module._json_pieces(doc))
        finally:
            scenario_module._JSON_CHUNK = saved
        assert pieces == json.dumps(doc, indent=2, sort_keys=True)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(columns=_columns(), chunk=st.sampled_from((1, 7, 64)))
    @example(columns=(["q"], [], []), chunk=7)                          # no poll
    @example(columns=(["f,1"], [frame_of(0.0, ("f,1", -0.0, GOOD))],
                      [_poll(0.0, ["f,1"], None, lambda i: 5e-324, True)]), chunk=1)
    @example(columns=(["f"], [frame_of(t, ("f", None, MISSING)) for t in (0.0, 5.0)],
                      [_poll(0.0, ["f"], "initializing", None),
                       _poll(5.0, ["f"], 'sus"pended,\n', None)]), chunk=64)  # none counted
    def test_column_formatters_give_json_and_csv_bytes(self, columns, chunk):
        ids, frames, records = columns
        log, trace = TelemetryLog(), RtmTrace(ids, (), ())
        for frame, rec in zip(frames, records):
            log.append(frame)
            trace.append(**rec)
        expected = _old_tables(frames, records)
        expected.setdefault("rtm_trace.csv", (["poll_time", "available", "reason", "alarm"], []))

        polls = len(records)
        for pieces, table in ((list(log.csv_pieces(chunk)), "telemetry.csv"),
                              (list(trace.csv_pieces(chunk)), "rtm_trace.csv")):
            assert "".join(pieces) == _csv_text(*expected[table]), table
            assert len(pieces) == 1 + -(-polls // chunk), table   # header, then chunk polls a piece

        entries = _old_rtm_log(records)["indicator_trace"]
        assert "".join(IndicatorTrace(trace).json_pieces(0, chunk)) == json.dumps(
            entries, indent=2, sort_keys=True)
        saved = scenario_module._JSON_CHUNK
        scenario_module._JSON_CHUNK = chunk
        try:
            nested = "".join(scenario_module._json_pieces(
                {"rtm": {"indicator_trace": IndicatorTrace(trace), "polls": polls}}))
        finally:
            scenario_module._JSON_CHUNK = saved
        assert nested == json.dumps({"rtm": {"indicator_trace": entries, "polls": polls}},
                                    indent=2, sort_keys=True)


class TestSpecInvariantsEndToEnd:
    def test_zero_noise_no_leak_run_marks_nothing_suspect(self):
        cfg = standard_config(horizon=300.0)
        set_noise_scale(cfg, 0.0)
        cfg["leaks"] = []
        cfg["telemetry"]["plausibility"] = {
            "pressure": {"min": 0.0, "max": 5.0e6, "max_rate": 1.0e5},
            "flow": {"min": -150.0, "max": 150.0, "max_rate": 50.0},
            "temperature": {"min": 200.0, "max": 400.0},
        }
        report = run_scenario(scenario_from_dict(cfg))
        for row in report.telemetry.rows():
            assert row[-1] == "good", row

    @pytest.mark.parametrize("flatline_polls", [65, 66, 100])
    def test_flatline_rule_sees_as_many_polls_as_it_asks_for(self, flatline_polls):
        # Noiseless and leak-free, the end pressures read the same value every
        # poll: the rule flags them at poll n - 1, however long n is.
        cfg = standard_config(horizon=500.0)
        set_noise_scale(cfg, 0.0)
        cfg["leaks"] = []
        cfg["telemetry"]["plausibility"] = {"pressure": {"flatline_polls": flatline_polls}}
        report = run_scenario(scenario_from_dict(cfg))
        flagged = [(t, iid) for t, iid, _, quality in report.telemetry.rows()
                   if quality == "suspect"]
        assert flagged[:2] == [(5.0 * (flatline_polls - 1), "p_in"),
                               (5.0 * (flatline_polls - 1), "p_out")]

    @staticmethod
    def _flow_out_lost_for_70_polls(monkeypatch, plausibility):
        # Noiseless and leak-free; flow_out reads nothing for polls 1-70, then
        # 1 kg/s above the truth, beyond max_rate times the 355 s gap.
        def lossy_sample(state, instruments, *args, **kwargs):
            frame = sample(state, instruments, *args, **kwargs)
            poll = round(frame.poll_time / 5.0)
            if not 1 <= poll <= 71:
                return frame
            value = frame.reading("flow_out")[0] + 1.0
            lost = ("flow_out", *((None, "missing") if poll <= 70 else (value, "good")))
            return frame_of(frame.poll_time, *[
                lost if r[0] == "flow_out" else r for r in readings_of(frame)])

        monkeypatch.setattr(scenario_module, "sample", lossy_sample)
        cfg = standard_config(horizon=360.0)
        set_noise_scale(cfg, 0.0)
        cfg["leaks"] = []
        cfg["telemetry"]["plausibility"] = plausibility
        return run_scenario(scenario_from_dict(cfg)).telemetry

    def test_rate_rule_looks_back_past_a_long_gap(self, monkeypatch):
        log = self._flow_out_lost_for_70_polls(monkeypatch, {"flow": {"max_rate": 1.0e-3}})
        assert log.times[71] == 355.0
        quality = {iid: q for t, iid, _, q in log.rows() if t == 355.0}
        assert quality["flow_out"] == "suspect"
        assert quality["flow_in"] == "good"

    def test_pressure_flatline_rule_leaves_the_flow_look_back(self, monkeypatch):
        flows = lambda log: [row for row in log.rows() if row[1].startswith("flow")]
        rate = {"flow": {"max_rate": 1.0e-3}}
        plain = self._flow_out_lost_for_70_polls(monkeypatch, rate)
        flat = self._flow_out_lost_for_70_polls(
            monkeypatch, {**rate, "pressure": {"flatline_polls": 100}})
        assert flows(flat) == flows(plain)

    def test_near_critical_gas_rejected_at_load(self):
        cfg = standard_config()
        cfg["fluid"] = {
            "kind": "gas", "R": 500.0,
            "critical_pressure": 1.0e6, "critical_temperature": 305.0,
            "specific_heat": 2200.0, "sound_speed": 380.0,
        }
        with pytest.raises(ConfigurationError, match=r"^boundaries: operating point \(P=1e\+06 Pa"):
            scenario_from_dict(cfg)

    def test_balance_never_reports_location(self):
        report = run_scenario(scenario_from_dict(standard_config()))
        for w in report.balance["windows"]:
            assert "location" not in w

    def test_rtm_beats_balance_on_the_standard_leak(self):
        report = run_scenario(scenario_from_dict(standard_config()))
        assert report.balance["first_alarm_time"] is not None
        assert report.rtm["declared_time"] <= report.balance["first_alarm_time"]


def _drawdown_cfg():
    """The standard line, leak-free, whose outlet draws twice its steady
    flow from t = 180 s to 220 s, more than the inlet head can push: the
    line drains below zero pressure and the plant stops mid-run."""
    cfg = standard_config(horizon=600.0)
    cfg["leaks"] = []
    cfg["boundaries"]["outlet"] = {
        "kind": "flow", "series": [[0.0, 70.5], [180.0, 70.5], [220.0, 150.0]],
    }
    return cfg


class TestPartialFailure:
    def test_mid_run_solver_failure_yields_partial_report(self):
        report = run_scenario(scenario_from_dict(_drawdown_cfg()))
        assert report.run["solver_failure"] is not None
        assert "node" in report.run["solver_failure"]
        assert 0 < report.run["polls"] < 600.0 / 5.0 + 1  # stopped early, kept what it had
        assert not report.rtm["declared"]

    def test_outlet_slam_names_column_separation(self):
        """Closing the outlet in 1 s (70.5 -> 0 kg/s at t=100 s) pulls the
        line below zero pressure: the run stops and names the regime."""
        cfg = standard_config(horizon=300.0)
        cfg["leaks"] = []
        cfg["boundaries"]["outlet"] = {
            "kind": "flow", "series": [[0.0, 70.5], [100.0, 70.5], [101.0, 0.0]],
        }
        report = run_scenario(scenario_from_dict(cfg))
        failure = report.run["solver_failure"]
        assert failure.startswith("InfeasibleStateError: P = ")
        assert failure.endswith("pressure below zero: column separation is outside the model")
        assert 0 < report.run["polls"] < 300.0 / 5.0 + 1

    def test_verdict_before_a_solver_failure_stands(self, tmp_path, capsys):
        """Pressures in bar read as Pa: the RTM declares at 65 s, before the
        leak opens at 120 s, and the plant then stops on column separation.
        The detectors only see frames, and a field-side failure stops the
        SCADA, so the verdict stands; it detected no leak, so it has no
        latency and no estimate errors, and no acoustic arrival is heard."""
        cfg = yaml.safe_load(SHIPPED_STANDARD.read_text())
        cfg["boundaries"]["inlet"]["value"] = 10.0
        cfg["boundaries"]["outlet"]["value"] = 6.7
        path = tmp_path / "bar_as_pa.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == 1
        assert "column separation" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        rtm = report["rtm"]
        assert rtm["declared"] and rtm["declared_time"] == 65.0
        assert report["combined"]["declared_time"] == 65.0
        assert report["run"]["solver_failure"].endswith(
            "pressure below zero: column separation is outside the model")
        assert report["run"]["polls"] == rtm["polls"] == 24
        # Nothing the run reached measures the leak, which opens after it stops.
        assert report["metrics"] == {}
        last_poll = rtm["indicator_trace"][-1]["t"]
        assert last_poll == 115.0
        assert not [e for e in report["acoustic"]["events"] if e["arrival_time"] > last_poll]
        unavailable = [e for e in rtm["indicator_trace"] if not e["available"]]
        assert len(unavailable) == rtm["unavailable_polls"] == 5
        assert all(e["reason"] and e["normalized"] == {} for e in unavailable)
        assert rtm["unavailable_by_reason"] == {
            "awaiting good boundary readings": 3,
            "boundary readings stale; detection suspended": 2}
        with open(out / "rtm_trace.csv", newline="") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        assert [r["reason"] for r in rows] == [e["reason"] or "" for e in rtm["indicator_trace"]]

    def test_failed_locate_scan_keeps_the_alarm(self, monkeypatch):
        """The locate scan's warm-started steady solves fail, at the
        declaration and at the refinement: the run goes on, the alarm
        stands as it does with a working scan, and only the location is
        missing, with the reason in its notes."""
        cfg = standard_config(horizon=420.0, seed=2025)
        ref = run_scenario(scenario_from_dict(cfg)).rtm
        real = hydraulics.PipeFlowSolver.steady_state
        stalled = "Newton stalled (line search failed with a fresh Jacobian)"

        def failing(self, bc, t=0.0, leaks=(), initial_guess=None):
            if initial_guess is not None:
                raise SolverError(stalled)
            return real(self, bc, t, leaks, initial_guess)

        monkeypatch.setattr(hydraulics.PipeFlowSolver, "steady_state", failing)
        report = run_scenario(scenario_from_dict(cfg))
        rtm = report.rtm
        assert report.run["solver_failure"] is None
        assert report.run["polls"] == rtm["polls"] == ref["polls"] == 85
        assert rtm["declared"] and rtm["declared_time"] == ref["declared_time"] == 165.0
        # The shadow's Newton route after a scan differs (the scan leaves no
        # steady factors in its place), within the Newton tolerance.
        assert rtm["size_estimate"] == pytest.approx(ref["size_estimate"], rel=1e-9)
        assert ref["location_estimate"] is not None
        assert rtm["location_estimate"] is None and not rtm["location_ambiguous"]
        assert rtm["notes"] == [f"location unavailable: {stalled}",
                                "estimates refined 24 polls after declaration",
                                f"location not refined: {stalled}"]

    def test_cli_exit_code_on_solver_failure(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(_drawdown_cfg()))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("target_dx,dip", [(None, False), (600.0, False), (600.0, True)],
                             ids=["shipped_grid", "coarse_grid", "coarse_grid_dip"])
    def test_reverse_flow_is_rejected_before_newton(self, tmp_path, capsys, target_dx, dip):
        # 30 km of 0.1 m line whose far end sits 39.53 m up: the static head,
        # about 388 kPa, beats the 108 kPa drive, so the flow would run toward
        # the inlet, where the temperature is held.  On the shipped 100 m grid
        # the converged state's check said so; on a 600 m grid Newton stalled
        # first.
        cfg = yaml.safe_load(SHIPPED_STANDARD.read_text())
        cfg["pipeline"].update(length=30000.0, diameter=0.1, elevation=[
            [0.0, 0.0], *([[15000.0, -33.6]] if dip else []), [30000.0, 39.53]])
        for item in cfg["instruments"] + cfg["acoustic"]["sensors"]:
            if item["position"] > 0.0:
                item["position"] = 30000.0
        cfg["boundaries"]["inlet"]["value"] = 701287.0
        cfg["boundaries"]["outlet"]["value"] = 592876.0
        del cfg["leaks"]
        if target_dx is not None:
            cfg["solver"]["target_dx"] = target_dx
        with pytest.raises(InfeasibleScenarioError, match="runs from the outlet to the inlet"):
            start_plant(scenario_from_dict(cfg))
        path = tmp_path / "reverse.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["validate", str(path)]) == 1
        assert "runs from the outlet to the inlet" in capsys.readouterr().err

    def test_flow_against_the_temperature_end_is_rejected_at_start(self, tmp_path, capsys):
        # A 60 m rise outweighs the 3.3 bar drive: the steady flow runs from
        # the outlet to the inlet, where the temperature is held.
        cfg = standard_config()
        cfg["pipeline"]["elevation"] = [[0.0, 0.0], [10000.0, 60.0]]
        with pytest.raises(InfeasibleScenarioError, match="runs from the outlet to the inlet"):
            run_scenario(scenario_from_dict(cfg))
        path = tmp_path / "uphill.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "inlet pressure 1000000 Pa" in err and "outlet pressure 670000 Pa" in err
        assert "static head of the 60 m rise" in err


_FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
DEMOS = Path(__file__).parent.parent / "demos" / "scenarios"


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when the body runs past ``seconds``."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@_FORKS
class TestFieldSideTransports:
    """The field side in a forked child and in the run's own process give
    the same bytes; the transport is picked by the CPU/fork check alone."""

    @staticmethod
    def _outputs(path, out, monkeypatch, forked):
        monkeypatch.setattr(scenario_module, "_may_fork", lambda: forked)
        assert main(["run", str(path), "--dump-states", "-o", str(out)]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    # Two shipped scenarios, and the writer cases whose frames cross the pipe
    # with missing and suspect readings, and with detection suspended.
    @pytest.mark.parametrize("name", ["standard_leak.yaml", "gas_line.yaml", "missing_and_suspect",
                                      "no_available_poll", "unmeasured_balance"])
    def test_outputs_byte_identical(self, name, tmp_path, monkeypatch):
        path = DEMOS / name
        if name in _WRITER_CASES:
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(_WRITER_CASES[name]()))
        here = self._outputs(path, tmp_path / "here", monkeypatch, False)
        forked = self._outputs(path, tmp_path / "forked", monkeypatch, True)
        assert {"report.json", "telemetry.csv", "rtm_trace.csv", "states.dat"} <= set(here)
        assert list(here) == list(forked)
        for f in here:
            assert here[f] == forked[f], f

    def test_no_fork_beside_another_thread(self):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert not scenario_module._may_fork()
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()

    def test_no_fork_in_a_daemonic_worker(self):
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        worker = ctx.Process(target=lambda: writer.send(scenario_module._may_fork()),
                             daemon=True)
        worker.start()
        try:
            assert reader.poll(60) and reader.recv() is False
        finally:
            worker.join(60)
            reader.close()
            writer.close()
        assert worker.exitcode == 0

    @staticmethod
    def _run_both(cfg, monkeypatch):
        budget = hydraulics._NEWTON_MAX_ITER
        reports = []
        for forked in (False, True):
            monkeypatch.setattr(hydraulics, "_NEWTON_MAX_ITER", budget)
            monkeypatch.setattr(scenario_module, "_may_fork", lambda: forked)
            reports.append(run_scenario(scenario_from_dict(copy.deepcopy(cfg)), dump_states=True))
        return reports

    @staticmethod
    def _assert_same(here, forked):
        assert here.to_json() == forked.to_json()
        assert repr(trace_columns(here.rtm_trace)) == repr(trace_columns(forked.rtm_trace))
        assert repr(list(here.telemetry.rows())) == repr(list(forked.telemetry.rows()))
        assert len(here.states) == len(forked.states)
        for a, b in zip(here.states, forked.states):
            assert a.t == b.t
            for f in ("P", "V", "T", "rho"):
                assert getattr(a, f).tobytes() == getattr(b, f).tobytes()

    def test_report_keeps_each_poll_as_columns_and_no_frame(self, monkeypatch):
        # The report keeps each poll's readings once, in its telemetry
        # columns, and the RTM's trace of the same polls; no frame outlives
        # the run, in either transport: only ``frames`` and getrefcount's
        # argument refer to each (a frame is a tuple, which takes no weak
        # reference).
        frames = []
        observe = RtmDetector.observe
        monkeypatch.setattr(RtmDetector, "observe",
                            lambda det, frame: frames.append(frame) or observe(det, frame))
        reports = self._run_both(standard_config(horizon=150.0), monkeypatch)
        refs = [sys.getrefcount(frames[k]) for k in range(len(frames))]
        assert refs == [2] * 62
        for report in reports:
            assert len(report.rtm_trace) == len(report.telemetry) == 31
            assert report.rtm_trace.times == report.telemetry.times

    def test_plant_failure_mid_run(self, monkeypatch):
        here, forked = self._run_both(_drawdown_cfg(), monkeypatch)
        assert "node" in here.run["solver_failure"]
        assert 2 < here.run["polls"] < 121
        self._assert_same(here, forked)

    def test_one_newton_iteration_after_the_steady_starts(self, monkeypatch):
        # Both steady starts get the full Newton budget; every step after
        # them gets one iteration, so the run stops early on whichever side
        # fails first, with the field side free to run ahead.
        advance = hydraulics.PipeFlowSolver.advance

        def one_iteration(self, *args, **kwargs):
            hydraulics._NEWTON_MAX_ITER = 1
            return advance(self, *args, **kwargs)

        monkeypatch.setattr(hydraulics.PipeFlowSolver, "advance", one_iteration)
        cfg = standard_config(horizon=300.0)
        pipeline = scenario_from_dict(cfg).pipeline
        reports = self._run_both(cfg, monkeypatch)
        for report in reports:
            assert "in 1 iterations" in report.run["solver_failure"]
            # the plant's record stops at the last poll observed, 5 steps a poll
            assert len(report.states) == 1 + 5 * (report.run["polls"] - 1) < 300
            assert report.mass_ledger["final_linepack_kg"] == linepack(report.states[-1], pipeline)
            assert report.mass_ledger["max_step_residual_kg"] > 0.0
        self._assert_same(*reports)


@_FORKS
class TestFieldSideLifecycle:
    """A forked field side is joined on every path, and no path hangs."""

    @pytest.fixture(autouse=True)
    def forked(self, monkeypatch):
        monkeypatch.setattr(scenario_module, "_may_fork", lambda: True)
        with _deadline(60):
            yield
        assert multiprocessing.active_children() == []

    def test_normal_run(self):
        report = run_scenario(scenario_from_dict(standard_config(horizon=180.0)))
        assert report.run["solver_failure"] is None and report.run["polls"] == 37

    @staticmethod
    def _failing_sample(monkeypatch, exc):
        real = scenario_module.sample

        def sample(state, *args, **kwargs):
            if state.t >= 15.0:
                raise exc
            return real(state, *args, **kwargs)
        monkeypatch.setattr(scenario_module, "sample", sample)

    def test_field_side_exception_is_raised_with_its_type(self, monkeypatch):
        self._failing_sample(monkeypatch, ZeroDivisionError("sampled at poll 3"))
        with pytest.raises(ZeroDivisionError, match="sampled at poll 3"):
            run_scenario(scenario_from_dict(standard_config(horizon=180.0)))

    def test_unpicklable_field_side_exception_keeps_its_name(self, monkeypatch):
        class Unpicklable(Exception):
            def __init__(self, message, code):
                super().__init__(message)

        self._failing_sample(monkeypatch, Unpicklable("sampled at poll 3", 7))
        with pytest.raises(RuntimeError, match="Unpicklable: sampled at poll 3"):
            run_scenario(scenario_from_dict(standard_config(horizon=180.0)))

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_detector_side_exception_stops_the_child(self, exc, monkeypatch):
        real = RtmDetector.observe
        polls = []

        def observe(det, frame):
            polls.append(frame.poll_time)
            if len(polls) == 6:
                raise exc("observed poll 5")
            return real(det, frame)
        monkeypatch.setattr(RtmDetector, "observe", observe)
        # An hour of frames overfills the pipe: a child left running would
        # block on it for good.
        with pytest.raises(exc, match="observed poll 5"):
            run_scenario(scenario_from_dict(standard_config(horizon=3600.0)))

    def test_child_that_exits_without_its_closing_record(self, monkeypatch):
        monkeypatch.setattr(scenario_module, "_produce", lambda *args: os._exit(3))
        with pytest.raises(RuntimeError, match="^the field-side process exited with code 3$"):
            run_scenario(scenario_from_dict(standard_config(horizon=180.0)))

    def test_run_stays_in_process_when_fork_fails(self, monkeypatch):
        starts = []

        def no_process(self):
            starts.append(self)
            raise OSError("no process to be had")
        cfg = standard_config(horizon=180.0)
        forked = run_scenario(scenario_from_dict(cfg))
        monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", no_process)
        assert run_scenario(scenario_from_dict(cfg)).to_json() == forked.to_json()
        assert len(starts) == 1

    def test_child_exits_when_the_parent_stops_reading(self):
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        endless = itertools.repeat(scenario_module._Poll(None, (0.0, 0.0, 0.0), [0.0] * 1000))
        child = ctx.Process(target=scenario_module._produce, args=(endless, reader, writer))
        child.start()
        writer.close()
        reader.close()
        try:
            child.join(60)
            assert child.exitcode == 0
        finally:
            child.kill()
            child.join()


class TestSimpleBalanceStandalone:
    def test_simple_mode_runs_without_rtm(self):
        cfg = standard_config(horizon=900.0)
        set_noise_scale(cfg, 0.0)
        cfg["rtm"] = {"enabled": False}
        cfg["balance"] = {"window": 600.0, "threshold": 150.0, "mode": "simple"}
        cfg["leaks"] = [{"position": 5000.0, "start_time": 60.0, "mass_rate": 1.0}]
        report = run_scenario(scenario_from_dict(cfg))
        assert not report.rtm["enabled"]
        # simple mode assumes steady inventory: the leak shows as pure meter loss
        w = report.balance["windows"][0]
        assert w["delta_inventory"] == 0.0
        assert w["imbalance"] == pytest.approx(1.0 * 540.0, rel=0.08)
        assert report.balance["first_alarm_time"] is not None

    def test_report_carries_indicator_trace(self):
        report = run_scenario(scenario_from_dict(standard_config(horizon=300.0)))
        trace = report.rtm["indicator_trace"]
        assert len(trace) == report.rtm["polls"]
        warm = [e for e in trace if e["normalized"].get("flow_in") is not None]
        assert warm, "smoothed indicators never warmed up"


class TestSolverWork:
    """A noise-free guard on the Newton path: the exact work one short run
    asks of each solver.  A change that adds a factorization, a solve or a
    residual evaluation fails here, where wall-clock timings mean nothing."""

    @staticmethod
    def _quiet_line():
        """The benchmark's quiet_day line (no leak, default thresholds, dt 5
        s on a 200 m grid, balance on, acoustic off) for 60 polls."""
        cfg = standard_config(seed=2024, horizon=300.0)
        cfg["leaks"] = []
        cfg["solver"] = {"dt": 5.0, "target_dx": 200.0}
        for key in ("flow_threshold", "pressure_threshold"):
            del cfg["rtm"][key]
        cfg["acoustic"] = {"enabled": False}
        return cfg

    def test_solver_work_is_pinned(self, monkeypatch):
        monkeypatch.setattr(scenario_module, "_may_fork", lambda: False)
        solver_cls = hydraulics.PipeFlowSolver
        solvers = []            # in creation order: the plant, then the shadow
        owner = {}              # Factors -> the solver that made them
        counts = collections.Counter()
        role = lambda solver: ("plant", "shadow")[solvers.index(solver)]
        init, build, factor = solver_cls.__init__, solver_cls._build_residual, solver_cls._factor
        solve = hydraulics.lapack.dgbtrs

        def recorded_init(self, *args):
            init(self, *args)
            solvers.append(self)

        def counted_build(self, *args):
            res = build(self, *args)

            def evaluate(u):
                counts[role(self), "residuals"] += 1
                return res(u)
            return evaluate

        def counted_factor(self, *args):
            lu = factor(self, *args)
            owner[lu] = role(self)
            counts[role(self), "factorizations"] += 1
            return lu

        def counted_solve(lu, *args, **kwargs):
            counts[owner[lu], "solves"] += 1
            return solve(lu, *args, **kwargs)

        monkeypatch.setattr(solver_cls, "__init__", recorded_init)
        monkeypatch.setattr(solver_cls, "_build_residual", counted_build)
        monkeypatch.setattr(solver_cls, "_factor", counted_factor)
        monkeypatch.setattr(hydraulics.lapack, "dgbtrs", counted_solve)
        report = run_scenario(scenario_from_dict(self._quiet_line()))

        assert len(solvers) == 2 and not report.rtm["declared"]
        assert report.run["solver_failure"] is None
        # Past its steady start, each side steps once per poll: the plant in
        # one Newton iteration, the shadow under its noisy boundary readings
        # in three.
        assert dict(counts) == {
            ("plant", "factorizations"): 2, ("plant", "solves"): 62, ("plant", "residuals"): 141,
            ("shadow", "factorizations"): 2, ("shadow", "solves"): 181,
            ("shadow", "residuals"): 260,
        }


class TestBenchmarkHooks:
    """The names the benchmark's tracer patches exist, its ``cli.write``
    span sees the command line's writer, and uninstalling it puts every
    patched name back."""

    def test_traced_run_times_the_writer_and_restores_every_name(self, tmp_path):
        spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                      WORKLOADS.parent / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(standard_config(horizon=300.0)))
        tracer = spans.Tracer()
        tracer.install()   # a name it patches that is gone raises here
        patched = list(tracer._patches)
        try:
            argv = ["run", str(path), "-o", str(tmp_path / "out")]
            assert tracer.span("linewatch.run", main, argv) == 0
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics("linewatch.run")
        assert layers["cli.write.s"][0] > 0
        assert layers["hydraulics.linalg.solves"][0] > 0
        assert {(owner, attr) for owner, attr, _ in patched} >= {
            (cli, "write_files"), (scenario_module.RunReport, "to_json")}
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original, (owner, attr)


class TestRunMemory:
    """What a run keeps of each poll is a few hundred bytes of plain
    numbers, so its memory grows slowly with its length."""

    @staticmethod
    def _peak(horizon, tmp_path, balance_window=600.0):
        """(polls, tracemalloc's peak in bytes, and the most the writers add
        to what the run holds) of one in-process run of the quiet line with
        its files written by the command line's own writer."""
        cfg = TestSolverWork._quiet_line()
        cfg["horizon"] = horizon
        cfg["balance"]["window"] = balance_window
        scenario = scenario_from_dict(cfg)
        tracemalloc.start()
        try:
            report = run_scenario(scenario)
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            cli.write_files(tmp_path, cli.run_files(report))
            write_peak = tracemalloc.get_traced_memory()[1]
            return len(report.telemetry), max(run_peak, write_peak), write_peak - held
        finally:
            tracemalloc.stop()

    def test_peak_grows_at_most_1_kb_per_poll(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scenario_module, "_may_fork", lambda: False)
        self._peak(60.0, tmp_path)   # what a first run loads is not the run's
        short_polls, short, _ = self._peak(600.0, tmp_path)
        long_polls, long, _ = self._peak(2400.0, tmp_path)
        assert (short_polls, long_polls) == (121, 481)
        per_poll = (long - short) / (long_polls - short_polls)
        assert per_poll <= 1024.0, f"{per_poll:.0f} bytes per poll"

    def test_writers_hold_a_few_polls_at_once(self, tmp_path, monkeypatch):
        # report.json and the tables are written a bounded number of polls
        # at a time, so what writing adds to the run's memory does not grow
        # with the run: about 2 bytes a poll.  Any of the three per-poll
        # outputs joined whole adds 550 to 1000.
        monkeypatch.setattr(scenario_module, "_may_fork", lambda: False)
        self._peak(60.0, tmp_path)
        short_polls, _, short = self._peak(600.0, tmp_path)
        long_polls, _, long = self._peak(2400.0, tmp_path)
        per_poll = (long - short) / (long_polls - short_polls)
        assert per_poll <= 32.0, f"{per_poll:.0f} bytes per poll"

    def test_balance_window_keeps_no_frames(self, tmp_path, monkeypatch):
        # The open balance window holds four numbers a poll in plain columns,
        # not the frames nor a Python float per reading: a window of the
        # whole run peaks little above a 600 s one.
        monkeypatch.setattr(scenario_module, "_may_fork", lambda: False)
        self._peak(60.0, tmp_path)   # what a first run loads is not the run's
        polls, short, _ = self._peak(5400.0, tmp_path, balance_window=600.0)
        long_polls, long, _ = self._peak(5400.0, tmp_path, balance_window=5400.0)
        assert polls == long_polls == 1081
        assert long - short <= 100e3, f"{(long - short) / 1e3:.0f} kB more"
