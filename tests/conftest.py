import copy

import pytest

from linewatch.fluid import FluidModel, LiquidEos
from linewatch.network import PipelineModel


@pytest.fixture
def water_like():
    return FluidModel(
        eos=LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4),
        c=2000.0,
        sound_speed_hint=1414.2,
    )


@pytest.fixture
def ten_km_line():
    return PipelineModel(length=10000.0, diameter=0.3, friction_factor=0.02,
                         U=2.0, Tg=288.15)


_STANDARD = {
    "name": "standard-leak",
    "seed": 42,
    "horizon": 900.0,
    "fluid": {
        "kind": "liquid",
        "rho0": 1000.0,
        "P0": 1.0e5,
        "T0": 300.0,
        "bulk_modulus": 2.0e9,
        "alpha": -2.0e-4,
        "specific_heat": 2000.0,
        "sound_speed": 1414.2,
    },
    "pipeline": {
        "length": 10000.0,
        "diameter": 0.3,
        "friction_factor": 0.02,
        "U": 2.0,
        "ground_temperature": 288.15,
    },
    "instruments": [
        {"id": "flow_in", "kind": "flow", "position": 0.0, "sigma": 0.2},
        {"id": "flow_out", "kind": "flow", "position": 10000.0, "sigma": 0.2},
        {"id": "p_in", "kind": "pressure", "position": 0.0, "sigma": 2000.0},
        {"id": "p_out", "kind": "pressure", "position": 10000.0, "sigma": 2000.0},
        {"id": "t_in", "kind": "temperature", "position": 0.0, "sigma": 0.1},
        {"id": "t_out", "kind": "temperature", "position": 10000.0, "sigma": 0.1},
    ],
    "boundaries": {
        "inlet": {"kind": "pressure", "value": 1.0e6},
        "outlet": {"kind": "pressure", "value": 6.7e5},
        "temperature": {"value": 300.0},
    },
    "leaks": [{"position": 5000.0, "start_time": 120.0, "mass_rate": 0.70}],
    "telemetry": {"poll_interval": 5.0},
    "solver": {"dt": 1.0, "target_dx": 100.0},
    "rtm": {
        "drive": "pressure",
        "flow_threshold": 0.25,
        "pressure_threshold": 2500.0,
        "consecutive_polls": 3,
        "min_indicators": 2,
        "smoothing_polls": 8,
        "refine_after_polls": 24,
    },
    "balance": {"window": 600.0, "threshold": 150.0, "mode": "model"},
    "acoustic": {
        "initial_amplitude": 5.0e4,
        "attenuation": 1.0e-4,
        "sensors": [
            {"id": "ac_in", "position": 0.0, "threshold": 5.0e3, "resolution": 0.01},
            {"id": "ac_out", "position": 10000.0, "threshold": 5.0e3, "resolution": 0.01},
        ],
    },
}


def standard_config(**overrides):
    """Deep copy of the standard desk scenario, with top-level overrides."""
    cfg = copy.deepcopy(_STANDARD)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def set_noise_scale(cfg, scale):
    """Scale every instrument sigma relative to the standard 0.2%-of-span set."""
    for inst in cfg["instruments"]:
        inst["sigma"] = inst.get("sigma", 0.0) * scale
    return cfg


def flow_drive_cfg():
    """Noiseless 2% leak at 4 km seen by a flow-driven shadow model, with a
    mid-line pressure indicator at 8 km."""
    cfg = standard_config(seed=0, horizon=600.0)
    set_noise_scale(cfg, 0.0)
    cfg["boundaries"]["inlet"] = {"kind": "flow", "value": 70.35}
    cfg["instruments"].append(
        {"id": "p_mid", "kind": "pressure", "position": 8000.0, "sigma": 0.0})
    cfg["leaks"] = [{"position": 4000.0, "start_time": 120.0, "mass_rate": 1.4}]
    cfg["rtm"].update(drive="flow", pressure_threshold=4.0e4, flow_threshold=0.5,
                      smoothing_polls=4)
    # A flow-driven shadow's inventory change is the metered imbalance, so
    # only the simple balance can see the leak.
    cfg["balance"]["mode"] = "simple"
    return cfg
