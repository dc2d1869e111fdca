"""Negative-pressure-wave simulation and arrival-time leak localization.

The rarefaction front from a sudden leak is treated kinematically: it
leaves the leak in both directions at the wave speed and decays
exponentially with distance.  This channel is deliberately decoupled from
the PDE solver, whose numerical dispersion would smear sharp fronts at
desk-scale grid spacings.
"""

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .hydraulics import LeakEvent

__all__ = [
    "AcousticSensor",
    "WaveModel",
    "ArrivalRecord",
    "LocalizationEstimate",
    "propagate",
    "localize",
    "triggered_pair",
    "report",
]


@dataclass(frozen=True)
class AcousticSensor:
    id: str
    position: float              # m from inlet
    trigger_threshold: float     # Pa of wave amplitude needed to trigger
    timestamp_resolution: float = 0.0  # s; 0 means exact timing

    def __post_init__(self):
        if self.trigger_threshold <= 0:
            raise ConfigurationError(f"sensor {self.id}: trigger_threshold must be > 0")
        if self.timestamp_resolution < 0:
            raise ConfigurationError(f"sensor {self.id}: timestamp_resolution must be >= 0")


@dataclass(frozen=True)
class WaveModel:
    speed: float               # m/s
    attenuation: float = 0.0   # 1/m; amplitude falls as exp(-attenuation * distance)

    def __post_init__(self):
        if self.speed <= 0:
            raise ConfigurationError(f"wave speed must be > 0, got {self.speed}")
        if self.attenuation < 0:
            raise ConfigurationError(f"attenuation must be >= 0, got {self.attenuation}")


@dataclass(frozen=True)
class ArrivalRecord:
    sensor_id: str
    position: float
    arrival_time: float   # s, quantized to the sensor's timestamp resolution
    amplitude: float      # Pa at the sensor
    triggered: bool


@dataclass(frozen=True)
class LocalizationEstimate:
    position: float        # m, clamped into the sensor bracket
    raw_position: float    # m, before clamping
    out_of_bracket: bool   # clamping was applied; leak likely outside the pair


def propagate(leak: LeakEvent, initial_amplitude, sensors, wave: WaveModel):
    """Arrival time, received amplitude, and trigger flag per sensor."""
    if initial_amplitude <= 0:
        raise ConfigurationError("initial wave amplitude must be > 0")
    records = []
    for s in sensors:
        distance = abs(s.position - leak.position)
        arrival = leak.start_time + distance / wave.speed
        if s.timestamp_resolution > 0:
            arrival = round(arrival / s.timestamp_resolution) * s.timestamp_resolution
        amplitude = initial_amplitude * math.exp(-wave.attenuation * distance)
        records.append(
            ArrivalRecord(
                sensor_id=s.id,
                position=s.position,
                arrival_time=arrival,
                amplitude=amplitude,
                triggered=amplitude >= s.trigger_threshold,
            )
        )
    return records


def localize(x1, t1, x2, t2, speed) -> LocalizationEstimate:
    """Leak position from two triggered sensors at x1 < x2 with times t1, t2.

    x = (x1+x2)/2 + speed*(t1-t2)/2, clamped into [x1, x2]; a nonzero clamp
    is flagged (the leak is probably outside the sensor pair).
    """
    if not x1 < x2:
        raise ConfigurationError(f"sensor positions must satisfy x1 < x2, got {x1}, {x2}")
    raw = 0.5 * (x1 + x2) + 0.5 * speed * (t1 - t2)
    clamped = min(max(raw, x1), x2)
    return LocalizationEstimate(
        position=clamped, raw_position=raw, out_of_bracket=clamped != raw
    )


def _latency(leak, records):
    delays = [r.arrival_time - leak.start_time for r in records if r.triggered]
    return min(delays) if delays else None


def triggered_pair(records):
    """The two earliest-triggered sensors ordered by position, or None.

    These are the natural localization pair: the first arrivals come from
    the sensors nearest the leak, which bracket it when coverage allows.
    """
    hit = sorted((r for r in records if r.triggered), key=lambda r: (r.arrival_time, r.position))
    if len(hit) < 2:
        return None
    a, b = sorted(hit[:2], key=lambda r: r.position)
    return a, b


def report(leaks, initial_amplitude, sensors, wave: WaveModel, until=math.inf):
    """The ``acoustic`` section of a run report: every sensor's arrival for
    each leak, and per leak the detection latency and the localization
    from its earliest-triggered pair.  Arrivals after ``until`` (s), the
    end of the run, are left out."""
    events, detections = [], []
    for leak in leaks:
        records = [r for r in propagate(leak, initial_amplitude, sensors, wave)
                   if r.arrival_time <= until]
        loc = None
        pair = triggered_pair(records)
        if pair is not None:
            a, b = pair
            est = localize(a.position, a.arrival_time, b.position, b.arrival_time, wave.speed)
            loc = {
                "position": est.position,
                "out_of_bracket": est.out_of_bracket,
                "sensors": [a.sensor_id, b.sensor_id],
            }
        events.extend(
            {
                "leak_position": leak.position,
                "sensor": r.sensor_id,
                "sensor_position": r.position,
                "arrival_time": r.arrival_time,
                "amplitude": r.amplitude,
                "triggered": r.triggered,
            }
            for r in records
        )
        detections.append(
            {"leak_position": leak.position, "latency": _latency(leak, records),
             "localization": loc}
        )
    return {"enabled": True, "events": events, "detections": detections}
