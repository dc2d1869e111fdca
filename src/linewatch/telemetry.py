"""SCADA telemetry synthesis: instrument sampling, noise, and plausibility checks.

Readings are true nodal values plus bias plus truncated gaussian noise;
each instrument can also drop out per poll.  The plausibility filter only
ever changes quality flags, never values.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError
from .hydraulics import GridState
from .network import PipelineModel

__all__ = [
    "Reading",
    "TelemetryFrame",
    "NoiseSpec",
    "PlausibilityLimits",
    "instrument_nodes",
    "sample",
    "plausibility_filter",
]

GOOD, SUSPECT, MISSING = "good", "suspect", "missing"

# Noise samples are clipped at +/- 6 sigma to keep single-poll outliers
# physically plausible.
_NOISE_CLIP_SIGMA = 6.0


@dataclass(frozen=True)
class Reading:
    instrument_id: str
    value: Optional[float]   # None when missing
    quality: str             # good | suspect | missing


@dataclass(frozen=True)
class TelemetryFrame:
    """One SCADA poll: one reading per configured instrument."""

    poll_time: float
    readings: Tuple[Reading, ...]

    @cached_property
    def _by_id(self):
        # built from the back so the first reading of a repeated id wins
        return {r.instrument_id: r for r in reversed(self.readings)}

    def reading(self, instrument_id) -> Reading:
        """The reading of ``instrument_id``; KeyError if the frame has none."""
        return self._by_id[instrument_id]

    def good_value(self, instrument_id):
        """Value if the reading is quality-good, else None."""
        r = self.reading(instrument_id)
        return r.value if r.quality == GOOD else None


class NoiseSpec:
    """Seeded noise stream; identical seeds give bit-identical frames."""

    def __init__(self, rng_seed: int):
        self.rng_seed = int(rng_seed)
        self._rng = np.random.default_rng(self.rng_seed)

    def draw(self):
        # One (uniform, normal) pair per instrument per poll, always drawn
        # so the stream is stable under sigma/dropout edits.
        return self._rng.uniform(), self._rng.standard_normal()


@dataclass(frozen=True)
class PlausibilityLimits:
    """Per-kind validity rules; defaults disable each check."""

    min_value: float = -np.inf
    max_value: float = np.inf
    max_rate: float = np.inf          # instrument units per second
    flatline_polls: Optional[int] = None  # identical-value run length; None = off

    def __post_init__(self):
        if not self.min_value <= self.max_value:   # else every reading is flagged
            raise ConfigurationError(f"min {self.min_value} must be <= max {self.max_value}")


def instrument_nodes(x, instruments):
    """Grid node index of each polled instrument, in order, for :func:`sample`.

    ``x`` holds the node positions of the grid the states are on.  Every
    instrument must sit on a node; acoustic sensors are event devices
    handled by the acoustic module, not polled.
    """
    nodes = []
    for inst in instruments:
        if inst.kind == "acoustic":
            raise ConfigurationError(
                f"instrument {inst.id}: acoustic sensors are not polled; "
                "route them to the acoustic detector"
            )
        idx = int(np.argmin(np.abs(x - inst.position)))
        span = max(float(x[-1] - x[0]), 1.0)
        if abs(x[idx] - inst.position) > 1e-9 * span + 1e-9:
            raise ConfigurationError(
                f"instrument {inst.id} at {inst.position} m is not on a grid node; "
                "pass instruments to discretize()"
            )
        nodes.append(idx)
    return tuple(nodes)


def sample(state: GridState, instruments, noise: NoiseSpec, poll_time,
           *, pipeline: PipelineModel, nodes) -> TelemetryFrame:
    """Synthesize one telemetry frame from a true model state.

    ``nodes`` are the instruments' grid nodes from :func:`instrument_nodes`.
    Flow meters read rho*V*A in kg/s, pressure sensors Pa, temperature
    sensors K.
    """
    readings = []
    for inst, node in zip(instruments, nodes, strict=True):
        if inst.kind == "flow":
            truth = state.rho[node] * state.V[node] * pipeline.area
        elif inst.kind == "pressure":
            truth = state.P[node]
        else:  # temperature: instrument_nodes admits no other kind
            truth = state.T[node]
        u, z = noise.draw()
        if u < inst.dropout_prob:
            readings.append(Reading(inst.id, None, MISSING))
            continue
        perturbation = min(max(z, -_NOISE_CLIP_SIGMA), _NOISE_CLIP_SIGMA) * inst.noise_sigma
        readings.append(Reading(inst.id, float(truth + inst.bias + perturbation), GOOD))
    return TelemetryFrame(poll_time=float(poll_time), readings=tuple(readings))


def plausibility_filter(frame: TelemetryFrame, history, limits, instruments) -> TelemetryFrame:
    """Re-flag implausible readings as suspect; values are never altered.

    ``history`` is the sequence of previously filtered frames (oldest
    first); ``limits`` maps instrument kind to PlausibilityLimits.
    """
    kinds = {inst.id: inst.kind for inst in instruments}
    out = []
    for r in frame.readings:
        if r.quality != GOOD:
            out.append(r)
            continue
        lim = limits.get(kinds.get(r.instrument_id))
        if lim is None:
            out.append(r)
            continue
        quality = GOOD
        if not lim.min_value <= r.value <= lim.max_value:
            quality = SUSPECT
        elif np.isfinite(lim.max_rate):
            prev = _last_good(history, r.instrument_id)
            if prev is not None:
                t_prev, v_prev = prev
                dt = frame.poll_time - t_prev
                if dt > 0 and abs(r.value - v_prev) / dt > lim.max_rate:
                    quality = SUSPECT
        if quality == GOOD and lim.flatline_polls is not None:
            run = _trailing_identical(history, r.instrument_id, r.value)
            if run + 1 >= lim.flatline_polls:
                quality = SUSPECT
        out.append(Reading(r.instrument_id, r.value, quality))
    return TelemetryFrame(poll_time=frame.poll_time, readings=tuple(out))


def _last_good(history, instrument_id):
    for f in reversed(history):
        try:
            r = f.reading(instrument_id)
        except KeyError:
            continue
        if r.quality == GOOD:
            return f.poll_time, r.value
    return None


def _trailing_identical(history, instrument_id, value):
    run = 0
    for f in reversed(history):
        try:
            r = f.reading(instrument_id)
        except KeyError:
            break
        if r.value is None or r.value != value:
            break
        run += 1
    return run
