"""SCADA telemetry synthesis: instrument sampling, noise, and plausibility checks.

Readings are true nodal values plus bias plus truncated gaussian noise;
each instrument can also drop out per poll.  The true value is
:func:`noiseless_reading` at the instrument's node from
:func:`instrument_nodes`, which is also how the RTM takes its model
values.  The plausibility filter only ever changes quality flags, never
values.  A run keeps its frames as a :class:`TelemetryLog`: plain numbers
in columns, one value and one quality code per reading, from which
``telemetry.csv`` is formatted directly.
"""

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError
from .formats import csv_cell, csv_line, pieces
from .hydraulics import GridState
from .network import PipelineModel

__all__ = [
    "Reading",
    "TelemetryFrame",
    "TelemetryLog",
    "NoiseSpec",
    "PlausibilityLimits",
    "instrument_nodes",
    "noiseless_reading",
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


class OptionalFloats:
    """A column of optional floats: the values, NaN where one is None, and
    which ones are None, 9 bytes a value."""

    __slots__ = ("values", "none")

    def __init__(self):
        self.values = array("d")
        self.none = bytearray()

    def __len__(self):
        return len(self.values)

    def append(self, v):
        self.none.append(v is None)
        self.values.append(math.nan if v is None else v)

    def __getitem__(self, k):
        return None if self.none[k] else self.values[k]

    def __delitem__(self, k):
        del self.values[k], self.none[k]


# A TelemetryLog's code of a reading: its quality's index here, plus
# _NONE where its value is None.
_QUALITIES = (GOOD, SUSPECT, MISSING)
_QUALITY_CODE = {q: code for code, q in enumerate(_QUALITIES)}
_NONE = len(_QUALITIES)


class TelemetryLog:
    """A stream of frames kept as columns of plain numbers: each poll's
    time, and each reading's value (NaN where it is None) and quality code,
    poll by poll in frame order, so a poll costs 9 bytes a reading.  Every
    frame must hold the first frame's instruments, in its order."""

    def __init__(self):
        self.times = array("d")
        self.ids = ()
        self._values = array("d")
        self._codes = bytearray()

    def __len__(self):
        return len(self.times)

    def append(self, frame: TelemetryFrame):
        readings = frame.readings
        if not self.times:
            self.ids = tuple(r.instrument_id for r in readings)
        elif len(readings) != len(self.ids):
            raise ValueError(f"a frame of {len(readings)} readings for {len(self.ids)} instruments")
        for r, logged in zip(readings, self.ids):
            if r.instrument_id != logged:
                raise ValueError(f"the frame at t={frame.poll_time} s reads "
                                 f"{r.instrument_id!r} where the log reads {logged!r}")
        for r in readings:
            if r.value is None:
                self._values.append(math.nan)
                self._codes.append(_QUALITY_CODE[r.quality] + _NONE)
            else:
                self._values.append(r.value)
                self._codes.append(_QUALITY_CODE[r.quality])
        self.times.append(frame.poll_time)

    def rows(self):
        """(poll time, instrument id, value or None, quality) of every
        reading, poll by poll, each poll's readings in frame order."""
        readings = zip(self._values, self._codes)
        for t in self.times:
            for iid, (value, code) in zip(self.ids, readings):
                yield t, iid, None if code >= _NONE else value, _QUALITIES[code % _NONE]

    def csv_pieces(self, chunk):
        """telemetry.csv's text, the bytes ``csv.writer`` writes for its
        header and :meth:`rows`: the header line, then the readings of at
        most ``chunk`` polls a piece."""
        yield csv_line(("poll_time", "instrument", "value", "quality"))
        heads = [f",{csv_cell(iid)}," for iid in self.ids]
        ends = [f",{csv_cell(q)}\r\n" for q in _QUALITIES] * 2   # by code
        n = len(self.ids)
        for start, stop in pieces(len(self), chunk):
            values = map(float.__repr__, self._values[start * n : stop * n])
            readings = zip(values, self._codes[start * n : stop * n])
            yield "".join([t + head + (value if code < _NONE else "") + ends[code]
                           for t in map(float.__repr__, self.times[start:stop])
                           for head, (value, code) in zip(heads, readings)])


class NoiseSpec:
    """Seeded noise stream; identical seeds give bit-identical frames."""

    def __init__(self, rng_seed: int):
        self.rng_seed = int(rng_seed)
        self._rng = np.random.default_rng(self.rng_seed)

    def draw(self):
        # One (uniform, normal) pair per instrument per poll, always drawn
        # so the stream is stable under sigma/dropout edits.  random() is
        # uniform() on [0, 1) from the same draw: uniform() returns
        # 0.0 + 1.0 * random(), the same double, in several times the time.
        return self._rng.random(), self._rng.standard_normal()


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
    instrument must sit on a node.
    """
    nodes = []
    for inst in instruments:
        idx = int(np.argmin(np.abs(x - inst.position)))
        span = max(float(x[-1] - x[0]), 1.0)
        if abs(x[idx] - inst.position) > 1e-9 * span + 1e-9:
            raise ConfigurationError(
                f"instrument {inst.id} at {inst.position} m is not on a grid node; "
                "pass its position to discretize()"
            )
        nodes.append(idx)
    return tuple(nodes)


def noiseless_reading(state: GridState, kind, node, pipeline: PipelineModel):
    """What an instrument of ``kind`` at grid ``node`` reads of ``state``
    without noise or bias: a flow meter rho*V*A in kg/s, a pressure sensor
    P in Pa, a temperature sensor T in K.  The SCADA samples and the RTM's
    model values both come from here, so they are taken the same way."""
    if kind == "flow":
        return state.rho[node] * state.V[node] * pipeline.area
    if kind == "pressure":
        return state.P[node]
    return state.T[node]  # temperature: instrument_nodes admits no other kind


def sample(state: GridState, instruments, noise: NoiseSpec,
           *, pipeline: PipelineModel, nodes) -> TelemetryFrame:
    """Synthesize one telemetry frame from a true model state, at its time.

    ``nodes`` are the instruments' grid nodes from :func:`instrument_nodes`;
    each reading is :func:`noiseless_reading` plus bias plus noise.
    """
    readings = []
    for inst, node in zip(instruments, nodes, strict=True):
        truth = noiseless_reading(state, inst.kind, node, pipeline)
        u, z = noise.draw()
        if u < inst.dropout_prob:
            readings.append(Reading(inst.id, None, MISSING))
            continue
        perturbation = min(max(z, -_NOISE_CLIP_SIGMA), _NOISE_CLIP_SIGMA) * inst.noise_sigma
        readings.append(Reading(inst.id, float(truth + inst.bias + perturbation), GOOD))
    return TelemetryFrame(poll_time=float(state.t), readings=tuple(readings))


def plausibility_filter(frame: TelemetryFrame, memory, limits, kinds) -> TelemetryFrame:
    """Re-flag implausible readings as suspect; values are never altered.

    ``limits`` maps instrument kind to PlausibilityLimits, and ``kinds``
    maps instrument id to kind; a reading of an id it lacks is never
    re-flagged.  ``memory`` is what the rules keep of each instrument's
    earlier readings, by id: its last good ``(t, v)``, however old, and
    the value and length in polls of its trailing run of one repeated
    value.  Start a stream with an empty dict and pass the same one with
    each frame, in poll order; this call updates it with the frame's
    filtered readings.  A frame with nothing to re-flag is returned as it
    came.
    """
    out, flagged = [], False
    for r in frame.readings:
        last_good, run_value, run = memory.get(r.instrument_id, (None, None, 0))
        lim = limits.get(kinds.get(r.instrument_id))
        if r.quality == GOOD and lim is not None:
            suspect = not lim.min_value <= r.value <= lim.max_value
            if not suspect and last_good is not None and math.isfinite(lim.max_rate):
                t_prev, v_prev = last_good
                dt = frame.poll_time - t_prev
                suspect = dt > 0 and abs(r.value - v_prev) / dt > lim.max_rate
            if not suspect and lim.flatline_polls is not None:
                suspect = (run if r.value == run_value else 0) + 1 >= lim.flatline_polls
            if suspect:
                r, flagged = Reading(r.instrument_id, r.value, SUSPECT), True
        if r.quality == GOOD:
            last_good = (frame.poll_time, r.value)
        if r.value is None:
            run_value, run = None, 0
        elif r.value == run_value:
            run += 1
        else:
            run_value, run = r.value, 1
        memory[r.instrument_id] = (last_good, run_value, run)
        out.append(r)
    return TelemetryFrame(poll_time=frame.poll_time, readings=tuple(out)) if flagged else frame
