"""SCADA telemetry synthesis: instrument sampling, noise, and plausibility checks.

Readings are true nodal values plus bias plus truncated gaussian noise;
each instrument can also drop out per poll.  The true value is
:func:`noiseless_reading` at the instrument's node from
:func:`instrument_nodes`, which is also how the RTM takes its model
values.  The plausibility filter only ever changes quality flags, never
values.  A :class:`TelemetryFrame` is a named tuple of its poll's
columns: its time, the instrument ids, each reading's value and each
one's quality, which :func:`sample` makes and :func:`plausibility_filter`
re-flags.  A run appends its frames to a :class:`TelemetryLog`: the same
columns, poll after poll, each quality as a one-byte code.  The log is the
run's one record of its readings: the detectors read each poll's good
readings from it, and ``telemetry.csv`` is formatted from it directly.
"""

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import ConfigurationError
from .formats import csv_cell, csv_line, pieces
from .hydraulics import GridState
from .network import PipelineModel

__all__ = [
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


class TelemetryFrame(NamedTuple):
    """One SCADA poll: one reading per configured instrument, as columns.

    ``ids`` are the instrument ids, ``values`` each reading's value (None
    where it has none) and ``qualities`` each one's quality: good, suspect
    or missing.  A reading is good when its quality is good and it has a
    value.  Where an id repeats, its first reading is the one
    :meth:`reading` gives.
    """

    poll_time: float
    ids: Tuple[str, ...]
    values: Tuple[Optional[float], ...]
    qualities: Tuple[str, ...]

    def reading(self, instrument_id) -> Tuple[Optional[float], str]:
        """(value, quality) of ``instrument_id``; KeyError if the frame has none."""
        try:
            k = self.ids.index(instrument_id)
        except ValueError:
            raise KeyError(instrument_id) from None
        return self.values[k], self.qualities[k]

    def __reduce__(self):
        # the class and its columns: quicker to pickle than the tuple's own
        # __getnewargs__ form
        return TelemetryFrame, tuple(self)


# A TelemetryLog's code of a reading: its quality's index here, plus _NONE
# where its value is None.
_QUALITIES = (GOOD, SUSPECT, MISSING)
_QUALITY_CODE = {q: code for code, q in enumerate(_QUALITIES)}
_NONE = len(_QUALITIES)


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


class TelemetryLog:
    """A stream of frames kept as columns of plain numbers: each poll's
    time, and each reading's value (NaN where it is None) and quality code
    (see ``_QUALITY_CODE``), poll by poll in frame order, so a poll costs 9
    bytes a reading.  Every frame must hold the first frame's instruments,
    in its order.  It is a run's one record of its readings: the detectors
    read their polls from it with :meth:`good_value`."""

    def __init__(self):
        self.times = array("d")
        self.ids = ()
        self._column = {}   # each id's place in a poll: its first reading's
        self._values = array("d")
        self._codes = bytearray()

    def __len__(self):
        return len(self.times)

    def append(self, frame: TelemetryFrame):
        ids = frame.ids
        if not self.times:
            self.ids = ids
            self._column = {iid: ids.index(iid) for iid in ids}
        elif ids != self.ids:
            if len(ids) != len(self.ids):
                raise ValueError(f"a frame of {len(ids)} readings for {len(self.ids)} instruments")
            iid, logged = next((i, j) for i, j in zip(ids, self.ids) if i != j)
            raise ValueError(f"the frame at t={frame.poll_time} s reads "
                             f"{iid!r} where the log reads {logged!r}")
        values = frame.values
        codes = map(_QUALITY_CODE.__getitem__, frame.qualities)
        if None in values:
            codes = [code + _NONE * (v is None) for code, v in zip(codes, values)]
            values = [math.nan if v is None else v for v in values]
        self._values.extend(values)
        self._codes.extend(codes)
        self.times.append(frame.poll_time)

    def good_value(self, k, instrument_id) -> Optional[float]:
        """Poll k's reading of ``instrument_id`` if it is good (quality good
        and a value: code 0), else None.  KeyError if the log has no reading
        of that id, IndexError past its last poll; a negative k counts from
        the end, as a list index does."""
        i = k * len(self.ids) + self._column[instrument_id]
        return None if self._codes[i] else self._values[i]

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
    model values both come from here, so they are taken the same way.
    Each is a Python float, the same double numpy's scalars would give."""
    if kind == "flow":
        return state.rho.item(node) * state.V.item(node) * pipeline.area
    if kind == "pressure":
        return state.P.item(node)
    return state.T.item(node)  # temperature: instrument_nodes admits no other kind


def sample(state: GridState, instruments, noise: NoiseSpec,
           *, pipeline: PipelineModel, nodes) -> TelemetryFrame:
    """Synthesize one telemetry frame from a true model state, at its time.

    ``nodes`` are the instruments' grid nodes from :func:`instrument_nodes`;
    each reading is :func:`noiseless_reading` plus bias plus noise.
    """
    ids, values, qualities = [], [], []
    for inst, node in zip(instruments, nodes, strict=True):
        truth = noiseless_reading(state, inst.kind, node, pipeline)
        u, z = noise.draw()
        ids.append(inst.id)
        if u < inst.dropout_prob:
            values.append(None)
            qualities.append(MISSING)
            continue
        perturbation = min(max(z, -_NOISE_CLIP_SIGMA), _NOISE_CLIP_SIGMA) * inst.noise_sigma
        values.append(float(truth + inst.bias + perturbation))
        qualities.append(GOOD)
    return TelemetryFrame(float(state.t), tuple(ids), tuple(values), tuple(qualities))


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
    t = frame.poll_time
    flagged = None   # the frame's qualities, once one is re-flagged
    for k, (iid, value, quality) in enumerate(zip(frame.ids, frame.values, frame.qualities)):
        last_good, run_value, run = memory.get(iid, (None, None, 0))
        lim = limits.get(kinds.get(iid))
        good = quality == GOOD and value is not None
        if good and lim is not None:
            suspect = not lim.min_value <= value <= lim.max_value
            if not suspect and last_good is not None and math.isfinite(lim.max_rate):
                t_prev, v_prev = last_good
                dt = t - t_prev
                suspect = dt > 0 and abs(value - v_prev) / dt > lim.max_rate
            if not suspect and lim.flatline_polls is not None:
                suspect = (run if value == run_value else 0) + 1 >= lim.flatline_polls
            if suspect:
                if flagged is None:
                    flagged = list(frame.qualities)
                flagged[k] = SUSPECT
                good = False
        if good:
            last_good = (t, value)
        if value is None:
            run_value, run = None, 0
        elif value == run_value:
            run += 1
        else:
            run_value, run = value, 1
        memory[iid] = (last_good, run_value, run)
    if flagged is None:
        return frame
    return TelemetryFrame(t, frame.ids, frame.values, tuple(flagged))
