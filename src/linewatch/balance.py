"""Windowed line-balance leak detection.

Over each window the imbalance is DV = V_in - V_out - DV_l: metered mass
in, minus metered mass out, minus the inventory (linepack) change.  The
inventory term comes from the shadow hydraulic model, which tracks it far
better than flow bookkeeping can; a "simple" mode is retained for
comparison, using the classical gross-balance assumption that inventory
returns to its steady value over the window (DV_l = 0).  A window is
integrated from its polls' times and the two meters' good readings, read
from the run's telemetry log when it closes, and the shadow's linepacks.
Balance alarms carry no location estimate: end meters alone cannot place
a leak.
"""

import math
from array import array
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigurationError
from .telemetry import TelemetryLog

__all__ = ["BalanceWindow", "accumulate", "balance_alarm", "BalanceDetector"]

_MIN_GOOD_FRACTION = 0.9


@dataclass(frozen=True)
class BalanceWindow:
    start_time: float
    end_time: float
    v_in: float              # kg, trapezoidal integral of the inlet meter
    v_out: float             # kg, outlet meter
    delta_inventory: float   # kg, linepack(end) - linepack(start)
    imbalance: float         # kg, exactly v_in - v_out - delta_inventory
    indeterminate: bool      # too many missing polls; do not alarm on this window
    good_fraction: float     # worst meter's share of good polls


def accumulate(times, flows_in, flows_out, linepacks, mode="model") -> BalanceWindow:
    """Integrate one window of metered flows against the inventory change.

    ``times`` are the window's poll times in order; ``flows_in`` and
    ``flows_out`` are each meter's good reading at those polls (None where
    it had none), each an iterable read once, and ``linepacks`` the shadow
    model's inventory estimates.
    Meter gaps are filled by linear interpolation; a meter good for under
    90% of the window voids it (indeterminate).
    """
    if mode not in ("model", "simple"):
        raise ConfigurationError(f"unknown balance mode {mode!r}")
    if len(times) < 2:
        raise ConfigurationError("a balance window needs at least two polls")
    times = np.array(times, dtype=float)
    v_in, frac_in = _integrate_meter(times, flows_in)
    v_out, frac_out = _integrate_meter(times, flows_out)
    good_fraction = min(frac_in, frac_out)

    inventory_ok = True
    if mode == "model":
        lp = np.asarray(linepacks, dtype=float)
        if lp.size != times.size:
            raise ConfigurationError("linepack estimates must align with the window polls")
        delta_inventory = float(lp[-1] - lp[0])
        # an endpoint is NaN only before the shadow model starts; a
        # suspended poll still carries the shadow's linepack
        inventory_ok = bool(np.isfinite(delta_inventory))
    else:
        delta_inventory = 0.0

    imbalance = v_in - v_out - delta_inventory
    return BalanceWindow(
        start_time=float(times[0]),
        end_time=float(times[-1]),
        v_in=v_in,
        v_out=v_out,
        delta_inventory=delta_inventory,
        imbalance=imbalance,
        indeterminate=good_fraction < _MIN_GOOD_FRACTION or not inventory_ok,
        good_fraction=good_fraction,
    )


def balance_alarm(window: BalanceWindow, threshold) -> bool:
    """Alarm iff the window lost more than ``threshold`` kg; never locates."""
    if not threshold > 0:
        raise ConfigurationError(f"balance threshold must be > 0, got {threshold}")
    return (not window.indeterminate) and window.imbalance > threshold


def _integrate_meter(times, flows):
    """The trapezoidal integral over the array ``times`` of one meter's
    readings ``flows``, read once (None where it had no good one), and its
    share of good polls.  It keeps a mask of the good polls and their
    readings, 9 bytes a poll, not a Python float a reading."""
    good, v_good = bytearray(), array("d")
    for v in flows:
        good.append(v is not None)
        if v is not None:
            v_good.append(v)
    if len(good) != len(times):
        raise ValueError(f"{len(good)} meter readings for {len(times)} polls")
    frac = len(v_good) / len(times)
    if not v_good:
        return float("nan"), 0.0
    good = np.frombuffer(good, dtype=bool)
    filled = np.interp(times, times[good], v_good)  # gaps bridged linearly, ends held
    return float(np.trapezoid(filled, times)), frac


def _measured(volume):
    """``volume``, or None when the window could not measure it (NaN)."""
    return None if math.isnan(volume) else volume


class BalanceDetector:
    """Rolls a telemetry log's polls into back-to-back balance windows.

    Adjacent windows share their boundary poll so window integrals add up
    exactly across a split.  Of the open window the detector keeps its
    first poll and the shadow's linepacks; when it closes, its times and
    the two meters' good readings are read from the log.
    """

    def __init__(self, flow_in_id, flow_out_id, window_duration=3600.0, *, threshold,
                 mode="model"):
        if window_duration <= 0:
            raise ConfigurationError("window_duration must be > 0")
        if not threshold > 0:
            raise ConfigurationError(f"balance threshold must be > 0, got {threshold}")
        if mode not in ("model", "simple"):
            raise ConfigurationError(f"unknown balance mode {mode!r}")
        self.flow_in_id = flow_in_id
        self.flow_out_id = flow_out_id
        self.window_duration = float(window_duration)
        self.threshold = float(threshold)
        self.mode = mode
        self.windows: List[BalanceWindow] = []
        self.alarms: List[bool] = []
        # the open window's first poll, and its linepacks one a poll from there
        self._start = 0
        self._linepacks = array("d")
        self._window_end: Optional[float] = None

    def observe(self, log: TelemetryLog, linepack_estimate):
        """Take the log's next poll, with the shadow model's linepack there."""
        k = self._start + len(self._linepacks)
        t = log.times[k]
        if self._window_end is None:
            self._window_end = t + self.window_duration
        self._linepacks.append(np.nan if linepack_estimate is None else linepack_estimate)
        if t >= self._window_end - 1e-9:
            polls = range(self._start, k + 1)
            w = accumulate(log.times[self._start : k + 1],
                           (log.good_value(j, self.flow_in_id) for j in polls),
                           (log.good_value(j, self.flow_out_id) for j in polls),
                           self._linepacks, mode=self.mode)
            self.windows.append(w)
            self.alarms.append(balance_alarm(w, self.threshold))
            # boundary poll opens the next window
            del self._linepacks[:-1]
            self._start = k
            self._window_end = t + self.window_duration

    @property
    def first_alarm_time(self):
        for w, alarmed in zip(self.windows, self.alarms):
            if alarmed:
                return w.end_time
        return None

    def report(self):
        """The ``balance`` section of a run report: every closed window and
        whether it alarmed.  A volume the window could not measure (NaN: a
        meter never good, or no shadow linepack at an end) is None, so the
        report stays strict JSON."""
        return {
            "enabled": True,
            "first_alarm_time": self.first_alarm_time,
            "windows": [
                {
                    "start": w.start_time,
                    "end": w.end_time,
                    "v_in": _measured(w.v_in),
                    "v_out": _measured(w.v_out),
                    "delta_inventory": _measured(w.delta_inventory),
                    "imbalance": _measured(w.imbalance),
                    "indeterminate": w.indeterminate,
                    "alarm": alarmed,
                }
                for w, alarmed in zip(self.windows, self.alarms)
            ],
        }
