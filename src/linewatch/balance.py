"""Windowed line-balance leak detection.

Over each window the imbalance is DV = V_in - V_out - DV_l: metered mass
in, minus metered mass out, minus the inventory (linepack) change.  The
inventory term comes from the shadow hydraulic model, which tracks it far
better than flow bookkeeping can; a "simple" mode is retained for
comparison, using the classical gross-balance assumption that inventory
returns to its steady value over the window (DV_l = 0).  A window is
integrated from columns of its polls' times, the two meters' good readings
and the shadow's linepacks.  Balance alarms carry no location estimate:
end meters alone cannot place a leak.
"""

import math
from array import array
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigurationError
from .telemetry import OptionalFloats, TelemetryFrame

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
    it had none), and ``linepacks`` the shadow model's inventory estimates.
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
    readings ``flows`` (None where it had no good one), and its share of
    good polls.  The good polls' times are picked by a mask: a (t, v) pair
    per poll would hold about 100 bytes a poll while the window closes."""
    if len(flows) != len(times):
        raise ValueError(f"{len(flows)} meter readings for {len(times)} polls")
    good = np.array([v is not None for v in flows], dtype=bool)
    v_good = np.array([v for v in flows if v is not None], dtype=float)
    frac = v_good.size / len(times)
    if not v_good.size:
        return float("nan"), 0.0
    filled = np.interp(times, times[good], v_good)  # gaps bridged linearly, ends held
    return float(np.trapezoid(filled, times)), frac


def _measured(volume):
    """``volume``, or None when the window could not measure it (NaN)."""
    return None if math.isnan(volume) else volume


class BalanceDetector:
    """Rolls the frame stream into back-to-back balance windows.

    Adjacent windows share their boundary poll so window integrals add up
    exactly across a split.  The open window is kept as columns: each
    poll's time, each meter's good reading (else None) and the shadow's
    linepack; no frame outlives its poll.
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
        self._times = array("d")
        self._flows_in = OptionalFloats()
        self._flows_out = OptionalFloats()
        self._linepacks = array("d")
        self._window_end: Optional[float] = None

    def observe(self, frame: TelemetryFrame, linepack_estimate):
        """Feed one filtered frame plus the shadow model's linepack."""
        if self._window_end is None:
            self._window_end = frame.poll_time + self.window_duration
        self._times.append(frame.poll_time)
        self._flows_in.append(frame.good_value(self.flow_in_id))
        self._flows_out.append(frame.good_value(self.flow_out_id))
        self._linepacks.append(np.nan if linepack_estimate is None else linepack_estimate)
        if frame.poll_time >= self._window_end - 1e-9:
            w = accumulate(self._times, self._flows_in, self._flows_out, self._linepacks,
                           mode=self.mode)
            self.windows.append(w)
            self.alarms.append(balance_alarm(w, self.threshold))
            # boundary poll opens the next window
            for column in (self._times, self._flows_in, self._flows_out, self._linepacks):
                del column[:-1]
            self._window_end = frame.poll_time + self.window_duration

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
