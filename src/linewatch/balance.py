"""Windowed line-balance leak detection.

Over each window the imbalance is DV = V_in - V_out - DV_l: metered mass
in, minus metered mass out, minus the inventory (linepack) change.  The
inventory term comes from the shadow hydraulic model, which tracks it far
better than flow bookkeeping can; a "simple" mode is retained for
comparison, using the classical gross-balance assumption that inventory
returns to its steady value over the window (DV_l = 0).  Balance alarms
carry no location estimate: end meters alone cannot place a leak.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .telemetry import GOOD, TelemetryFrame

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


def accumulate(frames: Sequence[TelemetryFrame], linepacks, flow_in_id, flow_out_id,
               mode="model") -> BalanceWindow:
    """Integrate one window of metered flows against the inventory change.

    ``frames`` must span the window in poll order; ``linepacks`` are the
    shadow model's inventory estimates at the same polls.  Meter gaps are
    filled by linear interpolation; a meter good for under 90% of the
    window voids it (indeterminate).
    """
    if mode not in ("model", "simple"):
        raise ConfigurationError(f"unknown balance mode {mode!r}")
    if len(frames) < 2:
        raise ConfigurationError("a balance window needs at least two polls")
    times = np.array([f.poll_time for f in frames])
    v_in, frac_in = _integrate_meter(frames, times, flow_in_id)
    v_out, frac_out = _integrate_meter(frames, times, flow_out_id)
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
    if threshold <= 0:
        raise ConfigurationError(f"balance threshold must be > 0, got {threshold}")
    return (not window.indeterminate) and window.imbalance > threshold


def _integrate_meter(frames, times, instrument_id):
    vals, good = [], 0
    for f in frames:
        r = f.reading(instrument_id)
        if r.quality == GOOD:
            vals.append((f.poll_time, r.value))
            good += 1
    frac = good / len(frames)
    if not vals:
        return float("nan"), 0.0
    t_good = np.array([t for t, _ in vals])
    v_good = np.array([v for _, v in vals])
    filled = np.interp(times, t_good, v_good)  # gaps bridged linearly, ends held
    return float(np.trapezoid(filled, times)), frac


class BalanceDetector:
    """Rolls the frame stream into back-to-back balance windows.

    Adjacent windows share their boundary poll so window integrals add up
    exactly across a split.  Stateless between windows apart from the
    rolling buffer.
    """

    def __init__(self, flow_in_id, flow_out_id, window_duration=3600.0, *, threshold,
                 mode="model"):
        if window_duration <= 0:
            raise ConfigurationError("window_duration must be > 0")
        self.flow_in_id = flow_in_id
        self.flow_out_id = flow_out_id
        self.window_duration = float(window_duration)
        self.threshold = float(threshold)
        self.mode = mode
        self.windows: List[BalanceWindow] = []
        self.alarms: List[bool] = []
        self._frames: List[TelemetryFrame] = []
        self._linepacks: List[float] = []
        self._window_end: Optional[float] = None

    def observe(self, frame: TelemetryFrame, linepack_estimate):
        """Feed one filtered frame plus the shadow model's linepack."""
        if self._window_end is None:
            self._window_end = frame.poll_time + self.window_duration
        self._frames.append(frame)
        self._linepacks.append(float(linepack_estimate) if linepack_estimate is not None else np.nan)
        if frame.poll_time >= self._window_end - 1e-9:
            w = accumulate(self._frames, self._linepacks, self.flow_in_id,
                           self.flow_out_id, mode=self.mode)
            self.windows.append(w)
            self.alarms.append(balance_alarm(w, self.threshold))
            # boundary poll opens the next window
            self._frames = self._frames[-1:]
            self._linepacks = self._linepacks[-1:]
            self._window_end = frame.poll_time + self.window_duration

    @property
    def first_alarm_time(self):
        for w, alarmed in zip(self.windows, self.alarms):
            if alarmed:
                return w.end_time
        return None

    def report(self):
        """The ``balance`` section of a run report: every closed window and
        whether it alarmed."""
        return {
            "enabled": True,
            "first_alarm_time": self.first_alarm_time,
            "windows": [
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
                for w, alarmed in zip(self.windows, self.alarms)
            ],
        }
