import math
import re
import sys

import numpy as np
import pytest

from conftest import frame_of
from linewatch.balance import (
    BalanceDetector,
    BalanceWindow,
    accumulate,
    balance_alarm,
)
from linewatch.errors import ConfigurationError
from linewatch.telemetry import GOOD, MISSING


def gaps(values, missing=()):
    """``values`` as a meter's good readings: None at the polls in ``missing``."""
    return [None if k in missing else v for k, v in enumerate(values)]


def frames_from(times, fin, fout, missing_in=(), missing_out=()):
    out = []
    for k, t in enumerate(times):
        rin = ("fin", None, MISSING) if k in missing_in else ("fin", fin[k], GOOD)
        rout = ("fout", None, MISSING) if k in missing_out else ("fout", fout[k], GOOD)
        out.append(frame_of(float(t), rin, rout))
    return out


class TestAccumulate:
    def test_direct_arithmetic(self):
        # V_in = 100, V_out = 95, dV_l = 3 -> dV = 2
        times = np.arange(0.0, 10.0 + 1e-9, 5.0)
        w = accumulate(times, [10.0] * 3, [9.5] * 3, [500.0, 501.5, 503.0])
        assert w.v_in == pytest.approx(100.0, rel=1e-12)
        assert w.v_out == pytest.approx(95.0, rel=1e-12)
        assert w.delta_inventory == pytest.approx(3.0, rel=1e-12)
        assert w.imbalance == pytest.approx(2.0, rel=1e-12)

    def test_identity_holds_exactly(self):
        rng = np.random.default_rng(3)
        times = np.arange(0.0, 600.0 + 1e-9, 5.0)
        fin = 70.0 + rng.normal(0, 0.5, times.size)
        fout = 70.0 + rng.normal(0, 0.5, times.size)
        lp = 7e5 + np.cumsum(rng.normal(0, 2.0, times.size))
        w = accumulate(times, fin, fout, lp)
        assert w.imbalance == w.v_in - w.v_out - w.delta_inventory  # bitwise

    def test_window_additivity(self):
        rng = np.random.default_rng(4)
        times = np.arange(0.0, 1200.0 + 1e-9, 5.0)
        fin = 70.0 + rng.normal(0, 0.5, times.size)
        fout = 69.0 + rng.normal(0, 0.5, times.size)
        lp = 7e5 + np.cumsum(rng.normal(0, 2.0, times.size))
        mid = times.size // 2
        w_full = accumulate(times, fin, fout, lp)
        w1 = accumulate(times[: mid + 1], fin[: mid + 1], fout[: mid + 1], lp[: mid + 1])
        w2 = accumulate(times[mid:], fin[mid:], fout[mid:], lp[mid:])
        assert w1.imbalance + w2.imbalance == pytest.approx(w_full.imbalance, abs=1e-9)

    def test_gap_interpolation(self):
        times = np.arange(0.0, 100.0 + 1e-9, 5.0)
        n = times.size
        fin = [10.0] * n
        fout = [9.0 + 0.1 * k for k in range(n)]
        # one missing poll bridged linearly between its neighbours
        w = accumulate(times, fin, gaps(fout, missing=(10,)), [0.0] * n)
        filled = list(fout)
        filled[10] = 0.5 * (fout[9] + fout[11])
        assert w.v_out == pytest.approx(np.trapezoid(filled, times), rel=1e-12)
        assert not w.indeterminate

    def test_voided_when_too_many_missing(self):
        times = np.arange(0.0, 45.0 + 1e-9, 5.0)
        n = times.size
        w = accumulate(times, [10.0] * n, gaps([9.5] * n, missing=(1, 2)), [0.0] * n)
        assert w.indeterminate  # 2 of 10 polls missing > 10%
        assert not balance_alarm(w, 0.001)

    def test_meter_never_good_voids_the_window(self):
        # The inlet meter is dark for the whole window: there is no flow to
        # bridge, so the window is indeterminate and never alarms.
        times = np.arange(0.0, 45.0 + 1e-9, 5.0)
        n = times.size
        det = BalanceDetector("fin", "fout", window_duration=45.0, threshold=0.001)
        for frame in frames_from(times, [10.0] * n, [9.5] * n, missing_in=range(n)):
            det.observe(frame, 0.0)
        (w,) = det.windows
        assert w.indeterminate and w.good_fraction == 0.0
        assert np.isnan(w.v_in) and np.isnan(w.imbalance)
        assert det.alarms == [False] and det.first_alarm_time is None

    def test_simple_mode_has_zero_inventory_term(self):
        times = np.arange(0.0, 10.0 + 1e-9, 5.0)
        w = accumulate(times, [10.0] * 3, [9.5] * 3, None, mode="simple")
        assert w.delta_inventory == 0.0
        assert w.imbalance == pytest.approx(5.0)

    def test_mode_validation(self):
        with pytest.raises(ConfigurationError):
            accumulate([], [], [], [], mode="psychic")


class TestAlarm:
    def window(self, imbalance):
        return BalanceWindow(0.0, 3600.0, 100.0, 100.0 - imbalance, 0.0, imbalance,
                             False, 1.0)

    def test_below_threshold_silent(self):
        assert not balance_alarm(self.window(10.0), 20.0)

    def test_double_threshold_alarms(self):
        assert balance_alarm(self.window(40.0), 20.0)

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            balance_alarm(self.window(1.0), 0.0)

    def test_nan_threshold_is_rejected(self):
        # a NaN threshold is never exceeded, so no window could alarm
        with pytest.raises(ConfigurationError, match="^balance threshold must be > 0, got nan$"):
            balance_alarm(self.window(100.0), math.nan)

    def test_false_alarm_rate_at_three_sigma(self):
        # 100 seeded no-leak windows; threshold 3 sigma of the windowed
        # meter noise, computed analytically from the trapezoid weights
        rng = np.random.default_rng(77)
        dt, n = 5.0, 121
        times = np.arange(n) * dt
        weights = np.full(n, dt)
        weights[0] = weights[-1] = dt / 2
        sigma_meter = 0.35
        sigma_window = sigma_meter * np.sqrt(2.0 * np.sum(weights**2))
        alarms = 0
        for _ in range(100):
            fin = 70.0 + rng.normal(0, sigma_meter, n)
            fout = 70.0 + rng.normal(0, sigma_meter, n)
            w = accumulate(times, fin, fout, np.zeros(n))
            alarms += balance_alarm(w, 3.0 * sigma_window)
        assert alarms / 100 < 0.01


class TestDetectorAndTrend:
    @pytest.mark.parametrize("settings,message", [
        ({"threshold": 0.0}, "balance threshold must be > 0, got 0.0"),
        ({"threshold": -5.0}, "balance threshold must be > 0, got -5.0"),
        ({"threshold": math.nan}, "balance threshold must be > 0, got nan"),
        ({"threshold": 50.0, "mode": "bogus"}, "unknown balance mode 'bogus'"),
    ], ids=["threshold_zero", "threshold_negative", "threshold_nan", "mode"])
    def test_settings_are_checked_at_construction(self, settings, message):
        # not first when a window closes
        with pytest.raises(ConfigurationError, match="^" + re.escape(message) + "$"):
            BalanceDetector("fin", "fout", window_duration=60.0, **settings)

    def test_back_to_back_windows_share_boundary_poll(self):
        det = BalanceDetector("fin", "fout", window_duration=60.0, threshold=50.0)
        times = np.arange(0.0, 120.0 + 1e-9, 5.0)
        for t in times:
            frame = frames_from([t], [10.0], [10.0])[0]
            det.observe(frame, 1000.0)
        assert len(det.windows) == 2
        assert det.windows[0].end_time == det.windows[1].start_time == 60.0
        rows = det.report()["windows"]
        assert [(r["start"], r["end"], r["imbalance"], r["alarm"]) for r in rows] == [
            (w.start_time, w.end_time, w.imbalance, alarmed)
            for w, alarmed in zip(det.windows, det.alarms)]

    def test_no_frame_outlives_its_poll(self):
        det = BalanceDetector("fin", "fout", window_duration=60.0, threshold=50.0)
        times = np.arange(0.0, 180.0 + 1e-9, 5.0)
        held = []
        for t in times:
            frame = frames_from([t], [10.0], [9.5])[0]
            # rebinding ``frame`` let go of the last poll's: only ``held`` and
            # getrefcount's argument refer to it (a frame is a tuple, which
            # takes no weak reference; counted outside the assert, whose
            # rewriting keeps its operands)
            if held:
                refs = sys.getrefcount(held[-1])
                assert refs == 2, f"the frame before t={t} outlived it"
            held.append(frame)
            det.observe(frame, 1000.0)
        assert len(det.windows) == 3
        assert [w.v_in - w.v_out for w in det.windows] == [30.0] * 3


class TestSuspendedShadow:
    def test_nan_linepack_endpoint_voids_window(self):
        times = np.arange(0.0, 100.0 + 1e-9, 5.0)
        n = times.size
        lp = [np.nan] + [7e5] * (n - 1)   # shadow suspended at the window start
        w = accumulate(times, [10.0] * n, [9.0] * n, lp)
        assert w.indeterminate
        assert not balance_alarm(w, 1.0)
