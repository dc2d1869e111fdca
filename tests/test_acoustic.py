import math

import pytest
from hypothesis import given, settings, strategies as st

from linewatch.acoustic import (
    AcousticSensor,
    WaveModel,
    localize,
    propagate,
    report,
    triggered_pair,
)
from linewatch.errors import ConfigurationError
from linewatch.hydraulics import LeakEvent

MILE = 1609.34
GAS_SPEED = 321.87           # a mile in five seconds
LIQUID_SPEED = MILE          # almost a mile per second


def sensor(id_, pos, threshold=1.0, resolution=0.0):
    return AcousticSensor(id=id_, position=pos, trigger_threshold=threshold,
                          timestamp_resolution=resolution)


class TestPropagate:
    def test_gas_arrival_delay(self):
        leak = LeakEvent(position=0.0, start_time=100.0, mass_rate=1.0)
        recs = propagate(leak, 1e4, [sensor("s", 3218.7)], WaveModel(speed=GAS_SPEED))
        assert recs[0].arrival_time - leak.start_time == pytest.approx(10.0, rel=1e-12)

    def test_liquid_arrival_delay(self):
        leak = LeakEvent(position=0.0, start_time=100.0, mass_rate=1.0)
        recs = propagate(leak, 1e4, [sensor("s", 3218.7)], WaveModel(speed=LIQUID_SPEED))
        assert recs[0].arrival_time - leak.start_time == pytest.approx(2.0, rel=1e-4)

    def test_no_attenuation_equal_amplitudes(self):
        leak = LeakEvent(position=5000.0, start_time=0.0, mass_rate=1.0)
        sensors = [sensor("a", 0.0), sensor("b", 2000.0), sensor("c", 10000.0)]
        recs = propagate(leak, 777.0, sensors, WaveModel(speed=1000.0, attenuation=0.0))
        assert all(r.amplitude == 777.0 for r in recs)

    def test_exponential_attenuation(self):
        leak = LeakEvent(position=0.0, start_time=0.0, mass_rate=1.0)
        wave = WaveModel(speed=1000.0, attenuation=2e-4)
        recs = propagate(leak, 1000.0, [sensor("s", 5000.0)], wave)
        assert recs[0].amplitude == pytest.approx(1000.0 * math.exp(-1.0), rel=1e-12)

    def test_trigger_threshold_semantics(self):
        leak = LeakEvent(position=0.0, start_time=0.0, mass_rate=1.0)
        wave = WaveModel(speed=1000.0, attenuation=1e-3)
        recs = propagate(leak, 1000.0, [sensor("near", 100.0, threshold=500.0),
                                        sensor("far", 5000.0, threshold=500.0)], wave)
        assert recs[0].triggered and not recs[1].triggered

    def test_timestamp_quantization(self):
        leak = LeakEvent(position=0.0, start_time=0.0, mass_rate=1.0)
        recs = propagate(leak, 10.0, [sensor("s", 1234.0, resolution=0.5)],
                         WaveModel(speed=1000.0))
        assert recs[0].arrival_time % 0.5 == pytest.approx(0.0, abs=1e-12)

    def test_attenuation_monotonicity(self):
        # triggered-sensor count never grows as attenuation rises
        leak = LeakEvent(position=5000.0, start_time=0.0, mass_rate=1.0)
        sensors = [sensor(f"s{i}", x, threshold=50.0) for i, x in
                   enumerate((0.0, 2500.0, 5000.0, 7500.0, 10000.0))]
        counts = []
        for beta in (0.0, 1e-4, 3e-4, 1e-3, 3e-3):
            recs = propagate(leak, 1000.0, sensors, WaveModel(speed=1000.0, attenuation=beta))
            counts.append(sum(r.triggered for r in recs))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestLocalize:
    def test_equal_times_give_midpoint(self):
        est = localize(0.0, 5.0, 10000.0, 5.0, 1000.0)
        assert est.position == 5000.0 and not est.out_of_bracket

    def test_closed_form_example(self):
        # forward check: a leak at 4000 m with a = 1000 m/s reaches x1 = 0
        # at t = 4 s and x2 = 10000 at t = 6 s, so t1 - t2 = -2 s.
        est = localize(0.0, 4.0, 10000.0, 6.0, 1000.0)
        assert est.position == pytest.approx(4000.0, rel=1e-12)

    def test_out_of_bracket_flagged(self):
        # the time lag exceeds the inter-sensor transit: source left of both
        est = localize(1000.0, 0.0, 2000.0, 1.5, 1000.0)
        assert est.out_of_bracket and est.position == 1000.0

    @settings(max_examples=80, deadline=None)
    @given(
        x=st.floats(min_value=1.0, max_value=9999.0),
        beta=st.floats(min_value=0.0, max_value=2e-4),
        res=st.sampled_from([0.0, 0.001, 0.01, 0.1]),
    )
    def test_forward_inverse_roundtrip(self, x, beta, res):
        speed = 1200.0
        leak = LeakEvent(position=x, start_time=50.0, mass_rate=1.0)
        sensors = [sensor("a", 0.0, threshold=1.0, resolution=res),
                   sensor("b", 10000.0, threshold=1.0, resolution=res)]
        recs = propagate(leak, 1e5, sensors, WaveModel(speed=speed, attenuation=beta))
        assert all(r.triggered for r in recs)
        est = localize(recs[0].position, recs[0].arrival_time,
                       recs[1].position, recs[1].arrival_time, speed)
        tol = speed * res if res else 1e-6
        assert abs(est.position - x) <= tol + 1e-9

    def test_translation_invariance(self):
        speed, x = 1000.0, 3137.0
        for shift in (0.0, 500.0, 12345.0):
            leak = LeakEvent(position=x + shift, start_time=0.0, mass_rate=1.0)
            sensors = [sensor("a", shift), sensor("b", 10000.0 + shift)]
            recs = propagate(leak, 10.0, sensors, WaveModel(speed=speed))
            est = localize(recs[0].position, recs[0].arrival_time,
                           recs[1].position, recs[1].arrival_time, speed)
            assert est.position - shift == pytest.approx(x, abs=1e-9)

    def test_sensor_order_validated(self):
        with pytest.raises(ConfigurationError):
            localize(5000.0, 0.0, 1000.0, 1.0, 1000.0)


def latency(leak, sensors, wave):
    """The detection latency that ``report`` gives a lone leak."""
    return report([leak], 100.0, sensors, wave)["detections"][0]["latency"]


class TestLatency:
    def test_adjacent_sensor(self):
        leak = LeakEvent(position=1000.0, start_time=10.0, mass_rate=1.0)
        lat = latency(leak, [sensor("s", 1000.0)], WaveModel(speed=1000.0))
        assert lat == pytest.approx(0.0, abs=1e-12)

    def test_mid_line_liquid(self):
        leak = LeakEvent(position=5000.0, start_time=0.0, mass_rate=1.0)
        sensors = [sensor("a", 0.0), sensor("b", 10000.0)]
        lat = latency(leak, sensors, WaveModel(speed=LIQUID_SPEED))
        assert lat == pytest.approx(5000.0 / LIQUID_SPEED, rel=1e-12)

    def test_no_detection(self):
        leak = LeakEvent(position=5000.0, start_time=0.0, mass_rate=1.0)
        sensors = [sensor("a", 0.0, threshold=1e9)]
        assert latency(leak, sensors, WaveModel(speed=1000.0)) is None


class TestTriggeredPair:
    def test_earliest_two_bracket_the_leak(self):
        leak = LeakEvent(position=4000.0, start_time=0.0, mass_rate=1.0)
        sensors = [sensor(f"s{i}", x) for i, x in enumerate((0.0, 3000.0, 6000.0, 10000.0))]
        recs = propagate(leak, 100.0, sensors, WaveModel(speed=1000.0))
        a, b = triggered_pair(recs)
        assert (a.position, b.position) == (3000.0, 6000.0)

    def test_insufficient_triggers(self):
        leak = LeakEvent(position=4000.0, start_time=0.0, mass_rate=1.0)
        recs = propagate(leak, 100.0, [sensor("only", 0.0)], WaveModel(speed=1000.0))
        assert triggered_pair(recs) is None


class TestReport:
    def test_two_leaks(self):
        leaks = [LeakEvent(position=x, start_time=t, mass_rate=1.0)
                 for x, t in ((2500.0, 10.0), (7000.0, 50.0))]
        sensors = [sensor("a", 0.0, threshold=50.0), sensor("b", 5000.0, threshold=50.0),
                   sensor("c", 10000.0, threshold=50.0)]
        wave = WaveModel(speed=1000.0, attenuation=2e-4)
        section = report(leaks, 100.0, sensors, wave)
        assert section["enabled"]
        assert len(section["events"]) == 2 * len(sensors)
        assert [d["leak_position"] for d in section["detections"]] == [2500.0, 7000.0]
        for leak, det in zip(leaks, section["detections"]):
            assert det["latency"] == latency(leak, sensors, wave)
        # the far sensor misses the first leak, so a and b bracket it
        assert section["detections"][0]["localization"]["sensors"] == ["a", "b"]
