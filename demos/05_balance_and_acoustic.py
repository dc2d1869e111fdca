"""
The two simpler detectors
=========================

Line balance is bookkeeping: metered mass in, minus metered mass out,
minus the inventory change the shadow model reports.  It is slow (one
verdict per window) but nearly assumption-free, and it never claims a
location.  The negative-pressure-wave channel is the opposite: nearly
instant and location-sharp, but it only hears the opening transient.
"""

from pathlib import Path

import numpy as np

from linewatch.acoustic import AcousticSensor, WaveModel, localize, propagate, triggered_pair
from linewatch.balance import BalanceDetector
from linewatch.hydraulics import LeakEvent
from linewatch.scenario import load_scenario, run_scenario

SCENARIOS = Path(__file__).parent / "scenarios"

# --- balance windows over the standard leak run ---------------------------
report = run_scenario(load_scenario(SCENARIOS / "standard_leak.yaml"))
print("balance windows (600 s each):")
print("  %-10s %-10s %-10s %-12s %-10s %s" % ("end", "V_in", "V_out", "dInventory", "dV", "alarm"))
for w in report.balance["windows"]:
    print("  %-10.0f %-10.1f %-10.1f %-12.2f %-10.1f %s"
          % (w["end"], w["v_in"], w["v_out"], w["delta_inventory"],
             w["imbalance"], "ALARM" if w["alarm"] else "-"))

# --- acoustic localization on a 50 km gas line -----------------------------
speed = 321.87   # transient front speed in gas: a mile in five seconds
sensors = [
    AcousticSensor("km00", 0.0, trigger_threshold=1e3, timestamp_resolution=0.05),
    AcousticSensor("km20", 20_000.0, trigger_threshold=1e3, timestamp_resolution=0.05),
    AcousticSensor("km35", 35_000.0, trigger_threshold=1e3, timestamp_resolution=0.05),
    AcousticSensor("km50", 50_000.0, trigger_threshold=1e3, timestamp_resolution=0.05),
]
leak = LeakEvent(position=27_300.0, start_time=1000.0, mass_rate=3.0)
records = propagate(leak, initial_amplitude=8e4, sensors=sensors,
                    wave=WaveModel(speed=speed, attenuation=5e-5))

print("\nacoustic arrivals for a rupture at %.1f km:" % (leak.position / 1000))
for r in records:
    print("  %-5s @ %5.1f km: t=%8.2f s amplitude %7.0f Pa %s"
          % (r.sensor_id, r.position / 1000, r.arrival_time, r.amplitude,
             "TRIGGERED" if r.triggered else ""))

a, b = triggered_pair(records)
est = localize(a.position, a.arrival_time, b.position, b.arrival_time, speed)
print("first pair (%s, %s) places the leak at %.0f m (truth %.0f m)"
      % (a.sensor_id, b.sensor_id, est.position, leak.position))
