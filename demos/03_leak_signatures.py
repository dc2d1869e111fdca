"""
What a leak looks like to a model
=================================

A pump holds the inlet rate while the outlet delivers into a fixed-pressure
terminal.  When a leak opens, a flow-driven shadow model (fed only the
measured end flows) sees less mass leaving than entering and concludes the
line is packing: its predicted pressures climb.  The real line, of course,
is depressurizing.  That divergence, measured-falls-while-model-rises, is
the classic real-time-model leak signature.
"""

from pathlib import Path

import numpy as np

from linewatch.scenario import load_scenario, run_scenario

SCENARIOS = Path(__file__).parent / "scenarios"

scenario = load_scenario(SCENARIOS / "phenomenology.yaml")
report = run_scenario(scenario)

leak = report.truth["leaks"][0]
print("leak truth: %.1f kg/s at %.0f m from t=%.0f s"
      % (leak["mass_rate"], leak["position"], leak["start_time"]))
print("rtm verdict: declared=%s t=%.0f s size=%.2f kg/s location=%.0f m"
      % (report.rtm["declared"], report.rtm["declared_time"],
         report.rtm["size_estimate"], report.rtm["location_estimate"]))

times, measured, modeled = [], [], []
for rec in report.rtm_records:
    d = rec.delta.get("p_mid")
    if d is None:
        continue
    m = rec.frame.good_value("p_mid")
    times.append(rec.poll_time)
    measured.append(m)
    modeled.append(m - d)

times = np.array(times)
measured, modeled = np.array(measured), np.array(modeled)
baseline = times < leak["start_time"]
at_alarm = times <= report.rtm["declared_time"]
print("\nnet change at the 8 km sensor from leak start to the alarm:")
print("  measured: %+.1f kPa (the line is unpacking)"
      % ((measured[at_alarm][-1] - measured[baseline][-1]) / 1e3))
print("  modeled:  %+.1f kPa (the model thinks it is packing)"
      % ((modeled[at_alarm][-1] - modeled[baseline][-1]) / 1e3))
print("left unreconciled, the shadow keeps packing: %+.0f kPa by the end of the run"
      % ((modeled[-1] - modeled[baseline][-1]) / 1e3))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(times, measured / 1e5, label="measured P @ 8 km")
    ax.plot(times, modeled / 1e5, label="shadow model P @ 8 km")
    ax.axvline(leak["start_time"], color="k", ls=":", label="leak opens")
    ax.axvline(report.rtm["declared_time"], color="r", ls="--", label="alarm")
    ax.set_xlabel("time [s]")
    ax.set_ylabel("P [bar]")
    ax.set_title("Measured vs modeled pressure around a leak")
    ax.legend()
    fig.savefig("demo03_leak_signature.png", dpi=120, bbox_inches="tight")
    print("\nwrote demo03_leak_signature.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
