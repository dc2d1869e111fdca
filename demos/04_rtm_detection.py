"""
Real-time-model leak detection, end to end
==========================================

The standard desk scenario: 10 km liquid line, SCADA polls every 5 s with
0.2%-of-span noise, and a leak of just 1% of rated flow.  The pressure-
driven shadow model turns the end flow meters into leak indicators; the
(M=3, K=2) vote keeps the noise out and still declares within about a
minute.  The balance detector confirms later, and the acoustic channel
would have tripped within seconds of the wavefront.
"""

from pathlib import Path

from linewatch.scenario import load_scenario, run_scenario

SCENARIOS = Path(__file__).parent / "scenarios"

report = run_scenario(load_scenario(SCENARIOS / "standard_leak.yaml"))

leak = report.truth["leaks"][0]
print("truth:    %.2f kg/s at %.0f m, opening t=%.0f s"
      % (leak["mass_rate"], leak["position"], leak["start_time"]))
print("rtm:      alarm t=%.0f s (latency %.0f s), size %.2f kg/s, location %.0f m"
      % (report.rtm["declared_time"], report.metrics["rtm_detection_latency"],
         report.rtm["size_estimate"], report.rtm["location_estimate"]))
print("balance:  first alarming window ends t=%.0f s" % report.balance["first_alarm_time"])
det = report.acoustic["detections"][0]
print("acoustic: latency %.2f s, localized at %.0f m"
      % (det["latency"], det["localization"]["position"]))
print("ledger:   worst step residual %.2e x linepack"
      % report.mass_ledger["max_step_residual_relative"])

# indicator traces: smoothed discrepancies in units of their thresholds,
# read from the RTM trace's columns at the polls that counted (no reason);
# a column's ``values`` hold NaN where it reads None
trace = report.rtm_trace
polls = [k for k, reason in enumerate(trace.reasons) if reason is None]
times = [trace.times[k] for k in polls]
flow_in_n = [trace.normalized["flow_in"].values[k] for k in polls]
flow_out_n = [trace.normalized["flow_out"].values[k] for k in polls]

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(times, flow_in_n, label="inlet flow indicator")
    ax.plot(times, flow_out_n, label="outlet flow indicator")
    ax.axhline(1.0, color="k", lw=0.8)
    ax.axhline(-1.0, color="k", lw=0.8)
    ax.axvline(leak["start_time"], color="k", ls=":", label="leak opens")
    ax.axvline(report.rtm["declared_time"], color="r", ls="--", label="alarm")
    ax.set_xlabel("time [s]")
    ax.set_ylabel("discrepancy / threshold")
    ax.set_title("Leak indicators on a 1%-of-rated leak")
    ax.legend(loc="upper left")
    fig.savefig("demo04_indicators.png", dpi=120, bbox_inches="tight")
    print("\nwrote demo04_indicators.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
