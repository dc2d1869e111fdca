"""
Transients: a pressure step racing down the line
================================================

Step the inlet pressure up and watch the front cross a 10 km liquid line
at the fluid's wave speed (sqrt(B/rho0) ~ 1414 m/s, about one mile per
second, so a 7-second transit).  The mass ledger stays closed at every
step.
"""

import numpy as np

from linewatch import (
    BoundaryConditions,
    BoundaryLeg,
    FluidModel,
    LiquidEos,
    PipeFlowSolver,
    PipelineModel,
    TimeSeries,
    discretize,
)

fluid = FluidModel(
    eos=LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4),
    c=2000.0,
)
pipe = PipelineModel(length=10_000.0, diameter=0.3, friction_factor=0.02,
                     U=0.0, Tg=300.0)
grid = discretize(pipe, 100.0)
solver = PipeFlowSolver(pipe, fluid, grid)
dt = 0.1  # s, a 70th of the transit time

wave_speed = np.sqrt(fluid.eos.B / fluid.eos.rho0)
print("wave speed %.0f m/s -> transit time %.2f s" % (wave_speed, pipe.length / wave_speed))

# hold the outlet flow, step the inlet pressure by half a bar at t=0
step = 5e4
bc = BoundaryConditions(
    inlet=BoundaryLeg("pressure", TimeSeries([0.0, 0.05], [1.0e6, 1.0e6 + step])),
    outlet=BoundaryLeg("flow", TimeSeries.constant(70.35)),
    temperature=TimeSeries.constant(300.0),
)
state = solver.steady_state(
    BoundaryConditions(
        inlet=BoundaryLeg("pressure", TimeSeries.constant(1.0e6)),
        outlet=BoundaryLeg("flow", TimeSeries.constant(70.35)),
        temperature=TimeSeries.constant(300.0),
    )
)
p_out0 = state.P[-1]

snapshots, worst_residual = {}, 0.0
marks = (2.0, 4.0, 6.0, 8.0, 12.0)
while state.t < 14.0:
    out = solver.advance(state, bc, dt)
    state = out.state
    worst_residual = max(worst_residual, abs(out.ledger.residual))
    for m in marks:
        if abs(state.t - m) < 1e-9:
            snapshots[m] = state.P.copy()
            print("t=%5.1f s: outlet has seen %6.1f%% of the step"
                  % (m, 100 * (state.P[-1] - p_out0) / step))

print("worst per-step mass-ledger residual: %.2e kg" % worst_residual)

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    for m in marks:
        ax.plot(grid.node_positions / 1000, snapshots[m] / 1e5, label=f"t = {m:.0f} s")
    ax.set_xlabel("distance [km]")
    ax.set_ylabel("P [bar]")
    ax.set_title("Inlet pressure step propagating downstream")
    ax.legend()
    fig.savefig("demo02_wavefront.png", dpi=120, bbox_inches="tight")
    print("wrote demo02_wavefront.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
