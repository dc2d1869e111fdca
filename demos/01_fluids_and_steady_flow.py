"""
Fluids and steady pipe flow
===========================

Evaluate the two equation-of-state families, then solve a steady line and
compare the pressure drop against the Darcy-Weisbach closed form.
"""

import numpy as np

from linewatch import (
    BoundaryConditions,
    BoundaryLeg,
    FluidModel,
    GasEos,
    LiquidEos,
    PipeFlowSolver,
    PipelineModel,
    TimeSeries,
    compressibility_z,
    density,
    discretize,
    isothermal_sound_speed,
)
from linewatch.network import GRAVITY

# --- a bulk-modulus liquid and a correlated-Z gas ------------------------
liquid = LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4)
gas = GasEos.from_z_reference(R=500.0, P_ref=5e6, T_ref=300.0, Z_ref=0.9)

print("liquid density at 20 bar, 300 K:", density(liquid, 2e6, 300.0), "kg/m3")
print("gas Z at 50 bar, 300 K:        ", compressibility_z(gas, 5e6, 300.0))
print("gas density at 50 bar, 300 K:  ", density(gas, 5e6, 300.0), "kg/m3")
print("liquid wave speed:             ", isothermal_sound_speed(liquid, 2e6, 300.0), "m/s")

# --- steady flow on a 10 km trunk line -----------------------------------
fluid = FluidModel(eos=liquid, c=2000.0)
pipe = PipelineModel(length=10_000.0, diameter=0.3, friction_factor=0.02,
                     U=2.0, Tg=288.15)
grid = discretize(pipe, 100.0)
solver = PipeFlowSolver(pipe, fluid, grid)

bc = BoundaryConditions(
    inlet=BoundaryLeg("flow", TimeSeries.constant(70.0)),      # pump: 70 kg/s
    outlet=BoundaryLeg("pressure", TimeSeries.constant(6e5)),  # 6 bar terminal
    temperature=TimeSeries.constant(300.0),
)
state = solver.steady_state(bc)

rho = state.rho.mean()
v = 70.0 / (rho * pipe.area)
darcy = 0.02 * (pipe.length / pipe.diameter) * rho * v**2 / 2.0
print("\nsteady solve: inlet %.3f bar, outlet %.3f bar" % (state.P[0] / 1e5, state.P[-1] / 1e5))
print("pressure drop %.4g Pa vs Darcy-Weisbach %.4g Pa" % (state.P[0] - state.P[-1], darcy))
print("temperature relaxes toward ground: %.2f K -> %.2f K over the line"
      % (state.T[0], state.T[-1]))

# --- optional plot --------------------------------------------------------
try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(3, 1, figsize=(7, 7), sharex=True)
    axes[0].plot(state.x / 1000, state.P / 1e5)
    axes[0].set_ylabel("P [bar]")
    axes[1].plot(state.x / 1000, state.V)
    axes[1].set_ylabel("V [m/s]")
    axes[2].plot(state.x / 1000, state.T)
    axes[2].set_ylabel("T [K]")
    axes[2].set_xlabel("distance [km]")
    fig.suptitle("Steady profiles, 10 km liquid line")
    fig.savefig("demo01_steady_profiles.png", dpi=120, bbox_inches="tight")
    print("\nwrote demo01_steady_profiles.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
