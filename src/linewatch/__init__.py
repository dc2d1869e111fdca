"""linewatch: a desk-scale pipeline-integrity toolkit.

Provides
  1. Equations of state for pipeline liquids and light gases (``fluid``)
  2. Line geometry, instrumentation, and grid building (``network``)
  3. An implicit transient solver for 1D pipe flow with leak sinks
     (``hydraulics``), on the banded LU of numpy's LAPACK (``lapack``)
  4. SCADA telemetry synthesis with noise, dropout, and plausibility
     filtering (``telemetry``)
  5. Real-time-model leak detection with voting, sizing, and
     localization (``rtm``)
  6. Windowed line-balance detection (``balance``)
  7. Negative-pressure-wave propagation and arrival-time localization
     (``acoustic``)
  8. Series-system alarm availability analysis (``availability``)
  9. Scenario configs, the end-to-end runner, and parameter sweeps
     (``scenario``; also the ``linewatch`` command line)

The demos/ directory of the source tree walks through each capability
with narrative scripts.
"""

from .acoustic import AcousticSensor, WaveModel, localize, propagate
from .availability import (
    ChainElement,
    ComponentChain,
    approximate_availability,
    availability_report,
    chain_availability,
    compare_configurations,
    reference_chains,
)
from .balance import BalanceDetector, BalanceWindow, accumulate, balance_alarm
from .errors import (
    ConfigurationError,
    InfeasibleScenarioError,
    InfeasibleStateError,
    ParameterDomainError,
    SolverError,
)
from .fluid import (
    FluidModel,
    GasEos,
    LiquidEos,
    compressibility_z,
    density,
    isothermal_sound_speed,
)
from .hydraulics import (
    BoundaryConditions,
    BoundaryLeg,
    GridState,
    LeakEvent,
    PipeFlowSolver,
    TimeSeries,
    linepack,
)
from .network import Grid, InstrumentPlacement, PipelineModel, Segment, discretize, elevation_at
from .rtm import LeakVerdict, RtmDetector, VotingPolicy, vote
from .scenario import RunReport, Scenario, load_scenario, run_scenario, scenario_from_dict, sweep
from .telemetry import (
    NoiseSpec,
    PlausibilityLimits,
    Reading,
    TelemetryFrame,
    instrument_nodes,
    noiseless_reading,
    plausibility_filter,
    sample,
)

__version__ = "0.1.0"
