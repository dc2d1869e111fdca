"""Pipeline geometry, instrumentation, and spatial discretization."""

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "GRAVITY",
    "Segment",
    "PipelineModel",
    "InstrumentPlacement",
    "Grid",
    "discretize",
    "elevation_at",
    "end_flow_meters",
]

GRAVITY = 9.80665  # m/s^2


@dataclass(frozen=True)
class Segment:
    """Per-segment property overrides; bounds in metres from the inlet."""

    start: float
    end: float
    friction_factor: Optional[float] = None  # Darcy f
    U: Optional[float] = None                # W/(m^2 K)

    def __post_init__(self):
        if not 0.0 <= self.start < self.end:
            raise ConfigurationError(
                f"segment bounds ({self.start}, {self.end}) must satisfy 0 <= start < end")


@dataclass(frozen=True)
class InstrumentPlacement:
    """One field instrument on the line."""

    id: str
    kind: str              # flow | pressure | temperature
    position: float        # m from inlet
    noise_sigma: float = 0.0   # instrument units (kg/s, Pa, or K)
    bias: float = 0.0
    dropout_prob: float = 0.0  # per-poll probability of a missing reading

    KINDS = ("flow", "pressure", "temperature")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigurationError(f"instrument {self.id}: unknown kind {self.kind!r}")
        if self.noise_sigma < 0:
            raise ConfigurationError(f"instrument {self.id}: noise_sigma must be >= 0")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ConfigurationError(f"instrument {self.id}: dropout_prob must be in [0, 1)")


def end_flow_meters(instruments, length):
    """The flow meters that bracket the line: ``(inlet, outlet)``, the first
    flow meter if it lies before ``length / 2`` and the last if it lies
    after; either is None when that half of the line has no meter."""
    flows = sorted((i for i in instruments if i.kind == "flow"), key=lambda i: i.position)
    inlet = flows[0] if flows and flows[0].position < length / 2 else None
    outlet = flows[-1] if flows and flows[-1].position > length / 2 else None
    return inlet, outlet


@dataclass(frozen=True)
class PipelineModel:
    """Single trunk line: geometry, elevation profile, and wall properties.

    The elevation profile is piecewise linear and must cover [0, length].
    The solver requires one diameter for the whole line; segments may
    override friction factor and heat-transfer coefficient only.
    """

    length: float                     # m
    diameter: float                   # m
    friction_factor: float            # Darcy f, dimensionless
    elevation_profile: Tuple[Tuple[float, float], ...] = None  # ((x, H), ...), m
    U: float = 0.0                    # overall heat transfer, W/(m^2 K)
    Tg: float = 288.15                # ground temperature, K
    segments: Tuple[Segment, ...] = ()

    def __post_init__(self):
        if self.length <= 0:
            raise ConfigurationError(f"length must be > 0, got {self.length}")
        if self.diameter <= 0:
            raise ConfigurationError(f"diameter must be > 0, got {self.diameter}")
        if self.friction_factor <= 0:
            raise ConfigurationError(f"friction_factor must be > 0, got {self.friction_factor}")
        if self.U < 0:
            raise ConfigurationError(f"U must be >= 0, got {self.U}")
        if not self.Tg > 0:
            raise ConfigurationError(f"ground temperature Tg must be > 0, got {self.Tg}")
        profile = self.elevation_profile
        if profile is None:
            profile = ((0.0, 0.0), (self.length, 0.0))
        profile = tuple((float(x), float(h)) for x, h in profile)
        object.__setattr__(self, "elevation_profile", profile)
        xs = [x for x, _ in profile]
        if xs != sorted(xs) or len(xs) < 2:
            raise ConfigurationError("elevation profile x-coordinates must be increasing")
        if not math.isclose(xs[0], 0.0, abs_tol=1e-9) or not math.isclose(
            xs[-1], self.length, rel_tol=1e-9, abs_tol=1e-6
        ):
            raise ConfigurationError(
                f"elevation profile must cover [0, {self.length}] with no gaps"
            )
        for k, seg in enumerate(self.segments):
            if seg.end > self.length:
                raise ConfigurationError(
                    f"segments[{k}]: end {seg.end} beyond the line length {self.length}")

    @property
    def area(self):
        """Cross-sectional area A = pi*D^2/4, m^2 (single source of truth)."""
        return math.pi * self.diameter**2 / 4.0

    def friction_at(self, x):
        for seg in self.segments:
            if seg.start <= x < seg.end and seg.friction_factor is not None:
                return seg.friction_factor
        return self.friction_factor

    def heat_transfer_at(self, x):
        for seg in self.segments:
            if seg.start <= x < seg.end and seg.U is not None:
                return seg.U
        return self.U


def elevation_at(pipeline: PipelineModel, x):
    """Piecewise-linear elevation H(x) in metres; x must lie in [0, length]."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0) or np.any(x_arr > pipeline.length * (1 + 1e-12)):
        raise ValueError(f"position {x} outside [0, {pipeline.length}]")
    xs = np.array([p[0] for p in pipeline.elevation_profile])
    hs = np.array([p[1] for p in pipeline.elevation_profile])
    out = np.interp(x_arr, xs, hs)
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class Grid:
    """Solver grid: ordered node positions from 0 to the line length."""

    node_positions: np.ndarray  # m, strictly increasing, [0 .. length]

    def __post_init__(self):
        pos = np.asarray(self.node_positions, dtype=float)
        object.__setattr__(self, "node_positions", pos)
        if pos.size < 2 or np.any(np.diff(pos) <= 0):
            raise ConfigurationError("grid nodes must be strictly increasing (>= 2 nodes)")

    @property
    def node_count(self):
        return self.node_positions.size


def discretize(pipeline: PipelineModel, target_dx, points=()):
    """Build a solver grid with spacing <= target_dx.

    Segment boundaries, elevation breakpoints and the given ``points`` (a
    run passes its instrument positions, then its leak positions) are
    snapped onto nodes; the span between consecutive snap points is divided
    uniformly.  Deterministic for identical inputs.
    """
    L = pipeline.length
    if target_dx <= 0:
        raise ConfigurationError(f"target_dx must be > 0, got {target_dx}")
    dx = min(float(target_dx), L)

    fixed = {0.0, L}
    for seg in pipeline.segments:
        fixed.update((float(seg.start), float(seg.end)))
    for x, _ in pipeline.elevation_profile:
        fixed.add(float(x))
    for p in points:
        if not 0.0 <= p <= L:
            raise ConfigurationError(f"grid point {p} m lies outside [0, {L}]")
        fixed.add(float(p))

    anchors = sorted(fixed)
    gaps = np.diff(anchors)
    if np.any(gaps < dx * (1 - 1e-9)):
        i = int(np.argmin(gaps))
        raise ConfigurationError(
            f"fixed grid points at {anchors[i]} m and {anchors[i + 1]} m are closer "
            f"together than the target spacing {dx} m; use target_dx <= {gaps[i]:.6g}"
        )

    nodes = [0.0]
    for a, b in zip(anchors[:-1], anchors[1:]):
        n_cells = max(1, math.ceil((b - a) / dx - 1e-9))
        nodes.extend(np.linspace(a, b, n_cells + 1)[1:].tolist())
    return Grid(node_positions=np.array(nodes))
