import math

import numpy as np
import pytest

from linewatch.errors import ConfigurationError
from linewatch.network import (
    InstrumentPlacement,
    PipelineModel,
    Segment,
    discretize,
    elevation_at,
)


def line(**kw):
    args = dict(length=10000.0, diameter=0.3, friction_factor=0.02)
    args.update(kw)
    return PipelineModel(**args)


class TestDiscretize:
    def test_uniform_division(self):
        grid = discretize(line(), 1000.0)
        assert grid.node_count == 11
        assert np.allclose(grid.node_positions, np.arange(0, 10001, 1000))

    def test_instrument_snapped_onto_node(self):
        inst = InstrumentPlacement("p1", "pressure", 4500.0)
        grid = discretize(line(), 1000.0, [inst.position])
        assert np.any(np.isclose(grid.node_positions, 4500.0))
        assert np.all(np.diff(grid.node_positions) <= 1000.0 + 1e-9)

    def test_target_dx_larger_than_line(self):
        grid = discretize(line(), 20000.0)
        assert grid.node_count == 2

    def test_instruments_too_close_rejected(self):
        close = [
            InstrumentPlacement("a", "pressure", 4500.0),
            InstrumentPlacement("b", "pressure", 4900.0),
        ]
        with pytest.raises(ConfigurationError, match="target_dx"):
            discretize(line(), 1000.0, [i.position for i in close])

    def test_deterministic(self):
        g1 = discretize(line(), 700.0, [3333.0])
        g2 = discretize(line(), 700.0, [3333.0])
        assert np.array_equal(g1.node_positions, g2.node_positions)

    def test_segment_boundaries_on_nodes(self):
        pipe = line(segments=(Segment(0.0, 2500.0, friction_factor=0.03),
                              Segment(2500.0, 10000.0)))
        grid = discretize(pipe, 1000.0)
        assert np.any(np.isclose(grid.node_positions, 2500.0))

    def test_extra_points_snapped(self):
        grid = discretize(line(), 1000.0, [5150.0])
        assert np.any(np.isclose(grid.node_positions, 5150.0))

    def test_point_outside_the_line_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^grid point 10500\.0 m lies outside"):
            discretize(line(), 1000.0, [10500.0])


class TestElevation:
    def test_flat_default(self):
        assert elevation_at(line(), 1234.5) == 0.0

    def test_linear_interpolation(self):
        pipe = line(elevation_profile=((0.0, 0.0), (10000.0, 100.0)))
        assert elevation_at(pipe, 5000.0) == pytest.approx(50.0)

    def test_breakpoint_exact(self):
        pipe = line(elevation_profile=((0.0, 0.0), (4000.0, 35.0), (10000.0, 10.0)))
        assert elevation_at(pipe, 4000.0) == 35.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            elevation_at(line(), -1.0)
        with pytest.raises(ValueError):
            elevation_at(line(), 10001.0)

    def test_profile_must_cover_line(self):
        with pytest.raises(ConfigurationError):
            line(elevation_profile=((0.0, 0.0), (8000.0, 10.0)))


class TestPipelineModel:
    def test_area_single_source_of_truth(self):
        pipe = line(diameter=0.3)
        assert pipe.area == pytest.approx(math.pi * 0.09 / 4.0, rel=1e-15)

    def test_segment_overrides(self):
        pipe = line(segments=(Segment(0.0, 5000.0, friction_factor=0.05, U=7.0),))
        assert pipe.friction_at(100.0) == 0.05
        assert pipe.friction_at(7000.0) == 0.02
        assert pipe.heat_transfer_at(100.0) == 7.0

    def test_basic_invariants(self):
        for bad in (dict(length=0.0), dict(diameter=-0.1), dict(friction_factor=0.0)):
            with pytest.raises(ConfigurationError):
                line(**bad)

    def test_instrument_invariants(self):
        with pytest.raises(ConfigurationError):
            InstrumentPlacement("x", "sonar", 0.0)
        with pytest.raises(ConfigurationError):
            InstrumentPlacement("x", "flow", 0.0, dropout_prob=1.0)
