"""The banded LU: numpy's LAPACK and the scipy fallback give the same
bits, and a run on numpy's LAPACK never imports scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import standard_config
from linewatch import hydraulics, lapack
from linewatch.hydraulics import (
    BoundaryConditions,
    BoundaryLeg,
    LeakEvent,
    PipeFlowSolver,
    TimeSeries,
)
from linewatch.network import discretize
from linewatch.scenario import run_scenario, scenario_from_dict

ROOT = Path(__file__).resolve().parent.parent

needs_numpy_lapack = pytest.mark.skipif(
    lapack._ROUTINES is None, reason="numpy's LAPACK does not export dgbtrf/dgbtrs")


@pytest.fixture
def scipy_too():
    pytest.importorskip("scipy.linalg")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _jacobians(fluid, pipe, dx):
    """Every Jacobian a steady solve and a few leak steps on the standard
    line factor, as built (before ``dgbtrf`` overwrites them)."""
    solver = PipeFlowSolver(pipe, fluid, discretize(pipe, dx))
    built = []
    jacobian = solver._jacobian

    def keep(*args):
        ab = jacobian(*args)
        built.append(ab.copy(order="F"))
        return ab

    solver._jacobian = keep
    bc = BoundaryConditions(inlet=BoundaryLeg("pressure", TimeSeries.constant(1.0e6)),
                            outlet=BoundaryLeg("pressure", TimeSeries.constant(6.7e5)),
                            temperature=TimeSeries.constant(300.0))
    state = solver.steady_state(bc)
    leak = [LeakEvent(position=4000.0, start_time=0.0, mass_rate=0.7)]
    for _ in range(3):
        state = solver.advance(state, bc, 1.0, leaks=leak).state
    return built


@needs_numpy_lapack
@pytest.mark.usefixtures("scipy_too")
class TestBackends:
    @pytest.mark.parametrize("dx", [200.0, 20.0], ids=["51_nodes", "501_nodes"])
    def test_factors_and_solves_are_bit_equal(self, water_like, ten_km_line, dx):
        rng = np.random.default_rng(7)
        jacobians = _jacobians(water_like, ten_km_line, dx)
        assert len(jacobians) >= 2       # the steady one and a transient one
        for ab in jacobians:
            n = ab.shape[1]
            ours = lapack._numpy_dgbtrf(ab.copy(order="F"), 4, 4)
            theirs = lapack._scipy_dgbtrf(ab.copy(order="F"), 4, 4)
            assert ours.info == theirs.info == 0
            _same_bits(ours.ab, theirs.ab)
            _same_bits(ours.piv, theirs.piv.astype(np.int64) + 1)   # 1-based vs 0-based

            for _ in range(3):           # the reused output buffer is refilled each time
                b = rng.standard_normal(n)
                _same_bits(lapack._numpy_dgbtrs(ours, b), lapack._scipy_dgbtrs(theirs, b))
            _same_bits(lapack._numpy_dgbtrs(ours, b, trans=1),
                       lapack._scipy_dgbtrs(theirs, b, trans=1))

            unit = np.zeros((n, 5), order="F")
            unit[rng.choice(n, 5, replace=False), np.arange(5)] = 1.0
            _same_bits(lapack._numpy_dgbtrs(ours, unit, trans=1),
                       lapack._scipy_dgbtrs(theirs, unit, trans=1))

    def test_report_bytes_do_not_depend_on_the_backend(self, monkeypatch):
        # Declares at 185 s, so the run also takes the locate scan's
        # transposed solve.
        cfg = standard_config(horizon=300.0)
        ours = run_scenario(scenario_from_dict(cfg))
        assert ours.rtm["declared"]
        monkeypatch.setattr(hydraulics.lapack, "dgbtrf", lapack._scipy_dgbtrf)
        monkeypatch.setattr(hydraulics.lapack, "dgbtrs", lapack._scipy_dgbtrs)
        theirs = run_scenario(scenario_from_dict(cfg))
        assert ours.to_json() == theirs.to_json()


@needs_numpy_lapack
class TestNumpyLapack:
    def test_rejects_a_mis_shaped_band_or_right_hand_side(self):
        with pytest.raises(ValueError, match="need 2\\*kl \\+ ku \\+ 1 = 13 rows"):
            lapack.dgbtrf(np.zeros((12, 30), order="F"), 4, 4)
        ab = np.zeros((13, 30), order="F")
        ab[8] = 1.0
        lu = lapack.dgbtrf(ab, 4, 4)
        with pytest.raises(ValueError, match="shape \\(29, 2\\) for 30 unknowns"):
            lapack.dgbtrs(lu, np.ones((29, 2)), trans=1)

    def test_singular_matrix_reports_info(self):
        ab = np.zeros((13, 30), order="F")
        ab[8] = 1.0
        ab[8, 17] = 0.0
        assert lapack.dgbtrf(ab, 4, 4).info == 18

    def test_import_and_load_leave_scipy_unloaded(self):
        """No timing: a change that puts scipy back on the import path
        fails here, where start-up times mean nothing."""
        code = ("import sys, linewatch; linewatch.load_scenario(sys.argv[1]); "
                "print('scipy' in sys.modules)")
        out = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "demos" / "scenarios" / "standard_leak.yaml")],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
            timeout=60, check=True)
        assert out.stdout.strip() == "False"


def test_fallback_without_scipy_names_the_extra(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    with pytest.raises(ImportError, match=r"pip install linewatch\[scipy\]"):
        lapack._scipy_dgbtrf(np.zeros((13, 5), order="F"), 4, 4)
