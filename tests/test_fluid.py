import numpy as np
import pytest

from linewatch.errors import ConfigurationError, ParameterDomainError
from linewatch.fluid import (
    FluidModel,
    GasEos,
    LiquidEos,
    assert_off_critical,
    compressibility_z,
    density,
    dP_dT_const_density,
    isothermal_sound_speed,
    raw_density,
)


@pytest.fixture
def ideal_gas():
    return GasEos(R=500.0)


@pytest.fixture
def real_gas():
    return GasEos.from_z_reference(R=500.0, P_ref=5e6, T_ref=300.0, Z_ref=0.9, y=1.2)


class TestDensity:
    def test_liquid_identity_at_reference(self):
        eos = LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4)
        assert density(eos, 1e5, 300.0) == 1000.0

    def test_liquid_direct_evaluation(self):
        eos = LiquidEos(rho0=1000.0, P0=0.0, T0=300.0, B=2e9, alpha=-2e-4)
        assert density(eos, 2e7, 300.0) == pytest.approx(1000.0 * (1 + 2e7 / 2e9), rel=1e-12)

    def test_ideal_gas(self, ideal_gas):
        assert density(ideal_gas, 5e6, 300.0) == pytest.approx(5e6 / (500.0 * 300.0), rel=1e-12)

    def test_alpha_sign_convention(self):
        # negative alpha: density falls as temperature rises
        eos = LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4)
        assert density(eos, 1e5, 310.0) < 1000.0 < density(eos, 1e5, 290.0)

    def test_strictly_increasing_in_pressure(self, real_gas):
        liquid = LiquidEos(rho0=850.0, P0=1e5, T0=288.0, B=1.2e9, alpha=-9e-4)
        P = np.linspace(1e5, 2e7, 40)
        for T in (260.0, 300.0, 340.0):
            for eos in (liquid, real_gas):
                rho = density(eos, P, T)
                assert np.all(np.diff(rho) > 0)

    def test_drho_dP_matches_bulk_modulus(self):
        # central finite difference against the analytic slope rho0/B
        eos = LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4)
        h = 100.0
        fd = (density(eos, 1e6 + h, 300.0) - density(eos, 1e6 - h, 300.0)) / (2 * h)
        assert fd == pytest.approx(eos.rho0 / eos.B, rel=1e-6)

    def test_pathological_parameters_raise(self):
        eos = LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-0.5)
        with pytest.raises(ParameterDomainError):
            density(eos, 1e5, 310.0)  # alpha*(T-T0) = -5 drives rho negative

    def test_preconditions(self, ideal_gas):
        with pytest.raises(ParameterDomainError):
            density(ideal_gas, -1.0, 300.0)
        with pytest.raises(ParameterDomainError):
            density(ideal_gas, 1e5, 0.0)


class TestCompressibility:
    def test_zero_pressure_limit(self, real_gas):
        assert compressibility_z(real_gas, 0.0, 250.0) == 1.0

    def test_ideal_mode_definition(self, ideal_gas):
        assert compressibility_z(ideal_gas, 1e7, 300.0) == 1.0

    def test_correlated_by_hand(self):
        gas = GasEos(R=500.0, y=1.0, k=1.0)
        assert compressibility_z(gas, 30.0, 300.0) == pytest.approx(1 / 1.1, rel=1e-12)

    def test_z_at_most_one_for_nonnegative_k(self, real_gas):
        P = np.linspace(0, 3e7, 50)
        z = compressibility_z(real_gas, P, 300.0)
        assert np.all(z <= 1.0) and np.all(z > 0.0)

    def test_z_reference_fit(self, real_gas):
        assert compressibility_z(real_gas, 5e6, 300.0) == pytest.approx(0.9, rel=1e-12)


class TestDerivativesAndSpeed:
    def test_liquid_dP_dT_is_minus_alpha_B(self):
        eos = LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4)
        assert dP_dT_const_density(eos, 1e6, 300.0) == pytest.approx(4e5, rel=1e-12)

    def test_gas_dP_dT_finite_difference(self, real_gas):
        # (dP/dT) at constant rho = -(drho/dT)/(drho/dP), both central differences
        P, T = 4e6, 320.0
        hP, hT = 100.0, 0.01
        drho_dP = (density(real_gas, P + hP, T) - density(real_gas, P - hP, T)) / (2 * hP)
        drho_dT = (density(real_gas, P, T + hT) - density(real_gas, P, T - hT)) / (2 * hT)
        assert dP_dT_const_density(real_gas, P, T) == pytest.approx(-drho_dT / drho_dP, rel=1e-6)

    def test_liquid_sound_speed(self):
        eos = LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4)
        assert isothermal_sound_speed(eos, 1e6, 300.0) == pytest.approx(np.sqrt(2e9 / 1000.0))

    def test_ideal_gas_sound_speed(self, ideal_gas):
        assert isothermal_sound_speed(ideal_gas, 5e6, 300.0) == pytest.approx(
            np.sqrt(500.0 * 300.0), rel=1e-12)

    def test_correlated_gas_sound_speed_finite_difference(self, real_gas):
        P, T, h = 4e6, 320.0, 10.0
        drho_dP = (density(real_gas, P + h, T) - density(real_gas, P - h, T)) / (2 * h)
        assert isothermal_sound_speed(real_gas, P, T) == pytest.approx(
            np.sqrt(1.0 / drho_dP), rel=1e-6)


# The density and dP/dT expressions as written before their out= forms;
# kept verbatim as the reference both forms must match bit for bit.
def _reference_density(eos, P, T):
    if isinstance(eos, LiquidEos):
        return eos.rho0 * (1.0 + (P - eos.P0) / eos.B + eos.alpha * (T - eos.T0))
    return P * (1.0 + eos.k * P / T**eos.y) / (eos.R * T)


def _reference_dP_dT(eos, P, T):
    if isinstance(eos, LiquidEos):
        return np.full_like(P, -eos.alpha * eos.B)
    rho = _reference_density(eos, P, T)
    num = rho * eos.R + eos.y * eos.k * P**2 * T ** (-eos.y - 1.0)
    den = 1.0 + 2.0 * eos.k * P / T**eos.y
    return num / den


class TestOutForms:
    @pytest.mark.parametrize("eos", [
        LiquidEos(rho0=1000.0, P0=1e5, T0=300.0, B=2e9, alpha=-2e-4),
        LiquidEos(rho0=850, P0=0, T0=288, B=1500000000, alpha=0),
        GasEos(R=500.0),
        GasEos.from_z_reference(R=500.0, P_ref=5e6, T_ref=300.0, Z_ref=0.9, y=1.2),
        # ** takes the square root for 0.5 and squares for the int 2
        GasEos(R=400.0, y=0.5, k=1e-5),
        GasEos(R=400.0, y=2, k=1e-1),
    ], ids=["liquid", "liquid_int_fields", "ideal_gas", "real_gas", "gas_y_half", "gas_y_two"])
    def test_out_matches_the_allocating_form_bit_for_bit(self, eos):
        rng = np.random.default_rng(3)
        P = rng.uniform(1e3, 1e7, 500)
        T = rng.uniform(150.0, 450.0, 500)
        for fn, reference in ((raw_density, _reference_density),
                              (dP_dT_const_density, _reference_dP_dT)):
            expected = reference(eos, P, T)
            allocated = np.broadcast_to(fn(eos, P, T), P.shape)
            out = np.full_like(P, np.nan)
            assert fn(eos, P, T, out=out) is out
            assert out.tobytes() == allocated.tobytes() == expected.tobytes(), fn.__name__
            # P and T are left as they were
            assert np.isfinite(P).all() and np.isfinite(T).all()


class TestValidation:
    def test_liquid_invariants(self):
        with pytest.raises(ConfigurationError):
            LiquidEos(rho0=-1.0, P0=0.0, T0=300.0, B=2e9)
        with pytest.raises(ConfigurationError):
            LiquidEos(rho0=1000.0, P0=0.0, T0=300.0, B=0.0)

    def test_gas_invariants(self):
        with pytest.raises(ConfigurationError):
            GasEos(R=0.0)
        with pytest.raises(ConfigurationError):
            GasEos(R=500.0, y=-1.0)

    def test_fluid_model_invariants(self):
        eos = GasEos(R=500.0)
        with pytest.raises(ConfigurationError):
            FluidModel(eos=eos, c=-1.0)

    def test_near_critical_rejected(self):
        gas = GasEos(R=500.0, critical_pressure=4.6e6, critical_temperature=190.6)
        with pytest.raises(ConfigurationError):
            assert_off_critical(gas, 4.6e6, 191.0)
        assert_off_critical(gas, 4.6e6, 300.0)   # far from Tc: fine
        assert_off_critical(gas, 1.0e6, 191.0)   # far from Pc: fine
