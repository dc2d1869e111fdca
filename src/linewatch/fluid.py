"""Equations of state for pipeline liquids and light hydrocarbon gases.

Two EOS families are supported: a bulk-modulus relation for liquids and
P = rho*R*Z*T for gases, with Z from a one-parameter pressure/temperature
correlation that is ideal (Z=1) when its constant is 0.  All quantities are SI.
The functions take the EOS itself; a FluidModel carries one as ``eos``.
"""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError, ParameterDomainError

__all__ = [
    "LiquidEos",
    "GasEos",
    "FluidModel",
    "density",
    "compressibility_z",
    "dP_dT_const_density",
    "isothermal_sound_speed",
]

# Relative exclusion margins around a declared gas critical point. Operation
# this close to (Pc, Tc) is rejected at configuration time.
CRITICAL_T_MARGIN = 0.05
CRITICAL_P_MARGIN = 0.20


@dataclass(frozen=True)
class LiquidEos:
    """Bulk-modulus liquid: rho = rho0*(1 + (P-P0)/B + alpha*(T-T0)).

    ``alpha`` is signed; typical liquids use a negative value so density
    falls as temperature rises.
    """

    rho0: float            # reference density, kg/m^3
    P0: float              # reference pressure, Pa
    T0: float              # reference temperature, K
    B: float               # bulk modulus, Pa
    alpha: float = 0.0     # thermal expansion coefficient, 1/K (signed)

    def __post_init__(self):
        if self.rho0 <= 0:
            raise ConfigurationError(f"rho0 must be > 0, got {self.rho0}")
        if self.B <= 0:
            raise ConfigurationError(f"bulk modulus B must be > 0, got {self.B}")
        if self.T0 <= 0:
            raise ConfigurationError(f"T0 must be > 0, got {self.T0}")
        if self.P0 < 0:
            raise ConfigurationError(f"P0 must be >= 0, got {self.P0}")


@dataclass(frozen=True)
class GasEos:
    """Light hydrocarbon gas: P = rho*R*Z*T.

    The compressibility follows ``1/Z - 1 = k*P/T**y`` so
    Z = 1/(1 + k*P/T**y), and k = 0 is the ideal gas; ``k`` anchors the
    otherwise unanchored correlation and is usually fitted from one known
    (P, T, Z) point, see :meth:`from_z_reference`.  There is no published
    default for ``y``; 1.0 is an arbitrary but documented choice.
    """

    R: float                           # specific gas constant, J/(kg K)
    y: float = 1.0                     # Z-correlation temperature exponent
    k: float = 0.0                     # Z-correlation constant, K^y/Pa
    critical_pressure: Optional[float] = None   # Pa, enables near-critical rejection
    critical_temperature: Optional[float] = None  # K

    def __post_init__(self):
        if self.R <= 0:
            raise ConfigurationError(f"gas constant R must be > 0, got {self.R}")
        if self.y <= 0:
            raise ConfigurationError(f"Z exponent y must be > 0, got {self.y}")
        if self.k < 0:
            raise ConfigurationError(f"Z-correlation constant k must be >= 0, got {self.k}")
        for name in ("critical_pressure", "critical_temperature"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")

    @classmethod
    def from_z_reference(cls, R, P_ref, T_ref, Z_ref, y=1.0, **kwargs):
        """Build a correlated-Z gas with k fitted so Z(P_ref, T_ref) = Z_ref."""
        if not 0 < Z_ref <= 1:
            raise ConfigurationError(f"reference Z must be in (0, 1], got {Z_ref}")
        if P_ref <= 0 or T_ref <= 0:
            raise ConfigurationError("reference P and T must be positive")
        k = (1.0 / Z_ref - 1.0) * T_ref**y / P_ref
        return cls(R=R, y=y, k=k, **kwargs)


@dataclass(frozen=True)
class FluidModel:
    """A transported fluid: its EOS and its specific heat."""

    eos: Union[LiquidEos, GasEos]
    c: float                    # specific heat, J/(kg K)

    def __post_init__(self):
        if self.c <= 0:
            raise ConfigurationError(f"specific heat c must be > 0, got {self.c}")


def compressibility_z(gas: GasEos, P, T):
    """Compressibility factor Z(P, T); accepts scalars or arrays."""
    _check_PT(P, T)
    return 1.0 / (1.0 + gas.k * np.asarray(P, dtype=float) / np.asarray(T, dtype=float) ** gas.y)


def density(eos, P, T):
    """Density from the EOS.

    Liquids use the bulk-modulus relation; gases use rho = P/(R*Z*T).
    Raises ParameterDomainError if the computed density is not positive
    (pathological parameter combinations).
    """
    _check_PT(P, T)
    P = np.asarray(P, dtype=float) if np.ndim(P) else float(P)
    T = np.asarray(T, dtype=float) if np.ndim(T) else float(T)
    rho = raw_density(eos, P, T)
    if np.any(np.asarray(rho) <= 0):
        raise ParameterDomainError(
            f"non-positive density computed (min {np.min(rho):.6g} kg/m^3); "
            "EOS parameters do not cover this (P, T) region"
        )
    return rho


def dP_dT_const_density(eos, P, T):
    """(dP/dT) at constant density, from the EOS; used by the energy equation."""
    if isinstance(eos, LiquidEos):
        return -eos.alpha * eos.B
    P = np.asarray(P, dtype=float) if np.ndim(P) else float(P)
    T = np.asarray(T, dtype=float) if np.ndim(T) else float(T)
    rho = raw_density(eos, P, T)
    num = rho * eos.R + eos.y * eos.k * P**2 * T ** (-eos.y - 1.0)
    den = 1.0 + 2.0 * eos.k * P / T**eos.y
    return num / den


def isothermal_sound_speed(eos, P, T):
    """sqrt(dP/drho) at constant T; a grid/time-step sizing aid.

    The acoustic channel's wave speed is the scenario's ``acoustic.speed``,
    which defaults to ``fluid.sound_speed``, not this.
    """
    if isinstance(eos, LiquidEos):
        return float(np.sqrt(eos.B / eos.rho0))
    drho_dP = (1.0 + 2.0 * eos.k * np.asarray(P, float) / np.asarray(T, float) ** eos.y) / (
        eos.R * np.asarray(T, float)
    )
    return np.sqrt(1.0 / drho_dP)


def assert_off_critical(eos, P, T):
    """Reject operating points near a declared gas critical point."""
    if not isinstance(eos, GasEos):
        return
    Pc, Tc = eos.critical_pressure, eos.critical_temperature
    if Pc is None or Tc is None:
        return
    if abs(T - Tc) / Tc < CRITICAL_T_MARGIN and abs(P - Pc) / Pc < CRITICAL_P_MARGIN:
        raise ConfigurationError(
            f"operating point (P={P:.4g} Pa, T={T:.4g} K) is too close to the "
            f"critical point (Pc={Pc:.4g}, Tc={Tc:.4g}); such conditions are rejected"
        )


def raw_density(eos, P, T):
    """EOS density without domain guards, for solver intermediates that
    may stray (Newton's line search recovers from NaN/negative values)."""
    if isinstance(eos, LiquidEos):
        return eos.rho0 * (1.0 + (P - eos.P0) / eos.B + eos.alpha * (T - eos.T0))
    return P * (1.0 + eos.k * P / T**eos.y) / (eos.R * T)


def _check_PT(P, T):
    if np.any(np.asarray(P) < 0):
        raise ParameterDomainError("pressure must be >= 0")
    if np.any(np.asarray(T) <= 0):
        raise ParameterDomainError("temperature must be > 0")
