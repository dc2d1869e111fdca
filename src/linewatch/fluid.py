"""Equations of state for pipeline liquids and light hydrocarbon gases.

Two EOS families are supported: a bulk-modulus relation for liquids and
P = rho*R*Z*T for gases, with Z from a one-parameter pressure/temperature
correlation that is ideal (Z=1) when its constant is 0.  All quantities are SI.
The functions take the EOS itself; a FluidModel carries one as ``eos``.
"""

import math
from dataclasses import dataclass
from functools import cached_property
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

# The out= forms take their scalars as 0-d arrays, which numpy dispatches
# faster than Python floats, with the same double arithmetic.
_ONE = np.array(1.0)


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

    @cached_property
    def _operands(self):
        """rho0, P0, T0, B and alpha as 0-d arrays, for the out= forms."""
        return tuple(np.array(float(v)) for v in (self.rho0, self.P0, self.T0, self.B, self.alpha))


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

    @cached_property
    def _operands(self):
        """R, k, y*k, 2*k and -y-1 as 0-d arrays, for the out= forms."""
        return tuple(np.array(float(v)) for v in (
            self.R, self.k, self.y * self.k, 2.0 * self.k, -self.y - 1.0))

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


def dP_dT_const_density(eos, P, T, out=None):
    """(dP/dT) at constant density, from the EOS; used by the energy equation.

    With ``out``, an array of ``P``'s shape, the result is written into it
    and returned: each operation of the expression, in its order, writes
    into ``out`` or into one of two temporaries, so the bits are those of
    the allocating form.  A liquid's value is a constant, which fills
    ``out``.
    """
    if isinstance(eos, LiquidEos):
        if out is None:
            return -eos.alpha * eos.B
        out[...] = -eos.alpha * eos.B
        return out
    if out is None:
        P = np.asarray(P, dtype=float) if np.ndim(P) else float(P)
        T = np.asarray(T, dtype=float) if np.ndim(T) else float(T)
        Ty = T**eos.y
        rho = _gas_density(eos, P, T, Ty)
        num = rho * eos.R + eos.y * eos.k * P**2 * T ** (-eos.y - 1.0)
        den = 1.0 + 2.0 * eos.k * P / Ty
        return num / den
    R, _, yk, two_k, y_1 = eos._operands
    Ty = T**eos.y
    tmp = _gas_density(eos, P, T, Ty, out)
    np.multiply(out, R, out)                        # rho * R
    np.power(T, y_1, tmp)
    sq = np.square(P)                               # P**2
    np.multiply(yk, sq, sq)
    np.multiply(sq, tmp, sq)
    np.add(out, sq, out)                            # num
    np.multiply(two_k, P, sq)
    np.divide(sq, Ty, sq)
    np.add(_ONE, sq, sq)                            # den
    return np.divide(out, sq, out)


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


def assert_finite_eos(eos, P, T):
    """Reject an EOS whose density or dP/dT at constant density is not
    finite at the operating point (P, T), where the solver's residual
    would not be either: a gas ``y`` can make ``y*k*P**2`` overflow while
    the density stays finite."""
    rho, dPdT = raw_density(eos, P, T), dP_dT_const_density(eos, P, T)
    if not (math.isfinite(rho) and math.isfinite(dPdT)):
        raise ConfigurationError(
            f"density {rho:.6g} kg/m^3 and dP/dT at constant density {dPdT:.6g} Pa/K at the "
            f"operating point (P={P:.4g} Pa, T={T:.4g} K) must both be finite"
        )


def raw_density(eos, P, T, out=None):
    """EOS density without domain guards, for solver intermediates that
    may stray (Newton's line search recovers from NaN/negative values).

    With ``out``, an array of ``P``'s shape, the density is written into
    it and returned: each operation of the expression, in its order,
    writes into ``out`` or into one temporary, so the bits are those of
    the allocating form.
    """
    if isinstance(eos, LiquidEos):
        if out is None:
            return eos.rho0 * (1.0 + (P - eos.P0) / eos.B + eos.alpha * (T - eos.T0))
        rho0, P0, T0, B, alpha = eos._operands
        np.subtract(P, P0, out)
        np.divide(out, B, out)
        np.add(_ONE, out, out)
        tmp = np.subtract(T, T0)
        np.multiply(alpha, tmp, tmp)
        np.add(out, tmp, out)
        return np.multiply(rho0, out, out)
    if out is None:
        return _gas_density(eos, P, T, T**eos.y)
    _gas_density(eos, P, T, T**eos.y, out)
    return out


def _gas_density(eos, P, T, Ty, out=None):
    """A gas's density, given ``Ty`` = ``T**eos.y``.  With ``out``, the
    density goes there and the returned array is a temporary the caller
    may reuse; without, the density is returned."""
    if out is None:
        return P * (1.0 + eos.k * P / Ty) / (eos.R * T)
    R, k = eos._operands[:2]
    np.multiply(k, P, out)
    np.divide(out, Ty, out)
    np.add(_ONE, out, out)
    np.multiply(P, out, out)
    tmp = np.multiply(R, T)
    np.divide(out, tmp, out)
    return tmp


def _check_PT(P, T):
    if np.any(np.asarray(P) < 0):
        raise ParameterDomainError("pressure must be >= 0")
    if np.any(np.asarray(T) <= 0):
        raise ParameterDomainError("temperature must be > 0")
