"""Series-system alarm availability for detector hardware chains.

Every element of a chain must be up for its alarm to function, so the
exact uptime is the product of element availabilities.  A literal
"summing" of availabilities cannot be meant (probabilities would exceed
one); the summation reading is implemented as the union bound on
downtimes, 1 - sum(1 - a_i), and both figures are reported.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, Sequence, Tuple

from .errors import ConfigurationError

__all__ = [
    "ChainElement",
    "ComponentChain",
    "chain_availability",
    "availability_report",
    "compare_configurations",
    "reference_chains",
]

# Per-unit availability of a stock chain element when the caller names none.
PER_UNIT_AVAILABILITY = 0.99


@dataclass(frozen=True)
class ChainElement:
    kind: str
    count: int
    availability: float   # per-unit, in [0, 1]; 0 marks a dead unit

    def __post_init__(self):
        if self.count < 1:
            raise ConfigurationError(f"{self.kind}: count must be >= 1")
        if not 0.0 <= self.availability <= 1.0:
            raise ConfigurationError(
                f"{self.kind}: availability must be in [0, 1], got {self.availability}"
            )


@dataclass(frozen=True)
class ComponentChain:
    """A detector's hardware chain; duplexed kinds carry a hot spare per unit."""

    name: str
    elements: Tuple[ChainElement, ...]
    duplexed: FrozenSet[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "duplexed", frozenset(self.duplexed))
        kinds = [e.kind for e in self.elements]
        if len(kinds) != len(set(kinds)):
            raise ConfigurationError(f"chain {self.name}: duplicate element kinds")
        unknown = self.duplexed - set(kinds)
        if unknown:
            raise ConfigurationError(f"chain {self.name}: duplexed kinds {sorted(unknown)} not in chain")

    @property
    def element_count(self):
        return sum(e.count for e in self.elements)

    def with_duplex(self, kind):
        return ComponentChain(self.name, self.elements, self.duplexed | {kind})


def _unit_availability(element, duplexed):
    a = element.availability
    return 1.0 - (1.0 - a) ** 2 if element.kind in duplexed else a


def chain_availability(chain: ComponentChain, mode="product"):
    """Alarm uptime for a chain.

    mode="product" is the exact series-system figure; mode="approximate"
    is 1 - sum of unit unavailabilities and raises when element downtimes
    are large enough to push it below zero (outside the approximation's
    validity range).
    """
    if mode == "product":
        out = 1.0
        for e in chain.elements:
            out *= _unit_availability(e, chain.duplexed) ** e.count
        return out
    if mode == "approximate":
        down = sum(
            e.count * (1.0 - _unit_availability(e, chain.duplexed)) for e in chain.elements
        )
        if down > 1.0:
            raise ConfigurationError(
                f"chain {chain.name}: summed downtime {down:.3f} exceeds 1; "
                "the approximate mode is outside its validity range"
            )
        return 1.0 - down
    raise ConfigurationError(f"unknown availability mode {mode!r}")


def availability_report(chain: ComponentChain):
    """Both availability figures plus basic chain facts."""
    product = chain_availability(chain, "product")
    try:
        approx = chain_availability(chain, "approximate")
        approx_valid = True
    except ConfigurationError:
        approx, approx_valid = None, False
    return {
        "name": chain.name,
        "elements": chain.element_count,
        "product": product,
        "approximate": approx,
        "approximate_valid": approx_valid,
    }


def compare_configurations(chains: Sequence[ComponentChain]):
    """Rank chains by availability (best first) with duplex-upgrade deltas.

    Availability is the exact series-system (product) figure.  Each row
    reports, per element kind, how much chain availability would gain if
    just that kind were installed in duplicate.
    """
    rows = []
    for chain in chains:
        base = chain_availability(chain)
        gains = {}
        for e in chain.elements:
            if e.kind in chain.duplexed:
                continue
            gains[e.kind] = chain_availability(chain.with_duplex(e.kind)) - base
        rows.append(
            {
                "name": chain.name,
                "availability": base,
                "elements": chain.element_count,
                "duplex_gains": gains,
            }
        )
    rows.sort(key=lambda r: (-r["availability"], r["elements"], r["name"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


def reference_chains(availabilities=PER_UNIT_AVAILABILITY) -> Dict[str, ComponentChain]:
    """The three stock alarm chains (mass flow, pressure, acoustic).

    Element counts are fixed by the chain designs (11, 13, and 7 units);
    per-unit availabilities are supplied by the caller, either as a single
    number for all kinds or as a mapping by kind, whose ``"default"`` key
    covers the kinds it does not name.
    """
    def a_of(kind):
        if isinstance(availabilities, dict):
            return availabilities.get(kind, availabilities.get("default", PER_UNIT_AVAILABILITY))
        return float(availabilities)

    def chain(name, spec):
        return ComponentChain(
            name=name,
            elements=tuple(ChainElement(kind, count, a_of(kind)) for kind, count in spec),
        )

    return {
        "mass_flow": chain(
            "mass_flow",
            [
                ("flowmeter", 2),
                ("pressure_sensor", 2),
                ("temperature_sensor", 2),
                ("rtu", 2),
                ("comm_link", 2),
                ("computer", 1),
            ],
        ),
        "pressure": chain(
            "pressure",
            [
                ("pressure_sensor", 4),
                ("rtu", 4),
                ("comm_link", 4),
                ("computer", 1),
            ],
        ),
        "acoustic": chain(
            "acoustic",
            [
                ("acoustic_monitor", 2),
                ("rtu", 2),
                ("comm_link", 2),
                ("computer", 1),
            ],
        ),
    }
