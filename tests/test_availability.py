import itertools

import numpy as np
import pytest

from linewatch.availability import (
    ChainElement,
    ComponentChain,
    approximate_availability,
    availability_report,
    chain_availability,
    compare_configurations,
    reference_chains,
)
from linewatch.errors import ConfigurationError


def chain_of(*pairs, name="c", duplexed=()):
    return ComponentChain(
        name=name,
        elements=tuple(ChainElement(k, c, a) for k, c, a in pairs),
        duplexed=frozenset(duplexed),
    )


class TestChainAvailability:
    def test_perfect_chain(self):
        c = chain_of(("a", 3, 1.0), ("b", 2, 1.0))
        assert chain_availability(c) == 1.0

    def test_reference_products_at_099(self):
        chains = reference_chains(0.99)
        assert chains["mass_flow"].element_count == 11
        assert chains["pressure"].element_count == 13
        assert chains["acoustic"].element_count == 7
        assert chain_availability(chains["mass_flow"]) == pytest.approx(0.99**11, abs=1e-15)
        assert chain_availability(chains["pressure"]) == pytest.approx(0.99**13, abs=1e-15)
        assert chain_availability(chains["acoustic"]) == pytest.approx(0.99**7, abs=1e-15)

    def test_approximate_is_summed_downtime(self):
        c = chain_of(("a", 2, 0.99), ("b", 1, 0.97))
        assert approximate_availability(c) == pytest.approx(1 - (2 * 0.01 + 0.03))

    def test_product_bounds_approximate(self):
        # union bound: uptime >= 1 - sum(downtimes), so the approximate
        # figure is the conservative one
        rng = np.random.default_rng(1)
        for _ in range(50):
            elems = [("k%d" % i, int(rng.integers(1, 4)), float(rng.uniform(0.9, 1.0)))
                     for i in range(int(rng.integers(1, 5)))]
            c = chain_of(*elems)
            assert approximate_availability(c) <= chain_availability(c) + 1e-12

    def test_approximate_equality_iff_single_imperfect(self):
        c = chain_of(("a", 1, 0.95), ("b", 2, 1.0))
        assert approximate_availability(c) == pytest.approx(chain_availability(c), abs=1e-15)

    def test_approximate_out_of_range_flagged(self):
        c = chain_of(("a", 4, 0.5))
        assert approximate_availability(c) is None
        report = availability_report(c)
        assert report["approximate_valid"] is False and report["approximate"] is None

    def test_product_below_weakest_element(self):
        c = chain_of(("a", 1, 0.95), ("b", 1, 0.99))
        assert chain_availability(c) <= 0.95

    def test_decreasing_in_any_element(self):
        base = chain_of(("a", 2, 0.99), ("b", 1, 0.98))
        worse = chain_of(("a", 2, 0.98), ("b", 1, 0.98))
        assert chain_availability(worse) < chain_availability(base)

    def test_dead_element_zeroes_chain(self):
        c = chain_of(("a", 1, 0.0), ("b", 2, 0.99))
        assert chain_availability(c) == 0.0


class TestDuplex:
    def test_duplex_pair_formula(self):
        a = 0.9
        c = chain_of(("a", 1, a), duplexed=("a",))
        assert chain_availability(c) == pytest.approx(1 - (1 - a) ** 2)

    def test_duplex_never_decreases(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = float(rng.uniform(0.5, 1.0))
            count = int(rng.integers(1, 4))
            plain = chain_of(("a", count, a), ("b", 1, 0.99))
            dup = chain_of(("a", count, a), ("b", 1, 0.99), duplexed=("a",))
            assert chain_availability(dup) >= chain_availability(plain) - 1e-15


class TestCompare:
    def test_ranking_matches_element_count_at_uniform_availability(self):
        chains = list(reference_chains(0.99).values())
        rows = compare_configurations(chains)
        assert [r["name"] for r in rows] == ["acoustic", "mass_flow", "pressure"]
        assert [r["rank"] for r in rows] == [1, 2, 3]

    def test_weakest_element_gives_largest_duplex_gain(self):
        # exhaustive single-upgrade scan; equal counts so availability decides
        c = chain_of(("sensor", 2, 0.92), ("rtu", 2, 0.97), ("comm", 2, 0.99))
        rows = compare_configurations([c])
        gains = rows[0]["duplex_gains"]
        assert max(gains, key=gains.get) == "sensor"
        # cross-check by explicit enumeration
        explicit = {}
        for kind in ("sensor", "rtu", "comm"):
            explicit[kind] = chain_availability(c.with_duplex(kind)) - chain_availability(c)
        assert gains == pytest.approx(explicit)

    def test_zero_availability_ranks_last(self):
        dead = chain_of(("a", 1, 0.0), name="dead")
        ok = chain_of(("a", 1, 0.9), name="ok")
        rows = compare_configurations([dead, ok])
        assert rows[-1]["name"] == "dead" and rows[-1]["availability"] == 0.0

    def test_duplexed_kind_has_no_duplex_gain(self):
        # a kind already in duplicate has no upgrade left to offer
        c = chain_of(("sensor", 2, 0.92), ("rtu", 2, 0.97), duplexed=("sensor",))
        gains = compare_configurations([c])[0]["duplex_gains"]
        assert gains == {"rtu": chain_availability(c.with_duplex("rtu")) - chain_availability(c)}


class TestValidation:
    def test_element_bounds(self):
        with pytest.raises(ConfigurationError):
            ChainElement("a", 0, 0.9)
        with pytest.raises(ConfigurationError):
            ChainElement("a", 1, 1.5)

    def test_duplex_of_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            chain_of(("a", 1, 0.9), duplexed=("zz",))

    def test_per_kind_availability_map(self):
        chains = reference_chains({"computer": 0.999, "default": 0.99})
        mf = chains["mass_flow"]
        expected = 0.99**10 * 0.999
        assert chain_availability(mf) == pytest.approx(expected, abs=1e-15)
