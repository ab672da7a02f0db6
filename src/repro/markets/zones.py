"""Availability-zone market expansion.

Real spot markets are priced per (instance type x availability zone): the
paper's "36 markets" are us-east-1 types, but EC2's full universe — the
"hundreds of cloud server configurations" of the abstract — comes from the
type x AZ cross product.  This module expands a catalog into zone markets
and builds market universes of any size from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.markets.catalog import (
    Catalog,
    InstanceType,
    Market,
    PurchaseOption,
    default_catalog,
)

__all__ = ["ZoneMarket", "expand_zones", "market_universe"]

DEFAULT_ZONES = ("a", "b", "c")


@dataclass(frozen=True)
class ZoneMarket:
    """A market pinned to an availability zone."""

    market: Market
    zone: str

    @property
    def name(self) -> str:
        return f"{self.market.instance.name}:{self.zone}:spot"

    @property
    def capacity_rps(self) -> float:
        return self.market.capacity_rps

    @property
    def instance(self) -> InstanceType:
        return self.market.instance

    @property
    def option(self) -> PurchaseOption:
        return self.market.option

    @property
    def revocable(self) -> bool:
        return self.market.revocable


def expand_zones(
    catalog: Catalog,
    *,
    zones: tuple[str, ...] = DEFAULT_ZONES,
    types: int | None = None,
) -> list[ZoneMarket]:
    """The (type x zone) spot-market universe.

    40 types x 3 zones = 120 markets from the default catalog — the scale
    the Fig. 7(b) sweep exercises.
    """
    if not zones:
        raise ValueError("need at least one zone")
    if len(set(zones)) != len(zones):
        raise ValueError("duplicate zone names")
    base = catalog.spot_markets(types)
    return [ZoneMarket(m, z) for m in base for z in zones]


def market_universe(count: int) -> list[Market]:
    """A spot-market universe of ``count`` markets built from the catalog.

    The catalog has 40 types; larger universes come from the (type x
    availability-zone) cross product, which is how market counts grow on
    real clouds.  Fig. 7(b) and the benchmarks size their sweeps with it.
    """
    catalog = default_catalog()
    if count <= len(catalog):
        return catalog.spot_markets(count)
    zones = -(-count // len(catalog))  # ceil division
    zone_names = tuple(chr(ord("a") + z) for z in range(zones))
    expanded = expand_zones(catalog, zones=zone_names)
    return [zm.market for zm in expanded[:count]]
