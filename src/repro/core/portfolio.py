"""Portfolio and allocation data types.

Section 4.2 works in *fractional allocations*: ``A_t^i = n_t^i r_i / lambda_t``
is the fraction of the workload directed to servers of type ``i``.  The
optimizer produces fractions; deployment needs integer server counts — the
conversion (and its rounding-up) lives here so every consumer rounds the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devtools.contracts import field_units, nonneg, shapes, units
from repro.markets.catalog import Market

__all__ = ["Allocation", "PortfolioPlan", "allocation_to_counts"]


@field_units(fractions="frac")
@dataclass
class Allocation:
    """A single-interval fractional allocation across markets.

    ``fractions[i]`` is ``A^i`` — the fraction of the (predicted) workload
    assigned to market ``i``.  ``sum() > 1`` means over-provisioned.
    """

    markets: list[Market]
    fractions: np.ndarray

    def __post_init__(self) -> None:
        self.fractions = np.asarray(self.fractions, dtype=np.float64).ravel()
        if self.fractions.size != len(self.markets):
            raise ValueError("fractions length must equal number of markets")
        if np.any(self.fractions < -1e-9):
            raise ValueError("fractions must be non-negative")
        self.fractions = np.clip(self.fractions, 0.0, None)

    @property
    def total(self) -> float:
        """Total provisioned fraction (>= 1 means demand is covered)."""
        return float(self.fractions.sum())

    def weights(self) -> np.ndarray:
        """Load-balancer weights: relative share per market (sums to 1)."""
        total = self.fractions.sum()
        if total <= 0:
            return np.zeros_like(self.fractions)
        return self.fractions / total

    def active_markets(self, threshold: float = 1e-6) -> list[Market]:
        """Markets that actually receive load."""
        return [
            m for m, a in zip(self.markets, self.fractions) if a > threshold
        ]

    @units("req/s", ret="server")
    def counts(self, workload_rps: float) -> np.ndarray:
        """Integer server counts realizing this allocation for a workload."""
        return allocation_to_counts(self.fractions, workload_rps, self.capacities)

    @property
    def capacities(self) -> np.ndarray:
        return np.array([m.capacity_rps for m in self.markets])

    @units("req/s", ret="req/s")
    def capacity_rps(self, workload_rps: float) -> float:
        """Actual capacity (req/s) after integer rounding of server counts."""
        return float(self.counts(workload_rps) @ self.capacities)


@shapes("(N,)", "()", "(N,)", ret="(N,) i8")
@nonneg("fractions", "workload_rps")
@units("frac", "req/s", "rps/server", ret="server")
def allocation_to_counts(
    fractions: np.ndarray, workload_rps: float, capacities: np.ndarray
) -> np.ndarray:
    """``n_i = ceil(A_i * lambda / r_i)`` — fractional allocation to servers.

    Rounds up, so the deployed capacity covers the plan, except that a
    market whose demand is below a millionth of a server gets no server
    (solver noise churns no single servers).  If every market floors to
    zero while the plan is positive, one server goes to the market with
    the largest demand, so a positive plan never deploys nothing.
    """
    fractions = np.asarray(fractions, dtype=np.float64).ravel()
    capacities = np.asarray(capacities, dtype=np.float64).ravel()
    if fractions.shape != capacities.shape:
        raise ValueError("fractions and capacities must have equal length")
    if workload_rps < 0:
        raise ValueError("workload must be non-negative")
    if np.any(capacities <= 0):
        raise ValueError("capacities must be positive")
    demand = fractions * workload_rps / capacities
    counts = np.ceil(demand - 1e-9)
    counts[demand < 1e-6] = 0
    if not counts.any() and np.any(demand > 0):
        counts[np.argmax(demand)] = 1
    return counts.astype(np.int64)


@field_units(fractions="frac", target_rps="req/s")
@dataclass
class PortfolioPlan:
    """A multi-period plan: one allocation per interval over the horizon.

    ``fractions`` has shape ``(H, N)``.  Under receding-horizon control only
    ``first`` is executed; the rest exists to make the first decision
    future-aware (Sec. 4.1: "only the first interval portfolio allocation is
    actually executed to limit error propagation").
    """

    markets: list[Market]
    fractions: np.ndarray
    target_rps: np.ndarray

    def __post_init__(self) -> None:
        self.fractions = np.atleast_2d(np.asarray(self.fractions, dtype=np.float64))
        self.target_rps = np.asarray(self.target_rps, dtype=np.float64).ravel()
        if self.fractions.shape[1] != len(self.markets):
            raise ValueError("fraction width must equal number of markets")
        if self.target_rps.shape != (self.fractions.shape[0],):
            raise ValueError("need one target rate per horizon interval")
        if np.any(self.fractions < -1e-9):
            raise ValueError("fractions must be non-negative")
        self.fractions = np.clip(self.fractions, 0.0, None)

    @property
    def horizon(self) -> int:
        return self.fractions.shape[0]

    @property
    def first(self) -> Allocation:
        """The executed allocation (interval ``t + 1``)."""
        return Allocation(self.markets, self.fractions[0])

    def allocation(self, tau: int) -> Allocation:
        return Allocation(self.markets, self.fractions[tau])

    def counts(self, tau: int = 0) -> np.ndarray:
        """Server counts realizing interval ``tau`` of the plan."""
        return self.allocation(tau).counts(float(self.target_rps[tau]))

    def churn(self) -> float:
        """Total plan churn: sum of L1 changes between consecutive intervals."""
        if self.horizon < 2:
            return 0.0
        return float(np.abs(np.diff(self.fractions, axis=0)).sum())
