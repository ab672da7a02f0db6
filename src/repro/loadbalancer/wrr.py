"""Smooth weighted round robin.

The interleaving variant used by nginx and HAProxy: each pick adds every
backend's weight to its running credit, selects the largest credit, and
subtracts the weight total from the winner.  Unlike naive WRR, consecutive
picks of a heavy backend are spread out — which matters when backends are
queueing servers.

Weights are floats (SpotWeb sets them to portfolio fractions) and can be
updated online, which is precisely the capability the paper had to bolt onto
HAProxy.
"""

from __future__ import annotations

from typing import Hashable

from repro.devtools.contracts import nonneg
from repro.obs import get_events

__all__ = ["SmoothWeightedRoundRobin"]


class SmoothWeightedRoundRobin:
    """Online-reweightable smooth WRR over hashable backend keys."""

    def __init__(self, weights: dict[Hashable, float] | None = None) -> None:
        self._weights: dict[Hashable, float] = {}
        self._credit: dict[Hashable, float] = {}
        if weights:
            self.set_weights(weights)

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._weights

    @property
    def weights(self) -> dict[Hashable, float]:
        return dict(self._weights)

    @nonneg("weights")
    def set_weights(self, weights: dict[Hashable, float]) -> None:
        """Replace the full weight table (credits persist where keys do)."""
        for key, w in weights.items():
            if w < 0:
                raise ValueError(f"negative weight for {key!r}")
        self._weights = {k: float(w) for k, w in weights.items() if w > 0}
        self._credit = {
            k: self._credit.get(k, 0.0) for k in self._weights
        }
        # The WRR is time-blind; the event log's sim clock keys the event.
        ev = get_events()
        if ev.enabled:
            ev.emit("lb.reweight", backends=len(self._weights))

    def set_weight(self, key: Hashable, weight: float) -> None:
        """Add/update one backend; ``weight <= 0`` removes it."""
        if weight <= 0:
            self.remove(key)
            return
        self._weights[key] = float(weight)
        self._credit.setdefault(key, 0.0)

    def remove(self, key: Hashable) -> None:
        self._weights.pop(key, None)
        self._credit.pop(key, None)

    def pick(self, exclude: set[Hashable] | None = None) -> Hashable | None:
        """Pick the next backend; ``None`` when no candidate remains.

        ``exclude`` supports retry-on-refusal without disturbing the credit
        state of excluded backends.
        """
        weights = self._weights
        if exclude:
            weights = {k: w for k, w in weights.items() if k not in exclude}
        if not weights:
            return None
        credit = self._credit
        best = None
        best_credit = -float("inf")
        for k, w in weights.items():
            c = credit[k] + w
            credit[k] = c
            if c > best_credit:
                best_credit = c
                best = k
        credit[best] -= sum(weights.values())
        return best
