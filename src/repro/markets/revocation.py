"""Revocation (preemption) modelling.

Three pieces, matching how the paper consumes revocation data:

- :class:`RevocationModel` produces per-market revocation probabilities
  ``f_i(t)`` per interval.  The paper observes "for almost all markets, there
  is no, to very little dynamics, in the revocation probability", so the
  default model is a near-constant per-market base rate (AWS Spot Advisor
  style buckets) modulated mildly by price pressure: when a spot price runs
  close to on-demand, demand is high and preemption is more likely.
- :func:`failure_covariance` estimates the pairwise covariance matrix ``M``
  of revocation dynamics from the ``f_i(t)`` series — the matrix used in the
  quadratic risk term (Eq. 5).
- :class:`CorrelatedRevocationSampler` draws *correlated* per-interval
  revocation events through a Gaussian copula, so that markets whose failure
  probabilities co-move also tend to fail together (the scenario portfolio
  diversification defends against).
"""

from __future__ import annotations

import numpy as np

from repro.markets.catalog import Market, PurchaseOption
from repro.normal import ndtri
from repro.obs import get_events

__all__ = [
    "RevocationModel",
    "failure_covariance",
    "event_covariance",
    "CorrelatedRevocationSampler",
]

# Spot-Advisor-style frequency buckets (fraction of instances interrupted per
# interval); markets are assigned a bucket deterministically from the seed.
_ADVISOR_BUCKETS = (0.01, 0.02, 0.05, 0.10, 0.15, 0.20)


class RevocationModel:
    """Per-market revocation probability series ``f_i(t)``.

    Parameters
    ----------
    markets:
        The market universe; on-demand markets get ``f = 0`` throughout.
    seed:
        Controls the bucket assignment and dynamics.
    price_sensitivity:
        How strongly ``f`` rises when the spot price approaches on-demand
        (0 disables price coupling, matching providers with fixed discounts).
    """

    def __init__(
        self,
        markets: list[Market],
        *,
        seed: int = 0,
        price_sensitivity: float = 0.5,
    ) -> None:
        if price_sensitivity < 0:
            raise ValueError("price_sensitivity must be non-negative")
        self.markets = list(markets)
        self.price_sensitivity = float(price_sensitivity)
        rng = np.random.default_rng(seed)
        self.base_rates = np.array(
            [
                0.0
                if m.option is PurchaseOption.ON_DEMAND
                else float(rng.choice(_ADVISOR_BUCKETS))
                for m in self.markets
            ]
        )
        # Small per-market wobble so the covariance matrix is not singular.
        self._wobble_scale = np.where(self.base_rates > 0, 0.15, 0.0)
        self._seed = seed

    def probabilities(self, prices: np.ndarray) -> np.ndarray:
        """Failure probabilities per interval: shape ``(T, N)``.

        ``prices`` is the ``(T, N)`` spot-price matrix; the price ratio to
        on-demand modulates the base rate (bounded to [0, 0.95]).
        """
        prices = np.atleast_2d(np.asarray(prices, dtype=np.float64))
        T, N = prices.shape
        if N != len(self.markets):
            raise ValueError("price matrix width must match market count")
        rng = np.random.default_rng(self._seed + 1)
        ondemand = np.array([m.instance.ondemand_price for m in self.markets])
        ratio = prices / ondemand[None, :]
        wobble = rng.normal(scale=1.0, size=(T, N)) * self._wobble_scale[None, :]
        f = self.base_rates[None, :] * (
            1.0
            + self.price_sensitivity * np.clip(ratio - 0.3, 0.0, None)
            + wobble * 0.1
        )
        f = np.where(self.base_rates[None, :] > 0, f, 0.0)
        return np.clip(f, 0.0, 0.95)


def failure_covariance(
    failure_probs: np.ndarray, *, regularization: float = 1e-6
) -> np.ndarray:
    """Covariance matrix ``M`` of revocation dynamics (Eq. 5 input).

    Computed from the time series of per-market failure probabilities, with a
    diagonal ridge so ``M`` is strictly positive definite even when some
    markets (on-demand) have constant ``f = 0``.
    """
    failure_probs = np.atleast_2d(np.asarray(failure_probs, dtype=np.float64))
    if failure_probs.shape[0] < 2:
        # Not enough history to estimate dynamics: fall back to a diagonal
        # proxy scaled by the (constant) probabilities themselves.
        diag = failure_probs[0] * (1.0 - failure_probs[0])
        return np.diag(diag + regularization)
    M = np.cov(failure_probs, rowvar=False)
    M = np.atleast_2d(M)
    return M + regularization * np.eye(M.shape[0])


def event_covariance(
    failure_probs: np.ndarray, *, regularization: float = 1e-6
) -> np.ndarray:
    """Covariance matrix of the revocation *events* themselves.

    The paper's ``M`` "captures pairwise covariance in revocation events ...
    inferred from the changes in the failure probability over time".  The
    per-interval revocation of market ``i`` is a Bernoulli(``f_i``) variable;
    its variance is ``f_i (1 - f_i)`` and the cross terms couple through the
    correlation of the markets' failure dynamics::

        M_ij = rho_ij * sqrt(f_i (1 - f_i) f_j (1 - f_j))

    Unlike :func:`failure_covariance` (the raw dynamics covariance, which is
    numerically tiny when probabilities barely move), this matrix carries the
    scale of the actual concurrent-revocation risk, so the quadratic risk
    term meaningfully pushes the optimizer toward diversification and away
    from high-failure markets.
    """
    failure_probs = np.atleast_2d(np.asarray(failure_probs, dtype=np.float64))
    if np.any((failure_probs < 0) | (failure_probs > 1)):
        raise ValueError("failure probabilities must lie in [0, 1]")
    mean_f = failure_probs.mean(axis=0)
    std = np.sqrt(np.clip(mean_f * (1.0 - mean_f), 0.0, None))
    n = mean_f.size
    if failure_probs.shape[0] >= 2:
        dyn = np.atleast_2d(np.cov(failure_probs, rowvar=False))
        d = np.sqrt(np.clip(np.diag(dyn), 1e-12, None))
        rho = dyn / np.outer(d, d)
        rho = np.clip(rho, -1.0, 1.0)
        # Constant series carry no correlation information.
        flat = np.diag(dyn) < 1e-14
        rho[flat, :] = 0.0
        rho[:, flat] = 0.0
    else:
        rho = np.zeros((n, n))
    np.fill_diagonal(rho, 1.0)
    M = rho * np.outer(std, std)
    # Symmetrize and ridge for strict positive definiteness.
    M = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(M)
    M = V @ np.diag(np.clip(w, 0.0, None)) @ V.T
    return M + regularization * np.eye(n)


class CorrelatedRevocationSampler:
    """Draw correlated per-interval revocation events via a Gaussian copula.

    Each interval, market ``i`` is hit by a revocation event with marginal
    probability ``f_i``; the joint draw couples markets through the supplied
    correlation matrix, so correlated markets fail together more often than
    independent draws would — without disturbing the marginals.
    """

    def __init__(
        self,
        correlation: np.ndarray,
        *,
        seed: int = 0,
    ) -> None:
        corr = np.atleast_2d(np.asarray(correlation, dtype=np.float64))
        if corr.shape[0] != corr.shape[1]:
            raise ValueError("correlation matrix must be square")
        if not np.allclose(corr, corr.T, atol=1e-8):
            raise ValueError("correlation matrix must be symmetric")
        d = np.sqrt(np.clip(np.diag(corr), 1e-12, None))
        corr = corr / np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        # Nearest-PSD cleanup: clip negative eigenvalues.
        w, V = np.linalg.eigh(corr)
        w = np.clip(w, 1e-10, None)
        corr = V @ np.diag(w) @ V.T
        d = np.sqrt(np.diag(corr))
        corr = corr / np.outer(d, d)
        self.correlation = corr
        self._chol = np.linalg.cholesky(corr + 1e-12 * np.eye(corr.shape[0]))
        self._rng = np.random.default_rng(seed)

    @property
    def num_markets(self) -> int:
        return self.correlation.shape[0]

    def sample(self, probabilities: np.ndarray) -> np.ndarray:
        """One joint draw: boolean vector of per-market revocation events."""
        p = np.asarray(probabilities, dtype=np.float64).ravel()
        if p.shape != (self.num_markets,):
            raise ValueError("probabilities length must match market count")
        if np.any((p < 0) | (p > 1)):
            raise ValueError("probabilities must lie in [0, 1]")
        z = self._chol @ self._rng.normal(size=self.num_markets)
        # P(z <= Phi^{-1}(p)) = p marginally.
        thresholds = ndtri(np.clip(p, 1e-12, 1 - 1e-12))
        events = z <= thresholds
        # Exact-0 / exact-1 marginals bypass the copula noise.
        events = np.where(p <= 0.0, False, events)
        events = np.where(p >= 1.0, True, events)
        ev = get_events()
        if ev.enabled and events.any():
            # The sampler is time-blind; the log's interval/clock key it.
            ev.emit(
                "market.revocations",
                count=int(events.sum()),
                markets=[int(i) for i in np.flatnonzero(events)],
            )
        return events

    def sample_path(self, probabilities: np.ndarray) -> np.ndarray:
        """Joint draws for a ``(T, N)`` probability matrix → ``(T, N)`` bool."""
        probabilities = np.atleast_2d(np.asarray(probabilities, dtype=np.float64))
        return np.stack([self.sample(row) for row in probabilities])
