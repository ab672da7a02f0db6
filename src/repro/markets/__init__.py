"""Transient cloud market substrate.

The paper's experiments run against AWS EC2 spot markets (36 markets in
us-east-1, September–November 2018 price and revocation-probability data).
That data is proprietary/ephemeral, so this package builds the synthetic
equivalent:

- :mod:`repro.markets.catalog` — an EC2-like instance catalog (families,
  sizes, vCPU-proportional request capacity, on-demand prices).
- :mod:`repro.markets.price_process` — mean-reverting, regime-switching spot
  price processes with cross-market correlation; the generators expose the
  same (time x market) matrices the paper polls from AWS.
- :mod:`repro.markets.revocation` — per-market revocation probabilities, the
  pairwise covariance matrix ``M`` used by the risk term, and a Gaussian
  copula sampler producing *correlated* revocation events.
- :mod:`repro.markets.cloud` — a transient cloud provider: VM leases,
  advance revocation warnings, startup delays, billing.
- :mod:`repro.markets.dataset` — bundled (prices, failure probabilities)
  trace containers with save/load.
"""

from repro.markets.catalog import (
    InstanceType,
    Market,
    PurchaseOption,
    Catalog,
    default_catalog,
)
from repro.markets.price_process import (
    ConstantPriceProcess,
    SpotPriceProcess,
    generate_price_matrix,
)
from repro.markets.revocation import (
    RevocationModel,
    CorrelatedRevocationSampler,
    failure_covariance,
    event_covariance,
)
from repro.markets.dataset import MarketDataset, generate_market_dataset
from repro.markets.injectors import (
    correlated_market_block,
    inject_capacity_drought,
    inject_drift,
    inject_price_war,
    inject_revocation_storm,
)
from repro.markets.cloud import TransientCloud, VMInstance, VMState
from repro.markets.advisor import ADVISOR_BUCKETS, AdvisorBucket, advisor_table, bucket_for
from repro.markets.bidding import (
    BidStrategy,
    OnDemandBid,
    QuantileBid,
    effective_failure_probs,
    revocations_from_bids,
)
from repro.markets.calibration import CalibrationResult, fit_price_process
from repro.markets.gcp import gcp_like_dataset
from repro.markets.zones import ZoneMarket, expand_zones, market_universe

__all__ = [
    "InstanceType",
    "Market",
    "PurchaseOption",
    "Catalog",
    "default_catalog",
    "ConstantPriceProcess",
    "SpotPriceProcess",
    "generate_price_matrix",
    "RevocationModel",
    "CorrelatedRevocationSampler",
    "failure_covariance",
    "event_covariance",
    "MarketDataset",
    "generate_market_dataset",
    "correlated_market_block",
    "inject_capacity_drought",
    "inject_drift",
    "inject_price_war",
    "inject_revocation_storm",
    "TransientCloud",
    "VMInstance",
    "VMState",
    "ADVISOR_BUCKETS",
    "AdvisorBucket",
    "advisor_table",
    "bucket_for",
    "BidStrategy",
    "OnDemandBid",
    "QuantileBid",
    "effective_failure_probs",
    "revocations_from_bids",
    "CalibrationResult",
    "fit_price_process",
    "gcp_like_dataset",
    "ZoneMarket",
    "expand_zones",
    "market_universe",
]
