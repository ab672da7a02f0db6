"""Load balancing: vanilla (HAProxy-style) and transiency-aware.

The paper modifies HAProxy's weighted-round-robin with online weight updates
and revocation handling.  Here:

- :mod:`repro.loadbalancer.wrr` — the smooth weighted-round-robin picker
  (same family as HAProxy/nginx WRR).
- :mod:`repro.loadbalancer.vanilla` — baseline behaviour: unaware of
  revocations, notices dead backends only through health-check timeouts, and
  drops what it cannot place.  This is the "unmodified HAProxy" of Fig. 4(a).
- :mod:`repro.loadbalancer.transiency` — SpotWeb's balancer: reacts to
  revocation *warnings* by draining the doomed backend, migrating its
  sessions, requesting replacement capacity, and falling back to admission
  control when the cluster can't absorb the load (the three scenarios of
  Sec. 6.1).
- :mod:`repro.loadbalancer.sessions` — sticky-session bookkeeping.
"""

from repro.loadbalancer.wrr import SmoothWeightedRoundRobin
from repro.loadbalancer.sessions import SessionTable
from repro.loadbalancer.vanilla import VanillaLoadBalancer
from repro.loadbalancer.transiency import TransiencyAwareLoadBalancer

__all__ = [
    "SmoothWeightedRoundRobin",
    "SessionTable",
    "VanillaLoadBalancer",
    "TransiencyAwareLoadBalancer",
]
