"""Discrete-event simulation substrate.

The paper evaluates SpotWeb in two modes and so does this package:

- **Request-level** (:mod:`cluster`): a discrete-event simulation of the
  testbed — every request flows through the load balancer into a multi-worker
  FIFO server with realistic service times, startup delays and cache
  warm-up.  Reproduces the latency/drop behaviour of Fig. 4(a).
- **Interval-level** (:mod:`runner`): a fast fluid simulation over hourly
  intervals for long-horizon cost studies (Figs. 5–7) — the "discrete-event
  simulator in Python which enables us to test SpotWeb more extensively".
- **Hybrid** (:mod:`hybrid` + :mod:`fluid`): a two-tier engine that runs a
  vectorized fluid-flow model between events and drops to the request
  level only inside fidelity windows (revocation warnings, spikes),
  unlocking 500k+ RPS scenarios at thousands of sim-intervals per second.

:mod:`des` provides the shared event engine; :mod:`server` the server model;
:mod:`metrics` the latency/SLO accounting.
"""

from repro.simulator.des import Simulator, Event
from repro.simulator.server import SimServer, ServerPhase
from repro.simulator.metrics import LatencyRecorder
from repro.simulator.cluster import ClusterSimulation, ClusterConfig
from repro.simulator.fluid import FluidEngine, FluidStep
from repro.simulator.hybrid import HybridClusterSimulation, HybridConfig
from repro.simulator.runner import CostLedger, CostSimulator, SimulationReport
from repro.simulator.system import SpotWebSystem, SystemConfig, SystemReport

__all__ = [
    "Simulator",
    "Event",
    "SimServer",
    "ServerPhase",
    "LatencyRecorder",
    "ClusterSimulation",
    "ClusterConfig",
    "FluidEngine",
    "FluidStep",
    "HybridClusterSimulation",
    "HybridConfig",
    "CostLedger",
    "CostSimulator",
    "SimulationReport",
    "SpotWebSystem",
    "SystemConfig",
    "SystemReport",
]
