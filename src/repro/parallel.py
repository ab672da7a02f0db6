"""Process-parallel experiment execution.

The evaluation sweeps (Fig. 6(b): markets x horizons x seeds; the Table-1
cost comparison: policies x seeds) are embarrassingly parallel — each cell
is an independent simulation.  This module is the sweep engine every
experiment runner and the CLI share:

- :func:`pmap` — map a picklable function over items with a process pool,
  preserving order; degrades gracefully to serial execution when a pool is
  unavailable (restricted environments) or ``max_workers <= 1``.
- :func:`sweep_grid` — expand a parameter grid into keyword dictionaries,
  the usual shape of an experiment sweep.
- :func:`derive_seed` — deterministic, hash-randomization-proof seed
  derivation, so a cell's RNG stream depends only on its parameters — never
  on which worker ran it or in what order.  Serial and parallel sweeps
  therefore produce bit-identical results.
- :func:`shared_setup` — a per-process memo for expensive read-only inputs
  (datasets, traces).  Cells that share a setup key build it once per
  worker; on fork-based platforms a parent that pre-built it shares the
  pages copy-on-write with every worker.

Functions passed to :func:`pmap` must be module-level (picklable); the
experiment runners in :mod:`repro.experiments` qualify.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

from repro.obs.events import EventLog, get_events, set_events
from repro.obs.live import TelemetryBus, get_bus, set_bus

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["pmap", "sweep_grid", "derive_seed", "shared_setup", "clear_shared_setup"]

# Per-process cache behind shared_setup().  Deliberately module-level: under
# the fork start method a parent that warms it shares the pages with every
# worker; under spawn each worker fills it on first use.
_SETUP_CACHE: dict[Hashable, object] = {}


def derive_seed(base_seed: int, *components: object) -> int:
    """Derive a deterministic sub-seed from a base seed and cell parameters.

    Uses SHA-256 over the reprs, so the result is stable across processes,
    platforms and Python's per-run hash randomization (``hash()`` is not).
    Returns a non-negative int below ``2**63``, valid for
    ``np.random.default_rng``.
    """
    payload = repr((int(base_seed),) + components).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# spotlint: allow-shared-state -- sanctioned per-process setup cache
def shared_setup(key: Hashable, factory: Callable[[], T]) -> T:
    """Build-once accessor for expensive read-only sweep inputs.

    The first call with a ``key`` in a given process invokes ``factory`` and
    caches the result; later calls return the cached object.  Treat the
    result as read-only — it is shared by every cell in this process.
    """
    if key not in _SETUP_CACHE:
        _SETUP_CACHE[key] = factory()
    return _SETUP_CACHE[key]  # type: ignore[return-value]


def clear_shared_setup() -> None:
    """Drop the per-process setup cache (tests; long-lived sessions)."""
    _SETUP_CACHE.clear()


class _EventCell:
    """Picklable wrapper running one sweep cell under a fresh event log.

    Each cell journals into its own :class:`EventLog`; the wrapper returns
    ``(result, records)`` so :func:`pmap` can adopt every cell's events in
    item order.  The cell also ticks a private telemetry bus with no
    subscribers, enabled as the caller's is (the simulators journal
    telemetry records only while a bus is live): the caller's bus streams
    the records once they are adopted, so its subscribers see each record
    once, in the form the journal holds.  The same wrapper runs on the
    serial fallback path, which is what makes serial and parallel
    journals byte-identical.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[T], R]) -> None:
        self.fn = fn

    def __call__(self, item: T) -> tuple[R, list[dict]]:
        old = set_events(EventLog(enabled=True))
        old_bus = set_bus(TelemetryBus(enabled=get_bus().enabled))
        try:
            result = self.fn(item)
            return result, get_events().records()
        finally:
            set_events(old)
            set_bus(old_bus)


def pmap(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    max_workers: int | None = None,
    chunksize: int = 1,
) -> list[R]:
    """Parallel, order-preserving map over ``items``.

    ``max_workers=None`` uses ``os.cpu_count()`` capped by the item count;
    ``max_workers<=1`` (or a pool failure, e.g. sandboxed environments with
    no semaphores) falls back to a plain serial loop, so callers never need
    two code paths.  Workers must not rely on shared mutable state — cells
    that need expensive common inputs should fetch them via
    :func:`shared_setup` and derive their randomness with
    :func:`derive_seed`, which keeps parallel output identical to serial.

    When the event journal is enabled, every cell runs under its own fresh
    :class:`~repro.obs.events.EventLog` (serial or parallel alike) and the
    caller's log adopts the cells' events in item order — so the journal,
    like the results, is bit-identical between serial and parallel runs.
    The telemetry bus publishes the adopted records on its next tick.
    """
    items = list(items)
    if not items:
        return []
    if max_workers is None:
        max_workers = min(len(items), os.cpu_count() or 1)
    parent = get_events()
    run: Callable = _EventCell(fn) if parent.enabled else fn
    if max_workers <= 1:
        out = [run(item) for item in items]
    else:
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                out = list(pool.map(run, items, chunksize=max(1, chunksize)))
        except (OSError, PermissionError, ValueError):
            # No process support (restricted sandbox): degrade to serial.
            out = [run(item) for item in items]
    if parent.enabled:
        results = []
        for cell, (result, records) in enumerate(out):
            parent.adopt(records, cell=cell)
            results.append(result)
        return results
    return out


def sweep_grid(**axes: Iterable) -> list[dict]:
    """Expand named axes into the cross-product of keyword dictionaries.

    >>> sweep_grid(markets=(6, 12), horizon=(2, 4))
    [{'markets': 6, 'horizon': 2}, {'markets': 6, 'horizon': 4},
     {'markets': 12, 'horizon': 2}, {'markets': 12, 'horizon': 4}]
    """
    if not axes:
        return [{}]
    names = list(axes)
    values = [list(axes[name]) for name in names]
    return [
        dict(zip(names, combo)) for combo in itertools.product(*values)
    ]
