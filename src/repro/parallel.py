"""Process-parallel experiment execution.

The evaluation sweeps (Fig. 6(b): markets x horizons x seeds; the Table-1
cost comparison: policies x seeds) are embarrassingly parallel — each cell
is an independent simulation.  This module is the sweep engine every
experiment runner and the CLI share:

- :func:`pmap` — map a picklable function over items with a process pool,
  preserving order; runs serially when ``max_workers <= 1`` or when no
  pool can start (restricted environments).
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
from contextlib import ExitStack
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

from repro.obs.events import EventLog
from repro.obs.flightrec import FlightRecorder
from repro.obs.live import TelemetryBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.recording import Recording, current

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


#: The attribute on which a raising cell's exception carries its records.
_OUTCOME = "_pmap_cell_outcome"


class _Cell:
    """Picklable wrapper running one sweep cell under its own recording.

    The cell's :class:`~repro.obs.recording.Recording` has a private
    journal enabled as the caller's, a private metrics registry and a
    subscriber-less bus enabled as the caller's (the simulators journal
    telemetry records only while a bus is live), and shares the tracer.
    When the caller has a flight recorder, the cell gets one configured
    like it that holds its bundles.  The wrapper returns ``(result,
    records, metrics, bundles)``; :func:`pmap` adopts the records, folds
    the metrics and writes the bundles in item order, and the caller's
    bus streams the adopted records, so its subscribers see each record
    once, in the form the journal holds.  A cell that raises carries its
    ``(records, metrics, bundles)`` back on the exception, as
    :data:`_OUTCOME`, which pickles with it from a pool worker; the
    bundles then include the cell's own ``crash`` bundle, unless it
    holds no records (see :func:`_outcome`).  The same
    wrapper runs on the serial path, which is what makes serial and
    parallel journals and bundles byte-identical, and their metrics equal
    but for wall-clock timings.
    """

    __slots__ = ("fn", "journal", "bus", "recorder")

    def __init__(self, fn: Callable[[T], R], caller: Recording) -> None:
        self.fn = fn
        self.journal = caller.events.enabled
        self.bus = caller.bus.enabled
        rec = caller.flightrec
        self.recorder = None if rec is None else {
            "max_records": rec.max_records,
            "window_seconds": rec.window_seconds,
        }

    def __call__(self, item: T) -> tuple[R, list[dict], MetricsRegistry, list]:
        recorder = None if self.recorder is None else FlightRecorder(**self.recorder)
        cell = current().replace(
            events=EventLog(enabled=self.journal),
            bus=TelemetryBus(enabled=self.bus),
            metrics=MetricsRegistry(),
            flightrec=recorder,
        )
        try:
            with cell:
                result = self.fn(item)
        except Exception as exc:  # spotlint: disable=SW006 -- re-raised
            # pmap adopts the records the exception carries, then re-raises it.
            setattr(exc, _OUTCOME, _outcome(cell))
            raise
        return (result, *_outcome(cell))


def _outcome(cell: Recording) -> tuple[list[dict], MetricsRegistry, list]:
    """A finished cell's journal records, metrics and held bundles.

    A bundle without records is left out.  Only a scenario episode
    subscribes the cell's recorder to a bus, so any other cell that
    raises dumps an empty window, and the caller's own crash bundle
    holds that cell's records.
    """
    held = [] if cell.flightrec is None else cell.flightrec.held
    bundles = [(header, records) for header, records in held if records]
    return cell.events.records(), cell.metrics, bundles


def _adopt(
    caller: Recording,
    cell: int,
    records: list[dict],
    metrics: MetricsRegistry,
    bundles: list,
) -> None:
    """Fold one cell's outcome into the caller's recording."""
    caller.events.adopt(records, cell=cell)
    caller.metrics.fold(metrics)
    for header, bundle in bundles:
        caller.flightrec.write(header, bundle)


def pmap(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    max_workers: int | None = None,
) -> list[R]:
    """Parallel, order-preserving map over ``items``.

    ``max_workers=None`` uses ``os.cpu_count()`` capped by the item count;
    ``max_workers<=1`` runs a plain serial loop, as does a pool that
    cannot start (e.g. sandboxed environments with no semaphores), so
    callers never need two code paths.  An exception a cell raises
    reaches the caller on either path, and no cell runs twice.  Workers
    must not rely on shared mutable state — cells that need expensive
    common inputs should fetch them via :func:`shared_setup` and derive
    their randomness with :func:`derive_seed`, which keeps parallel
    output identical to serial.

    Every cell runs under its own recording (serial or parallel alike,
    see :class:`_Cell`): the caller's journal adopts the cells' events,
    the caller's metrics registry folds in the cells' metrics and the
    caller's flight recorder writes the cells' bundles, cell by cell in
    item order as each arrives — so the journal and the bundles, like
    the results, are bit-identical between serial and parallel runs, the
    metrics equal but for wall-clock timings, and a cell that raises
    leaves the caller holding every cell up to and including itself
    before its exception goes on.  The telemetry bus publishes the
    adopted records on its next tick.
    """
    items = list(items)
    if not items:
        return []
    if max_workers is None:
        max_workers = min(len(items), os.cpu_count() or 1)
    caller = current()
    run = _Cell(fn, caller)
    results = []
    with ExitStack() as stack:
        outcomes = map(run, items)
        if max_workers > 1:
            try:
                pool = ProcessPoolExecutor(max_workers=max_workers)
                outcomes = stack.enter_context(pool).map(run, items)
            except OSError:
                # No process support (restricted sandbox): run serially.
                pass
        try:
            for cell, (result, *outcome) in enumerate(outcomes):
                _adopt(caller, cell, *outcome)
                results.append(result)
        except Exception as exc:  # spotlint: disable=SW006 -- re-raised
            outcome = vars(exc).pop(_OUTCOME, None)
            if outcome is not None:
                _adopt(caller, len(results), *outcome)
            raise
    return results


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
