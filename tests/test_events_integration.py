"""End-to-end determinism and causal-integrity tests for the event journal.

The acceptance contract of the ``spotweb-events/1`` layer:

- events disabled -> simulation outputs are bitwise identical to a run
  where the events module was never touched;
- events enabled -> identical-seed reruns produce byte-identical
  journals, serial and parallel sweeps produce byte-identical journals,
  and every causal chain roots at a ``warning.issued`` that reaches a
  terminal outcome.
"""

import json

import pytest

from repro.loadbalancer import TransiencyAwareLoadBalancer
from repro.obs.eventreport import diff_journals
from repro.obs.events import EventLog, get_events, validate_events, write_events
from repro.obs.recording import current
from repro.parallel import pmap
from repro.simulator import ClusterConfig, ClusterSimulation


@pytest.fixture
def evented():
    """Put a fresh enabled event log in force; restore the old after."""
    with current().replace(events=EventLog(enabled=True)) as rec:
        yield rec.events


def run_revocation_scenario(*, warning_seconds=20.0):
    """A small cluster run with one revocation under a transiency LB."""
    cfg = ClusterConfig(
        seed=0,
        boot_seconds=5.0,
        warmup_seconds=5.0,
        warning_seconds=warning_seconds,
    )
    cluster_ref = {}

    def reprovision(capacity, _now):
        cluster_ref["c"].add_server(capacity)

    factory = lambda rec: TransiencyAwareLoadBalancer(  # noqa: E731
        rec, reprovision=reprovision
    )
    cluster = ClusterSimulation(cfg, factory)
    cluster_ref["c"] = cluster
    a = cluster.add_server(50.0, boot_seconds=0.0)
    cluster.add_server(50.0, boot_seconds=0.0)
    cluster.schedule_revocation(a.server_id, 5.0)
    rec = cluster.run(60.0, rate=80.0)
    return rec.summary()


def _journal_cell(seed):
    """Module-level sweep cell (picklable) that emits a tiny journal."""
    log = get_events()
    wid = log.open_warning(seed, t=float(seed), capacity_rps=10.0 * seed)
    with log.causal(wid):
        log.emit("session.migrate", t=float(seed) + 1.0, backend=seed,
                 migrated=seed)
    log.resolve_warning(wid, t=float(seed) + 2.0)
    return seed * seed


class TestDisabledIsInert:
    def test_disabled_run_emits_nothing(self):
        assert not get_events().enabled
        run_revocation_scenario()
        assert get_events().records() == []

    def test_results_identical_with_and_without_events(self, tmp_path):
        baseline = run_revocation_scenario()
        with current().replace(events=EventLog(enabled=True)):
            evented = run_revocation_scenario()
        # Bitwise: every metric agrees exactly, not approximately.
        assert json.dumps(baseline, sort_keys=True) == json.dumps(
            evented, sort_keys=True
        )


class TestJournalDeterminism:
    def test_rerun_byte_identical(self, evented, tmp_path):
        run_revocation_scenario()
        a = tmp_path / "a.jsonl"
        write_events(get_events().records(), a)
        with current().replace(events=EventLog(enabled=True)):
            run_revocation_scenario()
            b = tmp_path / "b.jsonl"
            write_events(get_events().records(), b)
        assert a.read_bytes() == b.read_bytes()
        assert diff_journals(
            json_lines(a), json_lines(b)
        )["identical"]

    def test_serial_matches_parallel(self, evented, tmp_path):
        items = [1, 2, 3, 4]
        serial = pmap(_journal_cell, items, max_workers=1)
        a = tmp_path / "serial.jsonl"
        write_events(get_events().records(), a)
        with current().replace(events=EventLog(enabled=True)):
            parallel = pmap(_journal_cell, items, max_workers=2)
            b = tmp_path / "parallel.jsonl"
            write_events(get_events().records(), b)
        assert serial == parallel == [1, 4, 9, 16]
        assert a.read_bytes() == b.read_bytes()

    def test_adopted_cells_validate(self, evented):
        pmap(_journal_cell, [1, 2], max_workers=1)
        records = get_events().records()
        validate_events(records)
        assert {r["id"] for r in records if r["kind"] == "warning.issued"} == {
            "c0.w0",
            "c1.w0",
        }


class TestCausalIntegrity:
    def test_every_chain_roots_at_a_resolved_warning(self, evented):
        run_revocation_scenario()
        records = get_events().records()
        validate_events(records)  # includes terminal-outcome check
        warnings = {
            r["id"] for r in records if r["kind"] == "warning.issued"
        }
        assert warnings, "scenario must issue at least one warning"
        for rec in records:
            if rec["kind"] in (
                "server.drain",
                "session.migrate",
                "replacement.request",
                "server.killed",
                "warning.resolved",
            ):
                assert rec["cause"] in warnings, rec

    def test_replacement_boot_links_to_warning(self, evented):
        run_revocation_scenario()
        records = get_events().records()
        warnings = {
            r["id"] for r in records if r["kind"] == "warning.issued"
        }
        boots = [r for r in records if r["kind"] == "server.boot"]
        replacement_boots = [b for b in boots if b["cause"] is not None]
        assert replacement_boots, "reprovisioned server must boot"
        assert all(b["cause"] in warnings for b in replacement_boots)

    def test_outcomes_are_terminal(self, evented):
        run_revocation_scenario()
        resolved = [
            r
            for r in get_events().records()
            if r["kind"] == "warning.resolved"
        ]
        assert resolved
        assert all(
            r["attrs"]["outcome"] in ("migrated", "completed", "failed")
            for r in resolved
        )


def json_lines(path):
    lines = path.read_text().splitlines()
    return [json.loads(line) for line in lines[1:]]  # skip header
