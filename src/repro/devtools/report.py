"""Finding serialization for the ``spotlint`` driver.

Every analyzer emits :class:`repro.devtools.rules.Finding` records.  The
driver prints them as text, one ``path:line:col: RULE message`` line per
finding (:meth:`Finding.format`: clickable in editors, greppable in CI
logs), or as the schema-tagged JSON report built here
(``spotweb-findings/1``, the same convention as the ``BENCH_*.json``
files and ``spotweb-trace/1``), uploaded as a CI artifact.

Findings are always serialized in the canonical order
``(path, line, col, rule)`` regardless of the order they were produced,
so reports are byte-identical across argument orders.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from repro.devtools.rules import Finding

__all__ = [
    "FINDINGS_SCHEMA",
    "sort_findings",
    "render_json",
]

FINDINGS_SCHEMA = "spotweb-findings/1"


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Canonical deterministic order: ``(path, line, col, rule)``."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def render_json(findings: Iterable[Finding]) -> str:
    """The ``spotweb-findings/1`` report of one run."""
    ordered = sort_findings(findings)
    payload = {
        "schema": FINDINGS_SCHEMA,
        "tool": "spotlint",
        "count": len(ordered),
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
            }
            for f in ordered
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
