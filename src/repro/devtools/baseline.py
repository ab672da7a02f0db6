"""The findings baseline: accepted debt that the gate does not report.

A baseline file records the **fingerprints** of accepted findings so CI
can gate on "no *new* findings" while the backlog is burned down.  A
fingerprint hashes ``rule|path|message`` — deliberately *not* the line
number, so unrelated edits to the same file do not churn the baseline
(messages themselves contain no line numbers for the same reason).

One file, ``spotlint-baseline.json`` (schema ``spotlint-baseline/1``),
covers every analyzer.  Workflow::

    spotlint src/ tests/ --exclude tests/fixtures --update-baseline
    git add spotlint-baseline.json      # review the justification!
    spotlint src/ tests/ --exclude tests/fixtures   # exits 0 until a NEW finding

Entries keep the human-readable ``rule``/``path``/``message`` next to the
fingerprint so a reviewer can see exactly what debt is being accepted.
An update keeps the file's reviewed ``justification``; the default text
is written only into a new file.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from pathlib import Path

from repro.devtools.rules import Finding

__all__ = [
    "BASELINE_SCHEMA",
    "fingerprint",
    "load_baseline",
    "write_baseline",
    "split_findings",
]

BASELINE_SCHEMA = "spotlint-baseline/1"
_DEFAULT_JUSTIFICATION = "accepted by --update-baseline; burn down, do not grow"


def fingerprint(finding: Finding) -> str:
    """Stable 16-hex-digit id for one finding (line-number independent)."""
    path = Path(finding.path).as_posix()
    payload = f"{finding.rule}|{path}|{finding.message}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _read(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"unreadable baseline {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != BASELINE_SCHEMA:
        schema = data.get("schema") if isinstance(data, dict) else None
        raise ValueError(
            f"baseline {path} has schema {schema!r}; "
            f"expected {BASELINE_SCHEMA!r}"
        )
    return data


def load_baseline(path: Path | str | None) -> set[str]:
    """The accepted fingerprints in ``path`` (empty for missing files)."""
    if path is None or not Path(path).exists():
        return set()
    return {
        entry["fingerprint"]
        for entry in _read(Path(path)).get("findings", [])
        if isinstance(entry, dict) and "fingerprint" in entry
    }


def write_baseline(path: Path | str, findings: Iterable[Finding]) -> None:
    """Write ``findings`` as the accepted baseline at ``path``.

    The justification already in ``path`` is kept; a new file gets the
    default one.
    """
    path = Path(path)
    justification = _DEFAULT_JUSTIFICATION
    if path.exists():
        try:
            justification = _read(path).get("justification", justification)
        except ValueError:
            pass  # replacing an unreadable file: nothing reviewed to keep
    entries: dict[str, dict] = {}
    for f in findings:
        entries.setdefault(
            fingerprint(f),
            {
                "fingerprint": fingerprint(f),
                "rule": f.rule,
                "path": Path(f.path).as_posix(),
                "message": f.message,
            },
        )
    payload = {
        "schema": BASELINE_SCHEMA,
        "justification": justification,
        "findings": sorted(
            entries.values(),
            key=lambda e: (e["path"], e["rule"], e["fingerprint"]),
        ),
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def split_findings(
    findings: Iterable[Finding], baseline: set[str]
) -> tuple[list[Finding], list[Finding]]:
    """Partition into (new, baselined) against accepted fingerprints."""
    new: list[Finding] = []
    accepted: list[Finding] = []
    for finding in findings:
        if fingerprint(finding) in baseline:
            accepted.append(finding)
        else:
            new.append(finding)
    return new, accepted
