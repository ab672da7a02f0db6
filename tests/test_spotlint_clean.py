"""The CI gate: the whole source tree must be spotlint-clean.

If this test fails, either fix the violation or — when the code is right
and the rule is wrong for that line — add a
``# spotlint: disable=SWxxx`` suppression with a reason in the adjacent
code review.
"""

from __future__ import annotations

from pathlib import Path

from repro.devtools.check import ENGINE_RULES, analyze, main
from repro.devtools.rules import RULES

SRC = Path(__file__).resolve().parents[1] / "src"
LINT_SELECT = set(RULES) | set(ENGINE_RULES)


def test_src_tree_is_spotlint_clean():
    findings = analyze([SRC], select=LINT_SELECT)
    report = "\n".join(f.format() for f in findings)
    assert not findings, f"spotlint found violations:\n{report}"


def test_cli_gate_exit_codes(spotlint_gate, tmp_path, capsys):
    # Exit 0: the canonical gate command over src/ and tests/ (run once
    # per session by the conftest fixture).
    assert spotlint_gate.code == 0
    bad_fixture = Path(__file__).parent / "fixtures" / "lint" / "sw001_bad.py"
    code = main(
        [str(bad_fixture), "--no-cache", "--baseline", str(tmp_path / "none.json")]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "SW001" in out and "sw001_bad.py:" in out
