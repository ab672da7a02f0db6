"""The lint analyzer: every :mod:`repro.devtools.rules` rule, file by file.

Each rule sees one parsed module at a time, so this analyzer has no
whole-program pass (SW007 on a package ``__init__.py`` also reads its
directory listing).  File discovery, suppression comments, rule
selection and reporting belong to the one driver,
:mod:`repro.devtools.check`.
"""

from __future__ import annotations

from repro.devtools.rules import RULES, Finding, ModuleContext

__all__ = ["lint_module"]


def lint_module(ctx: ModuleContext, _table: object = None) -> list[Finding]:
    """Every lint rule's findings for one parsed module."""
    return [finding for rule in RULES.values() for finding in rule.check(ctx)]
