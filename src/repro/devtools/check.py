"""``spotlint`` — the one driver for the four SpotWeb static analyzers.

Usage::

    python -m repro.devtools src/ tests/ --exclude tests/fixtures   # the gate
    spotlint src/ --select SW101,SW102,SW103     # the layering rules only
    spotlint src/ --format json                  # spotweb-findings/1
    spotlint --layers
    spotlint --list-rules

Exit status is 0 when no finding remains, 1 when findings remain, 2 on
usage errors.  Findings print as ``path:line:col: SWxxx message`` so they
are clickable in editors.

The analyzers
-------------
:data:`ANALYZERS` lists them: ``lint`` (:mod:`repro.devtools.rules`,
SW001–SW012, one file at a time), ``graph`` (layering, determinism taint
and pmap purity, SW101–SW123), ``shape`` (symbolic array shapes and
dtypes, SW200–SW204) and ``units`` (units of measure, SW300–SW304).  An
analyzer runs only when one of its rules survives ``--select`` and
``--ignore``.

Everything else happens here, once for all four: discover the files,
read and parse each file once, scan its ``# spotlint:`` comments, report
``SW000`` (unreadable or unparseable file) and ``SW009`` (a suppression
naming a rule id no analyzer owns), apply suppressions and the rule
filter, and print the report.  Each run reads only the tree.

Comment grammar
---------------
::

    x = risky()  # spotlint: disable=SW006       silence rules on this line
    # spotlint: disable-file=SW007               ...or in the whole file
    # spotlint: disable=all                      every rule on this line
    # spotlint: deterministic                    graph annotations: see
    # spotlint: deterministic-file               repro.devtools.graph.facts
    # spotlint: allow-nondeterminism
    # spotlint: allow-shared-state

A suppression may name any analyzer's rule.  A finding the code keeps on
purpose is accepted by a ``disable`` comment on its line, with the
reason next to it.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.graph import GRAPH_RULES, analyze_project, render_layer_map
from repro.devtools.graph.facts import Project, extract_module_facts
from repro.devtools.lint import lint_module
from repro.devtools.report import render_json, sort_findings
from repro.devtools.rules import RULES, Finding, ModuleContext, module_name_for
from repro.devtools.shape import analyze as shape
from repro.devtools.summaries import ContractTable
from repro.devtools.units import analyze as units

__all__ = [
    "ANALYZERS",
    "ENGINE_RULES",
    "RULE_TABLE",
    "Analyzer",
    "Comments",
    "analyze",
    "iter_python_files",
    "main",
    "rule_table",
    "scan_comments",
]

ENGINE_RULES = {
    "SW000": "unreadable or syntactically invalid file",
    "SW009": "suppression comment references an unknown rule id",
}


@dataclass(frozen=True)
class Analyzer:
    """One analyzer's own logic; :func:`analyze` does everything else.

    ``summarize`` is pass A: one file's facts.  ``link`` joins every
    file's pass-A facts into one table, which ``check_program``
    (whole-program passes) or ``check_file`` (one file at a time) checks.
    """

    name: str
    rules: Mapping[str, str]
    check_file: Callable[[ModuleContext, object], list[Finding]] | None = None
    summarize: Callable[[ModuleContext], object] | None = None
    link: Callable[[list], object] | None = None
    check_program: Callable[[object], list[Finding]] | None = None


ANALYZERS = (
    Analyzer(
        "lint",
        {rule.id: rule.summary for rule in RULES.values()},
        check_file=lint_module,
    ),
    Analyzer(
        "graph",
        GRAPH_RULES,
        summarize=extract_module_facts,
        link=Project,
        check_program=analyze_project,
    ),
    Analyzer(
        "shape",
        shape.SHAPE_RULES,
        summarize=shape.summarize,
        link=ContractTable,
        check_file=shape.analyze_module,
    ),
    Analyzer(
        "units",
        units.UNIT_RULES,
        summarize=units.summarize,
        link=ContractTable,
        check_file=units.analyze_module,
    ),
)


def rule_table(analyzers: Iterable[Analyzer]) -> dict[str, str]:
    """Every rule id -> summary; raises if two analyzers claim one id."""
    table = dict(ENGINE_RULES)
    owner = {rule_id: "engine" for rule_id in ENGINE_RULES}
    for analyzer in analyzers:
        for rule_id, summary in analyzer.rules.items():
            if rule_id in table:
                raise ValueError(
                    f"rule id {rule_id} is claimed by both "
                    f"{owner[rule_id]} and {analyzer.name}"
                )
            table[rule_id] = summary
            owner[rule_id] = analyzer.name
    return dict(sorted(table.items()))


RULE_TABLE = rule_table(ANALYZERS)


# --------------------------------------------------------------------------
# Files and comments
# --------------------------------------------------------------------------


def iter_python_files(
    paths: Iterable[Path | str],
    *,
    exclude: Iterable[Path | str] = (),
) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files.

    ``exclude`` entries (files or directory prefixes) are compared with
    the candidates as resolved paths, so any spelling of the same
    location excludes it.  Below a directory argument, ``__pycache__``
    and dot-named entries are skipped; the argument's own prefix may be
    anything (``../repo/src``, a checkout under a hidden directory).

    Each file is yielded **once** even when the arguments overlap
    (``spotlint src src/repro``) or reach the same file through a symlink:
    entries are deduplicated by fully resolved path, first spelling wins.
    """
    excluded = [Path(e).resolve() for e in exclude]
    seen: set[Path] = set()

    def _emit(path: Path) -> Iterator[Path]:
        resolved = path.resolve()
        if resolved in seen or any(
            ex == resolved or ex in resolved.parents for ex in excluded
        ):
            return
        seen.add(resolved)
        yield path

    for entry in paths:
        entry = Path(entry)
        if not entry.is_dir():
            yield from _emit(entry)
            continue
        for path in sorted(entry.rglob("*.py")):
            below = path.relative_to(entry).parts
            if "__pycache__" in below or any(p.startswith(".") for p in below):
                continue
            yield from _emit(path)


_SUPPRESS = re.compile(
    r"#\s*spotlint:\s*disable(?P<scope>-file)?\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)"
)
_ANNOTATE = re.compile(r"#\s*spotlint:\s*(?P<word>[a-z][a-z\-]*)\b")


@dataclass(frozen=True)
class Comments:
    """One file's ``# spotlint:`` comments.

    Rule ids are upper-cased; the sentinel ``ALL`` suppresses every rule.
    ``references`` records every ``(line, rule id)`` a suppression names,
    so unknown ids can be reported as SW009.
    """

    file_rules: frozenset[str] = frozenset()
    line_rules: Mapping[int, frozenset[str]] = field(default_factory=dict)
    references: tuple[tuple[int, str], ...] = ()
    annotations: Mapping[int, frozenset[str]] = field(default_factory=dict)

    def suppresses(self, finding: Finding) -> bool:
        on_line = self.line_rules.get(finding.line, frozenset())
        return any(
            "ALL" in rules or finding.rule in rules
            for rules in (self.file_rules, on_line)
        )


def scan_comments(source: str) -> Comments:
    """Parse the ``# spotlint:`` suppressions and annotations in ``source``."""
    if "spotlint:" not in source:
        return Comments()  # tokenizing is the costly part; most files skip it
    try:
        comments = [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return Comments()
    file_rules: set[str] = set()
    line_rules: dict[int, set[str]] = {}
    references: list[tuple[int, str]] = []
    annotations: dict[int, set[str]] = {}
    for line, text in comments:
        match = _SUPPRESS.search(text)
        if match is None:
            word = _ANNOTATE.search(text)
            if word is not None:
                annotations.setdefault(line, set()).add(word.group("word"))
            continue
        rules = {
            rule.strip().upper()
            for rule in match.group("rules").split(",")
            if rule.strip()
        }
        references.extend((line, rule) for rule in sorted(rules))
        if match.group("scope"):
            file_rules |= rules
        else:
            line_rules.setdefault(line, set()).update(rules)
    return Comments(
        file_rules=frozenset(file_rules),
        line_rules={k: frozenset(v) for k, v in line_rules.items()},
        references=tuple(references),
        annotations={k: frozenset(v) for k, v in annotations.items()},
    )


class _Source:
    """One file, scanned for ``# spotlint:`` comments and parsed; raises
    :class:`SyntaxError`."""

    def __init__(self, path: Path, text: str) -> None:
        self.path = path
        self.comments = scan_comments(text)
        tree = ast.parse(text, filename=str(path))
        annotations = self.comments.annotations
        self.ctx = ModuleContext(path, module_name_for(path), tree, annotations)


# --------------------------------------------------------------------------
# The pipeline
# --------------------------------------------------------------------------


def _run(
    paths: Iterable[Path | str],
    exclude: Iterable[Path | str],
    analyzers: Iterable[Analyzer],
) -> tuple[list[Finding], list[_Source], dict[str, object]]:
    """Run ``analyzers``: (unsuppressed findings, parsed files, tables)."""
    findings: list[Finding] = []
    files: list[_Source] = []
    for path in iter_python_files(paths, exclude=exclude):
        try:
            src = _Source(path, path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            message = f"unreadable file: {exc}"
            findings.append(Finding("SW000", str(path), 1, 0, message))
            continue
        except SyntaxError as exc:
            message = f"syntax error: {exc.msg}"
            line, col = exc.lineno or 1, exc.offset or 0
            findings.append(Finding("SW000", str(path), line, col, message))
            continue
        files.append(src)

    tables: dict[str, object] = {}
    for analyzer in analyzers:
        table = None
        if analyzer.summarize is not None:
            facts = [analyzer.summarize(src.ctx) for src in files]
            table = tables[analyzer.name] = analyzer.link(facts)
        if analyzer.check_program is not None:
            findings.extend(analyzer.check_program(table))
        if analyzer.check_file is not None:
            for src in files:
                findings.extend(analyzer.check_file(src.ctx, table))
    return findings, files, tables


def analyze(
    paths: Iterable[Path | str],
    *,
    exclude: Iterable[Path | str] = (),
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Finding]:
    """Every finding under ``paths``, suppressed and filtered, sorted.

    ``select``/``ignore`` are rule-id sets (``None``: no filter); an
    analyzer none of whose rules is left does not run.
    """

    def keep(rule_id: str) -> bool:
        return (select is None or rule_id in select) and not (
            ignore and rule_id in ignore
        )

    active = [a for a in ANALYZERS if any(keep(rule) for rule in a.rules)]
    findings, files, _ = _run(paths, exclude, active)
    for src in files if keep("SW009") else ():
        for line, rule_id in src.comments.references:
            if rule_id not in RULE_TABLE and rule_id != "ALL":
                findings.append(
                    Finding(
                        "SW009",
                        str(src.path),
                        line,
                        0,
                        f"suppression references unknown rule id `{rule_id}` "
                        "(see --list-rules); it suppresses nothing",
                    )
                )
    by_path = {str(src.path): src for src in files}
    return sort_findings(
        f
        for f in findings
        if keep(f.rule)
        and not (f.path in by_path and by_path[f.path].comments.suppresses(f))
    )


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def _rule_set(spec: str | None) -> set[str] | None:
    if spec is None:
        return None
    return {part.strip().upper() for part in spec.split(",") if part.strip()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotlint",
        description=(
            "Static analysis for the SpotWeb reproduction: per-file lint "
            "rules, whole-program layering/determinism/purity, symbolic "
            "array shapes and units of measure."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--select", metavar="RULES", help="comma-separated rule IDs to keep"
    )
    parser.add_argument(
        "--ignore", metavar="RULES", help="comma-separated rule IDs to drop"
    )
    parser.add_argument(
        "--exclude",
        metavar="PATH",
        action="append",
        default=[],
        help="file or directory to skip (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json: spotweb-findings/1)",
    )
    parser.add_argument(
        "--layers",
        action="store_true",
        help="print the declared layer map (plus observed deps) and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress per-finding output"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, summary in RULE_TABLE.items():
            print(f"{rule_id}  {summary}")
        return 0
    if args.layers:
        graph = [a for a in ANALYZERS if a.name == "graph"]
        _, _, tables = _run(args.paths, args.exclude, graph)
        print(render_layer_map(tables["graph"]))
        return 0

    select, ignore = _rule_set(args.select), _rule_set(args.ignore)
    unknown = ((select or set()) | (ignore or set())) - set(RULE_TABLE)
    if unknown:
        print(
            f"spotlint: unknown rule id(s): {', '.join(sorted(unknown))}"
            " (see --list-rules)",
            file=sys.stderr,
        )
        return 2

    findings = analyze(args.paths, exclude=args.exclude, select=select, ignore=ignore)
    if args.format == "json":
        print(render_json(findings))
    elif not args.quiet:
        for finding in findings:
            print(finding.format())
    if findings:
        print(f"spotlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    if not args.quiet and args.format == "text":
        print("spotlint: clean")
    return 0
