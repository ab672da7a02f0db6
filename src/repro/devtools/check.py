"""``spotlint`` — the one driver for the four SpotWeb static analyzers.

Usage::

    python -m repro.devtools src/ tests/ --exclude tests/fixtures   # the gate
    spotlint src/ --select SW101,SW102,SW103     # the layering rules only
    spotlint src/ --format json                  # spotweb-findings/1
    spotlint src/ tests/ --exclude tests/fixtures --update-baseline
    spotlint --layers
    spotlint --list-rules

Exit status is 0 when no new (non-baselined) finding remains, 1 when
findings remain, 2 on usage errors.  Findings print as
``path:line:col: SWxxx message`` so they are clickable in editors.

The analyzers
-------------
:data:`ANALYZERS` lists them: ``lint`` (:mod:`repro.devtools.rules`,
SW001–SW012, one file at a time), ``graph`` (layering, determinism taint
and pmap purity, SW101–SW123), ``shape`` (symbolic array shapes and
dtypes, SW200–SW204) and ``units`` (units of measure, SW300–SW304).  An
analyzer runs only when one of its rules survives ``--select`` and
``--ignore``.

Everything else happens here, once for all four: discover the files,
read, hash and parse each file once, scan its ``# spotlint:`` comments,
keep the cache, report ``SW000`` (unreadable or unparseable file) and
``SW009`` (a suppression naming a rule id no analyzer owns), apply
suppressions, the rule filter and the baseline, and print the report.

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

A suppression may name any analyzer's rule.

Cache
-----
``.spotlint-cache.json`` holds, per file and keyed by its path, content
hash and module name, each cached analyzer's pass A (graph facts, shape
and units contract summaries).  The per-file pass B of shape and units
(the interpreter) is kept too, keyed additionally by the digest of the
whole summary table, so editing a contract in one file re-analyzes every
file.  Lint is not cached: SW007 on a package ``__init__.py`` reads its
directory listing, which no content key captures.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import re
import sys
import tokenize
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.devtools.baseline import load_baseline, split_findings, write_baseline
from repro.devtools.graph import GRAPH_RULES, analyze_project, render_layer_map
from repro.devtools.graph.facts import ModuleFacts, Project, extract_module_facts
from repro.devtools.lint import lint_module
from repro.devtools.report import render_json, sort_findings
from repro.devtools.rules import RULES, Finding, ModuleContext, module_name_for
from repro.devtools.shape.analyze import SHAPE_RULES
from repro.devtools.shape.analyze import analyze_module as shape_module
from repro.devtools.shape.summaries import (
    ModuleSummaries,
    SummaryTable,
    extract_summaries,
    summary_digest,
)
from repro.devtools.units.analyze import UNIT_RULES
from repro.devtools.units.analyze import analyze_module as units_module
from repro.devtools.units.summaries import (
    UnitModuleSummaries,
    UnitTable,
    extract_unit_summaries,
    unit_summary_digest,
)

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

# Bump whenever a cached pass changes its output: older entries are dropped.
CACHE_SCHEMA = "spotlint-cache/1"


@dataclass(frozen=True)
class Analyzer:
    """One analyzer's own logic; :func:`analyze` does everything else.

    ``summarize`` is pass A: one file's JSON facts, cached per file.
    ``link`` joins every file's pass-A facts into one table, which
    ``check_program`` (whole-program passes) or ``check_file`` (one file
    at a time) checks.  ``check_file`` results are cached as well when
    ``digest`` keys them by the whole table.
    """

    name: str
    rules: Mapping[str, str]
    check_file: Callable[[ModuleContext, object], list[Finding]] | None = None
    summarize: Callable[[ModuleContext], dict] | None = None
    link: Callable[[list[dict]], object] | None = None
    check_program: Callable[[object], list[Finding]] | None = None
    digest: Callable[[object], str] | None = None


ANALYZERS = (
    Analyzer(
        "lint",
        {rule.id: rule.summary for rule in RULES.values()},
        check_file=lint_module,
    ),
    Analyzer(
        "graph",
        GRAPH_RULES,
        summarize=lambda ctx: extract_module_facts(ctx).to_dict(),
        link=lambda facts: Project(ModuleFacts.from_dict(f) for f in facts),
        check_program=analyze_project,
    ),
    Analyzer(
        "shape",
        SHAPE_RULES,
        summarize=lambda ctx: extract_summaries(ctx).to_dict(),
        link=lambda facts: SummaryTable(
            ModuleSummaries.from_dict(f) for f in facts
        ),
        check_file=shape_module,
        digest=summary_digest,
    ),
    Analyzer(
        "units",
        UNIT_RULES,
        summarize=lambda ctx: extract_unit_summaries(ctx).to_dict(),
        link=lambda facts: UnitTable(
            UnitModuleSummaries.from_dict(f) for f in facts
        ),
        check_file=units_module,
        digest=unit_summary_digest,
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
    """One file, read and hashed once; parsed and scanned on first use."""

    def __init__(self, path: Path, text: str) -> None:
        self.path = path
        self.text = text
        self.sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.module = module_name_for(path)

    @cached_property
    def comments(self) -> Comments:
        return scan_comments(self.text)

    @cached_property
    def ctx(self) -> ModuleContext:
        """The parsed module; raises :class:`SyntaxError`."""
        tree = ast.parse(self.text, filename=str(self.path))
        annotations = self.comments.annotations
        return ModuleContext(self.path, self.module, tree, annotations)


# --------------------------------------------------------------------------
# The pipeline
# --------------------------------------------------------------------------


def _load_cache(cache_path: Path | None) -> dict:
    if cache_path is None or not cache_path.exists():
        return {}
    try:
        data = json.loads(cache_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return {}
    if not isinstance(data, dict) or data.get("schema") != CACHE_SCHEMA:
        return {}
    files = data.get("files")
    return files if isinstance(files, dict) else {}


def _save_cache(cache_path: Path | None, files: dict) -> None:
    if cache_path is None:
        return
    payload = {"schema": CACHE_SCHEMA, "files": files}
    try:
        text = json.dumps(payload, sort_keys=True)
        cache_path.write_text(text, encoding="utf-8")
    except OSError:
        return  # a read-only checkout must not fail the run


def _run(
    paths: Iterable[Path | str],
    exclude: Iterable[Path | str],
    analyzers: Iterable[Analyzer],
    cache_path: Path | str | None,
    stats: dict | None,
) -> tuple[list[Finding], list[_Source], dict[str, object]]:
    """Run ``analyzers``: (unsuppressed findings, parsed files, tables)."""
    cache_file = Path(cache_path) if cache_path is not None else None
    cached = _load_cache(cache_file)
    findings: list[Finding] = []
    files: list[tuple[_Source, dict]] = []
    for path in iter_python_files(paths, exclude=exclude):
        try:
            src = _Source(path, path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            message = f"unreadable file: {exc}"
            findings.append(Finding("SW000", str(path), 1, 0, message))
            continue
        entry = cached.get(str(path))
        if (
            not isinstance(entry, dict)
            or entry.get("sha256") != src.sha256
            or entry.get("module") != src.module
        ):
            # Only parseable files get an entry, so a hit needs no parse.
            try:
                src.ctx
            except SyntaxError as exc:
                message = f"syntax error: {exc.msg}"
                line, col = exc.lineno or 1, exc.offset or 0
                findings.append(Finding("SW000", str(path), line, col, message))
                continue
            entry = {"sha256": src.sha256, "module": src.module}
        files.append((src, entry))

    tables: dict[str, object] = {}
    for analyzer in analyzers:
        table = None
        recomputed: set[Path] = set()  # files a cached pass had to redo
        if analyzer.summarize is not None:
            facts = []
            for src, entry in files:
                slot = entry.setdefault(analyzer.name, {})
                if "facts" not in slot:
                    slot["facts"] = analyzer.summarize(src.ctx)
                    recomputed.add(src.path)
                facts.append(slot["facts"])
            table = tables[analyzer.name] = analyzer.link(facts)
        if analyzer.check_program is not None:
            findings.extend(analyzer.check_program(table))
        if analyzer.check_file is not None:
            digest = analyzer.digest(table) if analyzer.digest else None
            for src, entry in files:
                slot = entry.get(analyzer.name, {})
                if digest is not None and slot.get("digest") == digest:
                    findings.extend(
                        Finding(rule, str(src.path), line, col, message)
                        for rule, line, col, message in slot["findings"]
                    )
                    continue
                found = analyzer.check_file(src.ctx, table)
                findings.extend(found)
                if digest is not None:
                    recomputed.add(src.path)
                    slot["digest"] = digest
                    slot["findings"] = [
                        [f.rule, f.line, f.col, f.message] for f in found
                    ]
        if stats is not None and analyzer.summarize is not None:
            stats[analyzer.name] = {
                "cached": len(files) - len(recomputed),
                "analyzed": len(recomputed),
            }

    _save_cache(cache_file, {str(src.path): entry for src, entry in files})
    return findings, [src for src, _ in files], tables


def analyze(
    paths: Iterable[Path | str],
    *,
    exclude: Iterable[Path | str] = (),
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    cache_path: Path | str | None = None,
    stats: dict | None = None,
) -> list[Finding]:
    """Every finding under ``paths``, suppressed and filtered, sorted.

    ``select``/``ignore`` are rule-id sets (``None``: no filter); an
    analyzer none of whose rules is left does not run.  ``cache_path=None``
    disables the cache; ``stats`` (when given) receives each cached
    analyzer's ``cached``/``analyzed`` file counts.
    """

    def keep(rule_id: str) -> bool:
        return (select is None or rule_id in select) and not (
            ignore and rule_id in ignore
        )

    active = [a for a in ANALYZERS if any(keep(rule) for rule in a.rules)]
    findings, files, _ = _run(paths, exclude, active, cache_path, stats)
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
        "--baseline",
        metavar="FILE",
        default="spotlint-baseline.json",
        help="accepted-findings file (missing file = empty baseline)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="accept all current findings into --baseline and exit 0",
    )
    parser.add_argument(
        "--cache",
        metavar="FILE",
        default=".spotlint-cache.json",
        help="analysis cache file",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the cache"
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
    cache_path = None if args.no_cache else args.cache
    if args.layers:
        graph = [a for a in ANALYZERS if a.name == "graph"]
        _, _, tables = _run(args.paths, args.exclude, graph, cache_path, None)
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
    if args.update_baseline and (select is not None or ignore is not None):
        # A filtered update would overwrite the baseline with only the
        # selected subset, un-accepting every other grandfathered finding.
        print(
            "spotlint: --update-baseline cannot be combined with "
            "--select/--ignore; the baseline must cover the unfiltered "
            "finding set",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = set() if args.update_baseline else load_baseline(args.baseline)
    except ValueError as exc:
        print(f"spotlint: {exc}", file=sys.stderr)
        return 2

    stats: dict = {}
    findings = analyze(
        args.paths,
        exclude=args.exclude,
        select=select,
        ignore=ignore,
        cache_path=cache_path,
        stats=stats,
    )
    if args.update_baseline:
        write_baseline(args.baseline, findings)
        print(
            f"spotlint: baseline updated with {len(findings)} finding(s) "
            f"-> {args.baseline}",
            file=sys.stderr,
        )
        return 0

    new, accepted = split_findings(findings, baseline)
    if args.format == "json":
        print(render_json(new, extra={"baselined": len(accepted), "cache": stats}))
    elif not args.quiet:
        for finding in new:
            print(finding.format())
    suffix = f" ({len(accepted)} baselined)" if accepted else ""
    if new:
        print(f"spotlint: {len(new)} new finding(s){suffix}", file=sys.stderr)
        return 1
    if not args.quiet and args.format == "text":
        print(f"spotlint: clean{suffix}")
    return 0
