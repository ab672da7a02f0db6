"""Tests for the one analyzer driver (:mod:`repro.devtools.check`):
the fixture golden, the canonical gate over the real tree, file
discovery, the shared comment grammar, rule scoping, the rule table,
analyzer selection, the shared cache and the baseline update."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.devtools.baseline import load_baseline, write_baseline
from repro.devtools.check import (
    ANALYZERS,
    ENGINE_RULES,
    Analyzer,
    analyze,
    main,
    rule_table,
    scan_comments,
)

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = json.loads((FIXTURES / "devtools_golden.json").read_text(encoding="utf-8"))
BY_NAME = {analyzer.name: analyzer for analyzer in ANALYZERS}

BAD_MODULE = (
    "__all__ = []\n\n\n"
    "def probe(x):\n"
    "    assert x == 0.5\n"
    "    try:\n"
    "        return 1 / x\n"
    "    except Exception:\n"
    "        return None\n"
)


# ------------------------------------------------------------------- golden
@pytest.mark.parametrize(
    "tool,tree",
    [(tool, tree) for tool, trees in GOLDEN.items() for tree in trees],
)
def test_driver_reproduces_the_golden(tool, tree, tmp_path, monkeypatch, capsys):
    # Each analyzer's findings over its fixture trees, byte for byte, as
    # the analyzer's own CLI reported them before the drivers merged.
    monkeypatch.chdir(REPO)
    select = ",".join(sorted(set(BY_NAME[tool].rules) | set(ENGINE_RULES)))
    main(
        [tree, "--select", select, "--format", "json", "--no-cache",
         "--baseline", str(tmp_path / "none.json")]
    )
    findings = json.loads(capsys.readouterr().out)["findings"]
    got = [[f[key] for key in ("rule", "path", "line", "col", "message")]
           for f in findings]
    assert got == GOLDEN[tool][tree]


def test_golden_covers_every_analyzer():
    assert set(GOLDEN) == set(BY_NAME)
    assert sum(len(f) for trees in GOLDEN.values() for f in trees.values()) == 65


# --------------------------------------------------------- the real tree
def test_canonical_command_is_clean(spotlint_gate):
    # The gate (run once per session by the conftest fixture, cold):
    # nothing beyond the one committed baseline, every entry still live.
    payload = spotlint_gate.payload
    report = "\n".join(
        f"{f['path']}:{f['line']}: {f['rule']} {f['message']}"
        for f in payload["findings"]
    )
    assert spotlint_gate.code == 0, (
        f"new findings ({spotlint_gate.elapsed_s:.1f} s):\n{report}"
    )
    assert payload["count"] == 0
    assert payload["baselined"] == len(load_baseline(REPO / "spotlint-baseline.json"))


# ------------------------------------------------------------ file discovery
def test_tree_under_a_hidden_directory_is_analyzed(tmp_path):
    root = tmp_path / ".hidden" / "proj"
    (root / ".venv").mkdir(parents=True)
    (root / "mod.py").write_text(BAD_MODULE)
    (root / ".venv" / "dep.py").write_text(BAD_MODULE)
    findings = analyze([root], select={"SW006"})
    # The argument's own dot-named prefix is the user's choice; dot-named
    # entries below it are still skipped.
    assert [Path(f.path).name for f in findings] == ["mod.py"]


def test_relative_prefix_through_parent_is_analyzed(tmp_path, monkeypatch):
    (tmp_path / "proj").mkdir()
    (tmp_path / "proj" / "mod.py").write_text(BAD_MODULE)
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    findings = analyze(["../proj"], select={"SW006"})
    assert [f.path for f in findings] == [str(Path("../proj/mod.py"))]


def test_exclude_matches_any_spelling(tmp_path, monkeypatch):
    root = tmp_path / "proj"
    (root / "fixtures").mkdir(parents=True)
    (root / "mod.py").write_text(BAD_MODULE)
    (root / "fixtures" / "bad.py").write_text(BAD_MODULE)
    monkeypatch.chdir(tmp_path)
    findings = analyze([root], select={"SW006"}, exclude=["proj/fixtures"])
    assert [Path(f.path).name for f in findings] == ["mod.py"]
    findings = analyze(["proj"], select={"SW006"}, exclude=[root / "fixtures"])
    assert [Path(f.path).name for f in findings] == ["mod.py"]


# ---------------------------------------------------------- comment grammar
def test_comment_scan_reads_suppressions_and_annotations():
    comments = scan_comments(
        "x = 1  # spotlint: disable=sw001, SW006\n"
        "# spotlint: disable-file=SW007\n"
        "def f():  # spotlint: allow-nondeterminism\n"
        "    return '# spotlint: disable=SW008'\n"
    )
    assert comments.file_rules == {"SW007"}
    assert comments.line_rules == {1: {"SW001", "SW006"}}
    assert comments.references == ((1, "SW001"), (1, "SW006"), (2, "SW007"))
    assert comments.annotations == {3: {"allow-nondeterminism"}}


def test_suppression_may_name_any_analyzers_rule(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "__all__ = []\n"
        "x = 1  # spotlint: disable=SW204,SW110\n"
        "y = 2  # spotlint: disable=SW998\n"
    )
    # Only lint runs, yet the shape and graph ids are known: no SW009.
    findings = analyze([mod], select=set(BY_NAME["lint"].rules) | {"SW009"})
    assert [(f.rule, f.line) for f in findings] == [("SW009", 3)]


def test_syntax_error_is_reported_once(tmp_path):
    (tmp_path / "broken.py").write_text("def oops(:\n")
    findings = analyze([tmp_path])
    assert [f.rule for f in findings] == ["SW000"]


# ------------------------------------------------------------- name scope
def test_parameter_shadowing_an_imported_module_is_a_local(tmp_path):
    # `time` and `random` are imported at the top, but inside each
    # function the parameter of that name is what the call goes through.
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    for init in (tmp_path / "repro", package):
        (init / "__init__.py").write_text("")
    (package / "clock.py").write_text(
        '"""Clock helpers whose parameters shadow imported modules."""\n\n'
        "import random\n"
        "import time\n\n"
        '__all__ = ["elapsed", "pick"]\n\n\n'
        "def elapsed(time, start_s):\n"
        "    now_s = time.time()\n"
        "    return now_s - start_s\n\n\n"
        "def pick(random):\n"
        "    return random.random()\n"
    )
    assert analyze([package / "clock.py"]) == []


# ----------------------------------------------------------------- scoping
@pytest.mark.parametrize("name", ["test_mod.py", "conftest.py"])
def test_pytest_modules_skip_sw003_sw007_sw008(tmp_path, name):
    source = BAD_MODULE.replace("__all__ = []\n", "")
    (tmp_path / "mod.py").write_text(source)
    (tmp_path / name).write_text(source)
    findings = analyze([tmp_path], select=set(BY_NAME["lint"].rules))
    by_file = {
        file: sorted(f.rule for f in findings if Path(f.path).name == file)
        for file in ("mod.py", name)
    }
    assert by_file == {
        "mod.py": ["SW003", "SW006", "SW007", "SW008"],
        name: ["SW006"],
    }


# -------------------------------------------------------------- rule table
def test_rule_table_raises_on_a_duplicate_id():
    with pytest.raises(ValueError, match="SW001"):
        rule_table([Analyzer("a", {"SW001": "x"}), Analyzer("b", {"SW001": "y"})])
    with pytest.raises(ValueError, match="SW009"):
        rule_table([Analyzer("a", {"SW009": "shadows the engine rule"})])


def test_list_rules_prints_every_rule_once_in_order(capsys):
    assert main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    every = {*ENGINE_RULES, *(rule for a in ANALYZERS for rule in a.rules)}
    assert listed == sorted(every)


@pytest.mark.parametrize(
    "select,ignore,ran",
    [
        ({"SW101"}, None, {"graph"}),
        ({"SW200", "SW300"}, None, {"shape", "units"}),
        (None, {*BY_NAME["graph"].rules, *BY_NAME["units"].rules}, {"shape"}),
        ({"SW001", "SW009"}, None, set()),
    ],
)
def test_analyzer_runs_only_when_a_rule_survives(select, ignore, ran):
    # stats records every cached analyzer that ran (lint is uncached).
    stats: dict = {}
    clean = FIXTURES / "units" / "clean.py"
    analyze([clean], select=select, ignore=ignore, stats=stats)
    assert set(stats) == ran


# ------------------------------------------------------------------- cache
def test_warm_cache_reproduces_the_cold_run(tmp_path):
    tree = tmp_path / "trees"
    for name in ("shape", "units"):
        shutil.copytree(FIXTURES / name, tree / name)
    shutil.copytree(FIXTURES / "graph" / "taint_bad", tree / "taint_bad")
    cache = tmp_path / "cache.json"
    cold_stats: dict = {}
    cold = analyze([tree], cache_path=cache, stats=cold_stats)
    warm_stats: dict = {}
    warm = analyze([tree], cache_path=cache, stats=warm_stats)
    assert warm == cold
    assert set(warm_stats) == {"graph", "shape", "units"}
    assert all(s["analyzed"] == 0 for s in warm_stats.values())
    assert cold_stats["graph"]["analyzed"] == warm_stats["graph"]["cached"]


def test_cache_is_keyed_by_the_path_as_spelled(tmp_path, monkeypatch):
    # A finding carries the path as given on the command line, so an
    # entry cached under one spelling is not reused under another.
    shutil.copytree(FIXTURES / "units", tmp_path / "units")
    monkeypatch.chdir(tmp_path)
    cache = tmp_path / "cache.json"
    relative = analyze(["units"], select={"SW302"}, cache_path=cache)
    stats: dict = {}
    absolute = analyze(
        [tmp_path / "units"], select={"SW302"}, cache_path=cache, stats=stats
    )
    assert stats["units"]["cached"] == 0
    assert [Path(f.path).resolve() for f in absolute] == [
        Path(f.path).resolve() for f in relative
    ]
    assert all(Path(f.path).is_absolute() for f in absolute)


# ---------------------------------------------------------------- baseline
def test_update_baseline_keeps_the_reviewed_justification(tmp_path, capsys):
    tree = str(FIXTURES / "shape")
    baseline = tmp_path / "baseline.json"
    update = [tree, "--no-cache", "--baseline", str(baseline), "--update-baseline"]
    assert main(update) == 0
    data = json.loads(baseline.read_text())
    assert data["schema"] == "spotlint-baseline/1"
    assert data["justification"].startswith("accepted by --update-baseline")

    data["justification"] = "Reviewed: every entry is deliberate."
    baseline.write_text(json.dumps(data))
    assert main(update) == 0
    kept = json.loads(baseline.read_text())
    assert kept["justification"] == "Reviewed: every entry is deliberate."
    assert kept["findings"] == data["findings"]
    capsys.readouterr()


def test_write_baseline_replaces_an_unreadable_file(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{not json")
    write_baseline(baseline, [])
    assert load_baseline(baseline) == set()
