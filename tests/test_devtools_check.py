"""Tests for the one analyzer driver (:mod:`repro.devtools.check`):
the fixture golden, the canonical gate over the real tree, file
discovery, the shared comment grammar, rule scoping, the rule table and
analyzer selection."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import check
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
GOLDEN_TREES = [(tool, tree) for tool, trees in GOLDEN.items() for tree in trees]
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


def _select(tool):
    return ",".join(sorted(set(BY_NAME[tool].rules) | set(ENGINE_RULES)))


# ------------------------------------------------------------------- golden
@pytest.mark.parametrize("tool,tree", GOLDEN_TREES)
def test_driver_reproduces_the_golden(tool, tree, monkeypatch, capsys):
    # Each analyzer's findings over its fixture trees, byte for byte, as
    # the analyzer's own CLI reported them before the drivers merged.
    monkeypatch.chdir(REPO)
    code = main([tree, "--select", _select(tool), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    got = [[f[key] for key in ("rule", "path", "line", "col", "message")]
           for f in payload["findings"]]
    assert got == GOLDEN[tool][tree]
    assert code == (1 if got else 0)
    assert set(payload) == {"schema", "tool", "count", "findings"}
    assert (payload["schema"], payload["tool"], payload["count"]) == (
        "spotweb-findings/1", "spotlint", len(got)
    )


def test_golden_covers_every_analyzer():
    assert set(GOLDEN) == set(BY_NAME)
    assert sum(len(f) for trees in GOLDEN.values() for f in trees.values()) == 67


# --------------------------------------------------------- the real tree
def test_canonical_command_is_clean(spotlint_gate):
    # The gate (run once per session by the conftest fixture): zero
    # findings; a finding kept on purpose is suppressed on its line.
    payload = spotlint_gate.payload
    report = "\n".join(
        f"{f['path']}:{f['line']}: {f['rule']} {f['message']}"
        for f in payload["findings"]
    )
    assert spotlint_gate.code == 0, (
        f"new findings ({spotlint_gate.elapsed_s:.1f} s):\n{report}"
    )
    assert payload["count"] == 0


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
        (None, {*BY_NAME["graph"].rules, *BY_NAME["units"].rules}, {"lint", "shape"}),
        ({"SW001", "SW009"}, None, {"lint"}),
    ],
)
def test_analyzer_runs_only_when_a_rule_survives(select, ignore, ran, monkeypatch):
    # The pipeline records the analyzers it is handed to run.
    seen: set[str] = set()
    run = check._run

    def spy(paths, exclude, analyzers):
        seen.update(a.name for a in analyzers)
        return run(paths, exclude, analyzers)

    monkeypatch.setattr(check, "_run", spy)
    clean = FIXTURES / "units" / "clean.py"
    analyze([clean], select=select, ignore=ignore)
    assert seen == ran
