"""Unit tests for every lint rule: one positive and one negative each,
plus suppression comments, module-name scoping, the CLI contract and
file discovery."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.check import ENGINE_RULES, analyze, iter_python_files, main
from repro.devtools.rules import RULES, module_name_for

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
LINT_SELECT = set(RULES) | set(ENGINE_RULES)


def lint_file(path, select=None, ignore=None):
    """The driver's findings for one file; lint and engine rules by default."""
    return analyze(
        [path], select=LINT_SELECT if select is None else select, ignore=ignore
    )


# ---------------------------------------------------------------- rule table
RULE_CASES = [
    ("SW001", "sw001_bad.py", 2, "sw001_good.py"),
    ("SW002", "repro/simulator/sw002_bad.py", 2, "repro/simulator/sw002_good.py"),
    ("SW003", "sw003_bad.py", 3, "sw003_good.py"),
    ("SW004", "sw004_bad.py", 2, "sw004_good.py"),
    ("SW005", "sw005_bad.py", 2, "sw005_good.py"),
    ("SW006", "sw006_bad.py", 2, "sw006_good.py"),
    ("SW007", "sw007_bad.py", 2, "sw007_good.py"),
    ("SW008", "sw008_bad.py", 1, "sw008_good.py"),
    ("SW011", "sw011_bad.py", 3, "sw011_good.py"),
    ("SW012", "sw012_bad.py", 3, "sw012_good.py"),
]


def test_every_registered_rule_has_a_case():
    assert {case[0] for case in RULE_CASES} == set(RULES)


@pytest.mark.parametrize("rule,bad,count,good", RULE_CASES, ids=[c[0] for c in RULE_CASES])
def test_rule_positive(rule, bad, count, good):
    findings = lint_file(FIXTURES / bad, select={rule})
    assert len(findings) == count
    assert all(f.rule == rule for f in findings)
    assert all(f.line > 0 for f in findings)


@pytest.mark.parametrize("rule,bad,count,good", RULE_CASES, ids=[c[0] for c in RULE_CASES])
def test_rule_negative(rule, bad, count, good):
    assert lint_file(FIXTURES / good, select={rule}) == []


# ------------------------------------------------------------ rule specifics
def test_sw002_out_of_scope_module_is_clean():
    # Same wall-clock calls, but the module does not resolve under
    # repro.simulator / repro.core — the DES-ownership rule must not fire.
    assert lint_file(FIXTURES / "sw002_scope.py", select={"SW002"}) == []


def test_sw007_missing_all_is_one_finding():
    findings = lint_file(FIXTURES / "sw007_missing.py", select={"SW007"})
    assert len(findings) == 1
    assert "no `__all__`" in findings[0].message


def test_sw007_entry_scripts_exempt(tmp_path):
    script = tmp_path / "__main__.py"
    script.write_text("import sys\nsys.exit(0)\n")
    assert lint_file(script, select={"SW007"}) == []


def test_sw007_package_init_may_export_submodules(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('__all__ = ["mod"]\n')
    (pkg / "mod.py").write_text("__all__: list[str] = []\n")
    assert lint_file(pkg / "__init__.py", select={"SW007"}) == []


def test_sw007_pep562_dynamic_exports_allowed(tmp_path):
    mod = tmp_path / "lazy.py"
    mod.write_text(
        '__all__ = ["lazy_thing"]\n\n\n'
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
    )
    assert lint_file(mod, select={"SW007"}) == []


def test_module_name_derivation():
    assert module_name_for(FIXTURES / "repro" / "simulator" / "sw002_bad.py") == (
        "repro.simulator.sw002_bad"
    )
    assert module_name_for(FIXTURES / "sw001_bad.py") == "sw001_bad"


def test_syntax_error_becomes_sw000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    findings = lint_file(bad)
    assert [f.rule for f in findings] == ["SW000"]


def test_sw011_points_at_the_dtype_value(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import numpy as np\n"
        "__all__ = []\n"
        "x = np.zeros(3, dtype=int)\n"
    )
    findings = lint_file(mod, select={"SW011"})
    assert len(findings) == 1
    assert findings[0].line == 3
    assert "np.int64" in findings[0].message


def test_sw011_ignores_non_numpy_calls(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "__all__ = []\n\n\n"
        "def make(factory):\n"
        "    return factory(3, dtype=int)\n"
    )
    assert lint_file(mod, select={"SW011"}) == []


def test_sw011_is_suppressible(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import numpy as np\n"
        "__all__ = []\n"
        "x = np.zeros(3, dtype=int)  # spotlint: disable=SW011\n"
    )
    assert lint_file(mod, select={"SW011"}) == []


def test_sw012_flags_attribute_and_walrus_targets(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import time\n"
        "__all__ = []\n\n\n"
        "class T:\n"
        "    def mark(self):\n"
        "        self.epoch = time.perf_counter()\n"
        "        if (now := time.monotonic()) > 0:\n"
        "            return now\n"
    )
    findings = lint_file(mod, select={"SW012"})
    assert [(f.line, f.rule) for f in findings] == [(7, "SW012"), (8, "SW012")]
    assert "`epoch`" in findings[0].message


def test_sw012_accepts_suffixed_attribute_targets(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import time\n"
        "__all__ = []\n\n\n"
        "class T:\n"
        "    def mark(self):\n"
        "        self.epoch_s = time.perf_counter()\n"
        "        self.tick_ns: int = time.monotonic_ns()\n"
    )
    assert lint_file(mod, select={"SW012"}) == []


def test_sw012_ignores_unresolved_and_shadowed_time(tmp_path):
    # A local callable named `time` must not resolve to the stdlib module.
    mod = tmp_path / "mod.py"
    mod.write_text(
        "__all__ = []\n\n\n"
        "def run(time):\n"
        "    t0 = time.time()\n"
        "    return t0\n"
    )
    assert lint_file(mod, select={"SW012"}) == []


# ------------------------------------------------------------- suppressions
def test_line_suppression_silences_the_rule():
    assert lint_file(FIXTURES / "suppress_line.py", select={"SW006"}) == []


def test_file_suppression_silences_everywhere():
    assert lint_file(FIXTURES / "suppress_file.py", select={"SW006"}) == []


def test_wrong_rule_suppression_does_not_silence():
    findings = lint_file(FIXTURES / "suppress_wrong.py", select={"SW006"})
    assert len(findings) == 1


def test_disable_all_silences_everything_on_line():
    assert lint_file(FIXTURES / "suppress_all.py", select={"SW006"}) == []


def test_lint_source_respects_ignore():
    findings = analyze([FIXTURES / "sw006_bad.py"], ignore={"SW006"})
    assert all(f.rule != "SW006" for f in findings)


# --------------------------------------------------------------------- CLI
def test_cli_exits_nonzero_with_findings(capsys):
    code = main([str(FIXTURES / "sw006_bad.py"), "--select", "SW006"])
    out = capsys.readouterr().out
    assert code == 1
    assert "SW006" in out
    # file:line:col format, clickable in editors.
    assert "sw006_bad.py:" in out


def test_cli_exits_zero_on_clean_input(capsys):
    code = main([str(FIXTURES / "sw006_good.py"), "--select", "SW006"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_rejects_unknown_rule_ids(capsys):
    code = main([str(FIXTURES / "sw006_bad.py"), "--select", "SW999"])
    assert code == 2
    assert "SW999" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_cli_format_json(capsys):
    code = main(
        [str(FIXTURES / "sw006_bad.py"), "--select", "SW006", "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "spotweb-findings/1"
    assert payload["tool"] == "spotlint"
    assert payload["count"] == len(payload["findings"]) > 0


def test_cli_list_rules_includes_engine_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ENGINE_RULES:
        assert rule_id in out


def test_lint_paths_walks_directories():
    findings = analyze([FIXTURES], select={"SW006"})
    files = {Path(f.path).name for f in findings}
    assert "sw006_bad.py" in files
    assert "suppress_wrong.py" in files
    assert "suppress_file.py" not in files


# --------------------------------------------------- file-stream discipline
def test_iter_python_files_dedups_overlapping_args():
    once = list(iter_python_files([FIXTURES]))
    twice = list(iter_python_files([FIXTURES, FIXTURES]))
    assert twice == once
    single = FIXTURES / "sw006_bad.py"
    assert list(iter_python_files([single, single])) == [single]


def test_lint_paths_order_is_arg_order_independent():
    a = FIXTURES / "sw006_bad.py"
    b = FIXTURES / "sw005_bad.py"
    forward = analyze([a, b])
    backward = analyze([b, a])
    assert [f.format() for f in forward] == [f.format() for f in backward]
    assert forward == sorted(
        forward, key=lambda f: (f.path, f.line, f.col, f.rule)
    )


# --------------------------------------------- suppression edge cases + SW009
def test_malformed_empty_disable_list_is_ignored(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("assert True  # spotlint: disable=\n")
    findings = lint_file(mod, select={"SW008", "SW009"})
    assert [f.rule for f in findings] == ["SW008"]


def test_trailing_comma_in_disable_list_still_works(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("assert True  # spotlint: disable=SW008,\n")
    assert lint_file(mod, select={"SW008", "SW009"}) == []


def test_disable_file_on_last_line_applies(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("assert True\n# spotlint: disable-file=SW008")
    assert lint_file(mod, select={"SW008", "SW009"}) == []


def test_unknown_rule_in_suppression_warns_sw009(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("assert True  # spotlint: disable=SW404\n")
    findings = lint_file(mod, select={"SW008", "SW009"})
    assert {f.rule for f in findings} == {"SW008", "SW009"}
    sw009 = next(f for f in findings if f.rule == "SW009")
    assert "SW404" in sw009.message


def test_sw009_is_itself_suppressible(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("assert True  # spotlint: disable=SW404,SW008,SW009\n")
    assert lint_file(mod, select={"SW008", "SW009"}) == []


def test_disable_all_does_not_trigger_sw009(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("assert True  # spotlint: disable=all\n")
    assert lint_file(mod, select={"SW008", "SW009"}) == []


def test_sw009_not_reported_when_unselected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("assert True  # spotlint: disable=SW404\n")
    assert [f.rule for f in lint_file(mod, select={"SW008"})] == ["SW008"]
    findings = lint_file(mod, select={"SW008", "SW009"}, ignore={"SW009"})
    assert [f.rule for f in findings] == ["SW008"]
