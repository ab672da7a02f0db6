"""Tests for spotgraph: per-rule fixtures (positive + negative), the
transitive taint path, suppressions, and the graph analyzer's share of
the driver's cache, baseline and CLI."""

from __future__ import annotations

import ast
import json
import re
import shutil
from pathlib import Path

import pytest

from repro.devtools.baseline import (
    fingerprint,
    load_baseline,
    split_findings,
    write_baseline,
)
from repro.devtools.check import ENGINE_RULES, analyze, main
from repro.devtools.graph import GRAPH_RULES
from repro.devtools.graph.facts import extract_module_facts
from repro.devtools.graph.layers import LAYER_ALLOWED, render_layer_map
from repro.devtools.rules import ModuleContext, module_name_for

FIXTURES = Path(__file__).parent / "fixtures" / "graph"
SRC = Path(__file__).parents[1] / "src"
GRAPH_SELECT = set(GRAPH_RULES) | set(ENGINE_RULES)


def graph_findings(tree, select=None):
    return analyze(
        [FIXTURES / tree], select=GRAPH_SELECT if select is None else select
    )


def parsed(path, text=None):
    text = path.read_text() if text is None else text
    return ModuleContext(path, module_name_for(path), ast.parse(text))


# ---------------------------------------------------------------- rule table
GRAPH_RULE_CASES = [
    ("SW101", "layer_bad", 1, "layer_clean"),
    ("SW102", "layer_bad", 1, "layer_clean"),
    ("SW103", "layer_bad", 1, "layer_clean"),
    ("SW110", "taint_bad", 2, "taint_clean"),
    ("SW111", "taint_bad", 1, "taint_clean"),
    ("SW112", "taint_bad", 1, "taint_clean"),
    ("SW120", "purity_bad", 1, "purity_clean"),
    ("SW121", "purity_bad", 1, "purity_clean"),
    ("SW122", "purity_bad", 1, "purity_clean"),
    ("SW123", "purity_bad", 1, "purity_clean"),
]


def test_every_graph_rule_has_a_case():
    assert {case[0] for case in GRAPH_RULE_CASES} == set(GRAPH_RULES)


@pytest.mark.parametrize(
    "rule,bad,count,good", GRAPH_RULE_CASES, ids=[c[0] for c in GRAPH_RULE_CASES]
)
def test_graph_rule_positive(rule, bad, count, good):
    findings = graph_findings(bad, select={rule})
    assert len(findings) == count
    assert all(f.rule == rule for f in findings)


@pytest.mark.parametrize(
    "rule,bad,count,good", GRAPH_RULE_CASES, ids=[c[0] for c in GRAPH_RULE_CASES]
)
def test_graph_rule_negative(rule, bad, count, good):
    assert graph_findings(good, select={rule}) == []


# ----------------------------------------------------------------- layering
def test_sw101_message_names_both_layers():
    (finding,) = graph_findings("layer_bad", select={"SW101"})
    assert "`repro.solvers.bad` (layer `solvers`)" in finding.message
    assert "repro.simulator.engine" in finding.message


def test_sw102_reports_the_full_cycle():
    (finding,) = graph_findings("layer_bad", select={"SW102"})
    assert (
        "repro.core.a -> repro.core.b -> repro.core.a" in finding.message
    )


def test_type_checking_imports_are_exempt():
    # predictors/ok.py imports repro.simulator under TYPE_CHECKING — an
    # upward edge that would be SW101 if it were a runtime import.
    source = (
        FIXTURES / "layer_clean" / "repro" / "predictors" / "ok.py"
    ).read_text()
    assert "from repro.simulator.engine import run" in source
    assert graph_findings("layer_clean", select={"SW101"}) == []


def test_layer_map_covers_real_src_packages():
    declared = set(LAYER_ALLOWED)
    actual = {
        p.name for p in (SRC / "repro").iterdir() if (p / "__init__.py").exists()
    }
    assert actual <= declared


def test_render_layer_map_lists_every_group():
    text = render_layer_map()
    for segment in LAYER_ALLOWED:
        assert segment in text


# -------------------------------------------------------------------- taint
def test_sw110_reports_the_transitive_path():
    findings = graph_findings("taint_bad", select={"SW110"})
    chains = [f.message for f in findings]
    assert any(
        "repro.core.engine.step -> repro.obs.util.stamp -> time.time" in m
        for m in chains
    )


def test_sw110_message_has_no_line_numbers():
    # Line numbers would churn baseline fingerprints on unrelated edits.
    for finding in graph_findings("taint_bad", select={"SW110"}):
        assert ":%d" % finding.line not in finding.message


def test_allow_nondeterminism_def_annotation_is_a_barrier():
    # taint_clean's stamp() reads time.time() but is annotated; neither it
    # nor its deterministic-scope caller may be reported.
    assert graph_findings("taint_clean", select={"SW110"}) == []


def test_sw110_direct_source_reports_length_one_chain():
    findings = graph_findings("taint_bad", select={"SW110"})
    assert any(
        "repro.core.engine.now -> time.time" in f.message for f in findings
    )


def test_unseeded_rng_is_sw111_only_not_sw110():
    # `draw` builds an unseeded default_rng() directly; SW111 covers that
    # call, so no duplicate length-1 SW110 chain may be emitted for it.
    sw110 = graph_findings("taint_bad", select={"SW110"})
    assert not any("draw" in f.message for f in sw110)
    (sw111,) = graph_findings("taint_bad", select={"SW111"})
    assert "repro.core.engine.draw" in sw111.message


@pytest.mark.parametrize(
    "call", ["default_rng()", "default_rng(None)", "default_rng(seed=None)"]
)
def test_none_seed_counts_as_unseeded(call):
    facts = extract_module_facts(
        parsed(
            Path("m.py"),
            "from numpy.random import default_rng\n\n"
            f"def f():\n    return {call}\n",
        )
    )
    (fn,) = facts.functions
    (rng,) = fn.rng_calls
    assert rng.seeded is False


def test_expression_seed_counts_as_seeded():
    facts = extract_module_facts(
        parsed(
            Path("m.py"),
            "from numpy.random import default_rng\n\n"
            "def f(seed):\n    return default_rng(seed)\n",
        )
    )
    (rng,) = facts.functions[0].rng_calls
    assert rng.seeded is True


# ------------------------------------------------------------------- purity
def test_sw120_names_the_global_and_the_worker():
    (finding,) = graph_findings("purity_bad", select={"SW120"})
    assert "_CACHE" in finding.message
    assert "repro.experiments.run._cell" in finding.message


def test_sw123_fires_on_lambda():
    (finding,) = graph_findings("purity_bad", select={"SW123"})
    assert "lambda" in finding.message


def test_unwritten_mutable_global_read_is_allowed():
    # purity_clean's worker reads _TABLE, which nothing mutates.
    assert graph_findings("purity_clean", select={"SW120"}) == []


# ------------------------------------------------------------- suppressions
def test_spotgraph_line_suppression():
    findings = graph_findings("suppress", select={"SW112"})
    assert len(findings) == 1
    assert "reported" in findings[0].message


@pytest.mark.parametrize("rule", ["SW110", "SW111", "SW112"])
def test_advised_annotation_clears_the_finding(rule, tmp_path):
    # Each message names the comment that accepts the seam; writing that
    # comment on the finding's line must clear the finding.
    dest = _copy_tree(tmp_path, "taint_bad")
    before = analyze([dest], select={rule})
    assert before
    for finding in before:
        advice = re.search(r"`(# \S+ allow-nondeterminism)`", finding.message)
        path = Path(finding.path)
        lines = path.read_text().splitlines()
        lines[finding.line - 1] += f"  {advice.group(1)}"
        path.write_text("\n".join(lines) + "\n")
    assert analyze([dest], select={rule}) == []


def test_unknown_suppression_rule_becomes_sw009():
    findings = graph_findings("suppress", select={"SW009"})
    mentioned = {f.message.split("`")[1] for f in findings}
    assert mentioned == {"SW999", "SW777"}


# ------------------------------------------------------------------ caching
def _copy_tree(tmp_path, tree):
    dest = tmp_path / tree
    shutil.copytree(FIXTURES / tree, dest)
    return dest


def _cached_run(dest, cache):
    stats: dict = {}
    findings = analyze(
        [dest], select=GRAPH_SELECT, cache_path=cache, stats=stats
    )
    return findings, stats["graph"]


def test_cache_roundtrip_and_invalidation(tmp_path):
    dest = _copy_tree(tmp_path, "taint_bad")
    cache = tmp_path / "cache.json"

    first, stats = _cached_run(dest, cache)
    n_files = stats["analyzed"]
    assert n_files == 5 and stats["cached"] == 0

    second, stats = _cached_run(dest, cache)
    assert stats == {"cached": n_files, "analyzed": 0}
    # Cached facts must produce identical findings.
    assert second == first
    assert [f.rule for f in second if f.rule == "SW110"]

    target = dest / "repro" / "core" / "engine.py"
    target.write_text(target.read_text() + "\n# touched\n")
    _, stats = _cached_run(dest, cache)
    assert stats == {"cached": n_files - 1, "analyzed": 1}


def test_cache_schema_mismatch_forces_reextraction(tmp_path):
    dest = _copy_tree(tmp_path, "taint_bad")
    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps({"schema": "something/9", "files": {}}))
    _, stats = _cached_run(dest, cache)
    assert stats["cached"] == 0 and stats["analyzed"] == 5


def test_syntax_error_becomes_sw000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    findings = analyze([tmp_path], select=GRAPH_SELECT)
    assert [f.rule for f in findings] == ["SW000"]


def test_extract_module_facts_records_imports_and_functions():
    path = FIXTURES / "taint_bad" / "repro" / "core" / "engine.py"
    facts = extract_module_facts(parsed(path))
    assert facts.module == "repro.core.engine"
    assert {fn.qualname for fn in facts.functions} == {
        "step",
        "draw",
        "now",
        "keys",
    }
    assert any(e.target == "repro.obs.util" for e in facts.imports)


# ----------------------------------------------------------------- baseline
def test_baseline_roundtrip_accepts_everything(tmp_path):
    findings = graph_findings("taint_bad")
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, findings)
    accepted = load_baseline(baseline_file)
    new, baselined = split_findings(findings, accepted)
    assert new == [] and len(baselined) == len(findings)


def test_fingerprint_is_line_independent():
    findings = graph_findings("taint_bad", select={"SW110"})
    f = findings[0]
    moved = type(f)(f.rule, f.path, f.line + 40, f.col, f.message)
    assert fingerprint(moved) == fingerprint(f)


def test_load_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == set()


def test_load_baseline_rejects_wrong_schema(tmp_path):
    bad = tmp_path / "b.json"
    bad.write_text(json.dumps({"schema": "other/1", "findings": []}))
    with pytest.raises(ValueError):
        load_baseline(bad)


def test_committed_repo_baseline_is_empty():
    # The graph rules' share of the one committed baseline is empty:
    # intentional seams are annotated in place, never baselined.
    committed = Path(__file__).parents[1] / "spotlint-baseline.json"
    data = json.loads(committed.read_text())
    assert data["schema"] == "spotlint-baseline/1"
    assert not [f for f in data["findings"] if f["rule"] in GRAPH_RULES]
    assert "allow-nondeterminism" in data["justification"]


# ---------------------------------------------------------------------- CLI
def _cli(tmp_path, *argv):
    baseline = tmp_path / "empty-baseline.json"
    return main([*argv, "--no-cache", "--baseline", str(baseline)])


def test_cli_exits_nonzero_with_findings(tmp_path, capsys):
    code = _cli(tmp_path, str(FIXTURES / "layer_bad"), "--select", "SW101")
    out = capsys.readouterr().out
    assert code == 1
    assert "SW101" in out and "bad.py:" in out


def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    code = _cli(
        tmp_path,
        str(FIXTURES / "layer_clean"),
        "--select",
        ",".join(GRAPH_SELECT),
    )
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_rejects_unknown_rule_ids(tmp_path, capsys):
    code = _cli(tmp_path, str(FIXTURES / "layer_bad"), "--select", "SW999")
    assert code == 2
    assert "SW999" in capsys.readouterr().err


def test_cli_json_format(tmp_path, capsys):
    code = _cli(
        tmp_path,
        str(FIXTURES / "taint_bad"),
        "--select",
        "SW110",
        "--format",
        "json",
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "spotweb-findings/1"
    assert payload["tool"] == "spotlint"
    assert payload["count"] == 2
    assert payload["baselined"] == 0
    assert set(payload["cache"]) == {"graph"}


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    tree = str(FIXTURES / "purity_bad")
    assert main([tree, "--no-cache", "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    capsys.readouterr()
    code = main([tree, "--no-cache", "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 0
    assert "baselined" in out


def test_cli_update_baseline_rejects_filters(tmp_path, capsys):
    # A filtered --update-baseline would overwrite the baseline with only
    # the selected subset, silently un-accepting all other findings.
    code = _cli(
        tmp_path,
        str(FIXTURES / "taint_bad"),
        "--select",
        "SW110",
        "--update-baseline",
    )
    assert code == 2
    assert "--update-baseline" in capsys.readouterr().err


def test_cli_layers_diagram(capsys):
    assert main([str(FIXTURES / "layer_bad"), "--layers", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "foundation" in out and "observed package dependencies" in out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in GRAPH_RULES:
        assert rule_id in out
    assert "SW009" in out
