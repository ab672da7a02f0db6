"""Tests for spotshape: the abstract domain, contract summaries, per-rule
fixtures (positive + negative), suppressions and the CLI."""

from __future__ import annotations

import ast
import json
import shutil
from pathlib import Path

import pytest

from repro.devtools.check import ENGINE_RULES, analyze, main
from repro.devtools.rules import ModuleContext, module_name_for
from repro.devtools.shape.analyze import (
    HOT_PREFIXES,
    SHAPE_RULES,
    analyze_module,
    summarize,
)
from repro.devtools.shape.domain import (
    ArrayVal,
    broadcast_dims,
    format_dims,
    promote,
    resolve_dim,
    scalar,
    unify_dim,
)
from repro.devtools.summaries import ContractTable

FIXTURES = Path(__file__).parent / "fixtures" / "shape"
SHAPE_SELECT = set(SHAPE_RULES) | set(ENGINE_RULES)


def shape_findings(paths=None, select=None, **kwargs):
    return analyze(
        paths if paths is not None else [FIXTURES],
        select=SHAPE_SELECT if select is None else select,
        **kwargs,
    )


def parsed(path, text=None):
    text = path.read_text() if text is None else text
    return ModuleContext(path, module_name_for(path), ast.parse(text))


def analyze_one(name, *, with_seam=True):
    """Analyze a single fixture file against the seam's contract table."""
    mods = []
    if with_seam:
        mods.append(summarize(parsed(FIXTURES / "contracts_seam.py")))
    ctx = parsed(FIXTURES / name)
    mods.append(summarize(ctx))
    return analyze_module(ctx, ContractTable(mods))


# ------------------------------------------------------------------- domain
def test_promote_flags_only_float_width_mixes():
    assert promote("float64", "float32") == ("float64", True)
    assert promote("float32", "float64") == ("float64", True)
    assert promote("float64", "float64") == ("float64", False)
    assert promote("float64", "int64") == ("float64", False)
    assert promote("int32", "int64") == ("int64", False)
    assert promote("bool", "float32") == ("float32", False)
    assert promote("?", "float64") == ("?", False)


def test_unify_dim_binds_symbols_and_rejects_literal_conflicts():
    bindings = {}
    dim, conflict = unify_dim("N", 3, bindings)
    assert (dim, conflict) == (3, None)
    assert bindings == {"N": 3}
    # The second use of N resolves to 3 and now conflicts with 5.
    dim, conflict = unify_dim("N", 5, bindings)
    assert dim == "?" and "3 and 5" in conflict.detail
    # Two distinct free symbols unify by aliasing, never by guessing.
    bindings = {}
    dim, conflict = unify_dim("H", "K", bindings)
    assert conflict is None
    assert resolve_dim("H", bindings) == resolve_dim("K", bindings)


def test_unify_dim_unknown_passes():
    assert unify_dim("?", 7, {}) == (7, None)
    assert unify_dim(7, "?", {}) == (7, None)
    assert unify_dim("*", 7, {}) == (7, None)


def test_broadcast_stretches_ones_without_binding():
    bindings = {}
    dims, conflict = broadcast_dims((1, "N"), (4, "N"), bindings)
    assert conflict is None and dims == (4, "N")
    assert "N" not in bindings  # 1 stretched; N never met a literal
    dims, conflict = broadcast_dims(("N",), (3,), bindings)
    assert conflict is None and dims == (3,)
    assert bindings["N"] == 3  # elementwise op *requires* N == 3
    _, conflict = broadcast_dims(("N",), (4,), bindings)
    assert conflict is not None and "3 vs 4" in conflict.detail


def test_broadcast_pads_missing_leading_dims():
    dims, conflict = broadcast_dims((3,), (2, 3), {})
    assert conflict is None and dims == (2, 3)


def test_format_dims_uses_contract_spelling():
    assert format_dims((3,)) == "(3,)"
    assert format_dims(("H", "N")) == "(H,N)"
    assert format_dims(()) == "()"


def test_arrayval_rank_and_scalar():
    assert ArrayVal(dims=("H", "N")).rank == 2
    assert scalar("float64").rank == 0
    assert scalar("float64").dtype == "float64"


# ---------------------------------------------------------------- summaries
def test_extract_summaries_reads_the_seam_contracts():
    mod = summarize(parsed(FIXTURES / "contracts_seam.py"))
    assert mod.module == "contracts_seam"
    by_qualname = {s.qualname: s for s in mod.contracts}
    assert set(by_qualname) == {"scale_rows", "weight_vector", "total_cost"}
    scale = by_qualname["scale_rows"]
    assert scale.args == ("matrix", "weights")
    assert dict(scale.params)["weights"] == "(N,)"
    assert scale.ret == "(H,N)"


# ---------------------------------------------------------------- rule table
SHAPE_RULE_CASES = [
    ("SW200", "sw200_bad.py", 3, "sw200_good.py"),
    ("SW201", "sw201_bad.py", 2, "sw201_good.py"),
    ("SW202", "sw202_bad.py", 3, "sw202_good.py"),
    ("SW203", "repro/solvers/sw203_bad.py", 1, "repro/solvers/sw203_good.py"),
    ("SW204", "repro/simulator/sw204_bad.py", 2, "repro/simulator/sw204_good.py"),
]


def test_every_shape_rule_has_a_case():
    assert {case[0] for case in SHAPE_RULE_CASES} == set(SHAPE_RULES)


@pytest.mark.parametrize(
    "rule,bad,count,good", SHAPE_RULE_CASES, ids=[c[0] for c in SHAPE_RULE_CASES]
)
def test_shape_rule_positive(rule, bad, count, good):
    findings = [f for f in analyze_one(bad) if f.rule == rule]
    assert len(findings) == count


@pytest.mark.parametrize(
    "rule,bad,count,good", SHAPE_RULE_CASES, ids=[c[0] for c in SHAPE_RULE_CASES]
)
def test_shape_rule_negative(rule, bad, count, good):
    assert [f for f in analyze_one(good) if f.rule == rule] == []


def test_whole_fixture_tree_totals():
    by_rule: dict[str, int] = {}
    for f in shape_findings():
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    assert by_rule == {
        "SW200": 3,
        "SW201": 2,
        "SW202": 3,
        "SW203": 1,
        "SW204": 2,
    }


# -------------------------------------------------------- contract matching
def test_sw200_crosses_the_module_seam():
    # The violations live in sw200_bad.py; the contracts live in
    # contracts_seam.py — the finding proves the interprocedural summary
    # table resolved `from contracts_seam import scale_rows`.
    findings = [f for f in analyze_one("sw200_bad.py") if f.rule == "SW200"]
    messages = "\n".join(f.message for f in findings)
    assert "scale_rows" in messages and "total_cost" in messages
    assert "rank 2 vs declared (N,)" in messages  # the wrong-rank case
    assert "dims 5 and 3" in messages  # the N-binding conflict
    assert "float32" in messages and "f8" in messages  # the dtype case


def test_sw200_needs_the_summary_table():
    # Without the seam module in the table the calls are unknown functions
    # and nothing may be reported: unknowns pass, only proofs report.
    assert analyze_one("sw200_bad.py", with_seam=False) == []


def test_clean_pipeline_through_contracts_is_silent():
    assert analyze_one("clean.py") == []
    assert analyze_one("sw200_good.py") == []


def test_violation_inside_pytest_raises_is_expected(tmp_path):
    # A deliberate contract violation under `with pytest.raises(...)` is
    # the test asserting the runtime checker fires — not a bug to report.
    src = (
        "import numpy as np\n"
        "import pytest\n"
        "from contracts_seam import scale_rows\n\n"
        "def test_rejects_bad_rank():\n"
        "    with pytest.raises(ValueError):\n"
        "        scale_rows(np.zeros((4, 3)), np.zeros((4, 3)))\n"
    )
    seam = FIXTURES / "contracts_seam.py"
    table = ContractTable([summarize(parsed(seam))])
    path = tmp_path / "test_mod.py"
    path.write_text(src)
    assert analyze_module(parsed(path), table) == []


# ---------------------------------------------------------------- hot scope
def test_sw203_sw204_only_fire_in_hot_modules(tmp_path):
    # The same loop shapes outside HOT_PREFIXES are style, not findings.
    assert any(p.startswith("repro.") for p in HOT_PREFIXES)
    loops = (
        "import numpy as np\n\n"
        "def f(n):\n"
        "    total = np.zeros(4)\n"
        "    for _ in range(n):\n"
        "        total = total + np.ones(4)\n"
        "    for v in total:\n"
        "        print(v)\n"
    )
    cold = tmp_path / "coldmod.py"
    cold.write_text(loops)
    assert analyze_module(parsed(cold), ContractTable([])) == []


# ------------------------------------------------------------- suppressions
def test_spotshape_line_suppression():
    suppressed = FIXTURES / "repro" / "simulator" / "suppress_line.py"
    # The interpreter proves the loop; the driver honours the comment.
    found = analyze_module(parsed(suppressed), ContractTable([]))
    assert [f.rule for f in found] == ["SW204"]
    assert shape_findings([suppressed]) == []


def test_unknown_suppression_rule_becomes_sw009(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("x = 1  # spotlint: disable=SW998\n")
    (finding,) = shape_findings([path])
    assert finding.rule == "SW009" and "SW998" in finding.message


def test_syntax_error_becomes_sw000(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def oops(:\n")
    (finding,) = shape_findings([path])
    assert finding.rule == "SW000"
    assert "SW000" in ENGINE_RULES and "SW009" in ENGINE_RULES


# ---------------------------------------------------------------------- CLI
def test_cli_exits_nonzero_with_findings(capsys):
    code = main([str(FIXTURES), "--select", "SW202"])
    out = capsys.readouterr().out
    assert code == 1
    assert "SW202" in out and "sw202_bad.py:" in out


def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    shutil.copy(FIXTURES / "contracts_seam.py", clean_dir)
    shutil.copy(FIXTURES / "clean.py", clean_dir)
    code = main([str(clean_dir), "--select", ",".join(SHAPE_SELECT)])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exclude_skips_the_bad_files(capsys):
    code = main(
        [
            str(FIXTURES),
            "--exclude", str(FIXTURES / "repro"),
            "--exclude", str(FIXTURES / "sw200_bad.py"),
            "--exclude", str(FIXTURES / "sw201_bad.py"),
            "--exclude", str(FIXTURES / "sw202_bad.py"),
            "--select", ",".join(SHAPE_SELECT),
        ]
    )
    capsys.readouterr()
    assert code == 0


def test_cli_rejects_unknown_rule_ids(capsys):
    code = main([str(FIXTURES), "--select", "SW999"])
    assert code == 2
    assert "SW999" in capsys.readouterr().err


def test_cli_json_format(capsys):
    code = main([str(FIXTURES), "--select", "SW204", "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"schema", "tool", "count", "findings"}
    assert payload["schema"] == "spotweb-findings/1"
    assert payload["tool"] == "spotlint"
    assert payload["count"] == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in SHAPE_RULES:
        assert rule_id in out
    assert "SW009" in out
