"""Tests for spotunits: the units domain, contract summaries, per-rule
fixtures (positive + negative), suppressions, the two-pass cache, the
baseline workflow, the CLI, and the real-tree gate."""

from __future__ import annotations

import json
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from repro.devtools.baseline import (
    fingerprint,
    load_baseline,
    make_baseline,
    split_findings,
    write_baseline,
)
from repro.devtools.specs import parse_unit
from repro.devtools.units.analyze import (
    ENGINE_RULES,
    UNIT_RULES,
    analyze_module,
    analyze_paths,
)
from repro.devtools.units.cli import BASELINE_SCHEMA, main
from repro.devtools.units.domain import (
    DIMENSIONLESS,
    classify_mismatch,
    describe,
    scale_ratio,
    unit_div,
    unit_mul,
    unit_pow,
)
from repro.devtools.units.summaries import (
    ClassUnits,
    UnitContract,
    UnitModuleSummaries,
    UnitTable,
    extract_unit_summaries,
    unit_summary_digest,
)

FIXTURES = Path(__file__).parent / "fixtures" / "units"
REPO = Path(__file__).resolve().parents[1]


def unit_findings(paths=None, select=None):
    findings = analyze_paths(paths if paths is not None else [FIXTURES])
    if select is not None:
        findings = [f for f in findings if f.rule in select]
    return findings


def analyze_one(name, *, with_seam=True):
    """Analyze a single fixture file against the seam's contract table."""
    mods = []
    if with_seam:
        seam = FIXTURES / "contracts_seam.py"
        mods.append(extract_unit_summaries(seam.read_text(), seam))
    path = FIXTURES / name
    mods.append(extract_unit_summaries(path.read_text(), path))
    return analyze_module(path.read_text(), path, UnitTable(mods))


# ------------------------------------------------------------------- domain
def test_unit_algebra_composes_exponents():
    assert unit_mul(parse_unit("req/s"), parse_unit("s")) == parse_unit("req")
    assert unit_div(parse_unit("usd"), parse_unit("hr")) == parse_unit("usd/hr")
    assert unit_div(parse_unit("s"), parse_unit("s")) == DIMENSIONLESS
    assert unit_pow(parse_unit("s"), Fraction(2)) == parse_unit("s^2")
    assert unit_pow(parse_unit("s^2"), Fraction(1, 2)) == parse_unit("s")
    assert unit_pow(parse_unit("hr"), Fraction(0)) == DIMENSIONLESS


def test_classify_mismatch_ladder():
    # Compatible: identical, or equivalent spellings.
    assert classify_mismatch(parse_unit("s"), parse_unit("s")) is None
    assert classify_mismatch(parse_unit("rps"), parse_unit("req/s")) is None
    # Same dimension at different scales: a missing conversion.
    assert classify_mismatch(parse_unit("s"), parse_unit("hr")) == "SW303"
    assert classify_mismatch(parse_unit("ms"), parse_unit("s")) == "SW303"
    # Interval counts meeting plain time: also a conversion problem.
    assert classify_mismatch(parse_unit("interval"), parse_unit("s")) == "SW303"
    assert (
        classify_mismatch(parse_unit("req/interval"), parse_unit("req/s"))
        == "SW303"
    )
    # Wall-clock vs simulated time: the DES's defining bug class.
    assert classify_mismatch(parse_unit("wall_s"), parse_unit("s")) == "SW302"
    # Genuinely different dimensions.
    assert classify_mismatch(parse_unit("req"), parse_unit("usd")) == "SW300"


def test_fraction_dimension_is_soft():
    assert classify_mismatch(parse_unit("frac"), parse_unit("1")) is None
    # ...but it still composes multiplicatively for documentation.
    assert unit_mul(parse_unit("frac"), parse_unit("s")) == parse_unit("frac*s")
    # And a frac meeting a hard dimension is still a real mismatch.
    assert classify_mismatch(parse_unit("frac"), parse_unit("server")) == "SW300"


def test_scale_ratio_renders_exact_fractions():
    assert scale_ratio(parse_unit("hr"), parse_unit("s")) == "3600x"
    assert scale_ratio(parse_unit("ms"), parse_unit("s")) == "1/1000x"
    assert scale_ratio(parse_unit("min"), parse_unit("hr")) == "1/60x"
    assert scale_ratio(parse_unit("s"), parse_unit("s")) == "1x"


def test_describe_uses_canonical_grammar_spelling():
    assert describe(parse_unit("usd/(server*hr)")) == "usd/hr/server"
    assert describe(DIMENSIONLESS) == "1"


# ---------------------------------------------------------------- summaries
def test_extract_unit_summaries_reads_the_seam_contracts():
    seam = FIXTURES / "contracts_seam.py"
    mod = extract_unit_summaries(seam.read_text(), seam)
    assert mod.module == "contracts_seam"
    by_qualname = {c.qualname: c for c in mod.contracts}
    assert set(by_qualname) == {"accrue_cost", "interval_width"}
    accrue = by_qualname["accrue_cost"]
    assert accrue.args == ("price", "servers", "hours")
    assert dict(accrue.params)["price"] == "usd/(server*hr)"
    assert accrue.ret == "usd"
    (tariff,) = mod.classes
    assert tariff.qualname == "Tariff"
    assert dict(tariff.fields)["penalty"] == "usd/(rps*hr)"


def test_summary_roundtrip_and_digest_stability():
    seam = FIXTURES / "contracts_seam.py"
    mod = extract_unit_summaries(seam.read_text(), seam)
    table = UnitTable([mod])
    digest = unit_summary_digest(table)
    assert digest == unit_summary_digest(UnitTable([mod]))
    for contract in mod.contracts:
        assert UnitContract.from_dict(contract.to_dict()) == contract
    for cls in mod.classes:
        assert ClassUnits.from_dict(cls.to_dict()) == cls
    assert UnitModuleSummaries.from_dict(mod.to_dict()) == mod


def test_digest_changes_when_a_contract_changes(tmp_path):
    seam = FIXTURES / "contracts_seam.py"
    original = seam.read_text()
    edited_path = tmp_path / "contracts_seam.py"
    edited_path.write_text(original.replace('ret="usd"', 'ret="usd/hr"'))
    d1 = unit_summary_digest(
        UnitTable([extract_unit_summaries(original, seam)])
    )
    d2 = unit_summary_digest(
        UnitTable(
            [extract_unit_summaries(edited_path.read_text(), edited_path)]
        )
    )
    assert d1 != d2


def test_table_resolves_reexport_chains():
    seam = FIXTURES / "contracts_seam.py"
    mod = extract_unit_summaries(seam.read_text(), seam)
    facade = UnitModuleSummaries(
        path="pkg/__init__.py",
        module="pkg",
        contracts=(),
        export_aliases={"accrue": "contracts_seam.accrue_cost"},
    )
    table = UnitTable([mod, facade])
    contract = table.lookup("pkg.accrue")
    assert contract is not None and contract.qualname == "accrue_cost"
    assert table.lookup("pkg.missing") is None


def test_field_unit_lookup():
    seam = FIXTURES / "contracts_seam.py"
    table = UnitTable([extract_unit_summaries(seam.read_text(), seam)])
    spec = table.field_unit("contracts_seam.Tariff", "penalty")
    assert spec == parse_unit("usd/(rps*hr)")
    assert table.field_unit("contracts_seam.Tariff", "nope") is None
    assert table.field_unit("contracts_seam.Missing", "penalty") is None


# ---------------------------------------------------------------- rule table
UNIT_RULE_CASES = [
    ("SW300", "sw300_bad.py", 3, "sw300_good.py"),
    ("SW301", "sw301_bad.py", 2, "sw301_good.py"),
    ("SW302", "sw302_bad.py", 2, "sw302_good.py"),
    ("SW303", "sw303_bad.py", 3, "sw303_good.py"),
    ("SW304", "sw304_bad.py", 3, "sw304_good.py"),
]


def test_every_unit_rule_has_a_case():
    assert {case[0] for case in UNIT_RULE_CASES} == set(UNIT_RULES)


@pytest.mark.parametrize(
    "rule,bad,count,good", UNIT_RULE_CASES, ids=[c[0] for c in UNIT_RULE_CASES]
)
def test_unit_rule_positive(rule, bad, count, good):
    findings = [f for f in analyze_one(bad) if f.rule == rule]
    assert len(findings) == count


@pytest.mark.parametrize(
    "rule,bad,count,good", UNIT_RULE_CASES, ids=[c[0] for c in UNIT_RULE_CASES]
)
def test_unit_rule_negative(rule, bad, count, good):
    assert [f for f in analyze_one(good) if f.rule == rule] == []


def test_whole_fixture_tree_totals():
    by_rule: dict[str, int] = {}
    for f in unit_findings():
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    assert by_rule == {
        "SW300": 3,
        "SW301": 2,
        "SW302": 2,
        "SW303": 3,
        "SW304": 3,
    }


# -------------------------------------------------------- contract matching
def test_sw301_reproduces_the_sla_cost_bug():
    # The fixture is the pre-fix body of CostModel.sla_cost: the finding
    # that led to the interval_hours fix in repro.core.costs.
    findings = [f for f in analyze_one("sw301_bad.py") if f.rule == "SW301"]
    messages = "\n".join(f.message for f in findings)
    assert "returns `usd/hr` but declares ret unit `usd`" in messages
    assert "passes `price` as `hr`" in messages  # the cross-seam call


def test_sw301_call_check_needs_the_summary_table():
    # Without the seam in the table the accrue_cost call is an unknown
    # function — unknowns pass, only proofs report.  The method's own
    # contract still lives in its own module, so that finding stays.
    findings = analyze_one("sw301_bad.py", with_seam=False)
    assert [f.rule for f in findings] == ["SW301"]
    assert "sla_cost" in findings[0].message


def test_clean_pipeline_through_contracts_is_silent():
    assert analyze_one("clean.py") == []
    assert analyze_one("contracts_seam.py") == []


def test_sw302_names_the_boundary():
    findings = [f for f in analyze_one("sw302_bad.py") if f.rule == "SW302"]
    assert all("sim/wall boundary" in f.message for f in findings)


def test_sw303_reports_the_exact_scale_factor():
    messages = [f.message for f in analyze_one("sw303_bad.py")]
    assert any("1/3600x" in m for m in messages)  # s vs hr
    assert any("1/1000x" in m for m in messages)  # ms vs s


def test_sw304_names_the_replacement_constant():
    messages = [f.message for f in analyze_one("sw304_bad.py")]
    assert any("repro.units.SECONDS_PER_HOUR" in m for m in messages)
    assert any("repro.units.MS_PER_SECOND" in m for m in messages)
    # The hint is dimension-aware: 1000 on a req count is a kreq
    # conversion, not ms<->s.
    assert any("repro.units.REQUESTS_PER_KREQ" in m for m in messages)


def test_violation_inside_pytest_raises_is_expected(tmp_path):
    # A deliberate contract violation under `with pytest.raises(...)` is
    # the test asserting the runtime checker fires — not a bug to report.
    # SW304 is exempt from the exemption: a bare conversion literal is
    # wrong even in a test that expects an error.
    src = (
        "import pytest\n"
        "from contracts_seam import accrue_cost\n"
        "from repro.devtools.contracts import units\n\n\n"
        '@units("hr")\n'
        "def test_rejects_bad_price(hours):\n"
        "    with pytest.raises(Exception):\n"
        "        accrue_cost(hours, 1.0, hours)\n"
        "        elapsed = hours * 3600\n"
    )
    seam = FIXTURES / "contracts_seam.py"
    path = tmp_path / "test_mod.py"
    path.write_text(src)
    table = UnitTable(
        [
            extract_unit_summaries(seam.read_text(), seam),
            extract_unit_summaries(src, path),
        ]
    )
    findings = analyze_module(src, path, table)
    assert [f.rule for f in findings] == ["SW304"]


# ------------------------------------------------------------- suppressions
def test_spotunits_line_suppression():
    assert analyze_one("suppress_line.py", with_seam=False) == []


def test_unknown_suppression_rule_becomes_sw009(tmp_path):
    path = tmp_path / "m.py"
    src = "x = 1  # spotunits: disable=SW998\n"
    path.write_text(src)
    (finding,) = analyze_module(src, path, UnitTable([]))
    assert finding.rule == "SW009" and "SW998" in finding.message


def test_syntax_error_becomes_sw000(tmp_path):
    path = tmp_path / "broken.py"
    src = "def oops(:\n"
    path.write_text(src)
    (finding,) = analyze_module(src, path, UnitTable([]))
    assert finding.rule == "SW000"
    assert "SW000" in ENGINE_RULES and "SW009" in ENGINE_RULES


# ------------------------------------------------------------------ caching
def _copy_tree(tmp_path):
    dest = tmp_path / "units"
    shutil.copytree(FIXTURES, dest)
    return dest


def test_cache_roundtrip_and_file_invalidation(tmp_path):
    dest = _copy_tree(tmp_path)
    cache = tmp_path / "cache.json"

    stats: dict = {}
    first = analyze_paths([dest], cache_path=cache, stats=stats)
    n_files = stats["analyzed"]
    assert n_files > 0 and stats["cached"] == 0

    stats = {}
    second = analyze_paths([dest], cache_path=cache, stats=stats)
    assert stats == {"cached": n_files, "analyzed": 0}
    assert [(f.rule, f.line, f.message) for f in second] == [
        (f.rule, f.line, f.message) for f in first
    ]

    # Touching one non-contract file re-analyzes exactly that file.
    target = dest / "sw304_bad.py"
    target.write_text(target.read_text() + "\n# touched\n")
    stats = {}
    analyze_paths([dest], cache_path=cache, stats=stats)
    assert stats == {"cached": n_files - 1, "analyzed": 1}


def test_contract_edit_invalidates_every_dependent(tmp_path):
    # Pass B is keyed by the *global* unit-fact digest: changing a
    # contract in one file must re-analyze all files, not just one.
    dest = _copy_tree(tmp_path)
    cache = tmp_path / "cache.json"
    stats: dict = {}
    analyze_paths([dest], cache_path=cache, stats=stats)
    n_files = stats["analyzed"]

    seam = dest / "contracts_seam.py"
    seam.write_text(
        seam.read_text().replace(
            '@units("usd/(server*hr)", "server", "hr", ret="usd")',
            '@units("usd/(server*hr)", "server", "hr", ret="usd/hr")',
        )
    )
    stats = {}
    findings = analyze_paths([dest], cache_path=cache, stats=stats)
    assert stats == {"cached": 0, "analyzed": n_files}
    # The flipped return contract now breaks clean.py's `monthly`, which
    # still declares ret="usd" while accrue_cost hands back usd/hr.
    messages = [f.message for f in findings if f.rule == "SW301"]
    assert any("monthly" in m for m in messages)


def test_cache_schema_mismatch_forces_reanalysis(tmp_path):
    dest = _copy_tree(tmp_path)
    cache = tmp_path / "cache.json"
    stats: dict = {}
    analyze_paths([dest], cache_path=cache, stats=stats)
    n_files = stats["analyzed"]
    cache.write_text(json.dumps({"schema": "something/9", "files": {}}))
    stats = {}
    analyze_paths([dest], cache_path=cache, stats=stats)
    assert stats == {"cached": 0, "analyzed": n_files}


# ----------------------------------------------------------------- baseline
def test_baseline_roundtrip_accepts_everything(tmp_path):
    findings = unit_findings()
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, findings, schema=BASELINE_SCHEMA)
    accepted = load_baseline(baseline_file, schema=BASELINE_SCHEMA)
    new, baselined = split_findings(findings, accepted)
    assert new == [] and len(baselined) == len(findings)


def test_fingerprint_is_line_independent():
    finding = unit_findings(select={"SW303"})[0]
    moved = type(finding)(
        finding.rule, finding.path, finding.line + 40, finding.col,
        finding.message,
    )
    assert fingerprint(moved) == fingerprint(finding)


def test_bound_baseline_schema_rejects_other_tools(tmp_path):
    # make_baseline binds the schema tag once so the spotunits CLI cannot
    # accidentally read spotshape's baseline file.
    bound = make_baseline(BASELINE_SCHEMA)
    other = tmp_path / "b.json"
    other.write_text(
        json.dumps({"schema": "spotshape-baseline/1", "findings": []})
    )
    with pytest.raises(ValueError):
        bound.load(other)
    bound.write(tmp_path / "ok.json", unit_findings(select={"SW300"}))
    assert len(bound.load(tmp_path / "ok.json")) == 3
    assert bound.load(tmp_path / "missing.json") == set()


# ---------------------------------------------------------------------- CLI
def _cli(tmp_path, *argv):
    baseline = tmp_path / "empty-baseline.json"
    return main([*argv, "--no-cache", "--baseline", str(baseline)])


def test_cli_exits_nonzero_with_findings(tmp_path, capsys):
    code = _cli(tmp_path, str(FIXTURES), "--select", "SW303")
    out = capsys.readouterr().out
    assert code == 1
    assert "SW303" in out and "sw303_bad.py:" in out


def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    shutil.copy(FIXTURES / "contracts_seam.py", clean_dir)
    shutil.copy(FIXTURES / "clean.py", clean_dir)
    code = _cli(tmp_path, str(clean_dir))
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exclude_skips_the_bad_files(tmp_path, capsys):
    code = _cli(
        tmp_path,
        str(FIXTURES),
        *[
            arg
            for rule, bad, _, _ in UNIT_RULE_CASES
            for arg in ("--exclude", str(FIXTURES / bad))
        ],
    )
    capsys.readouterr()
    assert code == 0


def test_cli_rejects_unknown_rule_ids(tmp_path, capsys):
    code = _cli(tmp_path, str(FIXTURES), "--select", "SW999")
    assert code == 2
    assert "SW999" in capsys.readouterr().err


def test_cli_json_format(tmp_path, capsys):
    code = _cli(tmp_path, str(FIXTURES), "--select", "SW302", "--format", "json")
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "spotweb-findings/1"
    assert payload["tool"] == "spotunits"
    assert payload["count"] == 2
    assert payload["baselined"] == 0
    assert set(payload["cache"]) == {"cached", "analyzed"}


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    tree = str(FIXTURES)
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
    for flag in ("--select", "--ignore"):
        code = _cli(tmp_path, str(FIXTURES), flag, "SW303", "--update-baseline")
        assert code == 2
        assert "--update-baseline" in capsys.readouterr().err


def test_cli_unreadable_baseline_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "corrupt.json"
    bad.write_text("{not json")
    code = main([str(FIXTURES / "clean.py"), "--no-cache",
                 "--baseline", str(bad)])
    assert code == 2
    assert "baseline" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in UNIT_RULES:
        assert rule_id in out
    assert "SW009" in out


# ----------------------------------------------------------- the real tree
def test_real_tree_is_clean_against_committed_baseline(monkeypatch):
    # The acceptance gate: spotunits over the actual repo (src + tests,
    # fixtures excluded) reports nothing beyond a committed, justified
    # baseline — which currently does not exist, because the tree is
    # fully clean.  Baseline fingerprints hash repo-relative paths, so
    # run from the repo root exactly as CI does.
    monkeypatch.chdir(REPO)
    findings = analyze_paths(["src", "tests"], exclude=["tests/fixtures"])
    accepted = load_baseline("spotunits-baseline.json", schema=BASELINE_SCHEMA)
    new, _ = split_findings(findings, accepted)
    report = "\n".join(f.format() for f in new)
    assert not new, f"spotunits found new violations:\n{report}"
