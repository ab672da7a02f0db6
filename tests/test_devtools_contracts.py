"""Tests for the contracts: runtime shape/sign checks, unit declarations,
freezing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devtools.contracts import (
    ContractError,
    field_units,
    freeze_arrays,
    nonneg,
    per_request_prices,
    set_contracts,
    shapes,
    units,
)


@pytest.fixture(autouse=True)
def _contracts_on():
    prev = set_contracts(True)
    yield
    set_contracts(prev)


# ------------------------------------------------------------------- shapes
def test_shapes_accepts_consistent_bindings():
    @shapes("(H,N)", "(N,)")
    def f(plan, prices):
        return plan @ prices

    plan = np.ones((4, 3))
    assert f(plan, np.ones(3)).shape == (4,)


def test_shapes_rejects_symbol_mismatch():
    @shapes("(H,N)", "(N,)")
    def f(plan, prices):
        return plan @ prices

    with pytest.raises(ContractError, match="prices"):
        f(np.ones((4, 3)), np.ones(5))


def test_shapes_rejects_wrong_ndim():
    @shapes("(N,)")
    def f(v):
        return v

    with pytest.raises(ContractError):
        f(np.ones((2, 2)))


def test_shapes_alternatives_allow_scalar_or_vector():
    @shapes("()|(H,)")
    def f(target):
        return target

    f(3.5)
    f(np.ones(4))
    with pytest.raises(ContractError):
        f(np.ones((2, 2)))


def test_shapes_fixed_and_wildcard_dims():
    @shapes("(2,*)")
    def f(pair):
        return pair

    f(np.ones((2, 7)))
    with pytest.raises(ContractError):
        f(np.ones((3, 7)))


def test_shapes_skips_none_values_and_star_specs():
    @shapes("(N,)", "*", extra="(N,)")
    def f(v, anything, extra=None):
        return v

    f(np.ones(3), {"not": "an array"})
    f(np.ones(3), 0, extra=np.ones(3))
    with pytest.raises(ContractError):
        f(np.ones(3), 0, extra=np.ones(4))


def test_shapes_checks_return_value():
    @shapes("(N,)", ret="(N,)")
    def good(v):
        return v * 2

    @shapes("(N,)", ret="(N,)")
    def bad(v):
        return np.outer(v, v)

    good(np.ones(3))
    with pytest.raises(ContractError, match="<return>"):
        bad(np.ones(3))


def test_shapes_is_a_noop_when_disabled():
    @shapes("(N,)")
    def f(v):
        return "ran"

    assert set_contracts(False) is True
    assert f(np.ones((2, 2))) == "ran"


def test_shapes_rejects_specs_for_unknown_params_at_decoration():
    with pytest.raises(ValueError, match="unknown"):

        @shapes(typo="(N,)")
        def f(v):
            return v


def test_shapes_methods_skip_self():
    class Hub:
        @shapes("(N,)")
        def ingest(self, prices):
            return prices.sum()

    assert Hub().ingest(np.ones(3)) == 3.0
    with pytest.raises(ContractError):
        Hub().ingest(np.ones((3, 1)))


def test_shapes_scalar_spec_accepts_0d_inputs():
    @shapes("()")
    def f(target):
        return target

    f(3.5)  # plain Python number
    f(np.float64(2.0))  # NumPy scalar
    f(np.array(1.25))  # genuine 0-d array
    with pytest.raises(ContractError):
        f(np.ones(1))  # (1,) is not ()


def test_shapes_dtype_suffix_enforced_exactly():
    @shapes("(N,) f8")
    def f(prices):
        return prices

    f(np.ones(3))
    with pytest.raises(ContractError, match="float64"):
        f(np.ones(3, dtype=np.float32))
    with pytest.raises(ContractError, match="f8"):
        f(np.arange(3))  # int64 is not "anything numeric"


def test_shapes_alternatives_may_differ_in_dtype():
    @shapes("(N,) f8|(N,) i8")
    def f(v):
        return v

    f(np.ones(3))
    f(np.arange(3))
    with pytest.raises(ContractError):
        f(np.ones(3, dtype=np.float32))


def test_shapes_binding_conflict_across_parameters():
    # N binds on the *first* parameter; every later use must agree even
    # when each shape is individually plausible.
    @shapes("(N,)", "(N,)", "(N,N)")
    def f(a, b, c):
        return a

    f(np.ones(3), np.ones(3), np.ones((3, 3)))
    with pytest.raises(ContractError, match="'b'"):
        f(np.ones(3), np.ones(4), np.ones((3, 3)))
    with pytest.raises(ContractError, match="'c'"):
        f(np.ones(3), np.ones(3), np.ones((3, 4)))


def test_shapes_rejects_bad_dtype_suffix_at_decoration():
    with pytest.raises(ValueError, match="f16"):

        @shapes("(N,) f16")
        def f(v):
            return v


def test_declared_contracts_roundtrip_to_static_summaries(tmp_path):
    # The same decorator text the runtime checker enforces must parse
    # into spotshape's interprocedural summary table unchanged.
    import ast

    from repro.devtools.rules import ModuleContext
    from repro.devtools.shape.analyze import summarize
    from repro.devtools.specs import format_spec, parse_spec

    source = (
        "from repro.devtools.contracts import shapes\n\n\n"
        '@shapes("(H,N)", "(N,) f8", ret="(H,)")\n'
        "def project(plan, prices):\n"
        "    return plan @ prices\n"
    )
    path = tmp_path / "mod.py"
    path.write_text(source)
    ctx = ModuleContext(path, "mod", ast.parse(source))
    (summary,) = summarize(ctx).contracts
    assert summary.args == ("plan", "prices")
    assert dict(summary.params) == {"plan": "(H,N)", "prices": "(N,) f8"}
    assert summary.ret == "(H,)"
    # Both consumers parse each spec to the identical canonical form.
    for spec in [*dict(summary.params).values(), summary.ret]:
        assert format_spec(parse_spec(spec)) == spec


def _run_child(code: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter, outside pytest; its stdout."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    # The child imports the same repro as this process.
    path = [str(Path(repro.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), **env)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return out.stdout.strip()


def test_importing_contracts_loads_no_analyzer():
    # Every simulation module imports the contracts; the lint rules and
    # the static analyzers load only when the driver runs.
    code = (
        "import sys\n"
        "import repro.devtools.contracts\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.devtools')))\n"
    )
    assert _run_child(code) == str(
        ["repro.devtools", "repro.devtools.contracts", "repro.devtools.specs"]
    )


def test_checks_start_off_outside_the_test_suite():
    # Only set_contracts switches the checks: a process outside pytest
    # runs them off, whatever its environment says.
    code = (
        "import numpy as np\n"
        "from repro.devtools.contracts import set_contracts, shapes\n"
        "f = shapes('(N,)')(lambda v: 'ran')\n"
        "print(f(np.ones((2, 2))), set_contracts(True))\n"
    )
    assert _run_child(code, SPOTWEB_CONTRACTS="1").split() == ["ran", "False"]


# ------------------------------------------------------------------- nonneg
def test_nonneg_arrays_scalars_and_mappings():
    @nonneg("fractions", "rate", "weights")
    def f(fractions, rate, weights):
        return True

    assert f(np.ones(3), 2.0, {"a": 0.5, "b": 0.0})
    with pytest.raises(ContractError, match="fractions"):
        f(np.array([0.2, -0.3]), 2.0, {})
    with pytest.raises(ContractError, match="rate"):
        f(np.ones(3), -1.0, {})
    with pytest.raises(ContractError, match="weights"):
        f(np.ones(3), 1.0, {"a": -0.5})


def test_nonneg_tolerates_solver_jitter_and_none():
    @nonneg("v")
    def f(v=None):
        return True

    assert f(np.array([0.0, -1e-12]))
    assert f(None)


# ----------------------------------------------------------------- freezing
def test_freeze_arrays_makes_fields_readonly():
    class Box:
        def __init__(self, data):
            self.data = data

    box = Box([1.0, 2.0])
    freeze_arrays(box, "data")
    assert isinstance(box.data, np.ndarray)
    with pytest.raises(ValueError):
        box.data[0] = 9.0


# ------------------------------------------------- the unit declarations
def test_units_methods_skip_self_and_keyword_specs_bind_by_name():
    class Biller:
        @units("hr", price="usd/(server*hr)")
        def bill(self, hours, price):
            return float(hours) * float(price)

    assert Biller().bill(2.0, 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="3 unit specs for 2 parameters"):

        class Overfull:
            @units("hr", "usd/(server*hr)", "s")
            def bill(self, hours, price):
                return hours

    with pytest.raises(ValueError, match="unknown parameters"):

        class Misnamed:
            @units("hr", prices="usd/(server*hr)")
            def bill(self, hours, price):
                return hours


def test_units_decoration_time_validation():
    with pytest.raises(ValueError):  # more specs than parameters

        @units("s", "s")
        def one(x):
            return x

    with pytest.raises(ValueError):  # unknown keyword parameter

        @units(nope="s")
        def two(x):
            return x

    with pytest.raises(ValueError):  # spec must parse in the shared grammar

        @units("furlongs")
        def three(x):
            return x

    with pytest.raises(ValueError):  # so must the return spec

        @units("s", ret="furlongs")
        def four(x):
            return x


def test_units_is_a_noop_when_disabled():
    # A declaration, not a check: the function itself comes back whether
    # the runtime checks are on or off, so its calls pay nothing.
    def rate(requests, window):
        return requests / window

    assert units("req", window="s", ret="req/s")(rate) is rate
    set_contracts(False)
    assert units("req", window="s", ret="req/s")(rate) is rate


def test_field_units_records_and_validates_declarations():
    import dataclasses

    @dataclasses.dataclass
    class Obs:
        rate: float
        width: float

    before = dict(vars(Obs))
    assert field_units(rate="req/s", width="s/interval")(Obs) is Obs
    assert dict(vars(Obs)) == before  # the source is the only record

    with pytest.raises(ValueError):  # a typo'd field fails at import time

        @field_units(rte="req/s")
        @dataclasses.dataclass
        class Typo:
            rate: float

    with pytest.raises(ValueError):  # an unparseable spec fails likewise

        @field_units(rate="furlongs")
        class Unparsed:
            pass


def test_unit_declarations_in_src_leave_their_objects_unchanged():
    # Walk spotunits' contract table for src/: every @units function is
    # the undecorated function once its runtime @shapes/@nonneg checks
    # are peeled off, and every @field_units class carries no table.
    import ast
    import importlib
    import inspect
    from pathlib import Path

    import repro
    from repro.devtools.rules import ModuleContext, module_name_for
    from repro.devtools.units.analyze import summarize

    def probe(v):
        return v

    runtime_checks = {shapes()(probe).__code__, nonneg()(probe).__code__}

    def resolve(module: str, qualname: str):
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = inspect.getattr_static(obj, part)
        return obj

    functions = classes = 0
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        module = module_name_for(path)
        ctx = ModuleContext(path, module, ast.parse(path.read_text()))
        declared = summarize(ctx)
        for contract in declared.contracts:
            fn = resolve(module, contract.qualname)
            if isinstance(fn, property):
                fn = fn.fget
            while fn.__code__ in runtime_checks:
                fn = fn.__wrapped__
            assert inspect.isfunction(fn), contract.function
            assert fn.__qualname__ == contract.qualname, contract.function
            assert not hasattr(fn, "__wrapped__"), contract.function
            functions += 1
        for table in declared.classes:
            cls = resolve(module, table.qualname)
            assert inspect.isclass(cls), table.cls
            assert not hasattr(cls, "__unit_fields__"), table.cls
            classes += 1
    assert functions and classes


def test_per_request_prices_conversion():
    prices = np.array([1.0, 2.0])
    caps = np.array([100.0, 400.0])
    np.testing.assert_allclose(per_request_prices(prices, caps), [0.01, 0.005])
    with pytest.raises(ContractError):
        per_request_prices(prices, np.array([100.0, 0.0]))
    with pytest.raises(ContractError):
        per_request_prices(np.array([-1.0, 2.0]), caps)
