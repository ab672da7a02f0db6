"""How a function body is interpreted: the skeleton shape and units share.

Both interpreters run one forward abstract-interpretation pass over each
function body: the function's own declared contract seeds the
environment, every statement executes once, front to back (both arms of
an ``if``, each loop body once), and everything unmodeled evaluates to
``None`` — "no information" — so only **proven** inconsistencies report.

:class:`FunctionInterpreter` owns everything but the abstract domain:
the statement walk, the ``with pytest.raises(...)`` exemption, name
resolution, reporting, binding a call's arguments to the callee's
contract, and the walk over a module's functions.  A subclass supplies
``eval`` and its transfer functions, ``assign``, ``binop``, the loop
element, the return check and the messages.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.devtools.rules import Finding, ModuleContext
from repro.devtools.summaries import Contract, ContractTable

__all__ = ["FunctionInterpreter"]


class FunctionInterpreter:
    """One forward abstract-interpretation pass over a function body.

    A subclass supplies the domain: ``eval(node)`` (the abstract value of
    an expression, ``None`` when unknown), ``assign(target, val,
    value_node)``, ``binop(left, right, op, node)``, ``loop_element(stmt,
    iterated)``, ``check_return(stmt, val)`` and the four call transfer
    functions ``numpy_call(name, node)``, ``contract_call(contract,
    node)``, ``builtin_call(name, node)`` and ``method_call(func, node)``.
    """

    #: rules that a ``with pytest.raises(...)`` block expects: inside one,
    #: a proven violation is the test's point, not a finding.
    EXPECTED_RULES: frozenset[str] = frozenset()

    def __init__(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        class_name: str | None,
        locals_: set[str],
        ctx: ModuleContext,
        table: ContractTable,
    ) -> None:
        self.fn = fn
        self.qualname = qualname
        self.class_name = class_name
        self.locals_ = locals_
        self.names = ctx.names
        self.path = str(ctx.path)
        self.module = ctx.module
        self.table = table
        self.findings: list[Finding] = []
        self.env: dict = {}
        self.loop_depth = 0
        self.expect_error = 0
        self.own_contract = (
            table.lookup(f"{self.module}.{qualname}") if self.module else None
        )

    @classmethod
    def check_module(cls, ctx: ModuleContext, table: ContractTable) -> list[Finding]:
        """Pass B for one parsed module: every function against the table."""
        findings: list[Finding] = []
        for fn, qualname, class_name, locals_ in ctx.names.functions:
            findings.extend(cls(fn, qualname, class_name, locals_, ctx, table).run())
        return findings

    # ------------------------------------------------------------ plumbing
    def report(self, rule: str, node: ast.AST, message: str) -> None:
        if self.expect_error > 0 and rule in self.EXPECTED_RULES:
            return
        self.findings.append(
            Finding(
                rule,
                self.path,
                getattr(node, "lineno", self.fn.lineno),
                getattr(node, "col_offset", 0),
                message,
            )
        )

    def resolve(self, expr: ast.expr) -> str | None:
        return self.names.resolve(expr, self.locals_, self.class_name)

    def bind_arguments(
        self, contract: Contract, node: ast.Call
    ) -> list[tuple[str, ast.expr]] | None:
        """``(parameter, argument)`` pairs of a call to ``contract``'s
        function; ``None`` when ``*args``/``**kwargs`` hide the mapping."""
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        ):
            return None
        bound = list(zip(contract.args, node.args))
        bound.extend((kw.arg, kw.value) for kw in node.keywords)
        return bound

    def eval_call(self, node: ast.Call):
        """The value of a call: to NumPy, to a function with a contract, to
        another resolved target, to a builtin, or to a method."""
        func = node.func
        resolved = self.resolve(func)
        if resolved is not None:
            if resolved.startswith("numpy."):
                return self.numpy_call(resolved[len("numpy."):], node)
            contract = self.table.lookup(resolved)
            if contract is not None:
                return self.contract_call(contract, node)
            return self.external_call(resolved, node)
        if isinstance(func, ast.Name) and func.id not in self.locals_:
            return self.builtin_call(func.id, node)
        if isinstance(func, ast.Attribute):
            return self.method_call(func, node)
        for arg in node.args:
            self.eval(arg)
        return None

    def external_call(self, resolved: str, node: ast.Call):
        """A resolved call without a contract: its value is unknown."""
        self.eval_arguments(node)
        return None

    def eval_arguments(self, node: ast.Call) -> None:
        """Evaluate every argument for its findings; the values are unused."""
        for arg in node.args:
            self.eval(arg)
        for kw in node.keywords:
            self.eval(kw.value)

    # ----------------------------------------------------------- statements
    def run(self) -> list[Finding]:
        self.exec_body(self.fn.body)
        return self.findings

    def exec_body(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            val = self.eval(stmt.value)
            for target in stmt.targets:
                self.assign(target, val, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            val = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                left = self.env.get(stmt.target.id)
                result = self.binop(left, val, stmt.op, stmt)
                self.assign(stmt.target, result, stmt.value)
            elif isinstance(stmt.target, ast.Attribute):
                self.binop(self.eval(stmt.target), val, stmt.op, stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            val = self.eval(stmt.iter)
            self.assign(stmt.target, self.loop_element(stmt, val), stmt.iter)
            self.exec_loop(stmt)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self.exec_loop(stmt)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            expects = any(
                isinstance(item.context_expr, ast.Call)
                and self.resolve(item.context_expr.func) == "pytest.raises"
                for item in stmt.items
            )
            self.expect_error += 1 if expects else 0
            self.exec_body(stmt.body)
            self.expect_error -= 1 if expects else 0
        elif isinstance(stmt, ast.Try):
            self.exec_body(stmt.body)
            for handler in stmt.handlers:
                self.exec_body(handler.body)
            self.exec_body(stmt.orelse)
            self.exec_body(stmt.finalbody)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                val = self.eval(stmt.value)
                ret = self.own_contract.ret if self.own_contract else None
                if val is not None and ret is not None:
                    self.check_return(stmt, val)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        # Nested defs/classes are analyzed as their own scopes elsewhere.

    def exec_loop(self, stmt: ast.For | ast.AsyncFor | ast.While) -> None:
        self.loop_depth += 1
        self.exec_body(stmt.body)
        self.loop_depth -= 1
        self.exec_body(stmt.orelse)
