"""Every example script imports against the current library API.

No other test runs the scripts under ``examples/``.  Importing each one by
path resolves every name it takes from ``repro``, so an API change that
breaks an example fails here.  Their ``__main__`` guards keep them from
running.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path, monkeypatch):
    name = f"example_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_examples_are_found():
    # An empty glob would leave the parametrized test with no cases,
    # which pytest skips rather than fails.
    assert len(EXAMPLES) >= 9
