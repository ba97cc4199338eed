"""Every demo compiles, and every name it imports from policyspace exists.

A fast check that keeps the demos in step with the package without running
them (some train for a minute); CI runs the quick ones end to end.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_compiles_and_its_policyspace_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    compile(tree, str(path), "exec")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "policyspace":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name} is gone"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "policyspace":
                    importlib.import_module(alias.name)


def test_demos_are_found():
    assert DEMOS
