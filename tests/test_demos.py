"""The demos import only names the package exports.

pytest does not run the demo scripts, so a deleted public name would
otherwise break them unnoticed.
"""

import ast
from pathlib import Path

import pytest

import qkdtx

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "qkdtx"
             for alias in node.names]
    missing = [n for n in names if not hasattr(qkdtx, n)]
    assert not missing, f"{path.name} imports missing names: {missing}"
