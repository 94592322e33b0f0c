"""The demos import only names the package exports, and run to completion.

Each demo runs in a subprocess with ``src`` on ``PYTHONPATH`` and its working
directory in a temporary folder, where any figure it writes lands.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qkdtx

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "qkdtx"
             for alias in node.names]
    missing = [n for n in names if not hasattr(qkdtx, n)]
    assert not missing, f"{path.name} imports missing names: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    path_entries = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
    done = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
