"""Public surface: every name in ``subsketch.__all__`` exists, once, is
read outside the tests, and every module uses what it imports."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import subsketch

MODULES = sorted(pathlib.Path(subsketch.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_star_import_and_unique_exports():
    namespace = {}
    exec("from subsketch import *", namespace)  # a stale name raises AttributeError
    assert len(subsketch.__all__) == len(set(subsketch.__all__))
    assert set(subsketch.__all__) <= set(namespace)


def _dotted(node):
    """"a.b.c" for a chain of attributes on a name, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(attrs)]) if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_imports(path):
    # no linter is pinned here: a name imported but never read, nor listed
    # in __all__, is dead; ``import a.b`` counts as read only through a.b
    tree = ast.parse(path.read_text())
    read = set()
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
        parts = chain.split(".") if chain else []
        read.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    dead = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name  # import a.b binds a, used as a.b
                if name not in read and name not in exported:
                    dead.append(f"line {node.lineno}: {name}")
    assert not dead, f"{path.name} imports names it never uses: {dead}"


def _reads(tree):
    """Names a module reads: loaded names, attributes, imported names and
    strings (the build registry names its builders), except where a
    top-level function or class reads its own name."""
    read = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            read.update(name for name in names if name != own)
    return read


def test_every_export_is_read_outside_the_tests():
    # a public name stays if the library, a demo or the README reads it;
    # one that only its own tests read goes
    sources = [p for p in MODULES if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    read = set().union(*(_reads(ast.parse(p.read_text())) for p in sources))
    readme = (ROOT / "README.md").read_text()
    unread = [name for name in subsketch.__all__
              if name not in read and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert not unread, f"public names read only by the tests: {unread}"


_IMPORT_SCRIPT = """
import importlib, json, sys
import numpy as np, scipy.linalg, scipy.sparse
import subsketch
for name in json.loads(sys.argv[1]):
    importlib.import_module("subsketch." + name)
assert "scipy.io" not in sys.modules, "importing subsketch loaded scipy.io"
from subsketch import load_matrix, save_matrix
dense = np.arange(6.0).reshape(3, 2)
sparse = scipy.sparse.random(30, 4, density=0.2, random_state=1, format="csr")
for M in (dense, sparse):
    save_matrix(sys.argv[2], M)
    back = load_matrix(sys.argv[2])
    assert scipy.sparse.issparse(back) == scipy.sparse.issparse(M)
    assert (back != M).nnz == 0 if scipy.sparse.issparse(M) else (back == M).all()
"""


def test_scipy_io_loads_only_with_matrix_market_io(tmp_path):
    # the benchmark worker imports these modules as its timed set-up, after
    # what its oracle preloads (numpy, json, scipy.linalg); scipy.io costs
    # ~12 ms there, so only load_matrix and save_matrix import it
    worker = ast.parse((ROOT / "bench" / "worker.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in worker.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "LAYER_MODULES")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_SCRIPT, json.dumps(layers), str(tmp_path / "M.mtx")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
