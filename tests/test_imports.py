"""Every name a `sidekit` module imports is used in that module, and
importing the CLI loads no process-pool machinery.

`__init__.py` is exempt: its imports are the package's public surface.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sidekit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom a import b, c as d\n"
              "np.zeros(d)\n")
    assert unused_imports(source) == [(2, "os"), (4, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_importing_the_cli_loads_no_process_pool():
    # only `rank-ab` starts worker processes or resolves futures; every
    # other command would pay ~5-20 ms at start-up for these imports
    code = ("import sys, sidekit.cli; print(sorted({'multiprocessing', "
            "'concurrent.futures', 'concurrent.futures.process', "
            "'logging'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out == "[]\n"
