"""Every public `nn_core` function is reached from the rest of the
package: another `sidekit` module calls it, or an `nn_core` function or
class that is reached does. So `nn_core` holds only ops that some command
runs; an op that only the tests build belongs in `tests/oracles.py`.
Names are matched as written, so a local name that shadows a core
function, such as an op's own `backward` closure, counts as a use of it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sidekit"
CORE = "nn_core"


def core_references(tree):
    """The nn_core members a module names: attributes of the names it
    binds to the module, and the names it imports from it."""
    aliases, named = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module in (CORE, f"sidekit.{CORE}"):
            named.update(alias.name for alias in node.names)
        elif node.module in (None, "sidekit"):
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name == CORE)
    named.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in aliases)
    return named


def unreached(core_source, other_sources):
    """Public functions of `core_source` that no module of
    `other_sources` reaches, directly or through the core's own
    functions and classes."""
    defs = {node.name: node for node in ast.parse(core_source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo = [name for source in other_sources
            for name in core_references(ast.parse(source)) if name in defs]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(node.id for node in ast.walk(defs[name])
                        if isinstance(node, ast.Name) and node.id in defs)
    return sorted(name for name, node in defs.items()
                  if isinstance(node, ast.FunctionDef)
                  and not name.startswith("_") and name not in reached)


def test_detector_follows_calls_inside_the_core():
    core = ("def a():\n    return _b()\n"
            "def _b():\n    return c()\n"
            "def c():\n    pass\n"
            "def d():\n    return e()\n"
            "def e():\n    pass\n"
            "class S:\n    def m(self):\n        return f()\n"
            "def f():\n    pass\n"
            "def g():\n    pass\n")
    other = ("from . import nn_core as nn\nfrom .nn_core import S\n"
             "import numpy as np\nnn.a()\nnp.g()\n")
    # d is never reached, and e only through d; g is another module's
    assert unreached(core, [other]) == ["d", "e", "g"]


def test_every_public_nn_core_function_is_reached():
    others = [path.read_text() for path in sorted(SRC.glob("*.py"))
              if path.stem != CORE]
    assert unreached((SRC / f"{CORE}.py").read_text(), others) == []
