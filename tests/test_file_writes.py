"""Only `corpus_io` writes files: no other `sidekit` module opens a file
for writing, saves through numpy or renames a file, so every file goes
through its one atomic writer."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sidekit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "corpus_io.py")
NUMPY_WRITES = {"save", "savez", "savez_compressed", "savetxt"}
OS_WRITES = {"replace", "rename"}


def _writes_mode(node):
    """Whether a call's arguments hold an open mode that writes."""
    values = [*node.args[1:], *(k.value for k in node.keywords
                                if k.arg == "mode")]
    if isinstance(node.func, ast.Attribute):  # Path.open("w"), zf.open(n, "w")
        values += node.args[:1]
    return any(isinstance(v, ast.Constant) and isinstance(v.value, str)
               and set(v.value) <= set("rwaxbt+") and set(v.value) & set("wax+")
               for v in values)


def file_writes(source):
    """(line, call) of every call in `source` that writes a file."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        owner = getattr(func, "value", None)
        owner = owner.id if isinstance(owner, ast.Name) else None
        if ((name == "open" and _writes_mode(node))
                or (owner in ("np", "numpy") and name in NUMPY_WRITES)
                or (owner == "os" and name in OS_WRITES)
                or (isinstance(func, ast.Attribute) and name == "tofile")):
            found.append((node.lineno, ast.unparse(func)))
    return found


def test_detector_flags_only_writes():
    source = ("open(p)\nopen(p, 'rb')\nopen(p, 'w', newline='')\n"
              "open(p, mode='ab')\nopen(p, 'r+b')\nio.open(p, 'x')\n"
              "path.open('wb')\nzf.open(name, 'w')\nzf.open('w.npy')\n"
              "np.load(p)\nnp.savez(p, a=a)\nnumpy.savetxt(p, a)\n"
              "a.tofile(fh)\nos.replace(a, b)\nos.remove(a)\nfh.write(b)\n")
    assert file_writes(source) == [
        (3, "open"), (4, "open"), (5, "open"), (6, "io.open"),
        (7, "path.open"), (8, "zf.open"), (11, "np.savez"),
        (12, "numpy.savetxt"), (13, "a.tofile"), (14, "os.replace")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_corpus_io_writes_files(path):
    assert file_writes(path.read_text()) == []
