"""The package stays stdlib-only: every absolute import under src/spon names
a standard-library module or spon itself.  Every name a module imports at
its top level is also used in that module."""

import ast
import glob
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "spon")


def absolute_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"spon"}
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    foreign = [(os.path.basename(path), name) for path in files
               for name in absolute_imports(path)
               if name.split(".")[0] not in allowed]
    assert foreign == []


def unused_imports(path):
    """Names bound by the module's top-level imports, `__future__` aside,
    that no expression of the module reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_src_uses_every_name_it_imports():
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    unused = [(os.path.basename(path), name) for path in files
              for name in unused_imports(path)]
    assert unused == []
