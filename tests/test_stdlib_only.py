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


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def unread_private_definitions(paths):
    """(file, qualified name) of each private function, method or class
    that nothing in `paths` refers to outside its own body.  `self.name`
    refers only to methods of its own class, of the classes that class
    derives from and of those derived from it; any other attribute, a name
    or an import refers to every definition so named."""
    defs, uses, bases = [], [], {}   # uses: (name, class or None, path, line)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)

        def visit(node, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)) and _private(child.name):
                    defs.append((child.name, cls, path, child.lineno,
                                 child.end_lineno))
                if isinstance(child, ast.ClassDef):
                    bases[child.name] = {b.id for b in child.bases
                                         if isinstance(b, ast.Name)}
                elif isinstance(child, ast.Name):
                    uses.append((child.id, None, path, child.lineno))
                elif isinstance(child, ast.alias):
                    uses.append((child.asname or child.name, None, path,
                                 child.lineno))
                elif isinstance(child, ast.Attribute):
                    own = isinstance(child.value, ast.Name) \
                        and child.value.id == "self"
                    uses.append((child.attr, cls if own else None, path,
                                 child.lineno))
                visit(child, child.name if isinstance(child, ast.ClassDef)
                      else cls)

        visit(tree, None)

    def ancestors(cls):
        found, todo = set(), [cls]
        while todo:
            for base in bases.get(todo.pop(), ()):
                if base not in found:
                    found.add(base)
                    todo.append(base)
        return found

    def related(a, b):
        return a == b or a in ancestors(b) or b in ancestors(a)

    unread = []
    for name, cls, path, first, last in defs:
        if not any(used == name and (owner is None or related(owner, cls))
                   and not (where == path and first <= line <= last)
                   for used, owner, where, line in uses):
            unread.append((os.path.basename(path),
                           name if cls is None else f"{cls}.{name}"))
    return unread


def test_src_reads_every_private_definition():
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    assert unread_private_definitions(files) == []
