"""Guard: every module under ``src/repro`` has a reader outside tests.

A module that only tests import is code no run, CLI command, example or
benchmark uses.  The scan parses ``src/repro``, ``examples/`` and
``perfbench/`` with ``ast`` and follows every import, including the ones
inside functions.  A relative import is resolved against its package,
and a name imported from a package is followed through the package's
``__init__`` re-exports to the module that defines it.  A package's own
``__init__`` importing one of its submodules is a re-export, not a
reader.  A package ``__init__`` that defines no function or class has
nothing of its own to read, and ``__main__`` runs under ``python -m``, so
neither needs a reader.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
READER_DIRS = ("examples", "perfbench")


def _module_name(path):
    """``repro.x.y`` for ``src/repro/x/y.py``, ``repro.x`` for its
    package's ``__init__.py``."""
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _src_modules():
    """name -> (parsed module, is a package) for every module in src."""
    return {
        _module_name(path): (ast.parse(path.read_text()),
                             path.name == "__init__.py")
        for path in sorted((SRC / "repro").rglob("*.py"))
    }


def _base(node, importer, is_package):
    """The absolute module an ``ImportFrom`` names."""
    if not node.level:
        return node.module
    package = importer if is_package else importer.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _defining_module(modules, module, name, seen=()):
    """The module that defines ``name`` as imported from ``module``: a
    submodule of that name, else the module a package's ``__init__``
    re-exports it from, else ``module`` itself."""
    if f"{module}.{name}" in modules:
        return f"{module}.{name}"
    tree, is_package = modules.get(module, (None, False))
    if not is_package or (module, name) in seen:
        return module
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _defining_module(
                        modules, _base(node, module, True), alias.name,
                        seen + ((module, name),))
    return module


def _imported_modules(modules, tree, importer="", is_package=False):
    """Every src module that ``tree`` reads."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _base(node, importer, is_package)
            for alias in node.names:
                found.add(base if alias.name == "*" else
                          _defining_module(modules, base, alias.name))
    return found & modules.keys()


def _readers(modules):
    """module -> the modules and files outside tests that import it."""
    readers = {name: set() for name in modules}
    for importer, (tree, is_package) in modules.items():
        for target in _imported_modules(modules, tree, importer,
                                        is_package):
            own_reexport = is_package and target.startswith(importer + ".")
            if target != importer and not own_reexport:
                readers[target].add(importer)
    for directory in READER_DIRS:
        for path in sorted((ROOT / directory).glob("*.py")):
            for target in _imported_modules(modules,
                                            ast.parse(path.read_text())):
                readers[target].add(f"{directory}/{path.name}")
    return readers


def _needs_reader(name, tree, is_package):
    if name.rpartition(".")[2] == "__main__":
        return False
    return not is_package or any(
        isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for node in tree.body)


def test_every_src_module_has_a_reader_outside_tests():
    modules = _src_modules()
    readers = _readers(modules)
    unread = sorted(
        name for name, (tree, is_package) in modules.items()
        if _needs_reader(name, tree, is_package) and not readers[name])
    assert not unread, (
        f"only tests import {unread}: delete them, or give them a run, "
        f"CLI command, example or benchmark that reads them")
