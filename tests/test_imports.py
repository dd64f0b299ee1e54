"""Every name that a module of the package imports is used in it, every
module-level private name is used somewhere in the package, every function
reads each of its parameters, the test oracles import nothing private from
the package, and importing the CLI loads neither ``dataclasses`` nor
``inspect``."""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import pytest

from conftest import REPO

PACKAGE = REPO / "src" / "sortweaver"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _imported(tree: ast.Module, is_init: bool) -> dict[str, int]:
    """Bound name -> line of each import, but for ``__future__`` imports and
    an ``__init__.py``'s relative imports, which re-export."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (is_init and node.level):
                continue
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, inside string annotations too, and those listed
    in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _used(ast.parse(part.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_module_has_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = _imported(tree, path.name == "__init__.py")
    used = _used(tree)
    unused = [f"line {line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from typing import Any, TYPE_CHECKING\n"
        "from .x import y\n"
        "def f(a: 'Any') -> None:\n"
        "    return os.sep\n"
    )
    tree = ast.parse(source)
    unused = sorted(set(_imported(tree, is_init=False)) - _used(tree))
    assert unused == ["TYPE_CHECKING", "y"]
    assert sorted(set(_imported(tree, is_init=True)) - _used(tree)) == ["TYPE_CHECKING"]


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level private functions, classes and constants -> their statement."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        defined.update((n, node) for n in names if n.startswith("_") and not n.startswith("__"))
    return defined


def _dead_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Private names that no module loads, as a name or an attribute, outside
    the statement that defines them."""
    loads: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, []).append(node)
    dead = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree).items():
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in loads.get(name, ())):
                dead.append(f"{module}: {name}")
    return dead


def test_every_private_name_is_used():
    trees = {str(p.relative_to(PACKAGE)): ast.parse(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert _dead_private_names(trees) == []


def test_the_check_finds_a_dead_private_name():
    source = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else _USED\n"
        "class _Helper:\n"
        "    pass\n"
        "def public(x):\n"
        "    return x._Helper\n"
    )
    other = "from .m import _USED as used\n_ALIAS = used\n"
    trees = {"m.py": ast.parse(source), "n.py": ast.parse(other)}
    assert _dead_private_names(trees) == ["m.py: _UNUSED", "m.py: _recursive", "n.py: _ALIAS"]


#: The shared signature of the ``cmd_*`` handlers, which ``main`` calls alike.
_HANDLER_PARAMS = ("args", "stdin", "stdout")


def _unread_parameters(tree: ast.Module) -> list[str]:
    """``line N: function(parameter)`` for each parameter that the body of its
    function or lambda never reads, in line order; a ``cmd_*`` handler's
    shared parameters are exempt."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {part.id for stmt in body for part in ast.walk(stmt)
                if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Load)}
        exempt = _HANDLER_PARAMS if name.startswith("cmd_") else ()
        unread += [(node.lineno, f"line {node.lineno}: {name}({param.arg})") for param in params
                   if param is not None and param.arg not in read and param.arg not in exempt]
    return [entry for _, entry in sorted(unread, key=lambda item: item[0])]


def test_every_parameter_is_read():
    found = [f"{path.relative_to(PACKAGE)}: {entry}" for path in MODULES
             for entry in _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_check_finds_an_unread_parameter():
    source = (
        "def f(a, b, *rest, c=1, **extra):\n"
        "    return a + c\n"
        "def g(x):\n"
        "    def inner(y):\n"
        "        return x\n"
        "    return inner\n"
        "class K:\n"
        "    def m(self, z):\n"
        "        return z\n"
        "key = lambda item, model: item\n"
        "def cmd_run(args, stdin, stdout):\n"
        "    pass\n"
        "def run(args, stdin, stdout):\n"
        "    return args, stdout\n"
    )
    assert _unread_parameters(ast.parse(source)) == [
        "line 1: f(b)", "line 1: f(rest)", "line 1: f(extra)", "line 4: inner(y)",
        "line 8: m(self)", "line 10: <lambda>(model)", "line 13: run(stdin)",
    ]


def _record_literals(tree: ast.Module) -> list[int]:
    """The line of each dict display with a ``"k"`` key, which is how a fact
    record starts."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Dict)
            and any(isinstance(key, ast.Constant) and key.value == "k" for key in node.keys)]


def test_only_the_model_writes_fact_records():
    """``model.records_of`` is the one writer of the fact format: a front end
    builds declarations."""
    found = [f"{path.relative_to(PACKAGE)}:{line}" for path in MODULES
             if path != PACKAGE / "model.py"
             for line in _record_literals(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_check_finds_a_record_literal():
    source = (
        'a = {"k": "type", "id": "T1"}\n'
        'b = {"kind": "this", "k2": 1}\n'
        'c = [{**a, "k": "call"}]\n'
        'd = dict(k="field")\n'
    )
    assert _record_literals(ast.parse(source)) == [1, 3]


def _private_imports(tree: ast.Module) -> list[str]:
    """``line N: dotted.name`` for each import from a ``sortweaver`` module
    of a name, or through a module, that starts with ``_``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module.split(".")
            imported = [(module + [alias.name], node.lineno) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported = [(alias.name.split("."), node.lineno) for alias in node.names]
        else:
            continue
        found += [f"line {line}: {'.'.join(parts)}" for parts, line in imported
                  if parts[0] == "sortweaver" and any(p.startswith("_") for p in parts)]
    return found


def test_the_oracles_import_nothing_private():
    """An oracle that calls the library's own helpers checks nothing about
    them."""
    tree = ast.parse((REPO / "tests" / "oracles.py").read_text(encoding="utf-8"))
    assert _private_imports(tree) == []


def test_the_check_finds_a_private_import():
    source = (
        "from sortweaver.model import SourceModel, _decode\n"
        "from sortweaver._util import natural_key\n"
        "import sortweaver._util, sortweaver.model\n"
        "from sortweavers import _other\n"
        "from os import _exit\n"
        "def f():\n"
        "    from sortweaver.queries import _maximal_chains\n"
    )
    assert _private_imports(ast.parse(source)) == [
        "line 1: sortweaver.model._decode", "line 2: sortweaver._util.natural_key",
        "line 3: sortweaver._util", "line 7: sortweaver.queries._maximal_chains",
    ]


def test_importing_the_cli_loads_no_dataclasses_and_no_inspect():
    """Every command pays for its import: ``dataclasses`` generates code for
    each class it decorates and pulls in ``inspect``, ``ast``, ``dis`` and
    ``tokenize``, which nothing else of the package loads."""
    script = ("import sys, sortweaver.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    assert child.stdout == "[]\n"
