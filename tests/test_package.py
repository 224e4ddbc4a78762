"""The package namespace: every public name is imported on first use."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import multimagic


@pytest.mark.parametrize("name", multimagic.__all__)
def test_public_name_is_its_defining_modules_object(name):
    obj = getattr(multimagic, name)
    assert obj.__module__.startswith("multimagic.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from multimagic import *", namespace)
    for name in multimagic.__all__:
        assert namespace[name] is getattr(multimagic, name)


def test_dir_lists_public_names_and_submodules():
    listed = dir(multimagic)
    assert set(multimagic.__all__) <= set(listed)
    assert {"cli", "construct", "io", "oa", "verify", "__version__"} <= set(listed)


def test_submodules_resolve_after_bare_import():
    code = ("import multimagic\n"
            "print(' '.join(m.__name__ for m in"
            " (multimagic.oa, multimagic.io, multimagic.cli)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["multimagic.oa", "multimagic.io", "multimagic.cli"]


def test_cli_import_loads_no_rational_arithmetic():
    # every command starts a fresh interpreter, which pays for each module
    # the command line imports; exact sums need only Python ints
    code = ("import sys, multimagic.cli\n"
            "print(' '.join(m for m in ('fractions', 'decimal') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        multimagic.no_such_name  # noqa: B018
    assert not hasattr(multimagic, "no_such_name")


def _library_names() -> list:
    """The names in backticks in README's Library section, outside fenced
    code; a call such as `verify_cms(stack, t)` gives the name called."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"^```.*?^```", "", section, flags=re.S | re.M)
    return re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", section)


def test_readme_library_names_resolve():
    # a bare name with an underscore or a capital letter is public, and
    # module.name is an attribute of the package module; other names,
    # such as square.rows, name a variable of the text
    modules = {path.stem for path in Path(multimagic.__file__).parent.glob("*.py")}
    names = _library_names()
    assert "build_ms_qt" in names and "io.write_ms" in names
    unresolved = []
    for name in names:
        head, *attrs = name.split(".")
        if not attrs:
            if (name != name.lower() or "_" in name) and name not in multimagic.__all__:
                unresolved.append(name)
        elif head in modules:
            obj = importlib.import_module(f"multimagic.{head}")
            for attr in attrs:
                obj = getattr(obj, attr, None)
            if obj is None:
                unresolved.append(name)
    assert not unresolved, unresolved


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _bound_names(stmt: ast.stmt) -> set:
    """The names a module-level statement defines: a function, a class,
    or the targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def test_modules_leave_nothing_unused():
    # every module-level private function, class or constant of the
    # package is read by some other module-level statement of the
    # package, as a name or an attribute: a helper that a change leaves
    # behind, referenced only by itself or by the tests, fails here
    defined, used = {}, set()
    for path in sorted(Path(multimagic.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = _bound_names(stmt)
            defined.update((name, path.name) for name in own if _private(name))
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))} - own
    unused = sorted(f"{where}: {name}" for name, where in defined.items() if name not in used)
    assert not unused, unused


def test_every_kernel_is_called():
    # every function that _codec declares is called as _lib.<name> by
    # some module of the package: a kernel that a change leaves behind,
    # declared and compiled but called by no module, fails here
    from multimagic import _codec

    declared = set(re.findall(r"(\w+)\(", _codec._DECLARATIONS))
    called = {node.func.attr
              for path in Path(multimagic.__file__).parent.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "_lib"}
    assert declared and declared <= called, sorted(declared - called)
