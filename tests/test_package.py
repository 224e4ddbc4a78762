"""The package namespace: every public name is imported on first use."""

import importlib
import os
import subprocess
import sys

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


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        multimagic.no_such_name  # noqa: B018
    assert not hasattr(multimagic, "no_such_name")
