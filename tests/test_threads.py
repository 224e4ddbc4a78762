"""Threads of a command-line process: the worker pool is its only
parallelism, because cli.py limits OpenBLAS to one thread before numpy
loads, and a bare ``import multimagic`` loads neither numpy nor a thread.

Each case runs in a fresh interpreter whose environment has no
OPENBLAS_NUM_THREADS (unless the case presets one), so neither this
process's numpy nor its environment decides the outcome.  The child
prints one JSON report as its last line of stdout.
"""

import json
import os
import subprocess
import sys

import pytest

HAS_TASKS = os.path.isdir("/proc/self/task")
needs_tasks = pytest.mark.skipif(not HAS_TASKS, reason="no /proc/self/task")

# Appended to every child's code: what it has loaded and started.
REPORT = """
import json as _json, os as _os, sys as _sys, threading as _threading
_task_dir = "/proc/self/task"
print(_json.dumps({
    "numpy": "numpy" in _sys.modules,
    "blas": _os.environ.get("OPENBLAS_NUM_THREADS"),
    "tasks": len(_os.listdir(_task_dir)) if _os.path.isdir(_task_dir) else None,
    "python_threads": _threading.active_count(),
}))
"""


def run_child(code: str, blas: str | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    proc = subprocess.run([sys.executable, "-c", code + REPORT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@needs_tasks
def test_bare_import_loads_no_numpy_and_starts_no_thread():
    report = run_child("import multimagic")
    assert report["numpy"] is False
    assert report["tasks"] == 1
    assert report["blas"] is None  # the package itself leaves BLAS alone


@needs_tasks
def test_cli_import_pins_openblas_to_one_thread():
    report = run_child("from multimagic.cli import main")
    assert report["numpy"] is True
    assert report["blas"] == "1"
    assert report["tasks"] == 1


def test_preset_thread_count_is_left_unchanged():
    report = run_child("from multimagic.cli import main", blas="3")
    assert report["blas"] == "3"


@needs_tasks
def test_gen_ms_runs_only_the_worker_pool(tmp_path):
    out = tmp_path / "ms25.mms"
    code = ("from multimagic.cli import main\n"
            f"assert main(['gen-ms', '--q', '5', '--t', '2', '--method', 'qt',"
            f" '--threads', '2', '--out', {str(out)!r}]) == 0\n")
    report = run_child(code)
    assert out.exists()
    assert report["blas"] == "1"
    assert report["tasks"] <= 1 + 2  # the main thread and two workers
    # and no thread that Python did not start
    assert report["tasks"] == report["python_threads"]


@needs_tasks
def test_python_dash_m_pins_openblas():
    code = ("import runpy, sys\n"
            "sys.argv = ['multimagic', 'plan', '--q', '7', '--t', '3', '--m', '8']\n"
            "try:\n"
            "    runpy.run_module('multimagic', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n")
    report = run_child(code)
    assert report["numpy"] is True
    assert report["blas"] == "1"
    assert report["tasks"] == 1
