"""Start-up: the package loads numpy with one OpenBLAS thread and leaves
os.environ as it found it.  Each test runs `import cnfetcache` in a child
interpreter with an environment built here."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

STATUS = Path("/proc/self/status")
# Every variable OpenBLAS reads for its thread count, highest priority first.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")

# Prints the child's thread count after `import cnfetcache`, whether
# os.environ is what it was before that import, the OpenBLAS variable, and
# whether the import wrote or removed it (os.environ calls os.putenv and
# os.unsetenv).
CHILD = """
import json, os
{first}
before, touched = dict(os.environ), set()
putenv, unsetenv = os.putenv, os.unsetenv
os.putenv = lambda key, value: (touched.add(os.fsdecode(key)), putenv(key, value))
os.unsetenv = lambda key: (touched.add(os.fsdecode(key)), unsetenv(key))
import cnfetcache
with open("/proc/self/status") as fh:
    threads = next(int(line.split()[1]) for line in fh
                   if line.startswith("Threads:"))
print(json.dumps({{"threads": threads, "environ_kept": dict(os.environ) == before,
                  "value": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "touched": "OPENBLAS_NUM_THREADS" in touched}}))
"""


def _openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.26 has no dicts mode
        return False
    return "openblas" in blas.get("name", "").lower()


pytestmark = pytest.mark.skipif(
    not STATUS.is_file() or not _openblas(),
    reason="needs /proc/self/status and numpy built on OpenBLAS")


def _child(first="", **extra):
    """Run CHILD with no BLAS thread variable set except those in extra,
    importing the package under test (wherever pytest found it)."""
    src = Path(importlib.util.find_spec("cnfetcache").origin).parent.parent
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env.update(extra)
    proc = subprocess.run([sys.executable, "-c", CHILD.format(first=first)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_numpy_with_one_thread_and_keeps_environ():
    assert _child() == {"threads": 1, "environ_kept": True, "value": None,
                        "touched": True}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS starts no more threads than CPUs")
def test_callers_thread_count_wins():
    assert _child(OPENBLAS_NUM_THREADS="2") == {
        "threads": 2, "environ_kept": True, "value": "2", "touched": False}


def test_numpy_imported_first_leaves_environ_alone():
    # GOTO_NUM_THREADS, which OpenBLAS reads after OPENBLAS_NUM_THREADS,
    # keeps the child's own `import numpy` to one thread.
    assert _child(first="import numpy", GOTO_NUM_THREADS="1") == {
        "threads": 1, "environ_kept": True, "value": None, "touched": False}
