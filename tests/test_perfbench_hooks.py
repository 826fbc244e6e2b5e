"""The benchmark's per-layer tracer still finds every engine name it wraps.

``perfbench/trace.py`` patches private methods of the engine, the service,
storage, replication and live layers by name.  A rename in ``src/`` makes
``install_client``/``install_server`` raise before a traced run measures
anything; these tests turn that into a tier-1 failure.  Each install runs
in its own interpreter, because it patches the imported package for good.
"""

import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent


def _run(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_install_client_wraps_every_layer():
    done = _run("from perfbench import trace; trace.install_client()")
    assert done.returncode == 0, done.stderr


def test_install_server_wraps_every_layer(tmp_path):
    spans = str(tmp_path / "leader.json")
    done = _run(f"from perfbench import trace; trace.install_server('leader', {spans!r})")
    assert done.returncode == 0, done.stderr
