"""Every narrative script under ``demos/`` runs to exit 0 in a fresh
interpreter on this csiqa, writing its temporary files under the test's
own directory."""

import os
import pathlib
import subprocess
import sys

import pytest

import csiqa

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    src = os.path.dirname(os.path.dirname(csiqa.__file__))
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
