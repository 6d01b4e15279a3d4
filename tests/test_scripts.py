"""The experiment scripts run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["reread_table.py", "max_width_table.py",
                                    "demo_pipeline.py"])
def test_script_exits_0(tmp_path, script):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
