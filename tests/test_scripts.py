"""The experiment scripts run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# scripts run at a tiny size here
ARGS = {"threads_table.py": ["--sizes", "16", "--depth", "10", "--repeats", "1"],
        "kernel_table.py": ["--sizes", "16", "--repeats", "1"],
        "write_table.py": ["--sizes", "16", "--depths", "8", "--chunks", "8,8,4",
                           "--repeats", "1"],
        "plan_table.py": ["--stages", "8,16", "--depth", "32", "--repeats", "1"]}


@pytest.mark.parametrize("script", ["reread_table.py", "max_width_table.py",
                                    "demo_pipeline.py", "scratch_table.py",
                                    "threads_table.py", "kernel_table.py",
                                    "write_table.py", "plan_table.py"])
def test_script_exits_0(tmp_path, script):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                          *ARGS.get(script, [])],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
