import os
import subprocess
import sys
from pathlib import Path

import krt


def test_python_dash_m_krt_prints_help():
    src = str(Path(krt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "krt", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "usage: krt" in proc.stdout
