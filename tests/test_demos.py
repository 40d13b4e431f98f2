"""The narrative demos run to completion on the current API."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_simulator_basics", "02_circuit_templates",
                                  "03_parameter_shift", "04_layers_and_backprop",
                                  "05_train_denoiser"])
def test_demo_exits_cleanly(demo, tmp_path):
    # run in tmp_path: demo 05 writes its panels to demo_output/ in the working directory
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], cwd=tmp_path,
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
