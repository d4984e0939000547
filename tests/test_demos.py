"""Every fast demo runs to completion as a script.

``train_tiny_registration.py`` is left out: it is a two-minute training run.
Each demo runs in a fresh working directory, because some write their outputs
under ``demos_out/`` there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("autodiff_basics.py", "cemsa_attention.py", "diffeomorphic_warping.py",
         "ablation_placements.py", "cli_workflow.py")


def test_every_demo_but_the_training_run_is_listed():
    assert set(DEMOS) | {"train_tiny_registration.py"} == \
        {p.name for p in (ROOT / "demos").glob("*.py")}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
