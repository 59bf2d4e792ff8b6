"""Every demo script runs to completion: they are the package's worked examples."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("0[1-5]_*.py"))
SRC = str(Path(__file__).parent.parent / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=ENV, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr


def test_best_responses_demo_csv_is_the_sweep_output(tmp_path):
    demo = subprocess.run([sys.executable, str(DEMOS[0])], capture_output=True, text=True, env=ENV, timeout=120)
    _, sep, block = demo.stdout.partition("`jamgame sweep CONFIG --figure brX --log-range 1e-6 1e-2 5`:\n")
    assert sep, demo.stdout
    cfg = tmp_path / "demo01.cfg"
    cfg.write_text("t_aj = 15e-6\ndelta = 1e-6\np_t = 2.0\np_j = 2.0\nt_p = 50e-6\nc_t = 1e6\n")
    sweep = subprocess.run(
        [sys.executable, "-m", "jamgame", "sweep", str(cfg), "--figure", "brX", "--log-range", "1e-6", "1e-2", "5"],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert sweep.returncode == 0, sweep.stderr
    assert block == sweep.stdout
