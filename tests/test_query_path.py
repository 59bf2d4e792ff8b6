"""The query-path report (``python -m tests.query_path``) runs and shows a numpy-free query path."""

import subprocess
import sys

from .query_path import ROOT


def test_the_query_path_report_shows_no_numpy_and_no_numpy_backed_module():
    res = subprocess.run([sys.executable, "-m", "tests.query_path"], cwd=ROOT, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[-1] == "numpy loaded: no"
    assert lines[-2].startswith(f"total, {len(lines) - 2} modules")
    modules = [line.split()[0] for line in lines[:-2]]
    assert "jamgame.cli" in modules
    assert not {"jamgame.figures", "jamgame.sim", "jamgame.belief"} & set(modules)
