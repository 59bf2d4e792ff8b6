"""The timing comparison (``python -m tests.abtime REV``) runs and reports every call of both trees."""

import json
import subprocess
import sys

from .abtime import CALLS, summary
from .replay import ROOT


def test_head_against_head_reports_every_call_in_one_round():
    res = subprocess.run([sys.executable, "-m", "tests.abtime", "HEAD", "--rounds", "1", "--repeats", "1"],
                         cwd=ROOT, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-1])
    assert (report["rev"], report["rounds"], report["repeats"]) == ("HEAD", 1, 1)
    assert list(report["calls"]) == list(CALLS)
    for name, s in report["calls"].items():
        assert "absent" not in s, name
        assert s["rev_q1"] == s["rev_median"] == s["rev_q3"] > 0.0 and s["median"] > 0.0
        assert s["faster_rounds"] in (0, 1)


def test_a_call_the_revision_lacks_is_reported_absent():
    base = [dict.fromkeys(CALLS, 2e-6) | {"chi": None}]
    calls = summary(base, [dict.fromkeys(CALLS, 1e-6)])
    assert calls["chi"] == {"absent": "REV"}
    assert calls["brd_from_2delta"] == {"rev_median": 2.0, "rev_q1": 2.0, "rev_q3": 2.0, "median": 1.0,
                                        "faster_rounds": 1}
