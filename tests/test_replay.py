"""The byte-identity replay (``python -m tests.replay REV``) reports exactly the commands whose output moved."""

import math

from jamgame import cli
from jamgame.model import StrategyProfile

from . import replay
from .test_cli import TABLE1_CFG


def test_the_replay_reports_a_nash_x_one_ulp_off_and_no_other_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lab.cfg").write_text(TABLE1_CFG)
    argvs = [
        ["nash", "lab.cfg"],
        ["stackelberg", "lab.cfg", "--approx"],
        ["sweep", "lab.cfg", "--figure", "seX", "--log-range", "1e5", "1e9", "5", "--out", "seX.csv"],
        ["simulate", "lab.cfg", "--seed", "1", "--out", "trace.csv"],
    ]
    before = replay.digests(argvs)
    assert replay.differing(before, replay.digests(argvs)) == []
    solve = cli.nash_closed_form

    def one_ulp_off(p):
        ne = solve(p)
        return ne._replace(profile=StrategyProfile(math.nextafter(ne.profile.x, math.inf), ne.profile.y))

    monkeypatch.setattr(cli, "nash_closed_form", one_ulp_off)
    assert replay.differing(before, replay.digests(argvs)) == [0]
