"""Under ``perfbench/tracer.py`` the kernels give what they give untraced, and calls between them are recorded.

The tracer rebinds every public kernel name in each ``jamgame`` module to a
wrapper that forwards its arguments, so a kernel that calls another by its
public name, passing ``xp``, is traced there too.
"""

import numpy as np

import jamgame as jg

from .replay import ROOT

WEIGHTS = np.array([1e5, 1e6, 1e8])
CALLS = [
    lambda p: jg.best_response_target(p, 1e-5),
    lambda p: jg.stackelberg_exact(p),
    lambda p: jg.brd(p, jg.StrategyProfile(x=2.0 * p.delta, y=0.0)),
    lambda p: jg.improvement_report(p, WEIGHTS),
    lambda p: jg.efficiency(p, WEIGHTS),
    lambda p: jg.efficiency(p, np.array([[2e6], [3e6]]), WEIGHTS),
]


def _flat(v):
    """v as nested lists: a tuple or list field by field, an array as its elements."""
    if isinstance(v, (tuple, list)):
        return [_flat(f) for f in v]
    return v.tolist() if isinstance(v, np.ndarray) else v


def test_traced_kernels_give_the_untraced_results_and_nest_their_spans(table1, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer, descendants_count

    untraced = [_flat(call(table1)) for call in CALLS]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_flat(call(table1)) for call in CALLS]
    finally:
        tracer.uninstall()
    assert traced == untraced
    outer, inner = descendants_count(tracer.spans, "best_response.best_response_target", "lambertw.lambert_w")
    assert outer >= 1 and inner >= outer
