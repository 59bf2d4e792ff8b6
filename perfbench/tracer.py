"""Spans around jamgame's public layer functions, recorded from outside.

``Tracer.install`` replaces each public function of the layers below with a
wrapper in every ``jamgame`` module that bound it (``from .x import f``
copies the reference), so calls between layers are recorded too.  The
program's source is not touched; ``uninstall`` puts the originals back.

A span is ``(id, parent_id, thread, name, t0_ns, t1_ns)``.  The parent is
the innermost open span of the same thread (0 at a thread's top level), so
self time is a span's duration minus its direct children, and spans of the
sweep's pool threads are never counted inside each other.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# layer -> (module, public functions).  Missing names are skipped, so the
# tracer keeps working when a later version drops or renames a function.
LAYERS = {
    "config": ("jamgame.config", ("read_config", "parse_config_text", "game_params_from_config")),
    "lambertw": ("jamgame.lambertw", ("lambert_w", "lambert_w_prime")),
    "model": ("jamgame.model", ("capacity_xy", "capacity", "utilities_xy", "utilities", "cycle_duration")),
    "best_response": ("jamgame.best_response",
                      ("psi", "chi", "best_response_target", "best_response_jammer", "x_hat", "thresholds")),
    "nash": ("jamgame.nash", ("nash_closed_form", "brd", "convergence_certificate", "s_prime_bounds")),
    "roots": ("jamgame.roots", ("bisect_bracket", "grow_until_negative")),
    "stackelberg": ("jamgame.stackelberg", ("leader_utility", "leader_loss_bracket_width", "stackelberg_exact",
                                            "stackelberg_approx", "improvement_report")),
    "belief": ("jamgame.belief", ("g_of_xi", "realized_utility", "expected_utility_closed",
                                  "expected_utility_numeric", "xi_opt", "efficiency")),
    "sim": ("jamgame.sim", ("run_sim", "estimate_opponent", "updates_to_equilibrium")),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [0]
            return self._local.stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, threading.get_ident(), name, t0, t1))

    def _wrap(self, name: str, fn):
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(modname)
            for n in names:
                fn = getattr(mod, n, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{n}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "jamgame" and not modname.startswith("jamgame."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._saved.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Span arithmetic

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def union_ns(intervals) -> int:
    """Total length of the union of (t0, t1) intervals."""
    total, end = 0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_times(spans) -> dict[str, int]:
    """Self time per layer in ns: duration minus direct children."""
    child = defaultdict(int)
    for sid, parent, _, _, t0, t1 in spans:
        child[parent] += t1 - t0
    out = defaultdict(int)
    for sid, _, _, name, t0, t1 in spans:
        out[layer_of(name)] += t1 - t0 - child.get(sid, 0)
    return dict(out)


def counts(spans) -> Counter:
    return Counter(s[3] for s in spans)


def cli_split(spans, root: str = "cli.main") -> dict[str, float]:
    """One invocation: wall time of the root span, split into config, solve and the rest (ns)."""
    main = next(s for s in spans if s[3] == root)
    top = [s for s in spans if s is not main and s[1] in (0, main[0])]
    config = union_ns((s[4], s[5]) for s in top if layer_of(s[3]) == "config")
    solve = union_ns((s[4], s[5]) for s in top if layer_of(s[3]) not in ("config", "cli"))
    total = main[5] - main[4]
    return {"total": total, "config": config, "solve": solve, "rest": total - config - solve}


def descendants_count(spans, ancestor: str, name: str) -> tuple[int, int]:
    """(number of outermost `ancestor` spans, `name` spans nested anywhere inside them)."""
    parent = {s[0]: (s[1], s[3]) for s in spans}

    def outermost_ancestor(sid):
        found = None
        while sid:
            pid, nm = parent.get(sid, (0, ""))
            if nm == ancestor:
                found = sid
            sid = pid
        return found

    roots = {s[0] for s in spans if s[3] == ancestor and outermost_ancestor(s[1]) is None}
    inside = sum(1 for s in spans if s[3] == name and outermost_ancestor(s[1]) in roots)
    return len(roots), inside
