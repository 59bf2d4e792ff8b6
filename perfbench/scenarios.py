"""Benchmark inputs, drawn from the benchmark seed.

Every workload gets its inputs from one ``numpy.random.Generator`` seeded
with ``(seed, workload)``, so the same seed always gives the same scenarios,
commands and simulation seeds.  The program only ever sees the generated
config files and arguments.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

import oracles

# The paper's two scenarios (tests/conftest.py): the lab scenario has an
# interior Nash equilibrium, the simulation scenario a border one.
LAB = dict(t_aj=15e-6, delta=1e-6, p_t=2.0, p_j=2.0, t_p=50e-6, c_t=1e6, c_t_star=0.0)
TABLE2 = dict(t_aj=15e-6, delta=1e-6, p_t=2.0, p_j=2.0, t_p=20e-6, c_t=8e9, c_t_star=1e6)

# Scenario classes by where c_t sits relative to the two thresholds.  Each
# band keeps a margin from the thresholds so the regime is unambiguous.
INTERIOR, BORDER, NO_JAM = "interior", "border", "above_c_t_max"

# Per-round class mix of the single-scenario workloads.
QUERY_MIX = (INTERIOR,) * 2 + (BORDER,) * 2 + (NO_JAM,)
API_MIX = (INTERIOR,) * 120 + (BORDER,) * 90 + (NO_JAM,) * 90
API_BRD_TOL = 1e-12  # jamgame.nash.DEFAULT_TOL, which the api workload's brd calls use

SWEEP_RANGE = (1e5, 1e9)
# Points per figure id: about the same solver work for each (1.0-1.5 s on the
# reference host, see README), so the median sweep is not decided by which
# figure's cost happens to fall in the middle.  neX, brX and brY are
# vectorised and need many more points for the same work.
SWEEP_POINTS = {"payoffs": 2000, "approx": 2000, "seX": 3000, "seY": 2500, "comparison": 2000,
                "efficiency": 2500, "neX": 9000, "brX": 24000, "brY": 30000}
SWEEP_FIGURES = tuple(SWEEP_POINTS)
SIM_CYCLES = 100_000
SIM_PERIOD = 10


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def draw_params(rng: np.random.Generator, kind: str) -> dict:
    """Physically sensible parameters (t_aj/delta >= ~6) with c_t in the band ``kind``."""
    while True:
        delta = 10.0 ** rng.uniform(-7.0, -5.5)
        p = dict(
            t_aj=delta * 10.0 ** rng.uniform(0.8, 2.0),
            delta=delta,
            p_t=10.0 ** rng.uniform(-0.5, 1.0),
            p_j=10.0 ** rng.uniform(-0.5, 1.0),
            t_p=10.0 ** rng.uniform(-5.5, -4.0),
            c_t=1.0,
            c_t_star=float(rng.choice([0.0, 10.0 ** rng.uniform(4.0, 6.0)])),
        )
        tilde, c_max = oracles.thresholds(p)
        # Stay well inside two limits: --approx needs the W_-1 argument at or
        # above -1/e, and the BRD certificate fails once x_hat < 2 delta
        # (see the FOUND note on s_prime_bounds in CHANGES.md).
        cap = 0.5 * min(oracles.approx_domain_limit(p), oracles.x_hat_limit(p))
        if kind == INTERIOR:
            lo, hi = tilde * 1e-3, tilde / 1.3
        elif kind == BORDER:
            lo, hi = tilde * 1.3, c_max / 1.3
        elif kind == NO_JAM:
            lo, hi = c_max * 1.3, min(c_max * 8.0, cap)
        else:
            raise ValueError(kind)
        hi = min(hi, cap)
        if lo < hi:
            p["c_t"] = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
            return p


def brd_start(rng: np.random.Generator, p: dict) -> tuple[float, float]:
    """A BRD start drawn around the absorbing box of the dynamics."""
    x_m = float(oracles.b_t(p, 0.0))
    y_scale = max(float(oracles.b_j(p, oracles.x_hat(p))), p["t_aj"])
    return float(rng.uniform(2.0 * p["delta"], 4.0 * x_m)), float(rng.uniform(0.0, 4.0 * y_scale))


def config_text(p: dict, **extra) -> str:
    lines = [f"{k} = {float(v)!r}" for k, v in {**p, **extra}.items()]
    return "\n".join(lines) + "\n"


def query_ops(seed: int) -> list[dict]:
    """One round of single-scenario commands: four per scenario."""
    rng = rng_for(seed, "query")
    ops = []
    for i, kind in enumerate(QUERY_MIX):
        p = draw_params(rng, kind)
        sx, sy = brd_start(rng, p)
        tol = float(10.0 ** rng.uniform(-11.0, -7.0))
        cfg = f"q{i}.cfg"
        base = dict(params=p, kind=kind, config=cfg)
        ops += [
            dict(base, args=["nash", cfg]),
            dict(base, args=["nash", cfg, "--brd", "--tol", repr(tol),
                             "--start-x", repr(sx), "--start-y", repr(sy)],
                 brd=dict(tol=tol, start=(sx, sy))),
            dict(base, args=["stackelberg", cfg]),
            dict(base, args=["stackelberg", cfg, "--approx"], approx=True),
        ]
    return ops


def sweep_base(seed: int) -> dict:
    """The lab scenario with its physical constants jittered by up to 10 %."""
    rng = rng_for(seed, "sweep")
    p = dict(LAB)
    for k in ("t_aj", "p_t", "p_j", "t_p"):
        p[k] = float(p[k] * rng.uniform(0.9, 1.1))
    return p


def sweep_ops(seed: int, n: int | None = None) -> list[dict]:
    """One round: one long sweep per solver-backed figure id, each with
    ``SWEEP_POINTS`` points, or ``n`` points when given."""
    p = sweep_base(seed)
    a, b = SWEEP_RANGE
    x_m = float(oracles.b_t(p, 0.0))
    ops = []
    for fig in SWEEP_FIGURES:
        if fig == "brX":  # sweep the jam duration y
            lo, hi = 1e-2 * p["t_aj"], 1e2 * p["t_aj"]
        elif fig == "brY":  # sweep the silence bound x from 2 delta up
            lo, hi = 2.0 * p["delta"], 1e2 * x_m
        else:
            lo, hi = a, b
        out, n_fig = f"sweep_{fig}.csv", n or SWEEP_POINTS[fig]
        ops.append(dict(params=p, figure=fig, range=(lo, hi, n_fig), prior=SWEEP_RANGE, config="sweep.cfg", out=out,
                        args=["sweep", "sweep.cfg", "--figure", fig, "--log-range",
                              repr(lo), repr(hi), str(n_fig), "--out", out]))
    return ops


def sweep_config(p: dict) -> str:
    return config_text(p, xi_min=SWEEP_RANGE[0], xi_max=SWEEP_RANGE[1])


def simulate_ops(seed: int, cycles: int = SIM_CYCLES) -> list[dict]:
    """One round: the border scenario, then the interior scenario twice with
    the same seed, so the second interior run must reproduce the first."""
    rng = rng_for(seed, "simulate")
    ops = []
    for name, p in (("border", TABLE2), ("interior", LAB)):
        sim_seed = int(rng.integers(0, 2**62))
        cfg, out = f"sim_{name}.cfg", f"sim_{name}.csv"
        ops.append(dict(params=p, kind=name, config=cfg, out=out, seed=sim_seed,
                        cycles=cycles, period=SIM_PERIOD,
                        args=["simulate", cfg, "--out", out, "--seed", str(sim_seed)]))
    return ops + ops[-1:]


def simulate_config(p: dict, cycles: int = SIM_CYCLES) -> str:
    return config_text(p, total_cycles=cycles, update_period_cycles=SIM_PERIOD)


def brd_resolvable(p: dict) -> bool:
    """Whether a BRD step of ``API_BRD_TOL`` (scaled by delta) is well above
    the float resolution of the NE iterates.  Past it, roundoff keeps the steps near
    tol and ``brd`` can run out of iterations on some scenarios (see the
    FOUND note on the default BRD tolerance in CHANGES.md)."""
    x, y = oracles.nash_point(p)
    return max(x, y) / p["delta"] <= API_BRD_TOL / (4.0 * 2.0 ** -52)


def api_scenarios(seed: int) -> list[dict]:
    """One round of library calls: one entry per scenario."""
    rng = rng_for(seed, "api")
    out = []
    for kind in API_MIX:
        p = draw_params(rng, kind)
        while not brd_resolvable(p):
            p = draw_params(rng, kind)
        out.append(dict(params=p, kind=kind, start=(2.0 * p["delta"], 0.0)))
    return out
