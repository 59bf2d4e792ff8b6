"""Per-layer figures, timed from outside by calling each layer's public functions.

    python perfbench/layer_probe.py JOB_JSON

Writes one JSON object of per-layer metrics to the job's ``result`` path.
Timings are medians over batches of repeated calls on the job's scenarios;
counts come from spans recorded by ``tracer`` during one pass over the same
scenarios.
"""

import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np

from tracer import Tracer, counts, descendants_count


def per_call_s(fn, args_list, batch_s=0.02, batches=5) -> float:
    """Median seconds per call over `batches` batches of at least `batch_s` each."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            for a in args_list:
                fn(*a)
        if time.perf_counter() - t0 >= batch_s:
            break
        reps *= 2
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            for a in args_list:
                fn(*a)
        samples.append((time.perf_counter() - t0) / (reps * len(args_list)))
    return statistics.median(samples)


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    import jamgame as jg
    from jamgame import cli
    from jamgame.config import game_params_from_config, read_config

    m = {}
    ps = [jg.GameParams(**s) for s in job["scenarios"]]
    starts = [jg.StrategyProfile(2.0 * p.delta, 0.0) for p in ps]

    cfg_path = job["config_path"]
    m["config.parse_us"] = 1e6 * per_call_s(
        lambda: game_params_from_config(read_config(cfg_path)), [()])

    w_args = [(2.0 * (p.t_aj + y) / (np.e * p.delta),) for p in ps for y in (0.0, p.t_aj)]
    m["lambertw.scalar_ns"] = 1e9 * per_call_s(jg.lambert_w, w_args)
    z = np.geomspace(0.1, 1e6, 100_000)
    m["lambertw.array_elem_ns"] = 1e9 * per_call_s(jg.lambert_w, [(z,)]) / z.size

    xs = [(p, float(jg.best_response_target(p, 0.0)) * 1.5) for p in ps]
    m["best_response.target_us"] = 1e6 * per_call_s(jg.best_response_target, [(p, p.t_aj) for p in ps])
    m["best_response.jammer_us"] = 1e6 * per_call_s(jg.best_response_jammer, xs)

    m["nash.closed_form_us"] = 1e6 * per_call_s(jg.nash_closed_form, [(p,) for p in ps])
    m["nash.brd_us"] = 1e6 * per_call_s(jg.brd, list(zip(ps, starts)))
    m["nash.brd_iterations"] = statistics.fmean(jg.brd(p, s).iterations_used for p, s in zip(ps, starts))
    m["nash.certificate_us"] = 1e6 * per_call_s(
        jg.convergence_certificate, [(p, 1e-12, s) for p, s in zip(ps, starts)])

    m["stackelberg.exact_us"] = 1e6 * per_call_s(jg.stackelberg_exact, [(p,) for p in ps])
    m["stackelberg.approx_us"] = 1e6 * per_call_s(jg.stackelberg_approx, [(p,) for p in ps])
    m["stackelberg.improvement_us"] = 1e6 * per_call_s(jg.improvement_report, [(p,) for p in ps])
    tracer = Tracer()
    tracer.install()
    for p in ps:
        jg.stackelberg_exact(p)
    tracer.uninstall()
    solves, chi_calls = descendants_count(tracer.spans, "stackelberg.stackelberg_exact", "best_response.chi")
    m["stackelberg.chi_evals"] = chi_calls / solves

    # belief: a scenario never seen before is cold for the committed-strategy
    # cache; perturbing t_aj gives a fresh one per cold sample.
    base = jg.GameParams(**job["belief_params"])
    prior = jg.UniformPrior(*job["prior"])
    cold = []
    for k in range(3):
        fresh = replace(base, t_aj=base.t_aj * (1.0 + 1e-9 * (k + 1)))
        t0 = time.perf_counter()
        jg.xi_opt(fresh, prior)
        cold.append(time.perf_counter() - t0)
    m["belief.xi_opt_cold_ms"] = 1e3 * statistics.median(cold)
    m["belief.xi_opt_warm_ms"] = 1e3 * per_call_s(jg.xi_opt, [(fresh, prior)], batches=3)
    xi = jg.xi_opt(fresh, prior)
    m["belief.efficiency_us"] = 1e6 * per_call_s(jg.efficiency, [(fresh, xi)])

    # Hits over lookups of the committed-strategy cache in an efficiency
    # sweep: every g_of_xi call is one lookup, and a miss is the
    # stackelberg_exact call it makes.
    tracer = Tracer()
    tracer.install()
    with open(job["sweep_out"] + ".stdout", "w", encoding="utf-8") as sink:
        saved, sys.stdout = sys.stdout, sink
        try:
            code = cli.main(["sweep", job["sweep_config"], "--figure", "efficiency", "--log-range",
                             *map(repr, job["prior"]), str(job["sweep_points"]), "--out", job["sweep_out"]])
        finally:
            sys.stdout = saved
            tracer.uninstall()
    if code != 0:
        raise SystemExit(f"efficiency sweep exited with {code}")
    lookups = counts(tracer.spans)["belief.g_of_xi"]
    _, misses = descendants_count(tracer.spans, "belief.g_of_xi", "stackelberg.stackelberg_exact")
    m["belief.cache_hit_ratio"] = (lookups - misses) / lookups

    sim_p = jg.GameParams(**job["sim_params"])
    cycles = job["sim_cycles"]
    sim_cfg = jg.SimConfig(params=sim_p, total_cycles=cycles, update_period_cycles=10, rng_seed=job["sim_seed"])
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        jg.run_sim(sim_cfg)
        runs.append(time.perf_counter() - t0)
    m["sim.us_per_cycle"] = 1e6 * statistics.median(runs) / cycles
    tracemalloc.start()
    jg.run_sim(sim_cfg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    m["sim.bytes_per_cycle"] = peak / cycles

    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(m, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
